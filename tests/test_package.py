"""The package as a whole: its namespace and the layout of its source."""

import ast
import dataclasses
import importlib
import pkgutil
import re
import struct
import types
from pathlib import Path

import pytest

import boundstate_lab


def test_all_is_sorted_unique_and_matches_the_bound_names():
    # the names from functionals and verify are bound on first read (PEP 562):
    # every name the package offers resolves to what it names, never to a
    # submodule (integrate and classify are both), and once all are read the
    # package binds __all__
    names = boundstate_lab.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    offered = {name: getattr(boundstate_lab, name) for name in dir(boundstate_lab)
               if not name.startswith("_")}
    assert set(names) <= set(offered)
    assert [name for name in names if isinstance(offered[name], types.ModuleType)] == []
    with pytest.raises(AttributeError):
        boundstate_lab.no_such_name
    bound = {name for name, value in vars(boundstate_lab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == bound



def test_every_exported_name_is_defined_in_a_package_module():
    # __all__ is derived from what the package binds; a helper it imports
    # (ModuleType, say) would land there unseen, so each name must be the very
    # object one of the package's modules binds, and a class or function must
    # be bound in the module that defines it
    modules = [importlib.import_module(f"boundstate_lab.{info.name}")
               for info in pkgutil.iter_modules(boundstate_lab.__path__)]
    for name in boundstate_lab.__all__:
        value = getattr(boundstate_lab, name)
        homes = [module.__name__ for module in modules if vars(module).get(name) is value]
        assert homes, name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ in homes, name


def test_no_module_uses_cached_property():
    # functools.cached_property writes the record's __dict__, after which every
    # attribute read of it is slower; a value built on first read is a declared field
    package = Path(boundstate_lab.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
             and "cached_property" in {getattr(node, key, None) for key in ("id", "attr", "name")}]
    assert found == []

def test_no_source_line_is_longer_than_100_characters():
    package = Path(boundstate_lab.__file__).resolve().parent
    long_lines = [f"{path.name}:{number}"
                  for path in sorted([*package.glob("*.py"), *package.glob("*.c")])
                  for number, line in enumerate(path.read_text().splitlines(), start=1)
                  if len(line) > 100]
    assert long_lines == []


def test_no_compiled_object_sits_under_src():
    # the kernel of _dopri.c is built into the user's cache, never beside its source
    src = Path(__file__).resolve().parents[1] / "src"
    built = [str(path.relative_to(src)) for suffix in ("so", "o", "pyd", "dylib")
             for path in src.rglob(f"*.{suffix}")]
    assert built == []


def test_only_integrate_evaluates_segments_and_defines_u_second():
    # Only integrate.py may read Trajectory.coeffs, so a new interpolant
    # changes one module; u'' is spelled in one module, beside the step.
    package = Path(boundstate_lab.__file__).resolve().parent
    coeff_readers, u_second_homes = set(), []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "coeffs":
                coeff_readers.add(path.name)
            if isinstance(node, ast.FunctionDef) and node.name == "_u_second":
                u_second_homes.append(path.name)
    assert coeff_readers == {"integrate.py"}
    assert u_second_homes == ["integrate.py"]


def test_trajectories_keep_their_knot_states_as_columns():
    # Trajectory holds knot_values[c], one column per component as the kernel
    # writes them: no states field, no module reads one, and kept_run hands
    # the kernel's columns over without zipping them into per-knot tuples
    package = Path(boundstate_lab.__file__).resolve().parent
    from boundstate_lab.integrate import Trajectory

    names = {f.name for f in dataclasses.fields(Trajectory)}
    assert "states" not in names and "knot_values" in names
    readers = sorted({path.name for path in package.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute) and node.attr == "states"})
    assert readers == []
    kept = next(node for node in ast.parse((package / "_dopri.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "kept_run")
    assert [ast.unparse(node) for node in ast.walk(kept) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "zip"] == []


def test_the_identity_ledger_has_no_difference_step_and_probes_read_no_segments():
    # identity_residuals differentiates by the complex step, so functionals.py
    # names no difference step, and probe_radii fits no stencil into a segment
    path = Path(boundstate_lab.__file__).resolve().parent / "functionals.py"
    tree = ast.parse(path.read_text())
    assert "_H_SCALE" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    probe = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "probe_radii")
    read = {node.attr for node in ast.walk(probe) if isinstance(node, ast.Attribute)}
    assert read & {"segment_index", "knots"} == set()


def test_detect_events_reads_the_zeros_of_u_up_and_v_through_find_zeros():
    # find_zeros keeps each component's roots on the trajectory, so the cross-
    # oracle gate and the ledger reuse what detect_events found; detect_events
    # hands _sign_change_roots no grid_values column (it scans u'' itself)
    path = Path(boundstate_lab.__file__).resolve().parent / "portrait.py"
    detect = next(node for node in ast.parse(path.read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.name == "detect_events")
    columns = {target.id for node in ast.walk(detect) if isinstance(node, ast.Assign)
               and "grid_values" in ast.unparse(node.value)
               for target in ast.walk(node.targets[0]) if isinstance(target, ast.Name)}
    calls = [node for node in ast.walk(detect) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)]
    scanned = [ast.unparse(arg) for call in calls if call.func.id == "_sign_change_roots"
               for arg in call.args]
    assert {"us", "ups"} <= columns
    assert [arg for arg in scanned if arg in columns or "grid_values" in arg] == []
    assert sorted(call.args[1].value for call in calls if call.func.id == "find_zeros") == [
        "u", "up", "v"]


def test_identity_sides_read_their_ingredients_from_the_record():
    # eval_aux evaluates f, f', F and r**(n-1) once per record, and the
    # amplitudes are taken once per field, so no side in the registry, nor a
    # helper it calls, evaluates them again
    path = Path(boundstate_lab.__file__).resolve().parent / "functionals.py"
    tree = ast.parse(path.read_text())
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    registry = next(node for node in tree.body if isinstance(node, ast.AnnAssign)
                    and node.target.id == "_IDENTITIES")
    sides, todo = [], [registry.value]
    while todo:
        node = todo.pop()
        sides.append(node)
        todo.extend(helpers.pop(sub.id) for sub in ast.walk(node)
                    if isinstance(sub, ast.Name) and sub.id in helpers)
    names = {node.name for node in sides if isinstance(node, ast.FunctionDef)}
    assert {"_family_w", "_barrier_ba", "_p_crit_rhs", "_p2_rhs"} <= names
    field_calls = [ast.unparse(sub) for node in sides for sub in ast.walk(node)
                   if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                   and sub.func.id in ("f", "f_prime", "big_F", "critical_amplitudes")]
    assert field_calls == []
    assert not [node for node in sides if "** (fl.n - 1)" in ast.unparse(node)]


def test_no_record_holds_what_the_program_already_has():
    # the field computes its two amplitudes (no CriticalAmplitudes, no
    # critical_amplitudes, no per-field cache in functionals), a stop policy
    # is the bool the kernel takes (no StopPolicy), a ladder is its entries
    # (no AlphaLadder), and detect_events reads alpha_star off its trajectory
    package = Path(boundstate_lab.__file__).resolve().parent
    gone = {"CriticalAmplitudes", "StopPolicy", "AlphaLadder"}
    defined, called = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in gone:
                defined.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.Call) and "critical_amplitudes" in ast.unparse(node.func):
                called.append(f"{path.name}:{node.lineno}")
    assert defined == [] and called == []
    assert "lru_cache" not in (package / "functionals.py").read_text()
    assert not gone & {*boundstate_lab.__all__} and "critical_amplitudes" not in dir(boundstate_lab)
    detect = next(node for node in ast.parse((package / "portrait.py").read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.name == "detect_events")
    assert [arg.arg for arg in detect.args.args] == ["traj"]


def test_records_are_built_by_their_constructors():
    # State and AuxSample are plain dataclasses built by their own __init__: no
    # module makes an instance with object.__new__ or touches a __dict__; the
    # parameter records stay frozen (a FieldParams is a dict key)
    package = Path(boundstate_lab.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and (node.attr == "__dict__" or ast.unparse(node) == "object.__new__")]
    assert found == []
    for record in (boundstate_lab.FieldParams, boundstate_lab.IntegratorControls,
                   boundstate_lab.ProblemParams):
        assert record.__dataclass_params__.frozen, record.__name__


def test_the_python_step_reads_the_tableau_by_index():
    # _march weighs the stages by _A, _E and _P themselves, so integrate.py
    # names no single entry (_A21)
    tree = ast.parse((Path(boundstate_lab.__file__).resolve().parent
                      / "integrate.py").read_text())
    entries = sorted({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                      and re.fullmatch(r"_[ABCEP]\d+", node.id)})
    assert entries == []
    march = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_march")
    read = {node.id for node in ast.walk(march) if isinstance(node, ast.Name)}
    assert {"_A", "_E", "_P"} <= read


def test_the_python_step_reads_the_equation_where_it_is_defined():
    # _march writes no power, f, f', u'' or E of its own: its only power is the
    # step-size controller's, its radial system is integrate._rhs, which reads
    # f, f' and u'' and which the identity formula check reads too,
    # and E is spelled in field alone, beside F
    package = Path(boundstate_lab.__file__).resolve().parent

    def functions(module):
        tree = ast.parse((package / module).read_text())
        return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def names(node):
        return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}

    integrate_fns, functionals_fns = functions("integrate.py"), functions("functionals.py")
    march, rhs = integrate_fns["_march"], integrate_fns["_rhs"]
    powers = {ast.unparse(node) for fn in (march, rhs) for node in ast.walk(fn)
              if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)}
    assert powers == {"norm ** _EXPONENT"}
    assert {"_rhs", "big_F", "_energy"} <= names(march)
    assert {"f", "f_prime", "_u_second"} <= names(rhs)
    assert "_rhs" in names(functionals_fns["identity_formula_residuals"])
    energy_homes = [path.name for path in sorted(package.glob("*.py"))
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.FunctionDef) and node.name == "_energy"]
    assert energy_homes == ["field.py"]


def _kernel_source() -> str:
    return (Path(boundstate_lab.__file__).resolve().parent / "_dopri.c").read_text()


def _kernel_declarations() -> str:
    """The C the loader writes of integrate's constants, ahead of _dopri.c."""
    return importlib.import_module("boundstate_lab._dopri")._declarations()


def _kernel_array(name: str) -> list:
    """The static double array ``name`` the kernel compiles, its rows as lists."""
    body = re.search(rf"^static const double {name}(?:\[\d+\])+ = (\{{.*?\}});$",
                     _kernel_declarations(), re.M | re.S)[1]
    rows = re.findall(r"\{([^{}]*)\}", body)
    return [[float(x) for x in row.replace("\n", " ").split(",") if x.strip()] for row in rows]


def _bits(values) -> bytes:
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def test_the_kernel_spells_integrates_tableau_bit_for_bit():
    # every DOP853 constant the kernel compiles is the double integrate holds:
    # the nodes C, the stage weights A (each row s over slopes 0..s-1, zeros
    # trailing), the error weights E5 and E3, and the dense-output rows D
    integrate_module = importlib.import_module("boundstate_lab.integrate")
    c, a, e, p = (getattr(integrate_module, name) for name in ("_C", "_A", "_E", "_P"))
    assert (len(c), len(a), [len(row) for row in a]) == (16, 16, list(range(16)))
    assert [len(row) for row in e] == [12, 12] and [len(row) for row in p] == [16] * 4
    (kernel_c,) = _kernel_array("C")
    assert _bits(kernel_c) == _bits(c)
    kernel_a = _kernel_array("A")
    assert len(kernel_a) == 16
    for s, (row, want) in enumerate(zip(kernel_a, a)):
        assert _bits(row[:s]) == _bits(want), s
        assert all(x == 0.0 for x in row[s:]), s
    assert [_bits(row) for row in _kernel_array("E5") + _kernel_array("E3")] == [
        _bits(row) for row in e]
    assert [_bits(row) for row in _kernel_array("D")] == [_bits(row) for row in p]
    # and so is every constant of the step-size controller
    for name in ("MAX_STEP", "MIN_FACTOR", "MAX_FACTOR", "SAFETY", "EXPONENT"):
        value = re.search(rf"^#define {name} (\S+)$", _kernel_declarations(), re.M)[1]
        want_value = getattr(integrate_module, f"_{name}")
        assert struct.pack("<d", float(value)) == struct.pack("<d", want_value), name
    # and _dopri.c keeps no second copy of any of them
    assert "static const double" not in _kernel_source()
    assert re.findall(r"^#define (MAX_STEP|MIN_FACTOR|MAX_FACTOR|SAFETY|EXPONENT|COLUMNS)\b",
                      _kernel_source(), re.M) == []


# Dormand-Prince 5(4), the pair the march used before DOP853, as fractions
_DOPRI5 = [
    (1, 5), (3, 10), (4, 5), (8, 9), (3, 40), (9, 40), (44, 45), (-56, 15), (32, 9),
    (19372, 6561), (-25360, 2187), (64448, 6561), (-212, 729), (9017, 3168), (-355, 33),
    (46732, 5247), (49, 176), (-5103, 18656), (35, 384), (500, 1113), (125, 192),
    (-2187, 6784), (11, 84), (71, 57600), (-71, 16695), (71, 1920), (-17253, 339200),
    (22, 525), (-1, 40), (-8048581381, 2820520608), (8663915743, 2820520608),
    (-12715105075, 11282082432), (131558114200, 32700410799),
    (-68118460800, 10900136933), (87487479700, 32700410799), (-1754552775, 470086768),
    (14199869525, 1410260304), (-10690763975, 1880347072), (127303824393, 49829197408),
    (-318862633887, 49829197408), (701980252875, 199316789632), (-282668133, 205662961),
    (2019193451, 616988883), (-1453857185, 822651844), (40617522, 29380423),
    (-110615467, 29380423), (69997945, 29380423),
]


def test_no_dopri5_constant_remains():
    # no number written in integrate.py (the kernel compiles its tables too) or
    # _dopri.c, nor any quotient of two of them, is a DOPRI5 coefficient,
    # except the 1/5 that DOP853's dense stage 14 shares
    package = Path(boundstate_lab.__file__).resolve().parent
    dopri5 = {num / den for num, den in _DOPRI5} - {0.2}
    written = set()
    for node in ast.walk(ast.parse((package / "integrate.py").read_text())):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            written.add(float(node.value))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and all(isinstance(side, ast.Constant) for side in (node.left, node.right))):
            written.add(node.left.value / node.right.value)
    number = r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"
    source = _kernel_source()
    written.update(float(x) for x in re.findall(rf"(?<![\w.]){number}", source))
    written.update(float(a) / float(b)
                   for a, b in re.findall(rf"({number})\s*/\s*({number})", source))
    assert sorted(written & dopri5) == []
    assert 0.2 in written  # the shared node is written, so the scan reads integrate's tables


def test_the_loader_reserves_the_kernels_columns_per_knot():
    # r, u, u', v, v' per knot, then each component's COEFFS dense-output
    # coefficients and its midpoint; COLUMNS comes with the loader's declarations
    defined = dict(re.findall(r"^#define (COEFFS|COLUMNS) (\d+)",
                              _kernel_declarations() + _kernel_source(), re.M))
    assert int(defined["COLUMNS"]) == 5 + 4 * (int(defined["COEFFS"]) + 1)
    dopri = importlib.import_module("boundstate_lab._dopri")
    assert dopri._COLUMNS == int(defined["COLUMNS"])
    assert int(defined["COEFFS"]) == 7


def test_the_kernel_has_one_march_entry_and_one_step_loop():
    source = _kernel_source()
    entries = re.findall(r"^(?!static)\w[\w ]*?\b(\w+)\(", source, re.M)
    assert entries == ["dopri_march", "csv_rows"]  # the march, then io's CSV row formatter
    assert source.count("for (;;)") == 1
    assert "while (" not in source
