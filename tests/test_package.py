"""The package as a whole: its namespace and the layout of its source."""

import ast
import importlib
import re
import struct
import types
from pathlib import Path

import boundstate_lab


def test_all_is_sorted_unique_and_matches_the_bound_names():
    names = boundstate_lab.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    bound = {name for name, value in vars(boundstate_lab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == bound


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


def test_the_python_step_reads_the_tableau_by_index():
    # the kernel writes the step out term by term; _march weighs the stages by
    # _A, _E and _P themselves, so integrate.py names no single entry (_A21)
    tree = ast.parse((Path(boundstate_lab.__file__).resolve().parent
                      / "integrate.py").read_text())
    entries = sorted({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                      and re.fullmatch(r"_[ABCEP]\d+", node.id)})
    assert entries == []
    march = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_march")
    read = {node.id for node in ast.walk(march) if isinstance(node, ast.Name)}
    assert {"_A", "_E", "_P"} <= read


def _kernel_source() -> str:
    return (Path(boundstate_lab.__file__).resolve().parent / "_dopri.c").read_text()


def test_the_kernel_spells_integrates_tableau_bit_for_bit():
    # every C/A/B/E/P #define of _dopri.c, evaluated as its quotient, is the
    # fraction integrate holds, and every nonzero weight the step reads has one
    integrate_module = importlib.import_module("boundstate_lab.integrate")
    c, a, e, p = (getattr(integrate_module, name) for name in ("_C", "_A", "_E", "_P"))
    want = {f"C{j + 1}": c[j] for j in range(1, 6)}
    want.update({f"A{i + 1}{j + 1}": a[i][j] for i in range(1, 6) for j in range(i)})
    want.update({f"B{j + 1}": a[6][j] for j in range(6) if a[6][j]})
    want.update({f"E{j + 1}": e[j] for j in range(7) if e[j]})
    want.update({f"P{i + 1}{j + 1}": p[i][j] for i in range(7) for j in range(4) if p[i][j]})
    defined = {}
    for name, value in re.findall(r"^#define ([CABEP]\d+) (.+)$", _kernel_source(), re.M):
        number = r"(-?\d+\.\d+)"
        fraction = re.fullmatch(rf"\({number} / {number}\)", value)
        defined[name] = (float(fraction[1]) / float(fraction[2]) if fraction
                         else float(re.fullmatch(number, value)[1]))
    assert defined.keys() == want.keys()
    for name, value in want.items():
        assert struct.pack("<d", defined[name]) == struct.pack("<d", value), name
    # and so is every constant of the step-size controller
    for name in ("MAX_STEP", "MIN_FACTOR", "MAX_FACTOR", "SAFETY"):
        value = re.search(rf"^#define {name} (\S+)$", _kernel_source(), re.M)[1]
        want_value = getattr(integrate_module, f"_{name}")
        assert struct.pack("<d", float(value)) == struct.pack("<d", want_value), name


def test_the_kernel_has_one_march_entry_and_one_step_loop():
    source = _kernel_source()
    entries = re.findall(r"^(?!static)\w[\w ]*?\b(\w+)\(", source, re.M)
    assert entries == ["dopri_march"]
    assert source.count("for (;;)") == 1
    assert "while (" not in source
