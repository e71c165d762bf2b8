"""The compiled march against the Python step, and its loader.

The kernel and ``integrate._march`` read the same DOP853 tableau by index.  ``_dopri.counted_run`` must give what ``_march`` +
``count_nodes`` + ``classify._estimate_rows`` give for the same
classify-policy shot, bit for bit: the bracket searches read only those.
``_dopri.kept_run`` must give the trajectory ``_march`` gives, bit for bit,
under either policy.
"""

import dataclasses
import importlib
import os
import shutil
import struct
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boundstate_lab
from boundstate_lab import (
    CLASSIFY_POLICY,
    FULL_RANGE_POLICY,
    FieldParams,
    IntegratorControls,
    ProblemParams,
    find_alpha_k,
    integrate,
    node_count_of_alpha,
)
from boundstate_lab import _dopri
from boundstate_lab.cli import EXIT_OK, main
from boundstate_lab.field import _energy, big_F
from boundstate_lab.functionals import _AUX_COLUMNS
from boundstate_lab.integrate import (
    ENERGY_NONPOSITIVE,
    IntegrationError,
    REACHED_RMAX,
    STEP_LIMIT,
    STEP_UNDERFLOW,
    VARIATION_DIVERGED,
    TerminationCause,
    series_start,
)
from boundstate_lab.portrait import IndeterminateCount, _node_count, count_nodes

from test_classify import _plain_bracket
from test_integrate import GOLDEN_BITS

classify_module = importlib.import_module("boundstate_lab.classify")
integrate_module = importlib.import_module("boundstate_lab.integrate")

FL = FieldParams(3, 3.0)


@pytest.fixture(scope="module")
def kernel():
    """Skips a test that compares the kernel with the Python step where there
    is no kernel to compare: the interpreter's C compiler is absent."""
    if _dopri._kernel() is None:
        pytest.skip("no kernel to run")


def _verdict(fn, *args):
    try:
        return fn(*args)
    except IndeterminateCount as exc:
        return str(exc)


def _run_or_error(fn, params):
    try:
        return fn(params)
    except Exception as exc:  # both sides must raise alike
        return type(exc), str(exc)


def _reference(params):
    """(termination, count, rows) from the Python step."""
    traj = integrate_module._march(params, CLASSIFY_POLICY)
    # count_nodes refuses a run that gave up; count its sign changes all the same
    counted = dataclasses.replace(traj, termination=TerminationCause(REACHED_RMAX, traj.r_end))
    count = count_nodes(counted).count
    return traj.termination, count, classify_module._estimate_rows(traj, count), traj


def _assert_same_shot(params):
    got = _run_or_error(_dopri.counted_run, params)
    want = _run_or_error(_reference, params)
    if isinstance(want[0], type):  # the same exception and text
        assert got == want
        return None
    end, count, rows = got
    want_end, want_count, want_rows, traj = want
    assert (end.tag, end.detail) == (want_end.tag, want_end.detail)
    assert struct.pack("<d", end.r_stop) == struct.pack("<d", want_end.r_stop)
    assert count == want_count
    assert _verdict(_node_count, end, count) == _verdict(count_nodes, traj)
    assert len(rows) == len(want_rows) == 2
    for row, want_row in zip(rows, want_rows):
        if want_row is None:
            assert row is None
        else:
            assert struct.pack("<5d", *row) == struct.pack("<5d", *want_row)
    return end.tag


@pytest.mark.parametrize("name, field, alpha, controls",
                         [case[:4] for case in GOLDEN_BITS], ids=[case[0] for case in GOLDEN_BITS])
@pytest.mark.usefixtures("kernel")
def test_kernel_matches_the_python_step_on_the_golden_shots(monkeypatch, name, field, alpha,
                                                             controls):
    if name == "step_limit":
        monkeypatch.setattr(integrate_module, "_MAX_STEPS", 40)
    tag = _assert_same_shot(ProblemParams(field, alpha, controls))
    assert tag == (STEP_LIMIT if name == "step_limit" else ENERGY_NONPOSITIVE)


# (guard, budget, controls, tag): the start-state traps and every give-up
TRAPS = [
    (1e12, 500_000, IntegratorControls(r_max=1.0), REACHED_RMAX),
    (1.005, 500_000, IntegratorControls(), VARIATION_DIVERGED),  # |v| passes 1.005 at r = 0.04
    (0.5, 500_000, IntegratorControls(), VARIATION_DIVERGED),  # v = 1 at the series start
    (1e12, 40, IntegratorControls(), STEP_LIMIT),
    (1e12, 500_000, IntegratorControls(abs_tol=1e-300, rel_tol=1e-30), STEP_UNDERFLOW),
]


@pytest.mark.parametrize("guard, budget, controls, tag", TRAPS)
@pytest.mark.usefixtures("kernel")
def test_kernel_matches_the_python_step_on_every_stop(monkeypatch, guard, budget, controls, tag):
    monkeypatch.setattr(integrate_module, "_V_GUARD", guard)
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", budget)
    assert _assert_same_shot(ProblemParams(FL, 5.0, controls)) == tag
    # the start is Python's, and so are its exceptions
    _assert_same_shot(ProblemParams(FL, 5.0, dataclasses.replace(controls, rel_tol=0.0)))
    _assert_same_shot(ProblemParams(FL, 5.0, dataclasses.replace(controls, r0=controls.r_max)))


# the series start sits at u = -1.7e265, where |u|**(p+1) and |u|**(p-1) overflow
OVERFLOWING_START = ProblemParams(FieldParams(3, 4.9), 1e60, IntegratorControls(r0=1e-14))


@pytest.mark.usefixtures("kernel")
def test_kernel_ends_alike_where_a_power_overflows():
    # the energy is inf in both marches, so the shot is not trapped, and its
    # variation trips the guard at the start; the kernel keeps the shot
    assert _dopri.counted_run(OVERFLOWING_START) is not None
    assert _assert_same_shot(OVERFLOWING_START) == VARIATION_DIVERGED
    nc = node_count_of_alpha(OVERFLOWING_START.field, OVERFLOWING_START.alpha,
                             OVERFLOWING_START.controls)
    assert not nc.final


@pytest.mark.parametrize("alpha", [1e100, 1e200])
@pytest.mark.usefixtures("kernel")
def test_an_overflow_in_the_series_start_is_raised_not_deferred(alpha):
    params = ProblemParams(FL, alpha)
    with pytest.raises(IntegrationError) as raised:  # naming the height
        series_start(params)
    assert f"alpha={alpha!r}" in str(raised.value)
    _assert_same_shot(params)
    for policy in (CLASSIFY_POLICY, FULL_RANGE_POLICY):
        _assert_same_kept_shot(params, policy)


# the start energy lies within an ulp of zero here: big_F's |u|**(p+1) / (p+1)
# puts it at -5.6e-17, a product by 1/(p+1) would put it at +1.7e-16
EDGE_OF_THE_TRAP = ProblemParams(FieldParams(3, 1.5), 1.56250000000434,
                                 IntegratorControls(r0=1e-5))


@pytest.mark.usefixtures("kernel")
def test_both_marches_trap_by_the_energy_of_field():
    start = series_start(EDGE_OF_THE_TRAP)
    assert _energy(start.up, big_F(start.u, EDGE_OF_THE_TRAP.field)) < 0.0
    assert _assert_same_shot(EDGE_OF_THE_TRAP) == ENERGY_NONPOSITIVE
    assert _assert_same_kept_shot(EDGE_OF_THE_TRAP, CLASSIFY_POLICY) == ENERGY_NONPOSITIVE
    assert integrate(EDGE_OF_THE_TRAP).termination.detail == "energy nonpositive at series start"


@st.composite
def _counted_shots(draw):
    """Classify-policy shots: p near 1, mid-range or near the critical exponent;
    alpha in 10**[-1, 4]; the series start, the tolerances and r_max varied."""
    n = draw(st.integers(min_value=3, max_value=6))
    p_crit = (n + 2) / (n - 2)
    gap = draw(st.floats(min_value=0.01, max_value=0.3))
    p = draw(st.sampled_from((1.0 + gap, 0.5 * (1.0 + p_crit) + 0.5 * gap, p_crit - gap)))
    alpha = 10.0 ** draw(st.floats(min_value=-1.0, max_value=4.0))
    r0 = draw(st.none() | st.floats(min_value=-9.0, max_value=-3.0).map(lambda e: 10.0 ** e))
    controls = IntegratorControls(
        r0=r0,
        abs_tol=10.0 ** draw(st.floats(min_value=-14.0, max_value=-8.0)),
        rel_tol=10.0 ** draw(st.floats(min_value=-12.0, max_value=-6.0)),
        r_max=10.0 ** draw(st.floats(min_value=-1.0, max_value=2.0)),
    )
    return ProblemParams(FieldParams(n, p), alpha, controls)


# a loose run near the critical exponent whose u overflows |u|**(p-1) after the
# start: both marches end it as a non-finite state
OVERFLOWING_SHOT = ProblemParams(FieldParams(3, 4.75), 100.0,
                                 IntegratorControls(r0=1e-3, abs_tol=1e-8, rel_tol=1e-6, r_max=1.0))


# 75 sign changes at the knots, past the 64 rows the kernel once kept
MANY_ZEROS_SHOT = ProblemParams(FL, 15000.0)


@settings(max_examples=60, deadline=None)
@given(params=_counted_shots())
@example(params=OVERFLOWING_SHOT)
@example(params=MANY_ZEROS_SHOT)
@pytest.mark.usefixtures("kernel")
def test_kernel_matches_the_python_step_on_sampled_shots(params):
    _assert_same_shot(params)


def test_a_high_ladder_bracket_runs_every_counted_shot_in_the_kernel(monkeypatch):
    # k = 70: every shot of the search has 70 or more zeros
    if _dopri._kernel() is not None:
        def refuse(params, policy):
            raise AssertionError("a counted shot left the kernel")

        monkeypatch.setattr(classify_module, "integrate", refuse)
        monkeypatch.setattr(integrate_module, "_march", refuse)
    counts = classify_module._CountCache(FL, IntegratorControls())
    entry = find_alpha_k(FL, 70, tol=1e-10, counts=counts)
    assert (entry.alpha_lo, entry.alpha_hi) == (13165.749744415283, 13165.749745368958)
    assert (entry.alpha_lo, entry.alpha_hi) == _plain_bracket(counts, 70, 1e-10)
    assert counts.fallbacks == 0


def _pack(values):
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def _assert_same_trajectory(got, want):
    """Knots, termination and all four components' knot-value, coefficient and
    midpoint columns, in bytes."""
    assert _pack(got.knots) == _pack(want.knots)
    assert (got.termination.tag, got.termination.detail) == (want.termination.tag,
                                                             want.termination.detail)
    assert _pack([got.termination.r_stop]) == _pack([want.termination.r_stop])
    for c in range(4):
        assert _pack(got.knot_values[c]) == _pack(want.knot_values[c])
        assert _pack(got.coeffs[c]) == _pack(want.coeffs[c])
        assert _pack(got.midpoints[c]) == _pack(want.midpoints[c])


def _assert_same_kept_shot(params, policy):
    got = _run_or_error(lambda p: _dopri.kept_run(p, policy), params)
    want = _run_or_error(lambda p: integrate_module._march(p, policy), params)
    if isinstance(want, tuple):  # the same exception and text
        assert got == want
        return None
    _assert_same_trajectory(got, want)
    if len(want.knots) > 2:  # a copy cut inside the run slices the flat columns alike
        r_cut = want.knots[len(want.knots) // 2]
        _assert_same_trajectory(got.truncated_at(r_cut), want.truncated_at(r_cut))
    return got.termination.tag


@pytest.mark.parametrize("policy", [CLASSIFY_POLICY, FULL_RANGE_POLICY],
                         ids=["classify", "full_range"])
@pytest.mark.parametrize("name, field, alpha, controls",
                         [case[:4] for case in GOLDEN_BITS], ids=[case[0] for case in GOLDEN_BITS])
@pytest.mark.usefixtures("kernel")
def test_kept_shots_match_the_python_step_on_the_golden_shots(monkeypatch, name, field, alpha,
                                                              controls, policy):
    if name == "step_limit":
        monkeypatch.setattr(integrate_module, "_MAX_STEPS", 40)
    assert _assert_same_kept_shot(ProblemParams(field, alpha, controls), policy) is not None


@pytest.mark.parametrize("guard, budget, controls, tag", TRAPS)
@pytest.mark.usefixtures("kernel")
def test_kept_shots_match_the_python_step_on_every_stop(monkeypatch, guard, budget, controls,
                                                        tag):
    monkeypatch.setattr(integrate_module, "_V_GUARD", guard)
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", budget)
    for policy in (CLASSIFY_POLICY, FULL_RANGE_POLICY):
        assert _assert_same_kept_shot(ProblemParams(FL, 5.0, controls), policy) == tag
        _assert_same_kept_shot(ProblemParams(FL, 5.0, dataclasses.replace(controls, rel_tol=0.0)),
                               policy)
    # only the classify policy stops at the energy trap, at the start or later
    assert _assert_same_kept_shot(ProblemParams(FL, 1.2), CLASSIFY_POLICY) == ENERGY_NONPOSITIVE
    assert _assert_same_kept_shot(ProblemParams(FL, 1.2, controls),
                                  FULL_RANGE_POLICY) != ENERGY_NONPOSITIVE


@settings(max_examples=40, deadline=None)
@given(params=_counted_shots(), full_range=st.booleans())
@example(params=OVERFLOWING_SHOT, full_range=False)
@pytest.mark.usefixtures("kernel")
def test_kept_shots_match_the_python_step_on_sampled_shots(params, full_range):
    _assert_same_kept_shot(params, FULL_RANGE_POLICY if full_range else CLASSIFY_POLICY)


# a full-range shot of 820 steps, 821 knots
LONG_SHOT = ProblemParams(FieldParams(3, 1.5), 3.0, IntegratorControls(r_max=199.8))


@pytest.mark.parametrize("budget, tag", [(819, STEP_LIMIT), (820, REACHED_RMAX),
                                         (integrate_module._MAX_STEPS, REACHED_RMAX)])
@pytest.mark.usefixtures("kernel")
def test_a_kept_shot_has_room_for_every_step_of_its_budget(monkeypatch, budget, tag):
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", budget)
    assert _assert_same_kept_shot(LONG_SHOT, FULL_RANGE_POLICY) == tag
    assert len(_dopri._local.cols) == _dopri._COLUMNS * (budget + 1)  # mapped for this budget


def _column_bytes(traj):
    """The bytes of the knot column and u's coefficient column that ``traj`` was
    copied from."""
    cols = _dopri._local.cols
    view, room = memoryview(cols).cast("B"), len(cols) // _dopri._COLUMNS
    return (bytes(view[:8 * len(traj.knots)]),
            bytes(view[8 * 5 * room:8 * (5 * room + 7 * len(traj.knots) - 7)]))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
@pytest.mark.usefixtures("kernel")
def test_a_forked_child_marches_in_its_own_columns():
    params = ProblemParams(FL, 5.0)
    want = _dopri.kept_run(params, FULL_RANGE_POLICY)
    before = _column_bytes(want)
    pid = os.fork()
    if pid == 0:  # the child marches another shot in the columns it inherited
        try:
            os._exit(0 if _dopri.kept_run(LONG_SHOT, FULL_RANGE_POLICY) is not None else 1)
        finally:
            os._exit(2)
    assert os.waitpid(pid, 0)[1] == 0
    assert _column_bytes(want) == before
    _assert_same_trajectory(_dopri.kept_run(params, FULL_RANGE_POLICY), want)


@pytest.mark.parametrize("policy", [CLASSIFY_POLICY, FULL_RANGE_POLICY],
                         ids=["classify", "full_range"])
@pytest.mark.usefixtures("kernel")
def test_a_kept_shot_ends_alike_where_a_power_overflows(monkeypatch, policy):
    # as in the counted test, with the guard lifted: the first slope overflows
    # to inf in both marches, and so the first step's state is not finite
    monkeypatch.setattr(integrate_module, "_V_GUARD", 1e300)
    assert _dopri.kept_run(OVERFLOWING_START, policy) is not None
    assert _assert_same_kept_shot(OVERFLOWING_START, policy) == STEP_UNDERFLOW
    traj = integrate(OVERFLOWING_START, policy)
    assert traj.knots == [OVERFLOWING_START.controls.r0]
    assert traj.termination.detail.startswith("non-finite state after step")


def _compiler_on_path():
    cc = (sysconfig.get_config_var("CC") or "").split()
    return bool(cc) and shutil.which(cc[0]) is not None


@pytest.mark.skipif(not _compiler_on_path(), reason="the interpreter's C compiler is absent")
def test_counted_shots_run_in_the_kernel(monkeypatch):
    assert _dopri._kernel() is not None

    def refuse(params, policy):
        raise AssertionError("a counted shot was integrated in Python")

    monkeypatch.setattr(classify_module, "integrate", refuse)
    entry = find_alpha_k(FL, 1)
    assert (entry.nodes_lo, entry.nodes_hi) == (1, 2)


@pytest.fixture
def fresh_loader():
    _dopri._kernel.cache_clear()
    yield
    _dopri._kernel.cache_clear()


@pytest.mark.skipif(not _compiler_on_path(), reason="the interpreter's C compiler is absent")
def test_a_build_removes_the_libraries_of_other_keys(monkeypatch, tmp_path, fresh_loader):
    # the libraries of other sources, compilers or flags go; the one just built
    # and every other file stay, and a library another process removed first
    # (the unlink raises) is no failure
    cache = tmp_path / "boundstate_lab"
    cache.mkdir()
    stale = [cache / "_dopri-0123456789abcdef.so", cache / "_dopri-fedcba9876543210.so"]
    others = [cache / "tmp_in_progress.so", cache / "notes.txt"]
    for path in stale + others:
        path.write_bytes(b"")
    unlink = Path.unlink

    def racing_unlink(self, missing_ok=False):
        unlink(self, missing_ok)
        if self == stale[0]:
            raise FileNotFoundError(self)

    monkeypatch.setattr(Path, "unlink", racing_unlink)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _dopri._kernel() is not None
    built = [path for path in cache.iterdir() if path.name.startswith("_dopri-")]
    assert len(built) == 1 and built[0] not in stale
    assert sorted(cache.iterdir()) == sorted(built + others)
    # a process that finds its library built removes nothing
    _dopri._kernel.cache_clear()
    stale[1].write_bytes(b"")
    assert _dopri._kernel() is not None
    assert sorted(cache.iterdir()) == sorted(built + others + stale[1:])


@pytest.mark.skipif(not _compiler_on_path(), reason="the interpreter's C compiler is absent")
def test_the_kernel_follows_an_edited_constant(monkeypatch, tmp_path, fresh_loader):
    # the loader compiles integrate's constants: a new step bound names a new
    # library, which marches the golden shots as _march does under that bound
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _dopri._kernel() is not None
    before = sorted((tmp_path / "boundstate_lab").glob("_dopri-*.so"))
    _dopri._kernel.cache_clear()
    monkeypatch.setattr(integrate_module, "_MAX_STEP", 0.125)
    assert _dopri._kernel() is not None
    after = sorted((tmp_path / "boundstate_lab").glob("_dopri-*.so"))
    assert len(before) == len(after) == 1 and before != after
    golden = {case[0]: case for case in GOLDEN_BITS}
    _, field, alpha, controls, _, _, knots, _ = golden["full_p3"]
    params = ProblemParams(field, alpha, controls)
    assert _assert_same_kept_shot(params, FULL_RANGE_POLICY) == REACHED_RMAX
    traj = _dopri.kept_run(params, FULL_RANGE_POLICY)
    assert len(traj.knots) > controls.r_max / 0.125 > knots  # steps of at most 0.125
    _, field, alpha, controls, *_ = golden["classify_p3"]
    assert _assert_same_shot(ProblemParams(field, alpha, controls)) == ENERGY_NONPOSITIVE


@pytest.mark.skipif(shutil.which("false") is None, reason="no false on PATH")
def test_a_compile_that_fails_leaves_no_file_and_the_same_ladder(monkeypatch, tmp_path,
                                                                 fresh_loader):
    # a CC found on PATH whose every build exits 1: the loader warns once, gives
    # up, removes its temporary library, and every shot runs in Python
    monkeypatch.delenv("BOUNDSTATE_LAB_OUTDIR", raising=False)
    kernel_bytes = _ladder_artifact(monkeypatch, tmp_path / "kernel", "0..1")
    _dopri._kernel.cache_clear()
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "false" if name == "CC" else real(name))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with pytest.warns(RuntimeWarning, match="no DOP853 kernel.*: false exited with status 1: $"):
        assert _dopri._kernel() is None
    assert list((tmp_path / "cache" / "boundstate_lab").iterdir()) == []
    assert _ladder_artifact(monkeypatch, tmp_path / "python", "0..1") == kernel_bytes


def _ladder_artifact(monkeypatch, workdir, ks="0..2"):
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(["ladder", "--n", "3", "--p", "3", "--k", ks, "--tol", "1e-10",
                 "--out", "lad"]) == EXIT_OK
    return (workdir / "lad.json").read_bytes()


# kept shots: a full-range shot written whole, with every functional, a swept
# grid across alpha_0 and alpha_1, and the core checks with their tight shots
KEPT_COMMANDS = {
    "solve": ["solve", "--n", "3", "--p", "1.5", "--alpha", "4"],
    "export": ["export", "--n", "4", "--p", "2", "--alpha", "10",
               "--functionals", ",".join(_AUX_COLUMNS)],
    "sweep": ["sweep", "--n", "3", "--p", "3", "--alpha-range", "0.5..16", "--points", "16"],
    "verify": ["verify", "--n", "3", "--p", "3", "--preset", "core"],
}


def _artifacts(monkeypatch, workdir, argv):
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main([*argv, "--out", "out"]) == EXIT_OK
    return {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}


def test_without_a_compiler_the_python_step_gives_the_same_ladder(monkeypatch, tmp_path,
                                                                  fresh_loader):
    monkeypatch.delenv("BOUNDSTATE_LAB_OUTDIR", raising=False)
    kernel_bytes = _ladder_artifact(monkeypatch, tmp_path / "kernel")
    _dopri._kernel.cache_clear()
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "no-such-cc-boundstate" if name == "CC" else real(name))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with warnings.catch_warnings():  # no compiler is a supported platform: no warning
        warnings.simplefilter("error")
        assert _dopri.counted_run(ProblemParams(FL, 5.0)) is None
    assert _ladder_artifact(monkeypatch, tmp_path / "python") == kernel_bytes
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("name", KEPT_COMMANDS)
def test_without_a_compiler_kept_shots_give_the_same_artifacts(monkeypatch, tmp_path,
                                                               fresh_loader, name):
    monkeypatch.delenv("BOUNDSTATE_LAB_OUTDIR", raising=False)
    kernel_files = _artifacts(monkeypatch, tmp_path / "kernel", KEPT_COMMANDS[name])
    _dopri._kernel.cache_clear()
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "no-such-cc-boundstate" if name == "CC" else real(name))
    assert _dopri.kept_run(ProblemParams(FL, 5.0), FULL_RANGE_POLICY) is None
    assert _artifacts(monkeypatch, tmp_path / "python", KEPT_COMMANDS[name]) == kernel_files
    assert kernel_files


@pytest.mark.skipif(not _compiler_on_path(), reason="the interpreter's C compiler is absent")
@pytest.mark.parametrize("name", ["sweep", "solve"])
def test_kept_shots_run_in_the_kernel(monkeypatch, tmp_path, name):
    assert _dopri._kernel() is not None

    def refuse(params, policy):
        raise AssertionError("a kept shot was marched in Python")

    monkeypatch.delenv("BOUNDSTATE_LAB_OUTDIR", raising=False)
    monkeypatch.setattr(integrate_module, "_march", refuse)
    assert _artifacts(monkeypatch, tmp_path / name, KEPT_COMMANDS[name])


def test_importing_the_cli_loads_no_ctypes_or_subprocess():
    package_root = str(Path(boundstate_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, boundstate_lab.cli; "
         "print(sorted({'ctypes', 'subprocess'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.strip() == "[]"


def test_a_process_that_runs_a_kept_shot_loads_no_hashlib():
    # the kernel's cache name is keyed with zlib: importing hashlib would cost
    # every process that runs a shot about 3.5 MiB
    package_root = str(Path(boundstate_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from boundstate_lab import _dopri, integrate, "
         "FieldParams, ProblemParams, FULL_RANGE_POLICY; "
         "integrate(ProblemParams(FieldParams(3, 3.0), 5.0), FULL_RANGE_POLICY); "
         "print(_dopri._kernel() is not None, 'hashlib' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.split() == [str(_compiler_on_path()), "False"]


@pytest.mark.skipif(not _compiler_on_path(), reason="the interpreter's C compiler is absent")
def test_a_process_that_loads_a_cached_kernel_imports_no_build_module():
    # subprocess, and the seven modules it pulls in, serve a build alone: a CLI
    # process whose library is already in the cache never imports them
    assert _dopri._kernel() is not None  # this process built or found the library
    package_root = str(Path(boundstate_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, boundstate_lab.cli; from boundstate_lab import _dopri; "
         "print(_dopri._kernel() is not None, 'subprocess' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.split() == ["True", "False"]
