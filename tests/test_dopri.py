"""The compiled march against the Python step, and its loader.

``_dopri.counted_run`` must give what ``integrate`` + ``count_nodes`` +
``classify._estimate_rows`` give for the same classify-policy shot, bit for
bit: the bracket searches read only those.  ``_dopri.kept_run`` must give the
trajectory ``integrate._march`` gives, bit for bit, under either policy.
"""

import dataclasses
import importlib
import os
import shutil
import struct
import subprocess
import sys
import sysconfig
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
from boundstate_lab.integrate import (
    ENERGY_NONPOSITIVE,
    REACHED_RMAX,
    STEP_LIMIT,
    STEP_UNDERFLOW,
    VARIATION_DIVERGED,
    TerminationCause,
    series_start,
)
from boundstate_lab.portrait import IndeterminateCount, _node_count, count_nodes

from test_integrate import GOLDEN_BITS

classify_module = importlib.import_module("boundstate_lab.classify")
cli_module = importlib.import_module("boundstate_lab.cli")
integrate_module = importlib.import_module("boundstate_lab.integrate")

FL = FieldParams(3, 3.0)


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


def _deferred_overflow(got, want, params):
    """The kernel gave the shot back where math.exp raises during the run;
    an exception from the series start must come from both sides alike."""
    if got is not None or want[0] is not OverflowError:
        return False
    series_start(params)  # raises, failing the test, if the start was refused
    return True


def _assert_same_shot(params):
    got = _run_or_error(_dopri.counted_run, params)
    want = _run_or_error(_reference, params)
    if isinstance(want[0], type):  # the same exception and text, or the kernel's deferral
        assert got == want or _deferred_overflow(got, want, params)
        return None
    end, count, rows = got
    want_end, want_count, want_rows, traj = want
    assert (end.tag, end.detail) == (want_end.tag, want_end.detail)
    assert struct.pack("<d", end.r_stop) == struct.pack("<d", want_end.r_stop)
    assert count == want_count
    assert _verdict(_node_count, end, count) == _verdict(count_nodes, traj)
    assert len(rows) == len(want_rows) == count + 1
    for row, want_row in zip(rows, want_rows):
        if want_row is None:
            assert row is None
        else:
            assert struct.pack("<5d", *row) == struct.pack("<5d", *want_row)
    return end.tag


@pytest.mark.parametrize("name, field, alpha, controls",
                         [case[:4] for case in GOLDEN_BITS], ids=[case[0] for case in GOLDEN_BITS])
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
def test_kernel_matches_the_python_step_on_every_stop(monkeypatch, guard, budget, controls, tag):
    monkeypatch.setattr(integrate_module, "_V_GUARD", guard)
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", budget)
    assert _assert_same_shot(ProblemParams(FL, 5.0, controls)) == tag
    # the start is Python's, and so are its exceptions
    _assert_same_shot(ProblemParams(FL, 5.0, dataclasses.replace(controls, rel_tol=0.0)))
    _assert_same_shot(ProblemParams(FL, 5.0, dataclasses.replace(controls, r0=controls.r_max)))


def test_kernel_defers_where_math_exp_raises():
    # the series start sits at u = -1.7e213, where |u|**(p+1) overflows
    params = ProblemParams(FieldParams(3, 4.9), 1e60, IntegratorControls(r0=1e-40))
    assert _dopri.counted_run(params) is None
    with pytest.raises(OverflowError):
        node_count_of_alpha(params.field, params.alpha, params.controls)


@pytest.mark.parametrize("alpha", [1e100, 1e200])
def test_an_overflow_in_the_series_start_is_raised_not_deferred(alpha):
    params = ProblemParams(FL, alpha)
    with pytest.raises(OverflowError):
        series_start(params)
    _assert_same_shot(params)
    for policy in (CLASSIFY_POLICY, FULL_RANGE_POLICY):
        _assert_same_kept_shot(params, policy)


def test_a_shot_with_more_rows_than_the_kernel_keeps_runs_in_python(monkeypatch):
    monkeypatch.setattr(_dopri, "_ROWS", 2)
    assert len(_dopri.counted_run(ProblemParams(FL, 5.0))[2]) == 2  # one zero: rows 0 and 1
    assert _dopri.counted_run(ProblemParams(FL, 15.0)) is None  # two zeros
    assert node_count_of_alpha(FL, 15.0).count == 2


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


# a loose run near the critical exponent whose u overflows |u|**(p-1) after the start
OVERFLOWING_SHOT = ProblemParams(FieldParams(3, 4.75), 100.0,
                                 IntegratorControls(r0=1e-3, abs_tol=1e-8, rel_tol=1e-6, r_max=1.0))


@settings(max_examples=60, deadline=None)
@given(params=_counted_shots())
@example(params=OVERFLOWING_SHOT)
def test_kernel_matches_the_python_step_on_sampled_shots(params):
    _assert_same_shot(params)


def _pack(values):
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


def _assert_same_trajectory(got, want):
    """Knots, states, termination and all four components' coefficients, in bytes."""
    assert _pack(got.knots) == _pack(want.knots)
    assert _pack(x for st in got.states for x in st) == _pack(x for st in want.states for x in st)
    assert (got.termination.tag, got.termination.detail) == (want.termination.tag,
                                                             want.termination.detail)
    assert _pack([got.termination.r_stop]) == _pack([want.termination.r_stop])
    for c in range(4):
        assert _pack(x for q in got.coeffs(c) for x in q) == _pack(
            x for q in want.coeffs(c) for x in q)


def _assert_same_kept_shot(params, policy):
    got = _run_or_error(lambda p: _dopri.kept_run(p, policy), params)
    want = _run_or_error(lambda p: integrate_module._march(p, policy), params)
    if isinstance(want, tuple):  # the same exception and text, or the kernel's deferral
        assert got == want or _deferred_overflow(got, want, params)
        return None
    _assert_same_trajectory(got, want)
    if len(want.knots) > 2:  # a copy cut inside the run slices the flat slopes alike
        r_cut = want.knots[len(want.knots) // 2]
        _assert_same_trajectory(got.truncated_at(r_cut), want.truncated_at(r_cut))
    return got.termination.tag


@pytest.mark.parametrize("policy", [CLASSIFY_POLICY, FULL_RANGE_POLICY],
                         ids=["classify", "full_range"])
@pytest.mark.parametrize("name, field, alpha, controls",
                         [case[:4] for case in GOLDEN_BITS], ids=[case[0] for case in GOLDEN_BITS])
def test_kept_shots_match_the_python_step_on_the_golden_shots(monkeypatch, name, field, alpha,
                                                              controls, policy):
    if name == "step_limit":
        monkeypatch.setattr(integrate_module, "_MAX_STEPS", 40)
    assert _assert_same_kept_shot(ProblemParams(field, alpha, controls), policy) is not None


@pytest.mark.parametrize("guard, budget, controls, tag", TRAPS)
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
def test_kept_shots_match_the_python_step_on_sampled_shots(params, full_range):
    _assert_same_kept_shot(params, FULL_RANGE_POLICY if full_range else CLASSIFY_POLICY)


# a full-range shot of 820 steps, 821 knots
LONG_SHOT = ProblemParams(FieldParams(3, 1.5), 3.0, IntegratorControls(r_max=40.0))


@pytest.mark.parametrize("budget, tag", [(819, STEP_LIMIT), (820, REACHED_RMAX),
                                         (integrate_module._MAX_STEPS, REACHED_RMAX)])
def test_a_kept_shot_has_room_for_every_step_of_its_budget(monkeypatch, budget, tag):
    if _dopri._kernel() is None:
        pytest.skip("no kernel to run")
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", budget)
    assert _assert_same_kept_shot(LONG_SHOT, FULL_RANGE_POLICY) == tag
    assert len(_dopri._local.cols) == _dopri._COLUMNS * (budget + 1)  # mapped for this budget


def _column_bytes(traj):
    """The bytes of the knot column and u's slope column that ``traj`` was copied from."""
    cols = _dopri._local.cols
    view, room = memoryview(cols).cast("B"), len(cols) // _dopri._COLUMNS
    return (bytes(view[:8 * len(traj.knots)]),
            bytes(view[8 * 5 * room:8 * (5 * room + 6 * len(traj.knots) - 6)]))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_marches_in_its_own_columns():
    if _dopri._kernel() is None:
        pytest.skip("no kernel to run")
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


def test_a_kept_shot_is_not_held_to_the_counted_row_cap(monkeypatch):
    monkeypatch.setattr(_dopri, "_ROWS", 2)
    params = ProblemParams(FL, 15.0)  # two zeros: three rows, past the cap
    assert _dopri.counted_run(params) is None
    for policy in (CLASSIFY_POLICY, FULL_RANGE_POLICY):
        got = _dopri.kept_run(params, policy)
        if _dopri._kernel() is not None:
            assert got is not None
            _assert_same_trajectory(got, integrate_module._march(params, policy))
    assert count_nodes(integrate(params)).count == 2


@pytest.mark.parametrize("policy", [CLASSIFY_POLICY, FULL_RANGE_POLICY],
                         ids=["classify", "full_range"])
def test_a_kept_shot_defers_where_math_exp_raises(monkeypatch, policy):
    # as in the counted test; a full-range shot has no energy check, and its
    # variation would trip the guard at the start, so the guard is lifted
    monkeypatch.setattr(integrate_module, "_V_GUARD", 1e300)
    params = ProblemParams(FieldParams(3, 4.9), 1e60, IntegratorControls(r0=1e-40))
    assert _dopri.kept_run(params, policy) is None
    with pytest.raises(OverflowError):
        integrate(params, policy)


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


def _ladder_artifact(monkeypatch, workdir):
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(["ladder", "--n", "3", "--p", "3", "--k", "0..2", "--tol", "1e-10",
                 "--out", "lad"]) == EXIT_OK
    return (workdir / "lad.json").read_bytes()


# kept shots: a full-range shot written whole, with every functional, a swept
# grid across alpha_0 and alpha_1, and the core checks with their tight shots
KEPT_COMMANDS = {
    "solve": ["solve", "--n", "3", "--p", "1.5", "--alpha", "4"],
    "export": ["export", "--n", "4", "--p", "2", "--alpha", "10",
               "--functionals", ",".join(cli_module._AUX_COLUMNS)],
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
