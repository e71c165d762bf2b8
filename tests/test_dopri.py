"""The compiled counted shot against the Python step, and its loader.

``_dopri.counted_run`` must give what ``integrate`` + ``count_nodes`` +
``classify._estimate_rows`` give for the same classify-policy shot, bit for
bit: the bracket searches read only those.
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
from hypothesis import given, settings
from hypothesis import strategies as st

import boundstate_lab
from boundstate_lab import (
    CLASSIFY_POLICY,
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
)
from boundstate_lab.portrait import IndeterminateCount, _node_count, count_nodes

from test_integrate import GOLDEN_BITS

classify_module = importlib.import_module("boundstate_lab.classify")
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
    traj = integrate(params, CLASSIFY_POLICY)
    # count_nodes refuses a run that gave up; count its sign changes all the same
    counted = dataclasses.replace(traj, termination=TerminationCause(REACHED_RMAX, traj.r_end))
    count = count_nodes(counted).count
    return traj.termination, count, classify_module._estimate_rows(traj, count), traj


def _assert_same_shot(params):
    got = _run_or_error(_dopri.counted_run, params)
    want = _run_or_error(_reference, params)
    if isinstance(want[0], type):  # the start was refused: same exception, same text
        assert got == want
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


@settings(max_examples=60, deadline=None)
@given(params=_counted_shots())
def test_kernel_matches_the_python_step_on_sampled_shots(params):
    _assert_same_shot(params)


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


def test_importing_the_cli_loads_no_ctypes_or_subprocess():
    package_root = str(Path(boundstate_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, boundstate_lab.cli; "
         "print(sorted({'ctypes', 'subprocess'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.strip() == "[]"
