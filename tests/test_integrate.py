"""Integrator tests: exact constant shot, dense output, traps, energy decay."""

import dataclasses
import hashlib
import importlib
import math
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boundstate_lab import (
    CLASSIFY_POLICY,
    FULL_RANGE_POLICY,
    FieldParams,
    IntegratorControls,
    ParameterError,
    ProblemParams,
    big_F,
    integrate,
    node_count_of_alpha,
    series_start,
)
from boundstate_lab.integrate import (
    ENERGY_NONPOSITIVE,
    REACHED_RMAX,
    STEP_LIMIT,
    VARIATION_DIVERGED,
    DenseRangeError,
    TerminationCause,
)
from boundstate_lab.portrait import count_nodes

FL = FieldParams(3, 3.0)
# the package binds the name integrate to the function
integrate_module = importlib.import_module("boundstate_lab.integrate")


def _energy(state, field):
    return 0.5 * state.up**2 + big_F(state.u, field)


def test_rest_height_shot_is_exactly_constant():
    traj = integrate(ProblemParams(FL, 1.0, IntegratorControls().with_rmax(50.0)),
                     FULL_RANGE_POLICY)
    assert traj.termination.tag == REACHED_RMAX
    for s in traj.samples():
        assert s.u == 1.0
        assert s.up == 0.0
    # the variation still evolves: v'' + (2/r)v' + 2v = 0 oscillates
    vs = [s.v for s in traj.samples()]
    assert min(vs) < 0.0 < max(vs)


def test_series_start_matches_curvature():
    prob = ProblemParams(FL, 3.0, IntegratorControls(r0=1e-4))
    s = series_start(prob)
    # u(r) = alpha - f(alpha) r^2 / (2n) + O(r^4), f(3) = 24, n = 3
    assert s.u == pytest.approx(3.0 - 24.0 * 1e-8 / 6.0, abs=1e-16)
    assert s.up == pytest.approx(-24.0 * 1e-4 / 3.0, rel=1e-12)
    assert s.v == pytest.approx(1.0 - 26.0 * 1e-8 / 6.0, abs=1e-16)


def test_series_start_r0_must_sit_inside_range():
    with pytest.raises(ParameterError):
        series_start(ProblemParams(FL, 2.0, IntegratorControls(r0=200.0)))


def test_alpha_must_be_positive():
    with pytest.raises(ParameterError):
        ProblemParams(FL, -1.0)
    with pytest.raises(ParameterError):
        ProblemParams(FL, float("nan"))


def test_energy_trap_fires_immediately_below_the_well_zero():
    # F(0.5) < 0, so the shot starts with nonpositive energy
    traj = integrate(ProblemParams(FL, 0.5), CLASSIFY_POLICY)
    assert traj.termination.tag == ENERGY_NONPOSITIVE
    assert traj.termination.r_stop < 1e-3


def test_full_range_policy_ignores_the_energy_trap():
    traj = integrate(ProblemParams(FL, 0.5, IntegratorControls().with_rmax(30.0)),
                     FULL_RANGE_POLICY)
    assert traj.termination.tag == REACHED_RMAX
    assert traj.r_end == pytest.approx(30.0, abs=1e-12)


def test_variation_guard_trips_near_a_jump_amplitude():
    # at alpha_0, to the last bit of the march's own bracket, the variation
    # grows like e^r and hits the guard
    traj = integrate(ProblemParams(FL, 4.337387679999739,
                                   IntegratorControls().with_rmax(200.0)),
                     FULL_RANGE_POLICY)
    assert traj.termination.tag == VARIATION_DIVERGED
    assert max(abs(s.v) for s in traj.samples()) >= 1e11


def test_dense_output_matches_knots_and_is_continuous():
    traj = integrate(ProblemParams(FL, 5.0, IntegratorControls().with_rmax(20.0)),
                     FULL_RANGE_POLICY)
    for i in (0, len(traj.knots) // 2, len(traj.knots) - 1):
        s_knot = traj.state_at_knot(i)
        s_dense = traj.eval_dense(traj.knots[i])
        assert s_dense.u == pytest.approx(s_knot.u, rel=1e-12, abs=1e-12)
        assert s_dense.up == pytest.approx(s_knot.up, rel=1e-12, abs=1e-12)
    mid = len(traj.knots) // 3
    r = traj.knots[mid]
    left = traj.eval_dense(r - 1e-13)
    right = traj.eval_dense(r + 1e-13)
    assert left.u == pytest.approx(right.u, rel=1e-9, abs=1e-12)


def test_dense_output_rejects_out_of_range_radii():
    traj = integrate(ProblemParams(FL, 2.0, IntegratorControls().with_rmax(10.0)),
                     FULL_RANGE_POLICY)
    with pytest.raises(DenseRangeError):
        traj.eval_dense(traj.r_end + 1.0)
    with pytest.raises(DenseRangeError):
        traj.eval_dense(traj.r_start * 0.5)


def test_energy_never_increases_along_the_run():
    traj = integrate(ProblemParams(FL, 5.0, IntegratorControls().with_rmax(25.0)),
                     FULL_RANGE_POLICY)
    es = [_energy(s, FL) for s in traj.samples()]
    scale = abs(es[0])
    for prev, cur in zip(es, es[1:]):
        assert cur <= prev + 1e-11 * scale


def test_tolerance_controls_the_cross_check_error():
    base = integrate(ProblemParams(FL, 3.0, IntegratorControls().with_rmax(15.0)),
                     FULL_RANGE_POLICY)
    tight = integrate(
        ProblemParams(FL, 3.0, IntegratorControls().tightened(100.0).with_rmax(15.0)),
        FULL_RANGE_POLICY)
    u_base = base.eval_dense(10.0).u
    u_tight = tight.eval_dense(10.0).u
    assert u_base == pytest.approx(u_tight, abs=1e-7)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(min_value=0.2, max_value=10.0))
def test_profile_amplitude_is_bounded_by_the_energy(alpha):
    # E decreasing confines |u| to the F(u) <= F(alpha) well component; at
    # p=3 its outer edge is sqrt(2 - alpha^2) when that beats alpha, so a
    # small-amplitude shot may legitimately overshoot u = 1 on its way in
    traj = integrate(ProblemParams(FL, alpha, IntegratorControls().with_rmax(25.0)),
                     FULL_RANGE_POLICY)
    edge = max(alpha, math.sqrt(max(2.0 - alpha * alpha, 0.0)))
    bound = edge * (1.0 + 1e-9)
    assert all(abs(s.u) <= bound for s in traj.samples())
    rs = [s.r for s in traj.samples()]
    assert all(b > a for a, b in zip(rs, rs[1:]))


def test_knots_cover_and_terminate_cleanly():
    traj = integrate(ProblemParams(FL, 2.0, IntegratorControls().with_rmax(12.0)),
                     FULL_RANGE_POLICY)
    assert traj.r_start < 1e-5
    assert traj.r_end == pytest.approx(12.0, abs=1e-12)
    assert [len(y) for y in traj.knot_values] == [len(traj.knots)] * 4
    assert all(len(traj.coeffs[c]) == 7 * (len(traj.knots) - 1) for c in range(4))
    assert all(len(traj.midpoints[c]) == len(traj.knots) - 1 for c in range(4))
    assert math.isfinite(traj.termination.r_stop)


def _bits_digest(traj):
    """SHA-256 of the packed knots, the states at the knots (knot by knot,
    u, u', v, v' in turn) and dense coefficients (segment by segment, u, u',
    v, v' in turn)."""
    flat = list(traj.knots)
    for i in range(len(traj.knots)):
        flat.extend(y[i] for y in traj.knot_values)
    for j in range(0, 7 * (len(traj.knots) - 1), 7):
        for q in traj.coeffs:
            flat.extend(q[j:j + 7])
    return hashlib.sha256(struct.pack(f"<{len(flat)}d", *flat)).hexdigest()


_CTL = IntegratorControls()

# Recorded from the DOP853 march; the kernel and ``_march``, which both read
# the tableau by index, must reproduce them bit for bit, signed zeros included.
GOLDEN_BITS = [
    ("classify_p3", FL, 5.0, _CTL, CLASSIFY_POLICY, ENERGY_NONPOSITIVE, 59,
     "6bee8c4e165f5553ee6b19f73f79a1e9bbca01c6df503b8a1d4b625f5e8630f3"),
    ("full_p3", FL, 5.0, _CTL, FULL_RANGE_POLICY, REACHED_RMAX, 524,
     "cdd6170df6f9238f206b0ccd5c5f53ba3392018404e7becd792f361387a3dfae"),
    ("classify_p1_5", FieldParams(3, 1.5), 3.0, _CTL, CLASSIFY_POLICY, ENERGY_NONPOSITIVE, 36,
     "00a47925bb72746a456e2330c732553e31863e826a0a99731d149abafb2a36fe"),
    ("full_p1_5", FieldParams(3, 1.5), 3.0, _CTL.with_rmax(40.0), FULL_RANGE_POLICY,
     REACHED_RMAX, 182, "1e80084303dd4e4ae5579556aada9322fcf141a13d43f43e46f972c725404bbc"),
    ("full_n4_p2_5", FieldParams(4, 2.5), 7.0, _CTL.with_rmax(40.0), FULL_RANGE_POLICY,
     REACHED_RMAX, 222, "8c070bc9d0a644df406b2dd0e8635debffd2e3ea01b9e1f8feb4929a710bbb26"),
    # u' starts at -0.0 on the constant shot: the signed-zero case
    ("rest_height", FL, 1.0, _CTL, FULL_RANGE_POLICY, REACHED_RMAX, 423,
     "5a71f397441ebf803cd098f35b27514c01fa72b9f2b7e11f9812ad5f9cad8cdc"),
    ("rmax_clipped", FL, 2.0, _CTL.with_rmax(7.3), FULL_RANGE_POLICY, REACHED_RMAX, 68,
     "ed6b69e5382454d1f7ed08999dc6c49639db49206d459340f9d80347dcd3ca22"),
    ("tightened", FL, 3.0, _CTL.tightened(10.0).with_rmax(15.0), FULL_RANGE_POLICY,
     REACHED_RMAX, 160, "b99faa297d2167e4e806763719eafaa5f3411e4973211e582bb3a0781364ac6d"),
    ("guard", FL, 4.337387679999739, _CTL.with_rmax(200.0), FULL_RANGE_POLICY,
     VARIATION_DIVERGED, 182, "fea699743536974e89aa5c4984ef6de3fed4f95f5d82d101132bc6dabcf2980e"),
    # run with the step budget _MAX_STEPS set to 40
    ("step_limit", FL, 5.0, _CTL, FULL_RANGE_POLICY, STEP_LIMIT, 41,
     "8b84ff300e6d31c7ae8a3200cf1800b297001721254561ac823518f3b6e6f8a5"),
    # the shrunken series start at large heights (r0 = 7.46e-7 and 1.23e-6)
    ("shrunk_r0_p4", FieldParams(3, 4.0), 99.52, _CTL, CLASSIFY_POLICY, ENERGY_NONPOSITIVE, 158,
     "9a94eb46c21b162058e7f246ffdf285f7df2f25171ef0bb4641206eecf1ac1f5"),
    ("shrunk_r0_n6", FieldParams(6, 1.9), 96066.5, _CTL, CLASSIFY_POLICY, ENERGY_NONPOSITIVE,
     228, "d31da36155a97896c192fe2d91a2b7193c83b766916299ceb5709f01da6a5268"),
    # trapped before the first step: only the start-of-run energy check runs
    ("trapped_at_start", FL, 1.2, _CTL, CLASSIFY_POLICY, ENERGY_NONPOSITIVE, 1,
     "7ee1a78eab5f7a486b40c99e20706ebd186f85edd39b124531770c6caa49a523"),
    ("full_p1_25", FieldParams(3, 1.25), 6.0, _CTL, FULL_RANGE_POLICY, REACHED_RMAX, 474,
     "a574e5831823b728d7f4336605cd752edfac1a17cd1e290db3c7e944047a4b0b"),
]


@pytest.mark.parametrize(
    "name, field, alpha, controls, policy, tag, n_knots, digest",
    GOLDEN_BITS,
    ids=[case[0] for case in GOLDEN_BITS],
)
def test_trajectory_bits_match_the_recorded_digests(monkeypatch, name, field, alpha, controls,
                                                     policy, tag, n_knots, digest):
    if name == "step_limit":
        monkeypatch.setattr(integrate_module, "_MAX_STEPS", 40)
    traj = integrate(ProblemParams(field, alpha, controls), policy)
    assert traj.termination.tag == tag
    if name == "step_limit":
        assert traj.termination.detail == "step budget 40 exhausted"
    assert len(traj.knots) == n_knots
    assert _bits_digest(traj) == digest


@pytest.mark.parametrize(
    "name, field, alpha, controls, policy",
    [case[:5] for case in GOLDEN_BITS],
    ids=[case[0] for case in GOLDEN_BITS],
)
def test_value_is_eval_dense_bit_for_bit(monkeypatch, name, field, alpha, controls, policy):
    # knots (both ends included), and every segment midpoint: the r_max-clipped
    # last segment and the signed zeros of the rest-height shot are among them;
    # the run trapped at the start has no segment to read
    if name == "step_limit":
        monkeypatch.setattr(integrate_module, "_MAX_STEPS", 40)
    traj = integrate(ProblemParams(field, alpha, controls), policy)
    knots = traj.knots
    rs = knots + [0.5 * (a + b) for a, b in zip(knots, knots[1:])] if len(knots) > 1 else []
    assert rs or name == "trapped_at_start"
    if name == "rmax_clipped":
        assert knots[-1] == controls.r_max
    for c, comp in enumerate(("u", "up", "v", "vp")):
        got = [traj.value(c, r) for r in rs]
        want = [getattr(traj.eval_dense(r), comp) for r in rs]
        assert struct.pack(f"<{len(rs)}d", *got) == struct.pack(f"<{len(rs)}d", *want)


def _reference_grid_values(traj, c):
    """The grid values of component c as they were read off per-knot
    (u, u', v, v') tuples: each knot's state, then its segment's midpoint."""
    states = list(zip(*traj.knot_values))
    vals = []
    for state, mid in zip(states, traj.midpoints[c]):
        vals.append(state[c])
        vals.append(mid)
    vals.append(states[-1][c])
    return vals


def _reference_count(traj):
    """The sign changes of u as they were walked off per-knot tuples: each
    segment's midpoint, then the knot that ends it."""
    states = list(zip(*traj.knot_values))
    count = 0
    prev = states[0][0]
    for mid, (u_hi, _, _, _) in zip(traj.midpoints[0], states[1:]):
        for val in (mid, u_hi):
            if val != 0.0:
                if prev != 0.0 and (prev < 0.0) != (val < 0.0):
                    count += 1
                prev = val
    return count


@pytest.mark.parametrize("march", [integrate, integrate_module._march],
                         ids=["integrate", "python_step"])
@pytest.mark.parametrize(
    "name, field, alpha, controls, policy",
    [case[:5] for case in GOLDEN_BITS],
    ids=[case[0] for case in GOLDEN_BITS],
)
def test_the_knot_columns_read_as_the_per_knot_tuples_did(monkeypatch, march, name, field,
                                                          alpha, controls, policy):
    if name == "step_limit":
        monkeypatch.setattr(integrate_module, "_MAX_STEPS", 40)
    traj = march(ProblemParams(field, alpha, controls), policy)
    for c in range(4):
        got, want = traj.grid_values(c), _reference_grid_values(traj, c)
        assert len(got) == len(want) == len(traj.grid)
        assert struct.pack(f"<{len(got)}d", *got) == struct.pack(f"<{len(want)}d", *want)
    assert _grid_count(traj) == _reference_count(traj)


@pytest.mark.parametrize("march", [integrate, integrate_module._march],
                         ids=["integrate", "python_step"])
def test_a_run_without_a_segment_raises_dense_range_error(march):
    # the height 0.5 sits below the well zero: the classify policy stops the
    # run at its series start, which is its one knot
    traj = march(ProblemParams(FL, 0.5), CLASSIFY_POLICY)
    assert traj.termination.tag == ENERGY_NONPOSITIVE
    assert len(traj.knots) == 1
    for read in (traj.eval_dense, lambda r: traj.value(0, r)):
        with pytest.raises(DenseRangeError, match="series start"):
            read(traj.r_start)
    with pytest.raises(DenseRangeError, match="series start"):
        traj.truncated_at(1.0)
    assert traj.state_at_knot(0) == series_start(ProblemParams(FL, 0.5))


@pytest.mark.parametrize("march", [integrate, integrate_module._march],
                         ids=["integrate", "python_step"])
def test_dense_columns_are_filled_when_the_trajectory_is_built(march):
    traj = march(ProblemParams(FL, 5.0, _CTL.with_rmax(20.0)), FULL_RANGE_POLICY)
    n_seg = len(traj.knots) - 1
    assert [len(q) for q in traj.coeffs] == [7 * n_seg] * 4
    assert [len(mids) for mids in traj.midpoints] == [n_seg] * 4
    assert not hasattr(traj, "slopes")
    # the copy slices both columns of every component
    cut = traj.truncated_at(6.0)
    n_cut = len(cut.knots) - 1
    assert n_cut < n_seg
    for c in range(4):
        assert list(cut.coeffs[c]) == list(traj.coeffs[c][:7 * n_cut])
        assert list(cut.midpoints[c]) == list(traj.midpoints[c][:n_cut])


def test_grid_is_built_once_and_a_truncated_copy_builds_its_own():
    full = integrate(ProblemParams(FL, 5.0, _CTL.with_rmax(20.0)), FULL_RANGE_POLICY)
    grid = full.grid
    assert full.grid is grid
    assert len(grid) == 2 * len(full.knots) - 1
    assert all(len(mids) == len(full.knots) - 1 for mids in full.midpoints)
    cut = full.truncated_at(6.0)
    assert cut.grid is not grid
    assert cut.grid is cut.grid
    assert cut.grid == grid[: 2 * len(cut.knots) - 1]
    for c in range(4):
        assert cut.grid_values(c) == full.grid_values(c)[: 2 * len(cut.knots) - 1]


def test_a_cut_inside_the_first_segment_keeps_no_segment():
    # the first step of the full-range (3,3) alpha = 5 shot ends at 5.5e-05: a
    # cut before it keeps no whole segment, as a cut at the series start does
    full = integrate(ProblemParams(FL, 5.0), FULL_RANGE_POLICY)
    assert full.knots[0] < 3e-5 < full.knots[1]
    with pytest.raises(DenseRangeError, match="no whole segment"):
        full.truncated_at(3e-5)
    cut = full.truncated_at(full.knots[1])
    assert cut.knots == full.knots[:2] and cut.termination.r_stop == full.knots[1]


def test_control_helpers_change_only_their_fields(monkeypatch):
    base = IntegratorControls(r0=1e-7, r_max=50.0)
    tight = base.tightened(4.0)
    assert tight == IntegratorControls(r0=1e-7, abs_tol=0.25e-12, rel_tol=0.25e-10, r_max=50.0)
    assert base.with_rmax(7.5) == IntegratorControls(r0=1e-7, r_max=7.5)
    # the step budget and the variation guard are module constants that hold
    # under every set of controls
    monkeypatch.setattr(integrate_module, "_V_GUARD", 1.005)  # |v| peaks at 1.0116 here
    traj = integrate(ProblemParams(FL, 5.0, tight), FULL_RANGE_POLICY)
    assert traj.termination.tag == VARIATION_DIVERGED
    assert traj.termination.detail == "variation guard 1.0e+00 tripped"
    monkeypatch.undo()
    monkeypatch.setattr(integrate_module, "_MAX_STEPS", 40)
    for ctl in (tight, base.with_rmax(7.5)):
        traj = integrate(ProblemParams(FL, 5.0, ctl), FULL_RANGE_POLICY)
        assert (traj.termination.tag, len(traj.knots)) == (STEP_LIMIT, 41)


@st.composite
def _shots(draw):
    """(n, p, alpha): p within 0.3 of 1 or of the critical exponent, alpha up to 1e4."""
    n = draw(st.sampled_from((3, 4, 5, 6)))
    gap = draw(st.floats(min_value=0.01, max_value=0.3))
    p = 1.0 + gap if draw(st.booleans()) else (n + 2) / (n - 2) - gap
    return FieldParams(n, p), 10.0 ** draw(st.floats(min_value=-1.0, max_value=4.0))


@settings(max_examples=40, deadline=None)
@given(shot=_shots())
def test_node_count_does_not_depend_on_the_stepper_knobs(shot):
    field, alpha = shot
    base = node_count_of_alpha(field, alpha, _CTL)
    # A find_alpha_k bracket is where the count steps up, so a height whose
    # count is the same 1e-6 (relative) to either side lies clear of every
    # bracket.  Searching the brackets themselves costs up to seconds per draw.
    assume(all(node_count_of_alpha(field, alpha * (1.0 + eps), _CTL) == base
               for eps in (-1e-6, 1e-6)))
    r0 = series_start(ProblemParams(field, alpha, _CTL)).r
    assert node_count_of_alpha(field, alpha, IntegratorControls(r0=0.5 * r0)) == base
    assert node_count_of_alpha(field, alpha, _CTL.tightened(2.0)) == base
    longer = node_count_of_alpha(field, alpha, _CTL.with_rmax(2.0 * _CTL.r_max))
    if base.final:
        assert longer == base
    else:
        # the trap has not fired by 2 * r_max: the count is a lower bound that
        # a longer range may raise (large heights at n = 3 need r in the 1e3s)
        assert longer.count >= base.count


def _sign_changes(values):
    """Sign changes along values, a zero taking no side."""
    count, prev = 0, 0.0
    for val in values:
        if val != 0.0:
            if prev != 0.0 and (prev < 0.0) != (val < 0.0):
                count += 1
            prev = val
    return count


def _dense_scan_count(traj, points=16):
    """Sign changes of u read off the dense output at ``points`` evenly spaced
    radii of every segment (its left knot first), then at the last knot."""
    knots = traj.knots
    values = [traj.value(0, a + (b - a) * j / points)
              for a, b in zip(knots, knots[1:]) for j in range(points)]
    return _sign_changes(values + [traj.knot_values[0][-1]])


def _grid_count(traj):
    """``count_nodes``' sign changes over the knots and segment midpoints,
    also for a run that gave up."""
    ended = dataclasses.replace(traj, termination=TerminationCause(REACHED_RMAX, traj.r_end))
    return count_nodes(ended).count


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shot=_shots(), full_range=st.booleans())
def test_the_midpoint_grid_sees_every_sign_change_of_the_dense_output(shot, full_range):
    # DOP853's segments are up to _MAX_STEP long: the knots and midpoints must
    # still isolate every zero that a 16-point scan of each segment finds
    field, alpha = shot
    traj = integrate(ProblemParams(field, alpha),
                     FULL_RANGE_POLICY if full_range else CLASSIFY_POLICY)
    assert _grid_count(traj) == _dense_scan_count(traj)
