"""Integrator tests: exact constant shot, dense output, traps, energy decay."""

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
)

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
    # just off a bracket the variation grows like e^r and hits the guard
    traj = integrate(ProblemParams(FL, 4.337387679942187,
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
    assert len(traj.knots) == len(traj.states)
    assert all(len(traj.coeffs(c)) == len(traj.knots) - 1 for c in range(4))
    assert math.isfinite(traj.termination.r_stop)


def _bits_digest(traj):
    """SHA-256 of the packed knots, states and dense coefficients (segment by
    segment, u, u', v, v' in turn)."""
    flat = list(traj.knots)
    for state in traj.states:
        flat.extend(state)
    for seg in zip(*(traj.coeffs(c) for c in range(4))):
        for coeffs in seg:
            flat.extend(coeffs)
    return hashlib.sha256(struct.pack(f"<{len(flat)}d", *flat)).hexdigest()


_CTL = IntegratorControls()

# The first ten digests were recorded from the generic per-stage DOPRI5 loop,
# the last four from the straight-line step that still called a right-hand-side
# closure; the inlined step must reproduce both bit for bit, signed zeros
# included.
GOLDEN_BITS = [
    ("classify_p3", FL, 5.0, _CTL, CLASSIFY_POLICY, ENERGY_NONPOSITIVE, 261,
     "e8904b4e1a6b88afad2644c6480de745ee541eb4ffedac71df90bfe24cd33468"),
    ("full_p3", FL, 5.0, _CTL, FULL_RANGE_POLICY, REACHED_RMAX, 4154,
     "6ac3ab6fda714ae52f595dca5f3284c43ba71292b1e2e5e33e5445ab4fe65bf8"),
    ("classify_p1_5", FieldParams(3, 1.5), 3.0, _CTL, CLASSIFY_POLICY, ENERGY_NONPOSITIVE, 120,
     "2360a75797c05b625835d2185a4ff8cb4f6f568cf8bcc275ff56b25a18f7dcc9"),
    ("full_p1_5", FieldParams(3, 1.5), 3.0, _CTL.with_rmax(40.0), FULL_RANGE_POLICY,
     REACHED_RMAX, 821, "e0b73c405d7f2e3cbf17f73469cb1e6f2ba0ad3c2fa4885ebe8e03b15dff1406"),
    ("full_n4_p2_5", FieldParams(4, 2.5), 7.0, _CTL.with_rmax(40.0), FULL_RANGE_POLICY,
     REACHED_RMAX, 1344, "8dfe4bd8b6cb44109ee0f202ba7ef1814fb6465240d3983231b202ff8dcf752a"),
    # u' starts at -0.0 on the constant shot: the signed-zero case
    ("rest_height", FL, 1.0, _CTL, FULL_RANGE_POLICY, REACHED_RMAX, 3362,
     "b9c04e2766c91328aaf94a96e4f20a4ffd08cf638cd30c752f596b1db46e3350"),
    ("rmax_clipped", FL, 2.0, _CTL.with_rmax(7.3), FULL_RANGE_POLICY, REACHED_RMAX, 343,
     "3cc34ec284223f2a842ec8f86d732dfd77519c9041084e55780f86841d4fcff0"),
    ("tightened", FL, 3.0, _CTL.tightened(10.0).with_rmax(15.0), FULL_RANGE_POLICY,
     REACHED_RMAX, 1159, "a461cc86ed5b397e9fe08ecb77f480abc2534fc1810feb64413e17df0ff385b2"),
    ("guard", FL, 4.337387679942187, _CTL.with_rmax(200.0), FULL_RANGE_POLICY,
     VARIATION_DIVERGED, 979, "dce3dcd6426f427bf14bc90977b180a02e5bb37cf53dfafc6a146e076ef844a2"),
    # run with the step budget _MAX_STEPS set to 40
    ("step_limit", FL, 5.0, _CTL, FULL_RANGE_POLICY, STEP_LIMIT, 41,
     "4a13b05edf1a27cf4fefec71b8ada5990ffa0537c8d427f12a102d8ed95cf71e"),
    # the shrunken series start at large heights (r0 = 7.46e-7 and 1.23e-6)
    ("shrunk_r0_p4", FieldParams(3, 4.0), 99.52, _CTL, CLASSIFY_POLICY, ENERGY_NONPOSITIVE, 766,
     "d1547315fa58076673f369edd1dcec6977c1601e4f2ad958800c450addc2e4b9"),
    ("shrunk_r0_n6", FieldParams(6, 1.9), 96066.5, _CTL, CLASSIFY_POLICY, ENERGY_NONPOSITIVE,
     966, "6dd57dfb32b5d23a484f297f89ba1a4868c738652ed48304a5a4c4e330948c21"),
    # trapped before the first step: only the start-of-run energy check runs
    ("trapped_at_start", FL, 1.2, _CTL, CLASSIFY_POLICY, ENERGY_NONPOSITIVE, 1,
     "7ee1a78eab5f7a486b40c99e20706ebd186f85edd39b124531770c6caa49a523"),
    ("full_p1_25", FieldParams(3, 1.25), 6.0, _CTL, FULL_RANGE_POLICY, REACHED_RMAX, 1518,
     "ccba53ca9550c35b01332d15b93797c6466dfd53d25bb3f972b10bfc2893e7fa"),
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


def test_coefficients_are_built_on_the_first_read_of_each_component():
    traj = integrate(ProblemParams(FL, 5.0, _CTL.with_rmax(20.0)), FULL_RANGE_POLICY)
    n_seg = len(traj.knots) - 1
    assert [len(k) for k in traj.slopes] == [6 * n_seg] * 4
    u_coeffs = traj.coeffs(0)
    assert traj.coeffs(0) is u_coeffs
    assert traj.slopes[0] is None and all(k is not None for k in traj.slopes[1:])
    # the copy slices the coefficients already built, and the slopes of the rest
    cut = traj.truncated_at(6.0)
    n_cut = len(cut.knots) - 1
    assert all(a is b for a, b in zip(cut.coeffs(0), u_coeffs))
    assert cut.slopes[0] is None and [len(k) for k in cut.slopes[1:]] == [6 * n_cut] * 3
    assert cut.coeffs(1) == traj.coeffs(1)[:n_cut]
    # once every component has been read the full-range shot holds no slopes
    traj.eval_dense(traj.r_end)
    assert traj.slopes == [None] * 4
    assert all(len(traj.coeffs(c)) == n_seg for c in range(4))


def test_grid_is_built_once_and_a_truncated_copy_builds_its_own():
    full = integrate(ProblemParams(FL, 5.0, _CTL.with_rmax(20.0)), FULL_RANGE_POLICY)
    grid = full.grid
    assert full.grid is grid
    assert len(grid) == 2 * len(full.knots) - 1
    mids = [full.midpoints(c) for c in range(4)]
    assert all(full.midpoints(c) is mids[c] for c in range(4))
    assert len(mids[0]) == len(full.knots) - 1
    cut = full.truncated_at(6.0)
    assert cut.grid is not grid
    assert cut.grid is cut.grid
    assert cut.grid == grid[: 2 * len(cut.knots) - 1]
    for c in range(4):
        cut_mids = cut.midpoints(c)
        assert cut_mids is not mids[c] and cut.midpoints(c) is cut_mids
        assert cut_mids == mids[c][: len(cut.knots) - 1]


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
