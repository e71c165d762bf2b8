"""Functional-layer tests: pointwise values, probe policy, residuals, bridge."""

import math

import pytest

from boundstate_lab import (
    FULL_RANGE_POLICY,
    FieldParams,
    IDENTITY_NAMES,
    IntegratorControls,
    MissingEvents,
    ProbeUndefined,
    ProblemParams,
    State,
    bridge_integral,
    critical_amplitudes,
    detect_events,
    eval_aux,
    eval_parametric,
    find_zeros,
    identity_residuals,
    integrate,
    probe_radii,
)
from boundstate_lab import find_alpha_k, truncate_for_structure

FL = FieldParams(3, 3.0)

# hand values at r=1, u=2, u'=-1, v=1, v'=3 for n=3, p=3
HAND_STATE = State(r=1.0, u=2.0, up=-1.0, v=1.0, vp=3.0)
HAND_AUX = {
    "E": 2.5, "E_hat": 2.5, "P": 3.0, "P1": 11.0, "P2": 3.0,
    "omega": 0.5, "rho": -29.0, "Q": 2.0, "Q1": 1.0, "Q2": 0.0,
    "Qn": -1.0, "M": -7.0, "T1": 7.25, "T2": 5.5, "B0": 6.0,
    "phi_n": -1.0, "varpi": -8.0,
}


def test_aux_sample_matches_hand_computation():
    aux = eval_aux(HAND_STATE, FL)
    for name, want in HAND_AUX.items():
        assert getattr(aux, name) == pytest.approx(want, rel=1e-14), name


def test_aux_sample_none_branches():
    at_zero_u = eval_aux(State(r=1.0, u=0.0, up=-1.0, v=1.0, vp=0.0), FL)
    assert at_zero_u.omega is None
    assert at_zero_u.T1 is None
    assert at_zero_u.T2 is None
    at_zero_up = eval_aux(State(r=1.0, u=2.0, up=0.0, v=1.0, vp=0.0), FL)
    assert at_zero_up.B0 is None
    assert at_zero_up.phi_n is None
    assert at_zero_up.varpi is None


def test_parametric_family_interpolates_corrected_wronskians():
    aux = eval_aux(HAND_STATE, FL)
    for a in (-1.0, 0.0, 0.75, 2.0):
        par = eval_parametric(HAND_STATE, a, FL)
        assert par.W_a == pytest.approx(aux.Q - a * aux.M, rel=1e-14)
    # at a = g1(u) the family member coincides with T1
    par = eval_parametric(HAND_STATE, 0.75, FL)
    assert par.W_a == pytest.approx(aux.T1, rel=1e-14)


def _full_run(alpha, rmax=40.0):
    return integrate(ProblemParams(FL, alpha, IntegratorControls().with_rmax(rmax)),
                     FULL_RANGE_POLICY)


def test_probe_radii_respects_the_exclusion_moat():
    traj = _full_run(5.0, rmax=20.0)
    zeros = find_zeros(traj, "u")
    probes = probe_radii(traj, 200, exclusion_radii=zeros)
    assert len(probes) > 100
    for z in zeros:
        assert all(abs(r - z) >= 0.05 for r in probes)
    wide = probe_radii(traj, 200, exclusion_radii=zeros, exclusion_halfwidth=0.5)
    for z in zeros:
        assert all(abs(r - z) >= 0.5 for r in wide)


def test_probe_radii_with_no_budget_or_no_span_is_empty():
    traj = _full_run(2.0, rmax=10.0)
    assert probe_radii(traj, 0) == []
    assert probe_radii(traj, 50, r_lo=5.0, r_hi=5.0) == []


def test_identity_residuals_are_small_on_a_free_shot():
    traj = _full_run(3.0)
    events = []
    for comp in ("u", "up", "v", "vp"):
        events.extend(find_zeros(traj, comp))
    probes = probe_radii(traj, 300, r_hi=traj.r_end * 0.99, exclusion_radii=events)
    report = identity_residuals(traj, probes)
    assert set(r.identity for r in report.residuals) == set(IDENTITY_NAMES)
    worst = report.worst()
    assert worst.max_rel_residual < 1e-6
    assert report.connection_rel_residual < 1e-9
    assert all(r.probes_used >= 50 for r in report.residuals)


def test_identity_residuals_reject_unknown_names():
    traj = _full_run(2.0, rmax=10.0)
    probes = probe_radii(traj, 50)
    with pytest.raises(KeyError):
        identity_residuals(traj, probes, identities=["not_an_identity"])


def test_out_of_range_probes_are_refused():
    traj = _full_run(2.0, rmax=10.0)
    with pytest.raises(ProbeUndefined):
        identity_residuals(traj, [traj.r_end + 1.0])


def test_strict_mode_raises_on_guarded_probes():
    # u' == 0 everywhere on the constant shot, so every probe fails the
    # u'-guard of the barrier identity
    traj = integrate(ProblemParams(FL, 1.0, IntegratorControls().with_rmax(10.0)),
                     FULL_RANGE_POLICY)
    probes = probe_radii(traj, 50)
    with pytest.raises(ProbeUndefined):
        identity_residuals(traj, probes, identities=["barrier_b0"], strict=True)
    # non-strict mode records the identity as unmeasured instead
    report = identity_residuals(traj, probes, identities=["barrier_b0"])
    assert report.residuals[0].probes_used == 0


def test_constant_shot_reports_its_trivial_identities_as_undefined():
    # u = 1 and u' = 0 exactly, so the identities in u alone read 0 = 0 up to
    # roundoff, and a relative residual there is roundoff over roundoff.
    # The identities that carry v still have something to measure.
    traj = integrate(ProblemParams(FieldParams(3, 1.25), 1.0), FULL_RANGE_POLICY)
    events = []
    for comp in ("v", "vp"):
        events.extend(find_zeros(traj, comp))
    probes = probe_radii(traj, 500, r_hi=40.0, exclusion_radii=events)
    report = identity_residuals(traj, probes)
    by_name = {rec.identity: rec for rec in report.residuals}
    for name in ("energy", "pohozaev_scaled", "pohozaev_p2", "log_slope", "flux_u"):
        assert by_name[name].probes_used == 0
    for name in ("energy_layer", "pohozaev", "wronskian_m", "flux_v"):
        assert by_name[name].probes_used > 400
    assert report.worst().max_rel_residual < 1e-6


def test_bridge_integral_empty_range_is_flagged():
    traj = _full_run(3.0, rmax=10.0)
    out = bridge_integral(traj, 2.0, 1.5, 1.0)
    assert out.empty_range
    assert out.value == 0.0


def test_bridge_integral_needs_finite_events_and_height():
    traj = _full_run(3.0, rmax=10.0)
    with pytest.raises(MissingEvents):
        bridge_integral(traj, float("nan"), 2.0, 1.0)
    with pytest.raises(MissingEvents):
        bridge_integral(traj, 1.0, 2.0, 0.0)


def test_bridge_integral_positive_on_the_shallow_ground_case():
    # at p = 1.2 the first variation zero lands past b_1, so the range is
    # nonempty; value frozen from a converged quadrature of the same run
    fl = FieldParams(3, 1.2)
    entry = find_alpha_k(fl, 0, tol=1e-12)
    full = integrate(ProblemParams(fl, entry.midpoint), FULL_RANGE_POLICY)
    struct = truncate_for_structure(full)
    portrait = detect_events(struct, critical_amplitudes(fl))
    b1 = portrait.phases[0].b.r
    tau1 = portrait.zeros_v[0].r
    assert tau1 > b1
    u_tilde = abs(struct.eval_dense(b1).u)
    out = bridge_integral(struct, b1, tau1, u_tilde)
    assert not out.empty_range
    assert out.value > 0.0
    assert out.value == pytest.approx(5.533309580e-03, rel=1e-6)
    assert out.error_estimate < 1e-12
