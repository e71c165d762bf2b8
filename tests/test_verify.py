"""Verification-suite tests: presets, plan validation, case preparation."""

import dataclasses
import math
import struct

import pytest

from boundstate_lab import (
    CHECK_IDS,
    PRESETS,
    CaseSpec,
    FieldParams,
    MalformedPlan,
    VerificationPlan,
    default_cases,
    run_checks,
    truncate_for_structure,
)
from boundstate_lab import verify
from boundstate_lab.portrait import _refine_root
from boundstate_lab.verify import (
    BOUND_BRACKET,
    EXPLICIT,
    FAIL,
    OSCILLATORY_CASE,
    PASS,
    SKIPPED,
    _prepare,
)


def test_presets_partition_the_check_ids():
    assert set(PRESETS["full"]) == set(CHECK_IDS)
    assert set(PRESETS["core"]) == set(CHECK_IDS) - {"tail_asymptotics"}
    assert set(PRESETS["residual"]) <= set(CHECK_IDS)
    assert "bridge_integral" in PRESETS["residual"]


def test_case_spec_labels_and_validation(field33):
    assert CaseSpec(field33, BOUND_BRACKET, k=0).label == "GroundBracket(n=3,p=3)"
    assert CaseSpec(field33, BOUND_BRACKET, k=2).label == "BoundBracket(k=2,n=3,p=3)"
    assert "alpha=0.5" in CaseSpec(field33, OSCILLATORY_CASE, alpha=0.5).label
    with pytest.raises(MalformedPlan):
        CaseSpec(field33, BOUND_BRACKET)  # bracket without k
    with pytest.raises(MalformedPlan):
        CaseSpec(field33, OSCILLATORY_CASE)  # free shot without alpha
    with pytest.raises(MalformedPlan):
        CaseSpec(field33, "Nope", alpha=1.0)


def test_plan_validation(field33):
    case = CaseSpec(field33, EXPLICIT, alpha=1.0)
    with pytest.raises(MalformedPlan):
        VerificationPlan(cases=(), checks=("energy_monotone",)).validate()
    with pytest.raises(MalformedPlan):
        VerificationPlan(cases=(case,), checks=()).validate()
    with pytest.raises(MalformedPlan):
        VerificationPlan(cases=(case,), checks=("no_such_check",)).validate()


def test_truncation_keeps_the_structural_span(mid1_full, mid1_struct):
    assert mid1_struct.r_end < mid1_full.r_end
    tail_u = abs(mid1_struct.state_at_knot(len(mid1_struct.knots) - 1).u)
    assert tail_u <= 1e-5
    # all structure radii survive: the zero and both criticals sit inside
    assert mid1_struct.r_end > 2.0


def test_core_preset_passes_at_the_reference_point(field33):
    plan = VerificationPlan(
        cases=default_cases(field33, "core"),
        checks=PRESETS["core"],
    )
    report = run_checks(plan)
    assert len(report.records) == len(plan.cases) * len(plan.checks)
    failed = [r for r in report.records if r.status == FAIL]
    assert failed == []
    assert report.passed
    # every executed check leaves a finite margin or a reasoned skip
    for rec in report.records:
        assert rec.status in (PASS, SKIPPED)
        if rec.status == SKIPPED:
            assert rec.notes


def test_identity_residuals_pass_on_the_constant_shot_at_a_shallow_exponent():
    case = CaseSpec(FieldParams(3, 1.25), EXPLICIT, alpha=1.0)
    report = run_checks(VerificationPlan(cases=(case,), checks=("identity_residuals",)))
    (rec,) = report.records
    assert rec.status == PASS, rec.notes


def test_full_preset_fails_only_on_the_tail_slope(field33):
    cases = (CaseSpec(field33, BOUND_BRACKET, k=1),)
    plan = VerificationPlan(cases=cases, checks=PRESETS["full"])
    report = run_checks(plan)
    assert not report.passed
    failed = {r.check for r in report.records if r.status == FAIL}
    # the decay funnel slope is -1 - 1/r; at the radii where |u| enters
    # the decay band, 1/r > 0.05, so the fixed band is unreachable
    assert failed == {"tail_asymptotics"}


def test_residual_preset_passes_at_shallow_exponent():
    fl = FieldParams(3, 1.5)
    plan = VerificationPlan(
        cases=default_cases(fl, "residual"),
        checks=PRESETS["residual"],
    )
    report = run_checks(plan)
    assert report.passed
    bridge = [r for r in report.records if r.check == "bridge_integral"]
    assert len(bridge) == 1
    # the lemma range (b_1, tau_1) is empty here; the record says so
    assert bridge[0].status == SKIPPED
    assert "range empty" in bridge[0].notes


def test_worst_margin_table(field33):
    plan = VerificationPlan(
        cases=(CaseSpec(field33, OSCILLATORY_CASE, alpha=5.0),),
        checks=("energy_monotone", "positivity_core"),
    )
    report = run_checks(plan)
    worst = report.worst_by_check()
    assert set(worst) <= {"energy_monotone", "positivity_core"}
    assert all(math.isfinite(v) for v in worst.values())


def _bisect_abs_u(traj, mu, lo, hi):
    """Reference locator: radius in (lo, hi) with |u| = mu by 80 bisection
    steps, assuming |u| is monotone there; None without a sign change."""
    f_lo = abs(traj.eval_dense(lo).u) - mu
    f_hi = abs(traj.eval_dense(hi).u) - mu
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = abs(traj.eval_dense(mid).u) - mu
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _reflection_windows(prep):
    """Every (level, lo, hi) the reflection check hands the level locator."""
    port = prep.portrait
    alpha_star = prep.case.field.alpha_star
    crits = [pt.r for pt in port.crits_u]
    traj = prep.struct
    for ph in port.phases:
        i = ph.index
        if i - 1 >= len(crits) or ph.z is None:
            continue
        c_i = crits[i - 1]
        c_prev = crits[i - 2] if i >= 2 else traj.r_start
        u_ci = abs(traj.eval_dense(c_i).u)
        if u_ci <= alpha_star:
            continue
        for j in range(12):
            mu = alpha_star + (u_ci - alpha_star) * j / 12.0
            yield mu, c_prev + 1e-9, ph.z.r - 1e-9
            yield mu, ph.z.r + 1e-9, c_i - 1e-9


@pytest.mark.parametrize("p", [3.0, 1.25])
def test_level_locator_matches_the_bisection_reference(p):
    field = FieldParams(3, p)
    counts = {}
    located = 0
    for k in (1, 2):
        case = CaseSpec(field, BOUND_BRACKET, k=k)
        prep = _prepare(case, VerificationPlan(cases=(case,), checks=("reflection",)), counts)
        traj = prep.struct
        for mu, lo, hi in _reflection_windows(prep):
            want = _bisect_abs_u(traj, mu, lo, hi)
            got = _refine_root(lambda r: abs(traj.eval_dense(r).u) - mu, lo, hi)
            if want is None:
                assert got is None
                continue
            located += 1
            assert abs(got - want) <= 1e-12 * max(1.0, want), (k, mu, got, want)
    assert located > 0


def test_level_locator_returns_none_without_a_sign_change(mid1_struct):
    traj = mid1_struct
    top = max(map(abs, traj.knot_values[0]))
    above = lambda r: abs(traj.eval_dense(r).u) - 2.0 * top
    assert _refine_root(above, traj.r_start, traj.r_end) is None
    assert _refine_root(lambda r: -1.0 - r * r, -1.0, 1.0) is None


def test_unique_inflection_on_the_bracket_midpoint(field33):
    # the k = 1 shot has two descending windows: the origin down to its zero,
    # and its closing critical down to where u crosses the rest height
    case = CaseSpec(field33, BOUND_BRACKET, k=1)
    report = run_checks(VerificationPlan(cases=(case,), checks=("unique_inflection",)))
    (rec,) = report.records
    assert rec.status == PASS, rec.notes
    assert rec.probes == 2
    assert rec.margin == 1.0
    assert rec.notes == ""


def _bits(record):
    return [None if x is None else struct.pack("<d", x) for x in dataclasses.astuple(record)]


def test_grid_scans_read_each_radius_once(monkeypatch, field33):
    # the six scans share one table of AuxSample rows on the structural grid,
    # filled in grid order; each row is eval_aux of eval_dense at its radius
    scans = ("positivity_core", "omega_monotone", "p_over_rn_monotone",
             "qm_first_phase", "t1_first_phase", "q1q2m_first_phase")
    case = CaseSpec(field33, BOUND_BRACKET, k=1)
    prep = _prepare(case, VerificationPlan(cases=(case,), checks=scans), {})
    assert prep.rows == []
    real = verify.eval_aux
    calls = []
    monkeypatch.setattr(verify, "eval_aux", lambda st, fl: calls.append(st.r) or real(st, fl))
    for check in scans:
        status = verify._CHECKS[check](prep)[0]
        assert status != FAIL, check
    assert len(calls) == len(prep.rows) <= len(prep.struct.grid)
    assert calls == prep.struct.grid[: len(calls)]
    for aux in prep.rows:
        assert _bits(aux) == _bits(real(prep.struct.eval_dense(aux.r), field33))
