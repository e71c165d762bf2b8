"""Verification-suite tests: presets, plan validation, case preparation."""

import cProfile
import dataclasses
import importlib
import json
import marshal
import math
import os
import pstats
import struct
import sys
import threading
import time

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
from boundstate_lab import functionals, verify
from boundstate_lab import io as artio
from boundstate_lab.cli import EXIT_IO, main
from boundstate_lab.functionals import IDENTITY_NAMES, identity_residuals
from boundstate_lab.portrait import LabeledPoint, _refine_root
from boundstate_lab.verify import (
    BOUND_BRACKET,
    EXPLICIT,
    FAIL,
    OSCILLATORY_CASE,
    PASS,
    SKIPPED,
    _bracket,
    _prepare,
)

integrate_module = importlib.import_module("boundstate_lab.integrate")
dopri_module = importlib.import_module("boundstate_lab._dopri")


def _prepared(case, plan, counts=None):
    """The prepared case, its bracket searched first, as run_checks searches it."""
    return _prepare(case, plan, _bracket(case, plan, {} if counts is None else counts))


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
        prep = _prepared(case, VerificationPlan(cases=(case,), checks=("reflection",)), counts)
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


@pytest.fixture(scope="module")
def tango_preps(field33):
    """The prepared (3, 3) k = 1 and k = 2 bracket shots, keyed by k.  On the
    k = 1 shot z_1 = 0.5011, c_1 = 1.188 and the zeros of v are 0.1534 and
    1.402; on the k = 2 shot u' < 0 < v' at r = 0.4, between z_1 = 0.2381
    and c_1 = 0.5417."""
    preps = {}
    for k in (1, 2):
        case = CaseSpec(field33, BOUND_BRACKET, k=k)
        preps[k] = _prepared(case, VerificationPlan(cases=(case,), checks=("tango",)))
    return preps


def _with_events(prep, edit):
    """``prep`` with its portrait's zeros of u, zeros of v and phase criticals
    replaced by ``edit(zeros, taus, crits)`` of their radii."""
    port = prep.portrait
    radii = ([pt.r for pt in events] for events in (port.zeros_u, port.zeros_v, port.crits_u))
    zeros, taus, crits = ([LabeledPoint(r, 0.0) for r in rs] for rs in edit(*radii))
    return dataclasses.replace(prep, portrait=dataclasses.replace(
        port, zeros_u=zeros, zeros_v=taus, crits_u=crits))


TANGO_PROBLEMS = [
    (1, lambda z, t, c: ([], t, c), "0 zeros of u, wanted 1"),
    (1, lambda z, t, c: (z, t[1:], c), "0 zeros of v on [0, z_k], wanted 1"),
    (1, lambda z, t, c: (z, t[:1], c), "0 zeros of v past z_k, wanted 1"),
    (2, lambda z, t, c: (z, [t[0], 0.2, t[2]], c), "tau_2=0.2 outside its zero gap"),
    (1, lambda z, t, c: (z, [t[0], 1.0], c), "tau_2=1 not past c_k=1.188"),
    (2, lambda z, t, c: (z, [t[0], 0.4, t[2]], c), "u'v' <= 0 at tau=0.4"),
]


@pytest.mark.parametrize("k, edit, note", TANGO_PROBLEMS,
                         ids=["zeros", "inner_taus", "outer_taus", "tau_gap", "tau_past_c",
                              "upvp_sign"])
def test_each_tango_problem_fails_a_doctored_bracket_portrait(tango_preps, k, edit, note):
    # each doctored portrait of a passing bracket shot breaks one claim; the
    # margin, |v| at the zeros of u over max |v|, is the real shot's where its
    # zeros are kept and 1 without a zero
    prep = tango_preps[k]
    status, margin, _, notes = verify._check_tango(prep)
    assert status == PASS and notes == ""
    doctored = _with_events(prep, edit)
    want = margin if doctored.portrait.zeros_u else 1.0
    assert verify._check_tango(doctored) == (FAIL, want, len(doctored.portrait.zeros_v), note)


def test_tango_fails_where_v_vanishes_at_a_zero_of_u(tango_preps):
    # v set to 0 at the knot nearest z_1, and that knot made the zero of u
    prep = tango_preps[1]
    struct = prep.struct
    i = min(range(len(struct.knots)),
            key=lambda i: abs(struct.knots[i] - prep.portrait.zeros_u[0].r))
    v = list(struct.knot_values[2])
    v[i] = 0.0
    struct = dataclasses.replace(struct, knot_values=[*struct.knot_values[:2], v,
                                                      struct.knot_values[3]])
    doctored = _with_events(dataclasses.replace(prep, struct=struct),
                            lambda z, t, c: ([struct.knots[i]], t, c))
    assert verify._check_tango(doctored) == (FAIL, 0.0, 2, "v vanishes at z_1")


def test_ladder_jump_fails_an_entry_whose_k_is_one_too_high(tango_preps):
    # the k = 1 bracket relabelled k = 2: two nodes just above it, not three,
    # and one just below it, not two
    prep = tango_preps[1]
    assert verify._check_ladder_jump(prep) == (PASS, 1.0, 2, "")
    doctored = dataclasses.replace(prep, entry=dataclasses.replace(prep.entry, k=2))
    assert verify._check_ladder_jump(doctored) == (
        FAIL, 0.0, 2,
        "N(hi+eps) = 2, wanted 3; classify(lo-eps) = Oscillatory(1), wanted Oscillatory(2)")


def test_tau_localization_fails_a_moved_tau_and_skips_without_a_window(tango_preps):
    # on the k = 1 shot tau_2 = 1.402 lies in (c_1, r_2) = (1.188, 2.042);
    # moved past r_2 it fails, with margin (r_2 - tau_2) / (r_2 - c_1) < 0
    prep = tango_preps[1]
    status, margin, used, notes = verify._check_tau_localization(prep)
    assert (status, used, notes) == (PASS, 2, "") and margin > 0.0
    c_1 = prep.portrait.crits_u[0].r
    r_2 = prep.portrait.phases[1].r.r
    moved = _with_events(prep, lambda z, t, c: (z, [t[0], 2.5], c))
    assert verify._check_tau_localization(moved) == (
        FAIL, (r_2 - 2.5) / (r_2 - c_1), 2, "tau_2 = 2.5 not in (1.188, 2.042)")
    # without zeros of v no phase has a tau to place
    bare = _with_events(prep, lambda z, t, c: (z, [], c))
    assert verify._check_tau_localization(bare) == (
        SKIPPED, None, 0, "no (c_{i-1}, r_i) windows")


@pytest.fixture(scope="module")
def free_prep(field33):
    """The prepared (3, 3) alpha = 5 free shot; its tail criticals alternate about 1
    and close in on it (|u| = 1.233, 0.7936, 1.134, 0.8746, ...)."""
    case = CaseSpec(field33, OSCILLATORY_CASE, alpha=5.0)
    return _prepared(case, VerificationPlan(cases=(case,), checks=("tail_dichotomy",)))


@pytest.mark.parametrize("values, want", [
    ((1.5, -0.5, 0.75, -1.25), (FAIL, 0.5, 4, "tail criticals do not alternate about 1")),
    ((1.25, -0.75, 1.5, -0.5), (FAIL, -1.0, 4, "tail amplitudes not closing in on 1")),
], ids=["not_alternating", "not_closing_in"])
def test_tail_dichotomy_fails_a_doctored_free_shot_portrait(free_prep, values, want):
    # the first four tail criticals keep their radii and take these values
    status, margin, _, notes = verify._check_tail_dichotomy(free_prep)
    assert status == PASS and margin > 0.0 and notes == ""
    port = free_prep.portrait
    tail = [LabeledPoint(pt.r, value) for pt, value in zip(port.tail_crits_u, values)]
    doctored = dataclasses.replace(
        free_prep, portrait=dataclasses.replace(port, tail_crits_u=tail))
    assert verify._check_tail_dichotomy(doctored) == want


def test_a_portrait_that_fails_skips_every_check_that_reads_it(monkeypatch, field33):
    # a one-case plan runs in this process, so its preparation calls the patched
    # detect_events; the checks that read no portrait still pass
    def fail(traj):
        raise ValueError("no events")

    monkeypatch.setattr(verify, "detect_events", fail)
    case = CaseSpec(field33, OSCILLATORY_CASE, alpha=5.0)
    report = run_checks(VerificationPlan(cases=(case,), checks=PRESETS["core"]))
    noted = set()
    for rec in report.records:
        if rec.check in ("energy_monotone", "velocity_bound", "identity_residuals"):
            assert rec.status == PASS, rec
            continue
        assert (rec.status, rec.margin, rec.probes) == (SKIPPED, None, 0), rec
        if rec.notes.startswith("portrait failed"):
            assert rec.notes == "portrait failed: no events"
            noted.add(rec.check)
    assert noted == {"omega_monotone", "tango", "unique_inflection"}


def _bits(record):
    return [None if x is None else struct.pack("<d", x) for x in dataclasses.astuple(record)]


def test_grid_scans_read_each_radius_once(monkeypatch, field33):
    # the six scans share one table of AuxSample rows on the structural grid,
    # filled in grid order; each row is eval_aux of eval_dense at its radius
    scans = ("positivity_core", "omega_monotone", "p_over_rn_monotone",
             "qm_first_phase", "t1_first_phase", "q1q2m_first_phase")
    case = CaseSpec(field33, BOUND_BRACKET, k=1)
    prep = _prepared(case, VerificationPlan(cases=(case,), checks=scans))
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


def _perturb_the_gate_shot(monkeypatch, perturb):
    """Make verify's 10x tighter cross-check shot go through ``perturb``."""
    real = verify.integrate
    loose = VerificationPlan(cases=(), checks=()).controls.abs_tol

    def integrate(params, stop_on_energy):
        traj = real(params, stop_on_energy)
        if params.controls.abs_tol < loose:
            perturb(traj)
        return traj

    monkeypatch.setattr(verify, "integrate", integrate)


def _every_record_fails_with_the_gate_note(field, gate_note):
    case = CaseSpec(field, OSCILLATORY_CASE, alpha=5.0)
    plan = VerificationPlan(cases=(case,), checks=PRESETS["core"])
    assert _prepared(case, plan).gate_note == gate_note
    report = run_checks(plan)
    assert len(report.records) == len(PRESETS["core"])
    for rec in report.records:
        assert (rec.status, rec.margin, rec.probes, rec.notes) == (FAIL, None, 0, gate_note)


def test_a_gate_shot_that_disagrees_in_u_fails_every_record_of_its_case(monkeypatch, field33):
    # a bump of 1e-6 * theta (1 - theta) on every segment of the tight shot's u
    # moves u at the first gate probe (r = 15) far past 10x the tolerance level
    def bump_u(traj):
        q = list(traj.coeffs[0])
        for j in range(1, len(q), 7):
            q[j] += 1e-6
        traj.coeffs[0] = q

    _perturb_the_gate_shot(monkeypatch, bump_u)
    case = CaseSpec(field33, OSCILLATORY_CASE, alpha=5.0)
    note = _prepared(case, VerificationPlan(cases=(case,), checks=("tango",))).gate_note
    assert note.startswith("cross-oracle disagreement in u at r=15: |")
    _every_record_fails_with_the_gate_note(field33, note)


def test_a_gate_shot_that_disagrees_in_a_zero_fails_every_record_of_its_case(monkeypatch,
                                                                              field33):
    # a bump that vanishes at both knots and the midpoint of the segment where
    # the tight shot's u first changes sign leaves its grid values, and u and u'
    # at the five gate probes (r >= 15), as they were, but moves z_1
    def bump_first_zero(traj):
        u = traj.knot_values[0]
        i = next(i for i in range(len(u) - 1) if (u[i] < 0.0) != (u[i + 1] < 0.0))
        assert traj.knots[i + 1] < 15.0
        q = list(traj.coeffs[0])
        q[7 * i + 1] += 1e-5  # 1e-5 * theta (1 - theta) (1 - 4 theta (1 - theta))
        q[7 * i + 3] -= 4e-5
        traj.coeffs[0] = q

    _perturb_the_gate_shot(monkeypatch, bump_first_zero)
    _every_record_fails_with_the_gate_note(field33, "cross-oracle disagreement in z_1")


@pytest.fixture(scope="module")
def free5():
    """The prepared (3, 3) alpha = 5 shot, on which every identity is defined."""
    case = CaseSpec(FieldParams(3, 3.0), OSCILLATORY_CASE, alpha=5.0)
    return _prepared(case, VerificationPlan(cases=(case,), checks=("identity_residuals",)))


def _slipped(monkeypatch, name, factor):
    lhs, rhs, guards = functionals._IDENTITIES[name]
    monkeypatch.setitem(functionals._IDENTITIES, name,
                        (lhs, lambda x, fl, a: factor * rhs(x, fl, a), guards))


def test_the_identity_check_passes_its_shot_with_the_ledger_and_formulas_apart(free5):
    status, margin, probes, notes = verify._check_identity_residuals(free5)
    assert (status, probes) == (PASS, len(verify._identity_probes(free5.struct)))
    # the ledger reads the march, 2e-7 of its 1e-6; the formulas roundoff
    assert margin == pytest.approx(1.0 - 1.96e-7 / verify._LEDGER_LIMIT, abs=1e-3)
    assert notes.startswith("worst pairing_q: 1.96e-07; conn: ")
    formula = float(notes.rpartition(": ")[2])
    assert 0.0 < formula < verify._FORMULA_LIMIT / 100.0


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_a_right_side_slipped_by_1e_9_fails_the_identity_check(monkeypatch, free5, name):
    # the ledger reads such a slip as 1e-9 beside the march's 2e-7 and passes
    # it; the formula check reads it at its own size, 100x its limit
    _slipped(monkeypatch, name, 1.0 + 1e-9)
    status, margin, _, notes = verify._check_identity_residuals(free5)
    assert status == FAIL and margin < -50.0
    assert f"; formula {name}: 1e-09" in notes


def test_a_right_side_slipped_by_3e_11_fails_the_identity_check(monkeypatch, free5):
    # between the formula limit and ten times it
    _slipped(monkeypatch, "pairing_q", 1.0 + 3e-11)
    status, margin, _, notes = verify._check_identity_residuals(free5)
    assert status == FAIL and -3.0 < margin < -1.0
    assert notes.endswith("; formula pairing_q: 3e-11")


def test_a_connection_slipped_by_1e_9_fails_the_identity_check(monkeypatch, free5):
    # Q - P v/u = omega (M - varpi) holds to roundoff at every probe
    rhs = functionals._connection_rhs
    monkeypatch.setattr(functionals, "_connection_rhs", lambda x: (1.0 + 1e-9) * rhs(x))
    status, margin, _, notes = verify._check_identity_residuals(free5)
    assert status == FAIL and margin < -50.0
    assert "; conn: 1e-09; " in notes


def test_a_connection_that_reads_nan_after_its_first_probe_fails_the_identity_check(
        monkeypatch, free5):
    # the worst of the connection's column keeps a NaN met at any probe
    rhs = functionals._connection_rhs
    calls = []

    def nan_second(x):
        calls.append(x.r)
        return math.nan if len(calls) == 2 else rhs(x)

    monkeypatch.setattr(functionals, "_connection_rhs", nan_second)
    status, margin, _, notes = verify._check_identity_residuals(free5)
    assert status == FAIL and math.isnan(margin)
    assert "; conn: nan; " in notes


def test_a_dense_coefficient_slipped_in_one_segment_fails_the_identity_check(free5):
    # 1e-9 of u's scale on the theta (1 - theta) coefficient of the segment
    # holding the middle probe: the ledger reads 5.3e-6, between its limit
    # and ten times it
    struct = free5.struct
    probes = verify._identity_probes(struct)
    i = struct.segment_index(probes[len(probes) // 2])
    q = list(struct.coeffs[0])
    q[7 * i + 1] += 1e-9 * max(map(abs, struct.knot_values[0]))
    slipped = dataclasses.replace(struct, coeffs=[q, *struct.coeffs[1:]])
    ledger = identity_residuals(slipped, probes).worst().max_rel_residual
    assert verify._LEDGER_LIMIT < ledger < 10.0 * verify._LEDGER_LIMIT
    status, margin, _, _ = verify._check_identity_residuals(
        dataclasses.replace(free5, struct=slipped))
    assert status == FAIL and margin == pytest.approx(1.0 - ledger / verify._LEDGER_LIMIT)


def test_a_slipped_dense_output_row_fails_the_identity_check(monkeypatch):
    # one weight of the march's dense output, slipped by 1e-6 in the Python
    # step that the kernel repeats bit for bit: the cross-check at 10x tighter
    # tolerances, slipped alike, still agrees, and the ledger fails
    row = list(integrate_module._P[0])
    row[5] *= 1.0 + 1e-6
    monkeypatch.setattr(integrate_module, "_P", (tuple(row), *integrate_module._P[1:]))
    monkeypatch.setattr(dopri_module, "kept_run", lambda params, stop_on_energy: None)
    case = CaseSpec(FieldParams(3, 1.25), OSCILLATORY_CASE, alpha=5.0)
    (rec,) = run_checks(VerificationPlan(cases=(case,), checks=("identity_residuals",))).records
    assert rec.status == FAIL and rec.margin < 0.0
    assert rec.notes.startswith("worst ")


def test_a_slipped_tableau_weight_fails_the_identity_check(monkeypatch, field33):
    # one solution weight of the march slipped by 1e-6 in the Python step: the
    # march drops to first order in that weight's error, which the cross-check
    # at 10x tighter tolerances, slipped alike, no longer matches
    row = list(integrate_module._A[12])
    row[5] *= 1.0 + 1e-6
    monkeypatch.setattr(integrate_module, "_A", (*integrate_module._A[:12], tuple(row),
                                                 *integrate_module._A[13:]))
    monkeypatch.setattr(dopri_module, "kept_run", lambda params, stop_on_energy: None)
    case = CaseSpec(field33, OSCILLATORY_CASE, alpha=5.0)
    (rec,) = run_checks(VerificationPlan(cases=(case,), checks=("identity_residuals",))).records
    assert rec.status == FAIL
    assert rec.notes.startswith("cross-oracle disagreement in u at r=")


def test_worst_by_check_keeps_a_nan_margin_met_after_a_finite_one(monkeypatch, field33):
    # the energy identity's right side NaN where u < 0: the alpha = 1.5 shot
    # stays positive and passes, the alpha = 5 shot fails with margin NaN, and
    # the report's worst margin of the check is that NaN, null in the JSON
    lhs, rhs, guards = functionals._IDENTITIES["energy"]
    monkeypatch.setitem(functionals._IDENTITIES, "energy",
                        (lhs, lambda x, fl, a: math.nan if x.u < 0.0 else rhs(x, fl, a), guards))
    cases = tuple(CaseSpec(field33, OSCILLATORY_CASE, alpha=a) for a in (1.5, 5.0))
    report = run_checks(VerificationPlan(cases=cases, checks=("identity_residuals",)))
    first, second = report.records
    assert first.status == PASS and math.isfinite(first.margin)
    assert second.status == FAIL and math.isnan(second.margin)
    worst = report.worst_by_check()
    assert list(worst) == ["identity_residuals"] and math.isnan(worst["identity_residuals"])
    body = json.loads(artio.json_text(verify.verification_body(report)))
    assert body["worst_by_check"] == {"identity_residuals": None}
    assert [rec["margin"] for rec in body["records"]] == [first.margin, None]
    # a finite margin met after the NaN leaves it in place
    swapped = verify.VerificationReport((second, first))
    assert math.isnan(swapped.worst_by_check()["identity_residuals"])


# The fan-out: case i runs in worker i mod W, W = min(cases, usable CPUs),
# worker 0 being this process, and the records come back in plan order.

_FREE = tuple(CaseSpec(FieldParams(3, 3.0), OSCILLATORY_CASE, alpha=a)
              for a in (0.5, 1.5, 2.5, 3.5, 5.0))


def _workers(monkeypatch, cpus):
    """Let run_checks see ``cpus`` usable CPUs and no trace or profile hook, so
    that it fans out under a coverage or line-census tracer too."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)


def _fields(report):
    """Each record with its margin as bits, so that NaN, -0.0 and every digit count."""
    return [(rec.check, rec.case, rec.status,
             None if rec.margin is None else struct.pack("<d", rec.margin), rec.probes, rec.notes)
            for rec in report.records]


def _in_process_and_fanned_out(monkeypatch, plan, cpus):
    _workers(monkeypatch, 1)
    in_process = _fields(run_checks(plan))
    _workers(monkeypatch, cpus)
    fanned_out = _fields(run_checks(plan))
    _assert_no_child_remains()
    return in_process, fanned_out


def _assert_no_child_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _marking_pids(monkeypatch):
    """energy_monotone, patched: its probe count is the pid of the worker that ran it."""
    monkeypatch.setitem(verify._CHECKS, "energy_monotone",
                        lambda prep: (PASS, 1.0, os.getpid(), ""))


@pytest.mark.parametrize("preset, p", [("core", "3"), ("core", "1.25"), ("full", "3")])
def test_the_fan_out_gives_the_in_process_records(monkeypatch, preset, p):
    plan = VerificationPlan(cases=default_cases(FieldParams(3, float(p)), preset),
                            checks=PRESETS[preset])
    in_process, fanned_out = _in_process_and_fanned_out(monkeypatch, plan, 2)
    assert len(in_process) == 6 * len(PRESETS[preset])
    assert fanned_out == in_process


@pytest.mark.parametrize("cpus, width", [(1, 1), (2, 2), (3, 3), (8, 5)])
def test_case_i_runs_in_worker_i_mod_w(monkeypatch, cpus, width):
    _workers(monkeypatch, cpus)
    _marking_pids(monkeypatch)
    report = run_checks(VerificationPlan(cases=_FREE, checks=("energy_monotone", "velocity_bound")))
    assert [rec.case for rec in report.records] == [c.label for c in _FREE for _ in range(2)]
    pids = [rec.probes for rec in report.records if rec.check == "energy_monotone"]
    for i, pid in enumerate(pids):
        assert (pid == os.getpid()) == (i % width == 0)
        assert [q == pid for q in pids] == [j % width == i % width for j in range(len(pids))]
    _assert_no_child_remains()


def test_failed_preparations_and_raising_checks_read_alike_in_every_worker(monkeypatch):
    # a bracket search that raises (in this process, before any fork), a free
    # shot whose preparation raises and a check that raises (both patched in
    # before the fork, so every child inherits them)
    real = verify.integrate

    def integrate(params, stop_on_energy):
        if params.alpha == 2.5:
            raise OverflowError("no shot at alpha = 2.5")
        return real(params, stop_on_energy)

    velocity = verify._CHECKS["velocity_bound"]

    def velocity_raising_at_5(prep):
        if prep.alpha == 5.0:
            raise ZeroDivisionError("velocity at alpha = 5")
        return velocity(prep)

    monkeypatch.setattr(verify, "integrate", integrate)
    monkeypatch.setitem(verify._CHECKS, "velocity_bound", velocity_raising_at_5)
    bracket = CaseSpec(FieldParams(3, 3.0), BOUND_BRACKET, k=1)
    plan = VerificationPlan(cases=(*_FREE, bracket), checks=("energy_monotone", "velocity_bound"),
                            bracket_tol=-1.0)
    in_process, fanned_out = _in_process_and_fanned_out(monkeypatch, plan, 3)
    assert fanned_out == in_process
    notes = {(case, check): (status, margin, note)
             for check, case, status, margin, _, note in fanned_out}
    assert notes[_FREE[2].label, "energy_monotone"] == (
        FAIL, None, "case preparation failed: no shot at alpha = 2.5")
    assert notes[bracket.label, "velocity_bound"] == (
        FAIL, None, "case preparation failed: tol must be positive")
    assert notes[_FREE[4].label, "velocity_bound"] == (
        FAIL, None, "check raised: velocity at alpha = 5")
    assert notes[_FREE[4].label, "energy_monotone"][0] == PASS


def test_a_child_that_dies_raises_with_its_status_and_none_remains(monkeypatch):
    _workers(monkeypatch, 2)
    parent = os.getpid()
    energy = verify._CHECKS["energy_monotone"]
    monkeypatch.setitem(verify._CHECKS, "energy_monotone",
                        lambda prep: energy(prep) if os.getpid() == parent else os._exit(3))
    plan = VerificationPlan(cases=_FREE[:4], checks=("energy_monotone",))
    with pytest.raises(ChildProcessError, match="^verify worker sent no records: exit status 3$"):
        run_checks(plan)
    _assert_no_child_remains()


class _Interrupt(BaseException):
    """Raised in this process past run_checks' handlers, as a KeyboardInterrupt is."""


def test_a_parent_that_raises_kills_and_reaps_its_children_first(monkeypatch):
    _workers(monkeypatch, 3)
    parent = os.getpid()

    def check(prep):
        if os.getpid() == parent:
            raise _Interrupt
        time.sleep(60.0)  # a child this test would wait on, were it not killed

    monkeypatch.setitem(verify._CHECKS, "energy_monotone", check)
    t0 = time.monotonic()
    with pytest.raises(_Interrupt):
        run_checks(VerificationPlan(cases=_FREE[:3], checks=("energy_monotone",)))
    assert time.monotonic() - t0 < 30.0
    _assert_no_child_remains()


class _Exited(BaseException):
    """os._exit, patched: the status it was called with."""


def _run_the_first_child_here(monkeypatch, plan):
    """run_checks at two workers with os.fork made to return 0, so that the
    first child's branch runs in this process: the status it exits with and
    the read end of its pipe."""
    _workers(monkeypatch, 2)
    pipes = []
    real_pipe = os.pipe
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(real_pipe()) or pipes[-1])
    monkeypatch.setattr(os, "fork", lambda: 0)

    def exit_(status):
        raise _Exited(status)

    monkeypatch.setattr(os, "_exit", exit_)
    with pytest.raises(_Exited) as exited:
        run_checks(plan)
    ((rd, _),) = pipes
    return exited.value.args[0], rd


def test_the_child_branch_marshals_its_cases_into_its_pipe_and_exits_zero(monkeypatch):
    plan = VerificationPlan(cases=_FREE[:4], checks=("energy_monotone", "velocity_bound"))
    _workers(monkeypatch, 1)
    want = [fields for fields in _fields(run_checks(plan))
            if fields[1] in (_FREE[1].label, _FREE[3].label)]
    status, rd = _run_the_first_child_here(monkeypatch, plan)
    assert status == 0
    with open(rd, "rb") as pipe:
        sent = marshal.load(pipe)
    assert [[fields[1] for fields in records] for records in sent] == [
        [_FREE[1].label] * 2, [_FREE[3].label] * 2]
    got = verify.VerificationReport(
        tuple(verify.CheckRecord(*fields) for records in sent for fields in records))
    assert _fields(got) == want


def test_the_child_branch_exits_one_with_nothing_sent_when_a_check_raises_past_its_handler(
        monkeypatch):
    def check(prep):
        raise _Interrupt

    monkeypatch.setitem(verify._CHECKS, "energy_monotone", check)
    status, rd = _run_the_first_child_here(
        monkeypatch, VerificationPlan(cases=_FREE[:2], checks=("energy_monotone",)))
    assert status == 1
    with open(rd, "rb") as pipe:
        assert pipe.read() == b""


@pytest.mark.parametrize("hold", ["one usable CPU", "no os.fork", "another thread",
                                  "a trace hook", "a profile hook"])
def test_every_case_runs_in_process_with(monkeypatch, hold):
    _workers(monkeypatch, 1 if hold == "one usable CPU" else 3)
    _marking_pids(monkeypatch)
    plan = VerificationPlan(cases=_FREE[:4], checks=("energy_monotone", "velocity_bound"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    profiler = cProfile.Profile()
    if hold == "no os.fork":
        monkeypatch.delattr(os, "fork")
    elif hold == "another thread":
        thread.start()
    elif hold == "a trace hook":
        monkeypatch.setattr(sys, "gettrace", lambda: print)  # any hook at all
    elif hold == "a profile hook":
        monkeypatch.setattr(sys, "getprofile", lambda: profiler)
        profiler.enable()
    try:
        report = run_checks(plan)
    finally:
        profiler.disable()
        release.set()
        if thread.is_alive():
            thread.join()
    assert {rec.probes for rec in report.records if rec.check == "energy_monotone"} == {
        os.getpid()}
    if hold == "a profile hook":  # the profiler saw the check of every case
        calls = {name: nc for (_, _, name), (_, nc, *_) in pstats.Stats(profiler).stats.items()}
        assert calls["_check_velocity_bound"] == len(plan.cases)


def test_the_cli_reports_a_child_that_dies_as_an_io_failure(monkeypatch, tmp_path, capsys):
    _workers(monkeypatch, 2)
    parent = os.getpid()
    energy = verify._CHECKS["energy_monotone"]
    monkeypatch.setitem(verify._CHECKS, "energy_monotone",
                        lambda prep: energy(prep) if os.getpid() == parent else os._exit(3))
    monkeypatch.delenv("BOUNDSTATE_LAB_OUTDIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--checks", "energy_monotone", "--out", "v"]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("i/o failure: verify worker sent no records: exit status 3\n")
    assert list(tmp_path.iterdir()) == []
    _assert_no_child_remains()
