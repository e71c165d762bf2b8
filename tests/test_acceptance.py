"""Acceptance gate: one test per acceptance criterion, timed where required.

Each test prints one summary line (visible with -s, or in the failure
report) and asserts the criterion at its stated tolerance.  Two criteria
fail by measurement, not by bug, and are asserted as stated anyway:

* the residual-case integral: the first variation zero tau_1 lands inside
  b_1 at both shallow exponents, so the integration range is empty;
* the tail slope band: the decay funnel satisfies u'/u = -1 - 1/r, and
  |u| enters the (1e-5, 1e-3) band near r ~ 12-15 where 1/r ~ 0.07 > 0.05.

The measurements behind both are in the repository notes and in these
tests' own printed output.
"""

import time

import numpy as np

from boundstate_lab import (
    FULL_RANGE_POLICY,
    CaseSpec,
    FieldParams,
    IDENTITY_NAMES,
    IntegratorControls,
    ProblemParams,
    VerificationPlan,
    bridge_integral,
    build_ladder,
    classify,
    detect_events,
    find_alpha_k,
    find_zeros,
    identity_residuals,
    integrate,
    node_count_of_alpha,
    probe_radii,
    run_checks,
    truncate_for_structure,
    zero_monotonicity_scan,
)
from boundstate_lab.verify import BOUND_BRACKET, FAIL

FL33 = FieldParams(3, 3.0)
FL42 = FieldParams(4, 2.0)


def _line(label, ok, detail):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c01_critical_amplitudes_closed_forms():
    fl = FieldParams(3, 3.0)  # fresh: the first read of each amplitude computes it
    t0 = time.perf_counter()
    alpha_star, alpha_upper_star = fl.alpha_star, fl.alpha_upper_star
    dt = time.perf_counter() - t0
    ok = (abs(alpha_star - 1.4142136) <= 1e-6
          and abs(alpha_upper_star - 2.0) <= 1e-6
          and dt < 1e-3)
    _line("critical-amplitudes", ok,
          f"alpha_star={alpha_star:.9f} upper={alpha_upper_star:.9f} dt={dt*1e6:.1f}us")
    assert abs(alpha_star - 1.4142136) <= 1e-6
    assert abs(alpha_upper_star - 2.0) <= 1e-6
    assert dt < 1e-3


def test_c02_ground_bracket_against_independent_oracle():
    t0 = time.perf_counter()
    entry = find_alpha_k(FL33, 0, tol=1e-8)

    # oracle: coarse grid + plain bisection at 10x tighter tolerances
    tight = IntegratorControls().tightened(10.0)
    grid = np.linspace(2.05, 8.0, 40)
    counts = [node_count_of_alpha(FL33, float(a), tight).count for a in grid]
    jump = next(i for i in range(len(grid) - 1)
                if counts[i] == 0 and counts[i + 1] >= 1)
    lo, hi = float(grid[jump]), float(grid[jump + 1])
    while hi - lo > 1e-10 * lo:
        mid = 0.5 * (lo + hi)
        if node_count_of_alpha(FL33, mid, tight).count == 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    dt = time.perf_counter() - t0

    ok = entry.alpha_lo <= oracle <= entry.alpha_hi and entry.alpha_lo > 2.0 and dt < 10.0
    _line("ground-bracket", ok,
          f"bracket=[{entry.alpha_lo:.12f},{entry.alpha_hi:.12f}] oracle={oracle:.12f} dt={dt:.1f}s")
    assert entry.alpha_lo <= oracle <= entry.alpha_hi
    assert entry.alpha_lo > 2.0
    assert dt < 10.0


def test_c03_ladder_increases_and_counts_jump():
    t0 = time.perf_counter()
    ladder = build_ladder(FL33, k_max=2, tol=1e-8)
    jumps = []
    for entry in ladder:
        probe = entry.alpha_hi + 1e-4 * entry.alpha_hi
        jumps.append(node_count_of_alpha(FL33, probe).count)
    dt = time.perf_counter() - t0
    increasing = all(b.alpha_lo > a.alpha_hi
                     for a, b in zip(ladder, ladder[1:]))
    ok = increasing and jumps == [1, 2, 3] and dt < 60.0
    _line("ladder", ok, f"mids={[f'{e.midpoint:.6f}' for e in ladder]} "
          f"jump_counts={jumps} dt={dt:.1f}s")
    assert increasing
    assert jumps == [1, 2, 3]
    assert dt < 60.0


def test_c04_identity_residuals_on_free_shots():
    names = [nm for nm in IDENTITY_NAMES
             if nm not in ("riccati", "corrected_t2_tail")]
    assert len(names) == 20
    t0 = time.perf_counter()
    worst_rel = 0.0
    worst_conn = 0.0
    min_used = 10**9
    for field in (FL33, FL42):
        for alpha in (0.5, 3.0, 5.0, 8.0):
            traj = integrate(
                ProblemParams(field, alpha, IntegratorControls().with_rmax(40.0)),
                FULL_RANGE_POLICY)
            events = []
            for comp in ("u", "up", "v", "vp"):
                events.extend(find_zeros(traj, comp))
            r_hi = traj.r_end - 0.01 * (traj.r_end - traj.r_start)
            probes = probe_radii(traj, 500, r_hi=r_hi, exclusion_radii=events)
            report = identity_residuals(traj, probes, identities=names)
            worst = report.worst()
            worst_rel = max(worst_rel, worst.max_rel_residual)
            worst_conn = max(worst_conn, report.connection_rel_residual)
            min_used = min(min_used, min(r.probes_used for r in report.residuals))
    dt = time.perf_counter() - t0
    ok = worst_rel < 1e-6 and worst_conn < 1e-9 and min_used >= 50 and dt < 30.0
    _line("identity-residuals", ok,
          f"worst={worst_rel:.3e} conn={worst_conn:.3e} min_probes={min_used} dt={dt:.1f}s")
    assert worst_rel < 1e-6
    assert worst_conn < 1e-9
    assert min_used >= 50
    assert dt < 30.0


def _bracket_cases(ks):
    return tuple(CaseSpec(FL33, BOUND_BRACKET, k=k) for k in ks)


def test_c05_variation_zero_pattern_on_bracket_midpoints():
    t0 = time.perf_counter()
    plan = VerificationPlan(
        cases=_bracket_cases((1, 2, 3)),
        checks=("tango", "tau_localization", "v_divergence"),
    )
    report = run_checks(plan)
    dt = time.perf_counter() - t0
    failed = [(r.check, r.case, r.notes) for r in report.records if r.status == FAIL]
    ok = report.passed and dt < 60.0
    _line("variation-pattern", ok, f"records={len(report.records)} fails={failed} dt={dt:.1f}s")
    assert report.passed, failed
    assert dt < 60.0


def test_c06_positivity_ledger_on_bracket_midpoints():
    plan = VerificationPlan(
        cases=_bracket_cases((1, 2, 3)),
        checks=("positivity_core", "omega_monotone", "qm_first_phase",
                "q1q2m_first_phase", "renewability"),
    )
    report = run_checks(plan)
    failed = [(r.check, r.case, r.notes) for r in report.records if r.status == FAIL]
    worst = report.worst_by_check()
    _line("positivity-ledger", report.passed,
          f"worst_margins={ {k: f'{v:.2e}' for k, v in sorted(worst.items())} } fails={failed}")
    assert report.passed, failed


def test_c07_residual_case_integral_is_positive():
    # asserted as stated; measured tau_1 <= b_1 at both exponents, so the
    # range is empty and the integral cannot be positive
    t0 = time.perf_counter()
    outcomes = []
    for p in (1.5, 1.2):
        fl = FieldParams(3, p)
        entry = find_alpha_k(fl, 1, tol=1e-12)
        full = integrate(ProblemParams(fl, entry.midpoint), FULL_RANGE_POLICY)
        struct = truncate_for_structure(full)
        portrait = detect_events(struct)
        b1 = portrait.phases[0].b.r
        tau1 = portrait.zeros_v[0].r
        u_tilde = abs(struct.eval_dense(b1).u)
        result = bridge_integral(struct, b1, tau1, u_tilde)
        outcomes.append((p, b1, tau1, result))
    dt = time.perf_counter() - t0
    ok = all(r.value > 0.0 for _, _, _, r in outcomes) and dt < 20.0
    detail = "; ".join(
        f"p={p}: b1={b1:.4f} tau1={tau1:.4f} I={r.value:.3e}"
        + (" EMPTY-RANGE" if r.empty_range else "")
        for p, b1, tau1, r in outcomes)
    _line("residual-integral", ok, f"{detail} dt={dt:.1f}s")
    assert dt < 20.0
    for p, b1, tau1, result in outcomes:
        assert result.value > 0.0, (
            f"p={p}: integration range (b_1={b1:.6f}, tau_1={tau1:.6f}) is empty; "
            "the first variation zero precedes the well-exit radius, so the "
            "positivity claim has no domain here")


def test_c08_first_zero_strictly_decreasing():
    report = zero_monotonicity_scan(FL33, [5.0, 6.0, 8.0, 10.0, 15.0])
    _line("zero-monotonicity", report.strictly_decreasing,
          f"z1={[f'{z:.6f}' for z in report.first_zeros]}")
    assert report.strictly_decreasing


def test_c09_tail_slope_within_band():
    # asserted as stated; the funnel slope is -1 - 1/r + o(1), and the
    # |u| band (1e-5, 1e-3) is reached near r ~ 12-15 where 1/r > 0.05
    rows = []
    for k in (1, 2, 3):
        entry = find_alpha_k(FL33, k, tol=1e-12)
        full = integrate(ProblemParams(FL33, entry.midpoint), FULL_RANGE_POLICY)
        struct = truncate_for_structure(full)
        in_band = [s for s in struct.samples() if 1e-5 < abs(s.u) < 1e-3]
        last = max(in_band, key=lambda s: s.r)
        err = abs(last.up / last.u + 1.0)
        rows.append((k, last.r, err))
    ok = all(err < 0.05 for _, _, err in rows)
    _line("tail-slope", ok,
          "; ".join(f"k={k}: r={r:.2f} err={e:.4f} (1/r={1.0/r:.4f})" for k, r, e in rows))
    for k, r, err in rows:
        assert err < 0.05, (
            f"k={k}: slope error {err:.4f} at r={r:.2f} equals the intrinsic "
            f"1/r={1.0/r:.4f} term of the decay envelope, above the 0.05 band")


def test_c10_classification_dichotomy_over_a_dense_sweep():
    t0 = time.perf_counter()
    allowed = {"Constant", "Oscillatory", "BoundStateCandidate"}
    tags = []
    counts = []
    witnesses_ok = True
    for alpha in np.linspace(0.1, 20.0, 200):
        result = classify(FL33, float(alpha))
        tags.append(result.tag)
        if result.tag == "Oscillatory":
            witnesses_ok &= result.witness.energy_nonpositive_radius is not None
        if result.node_count is not None:
            counts.append(result.node_count)
    dt = time.perf_counter() - t0
    only_allowed = set(tags) <= allowed
    nondecreasing = all(b >= a for a, b in zip(counts, counts[1:]))
    ok = only_allowed and nondecreasing and witnesses_ok and dt < 120.0
    _line("classification-dichotomy", ok,
          f"tags={sorted(set(tags))} max_count={max(counts)} dt={dt:.1f}s")
    assert only_allowed, sorted(set(tags))
    assert nondecreasing
    assert witnesses_ok
    assert dt < 120.0
