"""Verification suite: every qualitative claim checked on computed shots.

A plan names trajectory families (explicit heights, oscillatory heights,
bound-state brackets, the ground state being the k = 0 bracket) and a set of
check ids.  Each check reads only the prepared shot and returns its outcome:
status (pass, fail, or skipped-undefined), margin, probe count and notes.
Bracket cases evaluate structural checks on the midpoint shot truncated where
it leaves the decay funnel, since beyond that radius the shot diverges from the
bound state it shadows.  Every derived quantity is cross-checked against a
re-integration at 10x tighter tolerances before its checks run.  run_checks
names each record by its check id and the case label, one record per (case,
check); a check that raises is recorded as a failure.  It runs every bracket
search here, then case i in worker i mod W, W = min(cases, usable CPUs): this
process, or a forked child that marshals its records back (none without os.fork,
while another thread runs, or under a trace or profile hook).  Records merge in
plan order; a child that exits without sending them raises ChildProcessError.

This module locates no event itself: ``portrait`` locates every event
radius, level crossings included.  Its functionals come from ``functionals``,
and the identity check reads both of its identity checks there: the ledger
at every probe, for the march, and the formulas at a few, for roundoff.
"""

from __future__ import annotations

import marshal
import math
import os
import signal
import sys
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field as dc_field
from typing import Any

from . import _dopri
from .classify import (
    OSCILLATORY,
    _DECAY_EPS,
    _SLOPE_EPS,
    LadderEntry,
    _CountCache,
    classify,
    find_alpha_k,
    node_count_of_alpha,
)
from .field import FieldParams, _energy, big_F
from .functionals import (
    _R_FLOOR, AuxSample, _worst, bridge_integral, eval_aux, identity_formula_residuals,
    identity_residuals, probe_radii,
)
from .integrate import (
    FULL_RANGE_POLICY,
    VARIATION_DIVERGED,
    IntegratorControls,
    ProblemParams,
    Trajectory,
    integrate,
)
from .io import plain
from .portrait import (
    PhasePortrait,
    _refine_root,
    detect_events,
    find_zeros,
)

BOUND_BRACKET = "BoundBracket"
OSCILLATORY_CASE = "Oscillatory"
EXPLICIT = "Explicit"

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped-undefined"

_R_MAX_BRACKET = 40.0  # r_max of the bracket-midpoint shots


class MalformedPlan(ValueError):
    """Plan has no cases, no checks, or unknown check ids."""


@dataclass(frozen=True)
class CaseSpec:
    field: FieldParams
    family: str
    k: int | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.family == BOUND_BRACKET:
            if self.k is None or self.k < 0:
                raise MalformedPlan(f"{self.family} case needs a node count k")
        elif self.family in (OSCILLATORY_CASE, EXPLICIT):
            if self.alpha is None or self.alpha <= 0.0:
                raise MalformedPlan(f"{self.family} case needs a positive alpha")
        else:
            raise MalformedPlan(f"unknown case family: {self.family}")

    @property
    def label(self) -> str:
        core = f"n={self.field.n},p={self.field.p:g}"
        if self.family == BOUND_BRACKET:
            return f"GroundBracket({core})" if self.k == 0 else f"BoundBracket(k={self.k},{core})"
        return f"{self.family}(alpha={self.alpha:g},{core})"


@dataclass(frozen=True)
class VerificationPlan:
    cases: tuple[CaseSpec, ...]
    checks: tuple[str, ...]
    controls: IntegratorControls = IntegratorControls()
    bracket_tol: float = 1e-12

    def validate(self) -> None:
        if not self.cases:
            raise MalformedPlan("plan has no cases")
        if not self.checks:
            raise MalformedPlan("plan has no checks")
        for check in self.checks:
            if check not in CHECK_IDS:
                raise MalformedPlan(f"unknown check id: {check}")


@dataclass(frozen=True)
class CheckRecord:
    check: str
    case: str
    status: str
    margin: float | None
    probes: int
    notes: str = ""


@dataclass(frozen=True)
class VerificationReport:
    records: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(rec.status != FAIL for rec in self.records)

    def worst_by_check(self) -> dict[str, float]:
        worst: dict[str, float] = {}
        for rec in self.records:
            if rec.margin is None:
                continue
            if rec.check not in worst or rec.margin < worst[rec.check] or math.isnan(rec.margin):
                worst[rec.check] = rec.margin
        return worst


def _json_float(x: float | None) -> float | None:
    # JSON has no inf/nan; an unbounded margin degrades to null.
    if x is None or not math.isfinite(x):
        return None
    return x


def verification_body(report: VerificationReport) -> dict[str, Any]:
    """The report as the body of the verify command's JSON artifact."""
    return {
        "passed": report.passed,
        "records": [{**plain(rec), "margin": _json_float(rec.margin)}
                    for rec in report.records],
        "worst_by_check": {
            check: _json_float(margin)
            for check, margin in sorted(report.worst_by_check().items())
        },
    }


def verification_table(report: VerificationReport) -> str:
    """Fixed-width text table of the report, one line per record."""
    header = ("check", "case", "status", "margin", "probes", "notes")
    rows = [
        (
            rec.check,
            rec.case,
            rec.status,
            "" if rec.margin is None else f"{rec.margin:.3e}",
            str(rec.probes),
            rec.notes,
        )
        for rec in report.records
    ]
    widths = [
        max(len(header[i]), max((len(row[i]) for row in rows), default=0))
        for i in range(len(header) - 1)
    ]
    lines = []
    for row in [header, *rows]:
        fixed = "  ".join(str(row[i]).ljust(widths[i]) for i in range(len(widths)))
        lines.append((fixed + "  " + row[-1]).rstrip())
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"overall: {verdict} ({len(report.records)} records)")
    return "\n".join(lines) + "\n"


@dataclass
class _Prepared:
    case: CaseSpec
    alpha: float
    controls: IntegratorControls  # the plan's, before any bracket-shot r_max
    full: Trajectory
    struct: Trajectory
    portrait: PhasePortrait | None
    entry: LadderEntry | None
    gate_note: str
    portrait_note: str = ""
    rows: list[AuxSample] = dc_field(default_factory=list, repr=False)

    def window(self, r_lo: float, r_hi: float) -> list[AuxSample]:
        """The samples at the ``struct.grid`` radii in [r_lo, r_hi]; each radius
        is read once, when a window first reaches it."""
        grid = self.struct.grid
        end = bisect_right(grid, r_hi)
        self.rows.extend(eval_aux(self.struct.eval_dense(r), self.case.field)
                         for r in grid[len(self.rows):end])
        return self.rows[bisect_left(grid, r_lo):end]


def truncate_for_structure(traj: Trajectory) -> Trajectory:
    """Cut a bracket-midpoint shot where it leaves the decay funnel.

    The anchor is the last critical radius with |u| above the well edge
    (later criticals belong to the captured oscillation, not the shadowed
    bound state); the cut lands at the first knot past the anchor where
    |u| <= 10 * _DECAY_EPS.  Without such a knot the cut falls back to the
    minimum of |u| past the anchor.
    """
    anchor = 0.0
    for r in find_zeros(traj, "up"):
        if abs(traj.value(0, r)) > traj.params.field.alpha_star:
            anchor = r
    floor = 10.0 * _DECAY_EPS
    best_r = None
    best_u = math.inf
    for r, u in zip(traj.knots, traj.knot_values[0]):
        if r <= anchor:
            continue
        au = abs(u)
        if au <= floor:
            return traj.truncated_at(r)
        if au < best_u:
            best_u, best_r = au, r
    if best_r is not None and best_r > anchor:
        return traj.truncated_at(best_r)
    return traj


def _grid(lo: float, hi: float, count: int) -> list[float]:
    if count < 2 or hi <= lo:
        return [lo] if hi <= lo else [lo, hi]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _bracket(case: CaseSpec, plan: VerificationPlan,
             counts: dict[FieldParams, _CountCache]) -> LadderEntry | Exception | None:
    """A bracket case's bracket, or the exception its search raised; None for a free shot."""
    if case.family != BOUND_BRACKET:
        return None
    try:
        cache = counts.setdefault(case.field, _CountCache(case.field, plan.controls))
        return find_alpha_k(case.field, int(case.k), tol=plan.bracket_tol,
                            controls=plan.controls, counts=cache)
    except Exception as exc:  # raised again where the case is prepared
        return exc


def _prepare(case: CaseSpec, plan: VerificationPlan,
             entry: LadderEntry | Exception | None) -> _Prepared:
    if isinstance(entry, Exception):
        raise entry
    field = case.field
    if entry is not None:
        alpha = entry.midpoint
        ctrl = plan.controls.with_rmax(_R_MAX_BRACKET)
    else:
        alpha = float(case.alpha)
        ctrl = plan.controls
    full = integrate(ProblemParams(field, alpha, ctrl), FULL_RANGE_POLICY)
    if entry is not None:
        struct = truncate_for_structure(full)
    else:
        struct = full
    portrait = None
    portrait_note = ""
    try:
        portrait = detect_events(struct)
    except Exception as exc:  # recorded, not raised: checks degrade to skips
        portrait_note = f"portrait failed: {exc}"

    # Cross-oracle gate: the same shot at 10x tighter tolerances must agree
    # on u, u' at spread probes (and first-zero radii) within 10x the looser
    # tolerance level, scaled by the trajectory amplitude.  Bracket shots are
    # probed only down to three decades below peak: past that the separatrix
    # instability amplifies any tolerance-level difference exponentially.
    tight = integrate(ProblemParams(field, alpha, ctrl.tightened(10.0)),
                      FULL_RANGE_POLICY)
    gate_note = ""
    u_scale = max(map(abs, struct.knot_values[0]))
    up_scale = max(map(abs, struct.knot_values[1]))
    r_cap = min(struct.r_end, tight.r_end)
    if entry is not None:
        last_loud = struct.r_start
        for r, u in zip(struct.knots, struct.knot_values[0]):
            if abs(u) >= 1e-3 * u_scale:
                last_loud = r
        r_cap = min(r_cap, last_loud)
    span = r_cap - struct.r_start
    for frac in (0.15, 0.35, 0.55, 0.75, 0.95):
        r = struct.r_start + frac * span
        a = struct.eval_dense(r)
        b = tight.eval_dense(r)
        for name, va, vb, scale in (("u", a.u, b.u, u_scale),
                                    ("up", a.up, b.up, up_scale)):
            allowed = 10.0 * (ctrl.abs_tol + ctrl.rel_tol * scale)
            if abs(va - vb) > allowed:
                gate_note = (
                    f"cross-oracle disagreement in {name} at r={r:.4g}: "
                    f"|{va:.12g} - {vb:.12g}| > {allowed:.3g}"
                )
                break
        if gate_note:
            break
    if not gate_note:
        za = find_zeros(struct, "u")
        zb = [z for z in find_zeros(tight, "u") if z <= r_cap + 1.0]
        for i in range(min(len(za), len(zb))):
            allowed = 10.0 * (ctrl.abs_tol + ctrl.rel_tol * (za[i] + 1.0))
            if abs(za[i] - zb[i]) > allowed:
                gate_note = f"cross-oracle disagreement in z_{i+1}"
                break
    return _Prepared(case, alpha, plan.controls, full, struct, portrait, entry, gate_note,
                     portrait_note)


# What a check returns: (status, margin, probes, notes); run_checks names it.
_Outcome = tuple[str, float | None, int, str]


def _skip(why: str) -> _Outcome:
    return SKIPPED, None, 0, why


def _nodal_limit(prep: _Prepared) -> float | None:
    """Right end of the nodal positivity windows: the structural cut of a
    bracket shot, else the largest zero radius (None without zeros)."""
    if prep.entry is not None:
        return prep.struct.r_end
    if prep.portrait is None or not prep.portrait.zeros_u:
        return None
    return prep.portrait.zeros_u[-1].r


def _check_energy_monotone(prep: _Prepared) -> _Outcome:
    traj = prep.full
    ctrl = traj.params.controls
    worst = math.inf
    prev = None
    for u, up in zip(*traj.knot_values[:2]):
        e = _energy(up, big_F(u, prep.case.field))
        if prev is not None:
            slack = 10.0 * (ctrl.abs_tol + ctrl.rel_tol * abs(prev)) + 1e-15
            worst = min(worst, slack - (e - prev))
        prev = e
    status = PASS if worst >= 0.0 else FAIL
    return status, worst, len(traj.knots), ""


def _check_velocity_bound(prep: _Prepared) -> _Outcome:
    if prep.alpha == 1.0:
        return _skip("stationary shot, bound degenerate")
    fl = prep.case.field
    cap = math.sqrt(2.0 * (big_F(prep.alpha, fl) - big_F(1.0, fl)))
    peak = max(map(abs, prep.full.knot_values[1]))
    margin = (cap - peak) / cap
    status = PASS if margin > 0.0 else FAIL
    return status, margin, len(prep.full.knots), f"cap={cap:.6g} peak={peak:.6g}"


def _positivity_scan(
    prep: _Prepared, names: tuple[str, ...], r_hi: float, r_lo: float = 0.0
) -> tuple[float, int, str]:
    """Min relative margin of the named AuxSample fields over (r_lo, r_hi].

    Margins are taken against each functional's max over the window, with a
    1e-9 relative slack: the values vanish at the origin like high powers of
    r, so the first samples sit below cancellation noise and only the window
    scale gives a meaningful yardstick.
    """
    rows = prep.window(r_lo, r_hi)
    worst = math.inf
    worst_note = ""
    for name in names:
        pairs = [(aux.r, val) for aux in rows if (val := getattr(aux, name)) is not None]
        if not pairs:
            continue
        scale = max(abs(v) for _, v in pairs) or 1e-300
        for r, val in pairs:
            margin = val / scale + 1e-9
            if margin < worst:
                worst = margin
                worst_note = f"{name} at r={r:.4g}"
    return worst, len(rows), worst_note


def _check_positivity_core(prep: _Prepared) -> _Outcome:
    r_hi = _nodal_limit(prep)
    if r_hi is None:
        return _skip("no zeros: positivity window undefined")
    worst, n, note = _positivity_scan(prep, ("E", "P", "P1", "P2"), r_hi)
    return (PASS if worst >= 0.0 else FAIL), worst, n, note


def _check_omega_monotone(prep: _Prepared) -> _Outcome:
    traj = prep.struct
    zeros = [pt.r for pt in prep.portrait.zeros_u]
    if prep.entry is not None:
        edges = [traj.r_start] + zeros + [traj.r_end]
    elif zeros:
        edges = [traj.r_start] + zeros  # past z_k the shot is trapped, claim lapses
    else:
        return _skip("no zeros: nodal intervals undefined")
    worst = math.inf
    count = 0
    u_scale = max(map(abs, traj.knot_values[0]))
    for lo, hi in zip(edges, edges[1:]):
        pad = 1e-4 * (hi - lo)
        prev = None
        for aux in prep.window(lo + pad, hi - pad):
            if abs(aux.u) < 1e-8 * u_scale:
                continue
            w = aux.omega
            if prev is not None:
                count += 1
                worst = min(worst, (w - prev) / (1.0 + abs(w)))
            prev = w
    if count == 0:
        return _skip("no interval samples")
    return (PASS if worst > 0.0 else FAIL), worst, count, ""


def _check_p_over_rn_monotone(prep: _Prepared) -> _Outcome:
    r_hi = _nodal_limit(prep)
    if r_hi is None:
        return _skip("no zeros: window undefined")
    # dividing by r^n amplifies absolute error in P without bound near the
    # origin, so the scan starts where the quotient is conditioned
    rows = prep.window(_R_FLOOR, r_hi)
    if len(rows) < 2:
        return _skip(f"window too short past r={_R_FLOOR}")
    worst = math.inf
    prev = None
    scale = 1e-300
    for aux in rows:
        x = aux.P / aux.rn
        scale = max(scale, abs(x))
        if prev is not None:
            worst = min(worst, (prev - x) / scale)
        prev = x
    status = PASS if worst > -1e-9 else FAIL
    return status, worst, len(rows), ""


def _phaseful(prep: _Prepared) -> bool:
    """Whether the shot carries first-phase structure: bracket shots always,
    others only once u has at least one zero.  Trapped shots that never leave
    the well make no phase claims."""
    if prep.entry is not None:
        return True
    return prep.portrait is not None and bool(prep.portrait.zeros_u)


def _first_phase_limit(prep: _Prepared) -> float | None:
    """z_1 when the shot has zeros; tau_1 for the ground family, where the
    first-phase claims hold up to the variation's first zero instead."""
    if prep.portrait is None or not _phaseful(prep):
        return None
    if prep.portrait.zeros_u:
        return prep.portrait.zeros_u[0].r
    if prep.portrait.zeros_v:
        return prep.portrait.zeros_v[0].r
    return None


def _check_qm_first_phase(prep: _Prepared) -> _Outcome:
    r_hi = _first_phase_limit(prep)
    if r_hi is None:
        return _skip("no z_1 or tau_1 resolved")
    worst, n, note = _positivity_scan(prep, ("Q", "M"), r_hi)
    return (PASS if worst >= 0.0 else FAIL), worst, n, f"window (0, {r_hi:.4g}]; {note}"


def _check_t1_first_phase(prep: _Prepared) -> _Outcome:
    r_hi = _first_phase_limit(prep)
    if r_hi is None:
        return _skip("no z_1 or tau_1 resolved")
    worst, n, _ = _positivity_scan(prep, ("T1",), r_hi * (1.0 - 1e-3))
    if math.isinf(worst):
        return _skip("no admissible samples")
    return (PASS if worst >= 0.0 else FAIL), worst, n, ""


def _check_q1q2m_first_phase(prep: _Prepared) -> _Outcome:
    port = prep.portrait
    if port is None or not port.crits_u or not port.zeros_u:
        return _skip("no resolved c_1")
    c1 = port.crits_u[0].r
    z1 = port.zeros_u[0].r
    worst, n1, note = _positivity_scan(prep, ("M", "Q1", "Q2"), c1)
    # Q > 0 on (0, z_1] and again on [b̄_1, c_1]
    worst_q, n2, note_q = _positivity_scan(prep, ("Q",), z1)
    worst = min(worst, worst_q)
    ph1 = port.phases[0] if port.phases else None
    if ph1 is not None and ph1.bbar is not None:
        worst_q2, n3, _ = _positivity_scan(prep, ("Q",), c1, r_lo=ph1.bbar.r)
        worst = min(worst, worst_q2)
        n2 += n3
    return (PASS if worst >= 0.0 else FAIL), worst, n1 + n2, note or note_q


def _check_renewability(prep: _Prepared) -> _Outcome:
    """Per-phase renewal: Q, M, T2 > 0 at c_i, Q(b̄_i) > Q(b_i), and T2 > 0
    on a probe grid across [c_{i-1}, b_i].  Phases without a resolved right
    critical point are left out."""
    port = prep.portrait
    if port is None or not port.crits_u:
        return _skip("no resolved phase criticals")
    traj, fl = prep.struct, prep.case.field
    crits = [pt.r for pt in port.crits_u]
    live = [ph for ph in port.phases if ph.index - 1 < len(crits)]
    passed = True
    margin = math.inf
    for ph in live:
        i = ph.index
        c_prev = crits[i - 2] if i >= 2 else traj.r_start
        aux_c = eval_aux(traj.eval_dense(crits[i - 1]), fl)
        t2_c = aux_c.T2 if aux_c.T2 is not None else math.nan
        scale = max(abs(aux_c.Q), abs(aux_c.M), abs(t2_c), 1e-300)
        margin = min(margin, aux_c.Q / scale, aux_c.M / scale, t2_c / scale)
        passed = passed and aux_c.Q > 0.0 and aux_c.M > 0.0 and t2_c > 0.0
        if ph.b is not None and ph.bbar is not None:
            q_b = eval_aux(traj.eval_dense(ph.b.r), fl).Q
            q_bbar = eval_aux(traj.eval_dense(ph.bbar.r), fl).Q
            margin = min(margin, (q_bbar - q_b) / max(abs(q_bbar), 1e-300))
            passed = passed and q_bbar > q_b
        vals = []
        if ph.b is not None:
            for r in _grid(c_prev + 1e-9 * max(1.0, c_prev), ph.b.r, 48):
                aux = eval_aux(traj.eval_dense(r), fl)
                if aux.T2 is not None:
                    vals.append(aux.T2)
        if vals:
            # T2 vanishes like a high power of r at the origin, so the window
            # min is graded against the window scale with the usual slack
            t2_min = min(vals)
            margin = min(margin, t2_min / scale + 1e-9)
            t2_scale = max(abs(t2_c), max(abs(v) for v in vals))
            passed = passed and t2_min > -1e-9 * t2_scale
    status = PASS if passed and margin > 0.0 else FAIL
    return status, margin, len(live), f"{len(live)} phase(s) audited"


def _check_reflection(prep: _Prepared) -> _Outcome:
    port = prep.portrait
    if port is None or not port.phases or not _phaseful(prep):
        return _skip("no phase structure resolved")
    fl = prep.case.field
    crits = [pt.r for pt in port.crits_u]
    traj = prep.struct
    worst = math.inf
    used = 0
    for ph in port.phases:
        i = ph.index
        if i - 1 >= len(crits) or ph.z is None:
            continue
        c_i = crits[i - 1]
        c_prev = crits[i - 2] if i >= 2 else traj.r_start
        u_ci = abs(traj.value(0, c_i))
        if u_ci <= fl.alpha_star:
            continue
        z_i = ph.z.r
        for j in range(12):
            mu = fl.alpha_star + (u_ci - fl.alpha_star) * j / 12.0
            level = lambda r: abs(traj.value(0, r)) - mu
            r_mu = _refine_root(level, c_prev + 1e-9, z_i - 1e-9)
            rbar_mu = _refine_root(level, z_i + 1e-9, c_i - 1e-9)
            if r_mu is None or rbar_mu is None:
                continue
            xa = eval_aux(traj.eval_dense(r_mu), fl)
            xb = eval_aux(traj.eval_dense(rbar_mu), fl)
            if xa.up == 0.0 or xb.up == 0.0:
                continue
            phi_a = xa.Q / (xa.rn1 * abs(xa.up))
            phi_b = xb.Q / (xb.rn1 * abs(xb.up))
            used += 1
            worst = min(worst, (phi_b - phi_a) / (abs(phi_b) + abs(phi_a)))
    if used == 0:
        return _skip("no complete phase with matched radii")
    return (PASS if worst > 0.0 else FAIL), worst, used, ""


def _check_tango(prep: _Prepared) -> _Outcome:
    port = prep.portrait
    if prep.entry is None:
        return _skip("interlacing claims apply to bracket shots")
    traj = prep.struct
    k = prep.entry.k
    zeros = [pt.r for pt in port.zeros_u]
    taus = [pt.r for pt in port.zeros_v]
    crits = [pt.r for pt in port.crits_u]
    problems = []
    if len(zeros) != k:
        problems.append(f"{len(zeros)} zeros of u, wanted {k}")
    c_k = crits[-1] if crits else 0.0
    inner = [t for t in taus if zeros and t <= zeros[-1]]
    extra = [t for t in taus if t > (zeros[-1] if zeros else c_k)]
    if zeros:
        if len(inner) != k:
            problems.append(f"{len(inner)} zeros of v on [0, z_k], wanted {k}")
        else:
            lows = [0.0] + zeros[:-1]
            for i, t in enumerate(inner):
                if not lows[i] < t < zeros[i]:
                    problems.append(f"tau_{i+1}={t:.4g} outside its zero gap")
    if len(extra) != 1:
        problems.append(f"{len(extra)} zeros of v past z_k, wanted 1")
    elif extra[0] <= c_k:
        problems.append(f"tau_{k+1}={extra[0]:.4g} not past c_k={c_k:.4g}")
    margin = math.inf
    v_scale = max(map(abs, traj.knot_values[2]))
    for t in inner:
        st = traj.eval_dense(t)
        if st.up * st.vp <= 0.0:
            problems.append(f"u'v' <= 0 at tau={t:.4g}")
    for i, z in enumerate(zeros):
        st = traj.eval_dense(z)
        rel = abs(st.v) / v_scale
        margin = min(margin, rel)
        if st.v == 0.0:
            problems.append(f"v vanishes at z_{i+1}")
    if math.isinf(margin):
        margin = 1.0
    status = FAIL if problems else PASS
    return status, margin, len(taus), "; ".join(problems)


def _check_tau_localization(prep: _Prepared) -> _Outcome:
    port = prep.portrait
    if port is None or not port.phases or not _phaseful(prep):
        return _skip("no phase structure resolved")
    crits = [pt.r for pt in port.crits_u]
    taus = [pt.r for pt in port.zeros_v]
    worst = math.inf
    used = 0
    problems = []
    for ph in port.phases:
        i = ph.index
        if ph.r is None or i - 1 >= len(taus):
            continue
        c_prev = crits[i - 2] if i >= 2 else 0.0
        r_i = ph.r.r
        tau_i = taus[i - 1]
        used += 1
        width = r_i - c_prev
        worst = min(worst, min(tau_i - c_prev, r_i - tau_i) / width)
        if not c_prev < tau_i < r_i:
            problems.append(f"tau_{i} = {tau_i:.4g} not in ({c_prev:.4g}, {r_i:.4g})")
    if used == 0:
        return _skip("no (c_{i-1}, r_i) windows")
    return (FAIL if problems else PASS), worst, used, "; ".join(problems)


def _check_unique_inflection(prep: _Prepared) -> _Outcome:
    # One inflection of u per window from a critical point (or the origin)
    # down to the next zero, and on a bound-like run from the closing
    # critical down to where u crosses the rest height.
    port = prep.portrait
    if port is None or not _phaseful(prep):
        return _skip("no phase structure resolved")
    r_start = prep.struct.r_start
    windows: list[tuple[float, float, int]] = []
    for ph in port.phases:
        if ph.z is not None:
            lo = r_start if ph.index == 1 else port.crits_u[ph.index - 2].r
            hi = ph.z.r
        elif ph.r is not None:
            lo = port.crits_u[-1].r if port.crits_u else r_start
            hi = ph.r.r
        else:
            continue
        windows.append((lo, hi, sum(lo < x < hi for x in port.inflections_u)))
    if not windows:
        return _skip("no concavity windows resolved")
    bad = [f"({lo:.4g},{hi:.4g}) count={count}" for lo, hi, count in windows if count != 1]
    return (FAIL if bad else PASS), (0.0 if bad else 1.0), len(windows), "; ".join(bad)


def _check_bridge_integral(prep: _Prepared) -> _Outcome:
    fl = prep.case.field
    if not (fl.n == 3 and fl.p < 2.0):
        return _skip("applies to n=3, p in (1, 2)")
    port = prep.portrait
    if port is None or not port.phases or port.phases[0].b is None:
        return _skip("b_1 unresolved")
    if not port.zeros_v:
        return _skip("tau_1 unresolved")
    b1 = port.phases[0].b.r
    tau1 = port.zeros_v[0].r
    u_tilde = abs(prep.struct.value(0, b1))
    result = bridge_integral(prep.struct, b1, tau1, u_tilde)
    if result.empty_range:
        return _skip(f"tau_1={tau1:.4g} <= b_1={b1:.4g}: range empty, positivity premise unmet")
    status = PASS if result.value > 0.0 else FAIL
    return status, result.value, 15, f"I_1={result.value:.6g} over ({b1:.4g}, {tau1:.4g})"


# The identity check reads each identity twice.  The ledger
# (``functionals.identity_residuals``) differentiates each left side along the
# dense output: its residual is the formula's slip plus the march's part, which
# reads at most 2.3e-7 of the identity's largest magnitude on the core cases,
# so _LEDGER_LIMIT = 1e-6 leaves it 4x.  The formula check
# (``functionals.identity_formula_residuals``) differentiates each left side
# along the exact flow through the dense state, where only roundoff remains:
# at most 7.5e-14 (340 unit roundoffs) over every probe of the core cases at
# (3,3), (3,1.1)-(3,1.4), (3,1.25) and (4,1.5).  _FORMULA_LIMIT = 1e-11 sits a
# factor of about 100 above that floor and 100 below a 1e-9 slip of a right
# side, which the ledger reads as 1e-9 beside its 1e-6 limit.  It also bounds
# the pointwise connection Q - P v/u = omega (M - varpi), an algebraic
# identity of the state, which the ledger reads at every probe.
_LEDGER_LIMIT = 1e-6
_FORMULA_LIMIT = 1e-11
# The formulas do not depend on the shot, so a few probes spread over its
# range check them; the ledger reads every probe.
_FORMULA_PROBES = 16


def _identity_probes(traj: Trajectory) -> list[float]:
    """The probe radii of the identity check on a prepared shot's ``struct``.

    Brackets are probed on the structural cut: in the capture zone beyond it
    |v| reaches guard scale, and the complex-step derivatives of the pairing
    and barrier functionals, which differentiate the dense output's
    polynomial, measure its interpolation noise, not identity validity.
    Long free runs are capped at r = 40 for the same reason, and the
    terminal 1% is dropped since the last segments end mid-step.
    """
    events: list[float] = []
    for comp in ("u", "up", "v", "vp"):
        events.extend(find_zeros(traj, comp))
    r_hi = traj.r_end - 0.01 * (traj.r_end - traj.r_start)
    r_hi = min(r_hi, 40.0)
    return probe_radii(traj, 500, r_hi=r_hi, exclusion_radii=events)


def _check_identity_residuals(prep: _Prepared) -> _Outcome:
    traj = prep.struct
    probes = _identity_probes(traj)
    if len(probes) < 10:
        return _skip("trajectory too short to probe")
    rep = identity_residuals(traj, probes)
    worst = rep.worst()
    formulas = identity_formula_residuals(
        traj, probes[:: math.ceil(len(probes) / _FORMULA_PROBES)]).worst()
    margin = 1.0 - _worst([worst.max_rel_residual / _LEDGER_LIMIT,
                           rep.connection_rel_residual / _FORMULA_LIMIT,
                           formulas.max_rel_residual / _FORMULA_LIMIT])
    status = PASS if margin > 0.0 else FAIL
    notes = (f"worst {worst.identity}: {worst.max_rel_residual:.3g}; "
             f"conn: {rep.connection_rel_residual:.3g}; "
             f"formula {formulas.identity}: {formulas.max_rel_residual:.3g}")
    return status, margin, len(probes), notes


def _check_tail_asymptotics(prep: _Prepared) -> _Outcome:
    if prep.entry is None:
        return _skip("decay tail only on bracket shots")
    traj = prep.struct
    band_lo, band_hi = 1e-5, 1e-3
    last_r = None
    for r, u in zip(traj.knots, traj.knot_values[0]):
        if band_lo < abs(u) < band_hi:
            last_r = r
    if last_r is None:
        return _skip("no samples with |u| in (1e-5, 1e-3)")
    # refine to the |u| = band_lo crossing if the run dips past it
    lo, hi = last_r, traj.r_end
    if abs(traj.value(0, hi)) <= band_lo:
        mu = band_lo * (1.0 + 1e-12)
        r_star = _refine_root(lambda r: abs(traj.value(0, r)) - mu, lo, hi) or last_r
    else:
        r_star = last_r
    st = traj.eval_dense(r_star)
    err = abs(st.up / st.u + 1.0)
    margin = _SLOPE_EPS - err
    status = PASS if margin > 0.0 else FAIL
    return status, margin, 1, f"|u'/u + 1| = {err:.4f} at r = {r_star:.4f}"


def _check_v_divergence(prep: _Prepared) -> _Outcome:
    if prep.entry is None:
        return _skip("applies to bracket shots")
    traj = prep.full
    if traj.termination.tag == VARIATION_DIVERGED:
        return PASS, math.inf, 1, f"v guard tripped at r = {traj.termination.r_stop:.4f}"
    port = prep.portrait
    c_k = port.crits_u[-1].r if (port and port.crits_u) else 0.0
    taus = [t for t in find_zeros(traj, "v") if t > c_k]
    if not taus:
        return _skip("no tau_{k+1} found")
    ref_r = taus[0] + 1.0
    if ref_r >= traj.r_end:
        return _skip("no room past tau_{k+1}")
    ref = abs(traj.value(2, ref_r))
    end = abs(traj.knot_values[2][-1])
    margin = end / (1e3 * ref) - 1.0
    status = PASS if margin > 0.0 else FAIL
    return status, margin, 2, f"|v(r_stop)|={end:.3g} vs 1e3*|v(tau+1)|={1e3 * ref:.3g}"


def _check_tail_dichotomy(prep: _Prepared) -> _Outcome:
    if prep.entry is not None:
        return _skip("bracket tails shadow the separatrix")
    port = prep.portrait
    if port is None or len(port.tail_crits_u) < 4:
        return _skip("fewer than 4 tail criticals")
    vals = [abs(pt.value) for pt in port.tail_crits_u]
    above = [v for v in vals if v > 1.0]
    below = [v for v in vals if v < 1.0]
    problems = []
    sides = [v > 1.0 for v in vals]
    if any(a == b for a, b in zip(sides, sides[1:])):
        problems.append("tail criticals do not alternate about 1")
    worst = math.inf
    for seq, sign in ((above, 1.0), (below, -1.0)):
        for a, b in zip(seq, seq[1:]):
            worst = min(worst, sign * (a - b) / max(abs(a - 1.0), 1e-300))
    if math.isinf(worst):
        worst = 1.0
    if worst <= 0.0:
        problems.append("tail amplitudes not closing in on 1")
    return (FAIL if problems else PASS), worst, len(vals), "; ".join(problems)


def _check_ladder_jump(prep: _Prepared) -> _Outcome:
    entry = prep.entry
    if entry is None:
        return _skip("no bracket in this case")
    fl = prep.case.field
    eps = 1e-4 * entry.alpha_hi
    above = node_count_of_alpha(fl, entry.alpha_hi + eps, prep.controls)
    below = classify(fl, entry.alpha_lo - eps, prep.controls)
    problems = []
    if above.count != entry.k + 1:
        problems.append(f"N(hi+eps) = {above.count}, wanted {entry.k + 1}")
    if below.tag != OSCILLATORY or below.node_count != entry.k:
        problems.append(
            f"classify(lo-eps) = {below.tag}({below.node_count}), "
            f"wanted {OSCILLATORY}({entry.k})"
        )
    return (FAIL if problems else PASS), (0.0 if problems else 1.0), 2, "; ".join(problems)


_CHECKS = {
    "energy_monotone": _check_energy_monotone,
    "velocity_bound": _check_velocity_bound,
    "positivity_core": _check_positivity_core,
    "omega_monotone": _check_omega_monotone,
    "p_over_rn_monotone": _check_p_over_rn_monotone,
    "qm_first_phase": _check_qm_first_phase,
    "t1_first_phase": _check_t1_first_phase,
    "q1q2m_first_phase": _check_q1q2m_first_phase,
    "renewability": _check_renewability,
    "reflection": _check_reflection,
    "tango": _check_tango,
    "tau_localization": _check_tau_localization,
    "unique_inflection": _check_unique_inflection,
    "bridge_integral": _check_bridge_integral,
    "identity_residuals": _check_identity_residuals,
    "tail_asymptotics": _check_tail_asymptotics,
    "v_divergence": _check_v_divergence,
    "tail_dichotomy": _check_tail_dichotomy,
    "ladder_jump": _check_ladder_jump,
}

CHECK_IDS: tuple[str, ...] = tuple(_CHECKS)
# Every other check reads the portrait: where detect_events failed, it skips with that cause.
_PORTRAIT_FREE = ("energy_monotone", "velocity_bound", "identity_residuals",
                  "tail_asymptotics", "ladder_jump")

# Check sets for the named verification presets.  The core preset leaves out
# tail_asymptotics: the 0.05 slope band is unreachable at the radii where
# |u| crosses 1e-5 (the logarithmic slope carries an intrinsic -1/r term),
# so that check is reserved for the full preset as a known-red diagnostic.
PRESETS: dict[str, tuple[str, ...]] = {
    "core": tuple(c for c in CHECK_IDS if c != "tail_asymptotics"),
    "residual": (
        "tango",
        "tau_localization",
        "qm_first_phase",
        "renewability",
        "bridge_integral",
        "identity_residuals",
    ),
    "full": CHECK_IDS,
}


def _case_records(plan: VerificationPlan, case: CaseSpec,
                  entry: LadderEntry | Exception | None) -> list[tuple]:
    """Per check of the plan on one case, its record's fields: values marshal sends bit for bit."""
    try:
        prep = _prepare(case, plan, entry)
        failed = prep.gate_note
    except Exception as exc:
        failed = f"case preparation failed: {exc}"
    records = []
    for check in plan.checks:
        outcome: _Outcome = (FAIL, None, 0, failed)
        if not failed and prep.portrait is None and check not in _PORTRAIT_FREE:
            outcome = _skip(prep.portrait_note)
        elif not failed:
            try:
                outcome = _CHECKS[check](prep)
            except Exception as exc:
                outcome = FAIL, None, 0, f"check raised: {exc}"
        records.append((check, case.label, *outcome))
    return records


def run_checks(plan: VerificationPlan) -> VerificationReport:
    """Execute every requested check on every case, in plan order; one record per pair."""
    plan.validate()
    counts: dict[FieldParams, _CountCache] = {}  # bracket searches share counts per field
    jobs = [(case, _bracket(case, plan, counts)) for case in plan.cases]
    cpus = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))(0)
    alone = (not hasattr(os, "fork") or threading.active_count() > 1
             or sys.gettrace() is not None or sys.getprofile() is not None)
    width = 1 if alone else min(len(jobs), len(cpus))
    _dopri._kernel()  # loaded before any fork: each child inherits it, or its None
    children = {}  # pid: the read end of its pipe, until the child is reaped
    try:
        for w in range(1, width):
            rd, wr = os.pipe()
            if (pid := os.fork()) == 0:  # the child: its cases' records into the pipe
                status = 1
                try:
                    with open(wr, "wb") as pipe:
                        marshal.dump([_case_records(plan, *job) for job in jobs[w::width]], pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(wr)
            children[pid] = open(rd, "rb")
        shares = [[_case_records(plan, *job) for job in jobs[::width]]]
        for pid in list(children):
            sent = children[pid].read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(pid).close()
            if status != 0:
                raise ChildProcessError(f"verify worker sent no records: exit status {status}")
            shares.append(marshal.loads(sent))
    finally:
        for pid, pipe in children.items():  # only when raising: kill and reap the rest
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    records = [CheckRecord(*rec) for i in range(len(jobs)) for rec in shares[i % width][i // width]]
    return VerificationReport(tuple(records))


def default_cases(field: FieldParams, preset: str) -> tuple[CaseSpec, ...]:
    """Case families exercised by the named preset at one parameter point."""
    if preset == "residual":
        return (CaseSpec(field, BOUND_BRACKET, k=1),)
    return (
        CaseSpec(field, EXPLICIT, alpha=1.0),
        CaseSpec(field, OSCILLATORY_CASE, alpha=0.5),
        CaseSpec(field, OSCILLATORY_CASE, alpha=5.0),
        CaseSpec(field, BOUND_BRACKET, k=0),
        CaseSpec(field, BOUND_BRACKET, k=1),
        CaseSpec(field, BOUND_BRACKET, k=2),
    )
