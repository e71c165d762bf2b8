"""Classification of shots by amplitude and the node-count ladder.

A shot from height alpha either stays trapped in the potential well
(oscillatory tail, nonpositive energy in finite radius), escapes along the
separatrix (a bound-state candidate with exponential decay), or sits at the
rest height alpha = 1.  Between consecutive ladder amplitudes the node count
is constant, and it jumps by one at each alpha_k; find_alpha_k brackets the
jump by bisection on the final node count, integrating only the midpoints
near a Newton estimate of alpha_k that each counted shot reads from its
variation v.

A counted shot keeps no trajectory: only its node count and the two knot
rows its estimates of alpha_(count-1) and alpha_count read, the only ones
``_bisect`` reads (``_estimate_rows``).  It runs in the compiled kernel of
``_dopri`` when that loads, and otherwise through ``integrate``,
``count_nodes`` and ``_estimate_rows``, which stay the reference the kernel
matches bit for bit.  ``classify()`` and the scans keep their trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from . import _dopri
from .field import FieldParams, abs_pow
from .integrate import (
    CLASSIFY_POLICY,
    ENERGY_NONPOSITIVE,
    REACHED_RMAX,
    IntegratorControls,
    ProblemParams,
    Trajectory,
    integrate,
)
from .portrait import IndeterminateCount, NodeCount, _node_count, count_nodes, find_zeros

CONSTANT = "Constant"
OSCILLATORY = "Oscillatory"
BOUND_STATE_CANDIDATE = "BoundStateCandidate"
INDETERMINATE = "Indeterminate"

# Decay evidence at r_max: |u| below _DECAY_EPS and log slope u'/u within
# _SLOPE_EPS of the decay rate -1.
_DECAY_EPS = 1e-6
_SLOPE_EPS = 0.05

# find_alpha_k gives up once its doubling passes this multiple of alpha_upper_star.
_EXPANSION_CAP = 1e4

# Search margins of _bisect.  Within 1e-4 (relative) of alpha_k an estimate
# misses it by a few hundredths of its shot's offset |alpha - alpha_k|, at most
# 0.08 at (6, 1.9) and 0.17 at (3, 1.1), so the margin is _OFFSET_MARGIN times
# that offset once two estimates agree to within it; until then it is
# _CHANGE_MARGIN times their change.
_OFFSET_MARGIN = 0.25
_CHANGE_MARGIN = 10.0


class BracketNotFound(RuntimeError):
    """No amplitude bracket with the requested node-count jump."""


class MonotonicityViolation(RuntimeError):
    """Observed node counts decreased somewhere along increasing alpha."""


@dataclass(frozen=True)
class Witness:
    """Numerical evidence backing a classification."""

    r_stop: float
    termination_tag: str
    u_end: float
    up_end: float
    energy_nonpositive_radius: float | None = None
    decay_slope_error: float | None = None


@dataclass(frozen=True)
class SolutionClass:
    tag: str
    node_count: int | None
    oscillation_center: int | None
    witness: Witness
    detail: str = ""
    # the shot the class was read from; None only for the constant shot
    trajectory: Trajectory | None = dc_field(default=None, compare=False, repr=False)


_CONSTANT_WITNESS = Witness(r_stop=0.0, termination_tag=CONSTANT, u_end=1.0, up_end=0.0)


def _decay_evidence(traj: Trajectory) -> tuple[bool, float | None]:
    """(in the decay funnel, |u'/u + 1|) at the end of a run that reached r_max."""
    if traj.termination.tag != REACHED_RMAX:
        return False, None
    end = traj.state_at_knot(len(traj.knots) - 1)
    if abs(end.u) >= _DECAY_EPS or end.u == 0.0:
        return False, None
    err = abs(end.up / end.u + 1.0)
    return err < _SLOPE_EPS, err


def classify(
    field: FieldParams,
    alpha: float,
    controls: IntegratorControls = IntegratorControls(),
) -> SolutionClass:
    """Classify the shot from height alpha.

    Constant at the rest height; Oscillatory once the energy turns
    nonpositive (the shot is trapped and oscillates around +-1 forever);
    BoundStateCandidate when the run reaches r_max with |u| < _DECAY_EPS and
    logarithmic slope within _SLOPE_EPS of the decay rate -1.  A run that
    reaches r_max without decay evidence is retried once at doubled r_max
    before giving up as Indeterminate.
    """
    if alpha == 1.0:  # nothing to integrate: u = 1 and u' = 0 at every radius
        return SolutionClass(CONSTANT, 0, None, _CONSTANT_WITNESS, "shot from the rest height")

    traj = integrate(ProblemParams(field, alpha, controls), CLASSIFY_POLICY)
    decayed, err = _decay_evidence(traj)
    if traj.termination.tag == REACHED_RMAX and not decayed:
        traj = integrate(
            ProblemParams(field, alpha, controls.with_rmax(2.0 * controls.r_max)),
            CLASSIFY_POLICY,
        )
        decayed, err = _decay_evidence(traj)

    tag = traj.termination.tag
    end = traj.state_at_knot(len(traj.knots) - 1)
    trapped = tag == ENERGY_NONPOSITIVE
    r_stop = traj.termination.r_stop
    w = Witness(r_stop=r_stop, termination_tag=tag, u_end=end.u, up_end=end.up,
                energy_nonpositive_radius=r_stop if trapped else None,
                decay_slope_error=err)
    if trapped:
        center = 1 if end.u > 0.0 else -1
        return SolutionClass(OSCILLATORY, count_nodes(traj).count, center, w,
                             "trapped by the well", traj)
    if decayed:
        return SolutionClass(BOUND_STATE_CANDIDATE, count_nodes(traj).count, None, w,
                             "reached r_max inside the decay funnel", traj)
    detail = "no decision at r_max" if tag == REACHED_RMAX else traj.termination.detail
    return SolutionClass(INDETERMINATE, None, None, w, detail, traj)


def _counted_shot(
    field: FieldParams, alpha: float, ctrl: IntegratorControls
) -> tuple[NodeCount, tuple]:
    """The node count of the classify-policy shot from alpha and the rows its
    estimates read (``_estimate_rows``), retried once at doubled r_max while
    the count is still provisional there.  The compiled kernel (``_dopri``)
    counts each run when it loads; otherwise the run is integrated and
    counted here, bit for bit alike."""
    for r_max in (ctrl.r_max, 2.0 * ctrl.r_max):
        params = ProblemParams(field, alpha, ctrl.with_rmax(r_max))
        run = _dopri.counted_run(params)
        if run is None:
            traj = integrate(params, CLASSIFY_POLICY)
            end, count = traj.termination, count_nodes(traj)
            rows = _estimate_rows(traj, count.count)
        else:
            end, signs, rows = run
            count = _node_count(end, signs)
        if count.final or end.tag != REACHED_RMAX:
            break
    return count, rows


def node_count_of_alpha(
    field: FieldParams,
    alpha: float,
    controls: IntegratorControls = IntegratorControls(),
) -> NodeCount:
    """Final node count of the shot from alpha.

    Counts are final once the energy has turned nonpositive (no further
    zeros can occur).  A run that reaches r_max still undecided is retried
    once at doubled r_max.
    """
    return _counted_shot(field, alpha, controls)[0]


def _estimate_rows(traj: Trajectory, count: int) -> tuple:
    """The (r, u, u', v, v') knots whose estimates of alpha_(count-1) and
    alpha_count ``_bisect`` reads, as a pair.  The row for alpha_j is the
    first knot at or after the j-th sign change of u at the knots (from the
    start for j = 0) where |u| + |u'| is least, or None where there is no
    alpha_j or the knots never show that sign change.  One pass keeps that
    knot since the last two such sign changes and since the last.  The knot
    where the energy trap fired is not read: the shot has left the separatrix
    there, and with DOP853's long steps it may lie well inside the well."""
    knots, y = traj.knots, traj.knot_values
    us = y[0][:-1] if traj.termination.tag == ENERGY_NONPOSITIVE and len(knots) > 1 else y[0]
    keys = [abs(u) + abs(up) for u, up in zip(us, y[1])]
    two = last = 0
    blocks, prev = 1, us[0]
    for i, u in enumerate(us):
        if u != 0.0:
            if prev != 0.0 and (prev < 0.0) != (u < 0.0):
                two, last, blocks = last, i, blocks + 1
            prev = u
        if keys[i] < keys[two]:
            two = i
        if keys[i] < keys[last]:
            last = i
    return _dopri._estimate_pair(count, blocks, (knots[two], *(col[two] for col in y)),
                                 (knots[last], *(col[last] for col in y)))


def _alpha_k_estimates(field: FieldParams, alpha: float, rows: tuple) -> tuple[float, float]:
    """Newton estimates of alpha_(count-1) and alpha_count read from the shot
    from alpha, one per row of ``_estimate_rows`` (nan for a missing row).

    Near alpha_k the shot is u ~ U_k + (alpha - alpha_k) v.  On its tail U_k
    keeps to the zero-energy separatrix, drift from the drag term included:

        G(u, u') = u' + (kappa(u) + (n-1)/(2r)) u ~ 0,
        kappa(u) = sqrt(1 - 2|u|**(p-1)/(p+1)),

    which is g(u) = u' + (1 + (n-1)/(2r)) u once |u|**(p-1) is negligible.
    Estimate j is alpha - G/(dG/dalpha) at row j's knot; dG/dalpha is G's
    linearisation applied to (v, v').  Keeping kappa matters at p < 2, where
    |u|**(p-1) is still large on the stretch of tail an undershooting shot
    reaches.  A missing row, a knot off the separatrix's range, or a
    vanishing dG/dalpha gives nan.
    """
    half_drag = 0.5 * (field.n - 1.0)

    def estimate(row: tuple | None) -> float:
        if row is None:
            return math.nan
        r, u, up, v, vp = row
        s = 2.0 * abs_pow(u, field.p - 1.0) / (field.p + 1.0)
        if s >= 1.0:
            return math.nan
        kappa = math.sqrt(1.0 - s)
        damp = kappa + half_drag / r
        g_v = vp + (damp - 0.5 * (field.p - 1.0) * s / kappa) * v
        return alpha - (up + damp * u) / g_v if g_v != 0.0 else math.nan

    return estimate(rows[0]), estimate(rows[1])


@dataclass(frozen=True)
class LadderEntry:
    k: int
    alpha_lo: float
    alpha_hi: float
    nodes_lo: int
    nodes_hi: int

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.alpha_lo + self.alpha_hi)

    @property
    def width(self) -> float:
        return self.alpha_hi - self.alpha_lo


class _CountCache:
    """Final node counts by height for one field under one set of controls.

    One cache can serve every bracket search of a run: a height is then
    integrated once, and ``audit`` checks monotonicity over every count the
    run has seen.  Next to each count it keeps the shot's pair of estimates,
    of alpha_(count-1) and alpha_count (``_alpha_k_estimates``), never the
    shot itself; the estimates at the ends of a doubling bracket seed the
    search margins of ``_bisect`` at no extra integration.
    ``integrated``, ``skipped`` and ``fallbacks`` count the heights
    integrated, the bisection midpoints decided from an estimate without
    integrating, and the searches that had to redo plain bisection.
    """

    def __init__(self, field: FieldParams, controls: IntegratorControls):
        self.field = field
        self.controls = controls
        self.seen: dict[float, int] = {}
        self.estimates: dict[float, tuple[float, float]] = {}
        self.integrated = 0
        self.skipped = 0
        self.fallbacks = 0

    def __call__(self, alpha: float) -> int:
        if alpha not in self.seen:
            count, rows = _counted_shot(self.field, alpha, self.controls)
            self.integrated += 1
            if not count.final:
                raise IndeterminateCount(
                    f"node count at alpha={alpha} still provisional after retry"
                )
            self.seen[alpha] = count.count
            self.estimates[alpha] = _alpha_k_estimates(self.field, alpha, rows)
        return self.seen[alpha]

    def audit(self) -> None:
        rows = sorted(self.seen.items())
        for (a0, n0), (a1, n1) in zip(rows, rows[1:]):
            if n1 < n0:
                raise MonotonicityViolation(
                    f"node count fell from {n0} to {n1} between alpha={a0} and {a1}"
                )


def _bisect(counts: _CountCache, k: int, lo: float, hi: float, tol: float,
            predict: bool) -> tuple[float, float]:
    """Bisect [lo, hi] on the node count down to relative width tol.

    With ``predict``, a midpoint that is not yet counted is decided without
    integrating once it lies farther than a margin from the latest estimate
    g1 of alpha_k, read from the shot at a1.  Estimates come from the counted
    heights with k or k+1 zeros, the ends of [lo, hi] first.  When the
    previous estimate g0, from the shot at a0, agrees with g1 to within
    _OFFSET_MARGIN*|a0 - g1|, both shots are close enough for an estimate to
    miss by a small share of its offset, and the margin is
    _OFFSET_MARGIN*max(|a1 - g1|, |g1 - g0|).  Otherwise it is
    _CHANGE_MARGIN*|g1 - g0|.  It is never below 4*tol*mid, which covers the
    estimator's own bias.  The midpoints are those of plain bisection; a
    search whose guesses were all right returns its bracket bit for bit.
    """
    shots: list[tuple[float, float]] = []  # (height, its estimate of alpha_k)

    def note(alpha: float) -> None:
        at = k - counts.seen[alpha] + 1  # alpha_k's slot in the shot's pair
        if at in (0, 1) and not math.isnan(counts.estimates[alpha][at]):
            shots.append((alpha, counts.estimates[alpha][at]))

    note(lo)
    note(hi)
    while hi - lo > tol * lo:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if predict and len(shots) >= 2 and mid not in counts.seen:
            (a0, g0), (a1, g1) = shots[-2:]
            change = abs(g1 - g0)
            if change <= _OFFSET_MARGIN * abs(a0 - g1):
                margin = _OFFSET_MARGIN * max(abs(a1 - g1), change)
            else:
                margin = _CHANGE_MARGIN * change
            if abs(mid - g1) > max(margin, 4.0 * tol * mid):
                counts.skipped += 1
                if mid < g1:
                    lo = mid
                else:
                    hi = mid
                continue
        if counts(mid) <= k:
            lo = mid
        else:
            hi = mid
        note(mid)
    return lo, hi


def find_alpha_k(
    field: FieldParams,
    k: int,
    tol: float = 1e-10,
    controls: IntegratorControls = IntegratorControls(),
    *,
    counts: _CountCache | None = None,
) -> LadderEntry:
    """Bracket the k-th jump amplitude by bisection on the node count.

    Returns a bracket [alpha_lo, alpha_hi] of relative width <= tol with
    exactly k nodes on the left edge and k+1 on the right.  The search
    starts just above the upper critical amplitude (where the count is 0)
    and doubles outward; every count evaluated along the way is audited
    for monotonicity in alpha.  ``counts`` lets searches for several k
    share their counts; it must be built for the same field and controls.

    The doubling counts each new height before it gives up past
    _EXPANSION_CAP * alpha_upper_star, so a jump inside the last doubling
    interval is still found.  The bisection integrates only the midpoints
    near the Newton estimate of alpha_k that each counted shot carries,
    within a margin that shrinks with that shot's distance from its own
    estimate once two estimates agree (see ``_bisect``).  Both ends
    of the bracket are always counted: if they do not carry (k, k+1) nodes
    a guess was wrong, and plain bisection runs again from the doubling
    bracket over the same counts.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if counts is None:
        counts = _CountCache(field, controls)
    elif (counts.field, counts.controls) != (field, controls):
        raise ValueError("count cache was built for another field or other controls")

    lo = field.alpha_upper_star * (1.0 + 1e-6)
    if counts(lo) > k:
        raise BracketNotFound(
            f"count already exceeds {k} at the lower search edge alpha={lo}"
        )
    hi = 2.0 * field.alpha_upper_star
    while counts(hi) <= k:
        if hi > _EXPANSION_CAP * field.alpha_upper_star:
            counts.audit()
            raise BracketNotFound(
                f"no jump past {k} nodes below alpha={hi:.6g}"
            )
        lo = hi
        hi *= 2.0

    out_lo, out_hi = _bisect(counts, k, lo, hi, tol, predict=True)
    nodes_lo, nodes_hi = counts(out_lo), counts(out_hi)
    counts.audit()
    if (nodes_lo, nodes_hi) != (k, k + 1):
        counts.fallbacks += 1
        out_lo, out_hi = _bisect(counts, k, lo, hi, tol, predict=False)
        counts.audit()
        nodes_lo, nodes_hi = counts(out_lo), counts(out_hi)
    if nodes_lo != k or nodes_hi != k + 1:
        raise BracketNotFound(
            f"bracket closed on counts ({nodes_lo}, {nodes_hi}), wanted ({k}, {k + 1})"
        )
    return LadderEntry(k=k, alpha_lo=out_lo, alpha_hi=out_hi, nodes_lo=nodes_lo,
                       nodes_hi=nodes_hi)


def build_ladder(
    field: FieldParams,
    k_max: int,
    tol: float = 1e-10,
    controls: IntegratorControls = IntegratorControls(),
) -> tuple[LadderEntry, ...]:
    """Ladder entries for k = 0 .. k_max, entry k at index k; amplitudes must
    come out increasing."""
    counts = _CountCache(field, controls)
    entries = []
    for k in range(k_max + 1):
        entries.append(find_alpha_k(field, k, tol=tol, controls=controls, counts=counts))
    for prev, cur in zip(entries, entries[1:]):
        if not cur.alpha_lo > prev.alpha_hi:
            raise MonotonicityViolation(
                f"ladder entries k={prev.k} and k={cur.k} are out of order"
            )
    return tuple(entries)


@dataclass(frozen=True)
class ZeroMonotonicityReport:
    alphas: tuple[float, ...]
    first_zeros: tuple[float | None, ...]
    strictly_decreasing: bool
    violations: tuple[int, ...] = dc_field(default=())


def zero_monotonicity_scan(
    field: FieldParams,
    alphas: list[float],
    controls: IntegratorControls = IntegratorControls(),
) -> ZeroMonotonicityReport:
    """First-zero radius z_1(alpha) across a scan; it must fall as alpha grows.

    Amplitudes whose shot never crosses zero report None and are skipped in
    the comparison.  violations holds the indices i where
    z_1(alphas[i]) >= z_1(alphas[i-1]).
    """
    ordered = sorted(alphas)
    zs: list[float | None] = []
    for alpha in ordered:
        traj = integrate(ProblemParams(field, alpha, controls), CLASSIFY_POLICY)
        zeros = find_zeros(traj, "u")
        zs.append(zeros[0] if zeros else None)
    violations = []
    last = None
    for i, z in enumerate(zs):
        if z is None:
            continue
        if last is not None and z >= last:
            violations.append(i)
        last = z
    return ZeroMonotonicityReport(
        alphas=tuple(ordered),
        first_zeros=tuple(zs),
        strictly_decreasing=not violations,
        violations=tuple(violations),
    )
