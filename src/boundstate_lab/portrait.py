"""Event detection on dense trajectories: zeros, criticals, phase labels.

A trajectory's qualitative shape is summarized by its ordered events:

* ``zeros_u``   -- sign changes z_1 < z_2 < ... of the profile,
* ``crits_u``   -- the critical points c_1 < c_2 < ... interlaced with them
  (exactly one per consecutive pair of zeros, plus the one closing the last
  phase when the run is bound-like),
* ``tail_crits_u`` -- critical points of the trapped oscillation about the
  rest height after the last zero (only when the run is not bound-like),
* ``zeros_v``   -- sign changes tau_1 < tau_2 < ... of the variation,
* ``inflections_u`` -- sign changes of u'',
* per-phase labels b_i, r_i, z_i, rbar_i, bbar_i marking where |u| crosses
  the well zero ``alpha_star`` and the rest height 1 on the way down and up.

Events are bracketed on ``Trajectory.grid`` (the knots plus each segment's
midpoint, owned by ``integrate``; u'' comes from ``integrate._u_second``) and
located by the Illinois method on ``Trajectory.value``, to an absolute radius
tolerance of 1e-12 * max(1, r); the zeros of u, u' and v come from
``find_zeros``, which scans each component of a trajectory once.  A
crossing that brushes a level closer than 1e-8 is flagged rather than
trusted; overlapping event brackets raise ``AmbiguousEvent``; a walk that
cannot reconcile the zeros with the criticals raises
``InterlacingViolation`` (usually a sign the integration tolerance is too
loose for the requested structure).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

from .integrate import (
    ENERGY_NONPOSITIVE,
    STEP_LIMIT,
    STEP_UNDERFLOW,
    TerminationCause,
    Trajectory,
    _u_second,
)

SEMI_TAIL = "SemiTail"
TAIL_OSCILLATORY = "TailOscillatory"

_RADIUS_TOL = 1e-12
_TANGENCY_TOL = 1e-8


class InterlacingViolation(RuntimeError):
    """Zeros and criticals do not interlace; integration likely too loose."""


class AmbiguousEvent(RuntimeError):
    """Two event brackets overlap within the locator tolerance."""


class IndeterminateCount(RuntimeError):
    """Node count requested from a run that gave up before a verdict."""


@dataclass(frozen=True)
class LabeledPoint:
    """An event radius together with the interesting value there.

    For zeros of u the value is u' (the crossing slope); for criticals the
    value is u; for zeros of v it is v'.
    """

    r: float
    value: float


@dataclass(frozen=True)
class PhaseLabels:
    """Amplitude crossings inside one phase.

    ``index`` is 1-based.  A phase around the i-th zero carries, in radius
    order: b (|u| down through alpha_star), r (|u| down through 1), z (the
    zero), rbar (|u| up through 1), bbar (|u| up through alpha_star).  The
    final entry of a bound-like run has no zero: it records the decay
    crossings after the last critical point (b and r only).  Missing
    crossings are None; label names whose location brushed a tangency are
    listed in ``uncertain``.
    """

    index: int
    b: Optional[LabeledPoint] = None
    r: Optional[LabeledPoint] = None
    z: Optional[LabeledPoint] = None
    rbar: Optional[LabeledPoint] = None
    bbar: Optional[LabeledPoint] = None
    uncertain: tuple[str, ...] = ()


@dataclass
class PhasePortrait:
    """Ordered event summary of one trajectory."""

    zeros_u: list[LabeledPoint]
    crits_u: list[LabeledPoint]
    tail_crits_u: list[LabeledPoint]
    zeros_v: list[LabeledPoint]
    inflections_u: list[float]
    phases: list[PhaseLabels]
    phase_kind: str
    truncated: bool


@dataclass(frozen=True)
class NodeCount:
    """Sign-change count plus whether it can still grow.

    The count is final exactly when the run ended in the energy trap: from
    then on the profile is confined strictly between 0 and the well zero,
    so no further sign change can occur.
    """

    count: int
    final: bool


def _refine_root(g: Callable[[float], float], lo: float, hi: float,
                 glo: float | None = None, ghi: float | None = None) -> Optional[float]:
    """Root of g in [lo, hi] by the Illinois method (Dowell and Jarratt 1971).

    ``glo`` and ``ghi`` are g(lo) and g(hi) from a caller that holds them.
    Returns None when g(lo) and g(hi) are nonzero and share a sign, so the
    bracket holds no root to refine.  Each step is the secant of the bracket
    ends, whose retained end's value is halved when the same end is kept twice
    running, and never lands nearer an end than half the tolerance, so the
    bracket closes on the root from both sides.  Once it is no wider than the
    tolerance 1e-12 * max(1, |hi|), the evaluated point with the least |g|
    is returned.
    """
    glo = g(lo) if glo is None else glo
    ghi = g(hi) if ghi is None else ghi
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo < 0.0) == (ghi < 0.0):
        return None
    tol = _RADIUS_TOL * max(1.0, abs(hi))
    best, g_best = (lo, glo) if abs(glo) <= abs(ghi) else (hi, ghi)
    kept = 0  # the end kept by the last step: -1 for lo, 1 for hi
    while hi - lo > tol:
        x = hi - ghi * (hi - lo) / (ghi - glo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        gx = g(x)
        if gx == 0.0:
            return x
        if abs(gx) < abs(g_best):
            best, g_best = x, gx
        if (gx < 0.0) == (glo < 0.0):
            lo, glo = x, gx
            if kept == 1:
                ghi *= 0.5
            kept = 1
        else:
            hi, ghi = x, gx
            if kept == -1:
                glo *= 0.5
            kept = -1
    return best


def _sign_change_roots(
    rs: list[float],
    vals: list[float],
    g: Callable[[float], float],
) -> list[float]:
    roots = []
    for i in range(len(rs) - 1):
        a, b = vals[i], vals[i + 1]
        if a == 0.0:
            continue
        if b == 0.0 or (a < 0.0) != (b < 0.0):
            roots.append(_refine_root(g, rs[i], rs[i + 1], a, b))
    return roots


def detect_events(traj: Trajectory) -> PhasePortrait:
    """Locate all events and assemble the phase structure; the phase labels
    cross the well zero ``alpha_star`` of the trajectory's field.

    Raises InterlacingViolation when zeros/criticals cannot be reconciled
    and AmbiguousEvent when two located events collapse onto each other.
    """
    fld = traj.params.field
    alpha_star = fld.alpha_star
    rs = traj.grid
    us, ups = traj.grid_values(0), traj.grid_values(1)
    upps = [_u_second(fld, r, u, up) for r, u, up in zip(rs, us, ups)]

    read = traj.value
    dupp = lambda r: _u_second(fld, r, read(0, r), read(1, r))

    zero_rs = find_zeros(traj, "u")
    crit_rs = find_zeros(traj, "up")
    zv_rs = find_zeros(traj, "v")
    infl_rs = _sign_change_roots(rs, upps, dupp)

    zeros_u = [LabeledPoint(r=r, value=read(1, r)) for r in zero_rs]
    zeros_v = [LabeledPoint(r=r, value=read(3, r)) for r in zv_rs]
    crits_all = [LabeledPoint(r=r, value=read(0, r)) for r in crit_rs]

    # Overlap guard: a zero and a critical of u cannot coincide (the profile
    # would be identically zero), nor can two events of the same kind.
    merged = sorted(zero_rs + crit_rs)
    for i in range(len(merged) - 1):
        if merged[i + 1] - merged[i] < 10.0 * _RADIUS_TOL * max(1.0, merged[i]):
            raise AmbiguousEvent(f"events at r={merged[i]!r} and r={merged[i + 1]!r} "
                                 "overlap within locator tolerance")

    # Split criticals into phase criticals (interlaced with zeros, plus the
    # one bound-like critical after the last zero whose height clears the
    # well zero) and trapped-tail criticals.
    k = len(zeros_u)
    crits_phase: list[LabeledPoint] = []
    tail_crits: list[LabeledPoint] = []
    if k == 0:
        tail_crits = crits_all
    else:
        before_first = [c for c in crits_all if c.r < zeros_u[0].r]
        if before_first:
            raise InterlacingViolation(
                f"{len(before_first)} critical point(s) before the first zero; "
                "integration tolerance too loose?"
            )
        for i in range(k - 1):
            inside = [c for c in crits_all if zeros_u[i].r < c.r < zeros_u[i + 1].r]
            if len(inside) != 1:
                raise InterlacingViolation(f"expected exactly one critical between zeros "
                                           f"{i + 1} and {i + 2}, found {len(inside)}")
            crits_phase.append(inside[0])
        after_last = [c for c in crits_all if c.r > zeros_u[-1].r]
        if after_last:
            head = after_last[0]
            if abs(head.value) > alpha_star:
                crits_phase.append(head)
                rest = after_last[1:]
            else:
                rest = after_last
            for c in rest:
                if abs(c.value) > alpha_star * (1.0 + _TANGENCY_TOL):
                    raise InterlacingViolation(f"trapped-tail critical at r={c.r} has "
                                               f"|u|={abs(c.value)} above the well zero")
            tail_crits = rest

    bound_like = len(crits_phase) == k and k > 0
    if k == 0:
        bound_like = len(crits_all) == 0

    if traj.termination.tag == ENERGY_NONPOSITIVE or tail_crits:
        phase_kind = TAIL_OSCILLATORY
    else:
        phase_kind = SEMI_TAIL

    # Phase labels.  Phase i spans (c_{i-1}, c_i) with c_0 the origin; the
    # profile is monotone between its endpoints' criticals, so each level
    # is crossed at most once per half-phase.
    def crossing(level: float, lo: float, hi: float) -> Optional[float]:
        # Grid points strictly inside (lo, hi) read u from the scan above:
        # the dense read there gives the same |u|.  Only the ends are read.
        g = lambda r: abs(read(0, r)) - level
        a, b = bisect_right(rs, lo), bisect_left(rs, hi)
        grid = [lo] + rs[a:b] + [hi]
        gv = [g(lo)] + [abs(u) - level for u in us[a:b]] + [g(hi)]
        for i in range(len(grid) - 1):
            if gv[i] == 0.0:
                return grid[i]
            if gv[i + 1] == 0.0 or (gv[i] < 0.0) != (gv[i + 1] < 0.0):
                return _refine_root(g, grid[i], grid[i + 1], gv[i], gv[i + 1])
        return None

    def labeled(r: Optional[float]) -> Optional[LabeledPoint]:
        if r is None:
            return None
        return LabeledPoint(r=r, value=read(0, r))

    phases: list[PhaseLabels] = []
    truncated = False
    for i in range(1, k + 1):
        left = crits_phase[i - 2].r if i >= 2 else traj.r_start
        z = zeros_u[i - 1]
        right = crits_phase[i - 1].r if i - 1 < len(crits_phase) else None
        uncertain: list[str] = []
        b = labeled(crossing(alpha_star, left, z.r))
        r1 = labeled(crossing(1.0, b.r if b else left, z.r))
        rbar = bbar = None
        if right is not None:
            rbar = labeled(crossing(1.0, z.r, right))
            bbar = labeled(crossing(alpha_star, rbar.r if rbar else z.r, right))
            c_height = abs(crits_phase[i - 1].value)
            for name, level in (("bbar", alpha_star), ("rbar", 1.0)):
                if abs(c_height - level) < _TANGENCY_TOL * max(1.0, level):
                    uncertain.append(name)
        else:
            truncated = True
        phases.append(
            PhaseLabels(
                index=i,
                b=b,
                r=r1,
                z=z,
                rbar=rbar,
                bbar=bbar,
                uncertain=tuple(uncertain),
            )
        )

    # Bound-like decay after the closing critical: record where |u| falls
    # back through alpha_star and 1 (the final, zero-less entry).
    if bound_like and phase_kind == SEMI_TAIL:
        left = crits_phase[-1].r if crits_phase else traj.r_start
        b = labeled(crossing(alpha_star, left, traj.r_end))
        r1 = labeled(crossing(1.0, b.r if b else left, traj.r_end))
        if b is not None or r1 is not None:
            phases.append(PhaseLabels(index=k + 1, b=b, r=r1))

    return PhasePortrait(
        zeros_u=zeros_u,
        crits_u=crits_phase,
        tail_crits_u=tail_crits,
        zeros_v=zeros_v,
        inflections_u=infl_rs,
        phases=phases,
        phase_kind=phase_kind,
        truncated=truncated,
    )


def count_nodes(traj: Trajectory) -> NodeCount:
    """Sign changes of u over the run (knots and segment midpoints); final
    only in the energy trap.

    Raises IndeterminateCount if the stepper gave up (step limit or
    underflow): such a run says nothing trustworthy about the count.
    """
    count, prev = 0, 0.0
    for val in traj.grid_values(0):
        if val != 0.0:
            if prev != 0.0 and (prev < 0.0) != (val < 0.0):
                count += 1
            prev = val
    return _node_count(traj.termination, count)


def _node_count(end: TerminationCause, count: int) -> NodeCount:
    """``count`` sign changes of a run that ended by ``end``, as ``count_nodes``
    reports them."""
    if end.tag in (STEP_LIMIT, STEP_UNDERFLOW):
        raise IndeterminateCount(f"run ended with {end.tag}: {end.detail}")
    return NodeCount(count=count, final=(end.tag == ENERGY_NONPOSITIVE))


_COMPONENTS = ("u", "up", "v", "vp")


def find_zeros(traj: Trajectory, component: str = "u") -> list[float]:
    """Zero radii of one state component (cheap path: no phase structure).

    The scan reads ``Trajectory.grid_values`` and refines each sign change
    through ``Trajectory.value``.  Each component of a trajectory is scanned
    once: its roots are kept in ``Trajectory.roots``, which ``detect_events``
    reads through here too, and every call returns a fresh list.
    """
    if component not in _COMPONENTS:
        raise ValueError(f"unknown component {component!r}")
    c = _COMPONENTS.index(component)
    roots = traj.roots.get(c)
    if roots is None:
        roots = traj.roots[c] = _sign_change_roots(traj.grid, traj.grid_values(c),
                                                   lambda r: traj.value(c, r))
    return list(roots)
