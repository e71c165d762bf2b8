"""Adaptive integration of the radial profile/variation system.

The state is ``(u, u', v, v')`` where ``u`` solves the radial equation

    u'' + (n-1)/r * u' + f(u) = 0,   u(0) = alpha, u'(0) = 0,

and ``v`` solves the equation of variations along it

    v'' + (n-1)/r * v' + f'(u) v = 0,   v(0) = 1, v'(0) = 0.

The origin is a regular singular point, so integration starts at a small
``r0 > 0`` from the even Taylor expansion (``series_start``) and marches
outward only.  The stepper is a Dormand-Prince 5(4) embedded pair with the
standard quartic dense-output interpolant (Hairer, Norsett and Wanner,
*Solving ODEs I*, II.6).  A trajectory holds each component's quartic
coefficients and its value at each segment midpoint as flat columns, built
with the march, for event location and probing without re-integrating.

Only this module stores and evaluates segments.  Every zero, node count and
level crossing downstream is read off ``Trajectory.grid``, the knots plus
each segment's midpoint: ``_MAX_STEP`` keeps segments finer than any
oscillation of the profile, so that grid isolates every event.  Every shot
marches in the compiled kernel of ``_dopri.c`` when that loads: the step of
``_march``, its dense coefficients and its midpoints in C, bit for bit.
``_march``, the Python step, is its fallback and its reference; it reads the
tableau below by index, where the kernel writes each sum out term by term.

Termination is explicit and tagged: the run ends at ``r_max``, or earlier
when the profile energy drops to zero or below (the oscillation trap: from
there on the profile is confined below the well zero and its node count is
final), when the variation passes the guard magnitude, or when the stepper
gives up (step budget / underflow).  Callers choose via ``StopPolicy``
whether the energy trap should stop the run; the guards are always active.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from typing import Iterator, Sequence

from .field import FieldParams, ParameterError, abs_pow, f, f_prime

# --- Dormand-Prince 5(4) tableau (standard coefficients) ------------------

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),  # 5th-order weights (FSAL)
)

# Difference between the 5th- and embedded 4th-order weights.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

# Quartic dense-output coefficients: column j weights the power theta**(j+1).
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

_MAX_STEP = 0.25  # keeps dense segments finer than any oscillation of the profile
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_SAFETY = 0.9
_V_GUARD = 1e12  # |v| or |v'| past this ends the run as VariationDiverged
_MAX_STEPS = 500_000  # accepted steps before the run ends as StepLimit

REACHED_RMAX = "ReachedRMax"
ENERGY_NONPOSITIVE = "EnergyNonpositive"
VARIATION_DIVERGED = "VariationDiverged"
STEP_LIMIT = "StepLimit"
STEP_UNDERFLOW = "StepUnderflow"

# Why a run ended: its tag and detail, by the index that ``integrate`` and the
# compiled kernel of ``_dopri.c`` both report.  The detail formats the last
# knot r, the step size h, ``_V_GUARD`` and ``_MAX_STEPS``.
(_RMAX, _TRAPPED_AT_START, _DIVERGED_AT_START, _BUDGET, _UNDERFLOW, _NONFINITE,
 _TRAPPED, _DIVERGED) = range(8)
_ENDS = (
    (REACHED_RMAX, ""),
    (ENERGY_NONPOSITIVE, "energy nonpositive at series start"),
    (VARIATION_DIVERGED, "variation guard tripped at series start"),
    (STEP_LIMIT, "step budget {max_steps} exhausted"),
    (STEP_UNDERFLOW, "step size {h:.3e} underflowed at r={r:.6e}"),
    (STEP_UNDERFLOW, "non-finite state after step at r={r:.6e}"),
    (ENERGY_NONPOSITIVE, "profile energy reached zero"),
    (VARIATION_DIVERGED, "variation guard {v_guard:.1e} tripped"),
)


class IntegrationError(RuntimeError):
    """Stepper invariant broken (non-finite state, bad controls)."""


class DenseRangeError(ValueError):
    """Dense evaluation requested outside the integrated range."""


@dataclass(frozen=True)
class IntegratorControls:
    """Stepper knobs.

    r0 is the series-start radius; ``None`` resolves to 1e-6 * max(1, alpha),
    shrunk at large heights so the truncated series stays within abs_tol
    (see ``series_start``).
    Per-step local error is kept under abs_tol + rel_tol * |component|.
    """

    r0: float | None = None
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    r_max: float = 100.0

    def tightened(self, factor: float) -> "IntegratorControls":
        """Same controls with both tolerances divided by ``factor``."""
        return replace(self, abs_tol=self.abs_tol / factor, rel_tol=self.rel_tol / factor)

    def with_rmax(self, r_max: float) -> "IntegratorControls":
        return replace(self, r_max=r_max)


@dataclass(frozen=True)
class ProblemParams:
    """A single shooting problem: field parameters plus the height alpha."""

    field: FieldParams
    alpha: float
    controls: IntegratorControls = dc_field(default_factory=IntegratorControls)

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ParameterError(f"shooting height alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class StopPolicy:
    """Which optional termination causes are armed.

    Classification runs keep the energy trap on (node counts become final
    the moment the energy is nonpositive).  Verification runs that need the
    whole radial range turn it off and run to r_max; the variation guard
    and the step budget stay armed either way.
    """

    stop_on_energy: bool = True


CLASSIFY_POLICY = StopPolicy(stop_on_energy=True)
FULL_RANGE_POLICY = StopPolicy(stop_on_energy=False)


@dataclass(frozen=True)
class State:
    """Profile/variation state at one radius."""

    r: float
    u: float
    up: float
    v: float
    vp: float


@dataclass(frozen=True)
class TerminationCause:
    tag: str
    r_stop: float
    detail: str = ""


def _termination(end: int, r: float, h: float) -> TerminationCause:
    """The cause ``_ENDS[end]`` of a run whose last knot is r and last step h."""
    tag, detail = _ENDS[end]
    return TerminationCause(
        tag, r, detail.format(r=r, h=h, v_guard=_V_GUARD, max_steps=_MAX_STEPS))


def series_start(params: ProblemParams) -> State:
    """Second-order Taylor state at r0 with O(r0**4) truncation error.

    Both u and v are even in r at the origin; their curvatures there are
    -f(alpha)/n and -f'(alpha)/n.  The dropped r0**4 terms are
    f f' r0**4 / (8n(n+2)) in u and (f'**2 + f'' f) r0**4 / (8n(n+2)) in v,
    all at alpha.  The default r0 is 1e-6 * max(1, alpha) wherever both stay
    within abs_tol; at larger heights, where the core narrows like
    alpha**(-(p-1)/2), it shrinks to the radius where the larger of them
    equals abs_tol.  Nonpositive tolerances raise IntegrationError.
    """
    if params.controls.abs_tol <= 0.0 or params.controls.rel_tol <= 0.0:
        raise IntegrationError("tolerances must be positive")
    alpha = params.alpha
    fld = params.field
    f_alpha = f(alpha, fld)
    fp_alpha = f_prime(alpha, fld)
    n = float(fld.n)
    r0 = params.controls.r0
    if r0 is None:
        r0 = 1e-6 * max(1.0, alpha)
        fpp_alpha = fld.p * (fld.p - 1.0) * abs_pow(alpha, fld.p - 1.0) / alpha
        c4 = max(abs(f_alpha * fp_alpha), abs(fp_alpha * fp_alpha + fpp_alpha * f_alpha))
        c4 /= 8.0 * n * (n + 2.0)
        abs_tol = params.controls.abs_tol
        if c4 * r0**4 > abs_tol:
            r0 = (abs_tol / c4) ** 0.25
    if not (0.0 < r0 < params.controls.r_max):
        raise ParameterError(f"series start r0={r0} must lie in (0, r_max)")
    return State(
        r=r0,
        u=alpha - f_alpha * r0 * r0 / (2.0 * n),
        up=-f_alpha * r0 / n,
        v=1.0 - fp_alpha * r0 * r0 / (2.0 * n),
        vp=-fp_alpha * r0 / n,
    )


@dataclass
class Trajectory:
    """Dense solution of one shooting run.

    ``knots`` are the accepted step endpoints (strictly increasing, first
    one is the series start).  ``states`` are the states at the knots.
    Segment ``i`` covers [knots[i], knots[i+1]].  Both columns below are
    flat and filled when the trajectory is built: ``coeffs[c]`` holds
    component c's quartic interpolant coefficients, q0..q3 of segment i at
    4*i..4*i+3, and ``midpoints[c]`` component c at each segment midpoint, bit
    for bit as ``value`` reads it there.  The stepper's minimum step keeps
    each midpoint strictly inside its segment; only a final step clipped to
    r_max can be shorter, and ``value`` reads it too.
    """

    params: ProblemParams
    knots: list[float]
    states: list[tuple[float, float, float, float]]
    coeffs: list[Sequence[float]]
    midpoints: list[Sequence[float]]
    termination: TerminationCause

    @property
    def r_start(self) -> float:
        return self.knots[0]

    @property
    def r_end(self) -> float:
        return self.knots[-1]

    def state_at_knot(self, i: int) -> State:
        u, up, v, vp = self.states[i]
        return State(r=self.knots[i], u=u, up=up, v=v, vp=vp)

    def samples(self) -> Iterator[State]:
        for i in range(len(self.knots)):
            yield self.state_at_knot(i)

    @cached_property
    def grid(self) -> list[float]:
        """Knots plus segment midpoints, built once; fine enough to isolate every event."""
        knots = self.knots
        rs: list[float] = []
        for r_lo, r_hi in zip(knots, knots[1:]):
            rs.append(r_lo)
            rs.append(0.5 * (r_lo + r_hi))
        rs.append(knots[-1])
        return rs

    def grid_values(self, c: int) -> list[float]:
        """State component c on the ``grid`` radii: the stored state at each
        knot and the dense value at each segment midpoint."""
        states = self.states
        vals: list[float] = []
        for state, mid in zip(states, self.midpoints[c]):
            vals.append(state[c])
            vals.append(mid)
        vals.append(states[-1][c])
        return vals

    def segment_index(self, r: float) -> int:
        """Index of the dense segment containing r (knots are its ends)."""
        if not (self.knots[0] <= r <= self.knots[-1]):
            raise DenseRangeError(
                f"r={r} outside integrated range [{self.knots[0]}, {self.knots[-1]}]"
            )
        i = bisect_right(self.knots, r) - 1
        return min(i, len(self.knots) - 2)

    def eval_dense(self, r: float) -> State:
        """Interpolated state at any radius in [r_start, r_end]."""
        i = self.segment_index(r)
        r_lo = self.knots[i]
        h = self.knots[i + 1] - r_lo
        theta = (r - r_lo) / h
        y_lo = self.states[i]
        j = 4 * i
        out = []
        for c, q in enumerate(self.coeffs):
            w = theta * (q[j] + theta * (q[j + 1] + theta * (q[j + 2] + theta * q[j + 3])))
            out.append(y_lo[c] + h * w)
        return State(r=r, u=out[0], up=out[1], v=out[2], vp=out[3])

    def value(self, c: int, r: float) -> float:
        """Component c of ``eval_dense(r)``, bit for bit, without a State."""
        i = self.segment_index(r)
        r_lo = self.knots[i]
        h = self.knots[i + 1] - r_lo
        theta = (r - r_lo) / h
        q, j = self.coeffs[c], 4 * i
        return self.states[i][c] + h * (
            theta * (q[j] + theta * (q[j + 1] + theta * (q[j + 2] + theta * q[j + 3]))))

    def truncated_at(self, r_cut: float) -> "Trajectory":
        """Copy keeping only whole dense segments ending at or before r_cut.

        Used by structural checks that must ignore the stretch where a
        near-bound-state shot departs from the profile it shadows.  The
        copy ends at a knot, so no partial segment is ever exposed.
        """
        if r_cut <= self.knots[0]:
            raise DenseRangeError(f"truncation radius {r_cut} at or before the start")
        n_keep = bisect_right(self.knots, r_cut) - 1
        n_keep = max(1, min(n_keep, len(self.knots) - 1))
        return Trajectory(
            params=self.params,
            knots=self.knots[: n_keep + 1],
            states=self.states[: n_keep + 1],
            coeffs=[q[: 4 * n_keep] for q in self.coeffs],
            midpoints=[mids[:n_keep] for mids in self.midpoints],
            termination=TerminationCause(
                tag=REACHED_RMAX,
                r_stop=self.knots[n_keep],
                detail="truncated for structural checks",
            ),
        )


def _u_second(fld: FieldParams, r: float, u: float, up: float) -> float:
    """u'' from the radial equation; ``_march`` writes it out in its ``rhs``."""
    return -(fld.n - 1.0) / r * up - f(u, fld)


def integrate(params: ProblemParams, policy: StopPolicy = CLASSIFY_POLICY) -> Trajectory:
    """March the system outward from the series start until a stop fires.

    Every accepted step keeps its local error below abs_tol + rel_tol*|y|
    componentwise (RMS-normalized).  The returned trajectory always carries
    at least one dense segment unless the very first state already trips a
    stop, and its termination tag says exactly why the march ended.  The
    march runs in the compiled kernel of ``_dopri`` when that loads, and
    otherwise in ``_march``, bit for bit alike.
    """
    from ._dopri import kept_run  # imported here: _dopri imports this module

    traj = kept_run(params, policy)
    return traj if traj is not None else _march(params, policy)


def _weigh(weights: Sequence[float], slopes: list, acc: tuple = (-0.0,) * 4) -> tuple:
    """acc + sum of w * k over the stage slopes k and their weights w, in each
    of the four components (u, u', v, v').

    The terms are added left to right in tableau order, as ``_dopri.c`` writes
    them out, skipping zero weights.  From the default -0.0 the sum is the C
    sum from its first term (-0.0 + x is x for every x, signed zeros included);
    the dense sums start from +0.0, as the C ones do, so an all-zero one stays
    +0.0.  Not ``sum()``, which compensates float sums from Python 3.12 on.
    """
    for w, (k0, k1, k2, k3) in zip(weights, slopes):
        if w != 0.0:
            a0, a1, a2, a3 = acc
            acc = (a0 + w * k0, a1 + w * k1, a2 + w * k2, a3 + w * k3)
    return acc


def _march(params: ProblemParams, policy: StopPolicy) -> Trajectory:
    """``integrate``'s march in Python: the kernel's fallback and its bit reference.

    The step reads the tableau by index: stage s = 1..5 at r + _C[s] h from the
    slopes weighed by _A[s], the solution by _A[6], the error estimate by _E,
    and each segment's quartic by the columns of _P.  The last stage's slope,
    at the new knot, is the next step's first.
    """
    fld = params.field
    ctl = params.controls
    start = series_start(params)
    n_minus_1 = fld.n - 1.0
    p = fld.p
    p_m1 = p - 1.0
    inv_p_p1 = 1.0 / (p + 1.0)
    atol, rtol, r_max = ctl.abs_tol, ctl.rel_tol, ctl.r_max
    exp, log = math.exp, math.log

    def rhs(r: float, y: Sequence[float]) -> tuple[float, float, float, float]:
        # (u', -(n-1)/r u' - f(u), v', -(n-1)/r v' - f'(u) v), f(u) = (|u|^(p-1) - 1) u
        u, up, v, vp = y
        apw = 0.0 if u == 0.0 else exp(p_m1 * log(abs(u)))
        drag = n_minus_1 / r
        return up, -drag * up - (apw - 1.0) * u, vp, -drag * vp - (p * apw - 1.0) * v

    def energy(y: tuple[float, float, float, float]) -> float:
        # E = u'^2/2 - u^2/2 + |u|^(p+1)/(p+1); the shot is trapped once E <= 0
        u, up = y[0], y[1]
        well = -0.5 * u * u
        if u != 0.0:
            well += exp((p + 1.0) * log(abs(u))) * inv_p_p1
        return 0.5 * up * up + well

    r = start.r
    y = (start.u, start.up, start.v, start.vp)
    knots, states, slopes = [r], [y], []  # slopes: k1..k7 of each accepted step

    def finish(end: int, h: float = 0.0) -> Trajectory:
        # Each component's quartic Q = K^T P and its value at each segment
        # midpoint, in the arithmetic of dense() in _dopri.c.
        columns = tuple(zip(*_P))
        coeffs, mids = [[], [], [], []], [[], [], [], []]
        for a, b, state, k in zip(knots, knots[1:], states, slopes):
            seg = b - a
            theta = (0.5 * (a + b) - a) / seg
            for c, q in enumerate(zip(*(_weigh(col, k, (0.0,) * 4) for col in columns))):
                coeffs[c] += q
                w = theta * (q[0] + theta * (q[1] + theta * (q[2] + theta * q[3])))
                mids[c].append(state[c] + seg * w)
        return Trajectory(params, knots, states, coeffs, mids,
                          _termination(end, knots[-1], h))

    # The start state can already sit in the trap (e.g. alpha below the well
    # zero); report it without taking a step.
    if policy.stop_on_energy and energy(y) <= 0.0:
        return finish(_TRAPPED_AT_START)
    if abs(y[2]) > _V_GUARD:
        return finish(_DIVERGED_AT_START)

    k1 = rhs(r, y)
    h = min(10.0 * r, _MAX_STEP, r_max - r)

    while True:
        if len(slopes) >= _MAX_STEPS:
            return finish(_BUDGET)
        if h < 1e-14 * max(1.0, r):
            return finish(_UNDERFLOW, h)

        clipped = r + h >= r_max
        if clipped:
            h = r_max - r

        k = [k1]
        for s in range(1, 6):
            k.append(rhs(r + _C[s] * h, [yc + h * a for yc, a in zip(y, _weigh(_A[s], k))]))
        y_new = tuple(yc + h * a for yc, a in zip(y, _weigh(_A[6], k)))
        r_new = r_max if clipped else r + h
        k.append(rhs(r_new, y_new))

        if not all(map(math.isfinite, y_new)):
            return finish(_NONFINITE)

        # RMS of the embedded error estimate, each component over its scale.
        q_u, q_up, q_v, q_vp = (e * h / (atol + rtol * (b if b > a else a))
                                for e, a, b in zip(_weigh(_E, k), map(abs, y), map(abs, y_new)))
        norm = math.sqrt(0.25 * (q_u * q_u + q_up * q_up + q_v * q_v + q_vp * q_vp))
        if norm > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
            continue

        # Accepted: keep the slopes; finish builds the dense output from them.
        slopes.append(k)
        knots.append(r_new)
        states.append(y_new)
        r, y, k1 = r_new, y_new, k[6]

        if policy.stop_on_energy and energy(y) <= 0.0:
            return finish(_TRAPPED)
        if abs(y[2]) > _V_GUARD or abs(y[3]) > _V_GUARD:
            return finish(_DIVERGED)
        if clipped or r >= r_max:
            return finish(_RMAX)

        if norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * norm ** -0.2))
        h = min(h * factor, _MAX_STEP)
