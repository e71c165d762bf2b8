"""Adaptive integration of the radial profile/variation system.

The state is ``(u, u', v, v')`` where ``u`` solves the radial equation

    u'' + (n-1)/r * u' + f(u) = 0,   u(0) = alpha, u'(0) = 0,

and ``v`` solves the equation of variations along it

    v'' + (n-1)/r * v' + f'(u) v = 0,   v(0) = 1, v'(0) = 0.

The origin is a regular singular point, so integration starts at a small
``r0 > 0`` from the even Taylor expansion (``series_start``) and marches
outward only.  The stepper is a Dormand-Prince 5(4) embedded pair with the
standard quartic dense-output interpolant.  Each accepted step keeps its stage
slopes, and a trajectory builds a component's polynomial segments from them on
the first read of that component, for event location and probing without
re-integrating; a shot that is only counted builds u's segments alone.

Only this module stores and evaluates segments.  Every zero, node count and
level crossing downstream is read off ``Trajectory.grid``, the knots plus
each segment's midpoint: ``_MAX_STEP`` keeps segments finer than any
oscillation of the profile, so that grid isolates every event.  Every shot
marches in the compiled kernel of ``_dopri.c`` when that loads: the step of
``_march`` and its midpoint arithmetic in C, bit for bit.  ``_march``, the
Python step, is its fallback and its reference.

Termination is explicit and tagged: the run ends at ``r_max``, or earlier
when the profile energy drops to zero or below (the oscillation trap: from
there on the profile is confined below the well zero and its node count is
final), when the variation passes the guard magnitude, or when the stepper
gives up (step budget / underflow).  Callers choose via ``StopPolicy``
whether the energy trap should stop the run; the guards are always active.

The step is written out as straight-line scalar code, with every sum taken
in the tableau's accumulation order (stage by stage, left to right), so
that trajectories and every artifact built from them stay byte-identical
to the generic per-stage loop it replaces.  The right-hand side, the
energy-trap test and the error norm's max(|y|, |y_new|) are inlined into
the step as well; each keeps the arithmetic order of the closure or call
it replaced, so the bits stay the same.
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

# The step in ``integrate`` and ``Trajectory.coeffs`` write every sum out term
# by term, in tableau order.  Terms with a zero weight are left out, as the
# generic loop skipped them.  Each dense-coefficient sum starts from ``0.0 +``
# like the loop's accumulator did: an all-zero sum then stays +0.0 (the
# constant shot alpha = 1 would otherwise store -0.0), and a zero term added
# to it cannot change it.
assert _A[6][1] == _E[1] == 0.0 and not any(_P[1]) and not any(row[0] for row in _P[1:])
_C2, _C3, _C4, _C5, _C6 = _C[1:6]
(_A21,) = _A[1]
_A31, _A32 = _A[2]
_A41, _A42, _A43 = _A[3]
_A51, _A52, _A53, _A54 = _A[4]
_A61, _A62, _A63, _A64, _A65 = _A[5]
_B1, _B3, _B4, _B5, _B6 = (_A[6][j] for j in (0, 2, 3, 4, 5))
_E1, _E3, _E4, _E5, _E6, _E7 = (_E[j] for j in (0, 2, 3, 4, 5, 6))
_P11, _P12, _P13, _P14 = _P[0]
_P32, _P33, _P34 = _P[2][1:]
_P42, _P43, _P44 = _P[3][1:]
_P52, _P53, _P54 = _P[4][1:]
_P62, _P63, _P64 = _P[5][1:]
_P72, _P73, _P74 = _P[6][1:]

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
    Segment ``i`` covers [knots[i], knots[i+1]].  ``slopes[c]`` is flat:
    its six values from 6*i hold component c's stage slopes (k1, k3, ..., k7)
    of the step that made segment i.  The first read of component c builds its
    quartic interpolant coefficients from them (``coeffs``) and drops them.
    """

    params: ProblemParams
    knots: list[float]
    states: list[tuple[float, float, float, float]]
    slopes: list[Sequence[float] | None]
    termination: TerminationCause
    _coeffs: list[list | None] = dc_field(default_factory=lambda: [None] * 4, repr=False)
    _midpoints: list[list | None] = dc_field(default_factory=lambda: [None] * 4, repr=False)

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

    def coeffs(self, c: int) -> list[tuple[float, float, float, float]]:
        """Component c's quartic coefficients, one (q0, q1, q2, q3) per segment."""
        built = self._coeffs[c]
        if built is None:
            k = iter(self.slopes[c])
            built = self._coeffs[c] = [
                (0.0 + k1 * _P11,
                 0.0 + k1 * _P12 + k3 * _P32 + k4 * _P42 + k5 * _P52 + k6 * _P62 + k7 * _P72,
                 0.0 + k1 * _P13 + k3 * _P33 + k4 * _P43 + k5 * _P53 + k6 * _P63 + k7 * _P73,
                 0.0 + k1 * _P14 + k3 * _P34 + k4 * _P44 + k5 * _P54 + k6 * _P64 + k7 * _P74)
                for k1, k3, k4, k5, k6, k7 in zip(k, k, k, k, k, k)]
            self.slopes[c] = None
        return built

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
        for state, mid in zip(states, self.midpoints(c)):
            vals.append(state[c])
            vals.append(mid)
        vals.append(states[-1][c])
        return vals

    def midpoints(self, c: int) -> list[float]:
        """Component c at every segment midpoint, bit for bit as ``value``,
        with its arithmetic but without its search; built once.  The stepper's
        minimum step keeps each midpoint strictly inside its segment; only a
        final step clipped to r_max can be shorter, and ``value`` reads it too."""
        if self._midpoints[c] is not None:
            return self._midpoints[c]
        knots, states = self.knots, self.states
        mids = self._midpoints[c] = []
        for i, (q0, q1, q2, q3) in enumerate(self.coeffs(c)):
            r_lo = knots[i]
            r_hi = knots[i + 1]
            h = r_hi - r_lo
            theta = (0.5 * (r_lo + r_hi) - r_lo) / h
            w = theta * (q0 + theta * (q1 + theta * (q2 + theta * q3)))
            mids.append(states[i][c] + h * w)
        return mids

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
        out = []
        for c in range(4):
            q0, q1, q2, q3 = self.coeffs(c)[i]
            w = theta * (q0 + theta * (q1 + theta * (q2 + theta * q3)))
            out.append(y_lo[c] + h * w)
        return State(r=r, u=out[0], up=out[1], v=out[2], vp=out[3])

    def value(self, c: int, r: float) -> float:
        """Component c of ``eval_dense(r)``, bit for bit, without a State."""
        i = self.segment_index(r)
        r_lo = self.knots[i]
        h = self.knots[i + 1] - r_lo
        theta = (r - r_lo) / h
        q0, q1, q2, q3 = self.coeffs(c)[i]
        return self.states[i][c] + h * (theta * (q0 + theta * (q1 + theta * (q2 + theta * q3))))

    def truncated_at(self, r_cut: float) -> "Trajectory":
        """Copy keeping only whole dense segments ending at or before r_cut.

        Used by structural checks that must ignore the stretch where a
        near-bound-state shot departs from the profile it shadows.  The
        copy ends at a knot, so no partial segment is ever exposed.  It
        slices the coefficients already built and the slopes not yet read.
        """
        if r_cut <= self.knots[0]:
            raise DenseRangeError(f"truncation radius {r_cut} at or before the start")
        n_keep = bisect_right(self.knots, r_cut) - 1
        n_keep = max(1, min(n_keep, len(self.knots) - 1))
        return Trajectory(
            params=self.params,
            knots=self.knots[: n_keep + 1],
            states=self.states[: n_keep + 1],
            slopes=[None if k is None else k[:6 * n_keep] for k in self.slopes],
            termination=TerminationCause(
                tag=REACHED_RMAX,
                r_stop=self.knots[n_keep],
                detail="truncated for structural checks",
            ),
            _coeffs=[None if q is None else q[:n_keep] for q in self._coeffs],
        )


def _u_second(fld: FieldParams, r: float, u: float, up: float) -> float:
    """u'' from the radial equation; the step below writes it out inline."""
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


def _march(params: ProblemParams, policy: StopPolicy) -> Trajectory:
    """``integrate``'s march in Python: the kernel's fallback and its bit reference."""
    fld = params.field
    ctl = params.controls
    start = series_start(params)
    n_minus_1 = fld.n - 1.0
    p = fld.p
    p_m1 = p - 1.0
    inv_p_p1 = 1.0 / (p + 1.0)
    atol, rtol, r_max = ctl.abs_tol, ctl.rel_tol, ctl.r_max
    v_guard, max_steps = _V_GUARD, _MAX_STEPS
    stop_on_energy = policy.stop_on_energy
    exp, log = math.exp, math.log

    r = start.r
    u, up, v, vp = start.u, start.up, start.v, start.vp

    knots = [r]
    states = [(u, up, v, vp)]
    slopes_u, slopes_up, slopes_v, slopes_vp = slopes = [[], [], [], []]

    def finish(end: int, h: float = 0.0) -> Trajectory:
        return Trajectory(params=params, knots=knots, states=states, slopes=slopes,
                          termination=_termination(end, knots[-1], h))

    # The start state can already sit in the trap (e.g. alpha below the well
    # zero); report it without taking a step.  The energy is
    # E = u'^2/2 - u^2/2 + |u|^(p+1)/(p+1).
    if stop_on_energy:
        well = -0.5 * u * u
        if u != 0.0:
            well += exp((p + 1.0) * log(abs(u))) * inv_p_p1
        if 0.5 * up * up + well <= 0.0:
            return finish(_TRAPPED_AT_START)
    if abs(v) > v_guard:
        return finish(_DIVERGED_AT_START)

    # The right-hand side (u', -(n-1)/r u' - f(u), v', -(n-1)/r v' - f'(u) v)
    # with f(u) = (|u|^(p-1) - 1) u, written out here and at every stage.
    apw = 0.0 if u == 0.0 else exp(p_m1 * log(abs(u)))
    drag = n_minus_1 / r
    k1u, k1up = up, -drag * up - (apw - 1.0) * u
    k1v, k1vp = vp, -drag * vp - (p * apw - 1.0) * v
    h = min(10.0 * r, _MAX_STEP, r_max - r)
    steps = 0

    while True:
        if steps >= max_steps:
            return finish(_BUDGET)
        if h < 1e-14 * max(1.0, r):
            return finish(_UNDERFLOW, h)

        clipped = False
        if r + h >= r_max:
            h = r_max - r
            clipped = True

        # Stages 2-6.  A stage's slopes k.u and k.v are its own u' and v', so
        # only its u and v need locals (su, sv).
        su = u + h * (_A21 * k1u)
        k2u = up + h * (_A21 * k1up)
        sv = v + h * (_A21 * k1v)
        k2v = vp + h * (_A21 * k1vp)
        apw = 0.0 if su == 0.0 else exp(p_m1 * log(abs(su)))
        drag = n_minus_1 / (r + _C2 * h)
        k2up = -drag * k2u - (apw - 1.0) * su
        k2vp = -drag * k2v - (p * apw - 1.0) * sv
        su = u + h * (_A31 * k1u + _A32 * k2u)
        k3u = up + h * (_A31 * k1up + _A32 * k2up)
        sv = v + h * (_A31 * k1v + _A32 * k2v)
        k3v = vp + h * (_A31 * k1vp + _A32 * k2vp)
        apw = 0.0 if su == 0.0 else exp(p_m1 * log(abs(su)))
        drag = n_minus_1 / (r + _C3 * h)
        k3up = -drag * k3u - (apw - 1.0) * su
        k3vp = -drag * k3v - (p * apw - 1.0) * sv
        su = u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
        k4u = up + h * (_A41 * k1up + _A42 * k2up + _A43 * k3up)
        sv = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
        k4v = vp + h * (_A41 * k1vp + _A42 * k2vp + _A43 * k3vp)
        apw = 0.0 if su == 0.0 else exp(p_m1 * log(abs(su)))
        drag = n_minus_1 / (r + _C4 * h)
        k4up = -drag * k4u - (apw - 1.0) * su
        k4vp = -drag * k4v - (p * apw - 1.0) * sv
        su = u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
        k5u = up + h * (_A51 * k1up + _A52 * k2up + _A53 * k3up + _A54 * k4up)
        sv = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
        k5v = vp + h * (_A51 * k1vp + _A52 * k2vp + _A53 * k3vp + _A54 * k4vp)
        apw = 0.0 if su == 0.0 else exp(p_m1 * log(abs(su)))
        drag = n_minus_1 / (r + _C5 * h)
        k5up = -drag * k5u - (apw - 1.0) * su
        k5vp = -drag * k5v - (p * apw - 1.0) * sv
        su = u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
        k6u = up + h * (_A61 * k1up + _A62 * k2up + _A63 * k3up + _A64 * k4up + _A65 * k5up)
        sv = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
        k6v = vp + h * (_A61 * k1vp + _A62 * k2vp + _A63 * k3vp + _A64 * k4vp + _A65 * k5vp)
        apw = 0.0 if su == 0.0 else exp(p_m1 * log(abs(su)))
        drag = n_minus_1 / (r + _C6 * h)
        k6up = -drag * k6u - (apw - 1.0) * su
        k6vp = -drag * k6v - (p * apw - 1.0) * sv
        u_new = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
        up_new = up + h * (_B1 * k1up + _B3 * k3up + _B4 * k4up + _B5 * k5up + _B6 * k6up)
        v_new = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
        vp_new = vp + h * (_B1 * k1vp + _B3 * k3vp + _B4 * k4vp + _B5 * k5vp + _B6 * k6vp)
        r_new = r_max if clipped else r + h
        apw = 0.0 if u_new == 0.0 else exp(p_m1 * log(abs(u_new)))
        drag = n_minus_1 / r_new
        k7u, k7up = up_new, -drag * up_new - (apw - 1.0) * u_new
        k7v, k7vp = vp_new, -drag * vp_new - (p * apw - 1.0) * v_new

        if not (math.isfinite(u_new) and math.isfinite(up_new)
                and math.isfinite(v_new) and math.isfinite(vp_new)):
            return finish(_NONFINITE)

        # RMS of the embedded error estimate, each component over its scale.
        err_u = (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u) * h
        err_up = (_E1 * k1up + _E3 * k3up + _E4 * k4up + _E5 * k5up + _E6 * k6up + _E7 * k7up) * h
        err_v = (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v) * h
        err_vp = (_E1 * k1vp + _E3 * k3vp + _E4 * k4vp + _E5 * k5vp + _E6 * k6vp + _E7 * k7vp) * h
        a, b = abs(u), abs(u_new)
        q_u = err_u / (atol + rtol * (b if b > a else a))
        a, b = abs(up), abs(up_new)
        q_up = err_up / (atol + rtol * (b if b > a else a))
        a, b = abs(v), abs(v_new)
        q_v = err_v / (atol + rtol * (b if b > a else a))
        a, b = abs(vp), abs(vp_new)
        q_vp = err_vp / (atol + rtol * (b if b > a else a))
        norm = math.sqrt(0.25 * (q_u * q_u + q_up * q_up + q_v * q_v + q_vp * q_vp))
        if norm > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
            continue

        # Accepted: keep the slopes; Trajectory.coeffs builds Q = K^T P from them.
        slopes_u += k1u, k3u, k4u, k5u, k6u, k7u
        slopes_up += k1up, k3up, k4up, k5up, k6up, k7up
        slopes_v += k1v, k3v, k4v, k5v, k6v, k7v
        slopes_vp += k1vp, k3vp, k4vp, k5vp, k6vp, k7vp
        knots.append(r_new)
        states.append((u_new, up_new, v_new, vp_new))
        steps += 1

        r, u, up, v, vp = r_new, u_new, up_new, v_new, vp_new
        k1u, k1up, k1v, k1vp = k7u, k7up, k7v, k7vp

        if stop_on_energy:
            well = -0.5 * u * u
            if u != 0.0:
                well += exp((p + 1.0) * log(abs(u))) * inv_p_p1
            if 0.5 * up * up + well <= 0.0:
                return finish(_TRAPPED)
        if abs(v) > v_guard or abs(vp) > v_guard:
            return finish(_DIVERGED)
        if clipped or r >= r_max:
            return finish(_RMAX)

        if norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * norm ** -0.2))
        h = min(h * factor, _MAX_STEP)
