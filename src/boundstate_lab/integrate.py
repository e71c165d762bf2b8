"""Adaptive integration of the radial profile/variation system.

The state is ``(u, u', v, v')`` where ``u`` solves the radial equation

    u'' + (n-1)/r * u' + f(u) = 0,   u(0) = alpha, u'(0) = 0,

and ``v`` solves the equation of variations along it

    v'' + (n-1)/r * v' + f'(u) v = 0,   v(0) = 1, v'(0) = 0.

The origin is a regular singular point, so integration starts at a small
``r0 > 0`` from the even Taylor expansion (``series_start``) and marches
outward only.  The stepper is DOP853, the 8th-order Dormand-Prince pair with
5th- and 3rd-order error estimators, its step-size control and its 7th-order
dense output (Hairer, Norsett and Wanner, *Solving ODEs I*, II.5, II.6 and
II.10).  A trajectory holds each component's value at each knot, its seven
dense-output coefficients per segment and its value at each segment midpoint
as flat columns, built with the march, for event location and probing.

Only this module stores and evaluates segments.  Every zero, node count and
level crossing downstream is read off ``Trajectory.grid``, the knots plus
each segment's midpoint: ``_MAX_STEP`` keeps segments finer than any
oscillation of the profile, so that grid isolates every event.  Every shot
marches in the compiled kernel of ``_dopri.c`` when that loads: the step of
``_march``, its dense coefficients and its midpoints in C, bit for bit.
``_march``, the Python step, is its fallback and its reference; both read
the tableau below by index, the kernel from the C that ``_dopri`` writes of it,
and ``_march`` steps the radial system ``_rhs``, which reads f and f' from
``field`` and u'' from ``_u_second``, and reads the energy from ``field``.

Termination is explicit and tagged: the run ends at ``r_max``, or earlier
when the profile energy drops to zero or below (the oscillation trap: from
there on the profile is confined below the well zero and its node count is
final), when the variation passes the guard magnitude, or when the stepper
gives up (step budget / underflow).  Callers choose by ``stop_on_energy``
whether the energy trap should stop the run: ``CLASSIFY_POLICY`` (True) or
``FULL_RANGE_POLICY`` (False); the guards are always active.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field as dc_field, replace
from typing import Iterator, Sequence

from .field import FieldParams, ParameterError, _energy, abs_pow, big_F, f, f_prime

# --- DOP853 tableau (Hairer, Norsett and Wanner; scipy's dop853_coefficients) -

# Stage s = 1..11 sits at r + _C[s] h and weighs the slopes before it by
# _A[s]; _A[12] weighs them into the solution, whose slope is stage 12 (the
# next step's first); stages 13..15 feed the dense output only.
_C = (
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    1.0, 0.1, 0.2, 0.7777777777777778,
)

_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023,
    ),
    (
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
        20.154067550477894, -43.48988418106996,
    ),
    (
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
        15.279233632882423, -33.28821096898486, -0.020331201708508627,
    ),
    (
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
        -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
    ),
    (
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
        27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
        0.6433927460157636,
    ),
    (
        0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
        0.04471061572777259,
    ),
    (
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
        -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
        -0.008298,
    ),
    (
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    ),
    (
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
        4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
        2.9475147891527724, -9.15095847217987,
    ),
)

# The 5th- and 3rd-order error estimates, each over slopes 0..11.
_E = (
    (
        0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
        1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
        -0.022355307863886294,
    ),
    (
        -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
        -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
        0.02265179219836082,
    ),
)

# The last four dense-output rows: each weighs the 16 slopes, times h.
_P = (
    (
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
        2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
        0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894,
    ),
    (
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
        -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408,
    ),
    (
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
        527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
        0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279,
    ),
    (
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
        357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
        29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564,
    ),
)

_MAX_STEP = 0.25  # keeps dense segments finer than any oscillation of the profile
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_SAFETY = 0.9
_EXPONENT = -0.125  # the step scales by the error norm to this power: 1/(order 7 + 1)
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


# Whether the energy trap stops a run.  Classification runs keep it on (node
# counts become final the moment the energy is nonpositive); verification runs
# that need the whole radial range turn it off and run to r_max.  The variation
# guard and the step budget stay armed either way.
CLASSIFY_POLICY = True
FULL_RANGE_POLICY = False


@dataclass
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
    equals abs_tol.  Nonpositive tolerances raise IntegrationError, and so
    does a height where that radius comes out 0 (the r0**4 coefficient
    overflows) or where a power of alpha or of r0 overflows; an r0 outside
    (0, r_max) raises ParameterError.
    """
    if params.controls.abs_tol <= 0.0 or params.controls.rel_tol <= 0.0:
        raise IntegrationError("tolerances must be positive")
    alpha = params.alpha
    fld = params.field
    n = float(fld.n)
    r0 = params.controls.r0
    try:
        f_alpha = f(alpha, fld)
        fp_alpha = f_prime(alpha, fld)
        if r0 is None:
            r0 = 1e-6 * max(1.0, alpha)
            fpp_alpha = fld.p * (fld.p - 1.0) * abs_pow(alpha, fld.p - 1.0) / alpha
            c4 = max(abs(f_alpha * fp_alpha), abs(fp_alpha * fp_alpha + fpp_alpha * f_alpha))
            c4 /= 8.0 * n * (n + 2.0)
            abs_tol = params.controls.abs_tol
            if c4 * r0**4 > abs_tol:
                r0 = (abs_tol / c4) ** 0.25
                if not r0 > 0.0:  # c4 overflowed: no radius keeps the dropped terms within abs_tol
                    raise IntegrationError(f"no series start radius at alpha={alpha!r}: "
                                           f"the r0**4 coefficient is {c4}")
    except OverflowError:  # a power of alpha, or of the default r0, past the largest double
        raise IntegrationError(f"no series start at alpha={alpha!r}: a power overflows") from None
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
    one is the series start).  Segment ``i`` covers [knots[i], knots[i+1]].
    Each component c of (u, u', v, v') has three flat columns, filled when
    the trajectory is built: ``knot_values[c]`` holds it at each knot,
    ``coeffs[c]`` its seven dense-output coefficients, those of segment i at
    7*i..7*i+6, and ``midpoints[c]`` its value at each segment midpoint, bit
    for bit as ``value`` reads it there.  The stepper's minimum step keeps
    each midpoint strictly inside its segment; only a final step clipped to
    r_max can be shorter, and ``value`` reads it too.
    """

    params: ProblemParams
    knots: list[float]
    knot_values: list[list[float]]
    coeffs: list[Sequence[float]]
    midpoints: list[Sequence[float]]
    termination: TerminationCause
    # Filled on use: the event grid (read through ``grid``), and the sign-change
    # radii on it of each component scanned so far, by component index, which
    # ``portrait.find_zeros`` fills and hands out copies of.  Declared fields:
    # functools.cached_property writes the record's __dict__, after which every
    # attribute read of the record is slower.
    _grid: list[float] | None = dc_field(default=None, init=False, repr=False, compare=False)
    roots: dict[int, list[float]] = dc_field(default_factory=dict, init=False, repr=False,
                                             compare=False)

    @property
    def r_start(self) -> float:
        return self.knots[0]

    @property
    def r_end(self) -> float:
        return self.knots[-1]

    def state_at_knot(self, i: int) -> State:
        u, up, v, vp = self.knot_values
        return State(self.knots[i], u[i], up[i], v[i], vp[i])

    def samples(self) -> Iterator[State]:
        for i in range(len(self.knots)):
            yield self.state_at_knot(i)

    @property
    def grid(self) -> list[float]:
        """Knots plus segment midpoints, built on first read; fine enough to isolate
        every event."""
        if self._grid is None:
            knots = self.knots
            rs: list[float] = []
            for r_lo, r_hi in zip(knots, knots[1:]):
                rs.append(r_lo)
                rs.append(0.5 * (r_lo + r_hi))
            rs.append(knots[-1])
            self._grid = rs
        return self._grid

    def grid_values(self, c: int) -> list[float]:
        """State component c on the ``grid`` radii: its value at each knot and
        the dense value at each segment midpoint."""
        vals = [0.0] * (2 * len(self.knots) - 1)
        vals[::2] = self.knot_values[c]
        vals[1::2] = self.midpoints[c]
        return vals

    def segment_index(self, r: float | complex) -> int:
        """Index of the dense segment containing Re r (knots are its ends)."""
        x = r.real
        if not (self.knots[0] <= x <= self.knots[-1]):
            raise DenseRangeError(
                f"r={r} outside integrated range [{self.knots[0]}, {self.knots[-1]}]"
            )
        i = min(bisect_right(self.knots, x) - 1, len(self.knots) - 2)
        if i < 0:  # one knot: the run ended at its series start
            raise DenseRangeError(f"r={r}: the run has no segment past its series start")
        return i

    def eval_dense(self, r: float | complex) -> State:
        """Interpolated state at any radius in [r_start, r_end]; at a complex r,
        the segment's polynomial continued there (the segment of Re r)."""
        i = self.segment_index(r)
        r_lo = self.knots[i]
        theta = (r - r_lo) / (self.knots[i + 1] - r_lo)
        j = 7 * i
        (u, up, v, vp), q = self.knot_values, self.coeffs
        return State(r, _interpolate(u[i], q[0], j, theta), _interpolate(up[i], q[1], j, theta),
                     _interpolate(v[i], q[2], j, theta), _interpolate(vp[i], q[3], j, theta))

    def value(self, c: int, r: float) -> float:
        """Component c of ``eval_dense(r)``, bit for bit, without a State."""
        i = self.segment_index(r)
        r_lo = self.knots[i]
        return _interpolate(self.knot_values[c][i], self.coeffs[c], 7 * i,
                            (r - r_lo) / (self.knots[i + 1] - r_lo))

    def truncated_at(self, r_cut: float) -> "Trajectory":
        """Copy keeping only whole dense segments ending at or before r_cut.

        Used by structural checks that must ignore the stretch where a
        near-bound-state shot departs from the profile it shadows.  The
        copy ends at a knot, so no partial segment is ever exposed; where no
        whole segment ends by r_cut, DenseRangeError is raised.
        """
        n_keep = bisect_right(self.knots, r_cut) - 1
        if n_keep < 1:
            raise DenseRangeError(f"truncation radius {r_cut} keeps no whole segment past "
                                  f"the series start r={self.knots[0]}")
        return Trajectory(
            params=self.params,
            knots=self.knots[: n_keep + 1],
            knot_values=[y[: n_keep + 1] for y in self.knot_values],
            coeffs=[q[: 7 * n_keep] for q in self.coeffs],
            midpoints=[mids[:n_keep] for mids in self.midpoints],
            termination=TerminationCause(
                tag=REACHED_RMAX,
                r_stop=self.knots[n_keep],
                detail="truncated for structural checks",
            ),
        )


def _interpolate(y: float, q: Sequence[float], j: int, theta: float) -> float:
    """The dense output at theta of a segment that starts at y and whose seven
    coefficients start at q[j]: DOP853's, nested in theta and 1 - theta."""
    s = 1.0 - theta
    return y + theta * (q[j] + s * (q[j + 1] + theta * (q[j + 2] + s * (q[j + 3] + theta * (
        q[j + 4] + s * (q[j + 5] + theta * q[j + 6]))))))


def _u_second(fld: FieldParams, r: float, u: float, up: float, fu: float | None = None) -> float:
    """u'' from the radial equation, given f(u) as ``fu`` by a caller that
    holds it, as ``_march`` does."""
    return -(fld.n - 1.0) / r * up - (f(u, fld) if fu is None else fu)


def _power(u: float, s: float) -> float:
    """``abs_pow(u, s)``, or inf where ``**`` overflows and raises, as C's pow gives it."""
    try:
        return abs_pow(u, s)
    except OverflowError:
        return math.inf


def _rhs(fld: FieldParams, r: float, y: Sequence[float]) -> tuple[float, float, float, float]:
    """(u', u'', v', v''), the radial system at r: u'' from ``_u_second`` and
    v'' = -(n-1)/r v' - f'(u) v, f and f' sharing one |u|^(p-1).  ``_march``
    steps it, and ``functionals`` checks the identity formulas along it."""
    u, up, v, vp = y
    power = _power(u, fld.p - 1.0)
    return (up, _u_second(fld, r, u, up, f(u, fld, power)),
            vp, -(fld.n - 1.0) / r * vp - f_prime(u, fld, power) * v)


def integrate(params: ProblemParams, stop_on_energy: bool = CLASSIFY_POLICY) -> Trajectory:
    """March the system outward from the series start until a stop fires.

    Every accepted step keeps its local error below abs_tol + rel_tol*|y|
    componentwise (DOP853's RMS norm of its 5th-order estimate, damped where
    the 3rd-order one is small).  The returned trajectory carries at least
    one dense segment unless the very first state already trips a stop (a
    dense read of that one-knot run raises DenseRangeError), and its
    termination tag says exactly why the march ended.  The march runs in the
    compiled kernel of ``_dopri`` when that loads, else in ``_march``, bit for bit alike.
    """
    from ._dopri import kept_run  # imported here: _dopri imports this module

    traj = kept_run(params, stop_on_energy)
    return traj if traj is not None else _march(params, stop_on_energy)


def _weigh(weights: Sequence[float], slopes: list) -> tuple:
    """The sum of w * k over the stage slopes k and their weights w, in each
    of the four components (u, u', v, v').

    The terms are added left to right in tableau order, from -0.0 and skipping
    zero weights, as ``_dopri.c`` adds them (-0.0 + x is x for every x, signed
    zeros included).  Not ``sum()``, which compensates float sums from Python
    3.12 on.
    """
    acc = (-0.0, -0.0, -0.0, -0.0)
    for w, (k0, k1, k2, k3) in zip(weights, slopes):
        if w != 0.0:
            a0, a1, a2, a3 = acc
            acc = (a0 + w * k0, a1 + w * k1, a2 + w * k2, a3 + w * k3)
    return acc


def _march(params: ProblemParams, stop_on_energy: bool) -> Trajectory:
    """``integrate``'s march in Python: the kernel's fallback and its bit reference.

    The step reads the tableau by index: stage s = 1..11 at r + _C[s] h from
    the slopes weighed by _A[s], the solution by _A[12], whose slope, at the
    new knot, is the next step's first, and the two error estimates by _E.
    An accepted step adds stages 13..15 and builds each component's seven
    dense-output coefficients: three from the knots' values and slopes, four
    by the rows of _P.
    """
    fld = params.field
    ctl = params.controls
    start = series_start(params)
    p_p1 = fld.p + 1.0
    atol, rtol, r_max = ctl.abs_tol, ctl.rel_tol, ctl.r_max

    def stage(s: int, r: float, h: float, y: tuple, k: list) -> tuple:
        return _rhs(fld, r + _C[s] * h, [yc + h * a for yc, a in zip(y, _weigh(_A[s], k))])

    def energy(y: tuple[float, float, float, float]) -> float:  # trapped once E <= 0
        return _energy(y[1], big_F(y[0], fld, _power(y[0], p_p1)))

    r = start.r
    y = (start.u, start.up, start.v, start.vp)
    knots, values = [r], [[yc] for yc in y]
    coeffs, mids = [[], [], [], []], [[], [], [], []]

    def finish(end: int, h: float = 0.0) -> Trajectory:
        return Trajectory(params, knots, values, coeffs, mids, _termination(end, knots[-1], h))

    # The start state can already sit in the trap (e.g. alpha below the well
    # zero); report it without taking a step.
    if stop_on_energy and energy(y) <= 0.0:
        return finish(_TRAPPED_AT_START)
    if abs(y[2]) > _V_GUARD:
        return finish(_DIVERGED_AT_START)

    k1 = _rhs(fld, r, y)
    h = min(10.0 * r, _MAX_STEP, r_max - r)
    rejected = False

    while True:
        if len(knots) > _MAX_STEPS:
            return finish(_BUDGET)
        if h < 1e-14 * max(1.0, r):
            return finish(_UNDERFLOW, h)

        clipped = r + h >= r_max
        if clipped:
            h = r_max - r

        k = [k1]
        for s in range(1, 12):
            k.append(stage(s, r, h, y, k))
        y_new = tuple(yc + h * a for yc, a in zip(y, _weigh(_A[12], k)))
        r_new = r_max if clipped else r + h
        k.append(_rhs(fld, r_new, y_new))

        if not all(map(math.isfinite, y_new)):
            return finish(_NONFINITE)

        # DOP853's error norm: the RMS of the 5th-order estimate over each
        # component's scale, damped by the 3rd-order one.
        scale = [atol + rtol * (b if b > a else a) for a, b in zip(map(abs, y), map(abs, y_new))]
        e5, e3 = ((q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
                  for q0, q1, q2, q3 in ([e / sc for e, sc in zip(_weigh(row, k), scale)]
                                         for row in _E))
        norm = 0.0 if e5 == 0.0 and e3 == 0.0 else h * e5 / math.sqrt((e5 + 0.01 * e3) * 4.0)
        if norm > 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * norm ** _EXPONENT)
            rejected = True
            continue

        # Accepted: each component's dense output and its value at the
        # segment midpoint, in the arithmetic of the kernel.
        for s in range(13, 16):
            k.append(stage(s, r, h, y, k))
        rows = [_weigh(row, k) for row in _P]
        theta = (0.5 * (r + r_new) - r) / (r_new - r)
        for c, (y_c, dy) in enumerate((a, b - a) for a, b in zip(y, y_new)):
            q = (dy, h * k[0][c] - dy, 2.0 * dy - h * (k[12][c] + k[0][c]),
                 *(h * row[c] for row in rows))
            coeffs[c] += q
            mids[c].append(_interpolate(y_c, q, 0, theta))
            values[c].append(y_new[c])
        knots.append(r_new)
        r, y, k1 = r_new, y_new, k[12]

        if stop_on_energy and energy(y) <= 0.0:
            return finish(_TRAPPED)
        if abs(y[2]) > _V_GUARD or abs(y[3]) > _V_GUARD:
            return finish(_DIVERGED)
        if clipped or r >= r_max:
            return finish(_RMAX)

        if norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * norm ** _EXPONENT))
        if rejected:  # a step that followed a rejection does not grow the next
            factor = min(1.0, factor)
        rejected = False
        h = min(h * factor, _MAX_STEP)
