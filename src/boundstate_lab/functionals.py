"""Auxiliary functionals along a trajectory and their differential identities.

Every comparison functional used by the classification argument is evaluated
here from a dense-output state: energy layers (E, Ê), Pohozaev-type layers
(P, P1, P2), the logarithmic slope ω, the variation pairings (ϱ, Q and its
shifted family Q1, Q2, Qn, M, the Wronskian-corrected T1, T2, B0), and the
tail weight ϖ.  Each functional satisfies a first-order identity in r, which
is checked two ways, each differentiating the left side by the complex step
and comparing it with the closed-form right side, normalized by the largest
magnitude seen for that identity over the probes: ``identity_residuals``
(the ledger) reads the left side at r + iη through the dense output's
polynomial, so its residual carries the march's error, and
``identity_formula_residuals`` at the state y + iη F(y), along the exact
flow through the dense state y, so that only roundoff remains.

Where each formula lives:

* ``eval_aux`` defines all of the above but E; ``AuxSample`` carries them and,
  in fields outside its schema, what the sides read: fu, fpu, Fu = f(u), f'(u), F(u);
  upm1, upp1 = |u|**(p-1), |u|**(p+1); rn, rn1 = r**n, r**(n-1).
* ``_family_w`` defines W_a = Q - a M, and ``_barrier_ba`` its tilted
  barrier B_a.
* ``_IDENTITIES`` maps each identity to its two sides.  Each reads one
  ``AuxSample``, the state with its functionals: the left side the record at
  r + iη, in complex arithmetic, and the right side the real one at r.  The
  left sides not in it (-u'/u, r^(n-1) u', r^(n-1) v', u'v' + f(u) v and the
  two slopes) are written there, and so is every right side.
  ``_connection_rhs`` is the right side of the pointwise connection
  Q - P v/u = ω (M - ϖ).
* f, F, F_a, κ_a, g1, g2 and E (``_energy``) come from ``field``, and so do
  the two critical amplitudes, which each ``FieldParams`` computes once; u''
  comes from ``integrate._u_second``, and the radial system F = (u', u'', v',
  v'') from ``integrate._rhs``, which the march steps.  The march reads the
  same definitions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field, fields
from operator import sub
from typing import Callable, Iterable, Iterator, Sequence

from .field import FieldParams, _energy, abs_pow, big_F, big_F_a, f, f_prime, g1, g2, kappa_a
from .integrate import State, Trajectory, _rhs, _u_second
from .quadrature import adaptive_quadrature

_GOLDEN = 0.6180339887498949

# Imaginary step of the identity checks: Im g(r + iη)/η = g'(r) + O(η²) takes
# no difference, so it has no cancellation and any η this small reads g' to
# roundoff (Squire & Trapp, SIAM Review 40 (1998) 110-112).
_ETA = 1e-30

# Guard thresholds for identities with a removable or genuine singularity.
# Probes are admissible only when the denominator variable is both large
# relative to its derivative scale and large in absolute terms, so a quotient
# by it is read where it is smooth and its size is not roundoff.
_RATIO_FLOOR = 0.04
_ABS_FLOOR = 0.02

# Identities that divide by a power of r amplify dense-output error near the
# origin (the derivative sees interpolant noise scaled by 1/r^n), so they
# carry a minimum-radius guard.
_R_FLOOR = 0.1

# Half-width of the moat probe_radii keeps around each exclusion radius.
_EXCLUSION_HALFWIDTH = 0.05

# identity_residuals checks the family W_a and its barrier B_a at this a.
_FAMILY_A = 1.0


class ProbeUndefined(ValueError):
    """A probe radius landed where an identity's functions are undefined."""


class MissingEvents(RuntimeError):
    """The portrait lacks the events needed to place an integration range."""


class SingularityWarning(RuntimeError):
    """u' vanishes inside an integration range that assumes it does not."""


@dataclass
class AuxSample(State):
    """The state at one radius with all auxiliary functionals there.

    Entries are None where the functional is undefined: omega, T1 and T2
    need u != 0; B0, phi_n and varpi need u' != 0.  The last seven fields, the
    sides' ingredients from ``eval_aux``, are outside the schema (``plain``,
    ``repr`` and ``==`` skip them) and None on a record built from it alone.
    """

    E: float
    E_hat: float
    P: float
    P1: float
    P2: float
    omega: float | None
    rho: float
    Q: float
    Q1: float
    Q2: float
    Qn: float
    M: float
    T1: float | None
    T2: float | None
    B0: float | None
    phi_n: float | None
    varpi: float | None
    fu: float | None = dc_field(default=None, repr=False, compare=False)
    fpu: float | None = dc_field(default=None, repr=False, compare=False)
    Fu: float | None = dc_field(default=None, repr=False, compare=False)
    upm1: float | None = dc_field(default=None, repr=False, compare=False)
    upp1: float | None = dc_field(default=None, repr=False, compare=False)
    rn: float | None = dc_field(default=None, repr=False, compare=False)
    rn1: float | None = dc_field(default=None, repr=False, compare=False)


# The functionals' names, in field order: the columns ``export --functionals`` may add.
_AUX_COLUMNS = tuple(fd.name for fd in fields(AuxSample)[len(fields(State)):] if fd.repr)


def eval_aux(state: State, field: FieldParams) -> AuxSample:
    n, p = field.n, field.p
    r, u, up, v, vp = state.r, state.u, state.up, state.v, state.vp
    upm1, upp1 = abs_pow(u, p - 1.0), abs_pow(u, p + 1.0)
    fu, fpu, Fu = f(u, field, upm1), f_prime(u, field, upm1), big_F(u, field, upp1)
    rn, rn1 = r**n, r ** (n - 1)

    E = _energy(up, Fu)
    E_hat = r ** (2 * (n - 1)) * E
    P = 2.0 * rn * E + (n - 2) * rn1 * u * up
    P1 = rn * (up * up + u * fu) + (n - 2) * rn1 * u * up
    P2 = rn * (up * up + (n - 2) / n * u * fu) + (n - 2) * rn1 * u * up
    rho = rn1 * (fpu * up * v - fu * vp)
    Q = rn * (up * vp + fu * v) + (n - 2) * rn1 * up * v
    Q1 = Q + rn1 * up * v
    Q2 = Q + 2.0 * rn1 * up * v
    Qn = Q + n * rn1 * up * v
    M = rn1 * (up * v - u * vp)

    omega = T1 = T2 = None
    if u != 0.0:
        omega = -r * up / u
        q = abs_pow(u, 1.0 - p)  # g1 and g2 share it
        T1 = Q - g1(u, field, q) * M
        T2 = Q - g2(u, field, q) * M

    B0 = phi_n = varpi = None
    if up != 0.0:
        B0 = Q - 2.0 * Fu * rn1 * v / up
        phi_n = Qn / (r * up * up)
        varpi = (p - 1.0) / (p + 1.0) * rn1 * (v / up) * upp1

    return AuxSample(r, u, up, v, vp, E, E_hat, P, P1, P2, omega, rho, Q, Q1, Q2, Qn, M, T1,
                     T2, B0, phi_n, varpi, fu, fpu, Fu, upm1, upp1, rn, rn1)


# Identity registry: name -> (lhs, rhs, guards).  Each side reads an AuxSample,
# the field and the family parameter a: lhs, at r + iη, is differentiated by
# the complex step, and rhs, at r, is the closed form its derivative must
# equal.  guards names what must stay away from zero at the probe: "u", "up",
# or "r" (the minimum-radius guard).
_Side = Callable[[AuxSample, FieldParams, float], float]


def _family_w(x: AuxSample, a: float) -> float:
    """W_a = Q - a M; T1 and T2 are its members at a = g1(u) and g2(u)."""
    return x.Q - a * x.M


def _barrier_ba(x: AuxSample, fl: FieldParams, a: float) -> float:
    """B_a = W_a - 2 F_a(u) r^(n-1) v / u', the tilted analogue of B0."""
    return _family_w(x, a) - 2.0 * big_F_a(x.u, a, fl, x.upp1) * x.rn1 * x.v / x.up


def _p_crit_rhs(x: AuxSample, fl: FieldParams, a: float) -> float:
    upper = fl.alpha_upper_star
    return 2.0 * x.rn1 * x.u**2 * (abs_pow(x.u / upper, fl.p - 1.0) - 1.0)


def _p2_rhs(x: AuxSample, fl: FieldParams, a: float) -> float:
    ratio = fl.alpha_star * x.u / fl.alpha_upper_star
    return -(4.0 / fl.n) * x.rn * x.u * x.up * (abs_pow(ratio, fl.p - 1.0) - 1.0)


def _riccati_rhs(x: AuxSample, fl: FieldParams, a: float) -> float:
    w = -x.up / x.u
    return w * w - (fl.n - 1) / x.r * w - 1.0 + x.upm1


def _rho_rhs(x: AuxSample, fl: FieldParams, a: float) -> float:
    p = fl.p
    u_pm2 = math.copysign(abs_pow(x.u, p - 2.0), x.u)
    return p * (p - 1.0) * x.rn1 * u_pm2 * x.up**2 * x.v


def _t2_rhs(x: AuxSample, fl: FieldParams, a: float) -> float:
    p = fl.p
    return (p - 1.0) * x.rn1 * x.u * x.v - (p + 1.0) * x.u * x.up / x.upp1 * x.M


_IDENTITIES: dict[str, tuple[_Side, _Side, tuple[str, ...]]] = {
    "energy": (
        lambda x, fl, a: x.E,
        lambda x, fl, a: -(fl.n - 1) * x.up**2 / x.r, ()),
    "energy_layer": (
        lambda x, fl, a: x.E_hat,
        lambda x, fl, a: 2.0 * (fl.n - 1) * x.r ** (2 * fl.n - 3) * x.Fu, ()),
    "pohozaev": (
        lambda x, fl, a: x.P,
        lambda x, fl, a: x.rn1 * (2.0 * fl.n * x.Fu - (fl.n - 2) * x.u * x.fu), ()),
    "pohozaev_crit": (lambda x, fl, a: x.P, _p_crit_rhs, ()),
    "pohozaev_p2": (lambda x, fl, a: x.P2, _p2_rhs, ()),
    "pohozaev_scaled": (
        lambda x, fl, a: x.P / x.rn,
        lambda x, fl, a: -fl.n / x.r ** (fl.n + 1) * x.P2, ("r",)),
    "log_slope": (
        lambda x, fl, a: x.omega,
        lambda x, fl, a: x.P1 / (x.rn1 * x.u**2), ("u",)),
    "riccati": (lambda x, fl, a: -x.up / x.u, _riccati_rhs, ("u",)),
    "pairing_rho": (lambda x, fl, a: x.rho, _rho_rhs, ("u",)),
    "pairing_q": (
        lambda x, fl, a: x.Q,
        lambda x, fl, a: 2.0 * x.rn1 * x.fu * x.v, ()),
    "wronskian_m": (
        lambda x, fl, a: x.M,
        lambda x, fl, a: (fl.p - 1.0) * x.rn1 * x.u * x.upm1 * x.v, ()),
    "family_w": (
        lambda x, fl, a: _family_w(x, a),
        lambda x, fl, a: 2.0 * x.rn1 * x.u * x.v * kappa_a(x.u, a, fl, x.upm1), ()),
    "corrected_t1": (
        lambda x, fl, a: x.T1,
        lambda x, fl, a: -2.0 * x.u * x.up / x.upp1 * x.M, ("u",)),
    "corrected_t2": (lambda x, fl, a: x.T2, _t2_rhs, ("u",)),
    "corrected_t2_tail": (
        lambda x, fl, a: x.T2,
        lambda x, fl, a: -(fl.p + 1.0) * x.u * x.up / x.upp1 * (x.M - x.varpi), ("u", "up")),
    "barrier_b0": (
        lambda x, fl, a: x.B0,
        lambda x, fl, a: -2.0 * x.Fu * x.phi_n, ("up",)),
    "barrier_ba": (
        _barrier_ba,
        lambda x, fl, a: -2.0 * big_F_a(x.u, a, fl, x.upp1) * x.phi_n, ("up",)),
    "flux_u": (
        lambda x, fl, a: x.rn1 * x.up,
        lambda x, fl, a: -x.rn1 * x.fu, ()),
    "flux_v": (
        lambda x, fl, a: x.rn1 * x.vp,
        lambda x, fl, a: -x.rn1 * x.fpu * x.v, ()),
    "pair_product": (
        lambda x, fl, a: x.up * x.vp + x.fu * x.v,
        lambda x, fl, a: -2.0 * (fl.n - 1) / x.r * x.up * x.vp, ()),
    "q_slope": (
        lambda x, fl, a: x.Q / (x.rn1 * x.up),
        lambda x, fl, a: x.fu * x.Q2 / (x.rn1 * x.up**2), ("up",)),
    "v_slope": (
        lambda x, fl, a: x.rn1 * x.v / x.up,
        lambda x, fl, a: x.phi_n, ("up",)),
}

IDENTITY_NAMES: tuple[str, ...] = tuple(_IDENTITIES)


def _connection_rhs(x: AuxSample) -> float:
    """omega (M - varpi), equal to Q - P v/u wherever u and u' are nonzero: the
    pointwise connection between the u-frame and v-frame functionals, checked
    without differentiation."""
    return x.omega * (x.M - x.varpi)


@dataclass(frozen=True)
class IdentityResidual:
    identity: str
    probes_used: int
    max_abs_residual: float
    scale: float

    @property
    def max_rel_residual(self) -> float:
        if self.scale == 0.0:
            return 0.0
        return self.max_abs_residual / self.scale


@dataclass(frozen=True)
class IdentityReport:
    residuals: tuple[IdentityResidual, ...]
    connection_rel_residual: float

    def worst(self) -> IdentityResidual:
        """The record with the largest relative residual; the first NaN one, if any."""
        return max(self.residuals, key=lambda rec: (math.isnan(rec.max_rel_residual),
                                                    rec.max_rel_residual))


def _up_admissible(x: AuxSample, field: FieldParams) -> bool:
    # u'' from the field equation bounds how fast u' can cross zero.  The
    # floors are 1.5x the u ones: quotients by u' are differentiated, which
    # squares the amplification near a critical radius.
    scale = max(1.0, abs(_u_second(field, x.r, x.u, x.up, x.fu)))
    return abs(x.up) >= 1.5 * _ABS_FLOOR and abs(x.up) >= 1.5 * _RATIO_FLOOR * scale


def _u_admissible(state: State) -> bool:
    scale = max(1.0, abs(state.up))
    return abs(state.u) >= _ABS_FLOOR and abs(state.u) >= _RATIO_FLOOR * scale


def _admits(x: AuxSample, field: FieldParams, guards: tuple[str, ...]) -> bool:
    return (("u" not in guards or _u_admissible(x))
            and ("up" not in guards or _up_admissible(x, field))
            and ("r" not in guards or not x.r < _R_FLOOR))


def probe_radii(
    traj: Trajectory,
    count: int,
    r_hi: float | None = None,
    exclusion_radii: Iterable[float] = (),
) -> list[float]:
    """Low-discrepancy probe radii in (r_start, r_hi), kept clear of events.

    A golden-ratio sequence fills (r_start, r_hi).  Candidates within
    _EXCLUSION_HALFWIDTH of an exclusion radius are dropped: for fractional
    powers the state is only finitely smooth across zeros of u, so the
    interpolant needs a real moat there, not just collision avoidance.  The
    moat also keeps probes off Re u = 0, where (+-u)**s, which
    identity_residuals reads at complex radii, is not holomorphic.
    """
    lo = traj.r_start
    hi = traj.r_end if r_hi is None else min(r_hi, traj.r_end)
    span = hi - lo
    if span <= 0.0:
        return []
    excl = sorted(exclusion_radii)
    last, moat = len(excl), _EXCLUSION_HALFWIDTH
    out: list[float] = []
    x = 0.5
    for _ in range(count):
        x = (x + _GOLDEN) % 1.0
        r = lo + span * x
        i = bisect_left(excl, r)  # the nearest exclusion radii: excl[i - 1] < r <= excl[i]
        if (i == 0 or r - excl[i - 1] >= moat) and (i == last or excl[i] - r >= moat):
            out.append(r)
    return sorted(set(out))


def identity_residuals(
    traj: Trajectory,
    probes: Sequence[float],
    identities: Sequence[str] | None = None,
) -> IdentityReport:
    """Complex-step check of every registered identity at the probes.

    Each probe reads two records: one at r + iη, whose left side's
    imaginary part over η is the left side's derivative at r, and the real
    one at r, for the right sides, the guards and the connection.  One dense
    read at r + iη gives both states: its real part is the real read's state,
    bit for bit.  Each distinct
    guard set is tested once per probe and keeps the records it admits (an
    identity without guards takes every record); each identity is then one
    column of derivatives and one of right sides over its guard set's
    records, reduced by ``max``.  Residuals are reported
    relative to the largest magnitude (of either side) the identity attains
    over the probe set.  An identity whose two sides stay below
    abs_tol at every probe has nothing the march resolves to be read against
    and is reported undefined (no probes used).  On the constant shot
    alpha = 1, where u = 1 and u' = 0 exactly, that holds for the identities
    in u alone, which read roundoff.  A probe failing an identity's guard is
    skipped for that identity.  The family identities are checked at
    a = _FAMILY_A.
    """
    field = traj.params.field

    def records() -> Iterator[tuple[AuxSample, AuxSample]]:
        for r in probes:
            _check_probe(traj, r)
            z = traj.eval_dense(complex(r, _ETA))
            x = State(r, z.u.real, z.up.real, z.v.real, z.vp.real)
            yield eval_aux(x, field), eval_aux(z, field)

    return _ledger(traj, identities, records())


def identity_formula_residuals(traj: Trajectory, probes: Sequence[float]) -> IdentityReport:
    """The identities' formulas checked at roundoff, apart from the march.

    At each probe the real record is the dense state y at r, and the complex
    one the state y + iη F(y) at r + iη, where F is the radial system
    ``integrate._rhs``: each left side's imaginary part over η is then its
    derivative along the exact flow through y, not along the interpolant,
    and equals its right side up to roundoff (the complex step, Squire and
    Trapp, SIAM Review 40 (1998) 110-112).  Guards, scales, undefined
    identities and the connection Q - P v/u = ω (M - ϖ), an algebraic
    identity of the state, read as in ``identity_residuals``.
    """
    field = traj.params.field

    def records() -> Iterator[tuple[AuxSample, AuxSample]]:
        for r in probes:
            _check_probe(traj, r)
            x = traj.eval_dense(r)
            y = (x.u, x.up, x.v, x.vp)
            z = State(complex(r, _ETA), *(complex(yc, _ETA * fc)
                                          for yc, fc in zip(y, _rhs(field, r, y))))
            yield eval_aux(x, field), eval_aux(z, field)

    return _ledger(traj, None, records())


def _check_probe(traj: Trajectory, r: float) -> None:
    if not traj.r_start < r < traj.r_end:
        raise ProbeUndefined(f"probe {r} outside trajectory range")


def _ledger(
    traj: Trajectory,
    identities: Sequence[str] | None,
    records: Iterable[tuple[AuxSample, AuxSample]],
) -> IdentityReport:
    """Each identity's residual over the (real, complex) record pairs its
    guards admit, and the connection over those admitted by ("u", "up")."""
    field, a = traj.params.field, _FAMILY_A
    names = list(identities) if identities is not None else list(_IDENTITIES)
    for name in names:
        if name not in _IDENTITIES:
            raise KeyError(f"unknown identity: {name}")

    # each distinct guard is tested once per probe; the connection reads ("u", "up")
    guard_sets = [*(_IDENTITIES[name][2] for name in names), ("u", "up")]
    admitted = {guards: ([], []) for guards in guard_sets}  # its real and complex records
    for x, z in records:
        for guards, (xs, zs) in admitted.items():
            if not guards or _admits(x, field, guards):
                xs.append(x)
                zs.append(z)

    resolution = traj.params.controls.abs_tol
    recs = []
    for name in names:
        lhs, rhs, guards = _IDENTITIES[name]
        xs, zs = admitted[guards]
        ds = [lhs(z, field, a).imag / _ETA for z in zs]
        wants = [rhs(x, field, a) for x in xs]
        res = _worst(list(map(abs, map(sub, ds, wants))))
        scale = max(map(max, map(abs, ds), map(abs, wants)), default=0.0)
        if scale < resolution and not math.isnan(res):  # no probes, or nothing to resolve
            recs.append(IdentityResidual(name, 0, 0.0, 0.0))
        else:
            recs.append(IdentityResidual(name, len(ds), res, scale))

    rels = []
    for x in admitted["u", "up"][0]:
        pv_u = x.P * x.v / x.u
        rel = abs(x.Q - pv_u - _connection_rhs(x))
        rels.append(rel / (abs(x.Q) + abs(pv_u) + 1e-30))
    return IdentityReport(tuple(recs), _worst(rels))


def _worst(values: list[float]) -> float:
    """The largest of nonnegative values, 0.0 for none, and NaN if any is NaN:
    the builtin ``max`` keeps a NaN only when it comes first."""
    worst = max(values, default=0.0)
    return math.nan if math.isnan(sum(values)) else worst


@dataclass(frozen=True)
class BridgeIntegral:
    value: float
    error_estimate: float
    r_lo: float
    r_hi: float
    u_tilde: float
    empty_range: bool


def bridge_integral(
    traj: Trajectory,
    b_i: float,
    tau_i: float,
    u_tilde: float,
) -> BridgeIntegral:
    """I = integral over (b_i, tau_i) of u^2 (1 - |u/ũ|^{p-1}) φ_n,
    with φ_n = Qn / (r u'^2) read from ``eval_aux``.

    Flags an empty range (tau_i <= b_i) rather than failing; raises
    SingularityWarning if u' vanishes at any quadrature node.
    """
    if math.isnan(b_i) or math.isnan(tau_i):
        raise MissingEvents("bridge integral needs both b_i and tau_i")
    if u_tilde <= 0.0:
        raise MissingEvents("bridge integral needs a positive height u_tilde")
    if tau_i <= b_i:
        return BridgeIntegral(0.0, 0.0, b_i, tau_i, u_tilde, True)
    field = traj.params.field
    p = field.p

    def integrand(r: float) -> float:
        x = eval_aux(traj.eval_dense(r), field)
        if x.up == 0.0:
            raise SingularityWarning(f"u' vanishes at r={r} inside the bridge range")
        weight = x.u**2 * (1.0 - abs_pow(x.u / u_tilde, p - 1.0))
        return weight * x.phi_n

    value, err = adaptive_quadrature(integrand, b_i, tau_i)
    return BridgeIntegral(value, err, b_i, tau_i, u_tilde, False)
