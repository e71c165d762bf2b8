"""Scalar nonlinearity and potential-well algebra.

Everything downstream integrates or inspects radial profiles of a scalar
field whose pointwise nonlinearity is ``f(u) = -u + |u|**(p-1) * u``.  This
module owns that nonlinearity, its derivative, its primitive (the potential
well ``big_F``), the profile energy ``_energy`` in that well, the tilted wells
``big_F_a`` used by the parametric Wronskian functionals, and the two critical
amplitudes that organize the classification of shooting heights:

* ``alpha_star``  -- the positive zero of the well.  Profiles confined below
  it have negative energy and oscillate about the rest height 1.
* ``alpha_upper_star`` -- the dilation-identity threshold.  Every shooting
  height that produces a sign change exceeds it.

All scalar maps are total on the reals except ``g1``/``g2``, which blow up
at ``u = 0`` and raise ``SingularInputError`` there.  Fractional powers of
``|u|`` go through ``abs_pow`` so no negative base ever reaches a real
exponent, and the ``u = 0`` branch is exact.  A map of one power of |u| also
takes it as ``power``, from a caller that holds it; the bits are the same.
"""

from __future__ import annotations

from dataclasses import dataclass


class ParameterError(ValueError):
    """Dimension/exponent pair outside the subcritical range."""


class SingularInputError(ValueError):
    """Scalar map evaluated where it is undefined."""


def abs_pow(u: float | complex, s: float) -> float | complex:
    """|u|**s as (+-u)**s with the sign of Re u, and exactly 0.0 at u = 0: abs(u)**s's
    bits at a real u, its holomorphic continuation at a complex u off Re u = 0."""
    if u == 0.0:
        return 0.0
    return (u if u.real > 0.0 else -u) ** s


@dataclass(frozen=True)
class FieldParams:
    """Model parameters: dimension n >= 3 and subcritical exponent.

    The exponent must satisfy 1 < p < (n + 2)/(n - 2); outside that range
    the shooting classification this package implements does not apply.
    """

    n: int
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise ParameterError(f"dimension must be an integer >= 3, got {self.n!r}")
        p_crit = (self.n + 2) / (self.n - 2)
        if not (1.0 < self.p < p_crit):
            raise ParameterError(
                f"exponent p={self.p} outside the subcritical range (1, {p_crit}) for n={self.n}"
            )


@dataclass(frozen=True)
class CriticalAmplitudes:
    """The two amplitudes that bound the interesting shooting heights.

    alpha_star < alpha_upper_star always, and both exceed 1.
    """

    alpha_star: float
    alpha_upper_star: float


def f(u: float, params: FieldParams, power: float | None = None) -> float:
    """Nonlinearity -u + |u|**(p-1)*u.  Odd in u; zeros at 0 and +-1."""
    power = abs_pow(u, params.p - 1.0) if power is None else power
    return (power - 1.0) * u


def f_prime(u: float, params: FieldParams, power: float | None = None) -> float:
    """d/du of ``f``: -1 + p*|u|**(p-1).  Even in u; f_prime(0) = -1."""
    power = abs_pow(u, params.p - 1.0) if power is None else power
    return params.p * power - 1.0


def big_F(u: float, params: FieldParams, power: float | None = None) -> float:
    """Potential well -u**2/2 + |u|**(p+1)/(p+1); primitive of ``f``.

    Negative on (0, alpha_star), zero at |u| = alpha_star, positive beyond.
    """
    power = abs_pow(u, params.p + 1.0) if power is None else power
    return -0.5 * u * u + power / (params.p + 1.0)


def _energy(up: float, Fu: float) -> float:
    """The profile energy E = u'**2/2 + F(u), given u' and F(u) = ``big_F(u)``."""
    return 0.5 * up * up + Fu


def big_F_a(u: float, a: float, params: FieldParams, power: float | None = None) -> float:
    """Tilted well: the power term |u|**(p+1) is scaled by (1 - a*(p-1)/2).

    Primitive of ``u * kappa_a(u)``; reduces to ``big_F`` at a = 0.
    """
    power = abs_pow(u, params.p + 1.0) if power is None else power
    return -0.5 * u * u + (1.0 - 0.5 * a * (params.p - 1.0)) * power / (params.p + 1.0)


def kappa_a(u: float, a: float, params: FieldParams, power: float | None = None) -> float:
    """(1 - a*(p-1)/2)*|u|**(p-1) - 1; the tilted analogue of f(u)/u."""
    power = abs_pow(u, params.p - 1.0) if power is None else power
    return (1.0 - 0.5 * a * (params.p - 1.0)) * power - 1.0


def g1(u: float, params: FieldParams, power: float | None = None) -> float:
    """2*(1 - |u|**(1-p))/(p-1); slope used by the first corrected Wronskian."""
    if u == 0.0:
        raise SingularInputError("g1 is undefined at u = 0")
    power = abs_pow(u, 1.0 - params.p) if power is None else power
    return 2.0 * (1.0 - power) / (params.p - 1.0)


def g2(u: float, params: FieldParams, power: float | None = None) -> float:
    """g1(u) - |u|**(1-p); equals 2*(p+1)/(p-1) * big_F(u)/|u|**(p+1)."""
    if u == 0.0:
        raise SingularInputError("g2 is undefined at u = 0")
    power = abs_pow(u, 1.0 - params.p) if power is None else power
    return g1(u, params, power) - power


def critical_amplitudes(params: FieldParams) -> CriticalAmplitudes:
    """Closed forms for the two critical shooting heights.

    alpha_star = ((p+1)/2)**(1/(p-1)) is the positive zero of ``big_F``;
    alpha_upper_star = (2*(p+1)/((n+2) - p*(n-2)))**(1/(p-1)) marks the
    dilation-identity threshold.  The denominator is positive exactly in
    the subcritical range, which ``FieldParams`` already enforces; it is
    re-checked here so the closed form never returns garbage.
    """
    n, p = params.n, params.p
    denom = (n + 2) - p * (n - 2)
    if denom <= 0.0:
        raise ParameterError(f"(n+2) - p*(n-2) = {denom} must be positive")
    expo = 1.0 / (p - 1.0)
    return CriticalAmplitudes(
        alpha_star=((p + 1.0) / 2.0) ** expo,
        alpha_upper_star=(2.0 * (p + 1.0) / denom) ** expo,
    )
