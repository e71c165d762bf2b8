"""Scalar nonlinearity and potential-well algebra.

Everything downstream integrates or inspects radial profiles of a scalar
field whose pointwise nonlinearity is ``f(u) = -u + |u|**(p-1) * u``.  This
module owns that nonlinearity, its derivative, its primitive (the potential
well ``big_F``), the profile energy ``_energy`` in that well, the tilted wells
``big_F_a`` used by the parametric Wronskian functionals, and the two critical
amplitudes that organize the classification of shooting heights, which
``FieldParams`` computes once per record:

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
    The largest doubles below (n + 2)/(n - 2) at some n (7, 8, 16, 33, 128)
    are refused too: there (n + 2) - p*(n - 2) rounds to 0.0, and
    ``alpha_upper_star`` divides by it.
    """

    n: int
    p: float

    # Each amplitude is computed on its first read and kept on the record by
    # object.__setattr__.  functools.cached_property would write the record's
    # __dict__, and every later read of n and p would then take 3x as long.
    _alpha_star = _alpha_upper_star = None

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise ParameterError(f"dimension must be an integer >= 3, got {self.n!r}")
        p_crit = (self.n + 2) / (self.n - 2)
        if not (1.0 < self.p < p_crit):
            raise ParameterError(
                f"exponent p={self.p} outside the subcritical range (1, {p_crit}) for n={self.n}"
            )
        if not self._denominator > 0.0:
            raise ParameterError(f"(n+2) - p*(n-2) = {self._denominator} must be positive")

    @property
    def _denominator(self) -> float:
        return (self.n + 2) - self.p * (self.n - 2)

    @property
    def alpha_star(self) -> float:
        """((p+1)/2)**(1/(p-1)), the positive zero of ``big_F``; computed once."""
        if self._alpha_star is None:
            value = ((self.p + 1.0) / 2.0) ** (1.0 / (self.p - 1.0))
            object.__setattr__(self, "_alpha_star", value)
        return self._alpha_star

    @property
    def alpha_upper_star(self) -> float:
        """(2*(p+1)/((n+2) - p*(n-2)))**(1/(p-1)), the dilation-identity
        threshold; computed once.  It exceeds ``alpha_star``, and both exceed 1."""
        if self._alpha_upper_star is None:
            value = (2.0 * (self.p + 1.0) / self._denominator) ** (1.0 / (self.p - 1.0))
            object.__setattr__(self, "_alpha_upper_star", value)
        return self._alpha_upper_star


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
