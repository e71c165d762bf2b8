"""Scalar-map tests: closed-form amplitudes, well signs, map identities."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boundstate_lab import (
    FieldParams,
    ParameterError,
    SingularInputError,
    big_F,
    big_F_a,
    f,
    f_prime,
    g1,
    g2,
    kappa_a,
)
from boundstate_lab.field import abs_pow


def test_critical_amplitudes_cubic_three_d():
    fl = FieldParams(3, 3.0)
    assert fl.alpha_star == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert fl.alpha_upper_star == pytest.approx(2.0, abs=1e-15)


def test_critical_amplitudes_quadratic_four_d():
    fl = FieldParams(4, 2.0)
    assert fl.alpha_star == pytest.approx(1.5, abs=1e-15)
    assert fl.alpha_upper_star == pytest.approx(3.0, abs=1e-15)


def test_amplitudes_ordered_and_above_rest_height():
    for n, p in ((3, 1.2), (3, 2.5), (3, 4.9), (4, 1.5), (5, 1.4), (6, 1.9)):
        fl = FieldParams(n, p)
        assert 1.0 < fl.alpha_star < fl.alpha_upper_star


def test_well_signs():
    fl = FieldParams(3, 3.0)
    assert big_F(1.0, fl) < 0.0
    assert big_F(fl.alpha_star, fl) == pytest.approx(0.0, abs=1e-15)
    assert big_F(fl.alpha_star * 1.01, fl) > 0.0
    assert big_F(0.0, fl) == 0.0


def test_parameter_validation():
    with pytest.raises(ParameterError):
        FieldParams(2, 2.0)
    with pytest.raises(ParameterError):
        FieldParams(3, 5.0)  # critical exponent for n=3
    with pytest.raises(ParameterError):
        FieldParams(3, 1.0)
    with pytest.raises(ParameterError):
        FieldParams(4, 3.0)  # critical exponent for n=4


@pytest.mark.parametrize("n", [7, 8, 16, 33, 128])
def test_a_point_whose_upper_amplitude_denominator_rounds_to_zero_is_refused(n):
    # the largest double below (n+2)/(n-2) passes the range check, but there
    # (n+2) - p*(n-2) rounds to 0.0 and alpha_upper_star would divide by it
    p = math.nextafter((n + 2) / (n - 2), 0.0)
    assert 1.0 < p < (n + 2) / (n - 2) and (n + 2) - p * (n - 2) == 0.0
    with pytest.raises(ParameterError, match=r"^\(n\+2\) - p\*\(n-2\) = 0\.0 must be positive$"):
        FieldParams(n, p)


def test_the_amplitudes_are_computed_once_per_record_and_leave_its_identity():
    fl = FieldParams(3, 3.0)
    assert (fl._alpha_star, fl._alpha_upper_star) == (None, None)
    first = fl.alpha_star, fl.alpha_upper_star
    assert (fl._alpha_star, fl._alpha_upper_star) == first  # kept on the record
    assert (fl.alpha_star, fl.alpha_upper_star) == first
    # the closed forms, bit for bit
    assert first == (((3.0 + 1.0) / 2.0) ** (1.0 / 2.0), (2.0 * 4.0 / (5 - 3.0)) ** (1.0 / 2.0))
    assert fl == FieldParams(3, 3.0) and hash(fl) == hash(FieldParams(3, 3.0))


def test_nonlinearity_zeros_and_oddness():
    fl = FieldParams(3, 3.0)
    assert f(0.0, fl) == 0.0
    assert f(1.0, fl) == pytest.approx(0.0, abs=1e-15)
    assert f(-1.0, fl) == pytest.approx(0.0, abs=1e-15)
    assert f(2.0, fl) == 6.0
    assert f(-2.0, fl) == -6.0
    assert f_prime(0.0, fl) == -1.0
    assert f_prime(2.0, fl) == 11.0


@given(u=st.floats(min_value=-5.0, max_value=5.0), p=st.floats(min_value=1.1, max_value=4.9))
def test_f_prime_matches_finite_difference(u, p):
    fl = FieldParams(3, min(p, 4.9))
    h = 1e-6 * max(1.0, abs(u))
    if abs(u) < 0.05:  # |u|**(p-1) has unbounded curvature at the origin
        return
    fd = (f(u + h, fl) - f(u - h, fl)) / (2.0 * h)
    assert f_prime(u, fl) == pytest.approx(fd, rel=1e-5, abs=1e-5)


@given(u=st.floats(min_value=0.05, max_value=5.0))
def test_big_F_is_primitive_of_f(u):
    fl = FieldParams(3, 2.2)
    h = 1e-6 * max(1.0, u)
    fd = (big_F(u + h, fl) - big_F(u - h, fl)) / (2.0 * h)
    assert fd == pytest.approx(f(u, fl), rel=1e-6, abs=1e-8)


def test_g_maps_singular_at_origin():
    fl = FieldParams(3, 3.0)
    with pytest.raises(SingularInputError):
        g1(0.0, fl)
    with pytest.raises(SingularInputError):
        g2(0.0, fl)


def test_g_map_values():
    fl = FieldParams(3, 3.0)
    assert g1(2.0, fl) == pytest.approx(0.75, abs=1e-15)
    assert g2(2.0, fl) == pytest.approx(0.5, abs=1e-15)
    assert g1(1.0, fl) == pytest.approx(0.0, abs=1e-15)


@given(u=st.floats(min_value=0.01, max_value=8.0))
def test_g2_equals_scaled_well_over_power(u):
    fl = FieldParams(3, 2.7)
    p = fl.p
    expected = 2.0 * (p + 1.0) / (p - 1.0) * big_F(u, fl) / abs_pow(u, p + 1.0)
    assert g2(u, fl) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_tilted_well_reduces_to_plain_at_zero_tilt():
    fl = FieldParams(3, 3.0)
    for u in (-2.0, -0.5, 0.3, 1.7):
        assert big_F_a(u, 0.0, fl) == pytest.approx(big_F(u, fl), abs=1e-15)
        assert kappa_a(u, 0.0, fl) == pytest.approx(
            f(u, fl) / u if u != 0.0 else -1.0, rel=1e-14)


@given(u=st.floats(min_value=0.05, max_value=5.0),
       a=st.floats(min_value=-2.0, max_value=2.0))
def test_tilted_well_is_primitive_of_tilted_slope(u, a):
    fl = FieldParams(3, 3.0)
    h = 1e-6 * max(1.0, u)
    fd = (big_F_a(u + h, a, fl) - big_F_a(u - h, a, fl)) / (2.0 * h)
    assert fd == pytest.approx(u * kappa_a(u, a, fl), rel=1e-5, abs=1e-7)


def test_abs_pow_branches():
    assert abs_pow(0.0, 0.3) == 0.0
    assert abs_pow(-2.0, 2.0) == pytest.approx(4.0, rel=1e-15)
    assert abs_pow(-8.0, 1.0 / 3.0) == pytest.approx(2.0, rel=1e-14)
