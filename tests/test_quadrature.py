"""Quadrature tests: panel exactness, adaptive refinement, determinism."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boundstate_lab import quadrature
from boundstate_lab.quadrature import QuadratureError, adaptive_quadrature, kronrod_panel


def test_panel_is_exact_on_low_degree_polynomials():
    # the embedded Gauss rule is exact through degree 13, Kronrod beyond
    value, err = kronrod_panel(lambda x: 5.0 * x**7 - x**3 + 2.0, 0.0, 2.0)
    exact = 5.0 * 2.0**8 / 8.0 - 2.0**4 / 4.0 + 4.0
    assert value == pytest.approx(exact, rel=1e-14)
    assert err < 1e-12


def test_adaptive_oscillatory_integral():
    # tolerance is relative, so the target integrals must be nonzero
    value, _ = adaptive_quadrature(math.sin, 0.0, math.pi, rel_tol=1e-12)
    assert value == pytest.approx(2.0, rel=1e-12)
    value2, _ = adaptive_quadrature(math.sin, 0.0, 1.5 * math.pi, rel_tol=1e-12)
    assert value2 == pytest.approx(1.0, rel=1e-11)


def test_adaptive_rational_integral():
    value, err = adaptive_quadrature(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)
    assert value == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert err <= 1e-10 * abs(value) + 1e-15


def test_empty_and_reversed_ranges_integrate_to_zero():
    assert adaptive_quadrature(math.exp, 1.0, 1.0) == (0.0, 0.0)
    assert adaptive_quadrature(math.exp, 2.0, 1.0) == (0.0, 0.0)


def test_needle_integrand_forces_refinement():
    # mass concentrated near x = 0.3; a single panel misses it badly
    fn = lambda x: math.exp(-((x - 0.3) ** 2) / 1e-6)
    value, err = adaptive_quadrature(fn, 0.0, 1.0, rel_tol=1e-10)
    exact = math.sqrt(math.pi) * 1e-3
    assert value == pytest.approx(exact, rel=1e-9)


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    fn = lambda x: math.sin(1.0 / max(x, 1e-300))
    with pytest.raises(QuadratureError, match="after 8 panels"):
        adaptive_quadrature(fn, 0.0, 1.0, rel_tol=1e-14)


def test_adaptive_is_deterministic():
    fn = lambda x: math.exp(-x) * math.cos(7.0 * x)
    a = adaptive_quadrature(fn, 0.0, 5.0, rel_tol=1e-11)
    b = adaptive_quadrature(fn, 0.0, 5.0, rel_tol=1e-11)
    assert a == b


@given(deg=st.integers(min_value=0, max_value=6),
       lo=st.floats(min_value=-3.0, max_value=0.0),
       span=st.floats(min_value=0.1, max_value=4.0))
def test_adaptive_matches_monomial_antiderivative(deg, lo, span):
    hi = lo + span
    value, _ = adaptive_quadrature(lambda x: x**deg, lo, hi, rel_tol=1e-12)
    exact = (hi ** (deg + 1) - lo ** (deg + 1)) / (deg + 1)
    assert value == pytest.approx(exact, rel=1e-10, abs=1e-12)
