"""Bracket ends against two independent scipy oracles: DOP853 and Radau.

The oracle shares no code with the package: its own fourth-order Taylor
start, inside the core length alpha**(-(p-1)/2) at any height, then scipy's
``solve_ivp`` to the radius where the energy first drops to zero, from
where on the node count is final.  The package marches with DOP853 too, so
the implicit Radau IIA method (order 5, its own step control, at rel 1e-13)
counts every bracket end as well: the two oracles share no method family.
At both points alpha_2 lies at heights where the series start has to shrink
below its default radius.
"""

import pytest

from boundstate_lab import FieldParams, IntegratorControls, ProblemParams, find_alpha_k, series_start

scipy_integrate = pytest.importorskip("scipy.integrate")


# solve_ivp method and its (rtol, atol)
ORACLES = {"DOP853": (1e-12, 1e-14), "Radau": (1e-13, 1e-15)}


def oracle_node_count(n: int, p: float, alpha: float, r_max: float = 100.0,
                      method: str = "DOP853") -> int:
    r0 = 1e-3 * min(1.0, alpha ** (-(p - 1.0) / 2.0))
    fa = alpha**p - alpha
    fpa = p * alpha ** (p - 1.0) - 1.0
    a2 = -fa / (2.0 * n)
    a4 = -fpa * a2 / (4.0 * (n + 2))
    y0 = [alpha + a2 * r0**2 + a4 * r0**4, 2.0 * a2 * r0 + 4.0 * a4 * r0**3]

    def rhs(r, y):
        u, up = y
        return [up, -(n - 1.0) / r * up - (abs(u) ** (p - 1.0) - 1.0) * u]

    def zero_u(r, y):
        return y[0]

    def trapped(r, y):
        u, up = y
        return 0.5 * up * up - 0.5 * u * u + abs(u) ** (p + 1.0) / (p + 1.0)

    def jac(r, y):
        return [[0.0, 1.0], [1.0 - p * abs(y[0]) ** (p - 1.0), -(n - 1.0) / r]]

    trapped.terminal = True
    trapped.direction = -1.0
    rtol, atol = ORACLES[method]
    options = {"jac": jac} if method == "Radau" else {}
    sol = scipy_integrate.solve_ivp(rhs, (r0, r_max), y0, method=method, rtol=rtol,
                                    atol=atol, max_step=0.5, events=(zero_u, trapped),
                                    **options)
    assert sol.status == 1 and len(sol.t_events[1]) == 1, "oracle shot never trapped"
    return len(sol.t_events[0])


@pytest.mark.parametrize("n, p, k", [(3, 4.0, 2), (6, 1.9, 2)])
def test_large_height_bracket_matches_the_oracle(n, p, k):
    entry = find_alpha_k(FieldParams(n, p), k, tol=1e-10)
    assert (entry.nodes_lo, entry.nodes_hi) == (k, k + 1)
    assert oracle_node_count(n, p, entry.alpha_lo * (1.0 - 1e-8)) == k
    assert oracle_node_count(n, p, entry.alpha_hi * (1.0 + 1e-8)) == k + 1


@pytest.mark.parametrize("n, p, k", [(3, 3.0, 0), (3, 4.0, 2)])
def test_bracket_ends_match_the_radau_oracle(n, p, k):
    entry = find_alpha_k(FieldParams(n, p), k, tol=1e-10)
    assert (entry.nodes_lo, entry.nodes_hi) == (k, k + 1)
    assert oracle_node_count(n, p, entry.alpha_lo * (1.0 - 1e-8), method="Radau") == k
    assert oracle_node_count(n, p, entry.alpha_hi * (1.0 + 1e-8), method="Radau") == k + 1


def test_ladder_at_3_4_gives_the_oracle_alpha_2():
    entry = find_alpha_k(FieldParams(3, 4.0), 2, tol=1e-10)
    assert entry.midpoint == pytest.approx(99.52088518, rel=1e-9)


def _dropped_terms(field: FieldParams, alpha: float, r0: float) -> tuple[float, float]:
    n, p = field.n, field.p
    f = alpha**p - alpha
    fp = p * alpha ** (p - 1.0) - 1.0
    fpp = p * (p - 1.0) * alpha ** (p - 2.0)
    scale = r0**4 / (8.0 * n * (n + 2))
    return abs(f * fp) * scale, abs(fp * fp + fpp * f) * scale


@pytest.mark.parametrize("n, p", [(3, 3.0), (3, 4.0), (3, 1.25), (6, 1.9), (5, 1.6)])
def test_default_series_start_keeps_the_dropped_terms_within_abs_tol(n, p):
    field = FieldParams(n, p)
    ctrl = IntegratorControls()
    for alpha in (0.5, 1.5, 7.0, 30.0, 100.0, 1e3, 1e5):
        r0 = series_start(ProblemParams(field, alpha)).r
        old = 1e-6 * max(1.0, alpha)
        assert max(_dropped_terms(field, alpha, r0)) <= ctrl.abs_tol * (1.0 + 1e-9)
        if max(_dropped_terms(field, alpha, old)) <= ctrl.abs_tol:
            assert r0 == old  # the shot is the one it always was
        else:
            assert r0 < old
            assert max(_dropped_terms(field, alpha, r0)) == pytest.approx(ctrl.abs_tol, rel=1e-9)
    # an explicit r0 is taken as given
    assert series_start(ProblemParams(field, 100.0, IntegratorControls(r0=1e-4))).r == 1e-4
