"""Independent reference integrator for the radial field equation.

Shares no code with ``boundstate_lab``: scipy's ``solve_ivp`` with the
DOP853 method marches (u, u', v, v') for

    u'' + (n-1)/r u' + f(u) = 0,   f(u) = |u|^(p-1) u - u,
    v'' + (n-1)/r v' + f'(u) v = 0,

from a fourth-order Taylor start at a radius scaled by the core length
``alpha**(-(p-1)/2)``, so the start stays inside the core at any height.
Its own events locate the zeros of u and the radius where the energy
``E = u'^2/2 + F(u)`` first drops to zero; from there on the profile is
trapped in the well and its node count is final.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-12
ATOL = 1e-14
MAX_STEP = 0.5  # far below the trapped oscillation period (~2*pi/sqrt(p-1))


def f(u: float, p: float) -> float:
    return abs(u) ** (p - 1.0) * u - u


def big_f(u: float, p: float) -> float:
    return abs(u) ** (p + 1.0) / (p + 1.0) - 0.5 * u * u


def energy(u: float, up: float, p: float) -> float:
    return 0.5 * up * up + big_f(u, p)


def alpha_upper_star(n: int, p: float) -> float:
    """Height below which no shot has a sign change (dilation identity)."""
    return (2.0 * (p + 1.0) / ((n + 2) - p * (n - 2))) ** (1.0 / (p - 1.0))


def _start(n: int, p: float, alpha: float) -> tuple[float, list[float]]:
    core = alpha ** (-(p - 1.0) / 2.0)
    r0 = 1e-3 * min(1.0, core)
    fa = f(alpha, p)
    fpa = p * alpha ** (p - 1.0) - 1.0
    fppa = p * (p - 1.0) * alpha ** (p - 2.0)
    a2 = -fa / (2.0 * n)
    a4 = -fpa * a2 / (4.0 * (n + 2))
    b2 = -fpa / (2.0 * n)
    b4 = -(fppa * a2 + fpa * b2) / (4.0 * (n + 2))
    r2 = r0 * r0
    y0 = [
        alpha + a2 * r2 + a4 * r2 * r2,
        2.0 * a2 * r0 + 4.0 * a4 * r2 * r0,
        1.0 + b2 * r2 + b4 * r2 * r2,
        2.0 * b2 * r0 + 4.0 * b4 * r2 * r0,
    ]
    return r0, y0


class Shot:
    """One reference shot from height alpha."""

    def __init__(self, n: int, p: float, alpha: float, r_max: float = 100.0,
                 stop_on_energy: bool = True, dense: bool = False):
        self.n, self.p, self.alpha = n, p, alpha
        drag_c = n - 1.0
        pm1 = p - 1.0

        def rhs(r, y):
            u, up, v, vp = y
            apw = abs(u) ** pm1
            drag = drag_c / r
            return [up, -drag * up - (apw - 1.0) * u,
                    vp, -drag * vp - (p * apw - 1.0) * v]

        def zero_u(r, y):
            return y[0]

        def trapped(r, y):
            return energy(y[0], y[1], p)

        trapped.terminal = stop_on_energy
        trapped.direction = -1.0

        r0, y0 = _start(n, p, alpha)
        self.trapped_at_start = stop_on_energy and energy(y0[0], y0[1], p) <= 0.0
        if self.trapped_at_start:
            self.zeros = []
            self.trap_r = r0
            self.sol = None
            return
        sol = solve_ivp(rhs, (r0, r_max), y0, method="DOP853", rtol=RTOL,
                        atol=ATOL, max_step=MAX_STEP, events=(zero_u, trapped),
                        dense_output=dense)
        if sol.status < 0:
            raise RuntimeError(f"oracle shot failed at alpha={alpha}: {sol.message}")
        self.sol = sol
        self.zeros = [float(z) for z in sol.t_events[0]]
        trap = sol.t_events[1]
        self.trap_r = float(trap[0]) if len(trap) else None

    @property
    def final(self) -> bool:
        return self.trap_r is not None

    @property
    def node_count(self) -> int:
        return len(self.zeros)

    def state(self, r: float) -> np.ndarray:
        return self.sol.sol(r)


def node_count(n: int, p: float, alpha: float) -> int:
    """Final node count; raises if the shot is still undecided at r = 100."""
    shot = Shot(n, p, alpha)
    if not shot.final:
        raise RuntimeError(f"oracle count undecided at alpha={alpha} (n={n}, p={p})")
    return shot.node_count


def jump_brackets(n: int, p: float, k_max: int, rel_width: float = 1e-4) -> list[tuple[float, float]]:
    """Brackets [lo, hi] of relative width <= rel_width around alpha_0..alpha_k_max.

    The node count is k at lo and k+1 at hi; each search starts at the
    previous bracket and doubles outward, then bisects.
    """
    out = []
    lo = alpha_upper_star(n, p) * (1.0 + 1e-6)
    count_lo = node_count(n, p, lo)
    for k in range(k_max + 1):
        if count_lo > k:
            raise RuntimeError(f"count {count_lo} exceeds {k} at alpha={lo}")
        hi = lo * 2.0
        while (c := node_count(n, p, hi)) <= k:
            lo, count_lo = hi, c
            hi *= 2.0
        while hi - lo > rel_width * lo:
            mid = math.sqrt(lo * hi)
            c = node_count(n, p, mid)
            if c <= k:
                lo, count_lo = mid, c
            else:
                hi = mid
        out.append((lo, hi))
        lo, count_lo = hi, node_count(n, p, hi)
    return out
