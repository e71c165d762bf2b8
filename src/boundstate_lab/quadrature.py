"""Adaptive Gauss-Kronrod quadrature on open panels.

A 7-point Gauss rule embedded in a 15-point Kronrod extension supplies the
panel value and an error estimate from the difference of the two.  Panels
with the worst estimates are bisected until the summed estimate falls under
the requested relative tolerance.  All nodes are interior, so integrands
may be singular (or merely undefined) at the panel endpoints.
"""

from __future__ import annotations

from typing import Callable

_MAX_PANELS = 4000  # panels before adaptive_quadrature gives up

# 15-point Kronrod abscissae on [-1, 1] (positive half; rule is symmetric).
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)

_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)

# 7-point Gauss weights; its nodes are _XK[1], _XK[3], _XK[5], _XK[7].
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


class QuadratureError(RuntimeError):
    """Refinement budget exhausted before the tolerance was met."""


def kronrod_panel(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(Kronrod value, |Kronrod - Gauss|) over one panel."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fk = 0.0
    fg = 0.0
    for i, x in enumerate(_XK):
        if x == 0.0:
            val = fn(mid)
            fk += _WK[i] * val
            fg += _WG[3] * val
            continue
        lo = fn(mid - half * x)
        hi = fn(mid + half * x)
        fk += _WK[i] * (lo + hi)
        if i % 2 == 1:
            fg += _WG[i // 2] * (lo + hi)
    return fk * half, abs(fk - fg) * half


def adaptive_quadrature(
    fn: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
) -> tuple[float, float]:
    """Integral of fn over (a, b) with summed error under rel_tol * |value|.

    Returns (value, error_estimate).  Deterministic: the worst panel is
    always split first, ties broken by position.
    """
    if not b > a:
        return 0.0, 0.0
    value, err = kronrod_panel(fn, a, b)
    panels = [(a, b, value, err)]
    while len(panels) < _MAX_PANELS:
        total = sum(p[2] for p in panels)
        total_err = sum(p[3] for p in panels)
        if total_err <= max(rel_tol * abs(total), 1e-300):
            return total, total_err
        worst = max(range(len(panels)), key=lambda i: (panels[i][3], -panels[i][0]))
        lo, hi, _, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        panels.append((lo, mid) + kronrod_panel(fn, lo, mid))
        panels.append((mid, hi) + kronrod_panel(fn, mid, hi))
    raise QuadratureError(f"no convergence after {_MAX_PANELS} panels on ({a}, {b})")
