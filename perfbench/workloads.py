"""Workload definitions: parameter points, seeded draws and argv lists.

``draw`` turns a seed into the workload's inputs (plain JSON data) and may
call the oracle to keep drawn heights away from jump amplitudes; ``argvs``
turns those inputs into one ``boundstate_lab.cli.main`` argv per operation.
``argvs`` imports nothing heavy because it runs inside the timed set-up.
"""

from __future__ import annotations

import math
import random

NAMES = ("ladder", "sweep", "verify", "solve_export")

# (n, p) points across the subcritical range.  (3, 4) carries the
# series-start fault: alpha_2 comes out 2.5e-5 (relative) too high.
LADDER_POINTS = ((3, 3.0), (3, 1.5), (4, 2.0), (5, 1.6), (3, 4.0))
LADDER_TOL = 1e-10

# (3, 1.25) is the n = 3, p < 2 point: its ground bracket has a nonempty
# bridge range (so bridge_integral and quadrature run), and the constant
# shot alpha = 1 trips the identity-residual normalisation fault.
VERIFY_POINTS = ((3, 3.0), (3, 1.25))

# Sweep ranges (base endpoints, each spanning alpha_0 and alpha_1) and the
# grid size per range.  The seed moves each endpoint by up to 1 percent.
SWEEP_RANGES = (((3, 3.0), 0.5, 16.0), ((3, 1.5), 0.5, 11.0), ((4, 2.0), 1.0, 40.0))
SWEEP_POINTS = 16
SWEEP_JITTER = 0.01

# Full-range shots: two heights in each of the intervals
# (alpha_upper_star, alpha_0) and (alpha_0, alpha_1).
SOLVE_POINTS = ((3, 3.0), (3, 1.5), (4, 2.0))
SOLVE_FRACTIONS = (1.0 / 3.0, 2.0 / 3.0)
SOLVE_JITTER = 0.02  # of the interval's log width
AUX_COLUMNS = ("E", "E_hat", "P", "P1", "P2", "omega", "rho", "Q", "Q1", "Q2",
               "Qn", "M", "T1", "T2", "B0", "phi_n", "varpi")

# A drawn height must sit at least this far (relative) from every jump
# bracket located by the oracle.
JUMP_CLEARANCE = 1e-6

# Index of the operation each run repeats after timing to compare bytes.
REPEAT_OP = {"ladder": 0, "sweep": 1, "verify": 1, "solve_export": 1}


def _clear_of_jumps(alpha: float, brackets) -> bool:
    return all(not (lo * (1 - JUMP_CLEARANCE) <= alpha <= hi * (1 + JUMP_CLEARANCE))
               for lo, hi in brackets)


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def draw(name: str, seed: int) -> dict:
    """The workload's inputs for this seed, as JSON-ready data."""
    if name == "ladder":
        return {"points": [list(pt) for pt in LADDER_POINTS]}
    if name == "verify":
        return {"points": [list(pt) for pt in VERIFY_POINTS]}
    from oracle import alpha_upper_star, jump_brackets

    rng = random.Random(seed)
    if name == "sweep":
        ranges = []
        for (n, p), lo0, hi0 in SWEEP_RANGES:
            brackets = jump_brackets(n, p, 1)
            while True:
                lo = lo0 * (1.0 + SWEEP_JITTER * rng.uniform(-1.0, 1.0))
                hi = hi0 * (1.0 + SWEEP_JITTER * rng.uniform(-1.0, 1.0))
                # the grid cmd_sweep builds is numpy.linspace; this one may
                # differ in the last bit, which the clearance absorbs
                if all(_clear_of_jumps(a, brackets) for a in _linspace(lo, hi, SWEEP_POINTS)):
                    break
            ranges.append({"n": n, "p": p, "lo": lo, "hi": hi})
        return {"ranges": ranges, "points": SWEEP_POINTS}
    if name == "solve_export":
        shots = []
        for n, p in SOLVE_POINTS:
            brackets = jump_brackets(n, p, 1)
            edges = [alpha_upper_star(n, p)]
            edges += [x for br in brackets for x in br]
            for lo, hi in zip(edges[0::2], edges[1::2]):
                width = math.log(hi / lo)
                for frac in SOLVE_FRACTIONS:
                    while True:
                        pos = frac + SOLVE_JITTER * rng.uniform(-1.0, 1.0)
                        alpha = lo * math.exp(pos * width)
                        if _clear_of_jumps(alpha, brackets):
                            break
                    shots.append({"n": n, "p": p, "alpha": alpha})
        return {"shots": shots}
    raise ValueError(f"unknown workload {name!r}")


def _np(n: int, p: float) -> list[str]:
    return ["--n", str(n), "--p", repr(float(p))]


def argvs(name: str, inputs: dict) -> list[list[str]]:
    """One cli argv per operation, in round order."""
    if name == "ladder":
        return [["ladder", *_np(n, p), "--k", "0..2", "--tol", repr(LADDER_TOL)]
                for n, p in inputs["points"]]
    if name == "verify":
        return [["verify", *_np(n, p), "--preset", "core"] for n, p in inputs["points"]]
    if name == "sweep":
        return [["sweep", *_np(r["n"], r["p"]), "--alpha-range",
                 f"{r['lo']!r}..{r['hi']!r}", "--points", str(inputs["points"])]
                for r in inputs["ranges"]]
    if name == "solve_export":
        out = []
        for s in inputs["shots"]:
            head = _np(s["n"], s["p"]) + ["--alpha", repr(s["alpha"])]
            out.append(["solve", *head])
            out.append(["export", *head, "--functionals", ",".join(AUX_COLUMNS)])
        return out
    raise ValueError(f"unknown workload {name!r}")
