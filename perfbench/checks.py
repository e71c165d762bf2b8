"""Correctness checks on one round of artifacts, run after the timed part.

Each ``check_<workload>`` takes the workload's inputs, the argv list and
the first round's per-operation results (exit code and artifact
directory) and returns one verdict per operation: ``None`` when the
operation passed, or the list of problems found.  The references are the
scipy oracle in ``oracle.py``, formulas written out here, and properties
the method must have.  ``KNOWN_FAULTS`` names the problems that two
operations show on every run because of faults in the program; they count
as failed operations, any other problem makes the run incorrect.
"""

from __future__ import annotations

import json
import os

import oracle

GROUND_HEIGHT_33 = 4.33738  # central height of the 3-D cubic ground state
EDGE = 1e-6  # oracle probes sit this far (relative) outside each bracket


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _num(cell: str) -> float | str | None:
    if not cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return cell


def _columns(path: str) -> dict[str, list[float | None]]:
    header, rows = read_csv(path)
    return {name: [_num(row[j]) for row in rows] for j, name in enumerate(header)}


# --- ladder ------------------------------------------------------------------

def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _point(argv: list[str]) -> tuple[int, float]:
    return int(_flag(argv, "--n")), float(_flag(argv, "--p"))


def _ladder_op(argv: list[str], rc: int, out: str, tol: float) -> list[str]:
    n, p = _point(argv)
    if rc != 0:
        return [f"exit code {rc}"]
    with open(os.path.join(out, "ladder.json"), encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    problems = []
    if [e["k"] for e in entries] != [0, 1, 2] or any(e["status"] != "ok" for e in entries):
        return [f"entries {[(e['k'], e['status']) for e in entries]}"]
    for e in entries:
        k, lo, hi = e["k"], e["alpha_lo"], e["alpha_hi"]
        if not (lo < hi and hi - lo <= tol * lo):
            problems.append(f"k={k}: bracket [{lo!r}, {hi!r}] wider than tol")
        below = oracle.node_count(n, p, lo * (1.0 - EDGE))
        above = oracle.node_count(n, p, hi * (1.0 + EDGE))
        if (below, above) != (k, k + 1):
            problems.append(f"oracle k={k}: counts ({below}, {above}) around [{lo!r}, {hi!r}]")
    for a, b in zip(entries, entries[1:]):
        if not a["alpha_hi"] < b["alpha_lo"]:
            problems.append(f"brackets k={a['k']}, k={b['k']} out of order")
    if (n, p) == (3, 3.0):
        mid = 0.5 * (entries[0]["alpha_lo"] + entries[0]["alpha_hi"])
        if abs(mid - GROUND_HEIGHT_33) > 1e-5 * GROUND_HEIGHT_33:
            problems.append(f"alpha_0 = {mid!r}, published {GROUND_HEIGHT_33}")
    return problems


def check_ladder(inputs, argvs, ops):
    from workloads import LADDER_TOL

    return [_ladder_op(argv, op["rc"], op["dir"], LADDER_TOL) or None
            for argv, op in zip(argvs, ops)]


# --- sweep -------------------------------------------------------------------

SWEEP_SUBSAMPLE = 4  # the oracle re-counts every 4th grid point


def _sweep_op(rng: dict, points: int, rc: int, out: str) -> list[str]:
    n, p = rng["n"], rng["p"]
    if rc != 0:
        return [f"exit code {rc}"]
    cols = _columns(os.path.join(out, "sweep.csv"))
    alphas, counts, z1 = cols["alpha"], cols["node_count"], cols["z_1"]
    problems = []
    if len(alphas) != points or any(c is None for c in counts):
        return [f"{len(alphas)} rows, {sum(c is None for c in counts)} without a count"]
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        problems.append("alpha grid not increasing")
    if any(b < a for a, b in zip(counts, counts[1:])):
        problems.append("node count decreases along the grid")
    upper_star = oracle.alpha_upper_star(n, p)
    if any(c != 0 for a, c in zip(alphas, counts) if a < upper_star):
        problems.append("nonzero count below alpha_upper_star")
    if any((z is None) != (c == 0) for z, c in zip(z1, counts)):
        problems.append("z_1 present without a zero, or missing with one")
    zs = [z for z in z1 if z is not None]
    if any(b >= a for a, b in zip(zs, zs[1:])):
        problems.append("z_1 not strictly decreasing in alpha")
    for i in range(0, points, SWEEP_SUBSAMPLE):
        shot = oracle.Shot(n, p, alphas[i])
        if not shot.final or shot.node_count != counts[i]:
            problems.append(f"alpha={alphas[i]!r}: count {counts[i]}, oracle {shot.node_count}")
        elif z1[i] is not None and abs(z1[i] - shot.zeros[0]) > 1e-7 * max(1.0, z1[i]):
            problems.append(f"alpha={alphas[i]!r}: z_1 {z1[i]!r}, oracle {shot.zeros[0]!r}")
    return problems


def check_sweep(inputs, argvs, ops):
    return [_sweep_op(rng, inputs["points"], op["rc"], op["dir"]) or None
            for rng, op in zip(inputs["ranges"], ops)]


# --- verify ------------------------------------------------------------------

VERIFY_CASES = 6
VERIFY_CHECKS = 18  # the core preset: every check but tail_asymptotics


def _verify_op(rc: int, out: str) -> list[str]:
    path = os.path.join(out, "verify_report.json")
    if rc not in (0, 4) or not os.path.exists(path):
        return [f"exit code {rc}, no report"]
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    records = report["records"]
    pairs = {(r["check"], r["case"]) for r in records}
    problems = []
    if (len(pairs) != len(records) or len({c for c, _ in pairs}) != VERIFY_CHECKS
            or len({c for _, c in pairs}) != VERIFY_CASES
            or len(records) != VERIFY_CHECKS * VERIFY_CASES):
        problems.append(f"{len(records)} records, {len(pairs)} distinct (check, case) pairs")
    failed = [r for r in records if r["status"] == "fail"]
    for r in failed:
        problems.append(f"{r['check']} failed on {r['case']}: {r['notes']}")
    if (rc == 0) != (not failed) or report["passed"] != (not failed):
        problems.append(f"exit code {rc} and passed={report['passed']} disagree with the records")
    return problems


def check_verify(inputs, argvs, ops):
    return [_verify_op(op["rc"], op["dir"]) or None for op in ops]


# --- solve_export ------------------------------------------------------------

STATE_R_MAX = 20.0  # radii compared with the oracle
STATE_SAMPLES = 40
STATE_TOL = 1e-7  # relative to the component's largest magnitude on r <= 20


def _state_problems(cols, shot) -> list[str]:
    rs = cols["r"]
    idx = [i for i, r in enumerate(rs) if r <= STATE_R_MAX]
    picks = idx[:: max(1, len(idx) // STATE_SAMPLES)]
    problems = []
    for c, name in enumerate(("u", "up", "v", "vp")):
        scale = max(1.0, max(abs(cols[name][i]) for i in idx))
        worst = max(abs(cols[name][i] - shot.state(rs[i])[c]) for i in picks)
        if worst > STATE_TOL * scale:
            problems.append(f"{name} differs from the oracle by {worst:.3g} (scale {scale:.3g})")
    return problems


def _trajectory_problems(cols, n: int, p: float) -> list[str]:
    rs, u, up = cols["r"], cols["u"], cols["up"]
    problems = []
    if any(b <= a for a, b in zip(rs, rs[1:])):
        problems.append("r not strictly increasing")
    energy = [oracle.energy(a, b, p) for a, b in zip(u, up)]
    rise = max(b - a - 1e-9 * max(1.0, abs(a)) for a, b in zip(energy, energy[1:]))
    if rise > 0.0:
        problems.append(f"energy rises by {rise:.3g} beyond tolerance")
    return problems


def _functional_problems(cols, n: int, p: float) -> list[str]:
    problems = []
    for i, (r, u, up, v, vp) in enumerate(zip(cols["r"], cols["u"], cols["up"], cols["v"], cols["vp"])):
        rn, rn1 = r ** n, r ** (n - 1)
        fu = oracle.f(u, p)
        want = {
            "E": (0.5 * up * up + oracle.big_f(u, p),
                  0.5 * up * up + 0.5 * u * u + abs(u) ** (p + 1.0) / (p + 1.0)),
            # f(u) = |u|^(p-1) u - u cancels near |u| = 1, so its size is
            # taken before the cancellation
            "Q": (rn * (up * vp + fu * v) + (n - 2) * rn1 * up * v,
                  rn * (abs(up * vp) + (abs(u) ** p + abs(u)) * abs(v))
                  + (n - 2) * rn1 * abs(up * v)),
            "M": (rn1 * (up * v - u * vp), rn1 * (abs(up * v) + abs(u * vp))),
        }
        for name, (value, size) in want.items():
            if abs(cols[name][i] - value) > 1e-12 * size + 1e-300:
                problems.append(f"{name} at r={r!r}: {cols[name][i]!r}, formula {value!r}")
        if len(problems) > 5:
            break
    return problems


def check_solve_export(inputs, argvs, ops):
    verdicts = []
    shots = {}
    for argv, op in zip(argvs, ops):
        n, p = _point(argv)
        alpha = float(_flag(argv, "--alpha"))
        if op["rc"] != 0:
            verdicts.append([f"exit code {op['rc']}"])
            continue
        key = (n, p, alpha)
        if key not in shots:
            shots[key] = oracle.Shot(n, p, alpha, stop_on_energy=False, dense=True)
        shot = shots[key]
        name = argv[0]
        cols = _columns(os.path.join(op["dir"], f"{name}.csv"))
        problems = _trajectory_problems(cols, n, p) + _state_problems(cols, shot)
        if name == "solve":
            with open(os.path.join(op["dir"], "solve.portrait.json"), encoding="utf-8") as fh:
                zeros = [z["r"] for z in json.load(fh)["portrait"]["zeros_u"]]
            if len(zeros) != len(shot.zeros):
                problems.append(f"{len(zeros)} zeros, oracle {len(shot.zeros)}")
            elif any(abs(a - b) > 1e-7 * max(1.0, a) for a, b in zip(zeros, shot.zeros)):
                problems.append("zero radii differ from the oracle")
        else:
            problems += _functional_problems(cols, n, p)
        verdicts.append(problems or None)
    return verdicts


CHECKS = {
    "ladder": check_ladder,
    "sweep": check_sweep,
    "verify": check_verify,
    "solve_export": check_solve_export,
}


def _ladder_series_start(argv, problems):
    # (3, 4): r0 = 1e-6*alpha is too large for the core at alpha_2 ~ 99.5,
    # so the k=2 bracket sits 2.5e-5 above the oracle's jump.
    return _point(argv) == (3, 4.0) and len(problems) == 1 \
        and problems[0].startswith("oracle k=2:")


def _verify_pohozaev_scale(argv, problems):
    # p < 2: pohozaev_scaled is 0 = 0 up to roundoff on the constant shot,
    # and normalising by its own largest value makes the residual 1.
    return len(problems) == 1 and problems[0].startswith(
        "identity_residuals failed on Explicit(alpha=1,") and "pohozaev_scaled: 1" in problems[0]


KNOWN_FAULTS = {
    "ladder": _ladder_series_start,
    "verify": _verify_pohozaev_scale,
}


def is_known_fault(workload: str, argv: list[str], problems: list[str]) -> bool:
    rule = KNOWN_FAULTS.get(workload)
    return rule is not None and rule(argv, problems)
