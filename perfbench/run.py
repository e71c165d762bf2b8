"""Benchmark of the boundstate-lab shooting pipeline through its command line.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` all four workloads run one after another.  For
each workload the inputs are drawn from the seed and up to two passes run,
each in a fresh worker process that runs whole rounds of operations for at
least S seconds (see worker.py):

- the timed pass, with tracing off, gives the end-to-end metrics; fresh
  processes before and after it time the set-up.  The times in these
  metrics are given at a reference speed, so that a host whose speed
  drifts by tens of percent within minutes still gives steady figures.
  An operation's time is multiplied by REFERENCE_SLICE_S over the mean
  time of the speed sampler's kernel slices that ran inside it
  (worker.py).  A set-up time is multiplied by REFERENCE_STARTUP_S over
  the time of a fresh interpreter that imports numpy, started just before
  it.  The unscaled medians are printed beside them;
- the traced pass runs every operation untraced and then under the span
  tracer (spans.py) and gives the per-layer metrics.

Both passes run by default.  ``--trace 0`` runs only the timed pass and
``--trace 1`` only the traced one, so that each can be timed on its own.
The first round's artifacts are then checked against the scipy oracle and
the method's properties (checks.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5  # fresh processes before the timed pass, and as many after it
TIME_LIMIT = 170.0  # seconds for one pass of one workload, set-up and checks included
# The reference speed: one kernel slice (worker.SLICE_ITERS) takes this long,
# and so does a fresh interpreter that imports numpy, the program's dependency.
REFERENCE_SLICE_S = 0.0005
REFERENCE_STARTUP_S = 0.15
STARTUP_REFERENCE = (sys.executable, "-c", "import numpy")


def _program_present() -> bool:
    return os.path.isfile(os.path.join(os.getcwd(), "src", "boundstate_lab", "cli.py"))


def _spawn(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, WORKER, *args], capture_output=True, text=True,
                          check=True, timeout=max(1.0, deadline - time.monotonic()))


def _startup(deadline: float) -> float:
    """Seconds for a fresh interpreter to import numpy and exit."""
    t0 = time.monotonic()
    subprocess.run(STARTUP_REFERENCE, check=True, timeout=max(1.0, deadline - time.monotonic()))
    return time.monotonic() - t0


def _setup_probes(spec: str, deadline: float) -> list[tuple[float, float]]:
    """(set-up seconds, startup reference seconds) of SETUP_PROBES fresh processes."""
    probes = []
    for _ in range(SETUP_PROBES):
        reference = _startup(deadline)
        out = _spawn(["setup", spec, repr(time.monotonic())], deadline).stdout
        probes.append((json.loads(out)["setup_s"], reference))
    return probes


def _scaled(timed: dict, fallback: float) -> float:
    """A time at the reference speed, from the kernel slices that ran inside it.

    A time that holds no slice is scaled by ``fallback``, a mean slice time.
    """
    slice_mean = timed["slice_s"] / timed["slices"] if timed["slices"] else fallback
    return timed["seconds"] * REFERENCE_SLICE_S / slice_mean


def _scaled_rounds(rounds: list[dict]) -> list[list[float]]:
    """Each operation's latency at the reference speed, round by round."""
    out = []
    for rnd in rounds:
        count = sum(op["slices"] for op in rnd["ops"])
        fallback = sum(op["slice_s"] for op in rnd["ops"]) / count if count else REFERENCE_SLICE_S
        out.append([_scaled(op, fallback) for op in rnd["ops"]])
    return out


def run_workload(name: str, seed: int, seconds: int, passes: tuple[bool, ...]) -> dict:
    """Run the passes (False: timed, True: traced) of one workload and check it."""
    deadline = time.monotonic() + TIME_LIMIT * len(passes)
    work = os.path.join(HERE, "_work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    metrics, samples, unscaled = {}, {}, {}
    problems, rounds_run, spans, verdicts = [], 0, None, None
    try:
        inputs = workloads.draw(name, seed)
        spec = os.path.join(work, "inputs.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "inputs": inputs}, fh)

        for traced in passes:
            label = "traced" if traced else "timed"
            pass_dir = os.path.join(work, label)
            os.makedirs(pass_dir)
            setup = [] if traced else _setup_probes(spec, deadline)
            reference = _startup(deadline)
            _spawn(["run", spec, repr(time.monotonic()), pass_dir, str(seconds),
                    "1" if traced else "0"], deadline)
            with open(os.path.join(pass_dir, "result.json"), encoding="utf-8") as fh:
                result = json.load(fh)
            rounds = result["rounds"]
            rounds_run += len(rounds)
            problems += [f"not deterministic in the {label} pass: {m}"
                         for m in result["determinism_mismatches"]]
            if traced:
                metrics.update(result["layers"])
                spans = (result["spans"], os.path.relpath(result["spans_file"]))
            else:
                setup += [(result["setup_s"], reference)] + _setup_probes(spec, deadline)
                scaled = _scaled_rounds(rounds)
                latencies = [dt for ops in scaled for dt in ops]
                metrics.update({
                    "wall_s": {"value": statistics.median(sum(ops) for ops in scaled),
                               "unit": "s"},
                    "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
                    "setup_s": {"value": statistics.median(
                        t * REFERENCE_STARTUP_S / ref for t, ref in setup), "unit": "s"},
                    "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
                })
                samples = {"wall_s": len(rounds), "op_p50_s": len(latencies),
                           "setup_s": len(setup)}
                ops = [op for r in rounds for op in r["ops"]]
                unscaled = {
                    "wall_s": statistics.median(r["wall_s"] for r in rounds),
                    "op_p50_s": statistics.median(op["seconds"] for op in ops),
                    "setup_s": statistics.median(t for t, _ in setup),
                    "slice_s": sum(op["slice_s"] for op in ops) / max(1, sum(op["slices"] for op in ops)),
                    "startup_s": statistics.median(ref for _, ref in setup),
                }
            if verdicts is None:  # check the first pass's first round
                argvs, first_ops = result["argvs"], rounds[0]["ops"]
                first = [{"rc": op["rc"], "dir": os.path.join(pass_dir, "r0", f"op{i}")}
                         for i, op in enumerate(first_ops)]
                verdicts = checks.CHECKS[name](inputs, argvs, first)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    known = []
    for argv, op, found in zip(argvs, first_ops, verdicts):
        if not found:
            continue
        if checks.is_known_fault(name, argv, found):
            known.append(f"{' '.join(argv)}: {found[0]}")
        else:
            problems += [f"{' '.join(argv)}: {p}" for p in found]
            if op["error"]:
                problems.append(op["error"])
    failed_per_round = sum(1 for found in verdicts if found)
    return {
        "workload": name,
        "seed": seed,
        "rounds": rounds_run,
        "ops_per_round": len(argvs),
        "correct": not problems,
        "attempted": rounds_run * len(argvs),
        "failed": rounds_run * failed_per_round,
        "problems": problems,
        "known_faults": known,
        "samples": samples,
        "unscaled": unscaled,
        "spans": spans,
        "metrics": metrics,
    }


def report(summary: dict) -> None:
    print(f"== {summary['workload']} (seed {summary['seed']}): {summary['rounds']} round(s) of "
          f"{summary['ops_per_round']} operation(s); attempted {summary['attempted']}, "
          f"failed {summary['failed']}, correct {str(summary['correct']).lower()}")
    for name, m in summary["metrics"].items():
        count = summary["samples"].get(name)
        note = (f"  (median of {count}; unscaled {summary['unscaled'][name]:.6g} {m['unit']})"
                if count else "")
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{note}")
    if summary["unscaled"]:
        print(f"  {'speed sampler':36s} {summary['unscaled']['slice_s'] * 1e3:.6g} ms per slice "
              f"(reference {REFERENCE_SLICE_S * 1e3:g} ms)")
        print(f"  {'startup reference':36s} {summary['unscaled']['startup_s']:.6g} s "
              f"(reference {REFERENCE_STARTUP_S:g} s)")
    if summary["spans"]:
        print("  {} spans written to {}".format(*summary["spans"]))
    for fault in summary["known_faults"]:
        print(f"  failed (known fault): {fault}")
    for problem in summary["problems"]:
        print(f"  PROBLEM: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: timed pass only, 1: traced pass only (default: both)")
    args = parser.parse_args()
    if not _program_present():
        print("perfbench: run from the repository root; src/boundstate_lab is missing",
              file=sys.stderr)
        return 2
    passes = (False, True) if args.trace is None else (args.trace == 1,)
    names = [args.workload] if args.workload else list(workloads.NAMES)
    summaries = []
    for name in names:
        summaries.append(run_workload(name, args.seed, args.seconds, passes))
        report(summaries[-1])
    if args.workload:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
