"""Fresh process that imports boundstate_lab and runs one workload's operations.

    python3 perfbench/worker.py setup INPUTS SPAWN_T
    python3 perfbench/worker.py run INPUTS SPAWN_T WORK_DIR SECONDS TRACE

INPUTS is the JSON file ``run.py`` wrote (workload name and drawn inputs);
SPAWN_T is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start, the package import and
building the argv list.  ``setup`` prints that time and exits.  ``run``
then runs whole rounds of the operations (one ``cli.main`` call each,
artifacts moved to WORK_DIR/r<round>/op<index>) until SECONDS have passed,
reads its peak resident set, repeats one operation to compare bytes, and
writes WORK_DIR/result.json.  With TRACE=1 each operation also runs a
second time under the span tracer and the per-layer figures go into the
result.

In the timed pass a speed sampler runs a short fixed kernel every 20 ms of
wall time from a timer signal.  Each operation's time is reported without
the slices that fell inside it, together with their count and total, so
that run.py can express it at a reference speed.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

OUTDIR_ENV = "BOUNDSTATE_LAB_OUTDIR"
SLICE_ITERS = 3000  # one kernel slice: 0.5 ms at the reference speed (see run.py)
SLICE_PERIOD_S = 0.02


def _kernel(iters: int) -> float:
    """A fixed pure-Python float loop that shares no code with the program."""
    acc, x = 0.0, 0.5
    for _ in range(iters):
        x = 3.7 * x * (1.0 - x)
        acc += abs(x - 0.5) ** 1.5
    return acc


class SpeedSampler:
    """Times one kernel slice every SLICE_PERIOD_S of wall time.

    The program is pure-Python float code, and the host's speed changes by
    tens of percent within minutes, moving the slices' time and the
    program's together.  Slices run from a SIGALRM handler, so they sample
    the speed all through an operation rather than only between operations.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel(SLICE_ITERS)
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def between(self, t0: float, t1: float) -> tuple[int, float]:
        """Count and total seconds of the slices that started in [t0, t1)."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        return hi - lo, sum(self.took[lo:hi])


def _digest(directory: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _run_op(cli, argv: list[str], work_dir: str, dest: str, sampler=None) -> dict:
    """One cli.main call: its seconds, exit code (None if it raised) and error text.

    With a sampler, the seconds leave out the kernel slices run inside the
    call, and ``slices``/``slice_s`` give their count and total.

    Every operation writes into the same WORK_DIR/out, since artifacts echo
    their output path; the directory is then moved to ``dest``.
    """
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(out_dir)
    os.environ[OUTDIR_ENV] = out_dir
    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # an escaped exception is a failed operation
            rc = None
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    with open(os.path.join(out_dir, "stdout.txt"), "w", encoding="utf-8") as fh:
        fh.write(stdout.getvalue())
    os.makedirs(os.path.dirname(dest), exist_ok=True)
    os.rename(out_dir, dest)
    if rc != 0:
        error = (error + "\n" + stderr.getvalue()).strip()[-2000:]
    slices, slice_s = sampler.between(t0, t1) if sampler else (0, 0.0)
    return {"seconds": t1 - t0 - slice_s, "slices": slices, "slice_s": slice_s,
            "rc": rc, "error": error}


def _rounds(cli, argvs, work_dir: str, seconds: float, tracer=None, sampler=None) -> list[dict]:
    """Whole rounds until ``seconds`` have passed.

    With a tracer every operation runs twice in a row, untraced then
    traced, so the two rounds of a pair see the same machine state.
    """
    rounds = []
    t_start = time.perf_counter()
    while True:
        plain, traced = [], []
        for i, argv in enumerate(argvs):
            dest = os.path.join(work_dir, f"r{len(rounds)}", f"op{i}")
            plain.append(_run_op(cli, argv, work_dir, dest, sampler))
            if tracer is not None:
                tracer.op_id = (len(rounds) // 2) * len(argvs) + i
                tracer.install()
                try:
                    dest = os.path.join(work_dir, f"r{len(rounds) + 1}", f"op{i}")
                    traced.append(_run_op(cli, argv, work_dir, dest))
                finally:
                    tracer.uninstall()
        for ops, is_traced in ((plain, False), (traced, True)):
            if ops:
                rounds.append({"index": len(rounds), "traced": is_traced,
                               "wall_s": sum(op["seconds"] for op in ops), "ops": ops})
        if time.perf_counter() - t_start >= seconds:
            return rounds


def main() -> int:
    mode, inputs_path, spawn_t = sys.argv[1], sys.argv[2], float(sys.argv[3])
    from boundstate_lab import cli
    import workloads

    with open(inputs_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    argvs = workloads.argvs(spec["workload"], spec["inputs"])
    setup_s = time.monotonic() - spawn_t
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    work_dir, seconds, traced = sys.argv[4], float(sys.argv[5]), sys.argv[6] == "1"
    result = {"setup_s": setup_s, "argvs": argvs}
    tracer, sampler = None, None
    if traced:
        from spans import Tracer

        tracer = Tracer()
    else:
        sampler = SpeedSampler()
        sampler.start()
    try:
        result["rounds"] = _rounds(cli, argvs, work_dir, seconds, tracer, sampler)
    finally:
        if sampler:
            sampler.stop()
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if traced:
        from spans import layer_metrics

        walls = [r["wall_s"] for r in result["rounds"]]
        pairs = len(walls) // 2
        overhead = sorted(walls[2 * j + 1] - walls[2 * j] for j in range(pairs))[pairs // 2]
        metrics = layer_metrics(tracer, pairs, overhead)
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        spans_dir = os.path.join(HERE, "_spans")
        os.makedirs(spans_dir, exist_ok=True)
        result["spans_file"] = os.path.join(spans_dir, f"{spec['workload']}.csv")
        tracer.write(result["spans_file"])
        result["spans"] = len(tracer.start)

    # Determinism: every later round, and one repeat of a fixed operation,
    # must reproduce the first round's artifacts byte for byte.
    repeat = workloads.REPEAT_OP[spec["workload"]]
    _run_op(cli, argvs[repeat], work_dir, os.path.join(work_dir, "repeat", f"op{repeat}"))
    first_digests = [_digest(os.path.join(work_dir, "r0", f"op{i}")) for i in range(len(argvs))]
    mismatches = []
    if _digest(os.path.join(work_dir, "repeat", f"op{repeat}")) != first_digests[repeat]:
        mismatches.append(f"repeat of op{repeat}")
    for rnd in result["rounds"][1:]:
        for i, op in enumerate(rnd["ops"]):
            op_dir = os.path.join(work_dir, f"r{rnd['index']}", f"op{i}")
            if op["rc"] != result["rounds"][0]["ops"][i]["rc"] or _digest(op_dir) != first_digests[i]:
                mismatches.append(f"round {rnd['index']} op{i}")
    result["determinism_mismatches"] = mismatches
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
