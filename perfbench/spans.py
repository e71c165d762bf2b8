"""Span tracing of boundstate_lab from outside the package.

``Tracer.install`` replaces each public function of the traced modules by a
wrapper that records one span per call: name, start, end, parent span and
operation id.  Modules import names with ``from .x import y``, so a
function is replaced under its name in every package module that bound the
same object; ``Trajectory.eval_dense`` is replaced on the class.  Spans are
kept in flat arrays and written out by ``write``.

Not wrapped: ``field`` (scalar formulas; their cost shows inside the
callers) and the per-value formatters ``io.fnum``/``io.cell``, whose
wrapper would cost more than the call and distort ``io.serialize_ms``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

PACKAGE = "boundstate_lab"
MODULES = ("integrate", "portrait", "functionals", "quadrature", "classify",
           "verify", "io", "cli")
SKIP = {"io.fnum", "io.cell"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.extra = array("q")  # steps for integrate, characters for io texts
        self.stack = [-1]
        self.op_id = -1
        self._swaps: list[tuple[object, str, object, object]] = []

    def _wrap(self, label: str, fn, extra=None):
        nid = len(self.names)
        self.names.append(label)
        name_col, start, end = self.name_col, self.start, self.end
        parent, op, extra_col, stack = self.parent, self.op, self.extra, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_col.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            extra_col.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if extra is not None:
                extra_col[idx] = extra(result)
            return result

        return wrapper

    def _prepare(self) -> None:
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        holders = [mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        extras = {
            "integrate.integrate": lambda traj: len(traj.knots) - 1,
            "io.csv_text": len,
            "io.json_text": len,
        }
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                label = f"{short}.{attr}"
                if (attr.startswith("_") or label in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._wrap(label, fn, extras.get(label))
                for holder in holders:
                    if vars(holder).get(attr) is fn:
                        self._swaps.append((holder, attr, fn, wrapped))
        traj_cls = mods["integrate"].Trajectory
        original = traj_cls.eval_dense
        self._swaps.append((traj_cls, "eval_dense", original,
                            self._wrap("integrate.Trajectory.eval_dense", original)))

    def install(self) -> None:
        if not self._swaps:
            self._prepare()
        for holder, attr, _, wrapped in self._swaps:
            setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._swaps:
            setattr(holder, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,op,extra\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{names[self.name_col[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.op[i]},{self.extra[i]}\n")


def layer_metrics(tracer: Tracer, rounds: int, overhead_s: float) -> dict:
    """Per-layer figures per round (counts) or per call (times) from the spans."""
    names = tracer.names
    nid = {name: i for i, name in enumerate(names)}
    dur: dict[int, list[float]] = {i: [] for i in range(len(names))}
    calls = [0] * len(names)
    child_time = {}
    steps = 0
    text_chars = 0
    integ = nid["integrate.integrate"]
    bracket = nid["classify.find_alpha_k"]
    main = nid["cli.main"]
    csv_id, json_id = nid["io.csv_text"], nid["io.json_text"]
    in_bracket = array("b", bytes(len(tracer.start)))
    integrations_in_brackets = 0
    for i in range(len(tracer.start)):
        name = tracer.name_col[i]
        d = tracer.end[i] - tracer.start[i]
        dur[name].append(d)
        calls[name] += 1
        par = tracer.parent[i]
        if par >= 0:
            child_time[par] = child_time.get(par, 0.0) + d
            in_bracket[i] = in_bracket[par] or tracer.name_col[par] == bracket
        if name == integ:
            steps += tracer.extra[i]
            integrations_in_brackets += in_bracket[i]
        elif name in (csv_id, json_id):
            text_chars += tracer.extra[i]

    def per_round(count: int) -> int | float:
        return count // rounds if count % rounds == 0 else count / rounds

    def mean(label: str, per_second: float) -> float:
        ds = dur[nid[label]]
        return per_second * sum(ds) / len(ds) if ds else 0.0

    integ_busy = sum(dur[integ])
    io_ds = dur[csv_id] + dur[json_id]
    main_self = sum(tracer.end[i] - tracer.start[i] - child_time.get(i, 0.0)
                    for i in range(len(tracer.start)) if tracer.name_col[i] == main)
    n_brackets = calls[bracket]
    return {
        "integrate.calls": (per_round(calls[integ]), "count"),
        "integrate.steps": (per_round(steps), "count"),
        "integrate.busy_s": (integ_busy / rounds, "s"),
        "integrate.us_per_step": (1e6 * integ_busy / steps if steps else 0.0, "us"),
        "integrate.eval_dense_calls": (per_round(calls[nid["integrate.Trajectory.eval_dense"]]), "count"),
        "classify.integrations_per_bracket": (
            integrations_in_brackets / n_brackets if n_brackets else 0.0, "count"),
        "classify.bracket_ms": (mean("classify.find_alpha_k", 1e3), "ms"),
        "classify.classify_ms": (mean("classify.classify", 1e3), "ms"),
        "portrait.count_nodes_ms": (mean("portrait.count_nodes", 1e3), "ms"),
        "portrait.find_zeros_ms": (mean("portrait.find_zeros", 1e3), "ms"),
        "portrait.detect_events_ms": (mean("portrait.detect_events", 1e3), "ms"),
        "functionals.eval_aux_calls": (per_round(calls[nid["functionals.eval_aux"]]), "count"),
        "functionals.eval_aux_us": (mean("functionals.eval_aux", 1e6), "us"),
        "functionals.identity_residuals_ms": (mean("functionals.identity_residuals", 1e3), "ms"),
        "functionals.bridge_integral_ms": (mean("functionals.bridge_integral", 1e3), "ms"),
        "quadrature.panels": (per_round(calls[nid["quadrature.kronrod_panel"]]), "count"),
        "verify.run_checks_s": (mean("verify.run_checks", 1.0), "s"),
        "io.serialize_ms": (1e3 * sum(io_ds) / len(io_ds) if io_ds else 0.0, "ms"),
        "io.bytes_per_s": (text_chars / sum(io_ds) if io_ds else 0.0, "B/s"),
        "cli.self_s": (main_self / rounds, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
