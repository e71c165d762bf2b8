"""Command-line front end.

Six commands over one flag set (one parser; the command is its positional argument):

* ``solve``     -- one shot; trajectory CSV plus portrait JSON.
* ``classify``  -- one shot; class tag with its witness.
* ``ladder``    -- jump-amplitude brackets for a k range.
* ``sweep``     -- classify a whole alpha grid; tabular output.
* ``verify``    -- qualitative check suite; report JSON plus a table.
* ``export``    -- trajectory CSV with optional functional columns.

Exit codes: 0 success, 1 usage or parameter error, 2 integration failure,
3 output I/O failure (a missing output directory is reported before the
command runs), 4 verification failure (report still written).

Flags override config-file entries (same keys, flat ``key=value`` lines);
built-in defaults fill the rest.  Every artifact embeds the fully
resolved configuration.  The only environment variable honored is
BOUNDSTATE_LAB_OUTDIR, the directory for relative output paths.

A process pays only for what its command runs: ``verify`` (with its
``functionals`` and ``quadrature``) is imported by the verify command
alone, and ``functionals`` by ``export --functionals``; the parser is
built once per process.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import math
import os
import sys
from operator import attrgetter
from typing import Any, Callable, Sequence

from . import io as artio
from .classify import (
    INDETERMINATE,
    BracketNotFound,
    MonotonicityViolation,
    SolutionClass,
    _CountCache,
    classify,
    find_alpha_k,
)
from .field import FieldParams, ParameterError
from .integrate import (
    FULL_RANGE_POLICY,
    STEP_LIMIT,
    STEP_UNDERFLOW,
    DenseRangeError,
    IntegrationError,
    IntegratorControls,
    ProblemParams,
    Trajectory,
    integrate,
)
from .portrait import (
    AmbiguousEvent,
    IndeterminateCount,
    InterlacingViolation,
    detect_events,
    find_zeros,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTEGRATOR = 2
EXIT_IO = 3
EXIT_VERIFY = 4

OUTDIR_ENV = "BOUNDSTATE_LAB_OUTDIR"

_TOL_LO = 1e-15
_TOL_HI = 1e-3


class UsageError(ValueError):
    """Bad flags, bad config entries, or an unusable flag combination."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on its own; 2 means integration failure
    # here, so turn parse errors into the usage exit instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_range(kind: Callable[[str], Any]) -> Callable[[str], tuple[Any, Any]]:
    """Parser of ``LO..HI`` (or one value, a range of one) over kind."""
    def parse(text: str) -> tuple[Any, Any]:
        lo, sep, hi = text.partition("..")
        if not sep:
            value = kind(text)
            return (value, value)
        return (kind(lo), kind(hi))

    parse.__name__ = f"{kind.__name__} range"  # argparse names it in its errors
    return parse


def _parse_name_list(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


_CONTROLS = IntegratorControls()
_FORMATS = ("json", "csv")


def _option(convert: Callable[[str], Any], default: Any, text: str, **extras: Any) -> Any:
    """A RunConfig field that is also an option: its flag is the field name with
    "-" for "_", a config file uses the name itself, both go through convert, and
    extras are the flag's argparse settings beyond type and help."""
    return dataclasses.field(default=default,
                             metadata={"convert": convert, "help": text, "extras": extras})


@functools.cache
def build_parser() -> _Parser:
    """One parser for every command: each takes the same flags.  Built once per
    process: parsing reads it and never changes it."""
    parser = _Parser(prog="boundstate-lab", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("--config", type=str, default=None,
                        help="flat key=value file; flags override it")
    for option in _OPTION_FIELDS:
        parser.add_argument("--" + option.name.replace("_", "-"), dest=option.name,
                            type=option.metadata["convert"], default=None,
                            help=option.metadata["help"], **option.metadata["extras"])
    return parser


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation (defaults applied); every field after command
    is an option, declared by _option."""

    command: str
    n: int = _option(int, 3, "space dimension")
    p: float = _option(float, 3.0, "nonlinearity exponent")
    alpha: float | None = _option(float, None, "shooting height")
    alpha_range: tuple[float, float] | None = _option(_parse_range(float), None,
                                                      "alpha grid range", metavar="LO..HI")
    k: tuple[int, int] | None = _option(_parse_range(int), None, "node count or count range",
                                        metavar="K|LO..HI")
    points: int = _option(int, 200, "grid size for sweep (default 200)")
    tol: float = _option(float, 1e-10, "bracket tolerance (relative)")
    rmax: float = _option(float, _CONTROLS.r_max, "integration range")
    abs_tol: float = _option(float, _CONTROLS.abs_tol, "integrator absolute tolerance")
    rel_tol: float = _option(float, _CONTROLS.rel_tol, "integrator relative tolerance")
    out: str | None = _option(str, None, "output path stem (suffixes appended per artifact)")
    # the default None resolves to csv for export and sweep, json otherwise
    format: str = _option(str, None, "tabular artifact format", choices=_FORMATS)
    preset: str = _option(str, "core", "verify: check preset (core|residual|full)")
    checks: tuple[str, ...] | None = _option(_parse_name_list, None,
                                             "verify: explicit comma-separated check ids")
    functionals: tuple[str, ...] = _option(_parse_name_list, (),
                                           "export: extra functional columns")

    def validate(self) -> None:
        for label, value in (("tol", self.tol), ("abs-tol", self.abs_tol),
                             ("rel-tol", self.rel_tol)):
            if not (_TOL_LO <= value <= _TOL_HI):
                raise UsageError(
                    f"--{label} must lie in [{_TOL_LO:g}, {_TOL_HI:g}], got {value:g}"
                )
        if not (self.rmax > 0.0 and math.isfinite(self.rmax)):
            raise UsageError(f"--rmax must be positive and finite, got {self.rmax}")
        if self.points < 1:
            raise UsageError(f"--points must be at least 1, got {self.points}")
        if self.alpha_range is not None and self.alpha_range[0] > self.alpha_range[1]:
            raise UsageError(f"empty alpha range {self.alpha_range[0]:g}..{self.alpha_range[1]:g}")
        if self.k is not None:
            if self.k[0] > self.k[1]:
                raise UsageError(f"empty k range {self.k[0]}..{self.k[1]}")
            if self.k[0] < 0:
                raise UsageError("node counts are nonnegative")
        if self.out is not None and not os.path.basename(self.out):
            raise UsageError(f"--out needs a file name stem, got {self.out!r}")
        if self.format not in _FORMATS:
            raise UsageError(f"unknown format {self.format!r}; choose from {', '.join(_FORMATS)}")
        if self.command == "verify":
            from .verify import PRESETS

            if self.preset not in PRESETS:
                raise UsageError(
                    f"unknown preset {self.preset!r}; choose from {', '.join(sorted(PRESETS))}"
                )
        if self.functionals:
            from .functionals import _AUX_COLUMNS

            for name in self.functionals:
                if name not in _AUX_COLUMNS:
                    raise UsageError(
                        f"unknown functional {name!r}; choose from {', '.join(_AUX_COLUMNS)}"
                    )

    def field(self) -> FieldParams:
        return FieldParams(n=self.n, p=self.p)

    def controls(self) -> IntegratorControls:
        return IntegratorControls(abs_tol=self.abs_tol, rel_tol=self.rel_tol,
                                  r_max=self.rmax)

    def need_alpha(self) -> float:
        if self.alpha is None:
            raise UsageError(f"{self.command} needs --alpha")
        return self.alpha

    def need_k_range(self) -> tuple[int, int]:
        if self.k is None:
            raise UsageError(f"{self.command} needs --k (a count or LO..HI)")
        return self.k

    def echo(self) -> dict[str, Any]:
        """The resolved configuration embedded in every artifact."""
        out: dict[str, Any] = {
            "command": self.command,
            "n": self.n,
            "p": self.p,
            "rmax": self.rmax,
            "abs_tol": self.abs_tol,
            "rel_tol": self.rel_tol,
            "format": self.format,
            "out": _out_stem(self),
        }
        if self.command in ("solve", "classify", "export"):
            out["alpha"] = self.alpha
        if self.command == "export":
            out["functionals"] = ",".join(self.functionals)
        if self.command == "ladder":
            out["k"] = f"{self.k[0]}..{self.k[1]}" if self.k else ""
            out["tol"] = self.tol
        if self.command == "sweep":
            if self.alpha_range is not None:
                out["alpha_range"] = f"{self.alpha_range[0]:.17g}..{self.alpha_range[1]:.17g}"
                out["points"] = self.points
            else:
                out["alpha"] = self.alpha
        if self.command == "verify":
            out["preset"] = self.preset
            out["checks"] = ",".join(self.checks) if self.checks is not None else ""
            out["tol"] = self.tol
        return out


_OPTION_FIELDS = dataclasses.fields(RunConfig)[1:]


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file entries over defaults."""
    file_cfg: dict[str, str] = {}
    if args.config is not None:
        try:
            file_cfg = artio.parse_config_file(args.config)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
    keys = {field.name for field in dataclasses.fields(RunConfig)}  # command too
    for key in file_cfg:
        if key not in keys:
            raise UsageError(f"unknown config key {key!r}")
    if file_cfg.get("command", args.command) != args.command:
        raise UsageError(
            f"config file names command {file_cfg['command']!r}, invoked {args.command!r}"
        )

    def pick(option: dataclasses.Field) -> Any:
        key = option.name
        flag = getattr(args, key)
        if flag is not None:
            return flag
        if key in file_cfg:
            try:
                return option.metadata["convert"](file_cfg[key])
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from exc
        return option.default

    values = {option.name: pick(option) for option in _OPTION_FIELDS}
    if values["format"] is None:
        values["format"] = "csv" if args.command in ("export", "sweep") else "json"
    cfg = RunConfig(command=args.command, **values)
    cfg.validate()
    return cfg


def _out_stem(cfg: RunConfig) -> str:
    stem = cfg.out
    if stem is None:  # each command's own name, but verify writes verify_report
        stem = "verify_report" if cfg.command == "verify" else cfg.command
    outdir = os.environ.get(OUTDIR_ENV, "")
    if outdir:
        return os.path.join(outdir, stem)
    return stem


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def _write_artifacts(paths_text: Sequence[tuple[str, str]]) -> None:
    for path, text in paths_text:
        artio.write_text(path, text)
        _note(f"wrote {path}")


def _tabular(cfg: RunConfig, stem: str, columns: Sequence[str],
             rows: Sequence[Sequence[Any]], body_key: str) -> tuple[str, str]:
    """(path, text) for one table in the configured format."""
    if cfg.format == "csv":
        return stem + ".csv", artio.csv_text(columns, rows, cfg.echo())
    payload = artio.artifact(
        {body_key: [dict(zip(columns, row)) for row in rows]}, cfg.echo()
    )
    return stem + ".json", artio.json_text(payload)


def _full_shot(cfg: RunConfig) -> Trajectory | None:
    """The full-range shot from --alpha, or None (with a note) if it gave up."""
    traj = integrate(ProblemParams(cfg.field(), cfg.need_alpha(), cfg.controls()),
                     FULL_RANGE_POLICY)
    if traj.termination.tag in (STEP_LIMIT, STEP_UNDERFLOW):
        _note(f"integration gave up: {traj.termination.tag} at r={traj.termination.r_stop:g} "
              f"{traj.termination.detail}")
        return None
    return traj


def cmd_solve(cfg: RunConfig) -> int:
    traj = _full_shot(cfg)
    if traj is None:
        return EXIT_INTEGRATOR
    portrait = detect_events(traj)
    _note(f"terminated {traj.termination.tag} at r={traj.termination.r_stop:.6g}; "
          f"{len(traj.knots)} samples, {len(portrait.zeros_u)} zeros, "
          f"phase kind {portrait.phase_kind}")
    stem = _out_stem(cfg)
    payload = artio.artifact(
        {
            "alpha": cfg.alpha,
            "termination": artio.plain(traj.termination),
            "portrait": artio.plain(portrait),
        },
        cfg.echo(),
    )
    _write_artifacts([
        (stem + ".csv", artio.csv_text(artio.TRAJECTORY_COLUMNS, artio.trajectory_rows(traj),
                                       cfg.echo())),
        (stem + ".portrait.json", artio.json_text(payload)),
    ])
    return EXIT_OK


def cmd_classify(cfg: RunConfig) -> int:
    result = classify(cfg.field(), cfg.need_alpha(), cfg.controls())
    _note(f"alpha={cfg.alpha:g}: {result.tag} ({result.detail})")
    stem = _out_stem(cfg)
    if cfg.format == "csv":
        rows = [_class_row(cfg.alpha, result)]
        path, text = stem + ".csv", artio.csv_text(_CLASS_COLUMNS, rows, cfg.echo())
    else:
        payload = artio.artifact({"result": artio.plain(result)}, cfg.echo())
        path, text = stem + ".json", artio.json_text(payload)
    _write_artifacts([(path, text)])
    return EXIT_OK


_CLASS_COLUMNS = ("alpha", "class_tag", "node_count", "oscillation_center",
                  "r_stop", "termination_tag", "E_negative_radius",
                  "decay_slope_error")


def _class_row(alpha: float, sc: SolutionClass) -> tuple:
    w = sc.witness
    return (alpha, sc.tag, sc.node_count, sc.oscillation_center, w.r_stop,
            w.termination_tag, w.energy_nonpositive_radius, w.decay_slope_error)


_LADDER_COLUMNS = ("k", "status", "alpha_lo", "alpha_hi", "nodes_lo", "nodes_hi",
                   "midpoint", "width")


def cmd_ladder(cfg: RunConfig) -> int:
    field = cfg.field()
    k_lo, k_hi = cfg.need_k_range()
    controls = cfg.controls()
    counts = _CountCache(field, controls)
    entries: list[dict[str, Any]] = []
    ok = 0
    for k in range(k_lo, k_hi + 1):
        try:
            entry = find_alpha_k(field, k, tol=cfg.tol, controls=controls, counts=counts)
        except (BracketNotFound, MonotonicityViolation, IndeterminateCount) as exc:
            entries.append({"k": k, "status": "failed", "error": str(exc)})
            _note(f"k={k}: failed ({exc})")
            continue
        ok += 1
        entries.append({"k": k, "status": "ok",
                        **{name: getattr(entry, name) for name in _LADDER_COLUMNS[2:]}})
        _note(f"k={k}: [{entry.alpha_lo:.12g}, {entry.alpha_hi:.12g}]")
    stem = _out_stem(cfg)
    if cfg.format == "csv":
        rows = [tuple(e.get(c) for c in _LADDER_COLUMNS) for e in entries]
        files = [(stem + ".csv", artio.csv_text(_LADDER_COLUMNS, rows, cfg.echo()))]
    else:
        payload = artio.artifact({"entries": entries, "succeeded": ok}, cfg.echo())
        files = [(stem + ".json", artio.json_text(payload))]
    _write_artifacts(files)
    return EXIT_OK if ok > 0 else EXIT_INTEGRATOR


def _sweep_grid(cfg: RunConfig) -> list[float]:
    """Evenly spaced heights with both ends exact, as numpy.linspace spaces them."""
    if cfg.alpha_range is not None:
        lo, hi = cfg.alpha_range
        if lo == hi or cfg.points == 1:
            return [lo]
        step = (hi - lo) / (cfg.points - 1)
        grid = [lo + i * step for i in range(cfg.points)]
        grid[-1] = hi
        return grid
    return [cfg.need_alpha()]


def cmd_sweep(cfg: RunConfig) -> int:
    field = cfg.field()
    controls = cfg.controls()
    rows: list[tuple] = []
    warnings = 0
    counts: list[tuple[float, int]] = []
    for alpha in _sweep_grid(cfg):
        sc = classify(field, alpha, controls)
        z_1: float | None = None
        if sc.node_count is not None and sc.node_count > 0:
            # The stop policy never changes a step, so the classify shot is a
            # prefix of the full-range shot and has crossed its first zero.
            # A retry at 2*r_max is not: it can cross zeros past r_max.
            traj = sc.trajectory
            if traj.params.controls.r_max != controls.r_max:
                traj = integrate(ProblemParams(field, alpha, controls), FULL_RANGE_POLICY)
            zeros = find_zeros(traj, "u")
            z_1 = zeros[0] if zeros else None
        if sc.tag == INDETERMINATE:
            warnings += 1
        elif sc.node_count is not None:
            counts.append((alpha, sc.node_count))
        rows.append((alpha, sc.node_count, sc.tag, z_1,
                     sc.witness.energy_nonpositive_radius))
    for (a_prev, c_prev), (a_cur, c_cur) in zip(counts, counts[1:]):
        if c_cur < c_prev:
            _note(f"node count fell from {c_prev} to {c_cur} between "
                  f"alpha={a_prev:.12g} and alpha={a_cur:.12g}")
            return EXIT_INTEGRATOR
    if warnings:
        _note(f"warning: {warnings} indeterminate grid point(s)")
    _write_artifacts([_tabular(cfg, _out_stem(cfg), artio.SWEEP_COLUMNS, rows, "rows")])
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    from .verify import (PRESETS, MalformedPlan, VerificationPlan, default_cases, run_checks,
                         verification_body, verification_table)

    field = cfg.field()
    checks = cfg.checks if cfg.checks is not None else PRESETS[cfg.preset]
    plan = VerificationPlan(
        cases=default_cases(field, cfg.preset),
        checks=tuple(checks),
        controls=cfg.controls(),
        bracket_tol=cfg.tol,
    )
    try:
        report = run_checks(plan)
    except MalformedPlan as exc:  # --checks named no check, or an unknown one
        raise UsageError(str(exc)) from exc
    payload = artio.artifact(verification_body(report), cfg.echo())
    _write_artifacts([(_out_stem(cfg) + ".json", artio.json_text(payload))])
    sys.stdout.write(verification_table(report))
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_export(cfg: RunConfig) -> int:
    traj = _full_shot(cfg)
    if traj is None:
        return EXIT_INTEGRATOR
    columns = artio.TRAJECTORY_COLUMNS + cfg.functionals
    if cfg.functionals:
        from .functionals import eval_aux

        field = traj.params.field
        row = attrgetter(*columns)  # one tuple of the named fields
        rows = [row(eval_aux(state, field)) for state in traj.samples()]
    else:
        rows = artio.trajectory_rows(traj)
    _write_artifacts([_tabular(cfg, _out_stem(cfg), columns, rows, "rows")])
    return EXIT_OK


_DISPATCH: dict[str, Callable[[RunConfig], int]] = {
    "solve": cmd_solve,
    "classify": cmd_classify,
    "ladder": cmd_ladder,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "export": cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _note(f"usage error: {exc}")
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        outdir = os.path.dirname(_out_stem(cfg))
        if outdir and not os.path.isdir(outdir):  # found before the command runs
            raise FileNotFoundError(errno.ENOENT, "no such output directory", outdir)
        return _DISPATCH[cfg.command](cfg)
    except (UsageError, ParameterError, artio.ConfigSyntaxError) as exc:
        _note(f"usage error: {exc}")
        return EXIT_USAGE
    except (BracketNotFound, MonotonicityViolation, InterlacingViolation,
            AmbiguousEvent, IndeterminateCount, IntegrationError,
            DenseRangeError, OverflowError) as exc:  # a power past the largest double
        _note(f"integration failure: {exc}")
        return EXIT_INTEGRATOR
    except OSError as exc:
        _note(f"i/o failure: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
