"""Deterministic artifact serialization: CSV and JSON with embedded config.

Every artifact names its schema and carries the fully resolved
configuration that produced it, so a run can be reproduced from the
output alone.  JSON is written with sorted keys, two-space indent and a
trailing newline; nothing time- or host-dependent goes in, so repeated
runs with the same inputs are byte-identical.  CSV starts with the config
as ``# key=value`` comment lines (the same flat syntax the config-file
reader accepts), then a mandatory header row.  Floats are rendered with
17 significant digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Mapping, Sequence

from .classify import SolutionClass, Witness
from .integrate import Trajectory
from .portrait import LabeledPoint, PhaseLabels, PhasePortrait
from .verify import CheckRecord, VerificationReport

SCHEMA = "boundstate-lab/1"

TRAJECTORY_COLUMNS = ("r", "u", "up", "v", "vp")
SWEEP_COLUMNS = ("alpha", "node_count", "class_tag", "z_1", "E_negative_radius")


class ConfigSyntaxError(ValueError):
    """A config-file line is not blank, comment, or key=value."""


def fnum(x: float) -> str:
    """Decimal rendering of one float at 17 significant digits."""
    return format(float(x), ".17g")


def cell(x: Any) -> str:
    """One CSV cell: floats at 17 digits, None empty, the rest as str."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return fnum(x)
    return str(x)


def _config_lines(config: Mapping[str, Any]) -> list[str]:
    lines = [f"# schema={SCHEMA}"]
    for key in sorted(config):
        lines.append(f"# {key}={cell(config[key])}")
    return lines


def csv_text(
    columns: Sequence[str],
    rows: Iterable[Sequence[Any]],
    config: Mapping[str, Any],
) -> str:
    """CSV with config comment lines, a header row, and 17-digit floats.

    A row of plain floats is rendered by one ``%`` format; ``'%.17g' % x``
    gives the same text as ``fnum(x)``.  Any other row goes cell by cell.
    """
    out = _config_lines(config)
    out.append(",".join(columns))
    floats = ",".join(["%.17g"] * len(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} != header width {len(columns)}")
        if all(type(x) is float for x in row):
            out.append(floats % tuple(row))
        else:
            out.append(",".join(cell(x) for x in row))
    return "\n".join(out) + "\n"


def json_text(payload: Mapping[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def artifact(body: Mapping[str, Any], config: Mapping[str, Any]) -> dict[str, Any]:
    """JSON payload skeleton: schema tag and config echo around the body."""
    payload: dict[str, Any] = {"schema": SCHEMA, "config": dict(config)}
    for key, value in body.items():
        if key in payload:
            raise ValueError(f"body key {key!r} collides with the envelope")
        payload[key] = value
    return payload


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments skipped; last wins."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigSyntaxError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigSyntaxError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def parse_config_file(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def trajectory_rows(traj: Trajectory) -> list[tuple[float, float, float, float, float]]:
    return [(r, *state) for r, state in zip(traj.knots, traj.states)]


def trajectory_csv(traj: Trajectory, config: Mapping[str, Any]) -> str:
    return csv_text(TRAJECTORY_COLUMNS, trajectory_rows(traj), config)


def point_to_dict(pt: LabeledPoint | None) -> dict[str, float] | None:
    if pt is None:
        return None
    return {"r": pt.r, "value": pt.value}


def point_from_dict(d: Mapping[str, float] | None) -> LabeledPoint | None:
    if d is None:
        return None
    return LabeledPoint(r=float(d["r"]), value=float(d["value"]))


def phase_to_dict(ph: PhaseLabels) -> dict[str, Any]:
    return {
        "index": ph.index,
        "b": point_to_dict(ph.b),
        "r": point_to_dict(ph.r),
        "z": point_to_dict(ph.z),
        "rbar": point_to_dict(ph.rbar),
        "bbar": point_to_dict(ph.bbar),
        "uncertain": list(ph.uncertain),
    }


def phase_from_dict(d: Mapping[str, Any]) -> PhaseLabels:
    return PhaseLabels(
        index=int(d["index"]),
        b=point_from_dict(d["b"]),
        r=point_from_dict(d["r"]),
        z=point_from_dict(d["z"]),
        rbar=point_from_dict(d["rbar"]),
        bbar=point_from_dict(d["bbar"]),
        uncertain=tuple(d["uncertain"]),
    )


def portrait_to_dict(portrait: PhasePortrait) -> dict[str, Any]:
    return {
        "zeros_u": [point_to_dict(pt) for pt in portrait.zeros_u],
        "crits_u": [point_to_dict(pt) for pt in portrait.crits_u],
        "tail_crits_u": [point_to_dict(pt) for pt in portrait.tail_crits_u],
        "zeros_v": [point_to_dict(pt) for pt in portrait.zeros_v],
        "inflections_u": [float(r) for r in portrait.inflections_u],
        "phases": [phase_to_dict(ph) for ph in portrait.phases],
        "phase_kind": portrait.phase_kind,
        "truncated": portrait.truncated,
    }


def portrait_from_dict(d: Mapping[str, Any]) -> PhasePortrait:
    return PhasePortrait(
        zeros_u=[point_from_dict(pt) for pt in d["zeros_u"]],
        crits_u=[point_from_dict(pt) for pt in d["crits_u"]],
        tail_crits_u=[point_from_dict(pt) for pt in d["tail_crits_u"]],
        zeros_v=[point_from_dict(pt) for pt in d["zeros_v"]],
        inflections_u=[float(r) for r in d["inflections_u"]],
        phases=[phase_from_dict(ph) for ph in d["phases"]],
        phase_kind=str(d["phase_kind"]),
        truncated=bool(d["truncated"]),
    )


def witness_to_dict(w: Witness) -> dict[str, Any]:
    return {
        "r_stop": w.r_stop,
        "termination_tag": w.termination_tag,
        "u_end": w.u_end,
        "up_end": w.up_end,
        "energy_nonpositive_radius": w.energy_nonpositive_radius,
        "decay_slope_error": w.decay_slope_error,
    }


def solution_class_to_dict(sc: SolutionClass) -> dict[str, Any]:
    return {
        "tag": sc.tag,
        "node_count": sc.node_count,
        "oscillation_center": sc.oscillation_center,
        "witness": witness_to_dict(sc.witness),
        "detail": sc.detail,
    }


def termination_to_dict(traj: Trajectory) -> dict[str, Any]:
    t = traj.termination
    return {"tag": t.tag, "r_stop": t.r_stop, "detail": t.detail}


def _json_float(x: float | None) -> float | None:
    # JSON has no inf/nan; an unbounded margin degrades to null.
    if x is None or not math.isfinite(x):
        return None
    return x


def record_to_dict(rec: CheckRecord) -> dict[str, Any]:
    return {
        "check": rec.check,
        "case": rec.case,
        "status": rec.status,
        "margin": _json_float(rec.margin),
        "probes": rec.probes,
        "notes": rec.notes,
    }


def verification_body(report: VerificationReport) -> dict[str, Any]:
    return {
        "passed": report.passed,
        "records": [record_to_dict(rec) for rec in report.records],
        "worst_by_check": {
            check: _json_float(margin)
            for check, margin in sorted(report.worst_by_check().items())
        },
    }


def verification_table(report: VerificationReport) -> str:
    """Fixed-width text table of the report, one line per record."""
    header = ("check", "case", "status", "margin", "probes", "notes")
    rows = [
        (
            rec.check,
            rec.case,
            rec.status,
            "" if rec.margin is None else f"{rec.margin:.3e}",
            str(rec.probes),
            rec.notes,
        )
        for rec in report.records
    ]
    widths = [
        max(len(header[i]), max((len(row[i]) for row in rows), default=0))
        for i in range(len(header) - 1)
    ]
    lines = []
    for row in [header, *rows]:
        fixed = "  ".join(str(row[i]).ljust(widths[i]) for i in range(len(widths)))
        lines.append((fixed + "  " + row[-1]).rstrip())
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"overall: {verdict} ({len(report.records)} records)")
    return "\n".join(lines) + "\n"
