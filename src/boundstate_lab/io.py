"""Deterministic artifact serialization: CSV and JSON with embedded config.

Every artifact names its schema and carries the fully resolved
configuration that produced it, so a run can be reproduced from the
output alone.  JSON is written with sorted keys, two-space indent and a
trailing newline; nothing time- or host-dependent goes in, so repeated
runs with the same inputs are byte-identical.  CSV starts with the config
as ``# key=value`` comment lines (the same flat syntax the config-file
reader accepts), then a mandatory header row.  Floats are rendered with
17 significant digits, which round-trips IEEE doubles exactly.  Records
go into JSON through ``plain``, which reads each dataclass's own fields:
a record's field list is its schema, written once.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any, Iterable, Mapping, Sequence

from .integrate import Trajectory

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
    return list(zip(traj.knots, *traj.knot_values))


def plain(obj: Any) -> Any:
    """A record as JSON-ready data: a dataclass becomes a dict of its fields,
    nested records, lists and tuples included; a field declared with
    ``repr=False`` (a record's bulk payload) is left out."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: plain(getattr(obj, f.name)) for f in fields(obj) if f.repr}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    return obj
