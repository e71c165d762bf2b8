"""Serialization tests: 17-digit round-trips, config echo, record JSON."""

import dataclasses
import json
import math
import random
import struct
from array import array
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boundstate_lab import _dopri
from boundstate_lab import (
    FULL_RANGE_POLICY,
    FieldParams,
    IntegratorControls,
    ProblemParams,
    detect_events,
    integrate,
)
from boundstate_lab.io import (
    SCHEMA,
    TRAJECTORY_COLUMNS,
    ConfigSyntaxError,
    artifact,
    cell,
    csv_text,
    fnum,
    json_text,
    parse_config_text,
    plain,
    trajectory_rows,
)
from boundstate_lab.verify import (
    CheckRecord,
    VerificationReport,
    verification_body,
    verification_table,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(x=finite_floats)
def test_seventeen_digit_rendering_round_trips(x):
    assert float(fnum(x)) == x


def test_cell_rendering():
    assert cell(None) == ""
    assert cell(True) == "true"
    assert cell(3) == "3"
    assert cell(0.1) == "0.10000000000000001"
    assert cell("tag") == "tag"


def test_csv_text_layout():
    text = csv_text(("a", "b"), [(1, 2.5), (3, None)], {"n": 3, "p": 3.0})
    lines = text.splitlines()
    assert lines[0] == f"# schema={SCHEMA}"
    assert lines[1] == "# n=3"
    assert lines[2] == "# p=3"
    assert lines[3] == "a,b"
    assert lines[4] == "1,2.5"
    assert lines[5] == "3,"


def _kernel_then_python(monkeypatch):
    """Runs a loop's body twice: with the kernel's CSV rows, where a kernel
    loads, then with none, on the Python line alone."""
    yield
    monkeypatch.setattr(_dopri, "_kernel", lambda: None)
    yield


def test_csv_text_rejects_ragged_rows(monkeypatch):
    for _ in _kernel_then_python(monkeypatch):
        with pytest.raises(ValueError):
            csv_text(("a", "b"), [(1,)], {})
        with pytest.raises(ValueError):
            csv_text(("a", "b"), [(1.0, 2.0), (1.0, 2.0, 3.0)], {})
        with pytest.raises(ValueError):
            csv_text(("a", "b"), [[1.0]], {})
        with pytest.raises(ValueError):  # as many cells as two full rows
            csv_text(("a", "b"), [(1.0, 2.0, 3.0), (4.0,)], {})


def _cell_by_cell(columns, rows, config):
    """Reference CSV: every cell rendered through ``cell``."""
    head = csv_text(columns, [], config)
    return head + "".join(",".join(cell(x) for x in row) + "\n" for row in rows)


_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e17,
                   0.1, -2.5, 123456789.0, 1.0 / 3.0]


def _random_doubles(count, seed):
    rng = random.Random(seed)
    return list(struct.unpack(f"<{count}d", rng.randbytes(8 * count)))


def test_csv_float_rows_match_the_cell_by_cell_text(monkeypatch):
    values = _SPECIAL_FLOATS + _random_doubles(5 * 400 - len(_SPECIAL_FLOATS), seed=5)
    rows = [tuple(values[i:i + 5]) for i in range(0, len(values), 5)]
    columns = ("a", "b", "c", "d", "e")
    config = {"n": 3, "p": 3.0}
    for _ in _kernel_then_python(monkeypatch):
        assert csv_text(columns, rows, config) == _cell_by_cell(columns, rows, config)
        # rows given as lists, and as a generator
        lists = [list(row) for row in rows]
        assert csv_text(columns, lists, config) == _cell_by_cell(columns, rows, config)
        assert csv_text(columns, iter(rows), config) == _cell_by_cell(columns, rows, config)


def _kernel_lines(values, width=1):
    """The lines the kernel's csv_rows writes of ``values``, ``width`` a row."""
    lib = _dopri._kernel()
    if lib is None:
        pytest.skip("no kernel to run")
    packed = array("d", values)
    text = array("b", bytes(24 * len(packed)))
    size = lib.csv_rows(packed.buffer_info()[0], len(packed) // width, width,
                        text.buffer_info()[0])
    return text.tobytes()[:size].decode("ascii").split("\n")[:-1]


def _format_cases(seed):
    """About 10^6 doubles: random bit patterns and magnitudes, ties M/2^t, each
    power of ten from 1e-20 to 1e20 with both neighbours, and the edges."""
    rng = np.random.default_rng(seed)
    values = _random_doubles(300_000, seed)
    values += (rng.uniform(1.0, 10.0, 300_000) * 10.0 ** rng.integers(-20, 21, 300_000)
               * rng.choice([-1.0, 1.0], 300_000)).tolist()
    for t in range(1, 12):  # odd M: M/2^t ends in 5, a tie where that is digit 18
        values += (((rng.integers(0, 2**53, 36_000) >> rng.integers(0, 14, 36_000)) | 1)
                   / 2.0**t).tolist()
    for k in range(-20, 21):
        x = float(f"1e{k}")
        values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    values += [1.7976931348623157e308, 2.2250738585072014e-308, 2.225073858507201e-308,
               5e-324, 0.0, math.inf, math.nan, 140737488355328.125, 1e17 - 16]
    return values + [-x for x in values[-50_000:]]


def test_kernel_rows_match_the_percent_format_on_a_million_values():
    values = _format_cases(seed=36)
    assert len(values) >= 10**6
    ties = [x for x in values[600_000:996_000:40] if len(Decimal(x).as_tuple().digits) == 18]
    assert len(ties) > 500
    lines = _kernel_lines(values)
    # a line is empty exactly where the decimal exponent is outside [-16, 16]
    # (1e-16 is the double just below 10^-16) or x is 0, subnormal, inf or NaN
    assert list(map(bool, lines)) == [1e-16 < abs(x) < 1e17 for x in values]
    taken = [x for x in values if 1e-16 < abs(x) < 1e17]
    assert len(taken) > 600_000
    assert "\n".join(filter(None, lines)) + "\n" == ("%.17g\n" * len(taken)) % tuple(taken)
    assert max(map(len, lines)) == 23  # within the 24 characters io reserves a value


def test_a_row_outside_the_exact_range_takes_the_python_line(monkeypatch):
    rows = [(1.0, -2.5), (3.0, 1e-20), (0.1, 1e17), (-0.0, 4.0), (5e-324, 1.0),
            (math.nan, 1.0), (1e16, 2e-16)]
    assert _kernel_lines([x for row in rows for x in row], width=2) == [
        "1,-2.5", "", "", "", "", "", "10000000000000000,2e-16"]
    for _ in _kernel_then_python(monkeypatch):
        assert csv_text(("a", "b"), rows, {}) == _cell_by_cell(("a", "b"), rows, {})


def test_a_row_holding_a_non_float_is_written_cell_by_cell(monkeypatch):
    # a table with one such row goes cell by cell: True is "true", not '%.17g''s "1"
    columns = ("a", "b")
    for odd in (7, True, None, "tag"):
        rows = [(0.5, 1.5), (odd, 2.5), (1e-3, 0.1)]
        for _ in _kernel_then_python(monkeypatch):
            text = csv_text(columns, rows, {})
            assert text == _cell_by_cell(columns, rows, {})
            assert text.splitlines()[3] == f"{cell(odd)},2.5"


def test_csv_mixed_and_numpy_rows_match_the_cell_by_cell_text(monkeypatch):
    columns = ("a", "b", "c", "d")
    rows = [
        (0.5, None, 2.0, -0.0),
        (True, 0.25, False, 1.5),
        (3, 0.5, 10**20, -7),
        ("tag", 1e17, "Oscillatory", math.nan),
        tuple(np.float64(x) for x in (0.1, -0.0, 1e17, 5e-324)),
        [np.float64(2.5), 1.0, None, "x"],
    ]
    for _ in _kernel_then_python(monkeypatch):
        assert csv_text(columns, rows, {}) == _cell_by_cell(columns, rows, {})
        assert csv_text(columns, rows, {}).splitlines()[4] == "3,0.5,100000000000000000000,-7"


def test_json_text_is_sorted_and_newline_terminated():
    text = json_text({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json_text({"b": 1, "a": 2}) == text


def test_artifact_envelope():
    payload = artifact({"rows": []}, {"n": 3})
    assert payload["schema"] == SCHEMA
    assert payload["config"] == {"n": 3}
    with pytest.raises(ValueError):
        artifact({"config": {}}, {"n": 3})


def test_config_parsing():
    text = "# comment\n\n n = 3\np=3.0\nout=run/a\nn=4\n"
    cfg = parse_config_text(text)
    assert cfg == {"n": "4", "p": "3.0", "out": "run/a"}
    with pytest.raises(ConfigSyntaxError):
        parse_config_text("just words\n")
    with pytest.raises(ConfigSyntaxError):
        parse_config_text("=value\n")


def test_plain_portrait_matches_the_stdlib_asdict():
    # dataclasses.asdict shares no code with plain: the two must agree on
    # every field of every nested record once both have been through JSON
    fl = FieldParams(3, 3.0)
    traj = integrate(ProblemParams(fl, 5.0, IntegratorControls().with_rmax(30.0)),
                     FULL_RANGE_POLICY)
    portrait = detect_events(traj)
    assert portrait.zeros_u and portrait.phases
    again = json.loads(json_text(plain(portrait)))
    assert again == json.loads(json.dumps(dataclasses.asdict(portrait)))


def test_trajectory_csv_has_one_row_per_sample():
    fl = FieldParams(3, 3.0)
    traj = integrate(ProblemParams(fl, 2.0, IntegratorControls().with_rmax(5.0)),
                     FULL_RANGE_POLICY)
    text = csv_text(TRAJECTORY_COLUMNS, trajectory_rows(traj), {"alpha": 2.0})
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert rows[0] == "r,u,up,v,vp"
    assert len(rows) - 1 == len(traj.knots)
    first = rows[1].split(",")
    assert float(first[0]) == traj.r_start
    assert float(first[1]) == traj.knot_values[0][0]


def test_verification_table_lists_every_record():
    report = VerificationReport((
        CheckRecord("energy_monotone", "CaseA", "pass", 0.25, 40, ""),
        CheckRecord("tango", "CaseB", "fail", -0.5, 3, "broke"),
        CheckRecord("tango", "CaseC", "skipped-undefined", None, 0, "n/a"),
    ))
    table = verification_table(report)
    lines = table.splitlines()
    assert len(lines) == 1 + 3 + 1  # header, records, verdict
    assert "FAIL" in lines[-1]
    assert any("broke" in line for line in lines)


def test_nonfinite_margins_degrade_to_null_in_json():
    report = VerificationReport((
        CheckRecord("v_divergence", "CaseA", "pass", math.inf, 1, "guard trip"),
        CheckRecord("tango", "CaseA", "pass", 0.5, 2, ""),
    ))
    body = json.loads(json_text(verification_body(report)))
    assert body["records"][0] == {"check": "v_divergence", "case": "CaseA", "status": "pass",
                                  "margin": None, "probes": 1, "notes": "guard trip"}
    assert body["records"][1]["margin"] == 0.5
    assert body["worst_by_check"] == {"tango": 0.5, "v_divergence": None}
