"""Emission helpers: schema-tagged CSV and deterministic, strict JSON."""

import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from heatlab import reporting
from heatlab.reporting import SCHEMA_LINE, csv_table, json_report, to_jsonable, write_text


def test_csv_schema_meta_and_formats():
    body = csv_table(
        ("a", "b", "ok"),
        [(1, 0.1, True), (2, 2.0 / 3.0, False)],
        meta={"seed": 7, "quick": False, "tol": 1e-10},
    )
    lines = body.splitlines()
    assert lines[0] == SCHEMA_LINE
    # meta lines are sorted by key for byte stability
    assert lines[1:4] == ["# quick=false", "# seed=7", "# tol=1e-10"]
    assert lines[4] == "a,b,ok"
    assert lines[5] == "1,0.10000000000000001,true"
    # %.17g round-trips doubles exactly
    assert float(lines[6].split(",")[1]) == 2.0 / 3.0


def test_csv_is_reproducible():
    rows = [(0.1 * k, math.sin(k)) for k in range(5)]
    assert csv_table(("x", "y"), rows) == csv_table(("x", "y"), rows)


def test_json_report_sorted_and_tagged():
    body = json_report({"b": 1, "a": np.float64(0.5)}, extra_bit=(1, 2))
    payload = json.loads(body)
    assert payload["schema"] == "heatlab-schema v1"
    assert payload["a"] == 0.5 and payload["b"] == 1
    assert payload["extra_bit"] == [1, 2]
    keys = list(json.loads(body).keys())
    assert keys == sorted(keys)


def test_to_jsonable_handles_numpy_dataclasses_and_nonfinite():
    @dataclass
    class Sample:
        x: float
        arr: np.ndarray
        _hidden: object = field(default=None)

    out = to_jsonable(Sample(x=float("inf"), arr=np.arange(3)))
    assert out == {"x": "inf", "arr": [0, 1, 2]}
    assert to_jsonable(np.bool_(True)) is True
    assert to_jsonable({"k": (np.int64(2), float("nan"))}) == {"k": [2, "nan"]}


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_report_writes_non_finite_numpy_scalars_as_strings():
    values = {"a": np.float64("inf"), "b": np.float32("-inf"), "c": np.float64("nan"), "d": float("inf")}
    payload = json.loads(json_report(values, rows=[[np.float64(1.5), np.float64("nan")]]), parse_constant=_no_constant)
    assert (payload["a"], payload["b"], payload["c"], payload["d"]) == ("inf", "-inf", "nan", "inf")
    assert payload["rows"] == [[1.5, "nan"]]
    assert to_jsonable(np.float64("inf")) == "inf" and to_jsonable(np.float64(2.0)) == 2.0


def test_json_report_refuses_a_non_finite_float_that_reaches_the_encoder(monkeypatch):
    # the encoder itself enforces strict JSON: with the conversion bypassed,
    # an infinity raises rather than being written as a bare Infinity
    monkeypatch.setattr(reporting, "to_jsonable", lambda obj: obj)
    with pytest.raises(ValueError):
        json_report({"a": float("inf")})


def test_write_text(tmp_path):
    path = tmp_path / "body.csv"
    write_text(path, "payload\n")
    assert path.read_text() == "payload\n"
