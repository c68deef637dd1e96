"""Emission helpers: schema-tagged CSV, deterministic JSON, text tables."""

import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from heatlab.reporting import SCHEMA_LINE, aligned_text, csv_table, json_report, to_jsonable, write_text


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


def test_aligned_text_layout():
    body = aligned_text(("name", "value"), [("x", 1.5), ("longer", 2)], title="demo")
    lines = body.splitlines()
    assert lines[0] == "demo"
    assert lines[1].endswith("value")
    # right-justified columns line up
    assert lines[2].index("1.5") > lines[2].index("x")


def test_write_text(tmp_path):
    path = tmp_path / "body.csv"
    write_text(path, "payload\n")
    assert path.read_text() == "payload\n"
