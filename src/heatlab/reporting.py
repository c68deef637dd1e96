"""CSV / JSON emission for tables and reports.

All CSV bodies start with the `# heatlab-schema v1` comment line, carry
their metadata (seeds, grid sizes) as `# key=value` comment lines, and
format floats with %.17g.  JSON is strict: a non-finite float, numpy's too,
is written as the string "inf", "-inf" or "nan".  Nothing time- or
host-dependent is written, so re-running a configuration reproduces the bytes.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math

import numpy as np

SCHEMA_LINE = "# heatlab-schema v1"


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def csv_table(columns, rows, meta=None):
    """Render a schema-tagged CSV body as a string."""
    buf = io.StringIO()
    buf.write(SCHEMA_LINE + "\n")
    for key in sorted(meta or {}):
        buf.write(f"# {key}={_fmt(meta[key])}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def write_text(path, body):
    with open(path, "w") as fh:
        fh.write(body)


def to_jsonable(obj):
    """Dataclasses, numpy scalars/arrays, and containers -> plain JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            if f.name.startswith("_"):
                continue
            out[f.name] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def json_report(obj, **extra):
    """Deterministic JSON (sorted keys) with the schema tag attached."""
    payload = {"schema": SCHEMA_LINE.lstrip("# ")}
    payload.update(to_jsonable(obj) if isinstance(obj, dict) else {"report": to_jsonable(obj)})
    payload.update({k: to_jsonable(v) for k, v in extra.items()})
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
