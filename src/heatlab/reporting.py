"""CSV / JSON / aligned-text emission for tables and check reports.

All CSV bodies start with the `# heatlab-schema v1` comment line, carry
their metadata (seeds, grid sizes) as `# key=value` comment lines, and
format floats with %.17g.  Nothing time- or host-dependent is written, so
re-running a configuration reproduces the bytes.
"""

from __future__ import annotations

import dataclasses
import io
import json

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
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def json_report(obj, **extra):
    """Deterministic JSON (sorted keys) with the schema tag attached."""
    payload = {"schema": SCHEMA_LINE.lstrip("# ")}
    payload.update(to_jsonable(obj) if isinstance(obj, dict) else {"report": to_jsonable(obj)})
    payload.update({k: to_jsonable(v) for k, v in extra.items()})
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def aligned_text(columns, rows, title=None):
    """Fixed-width text table (for terminals, not for parsing)."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c) for i, c in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.rjust(w) for c, w in zip(columns, widths)))
    for r in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def sweep_csv(report, results, meta=None):
    """CSV for an asymptotic sweep: one row per t, largest first.

    ``report`` is the AsymptoticReport, ``results`` the per-t
    HeatContentResult list in the same grid order.
    """
    const = report.theoretical_constant
    rows = []
    for t, y, res in zip(report.t_grid, report.scaled_deficits, results):
        rel = abs(y - const) / abs(const) if const else float("nan")
        rows.append((t, res.H, res.deficit, y, const, rel))
    base_meta = {
        "regime": report.regime,
        "constant_tag": report.constant_tag,
        "extrapolated_limit": report.extrapolated_limit,
    }
    base_meta.update(meta or {})
    return csv_table(
        ("t", "H", "deficit", "scaled_deficit", "theoretical_constant", "rel_error"),
        rows,
        meta=base_meta,
    )


def bound_check_text(report):
    rows = [
        (t, l, r, s, "pass" if ok else "FAIL")
        for t, l, r, s, ok in zip(report.t_grid, report.lhs, report.rhs, report.slack, report.passed)
    ]
    body = aligned_text(("t", "lhs", "rhs", "slack", "status"), rows, title=report.name)
    for key in sorted(report.extra):
        body += f"{key} = {_fmt(report.extra[key])}\n"
    if report.failures:
        body += "failures:\n" + "\n".join("  " + f for f in report.failures) + "\n"
    return body
