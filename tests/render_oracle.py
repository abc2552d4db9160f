"""A per-cell reference renderer: the rendering rules spelled one cell at a
time, with the stdlib json encoder laying out the json format.

`qprob.render` formats a table a row at a time and writes the json cells
block by hand; `tests/test_render_oracle.py` holds it to the bytes this
module gives. Nothing here is optimized, on purpose: each rule is written
once, in its most direct form.
"""

import csv
import io
import json

from qprob.render import FORMATS, RenderedTable


def format_number(x, precision: int = 6) -> str:
    """%.{precision}g with negative zero normalized away."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return f"{x:.{precision}g}"


def _format_cell(x: float | complex, precision: int) -> str:
    if isinstance(x, complex) and x.imag != 0.0:
        sign = "-" if x.imag < 0 else "+"  # nan takes "+", as %+g writes it
        return f"{format_number(x.real, precision)}{sign}{format_number(abs(x.imag), precision)}j"
    return format_number(x.real, precision)


def _text_table(table: RenderedTable, precision: int) -> str:
    rows = table.cells.tolist()
    if table.arrow_pair:
        headers = [""] + [f"{table.col_labels[0]} -> {table.col_labels[1]}"]
        body = [
            [label] + [f"{_format_cell(row[0], precision)} -> {_format_cell(row[1], precision)}"]
            for label, row in zip(table.row_labels, rows)
        ]
    else:
        headers = [""] + list(table.col_labels)
        body = [[label] + [_format_cell(c, precision) for c in row] for label, row in zip(table.row_labels, rows)]
    widths = [len(h) for h in headers]
    for row in body:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))

    def fmt_row(cells):
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(widths[k + 1]) for k, c in enumerate(cells[1:])]
        return "  ".join([first] + rest).rstrip()

    return "\n".join([table.caption, fmt_row(headers)] + [fmt_row(row) for row in body])


def _csv_field(text: str) -> str:
    """`text` as the stdlib csv writer's default dialect spells a field
    that is not alone on its line (csv.QUOTE_MINIMAL, which quotes both
    line-break characters)."""
    out = io.StringIO()
    csv.writer(out).writerow([text, ""])
    return out.getvalue()[: -len(",\r\n")]


def _csv_table(table: RenderedTable) -> str:
    rows = table.cells.tolist()
    split = any(isinstance(c, complex) and c.imag != 0.0 for row in rows for c in row)
    if split:
        headers = [""] + [f"{label}.{part}" for label in table.col_labels for part in ("re", "im")]
    else:
        headers = [""] + list(table.col_labels)
    out = [f"# {table.caption}", ",".join(_csv_field(h) for h in headers)]
    for label, row in zip(table.row_labels, rows):
        fields = [_csv_field(label)]
        for c in row:
            fields += [repr(c.real), repr(c.imag)] if split else [repr(float(c.real))]
        out.append(",".join(fields))
    return "\n".join(out)


def _json_cell(x: float | complex) -> float | list[float]:
    if isinstance(x, complex):
        return x.real if x.imag == 0.0 else [x.real, x.imag]
    return x


def _json_section(section):
    if isinstance(section, RenderedTable):
        return {
            "kind": "table",
            "caption": section.caption,
            "row_labels": list(section.row_labels),
            "col_labels": list(section.col_labels),
            "cells": [[_json_cell(c) for c in row] for row in section.cells.tolist()],
        }
    return {"kind": "lines", "caption": section.caption, "lines": list(section.lines)}


def render(section, fmt: str = "text", precision: int = 6) -> str:
    assert fmt in FORMATS
    if fmt == "json":
        return json.dumps(_json_section(section), indent=2)
    if isinstance(section, RenderedTable):
        return _text_table(section, precision) if fmt == "text" else _csv_table(section)
    if fmt == "csv":
        return "\n".join([f"# {section.caption}"] + [f"# {line}" for line in section.lines])
    return "\n".join([section.caption] + [f"  {line}" for line in section.lines])


def render_report(report, fmt: str = "text", precision: int = 6) -> str:
    assert fmt in FORMATS
    if fmt == "json":
        payload = {"title": report.title, "sections": [_json_section(s) for s in report.sections]}
        return json.dumps(payload, indent=2) + "\n"
    parts = [render(s, fmt, precision) for s in report.sections]
    if fmt == "text":
        return report.title + "\n\n" + "\n\n".join(parts) + "\n"
    return f"# {report.title}\n" + "\n\n".join(parts) + "\n"

