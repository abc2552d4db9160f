"""Deterministic table rendering: aligned text, csv, and structured json.

Aligned text formats numbers with %.{precision}g. CSV keeps full float
precision (shortest round-trip repr) so re-parsing recovers the in-memory
values bit for bit; complex cells split into .re/.im columns. The json
format mirrors the scenario file convention: complex numbers as [re, im]
pairs. Output is ASCII throughout so bytes do not depend on the locale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = [
    "FORMATS",
    "RenderedTable",
    "TextLines",
    "Report",
    "render",
    "render_report",
    "format_number",
]

FORMATS = ("text", "csv", "json")


def format_number(x, precision: int = 6) -> str:
    """%.{precision}g with negative zero normalized away."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return f"{x:.{precision}g}"


def _format_cell(x, precision: int) -> str:
    if x is None:
        return ""
    if isinstance(x, complex):
        if x.imag == 0.0:
            return format_number(x.real, precision)
        sign = "+" if x.imag >= 0 else "-"
        return f"{format_number(x.real, precision)}{sign}{format_number(abs(x.imag), precision)}j"
    return format_number(x, precision)


@dataclass(frozen=True)
class RenderedTable:
    """A captioned numeric table. With arrow_pair set, the table must have
    exactly two value columns and aligned text shows them as one
    "first -> second" column (csv and json keep them separate)."""

    caption: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple[tuple[object, ...], ...]
    arrow_pair: bool = False

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.cells)
        object.__setattr__(self, "cells", rows)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        if len(rows) != len(self.row_labels):
            raise ValueError(f"{len(self.row_labels)} row labels but {len(rows)} rows")
        for r in rows:
            if len(r) != len(self.col_labels):
                raise ValueError(f"{len(self.col_labels)} column labels but a row of {len(r)} cells")
        if self.arrow_pair and len(self.col_labels) != 2:
            raise ValueError("arrow_pair tables need exactly two value columns")


@dataclass(frozen=True)
class TextLines:
    """A captioned list of preformatted lines."""

    caption: str
    lines: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))


@dataclass(frozen=True)
class Report:
    """An ordered list of sections produced by one command run."""

    title: str
    sections: tuple[object, ...]

    def __post_init__(self):
        object.__setattr__(self, "sections", tuple(self.sections))


def _text_table(table: RenderedTable, precision: int) -> str:
    if table.arrow_pair:
        headers = [""] + [f"{table.col_labels[0]} -> {table.col_labels[1]}"]
        body = [
            [label] + [f"{_format_cell(row[0], precision)} -> {_format_cell(row[1], precision)}"]
            for label, row in zip(table.row_labels, table.cells)
        ]
    else:
        headers = [""] + list(table.col_labels)
        body = [
            [label] + [_format_cell(c, precision) for c in row]
            for label, row in zip(table.row_labels, table.cells)
        ]
    widths = [len(h) for h in headers]
    for row in body:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    out = [table.caption]
    def fmt_row(cells):
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(widths[k + 1]) for k, c in enumerate(cells[1:])]
        return "  ".join([first] + rest).rstrip()
    out.append(fmt_row(headers))
    for row in body:
        out.append(fmt_row(row))
    return "\n".join(out)


def _csv_field(x) -> str:
    text = str(x)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_table(table: RenderedTable) -> str:
    has_complex = any(isinstance(c, complex) and c.imag != 0.0 for row in table.cells for c in row)
    if has_complex:
        headers = [""]
        for label in table.col_labels:
            headers += [f"{label}.re", f"{label}.im"]
        rows = []
        for label, row in zip(table.row_labels, table.cells):
            flat = [label]
            for c in row:
                if c is None:
                    flat += ["", ""]
                else:
                    c = complex(c)
                    flat += [repr(c.real), repr(c.imag)]
            rows.append(flat)
    else:
        headers = [""] + list(table.col_labels)
        rows = []
        for label, row in zip(table.row_labels, table.cells):
            flat = [label]
            for c in row:
                if c is None:
                    flat.append("")
                else:
                    flat.append(repr(float(c.real) if isinstance(c, complex) else float(c)))
            rows.append(flat)
    out = [f"# {table.caption}"]
    out.append(",".join(_csv_field(h) for h in headers))
    for row in rows:
        out.append(",".join(_csv_field(c) for c in row))
    return "\n".join(out)


def _json_cell(x):
    if x is None:
        return None
    if isinstance(x, complex):
        if x.imag == 0.0:
            return x.real
        return [x.real, x.imag]
    return float(x)


def _json_section(section):
    if isinstance(section, RenderedTable):
        return {
            "kind": "table",
            "caption": section.caption,
            "row_labels": list(section.row_labels),
            "col_labels": list(section.col_labels),
            "cells": [[_json_cell(c) for c in row] for row in section.cells],
        }
    return {"kind": "lines", "caption": section.caption, "lines": list(section.lines)}


def render(section, fmt: str = "text", precision: int = 6) -> str:
    """Render one section in the given format."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    if fmt == "json":
        return json.dumps(_json_section(section), indent=2)
    if isinstance(section, RenderedTable):
        return _text_table(section, precision) if fmt == "text" else _csv_table(section)
    if fmt == "csv":
        return "\n".join([f"# {section.caption}"] + [f"# {line}" for line in section.lines])
    return "\n".join([section.caption] + [f"  {line}" for line in section.lines])


def render_report(report: Report, fmt: str = "text", precision: int = 6) -> str:
    """Render a whole report; ends with a single newline."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    if fmt == "json":
        payload = {"title": report.title, "sections": [_json_section(s) for s in report.sections]}
        return json.dumps(payload, indent=2) + "\n"
    parts = [render(s, fmt, precision) for s in report.sections]
    if fmt == "text":
        return report.title + "\n\n" + "\n\n".join(parts) + "\n"
    return f"# {report.title}\n" + "\n\n".join(parts) + "\n"
