"""Deterministic table rendering: aligned text, csv, and structured json.

A table's cells are one read-only 2-D float64 or complex128 array; every
format reads its values through `tolist()`, so each cell is a Python float
or complex. Aligned text formats numbers with %.{precision}g, and a
complex cell with a zero imaginary part prints as its real part. CSV keeps
full float precision (shortest round-trip repr) so re-parsing recovers the
in-memory values bit for bit; a table with any nonzero imaginary part
splits every column into .re/.im columns. The json format mirrors the
scenario file convention: complex numbers as [re, im] pairs. Output is
ASCII throughout so bytes do not depend on the locale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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


def _format_cell(x: float | complex, precision: int) -> str:
    if isinstance(x, complex) and x.imag != 0.0:
        sign = "+" if x.imag >= 0 else "-"
        return f"{format_number(x.real, precision)}{sign}{format_number(abs(x.imag), precision)}j"
    return format_number(x.real, precision)


@dataclass(frozen=True, eq=False)
class RenderedTable:
    """A captioned numeric table. `cells` accepts an array or nested
    sequence of numbers and is stored as a read-only copy: complex128 if
    any cell is complex, float64 otherwise, of shape (rows, columns). With
    arrow_pair set, the table must have exactly two value columns and
    aligned text shows them as one "first -> second" column (csv and json
    keep them separate)."""

    caption: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: np.ndarray
    arrow_pair: bool = False

    def __post_init__(self):
        cells = np.asarray(self.cells)
        cells = cells.astype(np.complex128 if np.iscomplexobj(cells) else np.float64)
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        shape = (len(self.row_labels), len(self.col_labels))
        if cells.shape != shape:
            raise ValueError(f"{shape[0]} row labels and {shape[1]} column labels but cells of shape {cells.shape}")
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
    rows = table.cells.tolist()
    if table.arrow_pair:
        headers = [""] + [f"{table.col_labels[0]} -> {table.col_labels[1]}"]
        body = [
            [label] + [f"{_format_cell(row[0], precision)} -> {_format_cell(row[1], precision)}"]
            for label, row in zip(table.row_labels, rows)
        ]
    else:
        headers = [""] + list(table.col_labels)
        body = [
            [label] + [_format_cell(c, precision) for c in row]
            for label, row in zip(table.row_labels, rows)
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


def _csv_field(text: str) -> str:
    # Only labels need quoting: a float's repr never holds a comma, quote or newline.
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_table(table: RenderedTable) -> str:
    cells = table.cells
    if np.iscomplexobj(cells) and cells.imag.any():
        headers = [""] + [f"{label}.{part}" for label in table.col_labels for part in ("re", "im")]
        # Each cell becomes two adjacent columns: real part, imaginary part.
        cells = np.stack((cells.real, cells.imag), axis=-1).reshape(len(table.row_labels), -1)
    else:
        headers = [""] + list(table.col_labels)
        cells = cells.real
    out = [f"# {table.caption}", ",".join(_csv_field(h) for h in headers)]
    for label, row in zip(table.row_labels, cells.tolist()):
        out.append(",".join([_csv_field(label)] + [repr(c) for c in row]))
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
