"""Deterministic table rendering: aligned text, csv, and structured json.

A table's cells are one read-only 2-D float64 or complex128 array. Every
format reads it through `tolist()` and formats a whole row at a time, with
no Python function call per cell: a text or json row is one %-format call
on a template built once per pattern of complex cells in a row, and a csv
row is one join of `repr`s. Aligned text formats numbers with
%.{precision}g, negative zero as 0, and a complex cell with a zero
imaginary part prints as its real part; column widths come from the
formatted strings, and one format string per table lays out every line.
CSV keeps full float precision (shortest round-trip repr) so re-parsing
recovers the in-memory values bit for bit; a table with any nonzero
imaginary part splits every column into .re/.im columns. The json format
mirrors the scenario file convention: complex numbers as [re, im] pairs.
Its bytes are those of `json.dumps(payload, indent=2)`, but only the small
skeleton (title, captions, labels, lines) goes through the encoder: with
`indent` set, the stdlib runs its pure-Python encoder, one function call
per cell, so the cells are written by hand in the same layout. Output is
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


def _number(precision: int, sign: str = "") -> str:
    """The %-format field spelling a number as %.{precision}g. Callers pass
    x + 0.0, which turns negative zero into zero."""
    return f"%{sign}.{precision}g"


def format_number(x, precision: int = 6) -> str:
    """%.{precision}g with negative zero normalized away."""
    return _number(precision) % (float(x) + 0.0)


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


def _row_texts(cells: np.ndarray, real: str, pair: str, join) -> list[str]:
    """Each row of `cells` as one string, made by one %-format call.

    A real table's row template spells each cell as `real`. A complex
    table's rows are read as (re, im) pairs: a cell with a nonzero
    imaginary part is spelled `pair`, any other as `real` followed by
    "%.0s", which takes the zero imaginary part and prints nothing. `join`
    turns a row's spellings into its template; rows with the same pattern
    of complex cells share one.
    """
    if not (np.iscomplexobj(cells) and cells.imag.any()):
        template = join([real] * cells.shape[1])
        return [template % tuple(row) for row in cells.real.tolist()]
    templates: dict[bytes, str] = {}
    texts = []
    for row, nonzero in zip(np.ascontiguousarray(cells).view(np.float64).tolist(), cells.imag != 0):
        key = nonzero.tobytes()
        if key not in templates:
            templates[key] = join([pair if z else real + "%.0s" for z in nonzero.tolist()])
        texts.append(templates[key] % tuple(row))
    return texts


def _text_table(table: RenderedTable, precision: int) -> str:
    cells = table.cells
    real = _number(precision)
    if table.arrow_pair:
        headers, join = ["", f"{table.col_labels[0]} -> {table.col_labels[1]}"], " -> ".join
    else:
        headers, join = ["", *table.col_labels], "\0".join
    texts = _row_texts(cells + 0.0, real, real + _number(precision, "+") + "j", join)
    if cells.shape[1]:
        body = [(label, *text.split("\0")) for label, text in zip(table.row_labels, texts)]
    else:
        body = [(label,) for label in table.row_labels]
    widths = [max(map(len, column)) for column in zip(headers, *body)]
    layout = "  ".join([f"%-{widths[0]}s"] + [f"%{w}s" for w in widths[1:]])
    return "\n".join([table.caption] + [(layout % tuple(row)).rstrip() for row in [headers, *body]])


def _csv_field(text: str) -> str:
    # Only labels need quoting: a float's repr never holds a comma, quote or newline.
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_table(table: RenderedTable) -> str:
    cells = table.cells
    if np.iscomplexobj(cells) and cells.imag.any():
        headers = [""] + [f"{label}.{part}" for label in table.col_labels for part in ("re", "im")]
        # Each cell becomes two adjacent columns, real part then imaginary
        # part: the memory order of complex128.
        cells = np.ascontiguousarray(cells).view(np.float64)
    else:
        headers = [""] + list(table.col_labels)
        cells = cells.real
    out = [f"# {table.caption}", ",".join(map(_csv_field, headers))]
    out += [",".join([_csv_field(label), *map(repr, row)]) for label, row in zip(table.row_labels, cells.tolist())]
    return "\n".join(out)


def _json_list(items: list[str], pad: str) -> str:
    """Encoded items laid out as json.dumps(..., indent=2) lays out a list
    whose opening line is indented by `pad`."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _json_object(members: dict, last: str, pad: str) -> str:
    """json.dumps(members, indent=2) indented by `pad`, with the value of the
    last member, a placeholder 0, replaced by the encoded `last`."""
    text = json.dumps(members, indent=2)[: -len("0\n}")]
    # The encoder escapes every newline inside a string, so each raw
    # newline starts a line of the layout.
    return text.replace("\n", "\n" + pad) + last + "\n" + pad + "}"


def _json_section(section, pad: str) -> str:
    """A section as json.dumps(..., indent=2) writes it `pad` deep. A table's
    cells are written by hand: the stdlib encoder runs its pure-Python path
    whenever `indent` is set, one function call per cell."""
    if not isinstance(section, RenderedTable):
        lines = {"kind": "lines", "caption": section.caption, "lines": list(section.lines)}
        return json.dumps(lines, indent=2).replace("\n", "\n" + pad)
    row_pad, cell_pad = pad + "    ", pad + "      "
    pair = _json_list(["%r", "%r"], cell_pad)
    rows = _row_texts(section.cells, "%r", pair, lambda spellings: _json_list(spellings, row_pad))
    text = _json_list(rows, pad + "  ")
    if not np.isfinite(section.cells).all():  # the encoder's spellings of non-finite floats
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    members = {
        "kind": "table",
        "caption": section.caption,
        "row_labels": list(section.row_labels),
        "col_labels": list(section.col_labels),
        "cells": 0,
    }
    return _json_object(members, text, pad)


def render(section, fmt: str = "text", precision: int = 6) -> str:
    """Render one section in the given format."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    if fmt == "json":
        return _json_section(section, "")
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
        sections = _json_list([_json_section(s, "    ") for s in report.sections], "  ")
        return _json_object({"title": report.title, "sections": 0}, sections, "") + "\n"
    parts = [render(s, fmt, precision) for s in report.sections]
    if fmt == "text":
        return report.title + "\n\n" + "\n\n".join(parts) + "\n"
    return f"# {report.title}\n" + "\n\n".join(parts) + "\n"
