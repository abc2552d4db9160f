"""Deterministic table rendering: aligned text, csv, and structured json.

A table's cells are one read-only 2-D float64 or complex128 array: an
operator's own entries, shared, or a copy of anything else. No format
makes a Python function call per cell: floats are written by %-format
calls on templates built once per row pattern. In a table whose real
parts are at least half +0.0, a float whose bits are all zero passes no
argument: its template holds the field's own spelling of it ("0" in text,
"0.0" in csv and json) as literal text, so the table costs what its other
floats cost; -0.0 keeps its field, which csv and json print. A posterior
that lives on one channel's block is such a table. A complex cell's zero
imaginary part, of either sign, passes nothing, and a row that passes
nothing is its template, written with no call.

CSV and json write each row with one call on that row's floats, which
become Python numbers a row at a time. Aligned text formats numbers with
%.{precision}g, negative zero as 0, and a complex cell with a zero
imaginary part prints as its real part. It spells the cells that pass a
float in one call per table and measures only those spellings: a column is
as wide as its header, its widest passing spelling, and 1 where a literal
0 stands. Each row is then written through a template of its pattern of
passing cells with the widths built in, so a literal 0 is written already
padded, neither formatted nor measured. CSV keeps full float precision
(shortest round-trip repr) so re-parsing recovers the in-memory values bit
for bit; a table with any nonzero imaginary part splits every column into
.re/.im columns. The json format mirrors the scenario file convention:
complex numbers as [re, im] pairs. Its bytes are those of
`json.dumps(payload, indent=2)`, but only the small skeleton (title,
captions, labels, lines) goes through the encoder: with `indent` set, the
stdlib runs its pure-Python encoder, one function call per cell, so the
cells are written by hand in the same layout. Output is ASCII throughout
so bytes do not depend on the locale.

A report, or a single section, is gathered as one flat list of pieces
(skeleton, captions, labels, row texts, separators) and joined once, so
its text is held once beside the pieces it is made of.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain

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
    sequence of numbers, held as one read-only array of shape (rows,
    columns): complex128 if any cell is complex, float64 otherwise. A
    float64 or complex128 array that is already read-only and owns its
    data, such as an `Op`'s entries, is kept as it is; anything else,
    a writable array or a view included, is copied. With arrow_pair set,
    the table must have exactly two value columns and aligned text shows
    them as one "first -> second" column (csv and json keep them
    separate)."""

    caption: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: np.ndarray
    arrow_pair: bool = False

    def __post_init__(self):
        cells = self.cells
        owned = isinstance(cells, np.ndarray) and cells.base is None and not cells.flags.writeable
        if not (owned and cells.dtype in (np.float64, np.complex128)):
            cells = np.asarray(cells)
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


def _passing(cells: np.ndarray, real: str, pair: str | None):
    """How the floats of `cells` are written: their spellings, the floats
    as rows of one float64 array, a mask of those that pass an argument to
    a %-format call and each cell's spelling index, the last two None when
    every float passes.

    Where at least half of a table's real parts are +0.0, all bits zero,
    such a float passes no argument: its spelling holds `real % 0.0`, the
    field's own spelling of +0.0, as literal text. Where they are fewer,
    every real part passes: that costs at most twice as much, and a dense
    table's stray zeros do not give each row a template of its own. A
    complex table's rows are read as (re, im) pairs: a cell with a nonzero
    imaginary part is spelled `pair`, with its real part's spelling in
    place of "{}"; any other cell is spelled as its real part, and its
    imaginary part, zero of either sign, passes nothing.
    """
    spellings = [real % 0.0, real]
    split = np.iscomplexobj(cells) and bool(cells.imag.any())
    if split:
        spellings += [pair.format(spellings[0]), pair.format(real)]
    flat = np.ascontiguousarray(cells if split else cells.real).view(np.float64)
    if np.count_nonzero(flat) == flat.size:  # no zero anywhere
        return spellings, flat, None, None
    passes = flat.view(np.uint64) != 0
    reals = passes[:, ::2] if split else passes
    if 2 * np.count_nonzero(reals) > reals.size:
        reals[...] = True
    codes = passes.view(np.uint8)
    if split:
        # A cell's spelling is indexed by its real part's bit plus 2 when
        # its imaginary part passes.
        passes[:, 1::2] = cells.imag != 0
        codes = codes[:, ::2] + 2 * codes[:, 1::2]
    return spellings, flat, passes, codes


def _row_keys(mask: np.ndarray) -> list[bytes]:
    """Each row's pattern: a byte per entry of `mask`, 1 where it is set."""
    marks, width = mask.tobytes(), mask.shape[1]
    return [marks[k * width : (k + 1) * width] for k in range(len(mask))]


def _row_texts(cells: np.ndarray, real: str, pair: str | None, join) -> list[str]:
    """Each row of `cells` as one string, made by one %-format call on the
    floats of that row that pass (see `_passing`), which become Python
    numbers a row at a time. `join` turns a row's spellings, gathered from
    one array by its codes, into its template; rows whose floats pass in the
    same places share one, and a row that passes none is its template
    itself, with no call. A template that no later row shares is not kept:
    a hermitian table's zero diagonal imaginary parts give every row a
    pattern of its own, and its templates would hold the table's text twice.
    """
    spellings, flat, passes, codes = _passing(cells, real, pair)
    if passes is None:
        template = join([spellings[-1]] * cells.shape[1])
        return [template % tuple(row.tolist()) for row in flat]
    keys = _row_keys(passes)
    spelled, counts, shared = np.array(spellings, object), Counter(keys), {}
    args = flat[passes]  # the passing floats, in row order
    ends = list(accumulate(key.count(1) for key in keys))
    texts = []
    for row, (key, a, b) in enumerate(zip(keys, [0, *ends], ends)):
        template = shared.get(key)
        if template is None:
            template = join(spelled[codes[row]].tolist())
            if counts[key] > 1:
                shared[key] = template
        texts.append(template % tuple(args[a:b].tolist()) if b > a else template)
    return texts


def _text_table(out: list, table: RenderedTable, precision: int) -> None:
    """Aligned text: labels left-justified, every other column
    right-justified to its widest entry, two spaces apart. The passing
    cells are spelled in one %-format call and measured; each literal 0
    is one character wide and stands already padded in the row templates.
    """
    pair = "{}" + _number(precision, "+") + "j"
    spellings, flat, passes, codes = _passing(table.cells + 0.0, _number(precision), pair)
    rows, cols = table.cells.shape
    zero, headers = spellings[0], list(table.col_labels)
    live = None if passes is None else codes != 0  # None: every cell passes
    if live is None:
        formats = [spellings[-1]] * (rows * cols)
    else:
        formats, flat = np.array(spellings, object)[codes[live]].tolist(), flat[passes]
        if len(formats) == live.size:
            live = None
    texts = ("\0".join(formats) % tuple(flat.ravel().tolist())).split("\0") if formats else []
    if table.arrow_pair:  # one column, "first -> second"
        if live is not None:
            every = np.full(live.shape, zero, object)
            every[live] = texts
            texts, live = every.ravel().tolist(), None
        headers, texts, cols = [" -> ".join(headers)], [f"{a} -> {b}" for a, b in zip(texts[::2], texts[1::2])], 1
    if live is None:
        lengths = list(map(len, headers + texts))
        widths = [max(lengths[j::cols]) for j in range(cols)]
    else:
        lengths = np.ones((rows + 1, cols), np.int64)  # a literal 0 is one character wide
        lengths[0] = list(map(len, headers))
        lengths[1:][live] = list(map(len, texts))
        widths = lengths.max(axis=0).tolist()
    label_width = max(map(len, table.row_labels), default=0)
    fields = [f"  %{w}s" for w in widths]
    out += (table.caption, "\n", (" " * label_width + "".join(fields) % tuple(headers)).rstrip())
    if not cols:
        for label in table.row_labels:
            out += ("\n", label.rstrip())
    elif live is None:
        template = "".join(fields)
        for label, row in zip(table.row_labels, zip(*[iter(texts)] * cols)):  # texts in rows of `cols`
            out += ("\n", label.ljust(label_width), template % row)
    else:
        templates, a = {}, 0
        for label, key in zip(table.row_labels, _row_keys(live)):
            template = templates.get(key)
            if template is None:
                template = templates[key] = "".join([f if k else f % zero for k, f in zip(key, fields)])
            b = a + key.count(1)
            out += ("\n", label.ljust(label_width), template % tuple(texts[a:b]) if b > a else template)
            a = b


def _csv_field(text: str) -> str:
    # Only labels need quoting: a float's repr never holds a comma, quote or line break.
    if any(c in text for c in ",\"\n\r"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_table(out: list, table: RenderedTable) -> None:
    cells = table.cells
    if np.iscomplexobj(cells) and cells.imag.any():
        headers = [""] + [f"{label}.{part}" for label in table.col_labels for part in ("re", "im")]
        # Each cell becomes two adjacent columns, real part then imaginary
        # part: the memory order of complex128.
        cells = np.ascontiguousarray(cells).view(np.float64)
    else:
        headers = [""] + list(table.col_labels)
        cells = cells.real
    texts = _row_texts(cells, "%r", None, lambda spellings: ",".join(["", *spellings]))
    out.append(f"# {table.caption}\n" + ",".join(map(_csv_field, headers)))
    for label, text in zip(table.row_labels, texts):
        out += ("\n", _csv_field(label), text)


def _json_list(out: list, items: list[str], pad: str) -> list:
    """Append to `out` the pieces of encoded `items` laid out as
    json.dumps(..., indent=2) lays out a list whose opening line is
    indented by `pad`."""
    if not items:
        out.append("[]")
        return out
    inner = "\n" + pad + "  "
    seps = ["," + inner] * len(items)
    seps[0] = "[" + inner
    out += chain.from_iterable(zip(seps, items))
    out.append("\n" + pad + "]")
    return out


def _json_head(members: dict, pad: str) -> str:
    """json.dumps(members, indent=2) indented by `pad`, up to the value of
    its last member, a placeholder 0; the caller writes that value and
    then closes the object with "\\n" + pad + "}"."""
    text = json.dumps(members, indent=2)[: -len("0\n}")]
    # The encoder escapes every newline inside a string, so each raw
    # newline starts a line of the layout.
    return text.replace("\n", "\n" + pad)


def _json_section(out: list, section, pad: str) -> None:
    """A section as json.dumps(..., indent=2) writes it `pad` deep. A table's
    cells are written by hand: the stdlib encoder runs its pure-Python path
    whenever `indent` is set, one function call per cell."""
    if not isinstance(section, RenderedTable):
        lines = {"kind": "lines", "caption": section.caption, "lines": list(section.lines)}
        out.append(json.dumps(lines, indent=2).replace("\n", "\n" + pad))
        return
    row_pad, cell_pad = pad + "    ", pad + "      "
    pair = "".join(_json_list([], ["{}", "%r"], cell_pad))
    rows = _row_texts(section.cells, "%r", pair, lambda spellings: "".join(_json_list([], spellings, row_pad)))
    if not np.isfinite(section.cells).all():  # the encoder's spellings of non-finite floats
        rows = [row.replace("nan", "NaN").replace("inf", "Infinity") for row in rows]
    members = {
        "kind": "table",
        "caption": section.caption,
        "row_labels": list(section.row_labels),
        "col_labels": list(section.col_labels),
        "cells": 0,
    }
    out.append(_json_head(members, pad))
    _json_list(out, rows, pad + "  ")
    out.append("\n" + pad + "}")


def _pieces(out: list, section, fmt: str, precision: int) -> list:
    """Append the pieces of one section to `out`."""
    if fmt == "json":
        _json_section(out, section, "")
    elif isinstance(section, RenderedTable) and fmt == "text":
        _text_table(out, section, precision)
    elif isinstance(section, RenderedTable):
        _csv_table(out, section)
    else:
        prefix = "\n# " if fmt == "csv" else "\n  "
        out.append(f"# {section.caption}" if fmt == "csv" else section.caption)
        for line in section.lines:
            out += (prefix, line)
    return out


def render(section, fmt: str = "text", precision: int = 6) -> str:
    """Render one section in the given format."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    return "".join(_pieces([], section, fmt, precision))


def render_report(report: Report, fmt: str = "text", precision: int = 6) -> str:
    """Render a whole report; ends with a single newline."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    if fmt == "json":
        out = [_json_head({"title": report.title, "sections": 0}, "")]
        for k, section in enumerate(report.sections):
            out.append(",\n    " if k else "[\n    ")
            _json_section(out, section, "    ")
        out.append("\n  ]\n}\n" if report.sections else "[]\n}\n")
        return "".join(out)
    out = [report.title + "\n\n" if fmt == "text" else f"# {report.title}\n"]
    for k, section in enumerate(report.sections):
        if k:
            out.append("\n\n")
        _pieces(out, section, fmt, precision)
    out.append("\n")
    return "".join(out)
