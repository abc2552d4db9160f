import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from qprob.hilbert import HilbertSpace, Op
from qprob.render import (
    FORMATS,
    RenderedTable,
    Report,
    TextLines,
    format_number,
    render,
    render_report,
)


def test_format_number_frozen():
    assert format_number(0.25) == "0.25"
    assert format_number(1 / 6) == "0.166667"
    assert format_number(1e-12) == "1e-12"
    assert format_number(-0.0) == "0"
    assert format_number(123456789) == "1.23457e+08"
    assert format_number(1 / 3, precision=3) == "0.333"
    assert format_number(2) == "2"


def test_table_shape_validation():
    with pytest.raises(ValueError):
        RenderedTable("c", ("a",), ("x",), ())
    with pytest.raises(ValueError):
        RenderedTable("c", ("a",), ("x", "y"), ((1.0,),))
    with pytest.raises(ValueError):
        RenderedTable("c", ("a",), ("x",), ((1.0,),), arrow_pair=True)


def test_cells_are_one_read_only_array():
    entries = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    table = RenderedTable("op", ("0", "1"), ("0", "1"), entries)
    assert table.cells.dtype == np.complex128
    assert not table.cells.flags.writeable
    entries[0, 0] = 9.0  # the table keeps its own copy
    assert table.cells[0, 0] == 0.5
    assert entries.flags.writeable
    real = RenderedTable("t", ("r",), ("a", "b"), ((1, 0.5),))
    assert real.cells.dtype == np.float64
    assert real.cells.shape == (1, 2)


def test_text_table_frozen():
    table = RenderedTable(
        "gross probabilities",
        ("up", "down"),
        ("probability",),
        ((0.5,), (0.5,)),
    )
    got = render(table, "text")
    want = "gross probabilities\n      probability\nup            0.5\ndown          0.5"
    assert got == want


def test_text_arrow_pair_frozen():
    table = RenderedTable(
        "net",
        ("cat:awake",),
        ("gross", "net"),
        (((0.5), (1 / 6)),),
        arrow_pair=True,
    )
    got = render(table, "text")
    assert got.splitlines()[-1] == "cat:awake  0.5 -> 0.166667"
    assert "gross -> net" in got


def test_text_complex_cells():
    table = RenderedTable(
        "op",
        ("0", "1"),
        ("0", "1"),
        ((complex(0.5, 0), complex(0, -0.5)), (complex(0, 0.5), complex(0.5, 0))),
    )
    got = render(table, "text")
    assert "0+0.5j" in got
    assert "0-0.5j" in got
    assert "0.5+0j" not in got  # real-only cells drop the imaginary part


def test_text_lines():
    section = TextLines("summary", ("first", "second"))
    assert render(section, "text") == "summary\n  first\n  second"
    assert render(section, "csv") == "# summary\n# first\n# second"


def test_csv_full_precision():
    table = RenderedTable("t", ("r",), ("v",), (((1 / 6),),))
    got = render(table, "csv")
    assert repr(1 / 6) in got  # shortest round-trip repr, not %.6g
    value = got.splitlines()[-1].split(",")[1]
    assert float(value) == 1 / 6


def test_csv_complex_split_columns():
    table = RenderedTable("t", ("r",), ("v",), ((complex(0.25, -0.5),),))
    got = render(table, "csv")
    assert got.splitlines()[1] == ",v.re,v.im"
    assert got.splitlines()[2] == "r,0.25,-0.5"


def test_csv_field_quoting():
    table = RenderedTable("t", ('weird,"label"',), ("v",), ((1.0,),))
    got = render(table, "csv")
    assert '"weird,""label"""' in got
    for label in ("a\rb", "a\nb", "a,b", 'a"b', "\r\n"):
        table = RenderedTable("cap", (label, "c"), ("x",), [[0.5], [0.25]])
        rows = list(csv.reader(io.StringIO(render(table, "csv"), newline="")))
        assert rows[1:] == [["", "x"], [label, "0.5"], ["c", "0.25"]]


def test_an_owned_read_only_array_is_shared():
    entries = Op(HilbertSpace(2, "s"), [[0.5, 0.5j], [-0.5j, 0.5]]).entries
    table = RenderedTable("op", ("0", "1"), ("0", "1"), entries)
    assert np.shares_memory(table.cells, entries)
    real = np.array([[0.25, 0.75]])
    real.flags.writeable = False
    assert RenderedTable("t", ("r",), ("a", "b"), real).cells is real


def test_a_read_only_view_of_a_writable_base_is_copied():
    base = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    view = base[:, :]
    view.flags.writeable = False
    table = RenderedTable("op", ("0", "1"), ("0", "1"), view)
    assert not np.shares_memory(table.cells, base)
    base[0, 0] = 9.0
    assert table.cells[0, 0] == 0.5
    assert not table.cells.flags.writeable


def _block_sparse_report() -> Report:
    """Twelve posteriors of a 12 x 12 composite's first factor, each a
    complex 144 x 144 table nonzero on its channel's 12 x 12 block: the
    shape of `branches --obs a-std` on a 12 x 12 pure state."""
    rng = np.random.default_rng(12)
    labels = tuple(map(str, range(144)))
    sections = [RenderedTable("branch probabilities", tuple(f"a{k}" for k in range(12)), ("probability",),
                              np.full((12, 1), 1 / 12))]
    for k in range(12):
        cells = np.zeros((144, 144), dtype=complex)
        block = np.s_[12 * k : 12 * k + 12, 12 * k : 12 * k + 12]
        cells[block] = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        cells.flags.writeable = False
        sections.append(RenderedTable(f"branch 'a{k}': a-posteriori operator", labels, labels, cells))
    return Report("branches: scenario 'pure-12x12'", sections)


@pytest.mark.parametrize("fmt, times", [("json", 2), ("csv", 2), ("text", 3)])
def test_a_report_is_held_once_beside_its_pieces(fmt, times):
    report = _block_sparse_report()
    render_report(report, fmt)  # first-call caches are not the report's
    tracemalloc.start()
    try:
        text = render_report(report, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 1_000_000
    assert peak <= times * len(text) + 256 * 1024


def test_json_section_and_complex_pairs():
    table = RenderedTable("t", ("r",), ("a", "b"), ((complex(0, 1), 0.5),))
    doc = json.loads(render(table, "json"))
    assert doc["kind"] == "table"
    assert doc["cells"][0][0] == [0.0, 1.0]
    assert doc["cells"][0][1] == 0.5


def test_render_report_text_layout():
    report = Report(
        "demo: scenario 'x'",
        (TextLines("a", ("one",)), TextLines("b", ("two",))),
    )
    got = render_report(report, "text")
    assert got == "demo: scenario 'x'\n\na\n  one\n\nb\n  two\n"
    assert got.endswith("\n") and not got.endswith("\n\n")


def test_render_report_json_parses():
    report = Report("demo", (RenderedTable("t", ("r",), ("v",), ((0.5,),)),))
    doc = json.loads(render_report(report, "json"))
    assert doc["title"] == "demo"
    assert doc["sections"][0]["cells"] == [[0.5]]


def test_render_report_csv_title_comment():
    report = Report("demo", (TextLines("a", ("x",)),))
    got = render_report(report, "csv")
    assert got.startswith("# demo\n")


def test_output_is_ascii():
    report = Report(
        "demo",
        (
            RenderedTable("t", ("r",), ("v", "w"), (((1 / 3), complex(0, -2 / 3)),)),
            TextLines("lines", ("plain",)),
        ),
    )
    for fmt in FORMATS:
        render_report(report, fmt).encode("ascii")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render(TextLines("a", ()), "yaml")
    with pytest.raises(ValueError):
        render_report(Report("t", ()), "xml")
