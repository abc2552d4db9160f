"""The row-at-a-time renderer against the per-cell reference renderer in
`tests/render_oracle.py`, byte for byte, and the hand-written json layout
against the stdlib encoder's.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprob.cli import main
from qprob.render import FORMATS, RenderedTable, Report, TextLines, format_number, render, render_report
from tests import render_oracle as oracle
from tests.helpers import json_pairs, rand_density, rand_unitary
from tests.test_golden import _load_golden

# Finite floats of every kind, with the edges a formatter can get wrong
# drawn often: signed zeros, subnormals, huge magnitudes, and values whose
# %g spelling switches to an exponent.
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308,
         0.1, -1 / 3, 123456789.0, 1e-5, 9.9999995e-5, 0.5)
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
# Imaginary parts are exactly zero often, so complex tables mix real and
# complex cells.
COMPLEX = st.builds(complex, FLOATS, st.one_of(st.sampled_from((0.0, -0.0)), FLOATS))
LABELS = st.text(st.one_of(st.sampled_from(',"\n\r\' {}\\\x00é∂日'), st.characters()), max_size=6)


@st.composite
def tables(draw):
    arrow_pair = draw(st.booleans())
    rows = draw(st.integers(0, 6))
    cols = 2 if arrow_pair else draw(st.integers(0, 6))
    cells = draw(st.lists(st.lists(st.one_of(FLOATS, COMPLEX) if draw(st.booleans()) else FLOATS,
                                   min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    row_labels = draw(st.lists(LABELS, min_size=rows, max_size=rows))
    col_labels = draw(st.lists(LABELS, min_size=cols, max_size=cols))
    array = np.array(cells, dtype=complex if any(isinstance(c, complex) for r in cells for c in r) else float)
    return RenderedTable(draw(LABELS), row_labels, col_labels, array.reshape(rows, cols), arrow_pair)


SECTIONS = st.one_of(tables(), st.builds(TextLines, LABELS, st.lists(LABELS, max_size=3)))


@st.composite
def sparse_tables(draw):
    """A block-sparse table, shaped like a posterior on its channel's block,
    which may hold nan or inf. Most cells are +0.0 or -0.0, in either
    part of a complex cell; a block cell may pair a zero of either sign with
    a nonzero part; some rows are all zero. Values come from a drawn seed,
    so a table can reach 24 x 24 cells."""
    rows, cols = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    parts, nonfinite = 2 if draw(st.booleans()) else 1, draw(st.booleans())
    blocks = draw(st.lists(st.tuples(*[st.integers(0, 24)] * 4), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def zeros(shape, negative):
        return np.where(rng.random(shape) < negative, -0.0, 0.0)

    def values(shape):
        spread = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, shape)
        drawn = np.where(rng.random(shape) < 0.3, rng.choice(EDGES, shape), spread)
        return np.where(rng.random(shape) < 0.2, zeros(shape, 0.5), drawn)

    planes = [zeros((rows, cols), 0.1) for _ in range(parts)]
    for r0, r1, c0, c1 in blocks:
        block = np.s_[min(r0, r1) : max(r0, r1), min(c0, c1) : max(c0, c1)]
        for plane in planes:
            plane[block] = values(plane[block].shape)
    empty = rng.random(rows) < 0.2
    for plane in planes:
        plane[empty] = 0.0
        if nonfinite:
            plane[rng.random((rows, cols)) < 0.05] = rng.choice([np.nan, np.inf, -np.inf])
    cells = np.empty((rows, cols), complex if parts == 2 else float)
    # Assigned part by part: complex arithmetic would lose the signs of zeros.
    cells.real = planes[0]
    if parts == 2:
        cells.imag = planes[1]
    arrow_pair = cols == 2 and draw(st.booleans())
    # Labels from a drawn pool put wide headers over literal-zero columns
    # and empty labels beside all-zero rows; the seed picks them, since a
    # draw per label costs more than the rest of the example.
    pool = draw(st.lists(LABELS, min_size=1, max_size=4))
    labels = [[pool[k] for k in rng.integers(len(pool), size=n)] for n in (rows, cols)]
    return RenderedTable("sparse", *labels, cells, arrow_pair)


@settings(max_examples=300, deadline=None)
@given(tables(), st.integers(1, 17))
def test_table_matches_the_per_cell_oracle(table, precision):
    for fmt in FORMATS:
        assert render(table, fmt, precision) == oracle.render(table, fmt, precision)


@settings(max_examples=100, deadline=None)
@given(LABELS, st.lists(SECTIONS, max_size=3), st.integers(1, 17))
def test_report_matches_the_per_cell_oracle(title, sections, precision):
    report = Report(title, sections)
    for fmt in FORMATS:
        assert render_report(report, fmt, precision) == oracle.render_report(report, fmt, precision)


@settings(max_examples=200, deadline=None)
@given(sparse_tables(), st.integers(1, 17))
def test_zero_heavy_table_matches_the_per_cell_oracle(table, precision):
    # json's rewrite to NaN and Infinity must leave the literal zeros alone.
    for fmt in FORMATS:
        assert render(table, fmt, precision) == oracle.render(table, fmt, precision)


def test_a_posterior_on_one_block_matches_the_oracle():
    # The shape of `collapse --on a-std:a3` on a 16 x 16 composite: a
    # 256 x 256 complex table that is nonzero on one 16 x 16 block.
    rng = np.random.default_rng(256)
    cells = np.zeros((256, 256), complex)
    cells[48:64, 48:64] = rand_density(rng, 16)
    labels = [f"a{k // 16}b{k % 16}" for k in range(256)]
    table = RenderedTable("posterior", labels, labels, cells)
    for precision in (1, 6, 17):
        for fmt in FORMATS:
            assert render(table, fmt, precision) == oracle.render(table, fmt, precision)


def test_rows_of_distinct_zero_patterns_match_the_oracle():
    # A pure state's posterior f f^dag: dense, with an exactly zero
    # imaginary part on the diagonal only, so no two rows share a pattern
    # of passing floats and no row's template is shared.
    rng = np.random.default_rng(48)
    f = rng.normal(size=48) + 1j * rng.normal(size=48)
    cells = f[:, None] * f.conj()
    cells[np.diag_indices(48)] = np.abs(f) ** 2
    labels = [f"k{k}" for k in range(48)]
    table = RenderedTable("posterior", labels, labels, cells)
    for precision in (1, 6, 17):
        for fmt in FORMATS:
            assert render(table, fmt, precision) == oracle.render(table, fmt, precision)


@settings(max_examples=300, deadline=None)
@given(FLOATS, st.integers(1, 17))
def test_format_number_is_the_text_of_a_one_cell_table(x, precision):
    assert format_number(x, precision) == oracle.format_number(x, precision)
    assert render(RenderedTable("", ("",), ("",), [[x]]), "text", precision) == "\n\n  " + format_number(x, precision)


def test_non_finite_real_parts_match_the_oracle():
    # The CLI never prints them; a library caller still gets the old bytes,
    # and json keeps the encoder's NaN and Infinity spellings.
    for cells in ([[np.nan, np.inf, -np.inf]], [[complex(np.inf, 1), complex(np.nan, 0), 0.5]]):
        table = RenderedTable("t", ("r",), ("x", "y", "z"), cells)
        for fmt in FORMATS:
            assert render(table, fmt) == oracle.render(table, fmt)
    assert math.isnan(json.loads(render(table, "json"))["cells"][0][1])


def _is_stdlib_layout(out: str) -> bool:
    return out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize(
    "key", [key for key, case in _load_golden().items() if key.endswith("--format json") and case["exit"] == 0]
)
def test_golden_json_is_the_stdlib_layout(key):
    assert _is_stdlib_layout(_load_golden()[key]["stdout"])


def test_dense_json_is_the_stdlib_layout(tmp_path, capsys):
    # D = 64: an 8 x 8 composite in a dense complex density state, read
    # through a random-unitary basis on factor b.
    rng = np.random.default_rng(64)
    u = rand_unitary(rng, 8)
    doc = {
        "name": "dense-8x8",
        "kind": "quantum",
        "spaces": [{"id": "a", "dim": 8}, {"id": "b", "dim": 8}],
        "composite": ["a", "b"],
        "state": {"kind": "density", "matrix": [json_pairs(row) for row in rand_density(rng, 64)]},
        "observables": [
            {"id": "rot-b", "space": "b", "channels": [{"label": f"r{k}", "vectors": [json_pairs(u[:, k])]} for k in range(8)]}
        ],
    }
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["luder", "--obs", "rot-b", "--scenario", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["sections"][-1]["cells"]) == 64
    assert _is_stdlib_layout(out)
