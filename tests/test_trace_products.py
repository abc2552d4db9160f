"""Lint: no trace is read off a matrix product.

tr(A B) is the elementwise sum of A and B transposed, O(D^2); forming
A @ B first costs O(D^3) for a number. Probabilities, joint tables and
expectations contract their operands directly, so the package has no
`np.trace(...)` whose argument holds an `@` product.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qprob"

# A np.trace( or numpy.trace( call and its argument, which may span lines
# and nest parentheses two deep.
TRACE_CALL = re.compile(r"\b(?:np|numpy)\.trace\(((?:[^()]|\((?:[^()]|\([^()]*\))*\))*)\)")


def _traces_of_products(text: str) -> list[int]:
    """Offsets of the trace calls in text whose argument holds an @."""
    return [match.start() for match in TRACE_CALL.finditer(text) if "@" in match.group(1)]


def _trace_products():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for start in _traces_of_products(text):
            yield f"{path.name}:{text.count(chr(10), 0, start) + 1}"


def test_no_trace_of_a_product():
    found = list(_trace_products())
    assert found == [], "contract elementwise instead of tracing a product at:\n" + "\n".join(found)


def test_trace_pattern_catches_spellings():
    for text in (
        "np.trace(m @ p)",
        "np.trace(a@b)",
        "numpy.trace( x @ y )",
        "float(np.trace(prob.matrix.entries @ e.projector.entries).real)",
        "np.trace(m @ ea.projector.entries @ eb.projector.entries)",
        "np.trace(m.entries @ build_operator(q).entries)",
        "np.trace(f(a) @ b)",
        "np.trace((a @ b))",
        "np.trace(f(g(a)) @ b)",
        "np.trace(\n    a\n    @ b\n)",
    ):
        assert _traces_of_products(text), text
    for text in (
        "np.trace(a)",
        "np.trace(self.block)",
        "np.trace(jm.values[: min(n, k), : min(n, k)])",
        "np.trace(a) @ b",
        "x @ np.trace(a)",
        "complex(np.trace(self.entries))",
        "np.einsum('xy,yx->', a, b)",
    ):
        assert not _traces_of_products(text), text
