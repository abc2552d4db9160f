"""Lint: tolerance literals live only in their constant definitions.

Every default, comparison and message in the package names a constant,
so a tolerance is changed in one place. 1e-10 is defined once (the
invariant tolerance in hilbert.py); 1e-12 is defined by the two
constants that use it.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qprob"

# 1e-10 and 1e-12 however spelled: 1e-10, 1.0e-10, 1E-010, 1e-12, ...
LITERAL = re.compile(r"(?<![\w.])1(?:\.0*)?[eE]-0*1[02](?![\d])")

DEFINITIONS = {
    ("hilbert.py", "INVARIANT_TOL = 1e-10"),
    ("engine.py", "ZERO_PROBABILITY_THRESHOLD = 1e-12"),
    ("lattice.py", "CLASSICAL_SUM_TOL = 1e-12"),
}


def _literal_lines():
    for path in sorted(SRC.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if LITERAL.search(line):
                yield path.name, number, line.strip()


def test_tolerance_literals_only_in_constant_definitions():
    stray = [f"{name}:{number}: {line}" for name, number, line in _literal_lines()
             if (name, line) not in DEFINITIONS]
    assert stray == [], "name a tolerance constant instead of:\n" + "\n".join(stray)


def test_each_tolerance_constant_defined_once():
    found = sorted((name, line) for name, _, line in _literal_lines())
    assert found == sorted(DEFINITIONS)


def test_pattern_catches_spellings():
    for text in ("tol=1e-10", "x < -1e-10", "(tol 1e-12)", "1.0e-10", "1E-010", "{1e-12:.0e}"):
        assert LITERAL.search(text), text
    for text in ("1e-100", "11e-10", "1e-1", "2e-10", "0.1e-10"):
        assert not LITERAL.search(text), text
