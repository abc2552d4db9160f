"""Lint: tolerance literals live only in their constant definitions, and
residual failures are raised in one place.

Every default, comparison and message in the package names a constant,
so a tolerance is changed in one place. 1e-10 is defined once (the
invariant tolerance in hilbert.py); 1e-12 is defined by the two
constants that use it.

Every toleranced invariant fails through `StructureReport.require`, so
the "residual R exceeds T" message, and the NaN-refusing comparison
behind it, are written once.
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


# The failure template "residual {r:.3e} exceeds {tol:.0e}", or either
# half of it when a message is split over two lines.
TEMPLATE = re.compile(r"residual \{[^{}]*:\.3e\}|exceeds \{[^{}]*:\.0e\}")

TEMPLATE_OWNERS = {
    # StructureReport.require: the one check point.
    ("hilbert.py", 'exc = error(f"{what}: residual {self.residual:.3e} exceeds {self.tol:.0e}")'),
}


def _template_lines():
    for path in sorted(SRC.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if TEMPLATE.search(line):
                yield path.name, number, line.strip()


def test_residual_template_only_in_require():
    stray = [f"{name}:{number}: {line}" for name, number, line in _template_lines()
             if (name, line) not in TEMPLATE_OWNERS]
    assert stray == [], "raise through StructureReport.require instead of:\n" + "\n".join(stray)


def test_each_template_owner_present_once():
    found = sorted((name, line) for name, _, line in _template_lines())
    assert found == sorted(TEMPLATE_OWNERS)


def test_template_pattern_catches_spellings():
    for text in (
        'f"not a projector: residual {report.residual:.3e} exceeds {tol:.0e}"',
        'f"channels {la!r} and {lb!r} do not commute: residual {r:.3e} exceeds {tol:.0e}"',
        'f"orthogonality residual {check.orthogonality_residual:.3e} exceeds {check.tol:.0e}"',
        'f"residual {report.residual:.3e} exceeds {report.tol:.0e}"',
        'f"must total 1: residual {residual:.3e} "',
        'f"exceeds {INVARIANT_TOL:.0e}"',
    ):
        assert TEMPLATE.search(text), text
    for text in (
        'f"{name} residual: {r.residual:.3e} (tol {r.tol:.0e}): ok"',
        'f"channel rank {channel_rank} exceeds dimension {dim}"',
        'f"probability {p:.3e} (threshold {threshold:.0e})"',
        'f"measure total residual: {total:.3e} (tol {CLASSICAL_SUM_TOL:.0e}): ok"',
    ):
        assert not TEMPLATE.search(text), text
