"""Mutation fuzz: one numeric leaf of a shipped scenario set to an extreme
finite value must still give a clean outcome from the command line.

Each example copies a preset or the midlife scenario, replaces one number
anywhere in the document (two, in an @example whose fault needs both), and runs every command that applies to it
through `main`. Whatever the value, the exit status is 0, 1 or 2, no
exception escapes, no numeric RuntimeWarning is raised, and a successful
run prints no NaN or infinity.
"""

import contextlib
import io
import json
import re
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qprob.cli import main
from tests.test_golden import APPLICABLE, COLLAPSE_TARGETS

ROOT = Path(__file__).resolve().parent.parent

# 10**400 is written as an integer literal too large for a float; 10**5000
# (an @example) as one past the interpreter's 4,300-digit limit for int().
EXTREMES = (
    0.0, -0.0, -1.0, 5e-324, -5e-324, 1e-300, 1e16, 2.0**53 + 2, 1e200, 1e308, -1e308,
    1.7976931348623157e308, 10**400,
)

SOURCES = {
    name: resources.files("qprob").joinpath(f"presets/{name}.json").read_text(encoding="utf-8")
    for name in APPLICABLE
}
SOURCES["midlife"] = (ROOT / "scenarios" / "midlife.json").read_text(encoding="utf-8")

COMMANDS = {
    name: [[c] for c in commands] + ([["collapse", "--on", COLLAPSE_TARGETS[name]]] if name in COLLAPSE_TARGETS else [])
    for name, commands in APPLICABLE.items()
}
COMMANDS["midlife"] = [["validate"], ["gross"], ["luder"], ["branches"], ["lifetime"], ["check"]]

# repr and %g spell non-finite floats nan/inf; json.dumps spells them NaN/Infinity.
NON_FINITE = re.compile(r"\b(nan|inf|NaN|Infinity)\b")


def _numeric_leaves(node, path=()):
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        yield path
    elif isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _numeric_leaves(child, path + (key,))


def _dumps(doc) -> str:
    # json.dumps spells an int with str(), which refuses as many digits as
    # int() does; the scenario reader must still meet such a literal.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc)
    finally:
        sys.set_int_max_str_digits(limit)


LEAVES = {name: list(_numeric_leaves(json.loads(text))) for name, text in SOURCES.items()}

cases = st.sampled_from(sorted(SOURCES)).flatmap(
    lambda name: st.tuples(
        st.just(name), st.sampled_from(LEAVES[name]).map(lambda leaf: (leaf,)), st.sampled_from(EXTREMES)
    )
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=80, deadline=None)
@given(case=cases)
@example(case=("midlife", (("lifetime_profile", "segments", 0, "duration"),), 1e308))
@example(case=("midlife", (("lifetime_profile", "segments", 1, "perception_duration"),), 5e-324))
@example(case=("midlife", (("lifetime_profile", "segments", 1, "duration"),), 10**400))
@example(case=("stern-gerlach", (("observables", 0, "channels", 0, "vectors", 0, 0, 0),), 1e200))
@example(case=("midlife", (("lifetime_profile", "segments", 1, "duration"),), 10**5000))
@example(case=("midlife", (("lifetime_profile", "segments", 0, "branch_channels"),), 10**5000))
@example(case=("stern-gerlach", (("state", "weights", 0), ("state", "weights", 1)), 1e308))  # the total overflows
def test_extreme_leaf_gives_a_clean_outcome(case):
    name, leaves, value = case
    doc = json.loads(SOURCES[name])
    for path in leaves:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "mutated.json"
        scenario.write_text(_dumps(doc), encoding="utf-8")
        for command in COMMANDS[name]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, "--scenario", str(scenario)])
            assert code in (0, 1, 2), (command, code, err.getvalue())
            if code == 0:
                assert not NON_FINITE.search(out.getvalue()), (command, out.getvalue())
