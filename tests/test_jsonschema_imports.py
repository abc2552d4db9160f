"""jsonschema is imported only for a document the loader refuses.

The loader's own acceptor reads the schema and decides the common case: a
well-formed document. Only a document it refuses is handed to jsonschema,
for the message and path of the violation. Importing jsonschema costs a
cold `python -m qprob` about a third of its start, so no accepted scenario
may pay for it, and the package imports it in one place only.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from qprob import scenario
from tests.helpers import on_fresh_stack

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qprob"
MALFORMED = ROOT / "tests" / "data" / "malformed"
GOLDEN_INPUTS = ("scenarios/midlife.json", "tests/data/complex_dense.json", "tests/data/dense_complex_4x4.json")
# The malformed files whose structure the acceptor refuses; the others are
# refused while parsing or by a semantic check after it.
SCHEMA_REFUSALS = {"02_missing_state.json", "10_bad_complex_pair.json", "13_zero_lifetime.json", "23_deep_payload.json"}

# Loads every preset and the given files, then lists the jsonschema modules
# the process holds.
LOAD_ALL = """
import sys
from qprob.scenario import PRESET_NAMES, load_file, load_preset
for name in PRESET_NAMES:
    load_preset(name)
for path in sys.argv[1:]:
    load_file(path)
print(sorted(m for m in sys.modules if m.split(".")[0] == "jsonschema"))
"""


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _imported_modules(argv: list[str]) -> tuple[int, set[str]]:
    """Exit status of `python -X importtime -m qprob *argv` and the names of
    the modules it imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qprob", *argv],
        capture_output=True, text=True, cwd=ROOT, env=_child_env(),
    )
    names = {line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.returncode, names


def _jsonschema(names) -> set[str]:
    return {name for name in names if name.split(".")[0] == "jsonschema"}


def test_accepted_scenarios_never_import_jsonschema():
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_ALL, *GOLDEN_INPUTS],
        capture_output=True, text=True, cwd=ROOT, env=_child_env(), check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_the_command_line_does_not_import_jsonschema_for_a_preset():
    code, names = _imported_modules(["validate", "--preset", "cat-master"])
    assert code == 0
    assert "qprob.scenario" in names
    assert _jsonschema(names) == set()


def test_a_refused_document_imports_jsonschema():
    code, names = _imported_modules(["validate", "--scenario", str(MALFORMED / "02_missing_state.json")])
    assert code == 2
    assert "jsonschema" in _jsonschema(names)


def _refused_by_the_acceptor(path: Path) -> bool:
    try:
        doc = scenario._parse(path.read_text(encoding="utf-8"), path.name)
    except scenario.ScenarioParseError:
        return False
    return not scenario._accepts(doc)


def test_only_schema_refusals_reach_jsonschema():
    # The 980-level payload parses only from a shallow stack.
    refused = {path.name for path in MALFORMED.glob("*.json") if on_fresh_stack(_refused_by_the_acceptor, path)}
    assert refused == SCHEMA_REFUSALS


def _jsonschema_imports(text: str) -> list[str]:
    """The innermost function around each import of jsonschema in `text`,
    or "<module>"."""
    tree = ast.parse(text)
    owners = {}
    for func in ast.walk(tree):  # outer functions first, so inner ones win
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owners[node] = func.name
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(module.split(".")[0] == "jsonschema" for module in modules):
            found.append(owners.get(node, "<module>"))
    return found


def test_jsonschema_is_imported_only_inside_validate_structure():
    found = {
        f"{path.name}:{owner}"
        for path in sorted(SRC.glob("*.py"))
        for owner in _jsonschema_imports(path.read_text(encoding="utf-8"))
    }
    assert found == {"scenario.py:_validate_structure"}


def test_import_lint_catches_spellings():
    assert _jsonschema_imports("import jsonschema") == ["<module>"]
    assert _jsonschema_imports("import os, jsonschema.validators as v") == ["<module>"]
    assert _jsonschema_imports("from jsonschema.exceptions import best_match") == ["<module>"]
    assert _jsonschema_imports("def f():\n    from jsonschema import Draft202012Validator\n") == ["f"]
    assert _jsonschema_imports("class C:\n    def m(self):\n        def g():\n            import jsonschema\n") == ["g"]
    assert _jsonschema_imports("import json\nfrom json import loads\nfrom . import schema\n") == []


def test_deep_payload_is_one_named_error_on_the_command_line():
    # 980 levels: the decoder reads it, and quoting it from jsonschema would
    # pass the recursion limit.
    path = MALFORMED / "23_deep_payload.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qprob", "validate", "--scenario", str(path)],
        capture_output=True, text=True, cwd=ROOT, env=_child_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"qprob: error: {path}: schema violation: value nested too deeply to check\n"
    vector = path.read_text(encoding="utf-8").split('"vector": ')[1]
    assert len(vector) - len(vector.lstrip("[")) == 980
