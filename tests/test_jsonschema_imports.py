"""No scenario, accepted or refused, imports jsonschema.

The loader's own validator reads the schema, decides every document and
names the violation of one it refuses. jsonschema is the oracle of the
tests and not a runtime dependency: importing it would cost a cold
`python -m qprob` about a third of its start.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qprob"
MALFORMED = ROOT / "tests" / "data" / "malformed"
GOLDEN_INPUTS = ("scenarios/midlife.json", "tests/data/complex_dense.json", "tests/data/dense_complex_4x4.json")
# The malformed files whose structure the validator refuses; the others are
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
# Loads each file given, printing the names of those refused as schema
# violations, then lists the jsonschema modules the process holds.
REFUSE_ALL = """
import sys
from pathlib import Path
from qprob.errors import QprobError
from qprob.scenario import load_file
for path in sys.argv[1:]:
    try:
        load_file(path)
    except QprobError as exc:
        if "schema violation" in str(exc):
            print(Path(path).name)
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


def test_a_refused_document_imports_no_jsonschema():
    code, names = _imported_modules(["validate", "--scenario", str(MALFORMED / "02_missing_state.json")])
    assert code == 2
    assert "qprob.scenario" in names
    assert _jsonschema(names) == set()


def test_no_refusal_imports_jsonschema():
    # From a process of its own, whose stack is as shallow as the command
    # line's: the 980-level payload parses only from such a stack.
    files = sorted(str(path) for path in MALFORMED.glob("*.json"))
    proc = subprocess.run(
        [sys.executable, "-c", REFUSE_ALL, *files],
        capture_output=True, text=True, cwd=ROOT, env=_child_env(), check=True,
    )
    *refused, modules = proc.stdout.splitlines()
    assert set(refused) == SCHEMA_REFUSALS
    assert modules == "[]"


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


def test_no_module_under_src_imports_jsonschema():
    found = {
        f"{path.name}:{owner}"
        for path in sorted(SRC.glob("*.py"))
        for owner in _jsonschema_imports(path.read_text(encoding="utf-8"))
    }
    assert found == set()


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [dep.split(">")[0].split("=")[0] for dep in project["dependencies"]] == ["numpy"]
    assert "jsonschema" in {dep.split(">")[0] for dep in project["optional-dependencies"]["test"]}


def test_import_lint_catches_spellings():
    assert _jsonschema_imports("import jsonschema") == ["<module>"]
    assert _jsonschema_imports("import os, jsonschema.validators as v") == ["<module>"]
    assert _jsonschema_imports("from jsonschema.exceptions import best_match") == ["<module>"]
    assert _jsonschema_imports("def f():\n    from jsonschema import Draft202012Validator\n") == ["f"]
    assert _jsonschema_imports("class C:\n    def m(self):\n        def g():\n            import jsonschema\n") == ["g"]
    assert _jsonschema_imports("import json\nfrom json import loads\nfrom . import schema\n") == []


def test_deep_payload_is_one_named_error_on_the_command_line():
    # 980 levels: the decoder reads it from a shallow stack, and the
    # violation quotes it abbreviated.
    path = MALFORMED / "23_deep_payload.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qprob", "validate", "--scenario", str(path)],
        capture_output=True, text=True, cwd=ROOT, env=_child_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    quoted = "[" * 32 + "[...]" + "]" * 32
    assert proc.stderr == f"qprob: error: {path}: schema violation at $.state.vector[0]: {quoted} is too short\n"
    vector = path.read_text(encoding="utf-8").split('"vector": ')[1]
    assert len(vector) - len(vector.lstrip("[")) == 980
