"""Golden outputs: the CLI's exact stdout bytes and exit status, frozen.

Covers every criterion-10 preset x command x format, the three collapse
targets, the midlife lifetime scenario and a dense scenario whose tables
have complex cells. A refactor that means to keep the output must pass
this unchanged. A change that means to alter the output regenerates the
file and shows the new bytes in review:

    PYTHONPATH=src python -m tests.test_golden
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from qprob.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "golden_outputs.json"

FORMATS = ("text", "csv", "json")
APPLICABLE = {
    "coin": ("validate", "gross", "check"),
    "stern-gerlach": ("validate", "gross", "luder", "branches", "check"),
    "cat-box": ("validate", "gross", "joint", "conditional", "luder", "branches", "check"),
    "cat-master": ("validate", "gross", "joint", "conditional", "luder", "branches", "net", "check"),
}
COLLAPSE_TARGETS = {
    "stern-gerlach": "alignment:up",
    "cat-box": "reading:up",
    "cat-master": "master-mind:dreams-awake",
}
# A complex pure state read in a rotated basis: the only golden cases whose
# tables hold complex cells (text a+bj, csv .re/.im columns, json pairs).
COMPLEX_SCENARIO = "tests/data/complex_dense.json"
COMPLEX_COMMANDS = (
    ("gross",),
    ("joint",),
    ("conditional",),
    ("collapse", "--on", "circ:left"),
    ("luder", "--obs", "circ"),
    ("branches",),
    ("check",),
)


def golden_argvs() -> list[list[str]]:
    argvs = []
    for preset, commands in APPLICABLE.items():
        for command in commands:
            argvs += [[command, "--preset", preset, "--format", fmt] for fmt in FORMATS]
    for preset, target in COLLAPSE_TARGETS.items():
        argvs += [["collapse", "--preset", preset, "--on", target, "--format", fmt] for fmt in FORMATS]
    argvs += [["lifetime", "--scenario", "scenarios/midlife.json", "--format", fmt] for fmt in FORMATS]
    for command in COMPLEX_COMMANDS:
        argvs += [[*command, "--scenario", COMPLEX_SCENARIO, "--format", fmt] for fmt in FORMATS]
    return argvs


def _resolve(argv: list[str]) -> list[str]:
    # Scenario paths are stored relative to the repository root.
    return [str(ROOT / a) if prev == "--scenario" else a for prev, a in zip([None] + argv, argv)]


@functools.cache
def _load_golden() -> dict:
    return {" ".join(case["argv"]): case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv", golden_argvs(), ids=" ".join)
def test_output_matches_golden(argv, capsys):
    case = _load_golden()[" ".join(argv)]
    code = main(_resolve(argv))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out == case["stdout"]


def _regenerate() -> None:
    from contextlib import redirect_stdout
    from io import StringIO

    cases = []
    for argv in golden_argvs():
        buf = StringIO()
        with redirect_stdout(buf):
            code = main(_resolve(argv))
        cases.append({"argv": argv, "exit": code, "stdout": buf.getvalue()})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(cases)} cases to {GOLDEN}\n")


if __name__ == "__main__":
    _regenerate()
