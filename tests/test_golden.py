"""Golden outputs: the CLI's exact stdout bytes and exit status, frozen.

Covers every criterion-10 preset x command x format, the three collapse
targets, the midlife lifetime scenario, `net` under the proper and weak
weighting schemes, a small scenario whose tables have complex cells and a
D = 16 dense one whose operator tables have many rows of mixed real and
complex cells. Requests that qprob refuses are frozen with their stderr
too. A refactor that means to keep the output must pass
this unchanged. A change that means to alter the output regenerates the
file and shows the new bytes in review:

    PYTHONPATH=src python -m tests.test_golden

which lists every case whose bytes changed against the file as it was,
each with the largest absolute difference between its old and new
numbers ("changed beyond its numbers" when more than numbers changed).
For a case whose request prints probability tables it also lists how far
the old and the new tables lie from the exact oracle of `tests/exact.py`,
read from the case's json form.

Every golden table that the oracle computes (`gross`, `joint`,
`conditional`, the channel probabilities and the operator of `luder`, the
posterior of `collapse`, and the probabilities and posteriors of
`branches`, all on spaces of D <= 16) is held within 1e-15 of it.
"""

import functools
import json
import re
import sys
from pathlib import Path

import pytest

from qprob.cli import main
from tests.exact import TABLE_COMMANDS, distance, tables

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
# A dense complex density on a 4 x 4 composite read through a rotated
# factor observable: D x D operator tables wide enough to exercise column
# widths, with real and complex cells side by side, at three precisions.
# Read through the standard basis of factor a, the same posteriors are
# block-sparse: mostly zero cells, with complex cells inside their blocks.
DENSE_SCENARIO = "tests/data/dense_complex_4x4.json"
DENSE_COMMANDS = (
    ("collapse", "--on", "rot-b:r1"),
    ("luder", "--obs", "rot-b"),
    ("branches", "--obs", "rot-b"),
    ("luder", "--obs", "basis-a"),
    ("branches", "--obs", "basis-a"),
)
DENSE_PRECISIONS = ("1", "17")
# cat-master under the two other weighting schemes, whose weights captions
# no preset prints.
WEIGHTING_SCENARIOS = ("tests/data/cat_master_proper.json", "tests/data/cat_master_weak.json")

# Requests qprob itself refuses: a command on a scenario of the wrong kind,
# and flags naming what the scenario lacks. argparse usage errors are left
# out because their text depends on the terminal width and Python version.
ERROR_ARGVS = [
    *(
        [command, "--preset", "coin"]
        for command in ("joint", "conditional", "luder", "branches", "net", "lifetime")
    ),
    ["collapse", "--preset", "coin", "--on", "reading:up"],
    ["joint", "--preset", "stern-gerlach"],
    ["conditional", "--preset", "stern-gerlach"],
    ["net", "--preset", "stern-gerlach"],
    ["net", "--preset", "cat-box"],
    ["lifetime", "--preset", "cat-master"],
    ["joint", "--preset", "cat-box", "--rows", "reading", "--cols", "reading"],
    ["joint", "--preset", "cat-box", "--rows", "nothing"],
    ["joint", "--preset", "cat-box", "--cols", "nothing"],
    ["luder", "--preset", "cat-box", "--obs", "nothing"],
    ["branches", "--preset", "cat-box", "--obs", "nothing"],
    ["collapse", "--preset", "cat-box", "--on", "nothing:up"],
    ["collapse", "--preset", "cat-box", "--on", "reading:sideways"],
    ["collapse", "--preset", "cat-box", "--on", "reading"],
    ["conditional", "--preset", "cat-box", "--given", "nothing:up"],
    ["conditional", "--preset", "cat-box", "--given", "reading"],
    ["conditional", "--preset", "cat-box", "--given", "reading:up", "--target", "nothing"],
]


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
    for command in DENSE_COMMANDS:
        argvs += [[*command, "--scenario", DENSE_SCENARIO, "--format", fmt] for fmt in FORMATS]
    argvs += [["luder", "--obs", "rot-b", "--scenario", DENSE_SCENARIO, "--precision", p] for p in DENSE_PRECISIONS]
    for scenario in WEIGHTING_SCENARIOS:
        argvs += [["net", "--scenario", scenario, "--format", fmt] for fmt in FORMATS]
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


@pytest.mark.parametrize("argv", ERROR_ARGVS, ids=" ".join)
def test_error_matches_golden(argv, capsys):
    case = _load_golden()[" ".join(argv)]
    code = main(_resolve(argv))
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]


def _json_form(argv: list[str]) -> list[str]:
    # The request with its output in json: every flag takes one value.
    flags = [x for f, v in zip(argv[1::2], argv[2::2]) if f not in ("--format", "--precision") for x in (f, v)]
    return [argv[0], *flags, "--format", "json"]


@pytest.mark.parametrize(
    "argv", [a for a in golden_argvs() if a[0] in TABLE_COMMANDS and a == _json_form(a)], ids=" ".join
)
def test_golden_tables_match_the_exact_oracle(argv, capsys):
    exact = tables(argv)
    assert distance(_load_golden()[" ".join(argv)]["stdout"], exact) <= 1e-15
    main(_resolve(argv))
    assert distance(capsys.readouterr().out, exact) <= 1e-15


# A number as the three formats print it: text %g (complex as a+bj), csv
# and json repr.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _numeric_difference(old: str, new: str) -> float | None:
    """The largest absolute difference between the numbers of two outputs
    that differ only in their numbers and whitespace, else None."""
    old_numbers, new_numbers = _NUMBER.findall(old), _NUMBER.findall(new)

    def skeleton(text: str) -> str:
        return "".join(_NUMBER.sub(" ", text).split())

    if len(old_numbers) != len(new_numbers) or skeleton(old) != skeleton(new):
        return None
    return max((abs(float(a) - float(b)) for a, b in zip(old_numbers, new_numbers) if a != b), default=0.0)


def test_numeric_difference_reads_numbers_only():
    assert _numeric_difference("x  -1.5e-17-0.25j\n", "x  0-0.25j\n") == 1.5e-17
    assert _numeric_difference("e1,0.1\n", "e1,0.1\n") == 0.0
    assert _numeric_difference("up 0.5\n", "down 0.5\n") is None
    assert _numeric_difference("[0.5]", "[0.5, 0.5]") is None


def _regenerate() -> None:
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO

    previous = _load_golden() if GOLDEN.exists() else {}
    cases = []
    for argv in golden_argvs() + ERROR_ARGVS:
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(_resolve(argv))
        case = {"argv": argv, "exit": code, "stdout": out.getvalue()}
        if argv in ERROR_ARGVS:
            case["stderr"] = err.getvalue()
        cases.append(case)
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(cases)} cases to {GOLDEN}\n")

    # What changed against the file as it was: each case, and the largest
    # absolute difference between its numbers when nothing else changed.
    largest, changed = 0.0, 0
    current = {" ".join(case["argv"]): case for case in cases}
    for case in cases:
        key = " ".join(case["argv"])
        old = previous.get(key)
        if old == case:
            continue
        changed += 1
        if old is None:
            sys.stdout.write(f"new: {key}\n")
            continue
        diff = None
        if (old["exit"], old.get("stderr")) == (case["exit"], case.get("stderr")):
            diff = _numeric_difference(old["stdout"], case["stdout"])
        if diff is None:
            sys.stdout.write(f"changed beyond its numbers: {key}\n")
            largest = float("inf")
        else:
            sys.stdout.write(f"changed: {key}: largest absolute difference {diff:.3e}\n")
            largest = max(largest, diff)
        exact = tables(case["argv"])
        if exact is not None:
            twin = " ".join(_json_form(case["argv"]))
            old_distance, new_distance = (distance(c[twin]["stdout"], exact) for c in (previous, current))
            sys.stdout.write(f"  |old - exact| {old_distance:.3e}, |new - exact| {new_distance:.3e}\n")
    sys.stdout.write(f"{changed} of {len(cases)} cases changed; largest absolute difference {largest:.3e}\n")


if __name__ == "__main__":
    _regenerate()
