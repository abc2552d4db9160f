import ast
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from qprob import load_preset
from qprob.cli import Options, build_parser, main, run_command
from qprob.errors import IncompatibleCommandError
from tests.helpers import PRESETS, variant
from tests.test_eigen_sites import SRC

MALFORMED = Path(__file__).parent / "data" / "malformed"
MIDLIFE = Path(__file__).parent.parent / "scenarios" / "midlife.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_net_cat_master_worked_example(capsys):
    code, out, err = run(capsys, "net", "--preset", "cat-master")
    assert code == 0 and err == ""
    # joint table, entropic weights, and the six equal nets
    assert "0.25 -> 0.166667" in out
    assert "0.5 -> 0.166667" in out
    assert "alpha = 0.333333" in out
    assert out.count("-> 0.166667") == 6
    assert "net total: 1" in out


def test_gross_stern_gerlach(capsys):
    code, out, err = run(capsys, "gross", "--preset", "stern-gerlach")
    assert code == 0
    assert "up" in out and "down" in out
    assert "expectation of 'alignment'" in out
    assert "value: 0" in out


def test_gross_classical(capsys):
    code, out, _ = run(capsys, "gross", "--preset", "coin")
    assert code == 0
    assert "event probabilities" in out
    assert "heads-up" in out


def test_joint_cat_box(capsys):
    code, out, _ = run(capsys, "joint", "--preset", "cat-box")
    assert code == 0
    assert "joint probabilities: rows 'reading', columns 'cat-state'" in out
    assert "0.45" in out and "0.05" in out
    assert "adequately correlated at tol 1e-10: no" in out


def test_joint_loose_tolerance(capsys):
    code, out, _ = run(capsys, "joint", "--preset", "cat-box", "--tol", "0.2")
    assert code == 0
    assert "adequately correlated at tol 0.2: yes" in out


def test_conditional_full_table(capsys):
    code, out, _ = run(capsys, "conditional", "--preset", "cat-master")
    assert code == 0
    assert "given channels of 'master-mind'" in out
    assert "master-mind:dreams-awake" in out


def test_conditional_given_channel(capsys):
    code, out, _ = run(
        capsys, "conditional", "--preset", "cat-master", "--given", "master-mind:dreams-awake"
    )
    assert code == 0
    lines = [l for l in out.splitlines() if "dreams-awake" in l]
    assert any("0.5" in l for l in lines)


def test_collapse(capsys):
    code, out, _ = run(capsys, "collapse", "--preset", "cat-box", "--on", "reading:up")
    assert code == 0
    assert "probability: 0.5" in out
    assert "a-posteriori operator" in out
    assert "0.9" in out and "0.1" in out


def test_collapse_malformed_ref(capsys):
    code, _, err = run(capsys, "collapse", "--preset", "cat-box", "--on", "reading")
    assert code == 1
    assert "OBSERVABLE:CHANNEL" in err
    code, _, err = run(capsys, "collapse", "--preset", "cat-box", "--on", "reading:sideways")
    assert code == 1
    assert "sideways" in err


def test_luder_and_branches(capsys):
    code, out, _ = run(capsys, "luder", "--preset", "stern-gerlach")
    assert code == 0
    assert "decohered operator" in out
    code, out, _ = run(capsys, "branches", "--preset", "cat-box", "--obs", "cat-state")
    assert code == 0
    assert "branch probabilities (observable 'cat-state')" in out
    assert "branch 'awake': a-posteriori operator" in out


def test_lifetime(capsys):
    code, out, _ = run(capsys, "lifetime", "--scenario", str(MIDLIFE))
    assert code == 0
    assert "most likely segment: 2 of 3" in out
    assert "perceived-moment distribution (log base 2)" in out


def test_lifetime_overflowing_mass_exits_two(capsys, tmp_path):
    doc = json.loads(MIDLIFE.read_text())
    doc["lifetime_profile"]["segments"][0]["duration"] = 1e308
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "lifetime", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert "non-finite total perception mass" in err


@pytest.mark.parametrize("field, value", [("duration", "40"), ("branch_channels", "1024")])
def test_integer_literal_past_the_digit_limit_exits_one(capsys, tmp_path, field, value):
    # Python's int() refuses more than 4,300 digits; that is a parse error
    # naming the file, like 1e999, not a bare ValueError.
    text = MIDLIFE.read_text()
    assert text.count(f'"{field}": {value},') == 1
    path = tmp_path / "long.json"
    path.write_text(text.replace(f'"{field}": {value},', f'"{field}": {"9" * 5001},'))
    code, out, err = run(capsys, "lifetime", "--scenario", str(path))
    assert code == 1 and out == ""
    assert err == f"qprob: error: {path}: integer literal of 5001 digits is too long to read\n"


def test_lifetime_requires_profile(capsys):
    code, _, err = run(capsys, "lifetime", "--preset", "cat-master")
    assert code == 1
    assert "lifetime profile" in err


def test_validate_and_check(capsys):
    code, out, _ = run(capsys, "validate", "--preset", "cat-master")
    assert code == 0
    assert "scenario 'cat-master': valid" in out
    code, out, _ = run(capsys, "check", "--preset", "cat-master")
    assert code == 0
    assert "correlation check" in out
    assert "channel counts match: no" in out  # 4 channels vs 2


def test_classical_rejects_quantum_commands(capsys):
    for cmd in ("joint", "collapse", "luder", "branches", "net"):
        argv = [cmd, "--preset", "coin"]
        if cmd == "collapse":
            argv += ["--on", "a:b"]
        code, _, err = run(capsys, *argv)
        assert code == 1, cmd
        assert "classical" in err


def test_net_requires_observers(capsys):
    code, _, err = run(capsys, "net", "--preset", "cat-box")
    assert code == 1
    assert "observers" in err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["gross"]) == 1  # missing --preset/--scenario
    assert main(["gross", "--preset", "coin", "--scenario", "x.json"]) == 1
    assert main(["frobnicate", "--preset", "coin"]) == 1
    assert main(["gross", "--preset", "nosuch"]) == 1
    assert main(["gross", "--preset", "coin", "--tol", "-1"]) == 1
    assert main(["gross", "--preset", "coin", "--precision", "0"]) == 1
    capsys.readouterr()


def _two_qubit_scenario(tmp_path) -> str:
    # z and x bases on factor a: their channels do not commute.
    s = 2 ** -0.5
    path = tmp_path / "two-qubits.json"
    path.write_text(json.dumps({
        "name": "two-qubits",
        "spaces": [{"id": "a", "dim": 2}, {"id": "b", "dim": 2}],
        "composite": ["a", "b"],
        "state": {"kind": "diagonal", "weights": [0.25, 0.25, 0.25, 0.25]},
        "observables": [
            {"id": "z", "space": "a", "channels": [
                {"label": "z0", "vectors": [[[1, 0], [0, 0]]]},
                {"label": "z1", "vectors": [[[0, 0], [1, 0]]]},
            ]},
            {"id": "x", "space": "a", "channels": [
                {"label": "x0", "vectors": [[[s, 0], [s, 0]]]},
                {"label": "x1", "vectors": [[[s, 0], [-s, 0]]]},
            ]},
        ],
    }), encoding="utf-8")
    return str(path)


def test_finite_tol_still_checks_commutation(capsys, tmp_path):
    code, out, err = run(capsys, "joint", "--scenario", _two_qubit_scenario(tmp_path),
                         "--rows", "z", "--cols", "x", "--tol", "0.1")
    assert (code, out) == (2, "")
    assert err == "qprob: error: channels 'z0' and 'x0' do not commute: residual 5.000e-01 exceeds 1e-01\n"


# A non-finite tolerance used to switch off the commutation check (nan)
# or make every correlation verdict "yes" (inf).
@pytest.mark.parametrize("tol", ["nan", "inf", "1e400", "NaN", "+Infinity"])
@pytest.mark.parametrize("command", ["joint", "check"])
def test_non_finite_tol_is_a_usage_error(capsys, tmp_path, command, tol):
    source = ["--scenario", _two_qubit_scenario(tmp_path), "--rows", "z", "--cols", "x"]
    if command == "check":
        source = ["--preset", "cat-box"]
    code, out, err = run(capsys, command, *source, "--tol", tol)
    assert (code, out) == (1, "")
    assert err.startswith("usage: qprob ")
    assert err.endswith(f"qprob {command}: error: argument --tol: must be finite\n")


def test_non_positive_tol_is_a_usage_error(capsys):
    for tol in ("0", "-1e-3", "-inf"):
        code, out, err = run(capsys, "check", "--preset", "cat-box", f"--tol={tol}")
        assert (code, out) == (1, "")
        assert err.endswith("qprob check: error: argument --tol: must be positive\n")


def test_unreadable_file_exits_one(capsys):
    code, _, err = run(capsys, "gross", "--scenario", "/nonexistent/x.json")
    assert code == 1
    assert "cannot read" in err


def test_parse_error_exits_one(capsys):
    code, _, err = run(capsys, "validate", "--scenario", str(MALFORMED / "01_syntax.json"))
    assert code == 1
    assert "parse error" in err


def test_validation_error_exits_two(capsys):
    code, _, err = run(capsys, "validate", "--scenario", str(MALFORMED / "03_bad_trace.json"))
    assert code == 2
    assert "unit trace" in err


def test_running_out_of_memory_is_one_error_line(tmp_path):
    # A 100 x 200 composite in a diagonal state: its 20,000 x 20,000
    # operator needs 6 GB, past the 2 GB address space the child is given.
    eye = [[[float(j == k), 0.0] for j in range(100)] for k in range(100)]
    doc = {
        "name": "big-diagonal",
        "kind": "quantum",
        "spaces": [{"id": "a", "dim": 100}, {"id": "b", "dim": 200}],
        "composite": ["a", "b"],
        "state": {"kind": "diagonal", "weights": [1 / 20000] * 20000},
        "observables": [
            {"id": "a-std", "space": "a", "channels": [{"label": f"a{k}", "vectors": [eye[k]]} for k in range(100)]}
        ],
    }
    path = tmp_path / "big-diagonal.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    def limit_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, hard))

    env = dict(os.environ, PYTHONPATH=str(SRC.parent), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "qprob", "validate", "--scenario", str(path)],
                          capture_output=True, text=True, env=env, preexec_fn=limit_address_space, timeout=300)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("qprob: error: out of memory: ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")


def test_zero_probability_collapse_exits_two(capsys, tmp_path):
    path = tmp_path / "dead-end.json"
    payload = {
        "name": "dead-end",
        "spaces": [{"id": "s", "dim": 2}],
        "state": {"kind": "diagonal", "weights": [1.0, 0.0]},
        "observables": [
            {
                "id": "z",
                "space": "s",
                "channels": [
                    {"label": "live", "vectors": [[[1, 0], [0, 0]]]},
                    {"label": "dead", "vectors": [[[0, 0], [1, 0]]]},
                ],
            }
        ],
    }
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "collapse", "--scenario", str(path), "--on", "z:dead")
    assert code == 2
    assert "probability" in err


def test_non_psd_collapse_exits_two(capsys, tmp_path):
    # The state passes the load check (smallest eigenvalue -5e-11 is within
    # tolerance); collapsing onto states 1 and 2 divides by p = 1e-11 and
    # yields an eigenvalue of -5, which the derived operator's check rejects.
    path = tmp_path / "magnified.json"
    payload = {
        "name": "magnified",
        "spaces": [{"id": "s", "dim": 3}],
        "state": {"kind": "diagonal", "weights": [1 - 1e-11, 6e-11, -5e-11]},
        "observables": [
            {
                "id": "z",
                "space": "s",
                "channels": [
                    {"label": "head", "vectors": [[[1, 0], [0, 0], [0, 0]]]},
                    {"label": "tail", "vectors": [[[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]},
                ],
            }
        ],
    }
    path.write_text(json.dumps(payload))
    code, _, _ = run(capsys, "validate", "--scenario", str(path))
    assert code == 0
    code, out, err = run(capsys, "collapse", "--scenario", str(path), "--on", "z:tail")
    assert code == 2 and out == ""
    assert "positive semidefinite" in err


def test_non_psd_conditional_exits_two(capsys, tmp_path):
    # The composite form of the magnified state above: conditioning on
    # za:d divides by p = 1e-11, and the compressed a-posteriori operator
    # must fail the same PSD check the D x D one did.
    path = tmp_path / "magnified-composite.json"
    basis = [{"label": "u", "vectors": [[[1, 0], [0, 0]]]}, {"label": "d", "vectors": [[[0, 0], [1, 0]]]}]
    payload = {
        "name": "magnified-composite",
        "spaces": [{"id": "a", "dim": 2}, {"id": "b", "dim": 2}],
        "composite": ["a", "b"],
        "state": {"kind": "diagonal", "weights": [1 - 1e-11, 0, 6e-11, -5e-11]},
        "observables": [
            {"id": "za", "space": "a", "channels": basis},
            {"id": "zb", "space": "b", "channels": basis},
        ],
    }
    path.write_text(json.dumps(payload))
    code, _, _ = run(capsys, "validate", "--scenario", str(path))
    assert code == 0
    for extra in ([], ["--given", "za:d"]):
        code, out, err = run(capsys, "conditional", "--scenario", str(path), *extra)
        assert code == 2 and out == "", extra
        assert "positive semidefinite: residual 5.000e+00 exceeds 1e-10" in err, extra


def test_joint_other_pair_keeps_default_correlation(capsys):
    code, out, _ = run(capsys, "joint", "--preset", "cat-master", "--rows", "cat-mind", "--cols", "master-mind")
    assert code == 0
    assert "joint probabilities: rows 'cat-mind', columns 'master-mind'" in out
    assert "observables: 'master-mind' (4 channels) vs 'cat-mind' (2 channels)" in out


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("qprob ")


# Argvs that leave argparse by every route: version, help, a usage error,
# a choice error, and full runs in each format.
SHARED_PARSER_ARGVS = [
    ["--version"],
    ["--help"],
    ["gross", "--help"],
    ["gross", "--preset", "coin", "--precision", "0"],
    ["gross", "--preset", "nosuch"],
    *[["gross", "--preset", "coin", "--format", fmt] for fmt in ("text", "csv", "json")],
    ["net", "--preset", "cat-master"],
]


def test_main_gives_the_same_outcome_whatever_ran_before(capsys):
    # main shares one parser across the calls of a process; no call may
    # leave anything in it that the next one sees.
    capsys.readouterr()

    def outcome(argv):
        code = main(list(argv))
        return (code, *capsys.readouterr())

    forwards = [outcome(argv) for argv in SHARED_PARSER_ARGVS]
    backwards = [outcome(argv) for argv in reversed(SHARED_PARSER_ARGVS)][::-1]
    assert forwards == backwards
    assert [code for code, _, _ in forwards] == [0, 0, 0, 1, 1, 0, 0, 0, 0]
    assert build_parser() is not build_parser()


def test_json_format_parses(capsys):
    code, out, _ = run(capsys, "net", "--preset", "cat-master", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    weights = next(s for s in doc["sections"] if s["caption"].startswith("observer weights"))
    assert weights["cells"] == [[2 / 3], [1 / 3]]


def test_csv_format_full_precision(capsys):
    code, out, _ = run(capsys, "net", "--preset", "cat-master", "--format", "csv")
    assert code == 0
    assert repr(1 / 6) in out


def test_precision_flag(capsys):
    _, out, _ = run(capsys, "net", "--preset", "cat-master", "--precision", "3")
    assert "0.167" in out


def test_log_base_flag(capsys):
    # base e changes alpha (1/sum S) but not the weights
    code, out, _ = run(capsys, "net", "--preset", "cat-master", "--log-base", "e")
    assert code == 0
    assert "log base e" in out
    assert out.count("-> 0.166667") == 6


def test_run_command_in_process():
    scn = load_preset("cat-master")
    report = run_command("net", scn, Options())
    assert report.title == "net: scenario 'cat-master'"
    with pytest.raises(IncompatibleCommandError):
        run_command("waltz", scn, Options())


def test_deterministic_double_runs(capsys):
    for fmt in ("text", "csv", "json"):
        _, first, _ = run(capsys, "net", "--preset", "cat-master", "--format", fmt)
        _, second, _ = run(capsys, "net", "--preset", "cat-master", "--format", fmt)
        assert first == second


def test_only_run_command_builds_a_report():
    # Each handler returns its sections; the report and its title are made
    # in one place.
    calls = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call) and "Report" in (getattr(child.func, "id", None),
                                                           getattr(child.func, "attr", None)):
                calls.append(f"{module}:{where}")
            visit(child, module, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")
    assert calls == ["cli.py:run_command"]


def _without_cat_observable(doc):
    doc["observables"].pop(1)


# Requests a scenario cannot answer for what it lacks: (source, edit, argv, message).
@pytest.mark.parametrize(
    "source,edit,argv,message",
    [
        pytest.param("cat-box", _without_cat_observable, ["joint"],
                     "command 'joint' needs an observable on factor 2 (cat)", id="joint-no-factor-observable"),
        pytest.param("cat-box", _without_cat_observable, ["conditional", "--given", "reading:up"],
                     "no observable on another factor to condition; pass --target", id="conditional-no-target"),
        pytest.param("cat-master", lambda doc: doc.pop("weighting"), ["net"],
                     "scenario 'cat-master' defines no weighting scheme", id="net-no-weighting"),
        pytest.param("cat-master", lambda doc: doc["observers"].append({"id": "bystander", "branch_channels": 3}),
                     ["net"], "observer 'bystander' has no perception observable; gross probabilities are undefined",
                     id="net-observer-without-observable"),
    ],
)
def test_what_a_scenario_lacks_is_an_input_error(tmp_path, capsys, source, edit, argv, message):
    path = variant(tmp_path, PRESETS / f"{source}.json", edit)
    assert run(capsys, *argv, "--scenario", str(path)) == (1, "", f"qprob: error: {message}\n")


def test_the_correlation_check_needs_an_observable_on_each_factor(tmp_path, capsys):
    path = variant(tmp_path, PRESETS / "cat-box.json", _without_cat_observable)
    code, out, err = run(capsys, "check", "--scenario", str(path))
    assert (code, err) == (0, "")
    assert out.endswith("\ncorrelation check\n  not applicable: needs an observable on each factor\n")
