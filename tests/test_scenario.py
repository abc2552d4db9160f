import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qprob import (
    PRESET_NAMES,
    ScenarioParseError,
    ScenarioValidationError,
    UnknownPresetError,
    born,
    lift,
    load_file,
    load_preset,
    load_scenario,
    schema_document,
)
from qprob import scenario
from qprob.cli import main
from tests.helpers import PRESETS, json_pairs, on_fresh_stack, variant
from tests.test_eigen_sites import SRC, _sites

MALFORMED = Path(__file__).parent / "data" / "malformed"
MIDLIFE = Path(__file__).resolve().parent.parent / "scenarios" / "midlife.json"


def test_schema_document_shape():
    doc = schema_document()
    assert doc["$schema"].startswith("https://json-schema.org/draft/2020-12")
    assert "state" in doc["properties"]


def test_schema_document_is_a_fresh_copy():
    # The loader reads its own copy, parsed once; callers may change theirs.
    doc = schema_document()
    doc["properties"].clear()
    assert schema_document()["properties"]
    assert load_preset("cat-master").name == "cat-master"


def test_every_preset_loads():
    for name in PRESET_NAMES:
        scn = load_preset(name)
        assert scn.name == name


def test_unknown_preset_lists_names():
    with pytest.raises(UnknownPresetError) as err:
        load_preset("schroedinger")
    for name in PRESET_NAMES:
        assert name in str(err.value)


def test_load_scenario_dispatch(tmp_path):
    assert load_scenario("coin").is_classical
    path = tmp_path / "coin-copy.json"
    payload = {
        "name": "coin-copy",
        "kind": "classical",
        "points": ["tails", "heads"],
        "measure": [0.5, 0.5],
        "events": [{"id": "heads-up", "members": ["heads"]}],
    }
    path.write_text(json.dumps(payload))
    assert load_scenario(path).name == "coin-copy"


def test_preset_coin_classical():
    scn = load_preset("coin")
    assert scn.is_classical
    assert scn.classical.points == ("tails", "heads")
    by_id = {e.id: e.event for e in scn.events}
    assert by_id["heads-up"].prob() == pytest.approx(0.5)


def test_preset_stern_gerlach():
    scn = load_preset("stern-gerlach")
    assert not scn.is_classical
    assert scn.composite is None
    assert scn.full_space.dim == 2
    sobs = scn.observable_by_id("alignment")
    assert sobs.observable.labels == ("up", "down")
    assert sobs.quantitative.values == (1.0, -1.0)
    for ch in sobs.observable.channels:
        assert born(scn.state, ch) == pytest.approx(0.5, abs=1e-14)


def test_preset_cat_box():
    scn = load_preset("cat-box")
    assert scn.composite is not None
    assert scn.composite.dims == (2, 2)
    assert scn.full_space.dim == 4
    m = scn.state.matrix.entries
    assert np.allclose(np.diag(m).real, [0.45, 0.05, 0.0, 0.5])
    assert [so.id for so in scn.observables] == ["reading", "cat-state"]
    assert scn.observers == ()


def test_preset_cat_master():
    scn = load_preset("cat-master")
    assert scn.composite.dims == (4, 2)
    assert [o.id for o in scn.observers] == ["master", "cat"]
    assert scn.weighting.variant == "entropic"
    assert scn.weighting.log_base == 2
    master = scn.observable_by_id("master-mind")
    assert master.observable.labels == (
        "sees-awake",
        "sees-asleep",
        "dreams-awake",
        "dreams-asleep",
    )
    lifted = lift(master.observable, scn.composite)
    probs = [born(scn.state, ch) for ch in lifted.channels]
    assert probs == pytest.approx([0.25] * 4, abs=1e-14)


def test_observable_by_id_unknown():
    scn = load_preset("cat-box")
    with pytest.raises(KeyError) as err:
        scn.observable_by_id("mood")
    assert "reading" in str(err.value)


def test_observables_on_factor():
    scn = load_preset("cat-master")
    assert [so.id for so in scn.observables_on_factor(0)] == ["master-mind"]
    assert [so.id for so in scn.observables_on_factor(1)] == ["cat-mind"]


def test_missing_file():
    with pytest.raises(ScenarioParseError, match="cannot read"):
        load_file("/nonexistent/nowhere.json")


def test_syntax_error_reports_position():
    with pytest.raises(ScenarioParseError, match=r"line 2 column 1"):
        load_file(MALFORMED / "01_syntax.json")


MALFORMED_EXPECTATIONS = [
    ("02_missing_state.json", "'state' is a required property"),
    ("03_bad_trace.json", "unit trace"),
    ("04_negative_weight.json", "positive semidefinite"),
    ("05_unnormalized_pure.json", "unit squared norm"),
    ("06_nonorthogonal_observable.json", "'straight' and 'diagonal'"),
    ("07_incomplete_observable.json", "completeness"),
    ("08_unknown_space_ref.json", "unknown space id 'elsewhere'"),
    ("09_unknown_observable_ref.json", "unknown observable 'nothing-here'"),
    ("10_bad_complex_pair.json", "state.vector"),
    ("11_duplicate_values.json", "pairwise distinct"),
    ("12_wrong_vector_length.json", "length 3"),
    ("13_zero_lifetime.json", "lifetime"),
    ("14_dup_space_ids.json", "duplicate space id 's'"),
    ("15_bad_measure_sum.json", "measure must total 1"),
    ("16_nan_duration.json", "non-finite number NaN is not allowed"),
    ("17_overflow_lifetime.json", "non-finite number 1e999 is not allowed"),
    ("18_huge_integer_duration.json", "segment 1 duration: integer literal too large for a float"),
    ("19_overflowing_channel_vector.json", "channel 'up': spanning vector norm overflows a float"),
    ("20_ragged_channel_vectors.json", "channel 'up': vectors have different lengths (2 and 1)"),
    ("21_ragged_density_rows.json", "state matrix: rows have different lengths (4 and 3)"),
    ("22_deep_nesting.json", "22_deep_nesting.json: parse error: nesting too deep to read"),
    ("23_deep_payload.json", "23_deep_payload.json: schema violation at $.state.vector[0]: " + "[" * 32 + "[...]"),
    ("24_overflowing_weights.json", "state: probability operator must have unit trace: diagonal weight total"),
    ("25_overflowing_psd_weights.json", "probability operator must be positive semidefinite: residual 1.700e+308"),
    ("26_overflowing_psd_matrix.json", "probability operator must be positive semidefinite: residual 1.798e+308"),
    ("27_overflowing_hermitian_residual.json", "probability operator must be hermitian: residual 1.798e+308"),
]
# Numbers a float cannot hold, and nesting the decoder cannot follow, are
# refused as read, not as invariant violations.
PARSE_FAILURES = {
    "16_nan_duration.json", "17_overflow_lifetime.json", "18_huge_integer_duration.json", "22_deep_nesting.json",
}


@pytest.mark.parametrize("filename,needle", MALFORMED_EXPECTATIONS)
def test_malformed_files_name_the_violation(filename, needle):
    error = ScenarioParseError if filename in PARSE_FAILURES else ScenarioValidationError
    with pytest.raises(error) as err:
        on_fresh_stack(load_file, MALFORMED / filename)
    assert needle in str(err.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "filename,residual",
    [
        # 1.7e308 - 1.7e308 + 0.5 + 0.5 is a unit trace, but a + a^dag overflows.
        ("25_overflowing_psd_weights.json", "1.700e+308"),
        # The negative eigenvalue, -|1.3e308 + 1.3e308i|, lies past the float
        # range; the residual reads as the largest float.
        ("26_overflowing_psd_matrix.json", "1.798e+308"),
    ],
)
def test_entries_near_the_float_limit_are_one_finite_psd_error(capsys, filename, residual):
    path = MALFORMED / filename
    assert main(["validate", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"qprob: error: {path}: state: probability operator must be positive semidefinite: "
        f"residual {residual} exceeds 1e-10\n"
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_hermitian_residual_past_the_float_range_is_one_finite_error(capsys):
    # 1.7e308 - (-1.7e308) overflows; the residual reads as the largest float.
    path = MALFORMED / "27_overflowing_hermitian_residual.json"
    assert main(["validate", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"qprob: error: {path}: state: probability operator must be hermitian: residual 1.798e+308 exceeds 1e-10\n"
    )


def _at_depth(frames: int, fn, *args):
    """fn(*args), called `frames` frames deeper than this call."""
    return fn(*args) if frames == 0 else _at_depth(frames - 1, fn, *args)


def _refusal(path) -> str:
    with pytest.raises(ScenarioValidationError) as err:
        load_file(path)
    return str(err.value)


def test_a_refusal_reads_the_same_from_any_stack_depth(tmp_path):
    # The violation quotes a value nested 200 levels; how it is quoted does
    # not depend on the frames beneath the load.
    doc = json.loads((PRESETS / "stern-gerlach.json").read_text(encoding="utf-8"))
    doc["state"] = {"kind": "pure", "vector": json.loads("[" * 200 + "1" + "]" * 200)}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = on_fresh_stack(_refusal, path)
    assert message == f"{path}: schema violation at $.state.vector[0]: {'[' * 32}[...]{']' * 32} is too short"
    assert _at_depth(500, _refusal, path) == message


def _nested_vector(directory: Path, levels: int) -> Path:
    """The stern-gerlach preset with its pure state vector nested `levels` deep."""
    state = {"kind": "pure", "vector": "@"}
    path = variant(directory, PRESETS / "stern-gerlach.json", lambda doc: doc.update(state=state))
    vector = "[" * levels + "1" + "]" * levels
    path.write_text(path.read_text(encoding="utf-8").replace('"@"', vector), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "levels,code,message",
    [
        pytest.param(987, 2, f"schema violation at $.state.vector[0]: {'[' * 32}[...]{']' * 32} is too short",
                     id="987-levels"),
        pytest.param(988, 1, "parse error: nesting too deep to read", id="988-levels"),
    ],
)
def test_how_deep_a_document_may_nest_depends_on_the_document_alone(tmp_path, capsys, levels, code, message):
    # The decoder reads on a thread of its own, so the frames beneath the
    # load, a test runner's or any others, do not move the boundary, and
    # the command line gives the same verdict.
    path = _nested_vector(tmp_path, levels)
    want = f"qprob: error: {path}: {message}\n"
    for frames in (0, 300):
        assert _at_depth(frames, main, ["validate", "--scenario", str(path)]) == code
        assert capsys.readouterr().err == want
    run = subprocess.run(
        [sys.executable, "-m", "qprob", "validate", "--scenario", str(path)], capture_output=True, text=True
    )
    assert (run.returncode, run.stderr) == (code, want)


def test_a_parse_error_is_raised_on_the_callers_thread():
    with pytest.raises(ScenarioParseError, match="^doc: parse error at line 1 column 2: ") as err:
        scenario._parse("[}", "doc")
    assert isinstance(err.value.__cause__, json.JSONDecodeError)


COIN, STERN_GERLACH = PRESETS / "coin.json", PRESETS / "stern-gerlach.json"
CAT_BOX, CAT_MASTER = PRESETS / "cat-box.json", PRESETS / "cat-master.json"
# A rank-1 and a rank-3 channel that together cover the master's 4 dimensions.
MIXED_RANKS = [
    {"label": "one", "vectors": [json_pairs(np.eye(4)[0])]},
    {"label": "three", "vectors": [json_pairs(np.eye(4)[k]) for k in (1, 2, 3)]},
]


@pytest.mark.parametrize(
    "source,edit,message",
    [
        pytest.param(CAT_BOX, lambda doc: doc.update(composite=["detector", "detector"]),
                     "composite lists a space id twice", id="composite-twice"),
        pytest.param(CAT_BOX, lambda doc: doc.pop("composite"),
                     "2 spaces declared but no composite factor order given", id="no-composite"),
        pytest.param(CAT_BOX, lambda doc: doc["observables"][1].update(id="reading"),
                     "duplicate observable id 'reading'", id="observable-id"),
        pytest.param(CAT_BOX, lambda doc: doc["observables"][0]["channels"][1].update(label="up"),
                     "observable 'reading': duplicate channel label 'up'", id="channel-label"),
        pytest.param(STERN_GERLACH, lambda doc: doc["observables"][0].update(values=[1]),
                     "observable 'alignment': 1 values for 2 channels", id="values-count"),
        pytest.param(CAT_MASTER, lambda doc: doc["observers"][1].update(id="master"),
                     "duplicate observer id 'master'", id="observer-id"),
        pytest.param(CAT_MASTER, lambda doc: doc["observables"][0].update(channels=MIXED_RANKS),
                     "observer 'master': perception channels must share one rank, got ranks [1, 3]",
                     id="mixed-ranks"),
        pytest.param(COIN, lambda doc: doc["events"][1].update(id="tails-up"),
                     "duplicate event id 'tails-up'", id="event-id"),
        pytest.param(CAT_BOX, lambda doc: doc["state"].update(weights=[0.5, 0.5]),
                     "state: 2 weights do not fit dim 4", id="weight-count"),
        pytest.param(CAT_BOX, lambda doc: doc.update(state={"kind": "pure", "vector": [[1, 0], [0, 0], [0, 0]]}),
                     "state: vector components must have shape (4,), got (3,)", id="vector-length"),
        pytest.param(CAT_BOX, lambda doc: doc.update(state={"kind": "density", "matrix": [[[0.25, 0]] * 3] * 4}),
                     "state: operator entries must have shape (4, 4), got (4, 3)", id="matrix-shape"),
        pytest.param(STERN_GERLACH, lambda doc: doc["observables"][0]["channels"][0].update(vectors=[[[1, 0]] * 3]),
                     "observable 'alignment' channel 'up': spanning vector of length 3 does not fit dim 2",
                     id="channel-vector-length"),
        pytest.param(STERN_GERLACH, lambda doc: doc["observables"][0]["channels"][0].update(vectors=[[[0, 0]] * 2]),
                     "observable 'alignment' channel 'up': channel spans nothing", id="null-channel"),
    ],
)
def test_semantic_refusals_name_what_repeats_or_does_not_fit(tmp_path, capsys, source, edit, message):
    path = variant(tmp_path, source, edit)
    assert main(["validate", "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"qprob: error: {path}: {message}\n")


def test_an_observer_may_give_its_branch_channels(tmp_path, capsys):
    bystander = {"id": "bystander", "branch_channels": 3}
    path = variant(tmp_path, CAT_MASTER, lambda doc: doc["observers"].append(bystander))
    assert main(["validate", "--scenario", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (
        "\nobservers\n"
        "  master: branch channels 4, lifetime 1, perception duration 1\n"
        "  cat: branch channels 2, lifetime 1, perception duration 1\n"
        "  bystander: branch channels 3, lifetime 1, perception duration 1\n\n"
    ) in captured.out


def test_a_lifetime_segment_may_give_its_entropy(tmp_path, capsys):
    # An entropy of 20 bits reads as 2**20 branch channels do.
    segment = {"duration": 20, "entropy": 20, "perception_duration": 1.0}
    path = variant(tmp_path, MIDLIFE, lambda doc: doc["lifetime_profile"]["segments"].__setitem__(2, segment))
    assert main(["lifetime", "--scenario", str(MIDLIFE)]) == 0
    expected = capsys.readouterr().out
    assert main(["lifetime", "--scenario", str(path)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")
    assert "segment 3        20        20           1       20  0.15           1\n" in expected


@pytest.mark.parametrize(
    "filename,json_path",
    [
        ("02_missing_state.json", "$"),
        ("10_bad_complex_pair.json", "$.state.vector[0]"),
        ("20_ragged_channel_vectors.json", "$.observables[0].channels[0].vectors"),
        ("21_ragged_density_rows.json", "$.state.matrix"),
        ("03_bad_trace.json", None),
    ],
)
def test_validation_errors_carry_the_json_path(filename, json_path):
    with pytest.raises(ScenarioValidationError) as err:
        load_file(MALFORMED / filename)
    assert err.value.json_path == json_path


# Numbers refused as read. The loader reads the text once, front to back,
# with a hook on every number, so whichever comes first in the text, an
# offending literal or a syntax error, is the error named (exit 1), ahead
# of any schema problem.
SOURCE_TEXTS = {
    "stern-gerlach": (PRESETS / "stern-gerlach.json").read_text(encoding="utf-8"),
    "midlife": MIDLIFE.read_text(encoding="utf-8"),
}
DIGITS = "7" * 5000  # past the interpreter's 4,300-digit limit
NON_FINITE = "non-finite number {} is not allowed"
TOO_LONG = "integer literal of 5000 digits is too long to read"
PARSE_PRECEDENCE = [
    pytest.param("stern-gerlach", "[0.5, 0.5]", "[NaN, 0.5]", NON_FINITE.format("NaN"), id="nan-payload"),
    pytest.param(
        "stern-gerlach", "[[[1, 0], [0, 0]]]", "[[[1e999, 0], [0, 0]]]", NON_FINITE.format("1e999"), id="inf-payload"
    ),
    pytest.param("stern-gerlach", "[[[0, 0], [1, 0]]]", f"[[[0, 0], [{DIGITS}, 0]]]", TOO_LONG, id="digits-payload"),
    pytest.param("midlife", '"duration": 40', '"duration": NaN', NON_FINITE.format("NaN"), id="nan-scalar"),
    pytest.param(
        "midlife", '"perception_duration": 0.5', '"perception_duration": 1e999', NON_FINITE.format("1e999"),
        id="inf-scalar",
    ),
    pytest.param(
        "midlife", '"perception_duration": 0.5', '"perception_duration": -Infinity', NON_FINITE.format("-Infinity"),
        id="neginf-scalar",
    ),
    pytest.param("midlife", '"dim": 2', f'"dim": {DIGITS}', TOO_LONG, id="digits-scalar"),
    # No state (required) and an unknown key: schema violations both.
    pytest.param(
        "stern-gerlach", '"state": {"kind": "diagonal", "weights": [0.5, 0.5]},', '"extra": [NaN],',
        NON_FINITE.format("NaN"), id="nan-and-schema-violation",
    ),
    pytest.param(
        "stern-gerlach", '"values": [1, -1],', '"values": [1, NaN], ,', NON_FINITE.format("NaN"), id="nan-then-syntax"
    ),
    pytest.param(
        "stern-gerlach", '"kind": "quantum",', '"kind": "quantum",, "extra": NaN,',
        "parse error at line 3 column 21: Expecting property name enclosed in double quotes", id="syntax-then-nan",
    ),
    pytest.param("stern-gerlach", '"values": [1, -1],', f'"values": [{DIGITS}, NaN],', TOO_LONG, id="digits-then-nan"),
]


@pytest.mark.parametrize("source,old,new,message", PARSE_PRECEDENCE)
def test_parse_errors_keep_their_precedence(tmp_path, capsys, source, old, new, message):
    text = SOURCE_TEXTS[source]
    assert old in text
    path = tmp_path / "doc.json"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == f"qprob: error: {path}: {message}\n"


@pytest.mark.parametrize(
    "text",
    [
        "[1e308, 1e308]",  # finite numbers whose sum overflows
        "[1" + "0" * 400 + ", 0.5]",  # an integer past the float range
        '{"description": "NaN 1e999 Infinity"}',
        "[[-0.0, 5e-324], [1e-400, 0]]",
        '{"a": [[[1, 2]], [3.5]], "b": [true, null, "x"]}',
    ],
)
def test_parse_hooks_change_no_value(text):
    assert scenario._parse(text, "doc") == json.loads(text)


def test_the_loader_decodes_json_in_one_place():
    # The scenario text is decoded by _parse alone, the schema file by
    # schema_document; no second reader of a document may grow beside them.
    text = (SRC / "scenario.py").read_text(encoding="utf-8")
    assert _sites(text, "loads") == ["schema_document", "_parse"]
    for name in ("load", "JSONDecoder", "raw_decode"):
        assert _sites(text, name) == [], name


def test_the_loader_names_library_refusals_in_one_place():
    # The library constructors are the one check of each scenario invariant;
    # one except clause, in _named, turns their refusals into a
    # ScenarioValidationError that names the item being built.
    tree = ast.parse((SRC / "scenario.py").read_text(encoding="utf-8"))
    wrapping = [
        (function.name, ast.unparse(handler.type))
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for handler in ast.walk(function) if isinstance(handler, ast.ExceptHandler)
        if any(isinstance(node, ast.Name) and node.id == "ScenarioValidationError" for node in ast.walk(handler))
    ]
    assert wrapping == [("_named", "(ValueError, StructureError)")]


def test_the_loaders_own_errors_pass_through_the_naming():
    for error in (ScenarioValidationError("doc: own"), ScenarioParseError("doc: read")):
        with pytest.raises(type(error)) as raised, scenario._named("doc: item"):
            raise error
        assert raised.value is error
    with pytest.raises(ScenarioValidationError, match="^doc: item: refused$"), scenario._named("doc: item"):
        raise ValueError("refused")


def test_pure_state_scenario(tmp_path):
    path = tmp_path / "pure.json"
    payload = {
        "name": "pure-plus",
        "spaces": [{"id": "s", "dim": 2}],
        "state": {
            "kind": "pure",
            "vector": [[0.7071067811865476, 0], [0.7071067811865476, 0]],
        },
        "observables": [
            {
                "id": "z",
                "space": "s",
                "channels": [
                    {"label": "up", "vectors": [[[1, 0], [0, 0]]]},
                    {"label": "down", "vectors": [[[0, 0], [1, 0]]]},
                ],
            }
        ],
    }
    path.write_text(json.dumps(payload))
    scn = load_file(path)
    assert scn.state_vector is not None
    assert scn.state.matrix.entries[0, 1] == pytest.approx(0.5)
    sobs = scn.observable_by_id("z")
    assert born(scn.state, sobs.observable.channels[0]) == pytest.approx(0.5)


def test_density_state_scenario(tmp_path):
    path = tmp_path / "dense.json"
    payload = {
        "name": "dense",
        "spaces": [{"id": "s", "dim": 2}],
        "state": {
            "kind": "density",
            "matrix": [
                [[0.5, 0], [0, -0.25]],
                [[0, 0.25], [0.5, 0]],
            ],
        },
        "observables": [
            {
                "id": "z",
                "space": "s",
                "channels": [
                    {"label": "up", "vectors": [[[1, 0], [0, 0]]]},
                    {"label": "down", "vectors": [[[0, 0], [1, 0]]]},
                ],
            }
        ],
    }
    path.write_text(json.dumps(payload))
    scn = load_file(path)
    assert scn.state_vector is None
    assert scn.state.matrix.entries[0, 1] == pytest.approx(-0.25j)


def test_lifetime_profile_scenario():
    scn = load_file(Path(__file__).parent.parent / "scenarios" / "midlife.json")
    assert scn.lifetime_profile is not None
    assert len(scn.lifetime_profile.segments) == 3
    assert scn.lifetime_profile.segments[0].branch_channels == 1024


def test_rank_two_channels(tmp_path):
    # channels may have rank above one; spanned by several vectors
    path = tmp_path / "coarse.json"
    payload = {
        "name": "coarse",
        "spaces": [{"id": "s", "dim": 4}],
        "state": {"kind": "diagonal", "weights": [0.4, 0.1, 0.3, 0.2]},
        "observables": [
            {
                "id": "half",
                "space": "s",
                "channels": [
                    {
                        "label": "low",
                        "vectors": [
                            [[1, 0], [0, 0], [0, 0], [0, 0]],
                            [[0, 0], [1, 0], [0, 0], [0, 0]],
                        ],
                    },
                    {
                        "label": "high",
                        "vectors": [
                            [[0, 0], [0, 0], [1, 0], [0, 0]],
                            [[0, 0], [0, 0], [0, 0], [1, 0]],
                        ],
                    },
                ],
            }
        ],
    }
    path.write_text(json.dumps(payload))
    scn = load_file(path)
    obs = scn.observable_by_id("half").observable
    assert tuple(ch.rank for ch in obs.channels) == (2, 2)
    assert born(scn.state, obs.channels[0]) == pytest.approx(0.5)
