"""Differential tests of the structure check against jsonschema.

The loader decides structure with its own acceptor, which reads the
schema's keywords and checks each numeric payload (state `weights`,
`vector`, `matrix` and channel `vectors`) in one pass of its own; only a
document it refuses goes to jsonschema, for the message and path. Each
example mutates a shipped or seeded scenario, in its payloads or in the
fields around them, and loads it twice: as the loader does, and with the
structure check replaced by full-document jsonschema validation. Both must
accept the document, or refuse it with the same exception class, message
and JSON path, and the acceptor may accept only what jsonschema accepts.
"""

import copy
import json
import tempfile
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from qprob import scenario
from qprob.errors import QprobError, ScenarioValidationError
from qprob.scenario import PRESET_NAMES, load_file, schema_document
from tests.helpers import json_pairs, rand_density

ROOT = Path(__file__).resolve().parent.parent


def _seeded_density() -> dict:
    """A 2 x 3 composite in a dense density state, with basis observables."""
    rho = rand_density(np.random.default_rng(6), 6)
    return {
        "name": "seeded-density",
        "spaces": [{"id": "a", "dim": 2}, {"id": "b", "dim": 3}],
        "composite": ["a", "b"],
        "state": {"kind": "density", "matrix": [json_pairs(row) for row in rho]},
        "observables": [
            {
                "id": f"basis-{sid}",
                "space": sid,
                "channels": [{"label": f"k{k}", "vectors": [json_pairs(np.eye(n)[k])]} for k in range(n)],
            }
            for sid, n in (("a", 2), ("b", 3))
        ],
    }


SOURCES = {
    name: json.loads(resources.files("qprob").joinpath(f"presets/{name}.json").read_text(encoding="utf-8"))
    for name in PRESET_NAMES
}
SOURCES["midlife"] = json.loads((ROOT / "scenarios" / "midlife.json").read_text(encoding="utf-8"))
SOURCES["complex-dense"] = json.loads((ROOT / "tests" / "data" / "complex_dense.json").read_text(encoding="utf-8"))
SOURCES["seeded-density"] = _seeded_density()
# Nesting depth of each payload: numbers, [re, im] pairs, lists of pairs.
DEPTHS = {"weights": 1, "vector": 2, "matrix": 3, "vectors": 3}
MUTABLE = sorted(name for name, doc in SOURCES.items() if "state" in doc)
# Every document the loader ships or is tested on: the sources and the
# other golden input.
ACCEPTED = dict(
    SOURCES,
    dense=json.loads((ROOT / "tests" / "data" / "dense_complex_4x4.json").read_text(encoding="utf-8")),
)


def _payloads(doc):
    """(path, depth) of every numeric payload in `doc`."""
    for key in ("weights", "vector", "matrix"):
        if key in doc["state"]:
            yield ("state", key), DEPTHS[key]
    for i, obs in enumerate(doc["observables"]):
        for j, ch in enumerate(obs["channels"]):
            yield ("observables", i, "channels", j, "vectors"), DEPTHS["vectors"]


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


def _inside(node, path, level=0):
    yield path, level, node
    if isinstance(node, list):
        for k, child in enumerate(node):
            yield from _inside(child, path + (k,), level + 1)


def _sites(doc) -> dict[str, list]:
    """Paths a mutation may pick: payloads, the lists of pairs and the pairs
    inside them, and the leaves."""
    sites = {"payload": [], "vector": [], "pair": [], "leaf": []}
    for path, depth in _payloads(doc):
        if not isinstance(_get(doc, path), list):
            continue
        sites["payload"].append(path)
        for sub, level, node in _inside(_get(doc, path), path):
            if not isinstance(node, list):
                sites["leaf"].append(sub)
            elif level == depth - 1 and level > 0:
                sites["pair"].append(sub)
            elif level == depth - 2 and len(node) > 1:
                sites["vector"].append(sub)
    return sites


LEAF_VALUES = (True, "1", None, [], [1], [1, 2, 3])
EXTRA_VALUES = (1, [0.5], [[1, 0]], [[[1, 0]]])


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(MUTABLE))
    doc = json.loads(json.dumps(SOURCES[name]))
    for _ in range(draw(st.integers(1, 3))):
        sites = _sites(doc)
        mutation = draw(st.sampled_from(["leaf", "empty", "pair", "short", "extra", "kind"]))
        if mutation == "leaf" and sites["leaf"]:
            _set(doc, draw(st.sampled_from(sites["leaf"])), copy.deepcopy(draw(st.sampled_from(LEAF_VALUES))))
        elif mutation == "empty" and sites["payload"]:
            _set(doc, draw(st.sampled_from(sites["payload"])), [])
        elif mutation == "pair" and sites["pair"]:
            path = draw(st.sampled_from(sites["pair"]))
            pair = _get(doc, path)
            _set(doc, path, pair[:1] if draw(st.booleans()) else pair + [0.0])
        elif mutation == "short" and sites["vector"]:
            # Schema-valid: loading names the wrong length or the raggedness.
            _get(doc, draw(st.sampled_from(sites["vector"]))).pop()
        elif mutation == "extra":
            key = draw(st.sampled_from(["extra", "weights", "vector", "matrix"]))
            doc["state"][key] = copy.deepcopy(draw(st.sampled_from(EXTRA_VALUES)))
        elif mutation == "kind":
            doc["state"]["kind"] = draw(st.sampled_from(["diagonal", "pure", "density", "mixed"]))
    return doc


def _full_validation(doc, origin):
    error = best_match(Draft202012Validator(schema_document()).iter_errors(doc))
    if error is not None:
        where = error.json_path if error.json_path != "$" else "document root"
        raise ScenarioValidationError(f"{origin}: schema violation at {where}: {error.message}", error.json_path)


def _outcome(path):
    try:
        load_file(path)
    except QprobError as exc:
        return type(exc), str(exc), getattr(exc, "json_path", None)
    return None


def _check_against_full_validation(doc):
    if scenario._accepts(doc):
        assert Draft202012Validator(schema_document()).is_valid(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        outcome = _outcome(path)
        with mock.patch.object(scenario, "_validate_structure", _full_validation):
            reference = _outcome(path)
    assert outcome == reference


@settings(derandomize=True, max_examples=250, deadline=None)
@given(doc=mutated_documents())
def test_payload_mutations_agree_with_full_validation(doc):
    _check_against_full_validation(doc)


def _identifier_sites(doc) -> list[tuple]:
    """Paths of the identifiers in `doc`: names, ids, references, labels,
    points and event members."""
    sites = [("name",)]
    sites += [("spaces", i, "id") for i in range(len(doc.get("spaces", ())))]
    sites += [("composite", i) for i in range(len(doc.get("composite", ())))]
    for i, obs in enumerate(doc.get("observables", ())):
        sites += [("observables", i, "id"), ("observables", i, "space")]
        sites += [("observables", i, "channels", j, "label") for j in range(len(obs["channels"]))]
    for i, observer in enumerate(doc.get("observers", ())):
        sites += [("observers", i, key) for key in ("id", "observable") if key in observer]
    sites += [("points", i) for i in range(len(doc.get("points", ())))]
    for i, event in enumerate(doc.get("events", ())):
        sites += [("events", i, "id")] + [("events", i, "members", k) for k in range(len(event["members"]))]
    return sites


def _objects(doc) -> list[tuple]:
    """Paths of the objects in `doc` whose keys the schema closes."""
    paths = [()]
    for key in ("spaces", "observables", "observers", "events"):
        paths += [(key, i) for i in range(len(doc.get(key, ())))]
    paths += [("state",)] if "state" in doc else []
    for i, obs in enumerate(doc.get("observables", ())):
        paths += [("observables", i, "channels", j) for j in range(len(obs["channels"]))]
    return paths


QUANTUM_KEYS = {
    "spaces": [{"id": "s", "dim": 2}],
    "composite": ["s", "t"],
    "state": {"kind": "diagonal", "weights": [1.0, 0.0]},
    "observables": [],
    "observers": [{"id": "o", "entropy": 1.0}],
    "weighting": {"scheme": "weak"},
}
CLASSICAL_KEYS = {"points": ["p"], "measure": [1.0], "events": []}
ONE_OF_KEYS = {"observable": "nothing", "branch_channels": 2, "entropy": 0.5}


@st.composite
def mutated_fields(draw):
    """A shipped or seeded document with one to three of the fields around
    its payloads changed."""
    doc = json.loads(json.dumps(SOURCES[draw(st.sampled_from(sorted(SOURCES)))]))
    classical = doc.get("kind") == "classical"
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(
            st.sampled_from(["identifier", "dim", "log_base", "points", "one_of", "other_kind", "unknown", "kind"])
        )
        if mutation == "identifier":
            path = draw(st.sampled_from(_identifier_sites(doc)))
            value = _get(doc, path)
            if isinstance(value, str):
                _set(doc, path, draw(st.sampled_from([value + "\n", "_" + value])))
        elif mutation == "dim" and doc.get("spaces"):
            doc["spaces"][draw(st.integers(0, len(doc["spaces"]) - 1))]["dim"] = draw(st.sampled_from([2.0, True, 0]))
        elif mutation == "log_base" and not classical:
            doc.setdefault("weighting", {"scheme": "entropic"})["log_base"] = draw(st.sampled_from([2.0, True]))
        elif mutation == "points" and classical:
            doc["points"].append(draw(st.sampled_from(doc["points"])))
        elif mutation == "one_of" and not classical:
            observers = doc.setdefault("observers", [{"id": "extra-observer", "entropy": 1.0}])
            observer = observers[draw(st.integers(0, len(observers) - 1))]
            key = draw(st.sampled_from(sorted(ONE_OF_KEYS)))
            observer[key] = ONE_OF_KEYS[key]
        elif mutation == "other_kind":
            keys = QUANTUM_KEYS if classical else CLASSICAL_KEYS
            key = draw(st.sampled_from(sorted(keys)))
            doc[key] = json.loads(json.dumps(keys[key]))
        elif mutation == "unknown":
            _get(doc, draw(st.sampled_from(_objects(doc))))[draw(st.sampled_from(["extra", "Name", "id2"]))] = 1
        elif mutation == "kind":
            doc["kind"] = draw(st.sampled_from(["mixed", "Quantum", "", 1]))
    return doc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=mutated_fields())
def test_field_mutations_agree_with_full_validation(doc):
    _check_against_full_validation(doc)


def test_the_acceptor_accepts_every_shipped_and_seeded_document():
    # Accepted without jsonschema's help: the fallback is for refusals.
    for name, doc in ACCEPTED.items():
        assert scenario._accepts(doc), name


def test_the_acceptor_leaves_what_it_cannot_read_to_jsonschema():
    # jsonschema reads 2.0 as an integer and True == 1 as Python does not;
    # an unknown keyword or a longer chain of subschemas may assert anything.
    schema, depth = scenario._schema()
    assert scenario._verdict(2.0, {"type": "integer"}, depth) is None
    assert scenario._verdict(2.5, {"type": "integer"}, depth) is False
    assert scenario._verdict(True, {"type": "number"}, depth) is False
    assert scenario._verdict(2.0, {"enum": [2, "e"]}, depth) is None
    assert scenario._verdict(True, {"enum": [1]}, depth) is None
    assert scenario._verdict("x", {"type": "string", "format": "date"}, depth) is None
    assert scenario._verdict([[[1]]], {"items": {"items": {"items": {"type": "number"}}}}, 3) is None
    assert scenario._verdict([[[1]]], {"items": {"items": {"items": {"type": "number"}}}}, 4) is True
    assert scenario._verdict({"kind": "pure"}, {"oneOf": [{"required": ["kind"]}, {"format": "x"}]}, depth) is None
    assert scenario._verdict({"kind": "pure"}, {"oneOf": [{"required": ["kind"]}, True]}, depth) is False


def test_the_payload_shapes_are_what_the_generic_reading_decides():
    # The acceptor checks the four payload subschemas with _well_formed; its
    # keyword reading of the same subschemas must agree with it.
    schema, depth = scenario._schema()
    for name, doc in ACCEPTED.items():
        with mock.patch.object(scenario, "_PAYLOADS", ()):
            assert scenario._verdict(doc, schema, 2 * depth) is True, name
    for payload in ([], [1, [2]], [[1, 2, 3]], [[1, True]], [[[1, 0]], []], [["1", 0]], [[[1, 0], [0]]]):
        for shape, payload_depth in scenario._PAYLOADS:
            fast = scenario._well_formed(payload, payload_depth)
            with mock.patch.object(scenario, "_PAYLOADS", ()):
                assert scenario._verdict(payload, shape, 2 * depth) is fast, (payload, shape)


def test_shipped_documents_are_valid_under_the_full_schema():
    validator = Draft202012Validator(schema_document())
    for name, doc in SOURCES.items():
        assert list(validator.iter_errors(doc)) == [], name


def test_payload_subschemas_are_the_shapes_the_loader_walks():
    # The acceptor checks these shapes with scenario._well_formed instead of
    # reading their keywords; a rule added here must be added there.
    schema = schema_document()
    vector = {"$ref": "#/$defs/vector"}
    assert schema["$defs"]["vector"] == {"type": "array", "minItems": 1, "items": {"$ref": "#/$defs/complex"}}
    assert schema["$defs"]["complex"] == {
        "type": "array",
        "prefixItems": [{"type": "number"}, {"type": "number"}],
        "minItems": 2,
        "maxItems": 2,
        "items": False,
    }
    state = {b["properties"]["kind"]["const"]: b["properties"] for b in schema["properties"]["state"]["oneOf"]}
    assert state["diagonal"]["weights"] == {"type": "array", "minItems": 1, "items": {"type": "number"}}
    assert state["pure"]["vector"] == vector
    assert state["density"]["matrix"] == {"type": "array", "minItems": 1, "items": vector}
    channel = schema["properties"]["observables"]["items"]["properties"]["channels"]["items"]["properties"]
    assert channel["vectors"] == {"type": "array", "minItems": 1, "items": vector}
