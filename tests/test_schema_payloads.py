"""Differential tests of the structure check against jsonschema.

The loader decides structure with its own validator, which reads the
schema's keywords and passes the items of each numeric payload (state
`weights`, `vector`, `matrix`, channel `vectors` and observable `values`)
with one type scan where it can; jsonschema
is the oracle here and nowhere else. Each example mutates a shipped or
seeded scenario, in its payloads or in the fields around them. The
validator must refuse exactly the documents jsonschema refuses, and name a
node of the document with the message of one of jsonschema's errors there.
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


# The validator names a false subschema under "properties" at the property;
# jsonschema names it at the object around the property.
FALSE_PROPERTY = "False schema does not allow "


def _messages(errors, found: dict) -> dict[str, set[str]]:
    """json path -> the messages of jsonschema's errors there, counting the
    errors nested in each error's context."""
    for error in errors:
        found.setdefault(error.json_path, set()).add(error.message)
        _messages(error.context, found)
    return found


def _json_path(path) -> str:
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


def _load(file: Path, doc) -> QprobError | None:
    """The error loading `doc` from `file` raises, if any; any other
    exception fails the test."""
    file.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_file(file)
    except QprobError as exc:
        return exc
    return None


def _check_against_jsonschema(doc):
    validator = Draft202012Validator(schema_document())
    found = scenario._violation(doc, scenario._schema())
    assert (found is None) == validator.is_valid(doc)
    # Accepted or refused, the document loads end to end or stops at a named
    # error; a refusal is the violation found, as the loader words it.
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / "mutated.json"
        outcome = _load(file, doc)
    if found is None:
        assert "schema violation" not in str(outcome)
        return
    path, message = found
    _get(doc, path)  # a node of the document
    assert isinstance(outcome, ScenarioValidationError)
    assert str(outcome) == f"{file}: schema violation at {_json_path(path) if path else 'document root'}: {message}"
    assert outcome.json_path == _json_path(path)
    if message.startswith(FALSE_PROPERTY):
        assert isinstance(path[-1], str)
        path = path[:-1]
    assert message in _messages(validator.iter_errors(doc), {}).get(_json_path(path), set())


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(doc=mutated_documents())
def test_payload_mutations_agree_with_full_validation(doc):
    _check_against_jsonschema(doc)


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


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(doc=mutated_fields())
def test_field_mutations_agree_with_full_validation(doc):
    _check_against_jsonschema(doc)


def test_the_validator_accepts_every_shipped_and_seeded_document():
    for name, doc in ACCEPTED.items():
        assert scenario._violation(doc, scenario._schema()) is None, name


# Values that json schema reads otherwise than Python does (2.0 is an
# integer, a bool equals only a bool, 2.0 equals 2, key order does not
# count), nesting, and messages the mutations above do not reach.
EDGE_CASES = [
    (2.0, {"type": "integer"}),
    (2.5, {"type": "integer"}),
    (True, {"type": "number"}),
    (True, {"type": "integer"}),
    (2.0, {"enum": [2, "e"]}),
    (True, {"enum": [1]}),
    (1, {"enum": [True]}),
    ([1.0, {"a": [2]}], {"const": [1, {"a": [2.0]}]}),
    ({"a": 1, "b": 2}, {"const": {"b": 2, "a": 1}}),
    ([True], {"const": [1]}),
    ([1, True], {"uniqueItems": True}),
    ([1, 1.0], {"uniqueItems": True}),
    ([[1], [True]], {"uniqueItems": True}),
    ([{"a": 1, "b": [2]}, {"b": [2.0], "a": 1}], {"uniqueItems": True}),
    ([{"a": 1}, {"a": 1, "b": 1}], {"uniqueItems": True}),
    ([[[1]]], {"items": {"items": {"items": {"type": "number"}}}}),
    ([[["1"]]], {"items": {"items": {"items": {"type": "number"}}}}),
    ({"kind": "pure"}, {"oneOf": [{"required": ["kind"]}, {"required": ["vector"]}]}),
    ({"kind": "pure"}, {"oneOf": [{"required": ["kind"]}, True, {"required": ["kind"]}]}),
    ({}, {"oneOf": [{"required": ["kind"]}, {"required": ["vector"]}]}),
    ({"a": []}, {"oneOf": [{"required": ["b"]}, {"properties": {"a": {"minItems": 1}}}]}),
    ([1, 2, 3], {"prefixItems": [{}], "items": False}),
    ([1, 2], {"prefixItems": [{}], "items": False}),
    ([1, 2, 3], {"prefixItems": [{}, {}], "items": False}),
    ([1, "2"], {"prefixItems": [{}], "items": {"type": "number"}}),
    ({"a": 1}, {"additionalProperties": {"type": "string"}}),
    ({"a": 1, "c": 2, "b": 3}, {"properties": {"c": {}}, "additionalProperties": False}),
    ([1], {"maxItems": 0}),
    ([], {"minItems": 1}),
    ([1], {"minItems": 2}),
    (3, {"maximum": 2}),
]


def test_the_validator_reads_values_as_json_schema_does():
    for value, schema in EDGE_CASES:
        validator = Draft202012Validator(schema)
        found = scenario._violation(value, schema)
        assert (found is None) == validator.is_valid(value), (value, schema)
        if found is not None:
            messages = _messages(validator.iter_errors(value), {}).get(_json_path(found[0]), set())
            assert found[1] in messages, (value, schema, found)


def test_a_one_of_names_its_deepest_failing_branch_else_itself():
    one_of = {"oneOf": [{"required": ["a"]}, {"required": ["b"], "properties": {"b": {"type": "string"}}}]}
    assert scenario._violation({"b": 1}, one_of) == (("b",), "1 is not of type 'string'")
    assert scenario._violation({}, one_of) == ((), "{} is not valid under any of the given schemas")


def test_the_payload_shapes_are_what_the_generic_reading_decides():
    # The validator passes an array whose items a type scan passes; reading
    # the same items one by one must give the same verdict and message.
    schema = scenario._schema()
    accepted = {name: scenario._violation(doc, schema) for name, doc in ACCEPTED.items()}
    payloads = ([], [1, [2]], [[1, 2, 3]], [[1, True]], [[[1, 0]], []], [["1", 0]], [[[1, 0], [0]]])
    shapes = (
        {"type": "array", "minItems": 1, "items": {"type": "number"}},
        {"type": "array", "items": {"type": "number"}},
        {"$ref": "#/$defs/vector"},
        {"type": "array", "minItems": 1, "items": {"$ref": "#/$defs/vector"}},
    )
    scanned = {(i, j): scenario._violation(payload, shape) for i, payload in enumerate(payloads)
               for j, shape in enumerate(shapes)}
    assert scenario._scan([1, 2.5], {"type": "number"})
    assert scenario._scan([[1, 0], [0.5, -1]], {"$ref": "#/$defs/complex"})
    assert scenario._scan([[[1, 0]], [[0, 1], [1, 0]]], {"$ref": "#/$defs/vector"})
    with mock.patch.object(scenario, "_scan", lambda items, rule: False):
        for name, doc in ACCEPTED.items():
            assert scenario._violation(doc, schema) == accepted[name] is None, name
        for (i, j), found in scanned.items():
            assert scenario._violation(payloads[i], shapes[j]) == found, (payloads[i], shapes[j])


# Keywords whose values hold subschemas: one, a list of them, or a map from
# names to them.
ONE_SUBSCHEMA = {"items", "additionalProperties", "if", "then", "else"}
SUBSCHEMA_LIST = {"prefixItems", "oneOf", "allOf"}
SUBSCHEMA_MAP = {"properties", "$defs"}


def _subschemas(schema):
    todo = [schema]
    while todo:
        node = todo.pop()
        yield node
        for key, value in node.items() if isinstance(node, dict) else ():
            if key in ONE_SUBSCHEMA:
                todo.append(value)
            elif key in SUBSCHEMA_LIST:
                todo.extend(value)
            elif key in SUBSCHEMA_MAP:
                todo.extend(value.values())


def test_the_validator_reads_every_keyword_of_the_schema():
    # A keyword the validator neither checks nor knows to be passive would be
    # a rule it does not enforce.
    subschemas = [node for node in _subschemas(schema_document()) if isinstance(node, dict)]
    assert {key for node in subschemas for key in node} <= scenario._KEYWORDS.keys() | scenario._PASSIVE
    assert {node["type"] for node in subschemas if "type" in node} <= scenario._TYPES.keys()
    assert all(node["$ref"].startswith("#/") for node in subschemas if "$ref" in node)
    for applicator in ONE_SUBSCHEMA | SUBSCHEMA_LIST | SUBSCHEMA_MAP:
        assert applicator in scenario._KEYWORDS.keys() | scenario._PASSIVE


def test_shipped_documents_are_valid_under_the_full_schema():
    validator = Draft202012Validator(schema_document())
    for name, doc in SOURCES.items():
        assert list(validator.iter_errors(doc)) == [], name


def test_payload_subschemas_are_the_shapes_the_loader_walks():
    # scenario._scan passes the items of these shapes by their types instead
    # of reading the item rules; a rule added here must be added there.
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
