"""Differential test of the structure check on numeric payloads.

The loader lets jsonschema see a skeleton of each document, with every
numeric payload (state `weights`, `vector`, `matrix` and channel `vectors`)
cut to one entry after a pass of its own over the payload. Each example
mutates one to three payloads or state fields of a shipped or seeded
scenario and loads it twice: as the loader does, and with the structure
check replaced by full-document jsonschema validation. Both must accept
the document, or refuse it with the same exception class, message and
JSON path.
"""

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
            _set(doc, draw(st.sampled_from(sites["leaf"])), draw(st.sampled_from(LEAF_VALUES)))
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
            doc["state"][key] = draw(st.sampled_from(EXTRA_VALUES))
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


@settings(derandomize=True, max_examples=250, deadline=None)
@given(doc=mutated_documents())
def test_skeleton_check_agrees_with_full_validation(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        outcome = _outcome(path)
        with mock.patch.object(scenario, "_validate_structure", _full_validation):
            reference = _outcome(path)
    assert outcome == reference


def test_shipped_documents_are_valid_under_the_full_schema():
    validator = Draft202012Validator(schema_document())
    for name, doc in SOURCES.items():
        assert list(validator.iter_errors(doc)) == [], name


def test_payload_subschemas_are_the_shapes_the_loader_walks():
    # The loader checks these shapes itself and shows jsonschema one-entry
    # stand-ins; a rule added here must be added to scenario._well_formed.
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
