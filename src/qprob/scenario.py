"""Scenario files: loading, schema validation, and semantic checks.

A scenario is a json document validated in three stages: syntax (parse
errors report the position), structure (against the shipped json schema,
which the loader reads itself, naming the node that breaks it and the
rule it breaks), and semantics (numeric invariants such as
unit trace, channel orthogonality, and reference resolution, each named
with its residual). Presets ship as ordinary scenario files inside the
package; nothing is hard-coded.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cache, reduce
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .engine import ProbabilityOperator
from .errors import (
    ScenarioParseError,
    ScenarioValidationError,
    StructureError,
    UnknownPresetError,
)
from .hilbert import CompositeSpace, HilbertSpace, Vec
from .lattice import ClassicalEventuality, ClassicalModel, Eventuality
from .observables import Observable, ObservableValidation, QuantitativeObservable, validate_observable
from .weighting import LifetimeProfile, LifetimeSegment, ObserverModel, Scheme

__all__ = [
    "PRESET_NAMES",
    "ScenarioObservable",
    "ScenarioEvent",
    "Scenario",
    "schema_document",
    "load_scenario",
    "load_preset",
    "load_file",
]

PRESET_NAMES = ("coin", "stern-gerlach", "cat-box", "cat-master")


def schema_document() -> dict:
    text = resources.files("qprob").joinpath("schema/scenario.schema.json").read_text(encoding="utf-8")
    return json.loads(text)


@dataclass(frozen=True, eq=False)
class ScenarioObservable:
    id: str
    space_id: str
    observable: Observable
    quantitative: QuantitativeObservable | None
    validation: ObservableValidation  # the check that passed at load


@dataclass(frozen=True, eq=False)
class ScenarioEvent:
    id: str
    event: ClassicalEventuality


@dataclass(frozen=True, eq=False)
class Scenario:
    """A loaded, validated scenario. The fields of the other kind keep
    their empty defaults."""

    name: str
    kind: str
    description: str
    # quantum side
    spaces: tuple[HilbertSpace, ...] = ()
    composite: CompositeSpace | None = None
    state: ProbabilityOperator | None = None
    state_vector: Vec | None = None
    observables: tuple[ScenarioObservable, ...] = ()
    observers: tuple[ObserverModel, ...] = ()
    # observer id -> the observable it perceives through, if it has one
    perceives: dict[str, ScenarioObservable] = field(default_factory=dict)
    weighting: Scheme | None = None
    # classical side
    classical: ClassicalModel | None = None
    events: tuple[ScenarioEvent, ...] = ()
    # shared extras
    lifetime_profile: LifetimeProfile | None = None

    @property
    def is_classical(self) -> bool:
        return self.kind == "classical"

    @property
    def full_space(self) -> HilbertSpace:
        if self.composite is not None:
            return self.composite.space
        return self.spaces[0]

    def observable_by_id(self, obs_id: str) -> ScenarioObservable:
        for so in self.observables:
            if so.id == obs_id:
                return so
        raise KeyError(f"no observable {obs_id!r}; have {[so.id for so in self.observables]}")

    def observables_on_factor(self, index: int) -> tuple[ScenarioObservable, ...]:
        assert self.composite is not None
        target = self.composite.factors[index]
        return tuple(so for so in self.observables if so.observable.space == target)


def _parse(text: str, origin: str) -> dict:
    # json accepts NaN and +-Infinity, and reads an overflowing literal such
    # as 1e999 as inf; no scenario quantity may be non-finite.
    def non_finite(literal: str):
        raise ScenarioParseError(f"{origin}: non-finite number {literal} is not allowed")

    def finite_float(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            non_finite(literal)
        return value

    def bounded_int(literal: str) -> int:
        # int() refuses literals longer than the interpreter's digit limit.
        try:
            return int(literal)
        except ValueError:
            raise ScenarioParseError(
                f"{origin}: integer literal of {len(literal.lstrip('-'))} digits is too long to read"
            ) from None

    try:
        return json.loads(text, parse_constant=non_finite, parse_float=finite_float, parse_int=bounded_int)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{origin}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        # The decoder recurses once per nesting level, so a document nested
        # deeper than the interpreter's recursion limit cannot be read.
        raise ScenarioParseError(f"{origin}: parse error: nesting too deep to read") from None


_NUMBER_TYPES = {int, float}  # what json reads a number as; bool is neither


# The numeric payload subschemas and their nesting depth (1: numbers, 2:
# [re, im] pairs, 3: lists of pairs). The validator passes a payload that
# _well_formed accepts, and reads any other keyword by keyword to find its
# violation; tests/test_schema_payloads.py pins these shapes in the schema.
_PAYLOADS = (
    ({"type": "array", "minItems": 1, "items": {"type": "number"}}, 1),
    ({"$ref": "#/$defs/vector"}, 2),
    ({"type": "array", "minItems": 1, "items": {"$ref": "#/$defs/vector"}}, 3),
)


def _well_formed(node, depth: int) -> bool:
    """Whether `node` is a payload the schema accepts: a non-empty list of
    numbers, of number pairs, or of non-empty lists of pairs. Each leaf is
    looked at once, at C speed."""
    if type(node) is not list or not node:
        return False
    if depth == 1:
        return set(map(type, node)) <= _NUMBER_TYPES
    if depth == 3:
        return all(_well_formed(row, 2) for row in node)
    return (
        set(map(type, node)) == {list}
        and set(map(len, node)) == {2}
        and set(map(type, chain.from_iterable(node))) <= _NUMBER_TYPES
    )


# The schema the validator reads, parsed once per process and never handed out.
_schema = cache(schema_document)


def _quote(value, depth: int = 32) -> str:
    """repr(value), with what is nested more than `depth` levels written as
    [...] or {...}: a message never needs more stack than that."""
    if type(value) is list:
        return "[...]" if depth == 0 else "[" + ", ".join(_quote(v, depth - 1) for v in value) + "]"
    if type(value) is dict:
        items = (f"{k!r}: {_quote(v, depth - 1)}" for k, v in value.items())
        return "{...}" if depth == 0 else "{" + ", ".join(items) + "}"
    return repr(value)


def _canonical(value) -> tuple:
    """A flat key that two json values share exactly when json schema calls
    them equal: a bool equals only a bool, 2.0 equals 2, and key order does
    not count. Read without recursion."""
    key, todo = [], [value]
    while todo:
        node = todo.pop()
        if type(node) is list:
            key.append(("array", len(node)))
            todo.extend(node)
        elif type(node) is dict:
            key.append(("object", len(node)))
            for name in sorted(node):
                todo += [node[name], name]
        else:
            key.append(("number" if type(node) in _NUMBER_TYPES else type(node).__name__, node))
    return tuple(key)


def _first(violations) -> tuple[tuple, str] | None:
    """The violation at the shallowest node, the earliest of those, among
    `violations` (any false value is a pass); None if there is none."""
    return min(filter(None, violations), key=lambda found: len(found[0]), default=None)


_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "number": (int, float), "integer": (int,)}


def _additional_properties(node, rule, schema: dict, path: tuple):
    extras = sorted(k for k in node if k not in schema.get("properties", ())) if type(node) is dict else []
    if rule is not False or not extras:
        return _first(_violation(node[k], rule, path + (k,)) for k in extras)
    names = f"{', '.join(map(repr, extras))} {'were' if extras[1:] else 'was'}"
    return path, f"Additional properties are not allowed ({names} unexpected)"


def _items(node, rule, schema: dict, path: tuple):
    start = len(schema.get("prefixItems", ()))
    rest = node[start:] if type(node) is list else []
    if rule is not False or not rest:
        return _first(_violation(item, rule, path + (i,)) for i, item in enumerate(rest, start))
    found = f"{len(rest)} extra: {_quote(rest if rest[1:] else rest[0])}"
    return path, f"Expected at most {start} item{'' if start == 1 else 's'} but found {found}"


def _one_of(node, rule: list, schema: dict, path: tuple):
    failures = [_violation(node, branch, path) for branch in rule]
    passing = [branch for branch, found in zip(rule, failures) if found is None]
    if len(passing) > 1:  # jsonschema lists the first passing branch last
        return path, f"{_quote(node)} is valid under each of {', '.join(map(repr, passing[1:] + passing[:1]))}"
    if passing:
        return None
    # The branch that fails deepest is named; on a tie, the oneOf itself.
    deepest = max(len(found[0]) for found in failures)
    named = [found for found in failures if len(found[0]) == deepest]
    return named[0] if len(named) == 1 else (path, f"{_quote(node)} is not valid under any of the given schemas")


# keyword -> its check of `node` at `path`, given the keyword's value and the
# whole subschema: a violation as _violation gives it, or a false value.
_KEYWORDS = {
    # A pointer into the schema itself, "#/$defs/...".
    "$ref": lambda node, rule, schema, path: _violation(
        node, reduce(dict.__getitem__, rule[2:].split("/"), _schema()), path
    ),
    # A bool is no number, and 2.0 is an integer.
    "type": lambda node, rule, schema, path: not (
        type(node) in _TYPES[rule] or rule == "integer" and type(node) is float and node.is_integer()
    ) and (path, f"{_quote(node)} is not of type {rule!r}"),
    "required": lambda node, rule, schema, path: type(node) is dict and next(
        ((path, f"{k!r} is a required property") for k in rule if k not in node), None
    ),
    "properties": lambda node, rule, schema, path: type(node) is dict and _first(
        _violation(node[k], sub, path + (k,)) for k, sub in rule.items() if k in node
    ),
    "additionalProperties": _additional_properties,
    "prefixItems": lambda node, rule, schema, path: type(node) is list and _first(
        _violation(item, sub, path + (i,)) for i, (item, sub) in enumerate(zip(node, rule))
    ),
    "items": _items,
    "minItems": lambda node, rule, schema, path: type(node) is list and len(node) < rule and (
        path, f"{_quote(node)} {'should be non-empty' if rule == 1 else 'is too short'}"
    ),
    "maxItems": lambda node, rule, schema, path: type(node) is list and len(node) > rule and (
        path, f"{_quote(node)} {'is expected to be empty' if rule == 0 else 'is too long'}"
    ),
    "uniqueItems": lambda node, rule, schema, path: rule and type(node) is list and (
        len(set(map(_canonical, node))) < len(node) and (path, f"{_quote(node)} has non-unique elements")
    ),
    "minimum": lambda node, rule, schema, path: type(node) in _NUMBER_TYPES and node < rule and (
        path, f"{node!r} is less than the minimum of {rule!r}"
    ),
    "exclusiveMinimum": lambda node, rule, schema, path: type(node) in _NUMBER_TYPES and node <= rule and (
        path, f"{node!r} is less than or equal to the minimum of {rule!r}"
    ),
    "maximum": lambda node, rule, schema, path: type(node) in _NUMBER_TYPES and node > rule and (
        path, f"{node!r} is greater than the maximum of {rule!r}"
    ),
    "enum": lambda node, rule, schema, path: _canonical(node) not in map(_canonical, rule) and (
        path, f"{_quote(node)} is not one of {rule!r}"
    ),
    "const": lambda node, rule, schema, path: _canonical(node) != _canonical(rule) and (path, f"{rule!r} was expected"),
    "pattern": lambda node, rule, schema, path: type(node) is str and not re.search(rule, node) and (
        path, f"{node!r} does not match {rule!r}"
    ),
    "oneOf": _one_of,
    "allOf": lambda node, rule, schema, path: _first(_violation(node, sub, path) for sub in rule),
    "if": lambda node, rule, schema, path: _violation(
        node, schema.get("else" if _violation(node, rule, path) else "then", True), path
    ),
}
# Keywords that assert nothing by themselves: annotations, definitions and
# the branches that "if" picks from.
_PASSIVE = frozenset({"$schema", "$id", "$defs", "title", "description", "then", "else"})


def _violation(node, schema, path: tuple = ()) -> tuple[tuple, str] | None:
    """The first violation of `schema` by `node`, as json schema draft
    2020-12 reads the keywords above: (path, message), the keys and indices
    from the document to the node that fails and jsonschema's message for
    the keyword that failed there; None if there is none. Of several, the
    one at the shallowest node comes first, then the one whose keyword
    does. A false subschema fails at its own node: for a property, one
    level below where jsonschema names it."""
    if type(schema) is bool:
        return None if schema else (path, f"False schema does not allow {_quote(node)}")
    if any(schema == shape and _well_formed(node, depth) for shape, depth in _PAYLOADS):
        return None
    return _first(_KEYWORDS[key](node, rule, schema, path) for key, rule in schema.items() if key not in _PASSIVE)


def _validate_structure(doc: dict, origin: str) -> None:
    found = _violation(doc, _schema())
    if found is not None:
        path, message = found
        json_path = "$" + "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)
        where = json_path if path else "document root"
        raise ScenarioValidationError(f"{origin}: schema violation at {where}: {message}", json_path)


def _too_large(what: str) -> ScenarioParseError:
    # json reads an integer literal as an exact int, which can lie past the float range.
    return ScenarioParseError(f"{what}: integer literal too large for a float")


def _float(value, what: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise _too_large(what) from None


def _complex_array(rows, what: str, items: str | None = None, json_path: str | None = None) -> np.ndarray:
    """The [re, im] pairs of a payload the schema accepted, as a complex
    array. A list of vectors, named by `items`, must be rectangular."""
    if items is not None:
        first = len(rows[0])
        other = next((len(row) for row in rows if len(row) != first), first)
        if other != first:
            raise ScenarioValidationError(f"{what}: {items} have different lengths ({first} and {other})", json_path)
    try:
        arr = np.array(rows, dtype=np.float64)
    except OverflowError:
        raise _too_large(what) from None
    return arr[..., 0] + 1j * arr[..., 1]


def _build_quantum(doc: dict, origin: str) -> dict:
    spaces: list[HilbertSpace] = []
    seen: set[str] = set()
    for item in doc["spaces"]:
        if item["id"] in seen:
            raise ScenarioValidationError(f"{origin}: duplicate space id {item['id']!r}")
        seen.add(item["id"])
        spaces.append(HilbertSpace(int(item["dim"]), item["id"]))
    by_id = {s.label: s for s in spaces}

    composite: CompositeSpace | None = None
    if "composite" in doc:
        order = doc["composite"]
        unknown = [sid for sid in order if sid not in by_id]
        if unknown:
            raise ScenarioValidationError(f"{origin}: composite references unknown space id {unknown[0]!r}")
        if len(set(order)) != len(order):
            raise ScenarioValidationError(f"{origin}: composite lists a space id twice")
        composite = CompositeSpace(tuple(by_id[sid] for sid in order))
    elif len(spaces) > 1:
        raise ScenarioValidationError(f"{origin}: {len(spaces)} spaces declared but no composite factor order given")

    full = composite.space if composite is not None else spaces[0]

    state_doc = doc["state"]
    state_vector: Vec | None = None
    try:
        if state_doc["kind"] == "diagonal":
            weights = [_float(w, f"{origin}: state weight") for w in state_doc["weights"]]
            if len(weights) != full.dim:
                raise ScenarioValidationError(
                    f"{origin}: state: {len(weights)} diagonal weights do not fit dimension {full.dim}"
                )
            state = ProbabilityOperator.diagonal(full, weights)
        elif state_doc["kind"] == "pure":
            comp = _complex_array(state_doc["vector"], f"{origin}: state vector")
            if comp.shape != (full.dim,):
                raise ScenarioValidationError(
                    f"{origin}: state: vector of length {comp.shape[0]} does not fit dimension {full.dim}"
                )
            state_vector = Vec(full, comp)
            state = ProbabilityOperator.pure(state_vector)
        else:
            mat = _complex_array(state_doc["matrix"], f"{origin}: state matrix", "rows", "$.state.matrix")
            if mat.shape != (full.dim, full.dim):
                raise ScenarioValidationError(
                    f"{origin}: state: matrix of shape {mat.shape} does not fit dimension {full.dim}"
                )
            state = ProbabilityOperator.from_entries(full, mat)
    except StructureError as exc:
        raise ScenarioValidationError(f"{origin}: state: {exc}") from exc

    observables: list[ScenarioObservable] = []
    for i, item in enumerate(doc["observables"]):
        oid = item["id"]
        if any(so.id == oid for so in observables):
            raise ScenarioValidationError(f"{origin}: duplicate observable id {oid!r}")
        if item["space"] not in by_id:
            raise ScenarioValidationError(f"{origin}: observable {oid!r} references unknown space id {item['space']!r}")
        space = by_id[item["space"]]
        channels: list[Eventuality] = []
        labels: list[str] = []
        for j, ch in enumerate(item["channels"]):
            if ch["label"] in labels:
                raise ScenarioValidationError(f"{origin}: observable {oid!r}: duplicate channel label {ch['label']!r}")
            what = f"{origin}: observable {oid!r} channel {ch['label']!r}"
            vectors = _complex_array(ch["vectors"], what, "vectors", f"$.observables[{i}].channels[{j}].vectors")
            if vectors.shape[1] != space.dim:
                raise ScenarioValidationError(
                    f"{what}: vectors of length {vectors.shape[1]} do not fit space {space.label!r} "
                    f"of dimension {space.dim}"
                )
            try:
                event = Eventuality.from_span(space, list(vectors))
            except ValueError as exc:
                raise ScenarioValidationError(f"{what}: {exc}") from exc
            if event.is_null:
                raise ScenarioValidationError(f"{what}: channel spans nothing")
            channels.append(event)
            labels.append(ch["label"])
        obs = Observable(space, tuple(channels), tuple(labels))
        check = validate_observable(obs)
        if not check:
            if check.orthogonality_residual > check.tol:
                a, b = check.worst_pair
                raise ScenarioValidationError(
                    f"{origin}: observable {oid!r}: channels {a!r} and {b!r} are not mutually exclusive: "
                    f"orthogonality residual {check.orthogonality_residual:.3e} exceeds {check.tol:.0e}"
                )
            raise ScenarioValidationError(
                f"{origin}: observable {oid!r}: channels do not cover the space: "
                f"completeness residual {check.completeness_residual:.3e} exceeds {check.tol:.0e}"
            )
        quantitative = None
        if "values" in item:
            if len(item["values"]) != len(channels):
                raise ScenarioValidationError(
                    f"{origin}: observable {oid!r}: {len(item['values'])} values for {len(channels)} channels"
                )
            values = tuple(_float(v, f"{origin}: observable {oid!r} values") for v in item["values"])
            try:
                quantitative = QuantitativeObservable(obs, values)
            except ValueError as exc:
                raise ScenarioValidationError(f"{origin}: observable {oid!r}: {exc}") from exc
        observables.append(ScenarioObservable(oid, space.label, obs, quantitative, check))

    observers: list[ObserverModel] = []
    perceives: dict[str, ScenarioObservable] = {}
    for item in doc.get("observers", ()):
        if any(o.id == item["id"] for o in observers):
            raise ScenarioValidationError(f"{origin}: duplicate observer id {item['id']!r}")
        what = f"{origin}: observer {item['id']!r}"
        kwargs = {
            "lifetime": _float(item.get("lifetime", 1.0), f"{what} lifetime"),
            "perception_duration": _float(item.get("perception_duration", 1.0), f"{what} perception_duration"),
        }
        try:
            if "observable" in item:
                matches = [so for so in observables if so.id == item["observable"]]
                if not matches:
                    raise ScenarioValidationError(
                        f"{origin}: observer {item['id']!r} references unknown observable {item['observable']!r}"
                    )
                observer = ObserverModel(item["id"], observable=matches[0].observable, **kwargs)
                perceives[item["id"]] = matches[0]
            elif "branch_channels" in item:
                observer = ObserverModel(item["id"], branch_channels=int(item["branch_channels"]), **kwargs)
            else:
                observer = ObserverModel(item["id"], entropy_value=_float(item["entropy"], f"{what} entropy"), **kwargs)
        except ValueError as exc:
            raise ScenarioValidationError(f"{origin}: {exc}") from exc
        observers.append(observer)

    weighting: Scheme | None = None
    if "weighting" in doc:
        weighting = Scheme(doc["weighting"]["scheme"], doc["weighting"].get("log_base", 2))

    return {
        "spaces": tuple(spaces),
        "composite": composite,
        "state": state,
        "state_vector": state_vector,
        "observables": tuple(observables),
        "observers": tuple(observers),
        "perceives": perceives,
        "weighting": weighting,
    }


def _build_classical(doc: dict, origin: str) -> dict:
    try:
        model = ClassicalModel(tuple(doc["points"]), tuple(float(w) for w in doc["measure"]))
    except ValueError as exc:
        raise ScenarioValidationError(f"{origin}: classical model: {exc}") from exc
    events: list[ScenarioEvent] = []
    for item in doc["events"]:
        if any(e.id == item["id"] for e in events):
            raise ScenarioValidationError(f"{origin}: duplicate event id {item['id']!r}")
        try:
            events.append(ScenarioEvent(item["id"], model.event(item["members"])))
        except ValueError as exc:
            raise ScenarioValidationError(f"{origin}: event {item['id']!r}: {exc}") from exc
    return {"classical": model, "events": tuple(events)}


def _build_profile(doc: dict, origin: str) -> LifetimeProfile | None:
    if "lifetime_profile" not in doc:
        return None
    segments = []
    for k, item in enumerate(doc["lifetime_profile"]["segments"]):
        what = f"{origin}: lifetime profile segment {k + 1}"
        kwargs = {
            "duration": _float(item["duration"], f"{what} duration"),
            "perception_duration": _float(item["perception_duration"], f"{what} perception_duration"),
        }
        if "branch_channels" in item:
            kwargs["branch_channels"] = int(item["branch_channels"])
        else:
            kwargs["entropy_value"] = _float(item["entropy"], f"{what} entropy")
        try:
            segments.append(LifetimeSegment(**kwargs))
        except ValueError as exc:
            raise ScenarioValidationError(f"{origin}: lifetime profile segment {k + 1}: {exc}") from exc
    return LifetimeProfile(tuple(segments))


def _build(doc: dict, origin: str) -> Scenario:
    _validate_structure(doc, origin)
    kind = doc.get("kind", "quantum")
    parts = _build_classical(doc, origin) if kind == "classical" else _build_quantum(doc, origin)
    return Scenario(
        name=doc["name"],
        kind=kind,
        description=doc.get("description", ""),
        lifetime_profile=_build_profile(doc, origin),
        **parts,
    )


def load_file(path) -> Scenario:
    """Load a scenario from a file path."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file {p}: {exc}") from exc
    return _build(_parse(text, str(p)), str(p))


def load_preset(name: str) -> Scenario:
    """Load one of the shipped presets by name."""
    if name not in PRESET_NAMES:
        raise UnknownPresetError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = resources.files("qprob").joinpath(f"presets/{name}.json").read_text(encoding="utf-8")
    return _build(_parse(text, f"preset {name}"), f"preset {name}")


def load_scenario(source) -> Scenario:
    """Load a preset by name or a scenario file by path."""
    if isinstance(source, str) and source in PRESET_NAMES:
        return load_preset(source)
    return load_file(source)
