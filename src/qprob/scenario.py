"""Scenario files: loading, schema validation, and semantic checks.

A scenario is a json document validated in three stages: syntax (parse
errors report the position), structure (against the shipped json schema,
which the loader reads itself; jsonschema only reports the offending path
of a document it refuses), and semantics (numeric invariants such as
unit trace, channel orthogonality, and reference resolution, each named
with its residual). Presets ship as ordinary scenario files inside the
package; nothing is hard-coded.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from itertools import chain, repeat
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
    # Plain json.loads reads every number at C speed. When it fails, or
    # reads a number that is not finite, the hooked reading decides, which
    # refuses the first offending literal in the text with its own message.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):  # json.JSONDecodeError is a ValueError
        return _parse_hooked(text, origin)
    return doc if _finite(doc) else _parse_hooked(text, origin)


def _parse_hooked(text: str, origin: str) -> dict:
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


def _finite(doc) -> bool:
    """Whether every number in `doc` is surely finite. The numbers of a list,
    or of a list of lists, are summed at C speed; a sum that overflows, or
    an integer past the float range, answers False as inf and nan do."""
    todo = [doc]
    while todo:
        node = todo.pop()
        if type(node) is dict:
            todo.extend(node.values())
        elif type(node) is list:
            for numbers in (node, chain.from_iterable(node)):
                try:
                    if not math.isfinite(sum(numbers)):
                        return False
                    break
                except TypeError:  # not all numbers
                    continue
                except OverflowError:
                    return False
            else:
                todo.extend(node)
        elif type(node) is float and not math.isfinite(node):
            return False
    return True


# The numeric payload subschemas and their nesting depth (1: numbers, 2:
# [re, im] pairs, 3: lists of pairs). The acceptor checks these shapes with
# _well_formed; tests/test_schema_payloads.py pins them in the schema.
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


@cache
def _schema() -> tuple[dict, int]:
    """The schema the acceptor reads, parsed once per process and never
    handed out, and its nesting depth: the longest chain of subschemas the
    acceptor follows."""
    schema = schema_document()
    depth, level = 0, [schema]
    while level:
        depth += 1
        children = chain.from_iterable(node.values() if type(node) is dict else node for node in level)
        level = [child for child in children if type(child) in (dict, list)]
    return schema, depth


def _all(pairs, budget: int) -> bool | None:
    """The verdicts on (node, subschema) pairs, joined: False if one is
    False, else None if one is None, else True."""
    result = True
    for node, schema in pairs:
        verdict = _verdict(node, schema, budget)
        if verdict is False:
            return False
        if verdict is None:
            result = None
    return result


def _is_one_of(node, rule: list, schema: dict, budget: int) -> bool | None:
    verdicts = [_verdict(node, branch, budget) for branch in rule]
    if verdicts.count(True) == 1 and verdicts.count(False) == len(verdicts) - 1:
        return True
    return False if verdicts.count(True) > 1 or verdicts.count(False) == len(verdicts) else None


def _is_if(node, rule, schema: dict, budget: int) -> bool | None:
    condition = _verdict(node, rule, budget)
    if condition is None:
        return None
    return _verdict(node, schema.get("then" if condition else "else", True), budget)


def _is_ref(node, rule: str, schema: dict, budget: int) -> bool | None:
    if not rule.startswith("#/") or "~" in rule:
        return None
    target = _schema()[0]
    for part in rule[2:].split("/"):
        target = target[part]
    return _verdict(node, target, budget)


_TYPES = {"object": (dict,), "array": (list,), "string": (str,), "number": (int, float), "integer": (int,)}


def _is_type(node, rule: str, schema: dict, budget: int) -> bool | None:
    kinds = _TYPES.get(rule) if type(rule) is str else None
    if kinds is None:
        return None
    if type(node) in kinds:
        return True
    # jsonschema counts 2.0 as an integer; that reading is left to it.
    return None if rule == "integer" and type(node) is float and node.is_integer() else False


def _is_among(node, values: list) -> bool | None:
    if any(type(v) is type(node) and v == node for v in values):
        return True
    # 2.0 == 2 and True == 1 in Python; jsonschema decides such a match.
    return None if any(v == node for v in values) else False


def _is_unique(node: list) -> bool | None:
    if not all(type(item) is str for item in node):
        return None
    return len(set(node)) == len(node)


# keyword -> its check of `node`, given the keyword's value, the whole
# subschema and the depth budget left; each returns True, False or None
# (undecided) as _verdict does.
_KEYWORDS = {
    "$ref": _is_ref,
    "type": _is_type,
    "required": lambda node, rule, schema, budget: type(node) is not dict or all(k in node for k in rule),
    "properties": lambda node, rule, schema, budget: type(node) is not dict or _all(
        [(node[k], sub) for k, sub in rule.items() if k in node], budget
    ),
    "additionalProperties": lambda node, rule, schema, budget: type(node) is not dict or _all(
        [(v, rule) for k, v in node.items() if k not in schema.get("properties", ())], budget
    ),
    "prefixItems": lambda node, rule, schema, budget: type(node) is not list or _all(zip(node, rule), budget),
    "items": lambda node, rule, schema, budget: type(node) is not list or _all(
        zip(node[len(schema.get("prefixItems", ())):], repeat(rule)), budget
    ),
    "minItems": lambda node, rule, schema, budget: type(node) is not list or len(node) >= rule,
    "maxItems": lambda node, rule, schema, budget: type(node) is not list or len(node) <= rule,
    "uniqueItems": lambda node, rule, schema, budget: type(node) is not list or not rule or _is_unique(node),
    "minimum": lambda node, rule, schema, budget: type(node) not in _NUMBER_TYPES or node >= rule,
    "exclusiveMinimum": lambda node, rule, schema, budget: type(node) not in _NUMBER_TYPES or node > rule,
    "maximum": lambda node, rule, schema, budget: type(node) not in _NUMBER_TYPES or node <= rule,
    "enum": lambda node, rule, schema, budget: _is_among(node, rule),
    "const": lambda node, rule, schema, budget: _is_among(node, [rule]),
    "pattern": lambda node, rule, schema, budget: type(node) is not str or re.search(rule, node) is not None,
    "oneOf": _is_one_of,
    "allOf": lambda node, rule, schema, budget: _all(zip(repeat(node), rule), budget),
    "if": _is_if,
}
# Keywords that assert nothing by themselves: annotations, definitions and
# the branches that "if" picks from.
_PASSIVE = frozenset({"$schema", "$id", "$defs", "title", "description", "then", "else"})
_KNOWN = _KEYWORDS.keys() | _PASSIVE


def _verdict(node, schema, budget: int) -> bool | None:
    """Whether `schema` accepts `node`, as jsonschema would decide it: True
    or False, or None when the keywords above cannot tell (a keyword they do
    not know, a value jsonschema reads differently from Python, or a chain
    of subschemas longer than `budget`)."""
    if type(schema) is bool:
        return schema
    if budget == 0 or not schema.keys() <= _KNOWN:
        return None
    for shape, depth in _PAYLOADS:
        if schema == shape:
            return _well_formed(node, depth)
    result = True
    for key, rule in schema.items():
        if key not in _PASSIVE:
            verdict = _KEYWORDS[key](node, rule, schema, budget - 1)
            if verdict is False:
                return False
            if verdict is None:
                result = None
    return result


def _accepts(doc) -> bool:
    """Whether the schema surely accepts `doc`, decided without jsonschema."""
    schema, depth = _schema()
    return _verdict(doc, schema, depth) is True


def _validate_structure(doc: dict, origin: str) -> None:
    if _accepts(doc):
        return
    # Only a document the acceptor refuses pays for jsonschema. Refusals
    # name the node and quote the value the user wrote.
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    try:
        error = best_match(Draft202012Validator(_schema()[0]).iter_errors(doc))
    except RecursionError:
        # Quoting a value nested about as deep as the recursion limit fails.
        raise ScenarioValidationError(f"{origin}: schema violation: value nested too deeply to check") from None
    if error is not None:
        where = error.json_path if error.json_path != "$" else "document root"
        raise ScenarioValidationError(f"{origin}: schema violation at {where}: {error.message}", error.json_path)


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
