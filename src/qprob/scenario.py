"""Scenario files: loading, schema validation, and semantic checks.

A scenario is a json document validated in three stages: syntax (parse
errors report the position), structure (against the shipped json schema,
reporting the offending path), and semantics (numeric invariants such as
unit trace, channel orthogonality, and reference resolution, each named
with its residual). Presets ship as ordinary scenario files inside the
package; nothing is hard-coded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

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


def _fail(message: str) -> ScenarioValidationError:
    return ScenarioValidationError(message)


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

    try:
        return json.loads(text, parse_constant=non_finite, parse_float=finite_float)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{origin}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def _validate_structure(doc: dict, origin: str) -> None:
    validator = Draft202012Validator(schema_document())
    error = best_match(validator.iter_errors(doc))
    if error is not None:
        where = error.json_path if error.json_path != "$" else "document root"
        raise _fail(f"{origin}: schema violation at {where}: {error.message}")


def _too_large(what: str) -> ScenarioParseError:
    # json reads an integer literal as an exact int, which can lie past the float range.
    return ScenarioParseError(f"{what}: integer literal too large for a float")


def _float(value, what: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise _too_large(what) from None


def _complex_array(rows, what: str) -> np.ndarray:
    try:
        arr = np.array(rows, dtype=np.float64)
    except OverflowError:
        raise _too_large(what) from None
    except (TypeError, ValueError) as exc:
        raise _fail(f"{what}: entries must be [re, im] number pairs") from exc
    return arr[..., 0] + 1j * arr[..., 1]


def _build_quantum(doc: dict, origin: str) -> dict:
    spaces: list[HilbertSpace] = []
    seen: set[str] = set()
    for item in doc["spaces"]:
        if item["id"] in seen:
            raise _fail(f"{origin}: duplicate space id {item['id']!r}")
        seen.add(item["id"])
        spaces.append(HilbertSpace(int(item["dim"]), item["id"]))
    by_id = {s.label: s for s in spaces}

    composite: CompositeSpace | None = None
    if "composite" in doc:
        order = doc["composite"]
        unknown = [sid for sid in order if sid not in by_id]
        if unknown:
            raise _fail(f"{origin}: composite references unknown space id {unknown[0]!r}")
        if len(set(order)) != len(order):
            raise _fail(f"{origin}: composite lists a space id twice")
        composite = CompositeSpace(tuple(by_id[sid] for sid in order))
    elif len(spaces) > 1:
        raise _fail(f"{origin}: {len(spaces)} spaces declared but no composite factor order given")

    full = composite.space if composite is not None else spaces[0]

    state_doc = doc["state"]
    state_vector: Vec | None = None
    try:
        if state_doc["kind"] == "diagonal":
            weights = [_float(w, f"{origin}: state weight") for w in state_doc["weights"]]
            if len(weights) != full.dim:
                raise _fail(
                    f"{origin}: state: {len(weights)} diagonal weights do not fit dimension {full.dim}"
                )
            state = ProbabilityOperator.diagonal(full, weights)
        elif state_doc["kind"] == "pure":
            comp = _complex_array(state_doc["vector"], f"{origin}: state vector")
            if comp.shape != (full.dim,):
                raise _fail(f"{origin}: state: vector of length {comp.shape[0]} does not fit dimension {full.dim}")
            state_vector = Vec(full, comp)
            state = ProbabilityOperator.pure(state_vector)
        else:
            mat = _complex_array(state_doc["matrix"], f"{origin}: state matrix")
            if mat.shape != (full.dim, full.dim):
                raise _fail(f"{origin}: state: matrix of shape {mat.shape} does not fit dimension {full.dim}")
            state = ProbabilityOperator.from_entries(full, mat)
    except StructureError as exc:
        raise _fail(f"{origin}: state: {exc}") from exc

    observables: list[ScenarioObservable] = []
    for item in doc["observables"]:
        oid = item["id"]
        if any(so.id == oid for so in observables):
            raise _fail(f"{origin}: duplicate observable id {oid!r}")
        if item["space"] not in by_id:
            raise _fail(f"{origin}: observable {oid!r} references unknown space id {item['space']!r}")
        space = by_id[item["space"]]
        channels: list[Eventuality] = []
        labels: list[str] = []
        for ch in item["channels"]:
            if ch["label"] in labels:
                raise _fail(f"{origin}: observable {oid!r}: duplicate channel label {ch['label']!r}")
            vectors = _complex_array(ch["vectors"], f"{origin}: observable {oid!r} channel {ch['label']!r}")
            if vectors.shape[1] != space.dim:
                raise _fail(
                    f"{origin}: observable {oid!r} channel {ch['label']!r}: vectors of length "
                    f"{vectors.shape[1]} do not fit space {space.label!r} of dimension {space.dim}"
                )
            try:
                event = Eventuality.from_span(space, list(vectors))
            except ValueError as exc:
                raise _fail(f"{origin}: observable {oid!r} channel {ch['label']!r}: {exc}") from exc
            if event.is_null:
                raise _fail(f"{origin}: observable {oid!r} channel {ch['label']!r}: channel spans nothing")
            channels.append(event)
            labels.append(ch["label"])
        obs = Observable(space, tuple(channels), tuple(labels))
        check = validate_observable(obs)
        if not check:
            if check.orthogonality_residual > check.tol:
                a, b = check.worst_pair
                raise _fail(
                    f"{origin}: observable {oid!r}: channels {a!r} and {b!r} are not mutually exclusive: "
                    f"orthogonality residual {check.orthogonality_residual:.3e} exceeds {check.tol:.0e}"
                )
            raise _fail(
                f"{origin}: observable {oid!r}: channels do not cover the space: "
                f"completeness residual {check.completeness_residual:.3e} exceeds {check.tol:.0e}"
            )
        quantitative = None
        if "values" in item:
            if len(item["values"]) != len(channels):
                raise _fail(
                    f"{origin}: observable {oid!r}: {len(item['values'])} values for {len(channels)} channels"
                )
            values = tuple(_float(v, f"{origin}: observable {oid!r} values") for v in item["values"])
            try:
                quantitative = QuantitativeObservable(obs, values)
            except ValueError as exc:
                raise _fail(f"{origin}: observable {oid!r}: {exc}") from exc
        observables.append(ScenarioObservable(oid, space.label, obs, quantitative, check))

    observers: list[ObserverModel] = []
    perceives: dict[str, ScenarioObservable] = {}
    for item in doc.get("observers", ()):
        if any(o.id == item["id"] for o in observers):
            raise _fail(f"{origin}: duplicate observer id {item['id']!r}")
        what = f"{origin}: observer {item['id']!r}"
        kwargs = {
            "lifetime": _float(item.get("lifetime", 1.0), f"{what} lifetime"),
            "perception_duration": _float(item.get("perception_duration", 1.0), f"{what} perception_duration"),
        }
        try:
            if "observable" in item:
                matches = [so for so in observables if so.id == item["observable"]]
                if not matches:
                    raise _fail(
                        f"{origin}: observer {item['id']!r} references unknown observable {item['observable']!r}"
                    )
                observer = ObserverModel(item["id"], observable=matches[0].observable, **kwargs)
                perceives[item["id"]] = matches[0]
            elif "branch_channels" in item:
                observer = ObserverModel(item["id"], branch_channels=int(item["branch_channels"]), **kwargs)
            else:
                observer = ObserverModel(item["id"], entropy_value=_float(item["entropy"], f"{what} entropy"), **kwargs)
        except ValueError as exc:
            raise _fail(f"{origin}: {exc}") from exc
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
        raise _fail(f"{origin}: classical model: {exc}") from exc
    events: list[ScenarioEvent] = []
    for item in doc["events"]:
        if any(e.id == item["id"] for e in events):
            raise _fail(f"{origin}: duplicate event id {item['id']!r}")
        try:
            events.append(ScenarioEvent(item["id"], model.event(item["members"])))
        except ValueError as exc:
            raise _fail(f"{origin}: event {item['id']!r}: {exc}") from exc
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
            raise _fail(f"{origin}: lifetime profile segment {k + 1}: {exc}") from exc
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
