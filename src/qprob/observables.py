"""Observables: complete families of mutually exclusive eventualities.

An observable is a labelled tuple of eventualities meant to be pairwise
orthogonal and to jointly span the space. Construction is permissive so
that defective families can be inspected; `validate_observable` reports
the orthogonality and completeness residuals instead of guessing. A
quantitative observable attaches a distinct real value to every channel.
Lifting embeds a factor-local observable into a composite space; conjoining
two commuting lifted observables multiplies their channel families.

Every check here reads the channel bases, stacked once as U = [V_1 ... V_n],
and builds no channel's projector P_i = V_i V_i^dag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatchError
from .hilbert import INVARIANT_TOL, CompositeSpace, HilbertSpace, Op, StructureReport, cheb_norm, structure_check
from .lattice import Eventuality

__all__ = [
    "Observable",
    "QuantitativeObservable",
    "ObservableValidation",
    "validate_observable",
    "build_operator",
    "expectation",
    "spectral_observable",
    "lift_eventuality",
    "lift",
    "conjoin",
]


@dataclass(frozen=True, eq=False)
class Observable:
    """A labelled family of eventualities on one space."""

    space: HilbertSpace
    channels: tuple[Eventuality, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ValueError("an observable needs at least one channel")
        for ch in channels:
            if ch.space != self.space:
                raise SpaceMismatchError(f"channel on {ch.space} does not live on {self.space}")
        labels = tuple(self.labels) or tuple(f"e{i + 1}" for i in range(len(channels)))
        if len(labels) != len(channels):
            raise ValueError(f"{len(channels)} channels but {len(labels)} labels")
        if len(set(labels)) != len(labels):
            repeated = next(label for label in labels if labels.count(label) > 1)
            raise ValueError(f"duplicate channel label {repeated!r}")
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "labels", labels)

    @property
    def channel_count(self) -> int:
        return len(self.channels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no channel labelled {label!r}; have {list(self.labels)}") from None

    def channel(self, label: str) -> Eventuality:
        return self.channels[self.index(label)]

    def __repr__(self) -> str:
        return f"Observable({self.space}, {list(self.labels)})"


@dataclass(frozen=True)
class ObservableValidation:
    """Residual report for the observable invariants."""

    orthogonality_residual: float
    worst_pair: tuple[str, str] | None
    completeness_residual: float
    null_channels: tuple[str, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.orthogonality_residual <= self.tol
            and self.completeness_residual <= self.tol
            and not self.null_channels
        )

    def __bool__(self) -> bool:
        return self.passed


def _stacked(channels: tuple[Eventuality, ...]) -> tuple[np.ndarray, np.ndarray]:
    """U = [V_1 ... V_n] and the index of the channel that owns each column."""
    ranks = [ch.rank for ch in channels]
    return np.hstack([ch.basis_matrix for ch in channels]), np.repeat(np.arange(len(ranks)), ranks)


def validate_observable(obs: Observable, tol: float = INVARIANT_TOL) -> ObservableValidation:
    """Report how far an observable is from being a complete, mutually
    exclusive family: the largest |V_i^dag V_j| entry over channel pairs
    i < j of the one Gram matrix U^dag U (|V_i^dag V_j|_2 = |P_i P_j|_2 for
    orthonormal bases), with its pair, the first NaN pair else the first
    largest; the completeness residual |U U^dag - I| = |sum P_i - I|; and
    any empty channels (Nielsen & Chuang, section 2.2.5)."""
    u, owner = _stacked(obs.channels)
    n = obs.channel_count
    blocks = np.zeros((n, n))  # blocks[i, j]: the largest |V_i^dag V_j| entry; NaN propagates
    np.maximum.at(blocks, (owner[:, None], owner[None, :]), np.abs(u.conj().T @ u))
    first, second = np.triu_indices(n, 1)  # pairs in the order (0, 1), (0, 2), ..., (1, 2), ...
    residuals = blocks[first, second]
    k = int(np.argmax(residuals)) if residuals.size else None  # argmax takes the first NaN as the largest
    worst = 0.0 if k is None else float(residuals[k])
    worst_pair = None if worst == 0 else (obs.labels[first[k]], obs.labels[second[k]])
    completeness = cheb_norm(u @ u.conj().T - np.eye(obs.space.dim))
    nulls = tuple(lbl for lbl, ch in zip(obs.labels, obs.channels) if ch.is_null)
    return ObservableValidation(worst, worst_pair, completeness, nulls, tol)


@dataclass(frozen=True, eq=False)
class QuantitativeObservable:
    """An observable with a distinct real value on every channel."""

    base: Observable
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if len(values) != self.base.channel_count:
            raise ValueError(f"{len(values)} values for {self.base.channel_count} channels")
        if len(set(values)) != len(values):
            raise ValueError(f"channel values must be pairwise distinct, got {values}")
        object.__setattr__(self, "values", values)

    @property
    def space(self) -> HilbertSpace:
        return self.base.space


def build_operator(q: QuantitativeObservable) -> Op:
    """The hermitian operator sum(value_i * projector_i) = U diag(values) U^dag."""
    u, owner = _stacked(q.base.channels)
    return Op(q.space, (u * np.array(q.values)[owner]) @ u.conj().T)


def expectation(q: QuantitativeObservable, prob) -> float:
    """Expectation value tr(P E). Accepts a probability operator or a
    bare Op; equals sum(value_i * tr(P e_i)) for a valid observable."""
    m = getattr(prob, "matrix", prob)
    if not isinstance(m, Op):
        raise TypeError("expectation needs a probability operator or an Op")
    if m.space != q.space:
        raise SpaceMismatchError(f"operator on {m.space} does not match observable on {q.space}")
    return float(np.einsum("xy,yx->", m.entries, build_operator(q).entries).real)


def spectral_observable(m: Op, tol: float = 1e-8) -> QuantitativeObservable:
    """Spectral decomposition of a hermitian operator.

    Eigenvalues within tol of each other cluster into one channel whose
    value is the cluster mean; channels are ordered by descending value
    and labelled E0, E1, ... Rebuilding the operator from the result
    reproduces the input within tol.
    """
    structure_check(m, "hermitian", tol).require("spectral decomposition needs a hermitian operator")
    w, v = np.linalg.eigh(m.entries)
    clusters: list[list[int]] = [[0]]
    for k in range(1, len(w)):
        if w[k] - w[clusters[-1][-1]] <= tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    clusters.reverse()  # descending value
    channels = []
    values = []
    for idx in clusters:
        channels.append(Eventuality(m.space, v[:, idx]))
        values.append(float(np.mean(w[idx])))
    labels = tuple(f"E{i}" for i in range(len(clusters)))
    return QuantitativeObservable(Observable(m.space, tuple(channels), labels), tuple(values))


def _resolve_factor(comp: CompositeSpace, space: HilbertSpace, factor: int | None) -> int:
    if factor is None:
        return comp.factor_index(space)
    if not 0 <= factor < len(comp.factors):
        raise ValueError(f"factor index {factor} out of range")
    if comp.factors[factor] != space:
        raise SpaceMismatchError(f"factor {factor} of {comp.space} is {comp.factors[factor]}, not {space}")
    return factor


def lift_eventuality(e: Eventuality, comp: CompositeSpace, factor: int | None = None) -> Eventuality:
    """Embed a factor-local eventuality into the composite space: identity
    on every other factor. The lifted basis is the Kronecker product of
    the factor basis with the standard bases of the other factors, so no
    re-orthogonalization is needed and rank scales by the traced-out
    dimension."""
    idx = _resolve_factor(comp, e.space, factor)
    before = np.eye(comp.dim_before(idx), dtype=np.complex128)
    after = np.eye(comp.dim_after(idx), dtype=np.complex128)
    cols = np.kron(np.kron(before, e.basis_matrix), after)
    return Eventuality(comp.space, cols)


def lift(obs: Observable, comp: CompositeSpace, factor: int | None = None) -> Observable:
    """Lift every channel of a factor-local observable; labels carry over."""
    idx = _resolve_factor(comp, obs.space, factor)
    channels = tuple(lift_eventuality(ch, comp, idx) for ch in obs.channels)
    return Observable(comp.space, channels, obs.labels)


def _require_commuting(a: Observable, b: Observable, tol: float) -> None:
    """Reject the first channel pair (a_i, b_j) whose projectors do not
    commute within tol, naming the pair and its commutator residual
    |M - M^dag|, with M = V_a (V_a^dag V_b) V_b^dag = P_a P_b."""
    for la, ea in zip(a.labels, a.channels):
        va = ea.basis_matrix
        for lb, eb in zip(b.labels, b.channels):
            vb = eb.basis_matrix
            m = va @ (va.conj().T @ vb) @ vb.conj().T
            report = StructureReport("commutator", cheb_norm(m - m.conj().T), tol)
            report.require(f"channels {la!r} and {lb!r} do not commute")


def conjoin(a: Observable, b: Observable, tol: float = INVARIANT_TOL) -> Observable:
    """Combine two commuting observables on one space into the observable
    of channel pairs, channel (i, j) being meet(a_i, b_j). Rejects
    non-commuting channel pairs, naming the offending pair."""
    if a.space != b.space:
        raise SpaceMismatchError(f"cannot conjoin observables on {a.space} and {b.space}")
    _require_commuting(a, b, tol)
    channels = []
    labels = []
    for la, ea in zip(a.labels, a.channels):
        for lb, eb in zip(b.labels, b.channels):
            channels.append(ea.meet(eb))
            labels.append(f"{la}&{lb}")
    return Observable(a.space, tuple(channels), tuple(labels))
