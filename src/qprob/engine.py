"""The quantum probability calculus.

A probability operator is a hermitian, unit-trace, positive semidefinite
operator; the probability it assigns to an eventuality is tr(P e). On
composites, reduced operators arise by partial trace, and conditioning by
the projector sandwich e P e / tr(P e). Channel probabilities and joint
tables of observables on factors of a composite are read from the
operator reduced to those factors, with no lifted projector.
Decoherence of a provisional operator over an observable is the sandwich
sum over its channels; pure inputs decompose into branch vectors.
Conditioning on an eventuality of probability below the zero threshold
is a loud error, never a silent NaN.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SpaceMismatchError, StructureError, ZeroProbabilityError
from .hilbert import (
    INVARIANT_TOL,
    CompositeSpace,
    HilbertSpace,
    Op,
    StructureReport,
    Vec,
    _psd_deficit,
    cheb_norm,
    partial_trace,
    structure_check,
)
from .lattice import Eventuality
from .observables import Observable, _require_commuting

__all__ = [
    "HERMITIAN_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "ZERO_PROBABILITY_THRESHOLD",
    "ProbabilityOperator",
    "CollapseResult",
    "JointProbabilityMatrix",
    "BranchDecomposition",
    "CorrelationReport",
    "born",
    "reduce_composite",
    "collapse",
    "joint_matrix",
    "conditional",
    "luder",
    "branch_decompose",
    "heisenberg_transport",
    "correlation_check",
]

# The invariant tolerance, under the name of each probability-operator check.
HERMITIAN_TOL = INVARIANT_TOL
TRACE_TOL = INVARIANT_TOL
PSD_TOL = INVARIANT_TOL

# Below this, an eventuality cannot be conditioned on.
ZERO_PROBABILITY_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class ProbabilityOperator:
    """A hermitian, unit-trace, positive semidefinite operator.

    The invariants are enforced at every construction, derived operators
    included: hermitian residual within HERMITIAN_TOL, trace within
    TRACE_TOL of 1, smallest eigenvalue above -PSD_TOL. The reports of
    those checks are kept in `checks`, in that order.

    The hermitian residual and the trace are read on the matrix, the
    eigenvalues on `blocks` when it is given (None: on the matrix).
    `blocks` are square matrices, or stacks of them, that the matrix lifts
    to mutually orthogonal ranges: the compressed sandwiches W^dag P W of
    `collapse`, `luder` and `branch_decompose`, a diagonal state's weights
    as 1 x 1 blocks, or a pure state's squared norm as one. The matrix's
    spectrum is theirs padded with zeros (Nielsen & Chuang, section 2.2.5).
    `blocks` is not kept.
    """

    space: HilbertSpace
    matrix: Op
    blocks: InitVar[tuple[np.ndarray, ...] | None] = None
    checks: tuple[StructureReport, ...] = field(init=False)

    def __post_init__(self, blocks):
        if self.matrix.space != self.space:
            raise SpaceMismatchError(f"matrix on {self.matrix.space} does not live on {self.space}")
        skew = structure_check(self.matrix, "hermitian").residual
        object.__setattr__(self, "checks", _require_invariants(self.matrix.entries, skew, blocks))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_entries(cls, space: HilbertSpace, entries, blocks=None) -> "ProbabilityOperator":
        return cls(space, Op(space, entries), blocks)

    @classmethod
    def pure(cls, state: Vec, tol: float = INVARIANT_TOL) -> "ProbabilityOperator":
        state.require_unit(tol)
        return cls(state.space, state.outer(state), (np.array([[state.norm() ** 2]]),))

    @classmethod
    def isotropic(cls, space: HilbertSpace) -> "ProbabilityOperator":
        """The no-information operator I/N."""
        return cls(space, Op(space, np.eye(space.dim, dtype=np.complex128) / space.dim))

    @classmethod
    def diagonal(cls, space: HilbertSpace, weights) -> "ProbabilityOperator":
        w = np.array(list(weights), dtype=np.float64)
        if w.shape != (space.dim,):
            raise ValueError(f"{w.shape[0]} weights do not fit dim {space.dim}")
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise ValueError(f"diagonal weight {bad[0]} is {w[bad[0]]}; weights must be finite")
        with np.errstate(over="ignore"):
            total = w.sum()
        if not np.isfinite(total):
            raise StructureError("probability operator must have unit trace: diagonal weight total overflows a float")
        return cls(space, Op(space, np.diag(w.astype(np.complex128))), (w.reshape(-1, 1, 1),))

    def __repr__(self) -> str:
        return f"ProbabilityOperator({self.space})"


def _require_invariants(a: np.ndarray, skew: float, blocks=None) -> tuple[StructureReport, ...]:
    # The three probability-operator checks of a, whose anti-hermitian
    # part a - a^dag has largest absolute entry `skew`, and whose spectrum
    # is that of `blocks` padded with zeros (None: a's own). Each raises
    # before the next is computed: the PSD eigendecomposition never runs on
    # a non-hermitian matrix.
    must = "probability operator must"
    herm = StructureReport("hermitian", skew, HERMITIAN_TOL).require(f"{must} be hermitian")
    trace = StructureReport("unit-trace", abs(complex(np.trace(a)) - 1.0), TRACE_TOL).require(f"{must} have unit trace")
    stacks: dict[tuple[int, ...], list[np.ndarray]] = {}  # one batched eigendecomposition per block shape
    for b in filter(np.size, (a,) if blocks is None else blocks):  # an empty block adds no eigenvalue
        stacks.setdefault(b.shape[-2:], []).append(b.reshape(-1, *b.shape[-2:]))
    deficit = max(_psd_deficit(np.concatenate(s)) for s in stacks.values())
    return herm, trace, StructureReport("psd", max(skew, deficit), PSD_TOL).require(f"{must} be positive semidefinite")


# -- factor-local tables ------------------------------------------------
#
# On a composite, a table over factor-local observables depends only on
# the operator reduced to their factors (Nielsen & Chuang, section 2.4.3):
# tr(P (a_i x b_j)) = tr(P_kl (a_i x b_j)) with P_kl the partial trace onto
# factors k and l. `born` and `joint_matrix` contract the reduced operator,
# with one axis per factor index, against the stacked factor projectors;
# no D x D product is formed and no lifted projector is built.

# Contract the operator with the first projector stack, then with the
# second: the intermediate has one projector index and two factor indices.
_PAIRWISE = ["einsum_path", (0, 1), (0, 1)]


def _projectors(obs: Observable) -> np.ndarray:
    return np.array([ch.projector.entries for ch in obs.channels])


def _reduced(prob: ProbabilityOperator, comp: CompositeSpace | None, *spaces: HilbertSpace) -> np.ndarray:
    # P itself with comp None (its space is the caller's to check), else P
    # reduced to the factors `spaces` of comp, in that order.
    if comp is None:
        return prob.matrix.entries
    return partial_trace(prob.matrix, comp, tuple(comp.factor_index(s) for s in spaces)).entries


def born(prob: ProbabilityOperator, x, *, comp: CompositeSpace | None = None) -> float | np.ndarray:
    """Probability tr(P e) of an eventuality, as a float, or the array of
    an observable's channel probabilities. `comp` is the composite that
    x's space is a factor of (None: the operator's own space); P is
    reduced to that factor once, and read unchecked there. Raw values;
    clamping to [0, 1] is presentation-side only."""
    if comp is None and prob.space != x.space:
        kind = "observable" if isinstance(x, Observable) else "eventuality"
        raise SpaceMismatchError(f"operator on {prob.space} does not match {kind} on {x.space}")
    reduced = _reduced(prob, comp, x.space)
    if isinstance(x, Observable):
        return np.einsum("xy,jyx->j", reduced, _projectors(x)).real
    return float(np.einsum("xy,yx->", reduced, x.projector.entries).real)


def reduce_composite(state, comp: CompositeSpace, keep: int) -> ProbabilityOperator:
    """Reduced probability operator on one factor of a composite. Accepts
    a composite state vector or probability operator."""
    if isinstance(state, Vec):
        state = ProbabilityOperator.pure(state)
    if not isinstance(state, ProbabilityOperator):
        raise TypeError("reduce_composite needs a Vec or a ProbabilityOperator")
    reduced = partial_trace(state.matrix, comp, keep)
    return ProbabilityOperator(reduced.space, reduced)


def _conditionable(p: float, threshold: float) -> float:
    if p <= threshold:
        raise ZeroProbabilityError(
            f"cannot condition on an eventuality of probability {p:.3e} (threshold {threshold:.0e})",
            probability=p,
            threshold=threshold,
        )
    return p


# -- the projector sandwich ----------------------------------------------
#
# `comp` is the composite that an eventuality's space is a factor of (None:
# the operator's own space). With V the basis of e on factor k and
# W = I x V x I, e P e = W (W^dag P W) W^dag: P is compressed once to the
# range of W, of side r * D / n, and only a D x D output is lifted back
# (Nielsen & Chuang, section 2.2.5). No lifted projector is built.


class _Sandwich(NamedTuple):
    block: np.ndarray  # W^dag P W
    v: np.ndarray
    before: int  # the dimensions of the factors before and after V's
    after: int

    @property
    def probability(self) -> float:
        return float(np.trace(self.block).real)  # tr(e P e)

    def lift(self, y: np.ndarray) -> np.ndarray:
        """W Y W^dag, on the space of P."""
        (n, r), before, after = self.v.shape, self.before, self.after
        boxed = y.reshape(before, r, after, before, r, after)
        full = np.tensordot(np.tensordot(self.v, boxed, axes=(1, 1)), self.v.conj(), axes=(4, 1))  # n b a b a n
        return full.transpose(1, 0, 2, 3, 5, 4).reshape(before * n * after, before * n * after)


def _sandwich(prob: ProbabilityOperator, e: Eventuality, comp: CompositeSpace | None) -> _Sandwich:
    if comp is None:
        if prob.space != e.space:
            raise SpaceMismatchError(f"operator on {prob.space} does not match eventuality on {e.space}")
        before = after = 1
    else:
        if prob.space != comp.space:
            raise SpaceMismatchError(f"operator on {prob.space} does not live on the composite {comp.space}")
        k = comp.factor_index(e.space)
        before, after = comp.dim_before(k), comp.dim_after(k)
    v, side = e.basis_matrix, before * e.rank * after  # a null e gives a 0 x 0 block
    boxed = prob.matrix.entries.reshape((before, v.shape[0], after) * 2)
    half = np.tensordot(v.conj(), boxed, axes=(0, 1))  # r, before, after, before, n, after
    block = np.tensordot(half, v, axes=(4, 0)).transpose(1, 0, 2, 3, 5, 4).reshape(side, side)
    return _Sandwich(block, v, before, after)


class CollapseResult(NamedTuple):
    operator: ProbabilityOperator
    probability: float


def collapse(
    prob: ProbabilityOperator,
    e: Eventuality,
    threshold: float = ZERO_PROBABILITY_THRESHOLD,
    *,
    comp: CompositeSpace | None = None,
) -> CollapseResult:
    """A-posteriori operator e P e / tr(P e) together with tr(P e).

    Conditioning on an eventuality of probability <= threshold raises
    ZeroProbabilityError.
    """
    s = _sandwich(prob, e, comp)
    p = _conditionable(s.probability, threshold)
    return CollapseResult(ProbabilityOperator.from_entries(prob.space, s.lift(s.block) / p, (s.block / p,)), p)


@dataclass(frozen=True, eq=False)
class JointProbabilityMatrix:
    """Joint probabilities tr(P a_i b_j) over two commuting observables."""

    row_observable: Observable
    col_observable: Observable
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        expected = (self.row_observable.channel_count, self.col_observable.channel_count)
        if arr.shape != expected:
            raise ValueError(f"joint matrix shape {arr.shape} does not match channel counts {expected}")
        if float(arr.min()) < -INVARIANT_TOL:
            raise ValueError(f"joint matrix has a negative entry: {float(arr.min()):.3e}")
        total = StructureReport("total", abs(float(arr.sum()) - 1.0), INVARIANT_TOL)
        total.require("joint matrix must total 1", ValueError)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def row_marginals(self) -> np.ndarray:
        return self.values.sum(axis=1)

    def col_marginals(self) -> np.ndarray:
        return self.values.sum(axis=0)


def joint_matrix(
    prob: ProbabilityOperator,
    rows: Observable,
    cols: Observable,
    tol: float = INVARIANT_TOL,
    *,
    comp: CompositeSpace | None = None,
) -> JointProbabilityMatrix:
    """Joint probability table tr(P a_i b_j) over two observables, on the
    operator's space or, with `comp`, each on a factor of that composite.
    Two observables on one space must commute within tol; a violation is
    rejected naming the pair ([A x I, B x I] = [A, B] x I has the same
    residual). Lifts of observables on different factors commute exactly."""
    if comp is None and not rows.space == cols.space == prob.space:
        raise SpaceMismatchError("joint_matrix needs observables on the operator's space")
    if rows.space == cols.space:
        reduced = _reduced(prob, comp, rows.space)
        _require_commuting(rows, cols, tol)
        subscripts = "xy,iyz,jzx->ij"
    else:
        n, m = rows.space.dim, cols.space.dim
        reduced = _reduced(prob, comp, rows.space, cols.space).reshape(n, m, n, m)
        subscripts = "xyzw,izx,jwy->ij"
    table = np.einsum(subscripts, reduced, _projectors(rows), _projectors(cols), optimize=_PAIRWISE)
    return JointProbabilityMatrix(rows, cols, table.real)


def conditional(
    prob: ProbabilityOperator,
    given: Eventuality,
    target: Observable,
    threshold: float = ZERO_PROBABILITY_THRESHOLD,
    *,
    comp: CompositeSpace | None = None,
) -> np.ndarray:
    """Probabilities of the target channels after conditioning on `given`.

    The a-posteriori operator is read compressed, as X = W^dag P W / p, and
    gets the checks `collapse` runs on W X W^dag: the lift has X's trace and
    X's spectrum padded with zeros; its largest anti-hermitian entry is not
    unitarily invariant, so that residual is read on W (X - X^dag) W^dag.
    Reduced to the target's factor, X gives the target probabilities.
    """
    s = _sandwich(prob, given, comp)
    posterior = s.block / _conditionable(s.probability, threshold)
    _require_invariants(posterior, cheb_norm(s.lift(posterior - posterior.conj().T)))
    if comp is None:
        if target.space != prob.space:
            raise SpaceMismatchError(f"operator on {prob.space} does not match observable on {target.space}")
        reduced = posterior
    else:
        k = comp.factor_index(given.space)
        kept = CompositeSpace(comp.factors[:k] + (HilbertSpace(given.rank, "range"),) + comp.factors[k + 1:])
        reduced = partial_trace(Op(kept.space, posterior), kept, comp.factor_index(target.space)).entries
    b = _projectors(target)
    if target.space == given.space:
        b = s.v.conj().T @ b @ s.v  # the target channels compressed to the range of V
    return np.einsum("xy,jyx->j", reduced, b).real


def luder(prob: ProbabilityOperator, obs: Observable, *, comp: CompositeSpace | None = None) -> ProbabilityOperator:
    """Decohere over an observable: the sandwich sum of e P e over its
    channels. Idempotent, and it preserves every channel probability."""
    sandwiches = [_sandwich(prob, ch, comp) for ch in obs.channels]
    lifted = sum(s.lift(s.block) for s in sandwiches)
    return ProbabilityOperator.from_entries(prob.space, lifted, tuple(s.block for s in sandwiches))


@dataclass(frozen=True, eq=False)
class BranchDecomposition:
    """Per-channel outcome of decomposing a state over an observable.

    Posterior operators are absent (None) for channels at or below the
    zero-probability threshold; those channel indices are flagged. For a
    pure input the unnormalized branch vectors e_i |psi> are kept, and
    they sum back to the input vector.
    """

    observable: Observable
    probabilities: tuple[float, ...]
    posteriors: tuple[ProbabilityOperator | None, ...]
    branch_vectors: tuple[Vec, ...] | None
    zero_channels: tuple[int, ...]
    threshold: float


def branch_decompose(
    state,
    obs: Observable,
    threshold: float = ZERO_PROBABILITY_THRESHOLD,
    *,
    comp: CompositeSpace | None = None,
) -> BranchDecomposition:
    """Decompose a pure or mixed state over an observable's channels."""
    vec = state if isinstance(state, Vec) else None
    prob = state if vec is None else ProbabilityOperator.pure(vec)
    if not isinstance(prob, ProbabilityOperator):
        raise TypeError("branch_decompose needs a Vec or a ProbabilityOperator")
    sandwiches = [_sandwich(prob, ch, comp) for ch in obs.channels]
    probs = [s.probability for s in sandwiches]
    total = StructureReport("total", abs(sum(probs) - 1.0), INVARIANT_TOL)
    if not total:
        error = ValueError(
            f"channel probabilities must total 1: residual {total.residual:.3e} exceeds {total.tol:.0e} "
            "(is the observable complete?)"
        )
        error.residual = total.residual
        raise error
    posteriors = tuple(
        None if p <= threshold else ProbabilityOperator.from_entries(prob.space, s.lift(s.block) / p, (s.block / p,))
        for s, p in zip(sandwiches, probs)
    )
    branch_vectors = None
    if vec is not None:
        psi = vec.components.reshape(sandwiches[0].before, obs.space.dim, sandwiches[0].after)
        branch_vectors = tuple(
            Vec(prob.space, np.einsum("xy,ayb->axb", ch.projector.entries, psi).ravel()) for ch in obs.channels
        )
    zero = tuple(i for i, p in enumerate(probs) if p <= threshold)
    return BranchDecomposition(obs, tuple(probs), posteriors, branch_vectors, zero, threshold)


def heisenberg_transport(x, u: Op, tol: float = INVARIANT_TOL):
    """Transport an eventuality or observable by a unitary: the projector
    maps to u^dag P u, so the basis columns map by u^dag. Non-unitary
    input is rejected with its residual."""
    structure_check(u, "unitary", tol).require("transport needs a unitary")
    if isinstance(x, Eventuality):
        if x.space != u.space:
            raise SpaceMismatchError(f"eventuality on {x.space} does not match unitary on {u.space}")
        return Eventuality(x.space, u.entries.conj().T @ x.basis_matrix)
    if isinstance(x, Observable):
        channels = tuple(heisenberg_transport(ch, u, tol) for ch in x.channels)
        return Observable(x.space, channels, x.labels)
    raise TypeError("heisenberg_transport needs an Eventuality or an Observable")


@dataclass(frozen=True)
class CorrelationReport:
    """Whether two observables are adequately correlated under a state:
    matching channel counts, small off-diagonal joint mass, and rows of
    the conditional table close to the identity pattern."""

    row_channels: int
    col_channels: int
    off_diagonal_mass: float
    max_conditional_deviation: float
    skipped_rows: tuple[int, ...]
    tol: float

    @classmethod
    def of(
        cls,
        jm: JointProbabilityMatrix,
        tol: float,
        threshold: float = ZERO_PROBABILITY_THRESHOLD,
    ) -> "CorrelationReport":
        """The report read off a joint table already computed; rows whose
        marginal is at or below the zero threshold are skipped."""
        n, k = jm.values.shape
        off_mass = float(jm.values.sum() - np.trace(jm.values[: min(n, k), : min(n, k)]))
        marginals = jm.row_marginals()
        kept = marginals > threshold
        rows = jm.values[kept] / marginals[kept, None]
        worst = float(np.abs(rows - np.eye(n, k)[kept]).max(initial=0.0))
        return cls(n, k, off_mass, worst, tuple(np.flatnonzero(~kept).tolist()), tol)

    @property
    def counts_match(self) -> bool:
        return self.row_channels == self.col_channels

    @property
    def adequately_correlated(self) -> bool:
        return (
            self.counts_match
            and self.off_diagonal_mass <= self.tol
            and self.max_conditional_deviation <= self.tol
        )

    def __bool__(self) -> bool:
        return self.adequately_correlated


def correlation_check(
    prob: ProbabilityOperator,
    rows: Observable,
    cols: Observable,
    tol: float = INVARIANT_TOL,
    threshold: float = ZERO_PROBABILITY_THRESHOLD,
) -> CorrelationReport:
    """Measure how close two observables come to perfect correlation
    under a state: off-diagonal joint mass and the worst deviation of the
    conditional table from the identity. Rows whose marginal is at or
    below the zero threshold are skipped and reported."""
    jm = joint_matrix(prob, rows, cols, tol=max(tol, INVARIANT_TOL))
    return CorrelationReport.of(jm, tol, threshold)
