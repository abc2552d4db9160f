"""The quantum probability calculus.

A probability operator is a hermitian, unit-trace, positive semidefinite
operator; the probability it assigns to an eventuality is tr(P e). On
composites, reduced operators arise by partial trace, and conditioning by
the projector sandwich e P e / tr(P e). Channel probabilities and joint
tables of observables on factors of a composite are read from the
operator reduced to those factors, through the channel bases and with no
projector; without a composite, the operator's own space is the one
factor. Decoherence of a provisional operator over an observable is the
sandwich sum over its channels; pure inputs decompose into branch vectors.
Conditioning on an eventuality of probability below the zero threshold is
a loud error, never a silent NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
from .observables import Observable, _require_commuting, _stacked

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


@dataclass(frozen=True, eq=False, init=False)
class ProbabilityOperator:
    """A hermitian, unit-trace, positive semidefinite operator.

    The invariants are enforced at every construction, derived operators
    included: hermitian residual within HERMITIAN_TOL, trace within
    TRACE_TOL of 1, smallest eigenvalue above -PSD_TOL. The reports of
    those checks are kept in `checks`, in that order.

    An operator is held as its matrix, or as a factor F and a divisor s
    with P = F F^dag / s (`from_factor`). A pure state keeps psi with s = 1,
    and the posteriors and the decoherence of a factored operator keep its
    branch vectors, each divided by its probability once, through s: a pure
    state is never squared. F F^dag / s is hermitian and positive
    semidefinite by construction, so those residuals are 0, and the trace
    is |F|_F^2 / s. `matrix` is formed from F on its first read.

    For an operator given as its matrix, the hermitian residual and the
    trace are read on the matrix, the eigenvalues on `blocks` when it is
    given (None: on the matrix). `blocks` are square matrices, or stacks
    of them, that the matrix lifts to mutually orthogonal ranges: the
    compressed sandwiches W^dag P W of `collapse`, `luder` and
    `branch_decompose`, or a diagonal state's weights as 1 x 1 blocks. The
    matrix's spectrum is theirs padded with zeros (Nielsen & Chuang,
    section 2.2.5). `blocks` is not kept.
    """

    space: HilbertSpace
    factor: np.ndarray | None  # F, one row per basis state, or None
    divisor: float  # s with P = F F^dag / s; 1 for a matrix
    checks: tuple[StructureReport, ...]

    def __init__(self, space: HilbertSpace, matrix: Op, blocks: tuple[np.ndarray, ...] | None = None):
        for name, value in (("space", space), ("factor", None), ("divisor", 1.0), ("matrix", matrix)):
            object.__setattr__(self, name, value)
        self.__post_init__(blocks)

    def __post_init__(self, blocks):
        # The three checks, on the factor or on the matrix; every
        # constructor ends here.
        if self.factor is not None:
            unit = StructureReport("unit-trace", abs(_weight(self.factor) / self.divisor - 1.0), TRACE_TOL)
            unit.require("probability operator must have unit trace")
            checks = (StructureReport("hermitian", 0.0, HERMITIAN_TOL), unit, StructureReport("psd", 0.0, PSD_TOL))
        else:
            if self.matrix.space != self.space:
                raise SpaceMismatchError(f"matrix on {self.matrix.space} does not live on {self.space}")
            skew = structure_check(self.matrix, "hermitian").residual
            checks = _require_invariants(self.matrix.entries, skew, blocks)
        object.__setattr__(self, "checks", checks)

    @cached_property
    def matrix(self) -> Op:
        """P, formed as F F^dag / s for a factored operator."""
        entries = self.factor @ self.factor.conj().T
        if self.divisor != 1.0:
            entries /= self.divisor
        return Op(self.space, entries)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_entries(cls, space: HilbertSpace, entries, blocks=None) -> "ProbabilityOperator":
        return cls(space, Op(space, entries), blocks)

    @classmethod
    def from_factor(cls, space: HilbertSpace, factor, divisor: float = 1.0) -> "ProbabilityOperator":
        """P = F F^dag / divisor, for F with one row per basis state of `space`."""
        f = np.array(factor, dtype=np.complex128).reshape(space.dim, -1)
        f.setflags(write=False)
        op = cls.__new__(cls)
        for name, value in (("space", space), ("factor", f), ("divisor", float(divisor))):
            object.__setattr__(op, name, value)
        op.__post_init__(None)
        return op

    @classmethod
    def pure(cls, state: Vec, tol: float = INVARIANT_TOL) -> "ProbabilityOperator":
        state.require_unit(tol)
        return cls.from_factor(state.space, state.components)

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


def _weight(f: np.ndarray) -> float:
    """|F|_F^2, the trace of F F^dag. numpy's own pairwise sum reads it, not
    BLAS's dot product, whose threaded sum order depends on the thread count."""
    return float((f.real**2 + f.imag**2).sum())


# -- tables through channel bases ----------------------------------------
#
# On a composite, a table over factor-local observables depends only on
# the operator reduced to their factors (Nielsen & Chuang, section 2.4.3):
# tr(P (a_i x b_j)) = tr(P_kl (a_i x b_j)) with P_kl the partial trace onto
# factors k and l. A channel with basis V reads tr(R V V^dag) as the sum of
# <v|R|v> over the columns v of V (section 2.2.5): with U = [V_1 ... V_n],
# each channel's cells are summed in column order. No channel's projector is
# built. For a factored P = F F^dag / s, the reduced operator is
# R = M M^dag / s, with M being F with the kept factors' indices as rows and
# every other index as columns (section 2.5). R is formed when it holds no
# more entries than F, and read as a matrix is; otherwise <v|R|v> is read as
# |v^dag M|^2 / s. Either way the divisor is applied once, to the finished
# cells. M is `CompositeSpace.grouped` of F.


class _Reduced(NamedTuple):
    entries: np.ndarray  # s R, or M with s R = M M^dag
    factored: bool
    divisor: float = 1.0  # s

    @classmethod
    def of_rows(cls, m: np.ndarray, divisor: float, room: int) -> "_Reduced":
        """R = M M^dag / divisor, formed when it has at most `room` entries."""
        if m.shape[0] ** 2 <= room:
            return cls(m @ m.conj().T, False, divisor)
        return cls(m, True, divisor)

    def reads(self, u: np.ndarray) -> np.ndarray:
        """s <u|R|u> for each column u of `u`."""
        if self.factored:
            t = u.conj().T @ self.entries
            return (t.real**2 + t.imag**2).sum(axis=1)
        return (u.conj() * (self.entries @ u)).real.sum(axis=0)

    def between(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """s a^dag R b."""
        if self.factored:
            return (a.conj().T @ self.entries) @ (b.conj().T @ self.entries).conj().T
        return a.conj().T @ self.entries @ b

    def pairs(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        """s <u_a w_b|R|u_a w_b> over the columns u_a of u and w_b of w, for R
        on the product of their two spaces."""
        n, m = u.shape[0], w.shape[0]
        if self.factored:  # (u_a x w_b)^dag M, one BLAS product per factor
            s = self.entries.shape[1]
            t = w.conj().T @ (u.conj().T @ self.entries.reshape(n, m * s)).reshape(-1, m, s)
            return (t.real**2 + t.imag**2).sum(axis=2)
        # R's row and column index pairs meet the outer products of each factor's columns
        r = self.entries.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
        outers = [(v.conj()[:, None] * v).reshape(v.shape[0] ** 2, -1) for v in (u, w)]  # [(x, z), a]: conj(v_xa) v_za
        return (outers[0].T @ r @ outers[1]).real


def _channel_reads(r: _Reduced, channels: tuple[Eventuality, ...], v: np.ndarray | None = None) -> np.ndarray:
    # tr(R V_j V_j^dag) per channel; with v, of the bases compressed to v^dag V_j.
    u, owner = _stacked(channels)
    probs = np.zeros(len(channels))
    np.add.at(probs, owner, r.reads(u if v is None else v.conj().T @ u))
    return probs / r.divisor


def _composite(prob: ProbabilityOperator, comp: CompositeSpace | None) -> CompositeSpace:
    # comp, or the operator's own space as a composite of one factor, which
    # every primitive reads its factors from; the operator must live on it.
    comp = CompositeSpace((prob.space,)) if comp is None else comp
    if prob.space != comp.space:
        raise SpaceMismatchError(f"operator on {prob.space} does not live on the composite {comp.space}")
    return comp


def _reduced(prob: ProbabilityOperator, comp: CompositeSpace | None, *spaces: HilbertSpace) -> _Reduced:
    # P reduced to the factors `spaces` of comp, in that order.
    comp = _composite(prob, comp)
    keep = tuple(comp.factor_index(s) for s in spaces)
    if prob.factor is not None:
        return _Reduced.of_rows(comp.grouped(prob.factor, keep), prob.divisor, prob.factor.size)
    return _Reduced(partial_trace(prob.matrix, comp, keep).entries, False)


def born(prob: ProbabilityOperator, x, *, comp: CompositeSpace | None = None) -> float | np.ndarray:
    """Probability tr(P e) of an eventuality, as a float, or the array of
    an observable's channel probabilities. `comp` is the composite that
    x's space is a factor of (None: the operator's own space); P is
    reduced to that factor once, and read unchecked there. Raw values;
    clamping to [0, 1] is presentation-side only."""
    probs = _channel_reads(_reduced(prob, comp, x.space), x.channels if isinstance(x, Observable) else (x,))
    return probs if isinstance(x, Observable) else float(probs[0])


def reduce_composite(state, comp: CompositeSpace, keep: int) -> ProbabilityOperator:
    """Reduced probability operator on one factor of a composite. Accepts
    a composite state vector or probability operator."""
    if isinstance(state, Vec):
        state = ProbabilityOperator.pure(state)
    if not isinstance(state, ProbabilityOperator):
        raise TypeError("reduce_composite needs a Vec or a ProbabilityOperator")
    if state.factor is not None:  # M M^dag / s, held as M
        m = _composite(state, comp).grouped(state.factor, (keep,))
        return ProbabilityOperator.from_factor(comp.factors[keep], m, state.divisor)
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
# `comp` is the composite that e's space is a factor of; without one, the
# operator's own space is the one factor. With V the basis of e on factor
# k and W = I x V x I, e P e = W (W^dag P W) W^dag: P is compressed once
# to the range of W, of side r * D / n, and only a D x D output is lifted
# back (Nielsen & Chuang, section 2.2.5). No lifted projector is built.
# Each product with W or W^dag is `comp.on_factor`, (I x a x I) f: once
# for a factored P, and on both sides of a matrix m, the right-hand side
# through the transpose, (A m) A^dag = (conj(A) (A m)^T)^T. A factored
# P = F F^dag / s is compressed as G = W^dag F, so that
# tr(e P e) = |G|_F^2 / s and e P e / tr(e P e) = (W G)(W G)^dag / |G|_F^2:
# the posterior of a pure state keeps its branch vector W G = e psi, and
# no D x D array is formed.


class _Sandwich(NamedTuple):
    block: np.ndarray  # W^dag P W, or G for a factored P
    v: np.ndarray
    comp: CompositeSpace  # P's composite, with V on its factor k
    k: int
    divisor: float | None  # a factored P's s; None for a matrix

    @property
    def weight(self) -> float:
        """tr(W^dag P W), or |G|_F^2 = s tr(e P e) for a factored P."""
        return _weight(self.block) if self.factored else float(np.trace(self.block).real)

    @property
    def factored(self) -> bool:
        return self.divisor is not None

    @property
    def probability(self) -> float:
        """tr(e P e)."""
        return self.weight / self.divisor if self.factored else self.weight

    def lift(self, y: np.ndarray) -> np.ndarray:
        """W Y W^dag, on the space of P; for a factored P, W Y."""
        wy = self.comp.on_factor(self.k, self.v, y)
        return wy if self.factored else self.comp.on_factor(self.k, self.v.conj(), wy.T).T

    def posterior(self, space: HilbertSpace) -> ProbabilityOperator:
        """e P e / tr(e P e), divided once."""
        if self.factored:
            return ProbabilityOperator.from_factor(space, self.lift(self.block), self.weight)
        p, lifted = self.weight, self.lift(self.block)
        lifted /= p  # in place: the lift is a fresh array
        return ProbabilityOperator.from_entries(space, lifted, (self.block / p,))


def _sandwich(prob: ProbabilityOperator, e: Eventuality, comp: CompositeSpace | None) -> _Sandwich:
    comp = _composite(prob, comp)
    k = comp.factor_index(e.space)
    v, a = e.basis_matrix, e.basis_matrix.conj().T  # a null e gives a 0 x 0 block
    if prob.factor is not None:
        return _Sandwich(comp.on_factor(k, a, prob.factor), v, comp, k, prob.divisor)
    block = comp.on_factor(k, v.T, comp.on_factor(k, a, prob.matrix.entries).T).T
    return _Sandwich(block, v, comp, k, None)


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
    return CollapseResult(s.posterior(prob.space), p)


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
        negative = StructureReport("nonnegative", max(0.0, -float(arr.min())), INVARIANT_TOL)
        negative.require("joint matrix has a negative entry", ValueError)
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
    (u, row_owner), (w, col_owner) = _stacked(rows.channels), _stacked(cols.channels)
    if rows.space == cols.space:
        reduced = _reduced(prob, comp, rows.space)
        _require_commuting(rows, cols, tol)
        cells = ((u.conj().T @ w) * reduced.between(w, u).T).real  # C o M^T, C = U^dag W, M = W^dag R U
    else:
        reduced = _reduced(prob, comp, rows.space, cols.space)
        cells = reduced.pairs(u, w)
    table = np.zeros((rows.channel_count, cols.channel_count))
    np.add.at(table, (row_owner[:, None], col_owner), cells)  # per channel pair, in column order
    return JointProbabilityMatrix(rows, cols, table / reduced.divisor)


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
    For a factored P, X = G G^dag / |G|_F^2 passes them by construction
    and is read as the factored operator it is. Reduced to the target's
    factor, X gives the target probabilities.
    """
    s = _sandwich(prob, given, comp)
    p = _conditionable(s.probability, threshold)
    kept = CompositeSpace(s.comp.factors[:s.k] + (HilbertSpace(given.rank, "range"),) + s.comp.factors[s.k + 1:])
    t = s.comp.factor_index(target.space)
    v = s.v if target.space == given.space else None
    if s.factored:
        reduced = _Reduced.of_rows(kept.grouped(s.block, (t,)), s.weight, prob.factor.size)
        return _channel_reads(reduced, target.channels, v)
    posterior = s.block / p
    _require_invariants(posterior, cheb_norm(s.lift(posterior - posterior.conj().T)))
    reduced = partial_trace(Op(kept.space, posterior), kept, t).entries
    return _channel_reads(_Reduced(reduced, False), target.channels, v)


def luder(prob: ProbabilityOperator, obs: Observable, *, comp: CompositeSpace | None = None) -> ProbabilityOperator:
    """Decohere over an observable: the sandwich sum of e P e over its
    channels, factored by its branch vectors [W_1 G_1 ... W_n G_n] when P
    is. Idempotent, and it preserves every channel probability."""
    sandwiches = [_sandwich(prob, ch, comp) for ch in obs.channels]
    if prob.factor is not None:
        branches = np.hstack([s.lift(s.block) for s in sandwiches])
        return ProbabilityOperator.from_factor(prob.space, branches, prob.divisor)
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
    total.require("channel probabilities must total 1 (is the observable complete?)", ValueError)
    posteriors = tuple(None if p <= threshold else s.posterior(prob.space) for s, p in zip(sandwiches, probs))
    # e_i psi = W_i G_i, on the factor of each channel
    branch_vectors = None if vec is None else tuple(Vec(prob.space, s.lift(s.block).ravel()) for s in sandwiches)
    zero = tuple(i for i, p in enumerate(probs) if p <= threshold)
    return BranchDecomposition(obs, tuple(probs), posteriors, branch_vectors, zero, threshold)


def heisenberg_transport(x, u: Op, tol: float = INVARIANT_TOL):
    """Transport an eventuality or observable by a unitary: the projector
    maps to u^dag P u, so the basis columns map by u^dag. Non-unitary
    input is rejected with its residual; the unitary is checked once."""
    structure_check(u, "unitary", tol).require("transport needs a unitary")
    if not isinstance(x, (Eventuality, Observable)):
        raise TypeError("heisenberg_transport needs an Eventuality or an Observable")
    if x.space != u.space:  # an observable's channels live on its space
        raise SpaceMismatchError(f"eventuality on {x.space} does not match unitary on {u.space}")
    adjoint = u.entries.conj().T
    if isinstance(x, Eventuality):
        return Eventuality(x.space, adjoint @ x.basis_matrix)
    return Observable(x.space, tuple(Eventuality(x.space, adjoint @ ch.basis_matrix) for ch in x.channels), x.labels)


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
