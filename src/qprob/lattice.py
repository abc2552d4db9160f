"""Eventualities as Hilbert subspaces, plus the Boolean counterpart.

An eventuality is a subspace, carried as a deterministically ordered
orthonormal basis with a cached projector. The lattice operations are
meet (subspace intersection), join (span of the union), orthocomplement,
and the implication partial order. A small classical (measure-theoretic)
model ships alongside for contrast: there the sum rule for joins is exact,
while the quantum join in general is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpaceMismatchError, StructureError
from .hilbert import INVARIANT_TOL, HilbertSpace, Op, Vec, cheb_norm, structure_check

__all__ = [
    "RANK_TOL",
    "CLASSICAL_SUM_TOL",
    "Eventuality",
    "ClassicalModel",
    "ClassicalEventuality",
]

# Default threshold below which a residual direction counts as rank zero.
RANK_TOL = INVARIANT_TOL

# A classical measure must total 1 within this.
CLASSICAL_SUM_TOL = 1e-12


def _pivoted_orthonormalize(columns: list[np.ndarray], tol: float) -> np.ndarray:
    """Rank-revealing modified Gram-Schmidt with pivoting.

    Each round picks the residual of largest norm (ties break toward the
    lowest index), so the output basis order is deterministic. Residuals
    with norm below tol are dropped. One re-orthogonalization pass keeps
    the basis orthonormal to machine precision.
    """
    remaining = [np.array(c, dtype=np.complex128) for c in columns]
    dim = remaining[0].shape[0] if remaining else 0
    basis: list[np.ndarray] = []
    while remaining and len(basis) < dim:
        norms = [float(np.linalg.norm(v)) for v in remaining]
        j = int(np.argmax(norms))
        if norms[j] < tol:
            break
        q = remaining.pop(j) / norms[j]
        for b in basis:
            q = q - b * np.vdot(b, q)
        nq = float(np.linalg.norm(q))
        if nq >= tol:
            q = q / nq
            basis.append(q)
        remaining = [v - q * np.vdot(q, v) for v in remaining]
    if not basis:
        return np.zeros((dim, 0), dtype=np.complex128)
    return np.column_stack(basis)


def _as_column_list(space: HilbertSpace, vectors) -> list[np.ndarray]:
    cols: list[np.ndarray] = []
    for v in vectors:
        if isinstance(v, Vec):
            if v.space != space:
                raise SpaceMismatchError(f"spanning vector on {v.space} does not live on {space}")
            cols.append(np.asarray(v.components))
        else:
            arr = np.array(v, dtype=np.complex128).reshape(-1)
            if arr.shape != (space.dim,):
                raise ValueError(f"spanning vector of length {arr.shape[0]} does not fit dim {space.dim}")
            cols.append(arr)
    return cols


@dataclass(frozen=True, eq=False)
class Eventuality:
    """A subspace of a Hilbert space: orthonormal basis plus projector.

    The classmethods orthonormalize and order the basis deterministically.
    The constructor itself trusts columns already known orthonormal (basis
    transport, lifting, eigenvectors): it does not re-orthogonalize, so
    exact ranks and column order are preserved. Subspace identity is
    tested with `equals` (projector comparison), never with basis identity.
    """

    space: HilbertSpace
    basis_matrix: np.ndarray  # dim x rank, orthonormal columns

    def __post_init__(self):
        arr = np.array(self.basis_matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != self.space.dim or arr.shape[1] > self.space.dim:
            raise ValueError(f"basis matrix shape {arr.shape} does not fit dim {self.space.dim}")
        arr.setflags(write=False)
        object.__setattr__(self, "basis_matrix", arr)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_span(cls, space: HilbertSpace, vectors, tol: float = RANK_TOL) -> "Eventuality":
        """Subspace spanned by the given vectors. Dependent directions
        collapse; near-zero residuals (norm < tol) are dropped. An empty
        span is the null subspace. A vector whose norm overflows a float
        is a ValueError: its direction cannot be computed."""
        cols = _as_column_list(space, vectors)
        if not cols:
            return cls.null(space)
        with np.errstate(over="ignore"):
            if not all(np.isfinite(np.linalg.norm(c)) for c in cols):
                raise ValueError("spanning vector norm overflows a float")
        return cls(space, _pivoted_orthonormalize(cols, tol))

    @classmethod
    def from_projector(cls, projector: Op, tol: float = RANK_TOL) -> "Eventuality":
        """Subspace fixed by a projector. The matrix must pass the
        projector structure check at tol; the basis is the eigenvalue-one
        eigenspace."""
        report = structure_check(projector, "projector", tol)
        if not report:
            raise StructureError(
                f"not a projector: residual {report.residual:.3e} exceeds {tol:.0e}",
                residual=report.residual,
            )
        w, v = np.linalg.eigh(projector.entries)
        return cls(projector.space, v[:, w > 0.5])

    @classmethod
    def from_basis_states(cls, space: HilbertSpace, indices) -> "Eventuality":
        idx = list(indices)
        eye = np.eye(space.dim, dtype=np.complex128)
        return cls(space, eye[:, idx])

    @classmethod
    def null(cls, space: HilbertSpace) -> "Eventuality":
        return cls(space, np.zeros((space.dim, 0), dtype=np.complex128))

    @classmethod
    def certain(cls, space: HilbertSpace) -> "Eventuality":
        return cls(space, np.eye(space.dim, dtype=np.complex128))

    # -- derived data --------------------------------------------------

    @property
    def rank(self) -> int:
        return int(self.basis_matrix.shape[1])

    @property
    def is_null(self) -> bool:
        return self.rank == 0

    @property
    def is_certain(self) -> bool:
        return self.rank == self.space.dim

    @property
    def basis(self) -> tuple[Vec, ...]:
        return tuple(Vec(self.space, self.basis_matrix[:, k]) for k in range(self.rank))

    @cached_property
    def projector(self) -> Op:
        return Op(self.space, self.basis_matrix @ self.basis_matrix.conj().T)

    # -- lattice operations --------------------------------------------

    def meet(self, other: "Eventuality", tol: float = RANK_TOL) -> "Eventuality":
        """Subspace intersection.

        A vector lies in both subspaces iff it is annihilated by
        (2I - P1 - P2), which is hermitian positive semidefinite, so the
        intersection is that matrix's eigenvalue-zero eigenspace. The
        De Morgan route through complements and join must agree; tests
        hold the two routes against each other.
        """
        self._require_same(other)
        h = (
            2.0 * np.eye(self.space.dim, dtype=np.complex128)
            - self.projector.entries
            - other.projector.entries
        )
        w, v = np.linalg.eigh(h)
        return Eventuality(self.space, v[:, w <= tol])

    def join(self, other: "Eventuality", tol: float = RANK_TOL) -> "Eventuality":
        """Span of the union (the smallest subspace containing both)."""
        self._require_same(other)
        cols = [self.basis_matrix[:, k] for k in range(self.rank)]
        cols += [other.basis_matrix[:, k] for k in range(other.rank)]
        if not cols:
            return Eventuality.null(self.space)
        return Eventuality(self.space, _pivoted_orthonormalize(cols, tol))

    def orthocomplement(self, tol: float = RANK_TOL) -> "Eventuality":
        eye = Op.identity(self.space)
        return Eventuality.from_projector(eye - self.projector, tol)

    def leq(self, other: "Eventuality", tol: float = RANK_TOL) -> bool:
        """Implication order: self <= other iff P2 P1 = P1."""
        self._require_same(other)
        return cheb_norm(other.projector.entries @ self.projector.entries - self.projector.entries) <= tol

    def equals(self, other: "Eventuality", tol: float = RANK_TOL) -> bool:
        """Same subspace, i.e. projectors agree within tol."""
        self._require_same(other)
        return cheb_norm(self.projector.entries - other.projector.entries) <= tol

    def _require_same(self, other: "Eventuality") -> None:
        if self.space != other.space:
            raise SpaceMismatchError(f"eventualities on {self.space} and {other.space} cannot be combined")

    def __and__(self, other: "Eventuality") -> "Eventuality":
        return self.meet(other)

    def __or__(self, other: "Eventuality") -> "Eventuality":
        return self.join(other)

    def __invert__(self) -> "Eventuality":
        return self.orthocomplement()

    def __le__(self, other: "Eventuality") -> bool:
        return self.leq(other)

    def __repr__(self) -> str:
        return f"Eventuality({self.space}, rank {self.rank})"


@dataclass(frozen=True)
class ClassicalModel:
    """A finite sample set with a probability measure."""

    points: tuple[str, ...]
    measure: tuple[float, ...]

    def __post_init__(self):
        points = tuple(self.points)
        measure = tuple(float(x) for x in self.measure)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "measure", measure)
        if not points:
            raise ValueError("a classical model needs at least one point")
        if len(points) != len(measure):
            raise ValueError(f"{len(points)} points but {len(measure)} weights")
        if len(set(points)) != len(points):
            raise ValueError("sample points must be distinct")
        for p, w in zip(points, measure):
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"weight of point {p!r} is {w}, outside [0, 1]")
        residual = abs(sum(measure) - 1.0)
        if residual > CLASSICAL_SUM_TOL:
            raise ValueError(f"measure must total 1: residual {residual:.3e} exceeds {CLASSICAL_SUM_TOL:.0e}")

    def event(self, members) -> "ClassicalEventuality":
        return ClassicalEventuality(self, frozenset(members))

    @property
    def certain(self) -> "ClassicalEventuality":
        return self.event(self.points)

    @property
    def null(self) -> "ClassicalEventuality":
        return self.event(())


@dataclass(frozen=True)
class ClassicalEventuality:
    """A subset of a classical model's sample points."""

    model: ClassicalModel
    members: frozenset[str]

    def __post_init__(self):
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        strays = members - set(self.model.points)
        if strays:
            raise ValueError(f"members not in the sample set: {sorted(strays)}")

    def prob(self) -> float:
        # Sum in declared point order so results are reproducible.
        return sum(w for p, w in zip(self.model.points, self.model.measure) if p in self.members)

    def meet(self, other: "ClassicalEventuality") -> "ClassicalEventuality":
        self._require_same(other)
        return ClassicalEventuality(self.model, self.members & other.members)

    def join(self, other: "ClassicalEventuality") -> "ClassicalEventuality":
        self._require_same(other)
        return ClassicalEventuality(self.model, self.members | other.members)

    def complement(self) -> "ClassicalEventuality":
        return ClassicalEventuality(self.model, frozenset(self.model.points) - self.members)

    def _require_same(self, other: "ClassicalEventuality") -> None:
        if self.model is not other.model and self.model != other.model:
            raise ValueError("classical eventualities on different models cannot be combined")

    def __and__(self, other: "ClassicalEventuality") -> "ClassicalEventuality":
        return self.meet(other)

    def __or__(self, other: "ClassicalEventuality") -> "ClassicalEventuality":
        return self.join(other)

    def __invert__(self) -> "ClassicalEventuality":
        return self.complement()
