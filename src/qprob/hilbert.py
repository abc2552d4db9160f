"""Complex vectors and operators on small finite-dimensional Hilbert spaces.

Values are immutable and every function is pure. The Kronecker convention
is row-major (first factor is the slow index); all composite index
arithmetic in the package derives from that single choice. Structural
predicates (hermitian, unitary, projector, psd) are toleranced and report
their defining residual in the Chebyshev (max absolute entry) norm.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpaceMismatchError, StructureError

__all__ = [
    "HilbertSpace",
    "Vec",
    "Op",
    "CompositeSpace",
    "StructureReport",
    "STRUCTURE_KINDS",
    "INVARIANT_TOL",
    "cheb_norm",
    "commutator",
    "tensor",
    "partial_trace",
    "structure_check",
]

# The one tolerance for every structural invariant in the package: the
# probability-operator checks, rank cut-offs, orthogonality and sum rules.
INVARIANT_TOL = 1e-10


def cheb_norm(a) -> float:
    """Chebyshev norm of an array: the maximum absolute entry."""
    arr = np.asarray(a)
    return 0.0 if arr.size == 0 else float(np.abs(arr).max())


@dataclass(frozen=True)
class HilbertSpace:
    """A finite-dimensional complex Hilbert space, identified by dimension
    and label. Two spaces compare equal iff both match."""

    dim: int
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"Hilbert space dimension must be a positive integer, got {self.dim!r}")

    def __str__(self) -> str:
        return self.label or f"H{self.dim}"


def _require_same_space(a: HilbertSpace, b: HilbertSpace, what: str) -> None:
    if a != b:
        raise SpaceMismatchError(f"{what} requires matching spaces, got {a} (dim {a.dim}) and {b} (dim {b.dim})")


def _frozen_complex(data, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.array(data, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Vec:
    """An immutable vector with complex components on a fixed space."""

    space: HilbertSpace
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "components", _frozen_complex(self.components, (self.space.dim,), "vector components")
        )

    @classmethod
    def basis(cls, space: HilbertSpace, index: int) -> "Vec":
        if not 0 <= index < space.dim:
            raise ValueError(f"basis index {index} out of range for dim {space.dim}")
        comp = np.zeros(space.dim, dtype=np.complex128)
        comp[index] = 1.0
        return cls(space, comp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))

    def inner(self, other: "Vec") -> complex:
        """Inner product <self|other>, conjugate-linear in self."""
        _require_same_space(self.space, other.space, "inner product")
        return complex(np.vdot(self.components, other.components))

    def outer(self, other: "Vec") -> "Op":
        """Rank-one operator |self><other|."""
        _require_same_space(self.space, other.space, "outer product")
        return Op(self.space, np.outer(self.components, other.components.conj()))

    def require_unit(self, tol: float = INVARIANT_TOL) -> "Vec":
        residual = abs(self.norm() ** 2 - 1.0)
        StructureReport("unit-norm", residual, tol).require("state vector must have unit squared norm")
        return self

    def __add__(self, other: "Vec") -> "Vec":
        _require_same_space(self.space, other.space, "vector sum")
        return Vec(self.space, self.components + other.components)

    def __sub__(self, other: "Vec") -> "Vec":
        _require_same_space(self.space, other.space, "vector difference")
        return Vec(self.space, self.components - other.components)

    def __mul__(self, scalar) -> "Vec":
        return Vec(self.space, self.components * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Vec":
        return Vec(self.space, -self.components)

    def __repr__(self) -> str:
        return f"Vec({self.space}, {np.array2string(self.components, precision=6)})"


@dataclass(frozen=True, eq=False)
class Op:
    """An immutable square operator with complex entries on a fixed space."""

    space: HilbertSpace
    entries: np.ndarray

    def __post_init__(self):
        d = self.space.dim
        object.__setattr__(self, "entries", _frozen_complex(self.entries, (d, d), "operator entries"))

    @classmethod
    def identity(cls, space: HilbertSpace) -> "Op":
        return cls(space, np.eye(space.dim, dtype=np.complex128))

    @classmethod
    def zero(cls, space: HilbertSpace) -> "Op":
        return cls(space, np.zeros((space.dim, space.dim), dtype=np.complex128))

    def dagger(self) -> "Op":
        return Op(self.space, self.entries.conj().T)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def allclose(self, other: "Op", tol: float = INVARIANT_TOL) -> bool:
        _require_same_space(self.space, other.space, "operator comparison")
        return cheb_norm(self.entries - other.entries) <= tol

    def __matmul__(self, other):
        if isinstance(other, Op):
            _require_same_space(self.space, other.space, "operator product")
            return Op(self.space, self.entries @ other.entries)
        if isinstance(other, Vec):
            _require_same_space(self.space, other.space, "operator application")
            return Vec(self.space, self.entries @ other.components)
        return NotImplemented

    def __add__(self, other: "Op") -> "Op":
        _require_same_space(self.space, other.space, "operator sum")
        return Op(self.space, self.entries + other.entries)

    def __sub__(self, other: "Op") -> "Op":
        _require_same_space(self.space, other.space, "operator difference")
        return Op(self.space, self.entries - other.entries)

    def __mul__(self, scalar) -> "Op":
        return Op(self.space, self.entries * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Op":
        return Op(self.space, self.entries / complex(scalar))

    def __neg__(self) -> "Op":
        return Op(self.space, -self.entries)

    def __repr__(self) -> str:
        return f"Op({self.space}, {np.array2string(self.entries, precision=6)})"


def commutator(a: Op, b: Op) -> Op:
    _require_same_space(a.space, b.space, "commutator")
    return Op(a.space, a.entries @ b.entries - b.entries @ a.entries)


def _product_space(*factors: HilbertSpace) -> HilbertSpace:
    # Flat join keeps labels associative, matching entrywise associativity
    # of the Kronecker product. ASCII so CLI output is locale-independent.
    # The product of one factor is that factor.
    if len(factors) == 1:
        return factors[0]
    return HilbertSpace(math.prod(f.dim for f in factors), "*".join(str(f) for f in factors))


@dataclass(frozen=True)
class CompositeSpace:
    """An ordered tensor factorization. The product space is derived with
    the same label rule as `tensor`, so factor-built and tensor-built
    values land on equal spaces."""

    factors: tuple[HilbertSpace, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("a composite space needs at least one factor")
        object.__setattr__(self, "factors", factors)

    @cached_property
    def space(self) -> HilbertSpace:
        return _product_space(*self.factors)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    def dim_before(self, index: int) -> int:
        return math.prod(f.dim for f in self.factors[:index])

    def dim_after(self, index: int) -> int:
        return math.prod(f.dim for f in self.factors[index + 1:])

    def factor_index(self, space: HilbertSpace) -> int:
        """Resolve the unique factor equal to `space`; ambiguity is an error."""
        hits = [i for i, f in enumerate(self.factors) if f == space]
        if not hits:
            raise SpaceMismatchError(f"space {space} is not a factor of {self.space}")
        if len(hits) > 1:
            raise SpaceMismatchError(f"space {space} appears {len(hits)} times in {self.space}; pass the factor index")
        return hits[0]


def tensor(a, b):
    """Kronecker product of two vectors or two operators (row-major:
    the first argument is the slow index)."""
    if isinstance(a, Vec) and isinstance(b, Vec):
        return Vec(_product_space(a.space, b.space), np.kron(a.components, b.components))
    if isinstance(a, Op) and isinstance(b, Op):
        return Op(_product_space(a.space, b.space), np.kron(a.entries, b.entries))
    raise TypeError("tensor expects two Vec or two Op arguments")


def partial_trace(m: Op, comp: CompositeSpace, keep: int | tuple[int, ...]) -> Op:
    """Trace out every factor of `comp` except `keep`.

    `keep` is one factor index, giving an operator on that factor, or an
    ordered tuple of distinct indices, giving an operator on the product
    of those factors in that order (the first is the slow index). The
    operator must live on exactly the composite's product space; anything
    else is a structural error, not a reshape guess.
    """
    if m.space != comp.space:
        raise SpaceMismatchError(
            f"operator on {m.space} (dim {m.space.dim}) does not match factorization {comp.space} (dim {comp.dim})"
        )
    n = len(comp.factors)
    kept = (keep,) if isinstance(keep, numbers.Integral) else tuple(keep)
    for k in kept:
        if not 0 <= k < n:
            raise ValueError(f"keep index {k} out of range for {n} factors")
    if not kept or len(set(kept)) != len(kept):
        raise ValueError(f"keep indices {kept} must be distinct and not empty")
    if kept == tuple(range(n)):
        return m  # nothing to trace out
    # One axis per factor of dim > 1; a factor of dim 1 carries no index.
    # The einsum labels axes by position: axis a's row label is a, and so is
    # its column label if its factor is traced out; the column labels of
    # kept factors follow the rows', in keep order.
    axes = [k for k, dim in enumerate(comp.dims) if dim > 1]
    rows = [axes.index(k) for k in kept if k in axes]
    cols = list(range(len(axes), len(axes) + len(rows)))
    column = list(range(len(axes)))
    for r, label in zip(rows, cols):
        column[r] = label
    size = math.prod(comp.dims[k] for k in kept)
    entries = m.entries.reshape([comp.dims[k] for k in axes] * 2)
    reduced = np.einsum(entries, list(range(len(axes))) + column, rows + cols).reshape(size, size)
    return Op(_product_space(*(comp.factors[k] for k in kept)), reduced)


STRUCTURE_KINDS = ("hermitian", "unitary", "projector", "psd")


@dataclass(frozen=True)
class StructureReport:
    """Outcome of a toleranced structural predicate."""

    kind: str
    residual: float
    tol: float

    def __post_init__(self):
        if not self.tol > 0:  # refuses NaN too
            raise ValueError(f"tolerance must be positive, got {self.tol}")

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def __bool__(self) -> bool:
        return self.passed

    def require(self, what: str, error: type[Exception] = StructureError) -> "StructureReport":
        """The report if it passed, else `error("{what}: residual R exceeds
        T")` carrying `.residual`. A NaN residual fails."""
        if not self.passed:
            exc = error(f"{what}: residual {self.residual:.3e} exceeds {self.tol:.0e}")
            exc.residual = self.residual
            raise exc
        return self


def structure_check(m: Op, kind: str, tol: float = INVARIANT_TOL) -> StructureReport:
    """Check a structural predicate and report its defining residual.

    Residuals (Chebyshev norm):
      hermitian  |m - m^dag|
      unitary    |m^dag m - I|
      projector  max(hermitian, |m^2 - m|)
      psd        max(hermitian, deficit of the smallest eigenvalue below 0)
    """
    if kind not in STRUCTURE_KINDS:
        raise ValueError(f"unknown structure kind {kind!r}, expected one of {STRUCTURE_KINDS}")
    a = m.entries
    with np.errstate(over="ignore"):  # a residual past the float range reads as the largest float
        herm = min(cheb_norm(a - a.conj().T), sys.float_info.max)
    if kind == "hermitian":
        residual = herm
    elif kind == "unitary":
        residual = cheb_norm(a.conj().T @ a - np.eye(m.space.dim))
    elif kind == "projector":
        residual = max(herm, cheb_norm(a @ a - a))
    else:
        residual = max(herm, _psd_deficit(a))
    return StructureReport(kind, residual, tol)


def _psd_deficit(a: np.ndarray) -> float:
    """How far the smallest eigenvalue of a's hermitian part lies below 0.
    A stack of square matrices is read as its block-diagonal sum, with one
    batched eigendecomposition. Entries whose real or imaginary part lies
    past 1 are scaled down first, so that a + a^dag cannot overflow; an
    operator that can pass has none. A deficit past the float range reads
    as the largest float."""
    s = max(1.0, cheb_norm(a.real), cheb_norm(a.imag))
    b = a / s
    deficit = max(0.0, -float(np.linalg.eigvalsh((b + b.conj().swapaxes(-1, -2)) / 2.0).min()))
    return min(deficit * s, sys.float_info.max)
