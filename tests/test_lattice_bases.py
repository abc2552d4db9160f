"""The lattice operations read bases; the projector formulas they replaced
are kept here as the reference.

`meet` was the eigenvalue-zero eigenspace of 2I - P_a - P_b at tol,
`orthocomplement` the eigenvalue-one eigenspace of I - P, `leq` the
residual |P_b P_a - P_a| and `equals` the residual |P_a - P_b|. Over
null, certain, rank-deficient and shared-direction pairs on dims 1 to 8,
the meet and the orthocomplement hold the reference projector within
1e-12, and `leq` and `equals` give the reference verdict wherever the
reference residual is far from tol. At D = 1024, `meet`, `leq` and
`equals` each peak below one D x D complex array, and
`from_basis_states` builds no identity.
"""

import tracemalloc

import numpy as np
import pytest

from qprob import Eventuality, HilbertSpace, SpaceMismatchError, StructureError, cheb_norm
from qprob.hilbert import INVARIANT_TOL

DIMS = range(1, 9)


def _p(e: Eventuality) -> np.ndarray:
    return e.basis_matrix @ e.basis_matrix.conj().T


def ref_meet(a: Eventuality, b: Eventuality, tol: float = INVARIANT_TOL) -> np.ndarray:
    w, v = np.linalg.eigh(2.0 * np.eye(a.space.dim) - _p(a) - _p(b))
    basis = v[:, w <= tol]
    return basis @ basis.conj().T


def ref_orthocomplement(a: Eventuality) -> np.ndarray:
    return np.eye(a.space.dim) - _p(a)


def ref_leq_residual(a: Eventuality, b: Eventuality) -> float:
    return cheb_norm(_p(b) @ _p(a) - _p(a))


def ref_equals_residual(a: Eventuality, b: Eventuality) -> float:
    return cheb_norm(_p(a) - _p(b))


def _vectors(rng: np.random.Generator, dim: int, count: int) -> list:
    return list(rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim)))


def _pairs(dim: int) -> list[tuple[Eventuality, Eventuality]]:
    """Null, certain, rank-deficient and shared-direction pairs on one
    space of dim, from a seed per dim."""
    rng = np.random.default_rng([2805, dim])
    space = HilbertSpace(dim, "h")
    null, certain = Eventuality.null(space), Eventuality.certain(space)
    pairs = [(null, null), (null, certain), (certain, certain)]
    for _ in range(6):
        # k shared directions plus extras of each side; past dim, the
        # count forces more intersection.
        k = int(rng.integers(0, dim + 1))
        shared = _vectors(rng, dim, k)
        a = Eventuality.from_span(space, shared + _vectors(rng, dim, int(rng.integers(0, dim - k + 1))))
        b = Eventuality.from_span(space, shared + _vectors(rng, dim, int(rng.integers(0, dim - k + 1))))
        # Rank-deficient spans: repeated and combined columns collapse.
        c = Eventuality.from_span(space, [*shared, *(2.0 * v for v in shared), sum(shared, np.zeros(dim))])
        pairs += [(a, b), (b, a), (a, null), (certain, a), (a, a), (c, a), (a, c), (a & b, a), (b, a | b)]
    return pairs


@pytest.mark.parametrize("dim", DIMS)
def test_meet_and_orthocomplement_hold_the_projector_reference(dim):
    for a, b in _pairs(dim):
        assert cheb_norm(_p(a.meet(b)) - ref_meet(a, b)) <= 1e-12
        assert cheb_norm(_p(a.orthocomplement()) - ref_orthocomplement(a)) <= 1e-12


@pytest.mark.parametrize("dim", DIMS)
def test_leq_and_equals_give_the_projector_verdict_away_from_tol(dim):
    compared = 0
    for a, b in _pairs(dim):
        for residual, verdict in ((ref_leq_residual(a, b), a.leq(b)), (ref_equals_residual(a, b), a.equals(b))):
            if not 1e-3 * INVARIANT_TOL < residual < 1e3 * INVARIANT_TOL:
                assert verdict == (residual <= INVARIANT_TOL), (a, b, residual)
                compared += 1
    assert compared >= len(_pairs(dim))


def test_binary_operations_refuse_another_space():
    on2, on3 = Eventuality.null(HilbertSpace(2, "h")), Eventuality.certain(HilbertSpace(3, "h"))
    for op in (Eventuality.meet, Eventuality.leq, Eventuality.equals):
        with pytest.raises(SpaceMismatchError, match="cannot be combined"):
            op(on2, on3)


def test_orthocomplement_refuses_a_basis_that_is_not_orthonormal():
    space = HilbertSpace(2, "h")
    skewed = Eventuality(space, np.array([[1.0], [1.0]]))
    with pytest.raises(StructureError, match=r"basis is not orthonormal: residual 1\.000e\+00 exceeds 1e-10"):
        skewed.orthocomplement()
    assert skewed.orthocomplement(tol=1.5).rank == 1


def test_from_basis_states_indexes_as_the_identity_columns_did():
    space = HilbertSpace(4, "h")
    for indices in ([], [2], [0, 3], [-1, 0], [3, 1, 3]):
        assert np.array_equal(Eventuality.from_basis_states(space, indices).basis_matrix, np.eye(4)[:, indices])
    with pytest.raises(IndexError):
        Eventuality.from_basis_states(space, [4])
    with pytest.raises(IndexError):
        Eventuality.from_basis_states(space, [-5])


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_from_basis_states_builds_no_identity():
    space = HilbertSpace(4096, "h")
    # The identity would be 256 MiB; the 4096 x 3 basis is 192 KiB.
    assert _peak_bytes(lambda: Eventuality.from_basis_states(space, [0, 7, -1])) < 2**20


def test_meet_leq_and_equals_peak_below_one_dense_array_at_1024():
    d, r, shared = 1024, 256, 128
    rng = np.random.default_rng(1024)
    q = np.linalg.qr(rng.normal(size=(d, 2 * r - shared)) + 1j * rng.normal(size=(d, 2 * r - shared)))[0]
    space = HilbertSpace(d, "h")
    a, b = Eventuality(space, q[:, :r]), Eventuality(space, q[:, r - shared : 2 * r - shared])
    dense = d * d * 16  # one D x D complex array, 16 MiB
    assert _peak_bytes(lambda: a.meet(b)) < dense
    assert _peak_bytes(lambda: a.leq(b)) < dense
    assert _peak_bytes(lambda: a.equals(b)) < dense
    assert a.meet(b).rank == shared
