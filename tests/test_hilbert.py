import sys

import numpy as np
import pytest

from qprob import (
    CompositeSpace,
    HilbertSpace,
    Op,
    SpaceMismatchError,
    StructureError,
    Vec,
    cheb_norm,
    commutator,
    partial_trace,
    structure_check,
    tensor,
)
from tests.helpers import rand_density, rand_unitary

S2 = HilbertSpace(2, "spin")
S3 = HilbertSpace(3, "qutrit")

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_space_identity():
    assert HilbertSpace(2, "spin") == HilbertSpace(2, "spin")
    assert HilbertSpace(2, "a") != HilbertSpace(2, "b")
    assert str(HilbertSpace(3)) == "H3"
    assert str(S2) == "spin"


def test_space_rejects_bad_dim():
    with pytest.raises(ValueError):
        HilbertSpace(0)
    with pytest.raises(ValueError):
        HilbertSpace(-1)


def test_vec_basis_and_norm():
    v = Vec.basis(S3, 1)
    assert v.norm() == 1.0
    assert v.components[1] == 1.0
    assert v.components[0] == 0.0
    with pytest.raises(ValueError):
        Vec.basis(S3, 3)


def test_vec_components_frozen():
    v = Vec.basis(S2, 0)
    with pytest.raises(ValueError):
        v.components[0] = 5.0


def test_inner_conjugate_linear_in_first():
    u = Vec(S2, [1, 0])
    w = Vec(S2, [0, 1j])
    # <u + i w | w> = -i <w|w> contribution conjugated on the left slot
    assert Vec(S2, [0, 1]).inner(w) == 1j
    assert w.inner(Vec(S2, [0, 1])) == -1j
    assert u.inner(u) == 1.0


def test_outer_product_entries():
    u = Vec(S2, [1, 0])
    w = Vec(S2, [0, 1j])
    p = u.outer(w)
    assert p.entries[0, 1] == -1j  # conjugation lands on the bra side
    assert p.entries[1, 0] == 0.0


def test_vector_arithmetic_and_space_guard():
    a = Vec.basis(S2, 0)
    b = Vec.basis(S2, 1)
    c = 2.0 * a + b * 1j - a
    assert c.components[0] == 1.0
    assert c.components[1] == 1j
    with pytest.raises(SpaceMismatchError):
        a + Vec.basis(HilbertSpace(2, "other"), 0)
    with pytest.raises(SpaceMismatchError):
        a.inner(Vec.basis(S3, 0))


def test_require_unit():
    Vec(S2, [1, 0]).require_unit()
    with pytest.raises(StructureError) as err:
        Vec(S2, [1, 1]).require_unit()
    assert err.value.residual == pytest.approx(1.0)


def test_op_algebra():
    x = Op(S2, PAULI_X)
    z = Op(S2, PAULI_Z)
    assert (x @ x).allclose(Op.identity(S2))
    assert (x + z).entries[0, 0] == 1.0
    assert (x @ Vec.basis(S2, 0)).components[1] == 1.0
    assert x.dagger().allclose(x)
    assert Op.identity(S3).trace() == 3.0
    assert (x / 2.0).entries[0, 1] == 0.5
    assert (-x).entries[0, 1] == -1.0


def test_commutator_pauli():
    x = Op(S2, PAULI_X)
    z = Op(S2, PAULI_Z)
    c = commutator(x, z)
    assert cheb_norm(c.entries - (-2j) * PAULI_Y) == 0.0
    assert commutator(x, x).allclose(Op.zero(S2))


def test_cheb_norm_values():
    assert cheb_norm(np.array([[0, -3.0], [1.0, 0]])) == 3.0
    assert cheb_norm(np.array([])) == 0.0
    assert cheb_norm(np.array([1j])) == 1.0


def test_tensor_row_major_convention():
    # first factor is the slow index: (A kron B)[i*p+k, j*q+l] = A[i,j] B[k,l]
    a = Op(S2, [[0, 1], [0, 0]])
    b = Op(S2, np.eye(2))
    t = tensor(a, b)
    assert t.space.dim == 4
    assert t.entries[0, 2] == 1.0
    assert t.entries[1, 3] == 1.0
    assert t.entries[2, 0] == 0.0


def test_tensor_vectors_and_label():
    u = Vec.basis(S2, 1)
    w = Vec.basis(S3, 0)
    t = tensor(u, w)
    assert t.space.dim == 6
    assert t.space.label == "spin*qutrit"
    assert t.components[3] == 1.0  # index 1*3 + 0


def test_tensor_type_guard():
    with pytest.raises(TypeError):
        tensor(Vec.basis(S2, 0), Op.identity(S2))


def test_composite_space_bookkeeping():
    comp = CompositeSpace((HilbertSpace(2, "a"), HilbertSpace(3, "b"), HilbertSpace(4, "c")))
    assert comp.dim == 24
    assert comp.dims == (2, 3, 4)
    assert comp.dim_before(1) == 2
    assert comp.dim_after(1) == 4
    assert comp.space.label == "a*b*c"
    assert comp.factor_index(HilbertSpace(3, "b")) == 1
    with pytest.raises(SpaceMismatchError):
        comp.factor_index(HilbertSpace(5, "d"))


def test_composite_space_matches_tensor_label():
    comp = CompositeSpace((S2, S3))
    assert comp.space == tensor(Op.identity(S2), Op.identity(S3)).space


def test_composite_repeated_factor_is_ambiguous():
    comp = CompositeSpace((S2, S2))
    with pytest.raises(SpaceMismatchError):
        comp.factor_index(S2)


def test_partial_trace_product_state():
    rho_a = np.diag([0.25, 0.75]).astype(complex)
    rho_b = np.diag([0.1, 0.2, 0.7]).astype(complex)
    comp = CompositeSpace((S2, S3))
    m = tensor(Op(S2, rho_a), Op(S3, rho_b))
    left = partial_trace(Op(comp.space, m.entries), comp, 0)
    right = partial_trace(Op(comp.space, m.entries), comp, 1)
    assert cheb_norm(left.entries - rho_a) < 1e-14
    assert cheb_norm(right.entries - rho_b) < 1e-14
    assert left.space == S2
    assert right.space == S3


def test_partial_trace_bell_state():
    comp = CompositeSpace((S2, HilbertSpace(2, "twin")))
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = Op(comp.space, np.outer(psi, psi.conj()))
    reduced = partial_trace(rho, comp, 0)
    assert cheb_norm(reduced.entries - np.eye(2) / 2) < 1e-14


def _partial_trace_oracle(entries, dims, keep):
    # direct double-index summation, no einsum; `keep` is one factor index
    # or an ordered tuple of them, the first the slow index
    import itertools

    kept = (keep,) if isinstance(keep, int) else tuple(keep)
    other = [k for k in range(len(dims)) if k not in kept]
    kept_indices = list(itertools.product(*(range(dims[k]) for k in kept)))
    out = np.zeros((len(kept_indices), len(kept_indices)), dtype=complex)
    boxed = entries.reshape(tuple(dims) + tuple(dims))
    for i, row_kept in enumerate(kept_indices):
        for j, col_kept in enumerate(kept_indices):
            for idx in itertools.product(*(range(dims[k]) for k in other)):
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, k in enumerate(other):
                    row[k] = idx[pos]
                    col[k] = idx[pos]
                for pos, k in enumerate(kept):
                    row[k] = row_kept[pos]
                    col[k] = col_kept[pos]
                out[i, j] += boxed[tuple(row) + tuple(col)]
    return out


def test_partial_trace_against_summation_oracle():
    rng = np.random.default_rng(20240817)
    for dims in [(2, 2), (2, 3), (3, 2), (2, 2, 3)]:
        comp = CompositeSpace(tuple(HilbertSpace(d, f"f{k}") for k, d in enumerate(dims)))
        m = Op(comp.space, rand_density(rng, comp.dim))
        for keep in range(len(dims)):
            got = partial_trace(m, comp, keep)
            want = _partial_trace_oracle(m.entries, dims, keep)
            assert cheb_norm(got.entries - want) < 1e-12


def test_partial_trace_of_more_factors_than_letters():
    # 28 factors, 26 of them of dim 1: each traced-out run is one einsum
    # axis, and the kept factors in order are one more.
    rng = np.random.default_rng(28)
    comp = CompositeSpace((S2, *(HilbertSpace(1, f"u{k}") for k in range(26)), S3))
    m = Op(comp.space, rand_density(rng, comp.dim))
    for keep in (0, 27):
        assert cheb_norm(partial_trace(m, comp, keep).entries - _partial_trace_oracle(m.entries, comp.dims, keep)) < 1e-12
    assert cheb_norm(partial_trace(m, comp, tuple(range(28))).entries - m.entries) == 0.0


def test_partial_trace_keeps_every_other_of_27_factors():
    # 27 runs of one factor each, more than there are letters for einsum
    # axes; the kept factors come back in the order keep names them.
    rng = np.random.default_rng(27)
    dims = (2, 2, 3, 2) + (1,) * 23
    comp = CompositeSpace(tuple(HilbertSpace(d, f"f{k}") for k, d in enumerate(dims)))
    m = Op(comp.space, rand_density(rng, comp.dim))
    for keep in (tuple(range(0, 27, 2)), tuple(range(26, -1, -2))):
        got = partial_trace(m, comp, keep)
        assert cheb_norm(got.entries - _partial_trace_oracle(m.entries, dims, keep)) < 1e-12


def test_partial_trace_past_numpys_einsum_limits_is_a_named_error():
    # The operator's view has a row and a column axis per run, and the
    # einsum a label per axis, shared by the two axes of a traced-out run:
    # 32 runs fit numpy's 64 axes and 52 labels; 33 runs need 66 axes, and
    # 27 runs all kept need 54 labels.
    def trace(n, keep):
        comp = CompositeSpace(tuple(HilbertSpace(1, f"u{k}") for k in range(n)))
        return partial_trace(Op(comp.space, np.array([[0.5]])), comp, keep)

    assert trace(32, tuple(range(0, 32, 2))).entries.tolist() == [[0.5]]
    for n, keep, runs in ((33, tuple(range(0, 33, 2)), "33 runs, 17"), (27, tuple(range(26, -1, -1)), "27 runs, 27")):
        with pytest.raises(ValueError, match=f"{runs} of them kept; numpy's einsum takes at most 64 axes and 52 labels"):
            trace(n, keep)


def test_partial_trace_keeps_an_ordered_tuple_of_factors():
    # tr_B(A x B x C), kept in the order (C, A), is tr(B) C x A.
    rng = np.random.default_rng(7)
    spaces = (HilbertSpace(2, "f0"), HilbertSpace(3, "f1"), HilbertSpace(2, "f2"))
    a, b, c = (Op(s, rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))) for s in spaces)
    comp = CompositeSpace(spaces)
    m = Op(comp.space, tensor(tensor(a, b), c).entries)
    got = partial_trace(m, comp, (2, 0))
    want = tensor(c, a) * b.trace()
    assert got.space == want.space
    assert cheb_norm(got.entries - want.entries) < 1e-12
    assert cheb_norm(partial_trace(m, comp, (0, 1, 2)).entries - m.entries) == 0.0
    single = partial_trace(m, comp, (1,))
    assert single.space == spaces[1]
    assert cheb_norm(single.entries - partial_trace(m, comp, 1).entries) == 0.0
    numpy_index = partial_trace(m, comp, np.int64(1))  # e.g. from np.argmax
    assert numpy_index.space == spaces[1]
    assert cheb_norm(numpy_index.entries - single.entries) == 0.0


def test_partial_trace_requires_matching_space():
    comp = CompositeSpace((S2, S3))
    with pytest.raises(SpaceMismatchError):
        partial_trace(Op.identity(HilbertSpace(6, "flat")), comp, 0)
    with pytest.raises(ValueError):
        partial_trace(Op.identity(comp.space), comp, 2)
    for keep in ((0, 2), (1, 1), ()):
        with pytest.raises(ValueError):
            partial_trace(Op.identity(comp.space), comp, keep)


def test_structure_check_hermitian():
    ok = structure_check(Op(S2, PAULI_X), "hermitian")
    assert ok.passed and bool(ok)
    assert ok.residual == 0.0
    bad = structure_check(Op(S2, [[0, 0.3], [0, 0]]), "hermitian")
    assert not bad.passed
    assert bad.residual == pytest.approx(0.3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hermitian_residual_past_the_float_range_reads_as_the_largest_float():
    # 1.7e308 - (-1.7e308) overflows; the residual is still a finite number.
    report = structure_check(Op(S2, [[0.5, 1.7e308], [-1.7e308, 0.5]]), "hermitian")
    assert report.residual == sys.float_info.max
    assert not report.passed


def test_structure_check_unitary():
    rng = np.random.default_rng(7)
    u = Op(S3, rand_unitary(rng, 3))
    assert structure_check(u, "unitary").passed
    assert not structure_check(Op(S2, [[1, 0], [0, 0.5]]), "unitary").passed


def test_structure_check_projector():
    p = Op(S2, [[1, 0], [0, 0]])
    assert structure_check(p, "projector").passed
    half = structure_check(Op(S2, np.eye(2) * 0.5), "projector")
    assert half.residual == pytest.approx(0.25)  # m^2 - m = -I/4


def test_structure_check_psd():
    assert structure_check(Op(S2, np.diag([0.5, 0.5]).astype(complex)), "psd").passed
    neg = structure_check(Op(S2, np.diag([1.0, -0.2]).astype(complex)), "psd")
    assert neg.residual == pytest.approx(0.2)


def test_structure_check_guards():
    with pytest.raises(ValueError):
        structure_check(Op.identity(S2), "positive")
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match=f"tolerance must be positive, got {tol}"):
            structure_check(Op.identity(S2), "hermitian", tol=tol)


def test_structure_tolerance_monotone():
    m = Op(S2, [[1, 1e-9], [0, 1]])
    assert not structure_check(m, "hermitian", 1e-10).passed
    assert structure_check(m, "hermitian", 1e-8).passed
