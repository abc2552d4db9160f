"""Derived operators are checked on their compressed blocks.

A `collapse` or `branch_decompose` posterior is W X W^dag, and a `luder`
output a sum of such lifts onto orthogonal ranges, so its spectrum is
that of the compressed blocks X padded with zeros (Nielsen & Chuang,
section 2.2.5); a diagonal state's spectrum is its weights.
`ProbabilityOperator` reads the PSD check there, and the hermitian
residual and the trace on the D x D matrix. These tests pin that no D x D
eigendecomposition runs on those paths, that the block residual is the
D x D one, and that a block below -PSD_TOL is refused as the D x D check
refused it.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprob import (
    PSD_TOL,
    CompositeSpace,
    Eventuality,
    HilbertSpace,
    Observable,
    Op,
    ProbabilityOperator,
    StructureError,
    branch_decompose,
    cheb_norm,
    collapse,
    lift,
    load_file,
    luder,
)
from qprob.cli import Options, run_command
from qprob.hilbert import _psd_deficit
from tests.helpers import json_pairs, rand_density, rand_unitary

# The magnified state of test_engine and test_cli: its smallest
# eigenvalue, -5e-11, passes the load check; divided by the probability
# 1e-11 of basis states 1 and 2 it becomes -5.
MAGNIFIED = [1 - 1e-11, 6e-11, -5e-11]


def _observable(space: HilbertSpace, u: np.ndarray, ranks) -> Observable:
    """Channels spanning consecutive runs of u's columns, of the given ranks."""
    cuts = np.cumsum([0, *ranks])
    return Observable(space, tuple(Eventuality(space, u[:, a:b]) for a, b in zip(cuts, cuts[1:])))


def _lifted_deficit(op: np.ndarray) -> float:
    # The D x D route: largest anti-hermitian entry or eigenvalue deficit.
    return max(cheb_norm(op - op.conj().T), _psd_deficit(op))


def test_diagonal_checks_equal_the_full_eigendecomposition():
    rng = np.random.default_rng(15)
    for case in range(60):
        dim = int(rng.integers(1, 300))
        w = rng.random(dim)
        w /= w.sum()
        if case % 3 == 0:  # a negative weight within PSD_TOL
            w[rng.integers(dim)] = -rng.random() * PSD_TOL
            w /= w.sum()
        state = ProbabilityOperator.diagonal(HilbertSpace(dim), w)
        assert state.checks[2].residual == _psd_deficit(np.diag(w.astype(np.complex128))), case


def _spy(monkeypatch) -> list[tuple[int, ...]]:
    shapes: list[tuple[int, ...]] = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


def test_no_full_eigendecomposition_in_collapse_luder_or_branches(monkeypatch):
    rng = np.random.default_rng(7)
    factors = (HilbertSpace(3, "a"), HilbertSpace(4, "b"))
    comp = CompositeSpace(factors)
    big = comp.space.dim
    state = ProbabilityOperator.from_entries(comp.space, rand_density(rng, big))
    u = rand_unitary(rng, 4)
    shapes = _spy(monkeypatch)
    for ranks in ((1, 1, 1, 1), (2, 1, 1)):
        obs = _observable(factors[1], u, ranks)
        for on, where in ((obs, comp), (lift(obs, comp), None)):
            collapse(state, on.channels[0], comp=where)
            luder(state, on, comp=where)
            branch_decompose(state, on, comp=where)
    assert shapes, "the spy saw no eigendecomposition"
    assert all(shape[-2:] != (big, big) for shape in shapes), shapes


def test_no_full_eigendecomposition_in_the_commands(monkeypatch, tmp_path):
    rng = np.random.default_rng(8)
    u = rand_unitary(rng, 4)
    doc = {
        "name": "blocks",
        "spaces": [{"id": "a", "dim": 3}, {"id": "b", "dim": 4}],
        "composite": ["a", "b"],
        "state": {"kind": "density", "matrix": [json_pairs(row) for row in rand_density(rng, 12)]},
        "observables": [{
            "id": "b-rot",
            "space": "b",
            "channels": [{"label": f"b{k}", "vectors": [json_pairs(u[:, k])]} for k in range(4)],
        }],
    }
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    scn = load_file(path)
    shapes = _spy(monkeypatch)
    for command, opts in (("collapse", Options(on="b-rot:b1")), ("luder", Options(obs="b-rot")),
                          ("branches", Options(obs="b-rot"))):
        run_command(command, scn, opts)
    assert shapes and all(shape[-2:] != (12, 12) for shape in shapes), shapes


def test_magnified_block_is_refused_with_the_full_residual():
    h3 = HilbertSpace(3)
    state = ProbabilityOperator.diagonal(h3, MAGNIFIED)
    obs = Observable(h3, (Eventuality.from_basis_states(h3, [0]), Eventuality.from_basis_states(h3, [1, 2])))
    tail = obs.channels[1].projector.entries
    p = 1e-11
    with pytest.raises(StructureError, match="positive semidefinite") as err:
        branch_decompose(state, obs)
    assert err.value.residual == pytest.approx(_lifted_deficit(tail @ state.matrix.entries @ tail / p), abs=1e-12)
    # Lüders decoherence divides by nothing: its -5e-11 stays within
    # PSD_TOL, and the block residual is the D x D one.
    decohered = luder(state, obs)
    assert decohered.checks[2].residual == pytest.approx(_lifted_deficit(decohered.matrix.entries), abs=1e-12)


def test_a_block_below_tolerance_is_refused_however_the_matrix_reads():
    # The blocks, not the matrix, carry the spectrum of a derived operator.
    h2 = HilbertSpace(2)
    with pytest.raises(StructureError, match="positive semidefinite: residual 5.000e-01") as err:
        ProbabilityOperator(h2, Op(h2, np.diag([0.5, 0.5]).astype(complex)), (np.array([[1.5]]), np.array([[-0.5]])))
    assert err.value.residual == 0.5


def _differential_case(seed: int, dims: tuple[int, ...], dip: float, mixed: bool, aligned: bool):
    """A state on the composite of `dims` with one eigenvalue -dip, within
    PSD_TOL, and an observable on one factor with rank-1 channels (mixed:
    the first of rank 2). An aligned state commutes with the channels and
    holds its -dip in the first one, whose weights are scaled by 1/100, so
    that its posterior magnifies the dip past PSD_TOL unless dip is 0."""
    rng = np.random.default_rng([seed, *dims])
    factors = tuple(HilbertSpace(n, f"f{k}") for k, n in enumerate(dims))
    comp = CompositeSpace(factors)
    big = comp.space.dim
    k = int(rng.integers(len(dims)))
    n = dims[k]
    obs = _observable(factors[k], rand_unitary(rng, n), (2,) + (1,) * (n - 2) if mixed else (1,) * n)
    if aligned:
        ranges = [_lifted(comp, k, ch.basis_matrix) for ch in obs.channels]
        v = np.hstack([w @ rand_unitary(rng, w.shape[1]) for w in ranges])
        scale = np.repeat([0.01] + [1.0] * (len(ranges) - 1), [w.shape[1] for w in ranges])
    else:
        v, scale = rand_unitary(rng, big), 1.0
    weights = (rng.random(big) + 0.05) * scale
    weights[0] = 0.0
    weights /= weights.sum()
    weights[0] = -dip
    return ProbabilityOperator.from_entries(comp.space, (v * weights) @ v.conj().T), comp, k, obs


def _lifted(comp: CompositeSpace, k: int, a: np.ndarray) -> np.ndarray:
    """I x a x I, with a on factor k."""
    return np.kron(np.kron(np.eye(comp.dim_before(k)), a), np.eye(comp.dim_after(k)))


def _agree(make, lifted: np.ndarray) -> None:
    """make() is refused exactly when the D x D check of `lifted` refuses,
    away from the tolerance, with the same residual within 1e-12."""
    want = _lifted_deficit(lifted)
    try:
        refused, residual = False, make().checks[2].residual
    except StructureError as exc:
        refused, residual = True, exc.residual
    assert residual == pytest.approx(want, abs=1e-12)
    if abs(want - PSD_TOL) > 1e-12:
        assert refused == (want > PSD_TOL)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(2, 4), min_size=2, max_size=3).map(tuple),
    dip=st.sampled_from([0.0, 1e-11, 5e-11, 9e-11]),
    mixed=st.booleans(),
    aligned=st.booleans(),
)
def test_block_residual_matches_the_lifted_one(seed, dims, dip, mixed, aligned):
    state, comp, k, obs = _differential_case(seed, dims, dip, mixed, aligned)
    rho = state.matrix.entries
    sandwiches = [e @ rho @ e for e in (_lifted(comp, k, ch.projector.entries) for ch in obs.channels)]
    probs = [float(np.trace(s).real) for s in sandwiches]
    _agree(lambda: luder(state, obs, comp=comp), sum(sandwiches))
    for ch, sandwich, p in zip(obs.channels, sandwiches, probs):
        if p >= 1e-3:  # rounding in the reference, divided by p, stays below 1e-12
            _agree(lambda: collapse(state, ch, comp=comp).operator, sandwich / p)
    if min(probs) < 1e-3:
        return
    wants = [_lifted_deficit(s / p) for s, p in zip(sandwiches, probs)]
    failing = [w for w in wants if w > PSD_TOL]
    try:
        bd = branch_decompose(state, obs, comp=comp)
    except StructureError as exc:  # the first posterior that fails names its residual
        assert failing and exc.residual == pytest.approx(failing[0], abs=1e-12)
    else:
        assert all(w <= PSD_TOL + 1e-12 for w in wants)
        for posterior, want in zip(bd.posteriors, wants):
            assert posterior.checks[2].residual == pytest.approx(want, abs=1e-12)
