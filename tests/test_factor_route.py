"""A pure state is held as its vector, never squared.

`ProbabilityOperator.pure` keeps psi as the factor F of P = F F^dag / s,
with s = 1, and the operators derived from a factored one keep theirs:
the posterior of `collapse` and of each branch is its branch vector
g = (I x V V^dag x I) psi over s = |g|^2, and `luder` keeps the branch
vectors side by side. The tables read the operator reduced to their
factors as M M^dag / s, with M being F reshaped. The dense route, P = psi
psi^dag held as a matrix, is kept here as the oracle: every primitive must
agree with it within 1e-12, on composites of one to three factors with
factors of dim 1, mixed-rank and null channels, with `comp=` and on lifted
observables. F F^dag / s, formed densely, must pass the checks that the
dense route runs on a matrix.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprob import (
    CompositeSpace,
    HilbertSpace,
    ProbabilityOperator,
    ZeroProbabilityError,
    born,
    branch_decompose,
    collapse,
    conditional,
    joint_matrix,
    lift,
    luder,
    reduce_composite,
)
from qprob.cli import main
from tests.helpers import json_pairs, rand_pure, rand_unitary
from tests.test_channel_bases import _refined


def _close(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


def _passes_the_dense_checks(op: ProbabilityOperator) -> None:
    """F F^dag / s, formed densely, passes the D x D checks, and the trace
    read on the factor is the one read on the matrix."""
    assert op.factor is not None
    dense = ProbabilityOperator(op.space, op.matrix)
    assert all(report.passed for report in dense.checks)
    assert op.checks[1].residual == pytest.approx(dense.checks[1].residual, abs=1e-14)


def _same_operator(pure: ProbabilityOperator, dense: ProbabilityOperator) -> None:
    _passes_the_dense_checks(pure)
    _close(pure.matrix.entries, dense.matrix.entries)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    null=st.booleans(),
    same_factor=st.booleans(),
    lifted=st.booleans(),
)
def test_the_factor_route_matches_the_dense_route(seed, dims, null, same_factor, lifted):
    rng = np.random.default_rng(seed)
    comp = CompositeSpace(tuple(HilbertSpace(d, f"f{k}") for k, d in enumerate(dims)))
    k = int(rng.integers(0, len(dims)))
    l = k if same_factor or len(dims) == 1 else int(rng.choice([j for j in range(len(dims)) if j != k]))
    rows, cols = _refined(rng, comp.factors[k], null)
    if l != k:
        cols = _refined(rng, comp.factors[l], not null)[0]
    kw = {} if lifted else {"comp": comp}
    if lifted:
        rows, cols = lift(rows, comp, k), lift(cols, comp, l)
    psi = rand_pure(rng, comp.space)
    pure = ProbabilityOperator.pure(psi)
    dense = ProbabilityOperator.from_entries(comp.space, np.outer(psi.components, psi.components.conj()))
    assert pure.factor is not None and dense.factor is None
    _same_operator(pure, dense)

    _close(born(pure, rows, **kw), born(dense, rows, **kw))
    _close(joint_matrix(pure, rows, cols, **kw).values, joint_matrix(dense, rows, cols, **kw).values)
    for f in range(len(dims)):
        _same_operator(reduce_composite(psi, comp, f), reduce_composite(dense, comp, f))

    for ch in rows.channels:
        try:
            want = conditional(dense, ch, cols, **kw)
        except ZeroProbabilityError:
            with pytest.raises(ZeroProbabilityError):
                conditional(pure, ch, cols, **kw)
            with pytest.raises(ZeroProbabilityError):
                collapse(pure, ch, **kw)
            continue
        _close(conditional(pure, ch, cols, **kw), want)
        got, expected = collapse(pure, ch, **kw), collapse(dense, ch, **kw)
        assert got.probability == pytest.approx(expected.probability, abs=1e-12)
        _same_operator(got.operator, expected.operator)
        _close(born(got.operator, cols, **kw), born(expected.operator, cols, **kw))

    decohered = luder(pure, rows, **kw), luder(dense, rows, **kw)
    _same_operator(*decohered)
    _close(*(born(op, cols, **kw) for op in decohered))
    _close(*(joint_matrix(op, rows, cols, **kw).values for op in decohered))
    live = [ch for ch, p in zip(rows.channels, born(dense, rows, **kw)) if p > 1e-6]
    _close(*(conditional(op, live[0], cols, **kw) for op in decohered))

    got, expected = branch_decompose(psi, rows, **kw), branch_decompose(dense, rows, **kw)
    _close(got.probabilities, expected.probabilities)
    assert got.zero_channels == expected.zero_channels
    for a, b in zip(got.posteriors, expected.posteriors):
        assert (a is None) == (b is None)
        if a is not None:
            _same_operator(a, b)
    _close(sum(v.components for v in got.branch_vectors), psi.components)


def _pure_composite(path, n: int) -> None:
    """A pure state on an n x n composite: a standard basis on factor a, a
    random-unitary basis on factor b, and an observer of each."""
    rng = np.random.default_rng(n)
    psi = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    eye, u = np.eye(n), rand_unitary(rng, n)

    def channels(basis, name):
        return [{"label": f"{name}{k}", "vectors": [json_pairs(basis[:, k])]} for k in range(n)]

    doc = {
        "name": f"pure-{n}x{n}",
        "kind": "quantum",
        "spaces": [{"id": "a", "dim": n}, {"id": "b", "dim": n}],
        "composite": ["a", "b"],
        "state": {"kind": "pure", "vector": json_pairs(psi / np.linalg.norm(psi))},
        "observables": [
            {"id": "a-std", "space": "a", "channels": channels(eye, "a")},
            {"id": "b-rot", "space": "b", "channels": channels(u, "b")},
        ],
        "observers": [
            {"id": "observer-a", "observable": "a-std", "lifetime": 1.0, "perception_duration": 1.0},
            {"id": "observer-b", "observable": "b-rot", "lifetime": 2.0, "perception_duration": 0.5},
        ],
        "weighting": {"scheme": "entropic", "log_base": 2},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("command", ["gross", "joint", "conditional", "net"])
def test_pure_state_tables_allocate_no_square_array(command, tmp_path, capsys):
    # D = 1024: one D x D complex array is 16 MiB, and the whole request,
    # loading included, stays under an eighth of that.
    path = tmp_path / "pure.json"
    _pure_composite(path, 32)
    tracemalloc.start()
    try:
        code = main([command, "--scenario", str(path), "--format", "csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out
    assert peak < 1024 * 1024 * 16 // 8
