"""Identities of the calculus, under property tests (Nielsen & Chuang,
sections 2.2.5 and 2.4.3).

Hypothesis draws composites of one to three factors with dims 1 to 4, an
observable of mixed ranks, possibly holding a null channel, on any factor
of them, and a pure, dense, diagonal or rank-deficient state. Each
identity is read through `comp=` and on the observable lifted onto the
composite, and holds within 1e-12:

- no-signalling: decohering over an observable on factor k leaves the
  operator reduced to the other factors as it was;
- a posterior gives its conditioning channel probability 1;
- `luder` is idempotent and keeps every channel probability.

The two row layouts that every factor-local computation shares hold
against index-by-index references: `CompositeSpace.on_factor` against the
Kronecker product (I x a x I) f, for any a, one of no rows included, and
on factors of dim 1; `CompositeSpace.grouped` against the grouping of each
entry's composite index.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qprob import CompositeSpace, HilbertSpace, ProbabilityOperator, born, collapse, lift, luder, partial_trace
from tests.helpers import rand_density, rand_pure
from tests.test_channel_bases import _refined

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

KINDS = ("pure", "dense", "diagonal", "deficient")
DIMS = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)
IDENTITIES = settings(derandomize=True, max_examples=200, deadline=None)


def _close(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12


def _state(rng, space: HilbertSpace, kind: str) -> ProbabilityOperator:
    if kind == "pure":
        return ProbabilityOperator.pure(rand_pure(rng, space))
    if kind == "dense":
        return ProbabilityOperator.from_entries(space, rand_density(rng, space.dim))
    if kind == "diagonal":  # some weights exactly zero
        w = rng.random(space.dim) * (rng.random(space.dim) < 0.7)
        w[int(rng.integers(0, space.dim))] += 1.0
        return ProbabilityOperator.diagonal(space, w / w.sum())
    shape = (space.dim, max(1, space.dim // 2))  # rank D // 2
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m = a @ a.conj().T
    return ProbabilityOperator.from_entries(space, m / np.trace(m).real)


def _case(seed: int, dims: tuple[int, ...], k: int, kind: str, lifted: bool):
    """A composite, the factor k of it (taken modulo the factor count), a
    state on it, an observable on factor k, lifted or not, and the keyword
    arguments that read it."""
    rng = np.random.default_rng(seed)
    comp = CompositeSpace(tuple(HilbertSpace(d, f"f{j}") for j, d in enumerate(dims)))
    k %= len(dims)
    obs = _refined(rng, comp.factors[k], bool(rng.random() < 0.3))[0]
    if lifted:
        return comp, k, _state(rng, comp.space, kind), lift(obs, comp, k), {}
    return comp, k, _state(rng, comp.space, kind), obs, {"comp": comp}


CASES = dict(seed=st.integers(0, 2**32 - 1), dims=DIMS, k=st.integers(0, 2), kind=st.sampled_from(KINDS),
             lifted=st.booleans())


@IDENTITIES
@given(**CASES)
@example(seed=3, dims=(2, 3, 2), k=1, kind="deficient", lifted=False)  # the middle of three factors
def test_decohering_on_one_factor_does_not_signal_to_the_others(seed, dims, k, kind, lifted):
    comp, k, prob, obs, kw = _case(seed, dims, k, kind, lifted)
    others = tuple(j for j in range(len(dims)) if j != k)
    if not others:
        return
    decohered = luder(prob, obs, **kw)
    _close(partial_trace(decohered.matrix, comp, others).entries, partial_trace(prob.matrix, comp, others).entries)


@IDENTITIES
@given(**CASES)
@example(seed=3, dims=(2, 3, 2), k=1, kind="pure", lifted=True)
def test_a_posterior_gives_its_channel_probability_one(seed, dims, k, kind, lifted):
    _, _, prob, obs, kw = _case(seed, dims, k, kind, lifted)
    for e, p in zip(obs.channels, born(prob, obs, **kw)):
        if p > 1e-6:  # below, the division by p magnifies the state's own rounding
            _close(born(collapse(prob, e, **kw).operator, e, **kw), 1.0)


@IDENTITIES
@given(**CASES)
@example(seed=3, dims=(2, 3, 2), k=1, kind="dense", lifted=False)
def test_luder_is_idempotent_and_keeps_every_channel_probability(seed, dims, k, kind, lifted):
    _, _, prob, obs, kw = _case(seed, dims, k, kind, lifted)
    once = luder(prob, obs, **kw)
    _close(luder(once, obs, **kw).matrix.entries, once.matrix.entries)
    _close(born(once, obs, **kw), born(prob, obs, **kw))


@IDENTITIES
@given(seed=st.integers(0, 2**32 - 1), dims=DIMS, k=st.integers(0, 2), rows=st.integers(0, 4), cols=st.integers(0, 3))
@example(seed=0, dims=(2, 1, 3), k=1, rows=0, cols=2)  # a of no rows, on a factor of dim 1
def test_on_factor_is_the_kronecker_product(seed, dims, k, rows, cols):
    rng = np.random.default_rng(seed)
    comp = CompositeSpace(tuple(HilbertSpace(d) for d in dims))
    k %= len(dims)
    a = rng.normal(size=(rows, dims[k])) + 1j * rng.normal(size=(rows, dims[k]))
    f = rng.normal(size=(comp.dim, cols)) + 1j * rng.normal(size=(comp.dim, cols))
    want = np.kron(np.kron(np.eye(comp.dim_before(k)), a), np.eye(comp.dim_after(k))) @ f
    _close(comp.on_factor(k, a, f), want)


@IDENTITIES
@given(seed=st.integers(0, 2**32 - 1), dims=DIMS, cols=st.integers(1, 3), order=st.permutations(range(3)),
       count=st.integers(1, 3))
def test_grouped_moves_each_entry_to_its_kept_and_other_indices(seed, dims, cols, order, count):
    rng = np.random.default_rng(seed)
    comp = CompositeSpace(tuple(HilbertSpace(d) for d in dims))
    keep = tuple(j for j in order if j < len(dims))[:count]
    f = rng.normal(size=(comp.dim, cols)) + 1j * rng.normal(size=(comp.dim, cols))
    others = [j for j in range(len(dims)) if j not in keep]
    size = int(np.prod([dims[j] for j in keep]))
    want = np.zeros((size, comp.dim // size * cols), complex)
    for index in itertools.product(*(range(d) for d in dims)):
        row = np.ravel_multi_index([index[j] for j in keep], [dims[j] for j in keep])
        for c in range(cols):
            col = np.ravel_multi_index([index[j] for j in others] + [c], [dims[j] for j in others] + [cols])
            want[row, col] = f[np.ravel_multi_index(index, dims), c]
    got = comp.grouped(f, keep)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
