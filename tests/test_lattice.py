import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprob import (
    ClassicalModel,
    Eventuality,
    HilbertSpace,
    Op,
    SpaceMismatchError,
    StructureError,
    Vec,
    cheb_norm,
)
from tests.helpers import rand_pure, rand_subspace

S2 = HilbertSpace(2, "spin")
S4 = HilbertSpace(4, "pair")

KET0 = Vec(S2, [1, 0])
KET1 = Vec(S2, [0, 1])
PLUS = Vec(S2, np.array([1, 1]) / np.sqrt(2))


def test_from_span_drops_dependent_vectors():
    e = Eventuality.from_span(S2, [KET0, 2.0 * KET0])
    assert e.rank == 1
    assert cheb_norm(e.projector.entries - np.diag([1.0, 0])) < 1e-12


@pytest.mark.parametrize("entry", [1e308, 1e155, -1e200j])
def test_from_span_rejects_an_overflowing_norm(entry):
    # Its norm is inf, so the direction would be lost as a null residual.
    with pytest.raises(ValueError, match="norm overflows a float"):
        Eventuality.from_span(S2, [KET1, Vec(S2, [entry, 0])])


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf), complex(np.nan, 1)])
def test_from_span_names_a_non_finite_component(entry):
    # A NaN norm is not an overflow: the component itself is the fault.
    with pytest.raises(ValueError, match="spanning vector has a non-finite component"):
        Eventuality.from_span(S2, [KET1, [entry, 0]])


def test_from_basis_states_projector():
    e = Eventuality.from_basis_states(S4, [0, 3])
    assert e.rank == 2
    assert cheb_norm(e.projector.entries - np.diag([1.0, 0, 0, 1.0])) == 0.0


def test_null_and_certain():
    n = Eventuality.null(S2)
    c = Eventuality.certain(S2)
    assert n.is_null and n.rank == 0
    assert c.is_certain and c.rank == 2
    assert cheb_norm(n.projector.entries) == 0.0
    assert cheb_norm(c.projector.entries - np.eye(2)) == 0.0


def test_from_projector_roundtrip():
    e = Eventuality.from_span(S2, [PLUS])
    back = Eventuality.from_projector(e.projector)
    assert back.equals(e)
    with pytest.raises(StructureError):
        Eventuality.from_projector(Op(S2, np.diag([0.5, 0.5]).astype(complex)))


def test_projector_is_idempotent_hermitian():
    rng = np.random.default_rng(11)
    for _ in range(20):
        e = rand_subspace(rng, S4, int(rng.integers(1, 4)))
        p = e.projector.entries
        assert cheb_norm(p @ p - p) < 1e-10
        assert cheb_norm(p - p.conj().T) < 1e-12


def test_meet_of_nonorthogonal_lines_is_null():
    a = Eventuality.from_span(S2, [KET0])
    b = Eventuality.from_span(S2, [PLUS])
    assert (a & b).is_null
    assert (a | b).is_certain


def test_meet_keeps_common_direction():
    left = Eventuality.from_basis_states(S4, [0, 1])
    right = Eventuality.from_basis_states(S4, [1, 2])
    m = left & right
    assert m.rank == 1
    assert cheb_norm(m.projector.entries - np.diag([0, 1.0, 0, 0])) < 1e-10


def test_orthocomplement():
    e = Eventuality.from_span(S2, [PLUS])
    c = ~e
    assert c.rank == 1
    minus = Vec(S2, np.array([1, -1]) / np.sqrt(2))
    assert c.equals(Eventuality.from_span(S2, [minus]))
    assert (~c).equals(e)


def test_leq_ordering():
    small = Eventuality.from_basis_states(S4, [1])
    big = Eventuality.from_basis_states(S4, [0, 1])
    assert small <= big
    assert not big <= small
    assert Eventuality.null(S4) <= small
    assert big <= Eventuality.certain(S4)


def test_lattice_space_guard():
    with pytest.raises(SpaceMismatchError):
        Eventuality.from_span(S2, [KET0]) & Eventuality.from_basis_states(S4, [0])


def test_distributivity_fails():
    # the quantum lattice is orthomodular but not distributive
    a = Eventuality.from_span(S2, [KET0])
    b = Eventuality.from_span(S2, [KET1])
    c = Eventuality.from_span(S2, [PLUS])
    lhs = c & (a | b)
    rhs = (c & a) | (c & b)
    assert lhs.equals(c)
    assert rhs.is_null


def test_orthomodular_law_random():
    rng = np.random.default_rng(29)
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        space = HilbertSpace(dim, "h")
        big = rand_subspace(rng, space, int(rng.integers(1, dim + 1)))
        if big.rank == 0:
            continue
        k = int(rng.integers(1, big.rank + 1))
        cols = big.basis[:k]
        small = Eventuality.from_span(space, cols)
        assert small.leq(big, 1e-8)
        rebuilt = small | (big & ~small)
        assert rebuilt.equals(big, 1e-8)


def test_de_morgan_cross_route():
    # impl meet (eigenspace route) against complement-of-join oracle
    rng = np.random.default_rng(31)
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        space = HilbertSpace(dim, "h")
        a = rand_subspace(rng, space, int(rng.integers(0, dim + 1)))
        b = rand_subspace(rng, space, int(rng.integers(0, dim + 1)))
        direct = a & b
        via_join = ~((~a) | (~b))
        assert direct.equals(via_join, 1e-8)


def test_absorption_and_idempotence():
    rng = np.random.default_rng(37)
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        space = HilbertSpace(dim, "h")
        a = rand_subspace(rng, space, int(rng.integers(1, dim + 1)))
        b = rand_subspace(rng, space, int(rng.integers(1, dim + 1)))
        assert (a & (a | b)).equals(a, 1e-8)
        assert (a | (a & b)).equals(a, 1e-8)
        assert (a & a).equals(a, 1e-8)
        assert (a | a).equals(a, 1e-8)


def test_rank_lower_bound():
    # rank(a meet b) >= rank a + rank b - dim
    rng = np.random.default_rng(41)
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        space = HilbertSpace(dim, "h")
        a = rand_subspace(rng, space, int(rng.integers(0, dim + 1)))
        b = rand_subspace(rng, space, int(rng.integers(0, dim + 1)))
        assert (a & b).rank >= a.rank + b.rank - dim
        assert (a | b).rank <= min(dim, a.rank + b.rank)


def test_join_probability_not_additive_like_union():
    # non-orthogonal lines break the classical inclusion-exclusion identity
    p = np.diag([0.75, 0.25]).astype(complex)
    a = Eventuality.from_span(S2, [KET0])
    b = Eventuality.from_span(S2, [PLUS])

    def prob(e):
        return float(np.trace(p @ e.projector.entries).real)

    classical_value = prob(a) + prob(b) - prob(a & b)  # 0.75 + 0.5 - 0
    assert prob(a | b) == pytest.approx(1.0)
    assert abs(prob(a | b) - classical_value) > 0.2


# -- classical sanity model ---------------------------------------------


def fair_die():
    return ClassicalModel(("p1", "p2", "p3", "p4", "p5", "p6"), [1 / 6] * 6)


def test_classical_event_probability():
    m = fair_die()
    assert m.event(["p1", "p2"]).prob() == pytest.approx(1 / 3)
    assert m.certain.prob() == pytest.approx(1.0)
    assert m.null.prob() == 0.0


def test_classical_boolean_ops():
    m = fair_die()
    a = m.event(["p1", "p2", "p3"])
    b = m.event(["p3", "p4"])
    assert sorted((a & b).members) == ["p3"]
    assert sorted((a | b).members) == ["p1", "p2", "p3", "p4"]
    assert sorted((~a).members) == ["p4", "p5", "p6"]


def test_classical_model_validation():
    with pytest.raises(ValueError):
        ClassicalModel(("a", "a"), [0.5, 0.5])
    with pytest.raises(ValueError):
        ClassicalModel(("a", "b"), [0.7, 0.4])
    with pytest.raises(ValueError):
        ClassicalModel(("a", "b"), [-0.1, 1.1])
    # the [0, 1] range check is also the finiteness check
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            ClassicalModel(("a", "b"), [bad, 1.0])
    with pytest.raises(ValueError):
        fair_die().event(["p1", "nope"])


@st.composite
def dyadic_model_and_events(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    # dyadic weights k/4096 summing to exactly 1 keep float sums exact
    cuts = sorted(draw(st.lists(st.integers(0, 4096), min_size=n - 1, max_size=n - 1)))
    ticks = [0] + cuts + [4096]
    weights = [(ticks[i + 1] - ticks[i]) / 4096 for i in range(n)]
    points = tuple(f"w{i}" for i in range(n))
    a = draw(st.sets(st.sampled_from(points)))
    b = draw(st.sets(st.sampled_from(points)))
    return ClassicalModel(points, weights), a, b


@settings(max_examples=200, deadline=None)
@given(dyadic_model_and_events())
def test_classical_inclusion_exclusion_exact(case):
    model, a_members, b_members = case
    a = model.event(a_members)
    b = model.event(b_members)
    # dyadic arithmetic keeps this an exact float identity
    assert (a | b).prob() == a.prob() + b.prob() - (a & b).prob()
    assert (~a).prob() == 1.0 - a.prob()


@settings(max_examples=100, deadline=None)
@given(dyadic_model_and_events())
def test_classical_monotone(case):
    model, a_members, b_members = case
    a = model.event(a_members)
    both = model.event(a_members | b_members)
    assert a.prob() <= both.prob()
