import numpy as np
import pytest

from qprob import (
    CompositeSpace,
    Eventuality,
    HilbertSpace,
    Observable,
    Op,
    ProbabilityOperator,
    QuantitativeObservable,
    SpaceMismatchError,
    StructureError,
    Vec,
    born,
    build_operator,
    cheb_norm,
    conjoin,
    expectation,
    lift,
    lift_eventuality,
    spectral_observable,
    validate_observable,
)
from tests.helpers import rand_state, rand_unitary

S2 = HilbertSpace(2, "spin")
S3 = HilbertSpace(3, "qutrit")
S4 = HilbertSpace(4, "quad")

PLUS = Vec(S2, np.array([1, 1]) / np.sqrt(2))


def basis_observable(space, labels=()):
    channels = tuple(Eventuality.from_basis_states(space, [k]) for k in range(space.dim))
    return Observable(space, channels, labels)


def test_observable_auto_labels():
    obs = basis_observable(S3)
    assert obs.labels == ("e1", "e2", "e3")
    assert obs.channel_count == 3


def test_observable_index_and_channel():
    obs = basis_observable(S2, ("up", "down"))
    assert obs.index("down") == 1
    assert obs.channel("up").rank == 1
    with pytest.raises(KeyError):
        obs.index("sideways")


def test_observable_rejects_bad_labels():
    channels = tuple(Eventuality.from_basis_states(S2, [k]) for k in range(2))
    with pytest.raises(ValueError):
        Observable(S2, channels, ("a",))
    with pytest.raises(ValueError):
        Observable(S2, channels, ("a", "a"))
    with pytest.raises(ValueError):
        Observable(S2, ())
    with pytest.raises(SpaceMismatchError):
        Observable(S2, (Eventuality.from_basis_states(S3, [0]),))


def test_observable_names_a_repeated_label():
    channels = tuple(Eventuality.from_basis_states(S3, [k]) for k in range(3))
    with pytest.raises(ValueError) as raised:
        Observable(S3, channels, ("up", "down", "up"))
    assert str(raised.value) == "duplicate channel label 'up'"


def test_validate_passes_complete_family():
    report = validate_observable(basis_observable(S4))
    assert report.passed and bool(report)
    assert report.orthogonality_residual == 0.0
    assert report.completeness_residual == 0.0
    assert report.worst_pair is None
    assert report.null_channels == ()


def test_validate_flags_nonorthogonal_pair():
    obs = Observable(
        S2,
        (Eventuality.from_span(S2, [Vec(S2, [1, 0])]), Eventuality.from_span(S2, [PLUS])),
        ("z", "x"),
    )
    report = validate_observable(obs)
    assert not report.passed
    # The residual is read on the channel bases: <0|+> = 1/sqrt(2). The
    # projector product P0 P+ has the same spectral norm, but its largest
    # entry is 1/2, which is what the residual read before it moved to the
    # bases.
    assert report.orthogonality_residual == pytest.approx(1 / np.sqrt(2))
    assert report.worst_pair == ("z", "x")


def test_validate_reports_a_nan_product_as_the_orthogonality_residual():
    broken = Eventuality(S2, [[np.nan], [0]])
    down, up = Eventuality.from_basis_states(S2, [1]), Eventuality.from_basis_states(S2, [0])
    report = validate_observable(Observable(S2, (broken, down)))
    assert np.isnan(report.orthogonality_residual) and report.worst_pair == ("e1", "e2")
    assert not report.passed
    # A later finite product does not replace the NaN pair.
    report = validate_observable(Observable(S2, (broken, down, up)))
    assert np.isnan(report.orthogonality_residual) and report.worst_pair == ("e1", "e2")


def test_validate_flags_incompleteness():
    obs = Observable(S3, (Eventuality.from_basis_states(S3, [0]),), ("only",))
    report = validate_observable(obs)
    assert report.completeness_residual == pytest.approx(1.0)
    assert not report.passed


def test_validate_flags_null_channel():
    obs = Observable(
        S2,
        (Eventuality.certain(S2), Eventuality.null(S2)),
        ("all", "nothing"),
    )
    report = validate_observable(obs)
    assert report.null_channels == ("nothing",)
    assert not report.passed


def test_quantitative_values_distinct():
    obs = basis_observable(S2)
    QuantitativeObservable(obs, (1.0, -1.0))
    with pytest.raises(ValueError):
        QuantitativeObservable(obs, (1.0, 1.0))
    with pytest.raises(ValueError):
        QuantitativeObservable(obs, (1.0,))


def test_quantitative_names_the_value_and_channel_counts():
    with pytest.raises(ValueError) as raised:
        QuantitativeObservable(basis_observable(S2), (1.0,))
    assert str(raised.value) == "1 values for 2 channels"


def test_build_operator_diagonal():
    q = QuantitativeObservable(basis_observable(S3), (2.0, 0.5, -1.0))
    op = build_operator(q)
    assert cheb_norm(op.entries - np.diag([2.0, 0.5, -1.0])) == 0.0


def test_expectation_matches_weighted_channels():
    rng = np.random.default_rng(43)
    q = QuantitativeObservable(basis_observable(S3), (2.0, 0.5, -1.0))
    for _ in range(20):
        state = rand_state(rng, S3)
        by_channels = sum(
            v * born(state, ch) for v, ch in zip(q.values, q.base.channels)
        )
        assert expectation(q, state) == pytest.approx(by_channels, abs=1e-12)


def test_expectation_space_guard():
    q = QuantitativeObservable(basis_observable(S3), (1.0, 2.0, 3.0))
    with pytest.raises(SpaceMismatchError):
        expectation(q, ProbabilityOperator.isotropic(S2))
    with pytest.raises(TypeError):
        expectation(q, np.eye(3))


def test_spectral_observable_plain():
    m = Op(S3, np.diag([1.0, 1.0, -1.0]).astype(complex))
    q = spectral_observable(m)
    assert q.values == (1.0, -1.0)  # descending
    assert q.base.labels == ("E0", "E1")
    assert tuple(ch.rank for ch in q.base.channels) == (2, 1)


def test_spectral_observable_clusters_near_degenerate():
    m = Op(S2, np.diag([1.0, 1.0 + 1e-9]).astype(complex))
    q = spectral_observable(m, tol=1e-8)
    assert len(q.values) == 1
    assert q.values[0] == pytest.approx(1.0 + 5e-10)
    fine = spectral_observable(m, tol=1e-10)
    assert len(fine.values) == 2


def test_spectral_observable_rebuilds_input():
    rng = np.random.default_rng(47)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        space = HilbertSpace(dim, "h")
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = Op(space, (a + a.conj().T) / 2)
        q = spectral_observable(m)
        assert cheb_norm(build_operator(q).entries - m.entries) < 1e-8
        assert validate_observable(q.base, 1e-8).passed


def test_spectral_observable_rejects_nonhermitian():
    with pytest.raises(StructureError):
        spectral_observable(Op(S2, [[0, 1], [0, 0]]))


def test_lift_eventuality_rank_and_projector():
    comp = CompositeSpace((S2, S3))
    e = Eventuality.from_basis_states(S2, [0])
    lifted = lift_eventuality(e, comp)
    assert lifted.space == comp.space
    assert lifted.rank == 3  # rank times traced-out dimension
    want = np.kron(np.diag([1.0, 0.0]), np.eye(3))
    assert cheb_norm(lifted.projector.entries - want) < 1e-12


def test_lift_second_factor():
    comp = CompositeSpace((S2, S3))
    e = Eventuality.from_basis_states(S3, [2])
    lifted = lift_eventuality(e, comp)
    want = np.kron(np.eye(2), np.diag([0.0, 0.0, 1.0]))
    assert cheb_norm(lifted.projector.entries - want) < 1e-12


def test_lift_repeated_factor_needs_index():
    comp = CompositeSpace((S2, S2))
    e = Eventuality.from_basis_states(S2, [0])
    with pytest.raises(SpaceMismatchError):
        lift_eventuality(e, comp)
    left = lift_eventuality(e, comp, factor=0)
    right = lift_eventuality(e, comp, factor=1)
    assert cheb_norm(left.projector.entries - np.kron(np.diag([1.0, 0]), np.eye(2))) < 1e-12
    assert cheb_norm(right.projector.entries - np.kron(np.eye(2), np.diag([1.0, 0]))) < 1e-12


def test_lift_factor_mismatch():
    comp = CompositeSpace((S2, S3))
    e = Eventuality.from_basis_states(S3, [0])
    with pytest.raises(SpaceMismatchError):
        lift_eventuality(e, comp, factor=0)
    with pytest.raises(ValueError):
        lift_eventuality(e, comp, factor=2)


def test_lift_observable_keeps_labels_and_validity():
    comp = CompositeSpace((S2, S3))
    obs = basis_observable(S2, ("up", "down"))
    lifted = lift(obs, comp)
    assert lifted.labels == ("up", "down")
    assert lifted.space == comp.space
    assert validate_observable(lifted).passed


def test_lift_preserves_born_probabilities():
    # reduced-state probabilities equal lifted-event probabilities
    rng = np.random.default_rng(53)
    comp = CompositeSpace((S2, S3))
    obs = basis_observable(S2, ("up", "down"))
    lifted = lift(obs, comp)
    for _ in range(20):
        state = rand_state(rng, comp.space)
        from qprob import reduce_composite

        reduced = reduce_composite(state, comp, 0)
        for ch, lch in zip(obs.channels, lifted.channels):
            assert born(state, lch) == pytest.approx(born(reduced, ch), abs=1e-10)


def test_conjoin_lifted_pair():
    comp = CompositeSpace((S2, S2))
    a = lift(basis_observable(S2, ("u", "d")), comp, factor=0)
    b = lift(basis_observable(S2, ("l", "r")), comp, factor=1)
    both = conjoin(a, b)
    assert both.labels == ("u&l", "u&r", "d&l", "d&r")
    assert all(ch.rank == 1 for ch in both.channels)
    assert validate_observable(both).passed
    # channel u&r picks out composite index 0*2 + 1
    assert cheb_norm(both.channels[1].projector.entries - np.diag([0, 1.0, 0, 0])) < 1e-12


def test_conjoin_rejects_noncommuting():
    z = basis_observable(S2, ("up", "down"))
    minus = Vec(S2, np.array([1, -1]) / np.sqrt(2))
    x = Observable(
        S2,
        (Eventuality.from_span(S2, [PLUS]), Eventuality.from_span(S2, [minus])),
        ("plus", "minus"),
    )
    with pytest.raises(StructureError) as err:
        conjoin(z, x)
    assert "'up'" in str(err.value) and "'plus'" in str(err.value)


def test_conjoin_space_guard():
    with pytest.raises(SpaceMismatchError):
        conjoin(basis_observable(S2), basis_observable(S3))
