"""Observables are checked and built, and tables read, through their
channel bases.

`validate_observable`, `build_operator` and the commutation check read an
observable from U = [V_1 ... V_n], its channel bases side by side, and
build no channel's D x D projector; so do `born`, `joint_matrix` and
`conditional`. The projector formulas are kept here as the oracle: for
orthonormal bases, |P_i P_j|_2 = |V_i^dag V_j|_2, sum P_i = U U^dag and
tr(R P_i) is the sum of <v|R|v> over the columns v of V_i (Nielsen &
Chuang, section 2.2.5). The commutator residual, the operator and the
probability tables must agree with their projector forms within 1e-12, on
mixed ranks, null channels and observables lifted onto a composite, and
the tables also with `comp=`.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprob import (
    INVARIANT_TOL,
    PRESET_NAMES,
    ZERO_PROBABILITY_THRESHOLD,
    CompositeSpace,
    Eventuality,
    HilbertSpace,
    Observable,
    ProbabilityOperator,
    QuantitativeObservable,
    StructureError,
    Vec,
    ZeroProbabilityError,
    born,
    build_operator,
    cheb_norm,
    conditional,
    joint_matrix,
    lift,
    lift_eventuality,
    load_file,
    load_preset,
    validate_observable,
)
from qprob.observables import _require_commuting
from tests.helpers import rand_density, rand_unitary

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_FILES = sorted(
    [*(ROOT / "tests" / "data").glob("*.json"), *(ROOT / "scenarios").glob("*.json")],
)


# -- the projector oracle --------------------------------------------------


def _projector(ch: Eventuality) -> np.ndarray:
    return ch.basis_matrix @ ch.basis_matrix.conj().T


def _spectral(a: np.ndarray) -> float:
    return 0.0 if a.size == 0 else float(np.linalg.norm(a, 2))


def _worst(residuals: list[float]) -> int | None:
    """The pair loop's rule: the first NaN residual, else the first
    largest; None when every residual is 0."""
    worst, at = 0.0, None
    for k, r in enumerate(residuals):
        if not (r <= worst or np.isnan(worst)):
            worst, at = r, k
    return at


# -- generated observables -------------------------------------------------


def _channels(rng, space: HilbertSpace, ranks, orthogonal: bool) -> tuple[Eventuality, ...]:
    """Channels of the given ranks (0 is a null channel): consecutive runs
    of one random unitary's columns, or each the span of its own."""
    if orthogonal:
        u = rand_unitary(rng, space.dim)
        cuts = np.cumsum([0, *ranks])
        return tuple(Eventuality(space, u[:, a:b]) for a, b in zip(cuts, cuts[1:]))
    return tuple(Eventuality(space, rand_unitary(rng, space.dim)[:, :r]) for r in ranks)


def _ranks(rng, dim: int, null: bool) -> list[int]:
    """A random split of dim into positive ranks, with a 0 inserted."""
    cuts = sorted(rng.choice(np.arange(1, dim), size=int(rng.integers(0, dim)), replace=False)) if dim > 1 else []
    ranks = [int(b - a) for a, b in zip([0, *cuts], [*cuts, dim])]
    if null:
        ranks.insert(int(rng.integers(0, len(ranks) + 1)), 0)
    return ranks


def _case(seed: int, dim: int, others: tuple[int, ...], null: bool, family: str):
    """An observable on a space of dim `dim`, lifted onto a composite with
    factors of dims `others` around it when there are any, and a second
    observable on the same space for the commutation check."""
    rng = np.random.default_rng(seed)
    space = HilbertSpace(dim, "s")
    ranks = _ranks(rng, dim, null)
    if family == "partial":
        ranks = ranks[:-1] or [0]
    channels = _channels(rng, space, ranks, family != "overlapping")
    obs = Observable(space, channels)
    coarse = Observable(space, (channels[0].join(channels[-1]), *channels[1:-1])) if len(channels) > 1 else obs
    other = coarse if rng.random() < 0.5 else Observable(space, _channels(rng, space, _ranks(rng, dim, False), True))
    if not others:
        return obs, other
    at = int(rng.integers(0, len(others) + 1))
    dims = (*others[:at], dim, *others[at:])
    comp = CompositeSpace(tuple(space if k == at else HilbertSpace(d, f"t{k}") for k, d in enumerate(dims)))
    return lift(obs, comp, at), lift(other, comp, at)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 6),
    others=st.lists(st.integers(1, 3), max_size=2).map(tuple),
    null=st.booleans(),
    family=st.sampled_from(["complete", "partial", "overlapping"]),
)
def test_basis_reads_match_the_projector_formulas(seed, dim, others, null, family):
    obs, other = _case(seed, dim, others, null, family)
    bases = [ch.basis_matrix for ch in obs.channels]
    projectors = [_projector(ch) for ch in obs.channels]
    n = len(bases)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    # Orthogonality: every pair's spectral norm is the same on the bases
    # as on the projectors; the residual is the largest basis entry over
    # the pairs, and the worst pair follows the pair loop's rule.
    for i, j in pairs:
        thin = bases[i].conj().T @ bases[j]
        assert _spectral(thin) == pytest.approx(_spectral(projectors[i] @ projectors[j]), abs=1e-12)
    residuals = [cheb_norm(bases[i].conj().T @ bases[j]) for i, j in pairs]
    report = validate_observable(obs)
    at = _worst(residuals)
    assert report.orthogonality_residual == pytest.approx(0.0 if at is None else residuals[at], abs=1e-12)
    if at is not None and report.orthogonality_residual > 1e-12:
        assert report.worst_pair == tuple(obs.labels[k] for k in pairs[at])

    # Completeness keeps its projector definition.
    eye = np.eye(obs.space.dim)
    assert report.completeness_residual == pytest.approx(cheb_norm(sum(projectors, 0 * eye) - eye), abs=1e-12)
    assert report.null_channels == tuple(lbl for lbl, ch in zip(obs.labels, obs.channels) if ch.is_null)

    # The operator is sum(v_i P_i).
    values = tuple(np.random.default_rng(seed).normal(size=n))
    q = QuantitativeObservable(obs, values)
    want = sum((v * p for v, p in zip(values, projectors)), 0 * eye)
    assert cheb_norm(build_operator(q).entries - want) < 1e-12

    # The commutator residual of every channel pair, and the first pair
    # refused at INVARIANT_TOL.
    oracle = []
    for ea in obs.channels:
        for eb in other.channels:
            pa, pb = _projector(ea), _projector(eb)
            want = cheb_norm(pa @ pb - pb @ pa)
            try:
                _require_commuting(Observable(obs.space, (ea,)), Observable(obs.space, (eb,)), 5e-324)
                got = 0.0
            except StructureError as exc:
                got = exc.residual
            assert got == pytest.approx(want, abs=1e-12)
            oracle.append(want)
    refused = [k for k, r in enumerate(oracle) if r > INVARIANT_TOL]
    if all(abs(r - INVARIANT_TOL) > 1e-12 for r in oracle):
        if refused:
            i, j = divmod(refused[0], other.channel_count)
            with pytest.raises(StructureError, match=f"channels {obs.labels[i]!r} and {other.labels[j]!r} do not commute"):
                _require_commuting(obs, other, INVARIANT_TOL)
        else:
            _require_commuting(obs, other, INVARIANT_TOL)


def _lifted_projector(comp: CompositeSpace, k: int, ch: Eventuality) -> np.ndarray:
    return np.kron(np.kron(np.eye(comp.dim_before(k)), _projector(ch)), np.eye(comp.dim_after(k)))


def _refined(rng, space: HilbertSpace, null: bool) -> tuple[Observable, Observable]:
    """A complete observable of mixed ranks on one unitary's columns, and a
    coarse-graining of it that merges runs of its channels; each may hold
    a null channel."""
    u = rand_unitary(rng, space.dim)
    cuts = [int(c) for c in np.cumsum([0, *_ranks(rng, space.dim, False)])]
    coarse_cuts = [0, *[c for c in cuts[1:-1] if rng.random() < 0.5], space.dim]

    def channels(cuts):
        chans = [Eventuality(space, u[:, a:b]) for a, b in zip(cuts, cuts[1:])]
        if null:
            chans.insert(int(rng.integers(0, len(chans) + 1)), Eventuality.null(space))
        return tuple(chans)

    return Observable(space, channels(cuts)), Observable(space, channels(coarse_cuts))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    null=st.booleans(),
    same_factor=st.booleans(),
)
def test_tables_match_the_projector_formulas(seed, dims, null, same_factor):
    rng = np.random.default_rng(seed)
    comp = CompositeSpace(tuple(HilbertSpace(d, f"f{k}") for k, d in enumerate(dims)))
    k = int(rng.integers(0, len(dims)))
    l = k if same_factor or len(dims) == 1 else int(rng.choice([j for j in range(len(dims)) if j != k]))
    rows, cols = _refined(rng, comp.factors[k], null)
    if l != k:
        cols = _refined(rng, comp.factors[l], not null)[0]
    prob = ProbabilityOperator.from_entries(comp.space, rand_density(rng, comp.space.dim))
    p = prob.matrix.entries
    e = [_lifted_projector(comp, k, ch) for ch in rows.channels]
    f = [_lifted_projector(comp, l, ch) for ch in cols.channels]
    lifted_rows, lifted_cols = lift(rows, comp, k), lift(cols, comp, l)

    # born: tr(P E_i), on the factor with comp= and on the lift.
    want = [np.trace(p @ ei).real for ei in e]
    assert born(prob, rows, comp=comp) == pytest.approx(want, abs=1e-12)
    assert born(prob, lifted_rows) == pytest.approx(want, abs=1e-12)
    assert born(prob, rows.channels[-1], comp=comp) == pytest.approx(want[-1], abs=1e-12)

    # joint_matrix: tr(P E_i F_j), on one space or on two factors.
    want = [[np.trace(p @ ei @ fj).real for fj in f] for ei in e]
    assert joint_matrix(prob, rows, cols, comp=comp).values == pytest.approx(np.array(want), abs=1e-12)
    assert joint_matrix(prob, lifted_rows, lifted_cols).values == pytest.approx(np.array(want), abs=1e-12)

    # conditional: tr(E P E F_j) / tr(P E), with the target on the given
    # channel's factor or on another.
    for ch, lifted_ch, ei in zip(rows.channels, lifted_rows.channels, e):
        given_p = np.trace(p @ ei).real
        if given_p <= ZERO_PROBABILITY_THRESHOLD:
            with pytest.raises(ZeroProbabilityError):
                conditional(prob, ch, cols, comp=comp)
            continue
        want = [np.trace(ei @ p @ ei @ fj).real / given_p for fj in f]
        assert conditional(prob, ch, cols, comp=comp) == pytest.approx(want, abs=1e-12)
        assert conditional(prob, lifted_ch, lifted_cols) == pytest.approx(want, abs=1e-12)

    # No table keeps a projector on a channel it read.
    channels = [*rows.channels, *cols.channels, *lifted_rows.channels, *lifted_cols.channels]
    assert not [ch for ch in channels if "projector" in vars(ch)]


def test_the_worst_pair_is_the_first_nan_pair_else_the_first_largest():
    s2, s3 = HilbertSpace(2), HilbertSpace(3)
    r = 1 / np.sqrt(2)

    def ket(space, *amplitudes):
        return Eventuality.from_span(space, [Vec(space, amplitudes)])

    # (x, a) and (x, b) tie at 1/sqrt(2); the first of them is reported.
    tie = Observable(s3, (ket(s3, 1, 0, 0), ket(s3, r, r, 0), ket(s3, r, 0, r)), ("x", "a", "b"))
    report = validate_observable(tie)
    assert report.orthogonality_residual == pytest.approx(r) and report.worst_pair == ("x", "a")
    # A NaN pair after a larger finite one is the worst, and the first of
    # two NaN pairs is the one reported.
    broken = Eventuality(s2, [[np.nan], [0]])
    nan = Observable(s2, (ket(s2, r, r), ket(s2, 1, 0), broken), ("plus", "up", "broken"))
    report = validate_observable(nan)
    assert np.isnan(report.orthogonality_residual) and report.worst_pair == ("plus", "broken")
    # Pairs of exactly orthogonal channels name no pair.
    exact = Observable(s3, (ket(s3, 1, 0, 0), Eventuality.null(s3), Eventuality.from_basis_states(s3, [1, 2])))
    report = validate_observable(exact)
    assert report.orthogonality_residual == 0.0 and report.worst_pair is None


def test_loading_builds_no_channel_projector():
    scenarios = [load_preset(name) for name in PRESET_NAMES]
    scenarios += [load_file(path) for path in SCENARIO_FILES if path.name != "golden_outputs.json"]
    channels = [ch for scn in scenarios for so in scn.observables for ch in so.observable.channels]
    assert channels
    assert not [ch for ch in channels if "projector" in vars(ch)]


def test_validating_a_rank_one_basis_stays_small():
    # d = 128 rank-1 channels: their projectors alone would take 32 MB.
    space = HilbertSpace(128)
    u = rand_unitary(np.random.default_rng(128), space.dim)
    obs = Observable(space, tuple(Eventuality(space, u[:, k : k + 1]) for k in range(space.dim)))
    tracemalloc.start()
    try:
        report = validate_observable(obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 4 * 2**20
    assert not [ch for ch in obs.channels if "projector" in vars(ch)]


def test_born_over_a_rank_one_basis_stays_small():
    # d = 256 rank-1 channels: their projector stack alone would take 256 MiB.
    space = HilbertSpace(256)
    rng = np.random.default_rng(256)
    u = rand_unitary(rng, space.dim)
    obs = Observable(space, tuple(Eventuality(space, u[:, k : k + 1]) for k in range(space.dim)))
    prob = ProbabilityOperator.from_entries(space, rand_density(rng, space.dim))
    tracemalloc.start()
    try:
        probs = born(prob, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert peak <= 10 * 10**6
    assert not [ch for ch in obs.channels if "projector" in vars(ch)]
