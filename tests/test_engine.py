import ast
import re
from pathlib import Path

import numpy as np
import pytest

import qprob.engine
import qprob.lattice
import qprob.observables
from qprob import (
    CompositeSpace,
    CorrelationReport,
    Eventuality,
    HilbertSpace,
    JointProbabilityMatrix,
    Observable,
    Op,
    PSD_TOL,
    ProbabilityOperator,
    SpaceMismatchError,
    StructureError,
    Vec,
    ZeroProbabilityError,
    born,
    branch_decompose,
    cheb_norm,
    collapse,
    conditional,
    conjoin,
    correlation_check,
    heisenberg_transport,
    joint_matrix,
    lift,
    luder,
    reduce_composite,
    spectral_observable,
    tensor,
)
from tests.helpers import rand_pure, rand_state, rand_subspace, rand_unitary_op

S2 = HilbertSpace(2, "spin")
S4 = HilbertSpace(4, "box")


def basis_observable(space, labels=()):
    channels = tuple(Eventuality.from_basis_states(space, [k]) for k in range(space.dim))
    return Observable(space, channels, labels)


# cat-in-a-box numbers used as frozen fixtures throughout:
# detector(2) x cat(2), diagonal weights [0.45, 0.05, 0, 0.5]
CAT_COMP = CompositeSpace((HilbertSpace(2, "detector"), HilbertSpace(2, "cat")))
CAT_STATE = ProbabilityOperator.diagonal(CAT_COMP.space, [0.45, 0.05, 0.0, 0.5])


def test_probability_operator_invariants():
    with pytest.raises(StructureError, match="hermitian"):
        ProbabilityOperator.from_entries(S2, [[0.5, 0.5], [0, 0.5]])
    with pytest.raises(StructureError, match="unit trace"):
        ProbabilityOperator.from_entries(S2, np.diag([0.7, 0.4]))
    with pytest.raises(StructureError, match="positive semidefinite"):
        ProbabilityOperator.from_entries(S2, np.diag([1.2, -0.2]))
    # a valid operator keeps the reports of the checks it passed
    state = ProbabilityOperator.diagonal(S2, [0.75, 0.25])
    assert [r.kind for r in state.checks] == ["hermitian", "unit-trace", "psd"]
    assert all(r.passed and r.tol == PSD_TOL for r in state.checks)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_diagonal_rejects_non_finite_weights(bad):
    # Left through, a NaN weight failed later as "must be hermitian: residual nan".
    with pytest.raises(ValueError, match=f"diagonal weight 1 is {bad}; weights must be finite"):
        ProbabilityOperator.diagonal(S4, [0.5, bad, 0.25, 0.25])


def test_probability_operator_constructors():
    iso = ProbabilityOperator.isotropic(S4)
    assert cheb_norm(iso.matrix.entries - np.eye(4) / 4) == 0.0
    diag = ProbabilityOperator.diagonal(S2, [0.25, 0.75])
    assert diag.matrix.entries[1, 1] == 0.75
    with pytest.raises(ValueError):
        ProbabilityOperator.diagonal(S2, [1.0])
    v = Vec(S2, np.array([1, 1j]) / np.sqrt(2))
    pure = ProbabilityOperator.pure(v)
    assert pure.matrix.entries[0, 1] == pytest.approx(-0.5j)
    with pytest.raises(StructureError):
        ProbabilityOperator.pure(Vec(S2, [1, 1]))


def test_born_frozen_values():
    up = Eventuality.from_basis_states(CAT_COMP.space, [0, 1])
    awake = Eventuality.from_basis_states(CAT_COMP.space, [0, 2])
    assert born(CAT_STATE, up) == pytest.approx(0.5, abs=1e-14)
    assert born(CAT_STATE, awake) == pytest.approx(0.45, abs=1e-14)
    assert born(CAT_STATE, Eventuality.certain(CAT_COMP.space)) == pytest.approx(1.0)
    assert born(CAT_STATE, Eventuality.null(CAT_COMP.space)) == 0.0


def test_born_space_guard():
    with pytest.raises(SpaceMismatchError):
        born(CAT_STATE, Eventuality.certain(S2))


def test_collapse_frozen():
    up = Eventuality.from_basis_states(CAT_COMP.space, [0, 1])
    result = collapse(CAT_STATE, up)
    assert result.probability == pytest.approx(0.5, abs=1e-14)
    want = np.diag([0.9, 0.1, 0.0, 0.0])
    assert cheb_norm(result.operator.matrix.entries - want) < 1e-12


def test_collapse_zero_probability_is_loud():
    dead = Eventuality.from_basis_states(CAT_COMP.space, [2])
    with pytest.raises(ZeroProbabilityError) as err:
        collapse(CAT_STATE, dead)
    assert err.value.probability == pytest.approx(0.0, abs=1e-15)
    assert err.value.threshold == 1e-12


def test_collapse_threshold_override():
    tiny = 1e-13
    state = ProbabilityOperator.diagonal(S2, [1 - tiny, tiny])
    e = Eventuality.from_basis_states(S2, [1])
    with pytest.raises(ZeroProbabilityError):
        collapse(state, e)  # default threshold 1e-12
    result = collapse(state, e, threshold=1e-14)
    assert result.probability == pytest.approx(tiny)
    assert result.operator.matrix.entries[1, 1] == pytest.approx(1.0)


def test_collapse_projects_coherences_away():
    plus = Vec(S2, np.array([1, 1]) / np.sqrt(2))
    state = ProbabilityOperator.pure(plus)
    e = Eventuality.from_basis_states(S2, [0])
    result = collapse(state, e)
    assert result.probability == pytest.approx(0.5)
    assert cheb_norm(result.operator.matrix.entries - np.diag([1.0, 0])) < 1e-12


def test_collapse_keeps_the_psd_check_on_derived_operators():
    # The state passes its own check: its smallest eigenvalue, -5e-11, is
    # within PSD_TOL. Conditioning on basis states 1 and 2 divides by
    # p = 1e-11 and magnifies that eigenvalue to -5. A derived operator
    # gets the same full invariant check as a loaded one, so this is loud.
    h3 = HilbertSpace(3)
    state = ProbabilityOperator.diagonal(h3, [1 - 1e-11, 6e-11, -5e-11])
    tail = Eventuality.from_basis_states(h3, [1, 2])
    with pytest.raises(StructureError, match="positive semidefinite") as err:
        collapse(state, tail)
    assert err.value.residual == pytest.approx(5.0)


def test_joint_matrix_frozen_cat_box():
    reading = lift(basis_observable(HilbertSpace(2, "detector"), ("up", "down")), CAT_COMP)
    cat = lift(basis_observable(HilbertSpace(2, "cat"), ("awake", "asleep")), CAT_COMP)
    jm = joint_matrix(CAT_STATE, reading, cat)
    want = np.array([[0.45, 0.05], [0.0, 0.5]])
    assert cheb_norm(jm.values - want) < 1e-12
    assert jm.row_marginals() == pytest.approx([0.5, 0.5])
    assert jm.col_marginals() == pytest.approx([0.45, 0.55])


def test_joint_matrix_rejects_noncommuting():
    z = basis_observable(S2, ("up", "down"))
    h = rand_unitary_op(np.random.default_rng(3), S2)
    x = heisenberg_transport(z, h)
    state = ProbabilityOperator.isotropic(S2)
    with pytest.raises(StructureError, match="do not commute") as from_joint:
        joint_matrix(state, z, x)
    # conjoin runs the same commutation check
    with pytest.raises(StructureError) as from_conjoin:
        conjoin(z, x)
    assert str(from_conjoin.value) == str(from_joint.value)


def test_joint_matrix_space_guard():
    with pytest.raises(SpaceMismatchError):
        joint_matrix(CAT_STATE, basis_observable(S2), basis_observable(S2))


# Each primitive on an observable of one factor, or on its first channel.
# conditional's `given` is a factor eventuality with comp, and the certain
# eventuality without it, so that only its target can be off the composite.
PRIMITIVES = {
    "born": lambda prob, obs, comp: born(prob, obs, comp=comp),
    "joint_matrix": lambda prob, obs, comp: joint_matrix(prob, obs, obs, comp=comp),
    "collapse": lambda prob, obs, comp: collapse(prob, obs.channels[0], comp=comp),
    "conditional": lambda prob, obs, comp: conditional(
        prob, Eventuality.certain(prob.space if comp is None else comp.factors[0]), obs, comp=comp
    ),
    "luder": lambda prob, obs, comp: luder(prob, obs, comp=comp),
    "branch_decompose": lambda prob, obs, comp: branch_decompose(prob, obs, comp=comp),
}


@pytest.mark.parametrize("name", PRIMITIVES)
def test_every_primitive_refuses_spaces_off_its_composite(name):
    run, cat = PRIMITIVES[name], basis_observable(CAT_COMP.factors[1])
    run(CAT_STATE, cat, CAT_COMP)
    with pytest.raises(SpaceMismatchError, match="does not live on the composite"):
        run(ProbabilityOperator.isotropic(S4), cat, CAT_COMP)
    with pytest.raises(SpaceMismatchError, match=re.escape(f"space spin is not a factor of {CAT_COMP.space}")):
        run(CAT_STATE, basis_observable(S2), CAT_COMP)
    # Without comp, the operator's own space is the one factor.
    with pytest.raises(SpaceMismatchError, match=re.escape(f"space cat is not a factor of {CAT_COMP.space}")):
        run(CAT_STATE, cat, None)


def _engine_sites(match, module=qprob.engine) -> list:
    """The name of the innermost function around each node of `module`
    (engine.py by default) that `match` accepts, in source order."""
    found = []

    def walk(node, function):
        if match(node):
            found.append(function)
        for child in ast.iter_child_nodes(node):
            walk(child, child.name if isinstance(child, ast.FunctionDef) else function)

    walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8")), None)
    return found


def test_engine_resolves_comp_once_and_reads_no_projector():
    def reads_projector(node):
        return isinstance(node, ast.Attribute) and node.attr == "projector"

    assert _engine_sites(lambda n: isinstance(n, ast.Compare) and ast.unparse(n) == "comp is None") == ["_composite"]
    # Tables are read, observables checked and built, and the subspace
    # lattice run, through bases.
    assert _engine_sites(reads_projector) == []
    assert _engine_sites(reads_projector, qprob.observables) == []
    assert _engine_sites(reads_projector, qprob.lattice) == []
    # The one operator-versus-composite guard, besides the operator's own
    # matrix check and the transported eventuality's.
    raises = _engine_sites(lambda n: isinstance(n, ast.Raise) and "SpaceMismatchError" in ast.unparse(n))
    assert raises == ["__post_init__", "_composite", "heisenberg_transport"]


def test_only_hilbert_lays_out_the_rows_of_a_composite():
    # `CompositeSpace` holds the row layout (`on_factor`, `grouped`,
    # `partial_trace`); no other module forms a Kronecker product or reads
    # the dims around a factor.
    layout = ("np.tensordot", "np.kron", ".dim_before(", ".dim_after(")
    modules = sorted(Path(qprob.__file__).parent.glob("*.py"))
    found = [m.name for m in modules if m.name != "hilbert.py" and any(w in m.read_text(encoding="utf-8") for w in layout)]
    assert found == []


def test_conditional_frozen_master_table():
    # master(4) x cat(2); the dreaming master sees nothing, so both cat
    # channels stay equally likely after conditioning.
    comp = CompositeSpace((HilbertSpace(4, "master"), HilbertSpace(2, "cat")))
    state = ProbabilityOperator.diagonal(
        comp.space, [0.25, 0, 0, 0.25, 0.125, 0.125, 0.125, 0.125]
    )
    cat = lift(basis_observable(HilbertSpace(2, "cat"), ("awake", "asleep")), comp)
    dreams_awake = Eventuality.from_basis_states(comp.space, [4, 5])
    assert conditional(state, dreams_awake, cat) == pytest.approx([0.5, 0.5], abs=1e-14)
    sees_awake = Eventuality.from_basis_states(comp.space, [0, 1])
    assert conditional(state, sees_awake, cat) == pytest.approx([1.0, 0.0], abs=1e-14)


def test_conditional_matches_joint_row():
    rng = np.random.default_rng(59)
    reading = lift(basis_observable(HilbertSpace(2, "detector"), ("up", "down")), CAT_COMP)
    cat = lift(basis_observable(HilbertSpace(2, "cat"), ("awake", "asleep")), CAT_COMP)
    for _ in range(25):
        state = rand_state(rng, CAT_COMP.space)
        jm = joint_matrix(state, reading, cat)
        for i, ch in enumerate(reading.channels):
            marginal = jm.row_marginals()[i]
            got = conditional(state, ch, cat)
            assert got == pytest.approx(jm.values[i] / marginal, abs=1e-10)


def test_luder_kills_cross_terms_keeps_probabilities():
    plus = Vec(S2, np.array([1, 1]) / np.sqrt(2))
    state = ProbabilityOperator.pure(plus)
    obs = basis_observable(S2, ("up", "down"))
    after = luder(state, obs)
    assert cheb_norm(after.matrix.entries - np.eye(2) / 2) < 1e-12
    for ch in obs.channels:
        assert born(after, ch) == pytest.approx(born(state, ch), abs=1e-12)


def test_luder_against_collapse_mixture_oracle():
    # luder(P) must equal sum_i p_i * collapse(P, e_i)
    rng = np.random.default_rng(61)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        space = HilbertSpace(dim, "h")
        state = rand_state(rng, space)
        u = rand_unitary_op(rng, space)
        obs = heisenberg_transport(basis_observable(space), u)
        direct = luder(state, obs)
        mixed = np.zeros((dim, dim), dtype=complex)
        for ch in obs.channels:
            p = born(state, ch)
            if p > 1e-12:
                mixed += p * collapse(state, ch).operator.matrix.entries
        assert cheb_norm(direct.matrix.entries - mixed) < 1e-10


def test_luder_idempotent():
    rng = np.random.default_rng(67)
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        space = HilbertSpace(dim, "h")
        state = rand_state(rng, space)
        obs = heisenberg_transport(basis_observable(space), rand_unitary_op(rng, space))
        once = luder(state, obs)
        twice = luder(once, obs)
        assert cheb_norm(once.matrix.entries - twice.matrix.entries) < 1e-11


def test_branch_decompose_pure():
    psi = Vec(CAT_COMP.space, np.sqrt([0.45, 0.05, 0.0, 0.5]))
    reading = lift(basis_observable(HilbertSpace(2, "detector"), ("up", "down")), CAT_COMP)
    bd = branch_decompose(psi, reading)
    assert bd.probabilities == pytest.approx([0.5, 0.5])
    assert bd.zero_channels == ()
    assert bd.branch_vectors is not None
    # unnormalized branch vectors: squared norm is the branch probability,
    # and the branches sum back to the input
    total = np.zeros(4, dtype=complex)
    for p, bv in zip(bd.probabilities, bd.branch_vectors):
        assert bv.norm() ** 2 == pytest.approx(p, abs=1e-12)
        total += bv.components
    assert cheb_norm(total - psi.components) < 1e-12


def test_branch_decompose_zero_channel():
    state = ProbabilityOperator.diagonal(S2, [1.0, 0.0])
    bd = branch_decompose(state, basis_observable(S2, ("live", "dead")))
    assert bd.zero_channels == (1,)
    assert bd.posteriors[1] is None
    assert bd.posteriors[0] is not None
    assert cheb_norm(bd.posteriors[0].matrix.entries - np.diag([1.0, 0])) < 1e-12


@pytest.mark.parametrize("lifted", [True, False], ids=["lifted", "comp"])
def test_a_null_channel_sandwiches_to_an_empty_block(lifted):
    detector, cat = CAT_COMP.factors
    obs = Observable(detector, (Eventuality.null(detector), Eventuality.certain(detector)), ("none", "all"))
    target, comp = basis_observable(cat), CAT_COMP
    if lifted:
        obs, target, comp = lift(obs, CAT_COMP), lift(target, CAT_COMP), None
    null = obs.channels[0]
    assert cheb_norm(luder(CAT_STATE, obs, comp=comp).matrix.entries - CAT_STATE.matrix.entries) < 1e-15
    with pytest.raises(ZeroProbabilityError) as err:
        collapse(CAT_STATE, null, comp=comp)
    assert err.value.probability == 0.0
    with pytest.raises(ZeroProbabilityError) as err:
        conditional(CAT_STATE, null, target, comp=comp)
    assert err.value.probability == 0.0
    psi = Vec(CAT_COMP.space, np.sqrt([0.45, 0.05, 0.0, 0.5]))
    for state in (CAT_STATE, psi):
        bd = branch_decompose(state, obs, comp=comp)
        assert bd.probabilities == pytest.approx((0.0, 1.0), abs=1e-15)
        assert bd.zero_channels == (0,)
        assert bd.posteriors[0] is None
    assert cheb_norm(bd.branch_vectors[0].components) == 0.0


def test_branch_decompose_posteriors_match_collapse():
    rng = np.random.default_rng(71)
    for _ in range(20):
        state = rand_state(rng, S4)
        obs = heisenberg_transport(basis_observable(S4), rand_unitary_op(rng, S4))
        bd = branch_decompose(state, obs)
        assert bd.branch_vectors is None  # mixed input has no branch vectors
        for p, post, ch in zip(bd.probabilities, bd.posteriors, obs.channels):
            want = collapse(state, ch)
            assert p == pytest.approx(want.probability, abs=1e-12)
            assert cheb_norm(post.matrix.entries - want.operator.matrix.entries) < 1e-10


def test_branch_decompose_incomplete_observable_rejected():
    obs = Observable(S2, (Eventuality.from_basis_states(S2, [0]),), ("half",))
    with pytest.raises(ValueError, match="total 1"):
        branch_decompose(ProbabilityOperator.isotropic(S2), obs)


def test_reduce_composite_bell():
    twin = CompositeSpace((S2, HilbertSpace(2, "twin")))
    bell = Vec(twin.space, np.array([1, 0, 0, 1]) / np.sqrt(2))
    reduced = reduce_composite(bell, twin, 0)
    assert cheb_norm(reduced.matrix.entries - np.eye(2) / 2) < 1e-12
    with pytest.raises(TypeError):
        reduce_composite(np.eye(4) / 4, twin, 0)


def test_reduce_composite_consistent_with_lift():
    rng = np.random.default_rng(73)
    comp = CompositeSpace((S2, HilbertSpace(3, "env")))
    local = basis_observable(S2, ("up", "down"))
    lifted = lift(local, comp)
    for _ in range(25):
        state = rand_state(rng, comp.space)
        reduced = reduce_composite(state, comp, 0)
        for ch, lch in zip(local.channels, lifted.channels):
            assert born(reduced, ch) == pytest.approx(born(state, lch), abs=1e-10)


def test_heisenberg_transport_hadamard():
    h = Op(S2, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    up = Eventuality.from_basis_states(S2, [0])
    moved = heisenberg_transport(up, h)
    # H^dag |0><0| H projects onto |+>
    want = np.full((2, 2), 0.5)
    assert cheb_norm(moved.projector.entries - want) < 1e-12


def test_heisenberg_transport_checks_the_unitary_once(monkeypatch):
    # One unitary check per observable, not one per channel; a non-unitary
    # is still refused before anything is transported.
    kinds = []
    check = qprob.engine.structure_check
    monkeypatch.setattr(qprob.engine, "structure_check", lambda m, kind, *a: kinds.append(kind) or check(m, kind, *a))
    space = HilbertSpace(8, "h")
    moved = heisenberg_transport(basis_observable(space), rand_unitary_op(np.random.default_rng(8), space))
    assert kinds == ["unitary"] and moved.channel_count == 8
    with pytest.raises(StructureError, match="transport needs a unitary: residual 3.000e"):
        heisenberg_transport(basis_observable(space), Op(space, 2 * np.eye(8)))
    assert kinds == ["unitary"] * 2


def test_heisenberg_transport_picture_equivalence():
    # Schrodinger picture u P u^dag with fixed events matches Heisenberg
    # picture fixed P with transported events.
    rng = np.random.default_rng(79)
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        space = HilbertSpace(dim, "h")
        state = rand_state(rng, space)
        u = rand_unitary_op(rng, space)
        e = rand_subspace(rng, space, int(rng.integers(1, dim + 1)))
        evolved = ProbabilityOperator.from_entries(
            space, u.entries @ state.matrix.entries @ u.entries.conj().T
        )
        assert born(evolved, e) == pytest.approx(
            born(state, heisenberg_transport(e, u)), abs=1e-10
        )


def test_heisenberg_transport_observable_and_guards():
    u = rand_unitary_op(np.random.default_rng(83), S2)
    obs = basis_observable(S2, ("a", "b"))
    moved = heisenberg_transport(obs, u)
    assert moved.labels == ("a", "b")
    from qprob import validate_observable

    assert validate_observable(moved).passed
    with pytest.raises(StructureError, match="unitary"):
        heisenberg_transport(obs, Op(S2, np.diag([1.0, 0.5])))
    with pytest.raises(TypeError):
        heisenberg_transport(np.eye(2), u)
    with pytest.raises(SpaceMismatchError):
        heisenberg_transport(Eventuality.certain(S4), u)


def test_correlation_check_perfect():
    state = ProbabilityOperator.diagonal(CAT_COMP.space, [0.5, 0.0, 0.0, 0.5])
    rows = lift(basis_observable(HilbertSpace(2, "detector"), ("up", "down")), CAT_COMP)
    cols = lift(basis_observable(HilbertSpace(2, "cat"), ("awake", "asleep")), CAT_COMP)
    report = correlation_check(state, rows, cols)
    assert report.counts_match
    assert report.off_diagonal_mass == pytest.approx(0.0, abs=1e-14)
    assert report.max_conditional_deviation == pytest.approx(0.0, abs=1e-14)
    assert report.adequately_correlated and bool(report)


def test_correlation_check_cat_box_imperfect():
    rows = lift(basis_observable(HilbertSpace(2, "detector"), ("up", "down")), CAT_COMP)
    cols = lift(basis_observable(HilbertSpace(2, "cat"), ("awake", "asleep")), CAT_COMP)
    tight = correlation_check(CAT_STATE, rows, cols)
    assert tight.off_diagonal_mass == pytest.approx(0.05, abs=1e-12)
    assert tight.max_conditional_deviation == pytest.approx(0.1, abs=1e-12)
    assert not tight.adequately_correlated
    loose = correlation_check(CAT_STATE, rows, cols, tol=0.2)
    assert loose.adequately_correlated


def test_correlation_check_refuses_a_nan_tolerance():
    z = basis_observable(S2)
    state = ProbabilityOperator.diagonal(S2, [0.5, 0.5])
    with pytest.raises(ValueError, match="^tolerance must be positive, got nan$"):
        correlation_check(state, z, z, tol=float("nan"))


def test_correlation_check_skips_zero_rows():
    state = ProbabilityOperator.diagonal(CAT_COMP.space, [1.0, 0.0, 0.0, 0.0])
    rows = lift(basis_observable(HilbertSpace(2, "detector"), ("up", "down")), CAT_COMP)
    cols = lift(basis_observable(HilbertSpace(2, "cat"), ("awake", "asleep")), CAT_COMP)
    report = correlation_check(state, rows, cols)
    assert report.skipped_rows == (1,)
    assert report.adequately_correlated


def test_correlation_report_of_a_joint_table_matches_correlation_check():
    detector = basis_observable(HilbertSpace(2, "detector"), ("up", "down"))
    cat = basis_observable(HilbertSpace(2, "cat"), ("awake", "asleep"))
    jm = joint_matrix(CAT_STATE, detector, cat, comp=CAT_COMP)
    lifted = (lift(detector, CAT_COMP), lift(cat, CAT_COMP))
    for tol, threshold in ((1e-10, 1e-12), (0.2, 0.5)):
        report = CorrelationReport.of(jm, tol, threshold)
        assert report == correlation_check(CAT_STATE, *lifted, tol=tol, threshold=threshold)
    assert CorrelationReport.of(jm, 0.2, 0.5).skipped_rows == (0, 1)  # both marginals are 0.5


def _correlation_by_loop(jm, tol, threshold):
    """CorrelationReport.of as a loop over rows and cells: the oracle."""
    n, k = jm.values.shape
    marginals = jm.row_marginals()
    worst, skipped = 0.0, []
    for i in range(n):
        if marginals[i] <= threshold:
            skipped.append(i)
            continue
        row = jm.values[i] / marginals[i]
        for j in range(k):
            worst = max(worst, abs(row[j] - (1.0 if i == j else 0.0)))
    off_mass = float(jm.values.sum() - np.trace(jm.values[: min(n, k), : min(n, k)]))
    return CorrelationReport(n, k, off_mass, worst, tuple(skipped), tol)


def test_correlation_report_of_matches_the_row_loop():
    rng = np.random.default_rng(44)
    shapes = [(n, k) for n in range(1, 7) for k in range(1, 7)]
    for trial in range(300):
        n, k = shapes[trial % len(shapes)]
        values = rng.random((n, k)) * (rng.random((n, 1)) < 0.7)  # some rows have marginal 0
        values[rng.integers(n), rng.integers(k)] += 1e-3  # never all zero
        rows, cols = basis_observable(HilbertSpace(n)), basis_observable(HilbertSpace(k))
        jm = JointProbabilityMatrix(rows, cols, values / values.sum())
        for threshold in (0.0, 1e-12, 0.2, 1.5):  # past 1 every row is skipped
            report = CorrelationReport.of(jm, 0.1, threshold)
            assert report == _correlation_by_loop(jm, 0.1, threshold), (n, k, threshold)
            if threshold > 1:
                assert report.skipped_rows == tuple(range(n)) and report.max_conditional_deviation == 0.0


def test_spectral_observable_feeds_joint():
    # spectral channels of commuting operators can be paired in a joint table
    m1 = Op(S4, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
    m2 = Op(S4, np.diag([2.0, 3.0, 2.0, 3.0]).astype(complex))
    q1 = spectral_observable(m1)
    q2 = spectral_observable(m2)
    jm = joint_matrix(ProbabilityOperator.isotropic(S4), q1.base, q2.base)
    assert jm.values == pytest.approx(np.full((2, 2), 0.25))
