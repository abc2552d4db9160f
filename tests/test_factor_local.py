"""Composite tables from reduced operators equal the lifted computation.

On a composite, the CLI computes the gross, joint, conditional and net
tables from the state reduced to the factors involved, and the collapse,
luder and branches operators from the state compressed to each channel's
range; it never lifts a factor observable to a D x D projector. These
tests hold the gross, joint and net tables, and the library's `born` and
`joint_matrix` with `comp=`, against the textbook tr(P a_i b_j) on D x D
projectors that the test builds with `np.kron`, and the other outputs
against the library's lifted route (`lift`, then `conditional`,
`collapse`, `luder`, `branch_decompose`), on seeded two- and three-factor
composites in diagonal, dense pure and density states, with
random-unitary factor observables. They also pin what the dropped runtime
commutation check guaranteed: lifts of observables on different factors
commute, while a pair on one factor is still checked.
"""

import json

import numpy as np
import pytest

import qprob.observables
from qprob import (
    CompositeSpace,
    Eventuality,
    HilbertSpace,
    Observable,
    Scheme,
    StructureError,
    Vec,
    ZeroProbabilityError,
    born,
    branch_decompose,
    cheb_norm,
    collapse,
    conditional,
    joint_matrix,
    lift,
    luder,
    net_table,
    tensor,
)
from qprob.cli import Options, main, run_command
from qprob.scenario import load_file
from tests.helpers import json_pairs, rand_density, rand_pure, rand_unitary

TOL = 1e-12
KINDS = ("diagonal", "pure", "density")
CASES = [(dims, kind) for dims in ((3, 4), (2, 3, 2)) for kind in KINDS]


def _observable(oid: str, space: str, columns: list[np.ndarray]) -> dict:
    return {
        "id": oid,
        "space": space,
        "channels": [
            {"label": f"{oid}-{k}", "vectors": [json_pairs(col) for col in group]} for k, group in enumerate(columns)
        ],
    }


def _state(rng: np.random.Generator, kind: str, dim: int) -> dict:
    if kind == "diagonal":
        w = rng.random(dim)
        return {"kind": "diagonal", "weights": [float(x) for x in w / w.sum()]}
    if kind == "pure":
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return {"kind": "pure", "vector": json_pairs(v / np.linalg.norm(v))}
    return {"kind": "density", "matrix": [json_pairs(row) for row in rand_density(rng, dim)]}


def _scenario(dims: tuple[int, ...], kind: str) -> dict:
    """Factor k carries `f{k}`, a random-unitary basis. Factor 0 also
    carries `coarse`, which merges the first two channels of `f0` and so
    commutes with it, and `tilted`, another random basis, which does not."""
    rng = np.random.default_rng([len(dims), *dims, KINDS.index(kind)])
    spaces = [f"s{k}" for k in range(len(dims))]
    observables = []
    for k, n in enumerate(dims):
        u = rand_unitary(rng, n)
        observables.append(_observable(f"f{k}", spaces[k], [[u[:, j]] for j in range(n)]))
        if k == 0:
            observables.append(_observable("coarse", spaces[0], [[u[:, 0], u[:, 1]]] + [[u[:, j]] for j in range(2, n)]))
            v = rand_unitary(rng, n)
            observables.append(_observable("tilted", spaces[0], [[v[:, j]] for j in range(n)]))
    return {
        "name": f"{kind}-{'x'.join(map(str, dims))}",
        "kind": "quantum",
        "spaces": [{"id": s, "dim": n} for s, n in zip(spaces, dims)],
        "composite": spaces,
        "state": _state(rng, kind, int(np.prod(dims))),
        "observables": observables,
        "observers": [
            {"id": "first", "observable": "f0", "lifetime": 1.0, "perception_duration": 1.0},
            {"id": "last", "observable": f"f{len(dims) - 1}", "lifetime": 2.0, "perception_duration": 0.5},
        ],
        "weighting": {"scheme": "entropic", "log_base": 2},
    }


def _write(tmp_path, doc: dict):
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _load(tmp_path, doc: dict):
    return load_file(_write(tmp_path, doc))


def _json_tables(capsys, path, *argv) -> dict[str, np.ndarray]:
    """The tables of a `--format json` run by caption; a complex cell is
    an [re, im] pair, a real one a number."""
    assert main([*argv, "--scenario", str(path), "--format", "json"]) == 0
    return {
        section["caption"]: np.array([[complex(*c) if isinstance(c, list) else c for c in row]
                                      for row in section["cells"]])
        for section in json.loads(capsys.readouterr().out)["sections"]
        if section["kind"] == "table"
    }


def _cells(report, caption: str) -> np.ndarray:
    return next(s for s in report.sections if s.caption == caption).cells


def _lifted(scn, oid: str):
    return lift(scn.observable_by_id(oid).observable, scn.composite)


def _kron_lift(scn, oid: str) -> list[np.ndarray]:
    """The D x D projectors I x a_i x I of an observable's channels."""
    comp, obs = scn.composite, scn.observable_by_id(oid).observable
    k = comp.factor_index(obs.space)
    before, after = np.eye(comp.dim_before(k)), np.eye(comp.dim_after(k))
    return [np.kron(np.kron(before, ch.projector.entries), after) for ch in obs.channels]


def _trace_table(state, rows: list[np.ndarray], cols: list[np.ndarray] | None = None) -> np.ndarray:
    """tr(P a_i b_j) over D x D projectors; tr(P a_i) without cols."""
    m = state.matrix.entries
    if cols is None:
        return np.array([np.trace(m @ a).real for a in rows])
    return np.array([[np.trace(m @ a @ b).real for b in cols] for a in rows])


def _close(got, want) -> None:
    assert np.abs(np.asarray(got) - np.clip(want, 0.0, 1.0)).max() <= TOL


def _same_operator(got, want) -> None:
    assert cheb_norm(got - want.matrix.entries) <= TOL


@pytest.mark.parametrize("dims, kind", CASES)
def test_gross_matches_lifted(tmp_path, dims, kind):
    scn = _load(tmp_path, _scenario(dims, kind))
    report = run_command("gross", scn, Options())
    for sobs in scn.observables:
        want = _trace_table(scn.state, _kron_lift(scn, sobs.id))
        _close(_cells(report, f"gross probabilities: observable '{sobs.id}'")[:, 0], want)


@pytest.mark.parametrize("dims, kind", CASES)
def test_joint_matches_lifted(tmp_path, dims, kind):
    scn = _load(tmp_path, _scenario(dims, kind))
    factor_obs = [f"f{k}" for k in range(len(dims))]
    pairs = [(a, b) for a in factor_obs for b in factor_obs if a != b]
    pairs += [("f0", "coarse"), ("coarse", "f0")]  # one factor, commuting
    for rows, cols in pairs:
        report = run_command("joint", scn, Options(rows=rows, cols=cols))
        want = _trace_table(scn.state, _kron_lift(scn, rows), _kron_lift(scn, cols))
        _close(_cells(report, f"joint probabilities: rows '{rows}', columns '{cols}'"), want)


@pytest.mark.parametrize("dims, kind", CASES)
def test_conditional_matches_lifted(tmp_path, dims, kind):
    scn = _load(tmp_path, _scenario(dims, kind))
    rows, target = _lifted(scn, "f0"), _lifted(scn, "f1")
    report = run_command("conditional", scn, Options())
    want = [conditional(scn.state, ch, target) for ch in rows.channels]
    _close(_cells(report, "probabilities of 'f1' given channels of 'f0'"), want)

    last = f"f{len(dims) - 1}"
    requests = [(last, "f0"), ("f0", last), ("tilted", "f0"), ("f1", "f1")]  # the last two: target on the given's factor
    for given, tgt in requests:
        lifted_given, lifted_target = _lifted(scn, given), _lifted(scn, tgt)
        for label, ch in zip(lifted_given.labels, lifted_given.channels):
            report = run_command("conditional", scn, Options(given=f"{given}:{label}", target=tgt))
            got = _cells(report, f"probabilities of '{tgt}' given '{given}:{label}'")[0]
            _close(got, conditional(scn.state, ch, lifted_target))


@pytest.mark.parametrize("dims, kind", CASES)
def test_net_matches_lifted(tmp_path, dims, kind):
    scn = _load(tmp_path, _scenario(dims, kind))
    report = run_command("net", scn, Options())
    gross = [_trace_table(scn.state, _kron_lift(scn, scn.perceives[o.id].id)) for o in scn.observers]
    table = net_table(Scheme("entropic", 2), scn.observers, gross)
    cells = _cells(report, "net perception probabilities")
    _close(cells[:, 0], np.concatenate(table.gross))
    _close(cells[:, 1], np.concatenate(table.net))
    if len(dims) == 2:
        want = _trace_table(scn.state, _kron_lift(scn, "f0"), _kron_lift(scn, "f1"))
        _close(_cells(report, "joint gross probabilities: rows 'f0', columns 'f1'"), want)


@pytest.mark.parametrize("dims, kind", CASES)
def test_library_tables_take_comp(tmp_path, dims, kind):
    scn = _load(tmp_path, _scenario(dims, kind))
    comp, obs = scn.composite, {so.id: so.observable for so in scn.observables}
    for oid in obs:
        want = _trace_table(scn.state, _kron_lift(scn, oid))
        assert np.abs(born(scn.state, obs[oid], comp=comp) - want).max() <= TOL
        for ch, p in zip(obs[oid].channels, want):
            got = born(scn.state, ch, comp=comp)
            assert isinstance(got, float) and abs(got - p) <= TOL

    factor_obs = [f"f{k}" for k in range(len(dims))]
    pairs = [(a, b) for a in factor_obs for b in factor_obs if a != b]
    pairs += [("f0", "coarse"), ("coarse", "f0")]  # one factor, commuting
    for rows, cols in pairs:
        jm = joint_matrix(scn.state, obs[rows], obs[cols], comp=comp)
        assert np.abs(jm.values - _trace_table(scn.state, _kron_lift(scn, rows), _kron_lift(scn, cols))).max() <= TOL

    pa, pb = obs["f0"].channels[0].projector.entries, obs["tilted"].channels[0].projector.entries
    message = f"channels 'f0-0' and 'tilted-0' do not commute: residual {cheb_norm(pa @ pb - pb @ pa):.3e} exceeds 1e-10"
    with pytest.raises(StructureError) as error:
        joint_matrix(scn.state, obs["f0"], obs["tilted"], comp=comp)
    assert str(error.value) == message


@pytest.mark.parametrize("dims, kind", CASES)
def test_operator_commands_match_lifted(tmp_path, capsys, dims, kind):
    # `tilted` is a rotated basis and `coarse` has a rank-2 channel, both on
    # the first factor; the last factor's basis has the most factors before it.
    path = _write(tmp_path, _scenario(dims, kind))
    scn = load_file(path)
    for oid in ("tilted", "coarse", f"f{len(dims) - 1}"):
        lifted = _lifted(scn, oid)
        tables = _json_tables(capsys, path, "luder", "--obs", oid)
        want = luder(scn.state, lifted)
        probs = tables[f"channel probabilities under the decohered operator (observable '{oid}')"]
        _close(probs[:, 0], [born(want, ch) for ch in lifted.channels])
        _same_operator(tables["decohered operator"], want)

        tables = _json_tables(capsys, path, "branches", "--obs", oid)
        bd = branch_decompose(scn.state, lifted)
        _close(tables[f"branch probabilities (observable '{oid}')"][:, 0], bd.probabilities)
        for label, post in zip(lifted.labels, bd.posteriors):
            _same_operator(tables[f"branch '{label}': a-posteriori operator"], post)

        for label, ch in zip(lifted.labels, lifted.channels):
            tables = _json_tables(capsys, path, "collapse", "--on", f"{oid}:{label}")
            _same_operator(tables[f"a-posteriori operator given '{oid}:{label}'"], collapse(scn.state, ch).operator)


def test_zero_probability_branch_matches_lifted(tmp_path, capsys):
    path = _write(tmp_path, _qubit_pair_scenario([0.2, 0.1, 0.7, 0.0, 0.0, 0.0]))
    scn = load_file(path)
    lifted = _lifted(scn, "za")
    bd = branch_decompose(scn.state, lifted)
    assert bd.zero_channels == (1,) and bd.posteriors[1] is None
    tables = _json_tables(capsys, path, "branches", "--obs", "za")
    _close(tables["branch probabilities (observable 'za')"][:, 0], bd.probabilities)
    _same_operator(tables["branch 'za-0': a-posteriori operator"], bd.posteriors[0])
    assert "branch 'za-1': a-posteriori operator" not in tables

    with pytest.raises(ZeroProbabilityError) as lifted_error:
        collapse(scn.state, lifted.channels[1])
    assert main(["collapse", "--scenario", str(path), "--on", "za:za-1"]) == 2
    assert capsys.readouterr().err == f"qprob: error: {lifted_error.value}\n"


@pytest.mark.parametrize("dims", [(3, 4), (2, 3, 2)])
def test_branch_vectors_match_lifted_projectors(tmp_path, dims):
    scn = _load(tmp_path, _scenario(dims, "pure"))
    rng = np.random.default_rng(list(dims))
    vec = rand_pure(rng, scn.composite.space)
    for sobs in scn.observables:
        lifted = _lifted(scn, sobs.id)
        got = branch_decompose(vec, sobs.observable, comp=scn.composite)
        want = branch_decompose(vec, lifted)
        _close(got.probabilities, want.probabilities)
        for branch, ch in zip(got.branch_vectors, lifted.channels):
            assert branch.space == scn.composite.space
            assert cheb_norm(branch.components - (ch.projector @ vec).components) <= TOL


def test_zero_probability_branch_vector_is_zero():
    comp = CompositeSpace((HilbertSpace(2, "a"), HilbertSpace(3, "b")))
    rng = np.random.default_rng(7)
    vec = tensor(Vec(comp.factors[0], [1, 0]), rand_pure(rng, comp.factors[1]))
    z = Observable(comp.factors[0], tuple(Eventuality.from_basis_states(comp.factors[0], [k]) for k in range(2)))
    bd = branch_decompose(vec, z, comp=comp)
    assert bd.zero_channels == (1,) and bd.posteriors[1] is None
    assert cheb_norm(bd.branch_vectors[0].components - vec.components) <= TOL
    assert cheb_norm(bd.branch_vectors[1].components) == 0.0


def test_composite_commands_never_lift(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a factor eventuality was lifted to the composite")

    monkeypatch.setattr(qprob.observables, "lift_eventuality", refuse)
    # On (3, 4), which has two factors, `check` computes its joint table too.
    for dims in ((2, 3, 2), (3, 4)):
        scn = _load(tmp_path, _scenario(dims, "density"))
        requests = [
            ("collapse", Options(on="tilted:tilted-1")),
            ("luder", Options(obs="coarse")),
            ("branches", Options(obs=f"f{len(dims) - 1}")),
            ("conditional", Options()),
            ("conditional", Options(given="tilted:tilted-0", target="f0")),
            ("gross", Options()),
            ("joint", Options()),
            ("joint", Options(rows="f0", cols="coarse")),
            ("net", Options()),
            ("check", Options()),
        ]
        for command, opts in requests:
            run_command(command, scn, opts)


@pytest.mark.parametrize("dims", [(3, 4), (2, 3, 2)])
def test_lifts_on_different_factors_commute(tmp_path, dims):
    # The guarantee that lets joint tables skip the commutation check for
    # observables on different factors.
    scn = _load(tmp_path, _scenario(dims, "density"))
    lifted = {so.id: _lifted(scn, so.id) for so in scn.observables}
    for a in scn.observables:
        for b in scn.observables:
            if a.observable.space == b.observable.space:
                continue
            for ea in lifted[a.id].channels:
                for eb in lifted[b.id].channels:
                    pa, pb = ea.projector.entries, eb.projector.entries
                    assert cheb_norm(pa @ pb - pb @ pa) <= 1e-14


def _qubit_pair_scenario(weights) -> dict:
    s = 2 ** -0.5
    return {
        "name": "qubit-pair",
        "kind": "quantum",
        "spaces": [{"id": "a", "dim": 2}, {"id": "b", "dim": 3}],
        "composite": ["a", "b"],
        "state": {"kind": "diagonal", "weights": weights},
        "observables": [
            _observable("za", "a", [[np.array([1, 0])], [np.array([0, 1])]]),
            _observable("xa", "a", [[np.array([s, s])], [np.array([s, -s])]]),
            _observable("zb", "b", [[col] for col in np.eye(3)]),
        ],
    }


def test_same_factor_noncommuting_pair_exits_two(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_qubit_pair_scenario([0.2, 0.0, 0.1, 0.0, 0.0, 0.7])), encoding="utf-8")
    code = main(["joint", "--scenario", str(path), "--rows", "za", "--cols", "xa"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "qprob: error: channels 'za-0' and 'xa-0' do not commute: residual 5.000e-01 exceeds 1e-10\n"


def test_zero_probability_rows_are_skipped(tmp_path):
    scn = _load(tmp_path, _qubit_pair_scenario([0.2, 0.1, 0.7, 0.0, 0.0, 0.0]))
    report = run_command("conditional", scn, Options())
    table = next(s for s in report.sections if s.caption == "probabilities of 'zb' given channels of 'za'")
    assert table.row_labels == ("za:za-0",)
    _close(table.cells[0], [0.2, 0.1, 0.7])
    skipped = next(s for s in report.sections if s.caption == "skipped rows")
    assert skipped.lines == ("'za:za-1': zero probability, cannot condition",)


def _two_qubit_scenario(state: dict) -> dict:
    s = 2 ** -0.5
    return {
        "name": "two-qubit",
        "kind": "quantum",
        "spaces": [{"id": "a", "dim": 2}, {"id": "b", "dim": 2}],
        "composite": ["a", "b"],
        "state": state,
        "observables": [
            _observable("xa", "a", [[np.array([s, s])], [np.array([s, -s])]]),
            _observable("zb", "b", [[col] for col in np.eye(2)]),
        ],
        "observers": [
            {"id": "first", "observable": "xa", "lifetime": 1.0, "perception_duration": 1.0},
            {"id": "second", "observable": "zb", "lifetime": 2.0, "perception_duration": 0.5},
        ],
        "weighting": {"scheme": "entropic", "log_base": 2},
    }


def test_gross_and_net_read_the_reduced_state_unchecked(tmp_path, capsys):
    # The state passes its load check (smallest eigenvalue -8e-11), but its
    # reduction to factor b has eigenvalue -1.6e-10. Like the lifted route,
    # gross and net read that reduction without checking it again.
    doc = _two_qubit_scenario({"kind": "diagonal", "weights": [1 + 1.6e-10, -8e-11, 0.0, -8e-11]})
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("gross", "net"):
        assert main([command, "--scenario", str(path)]) == 0, capsys.readouterr().err
    scn = load_file(path)
    report = run_command("gross", scn, Options())
    want = [born(scn.state, ch) for ch in _lifted(scn, "zb").channels]
    _close(_cells(report, "gross probabilities: observable 'zb'")[:, 0], want)


@pytest.mark.parametrize("plus_weight", [1.0, 0.5])
def test_conditional_reads_the_hermitian_residual_of_the_lift(tmp_path, capsys, plus_weight):
    # rho = (w |+><+| + (1 - w) |-><-|) x diag(0.3, 0.7) plus i delta / 2 (J x sigma_x),
    # J the all-ones 2 x 2 matrix and delta = 8e-11, the state's own hermitian
    # residual. Given xa:xa-0 = |+>, p = w and e P e / p has hermitian
    # residual delta / w; compressed to the range of |+>, the largest
    # anti-hermitian entry doubles, so the check must be read on the lift.
    ones, sigma_x = np.ones((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])
    on_a = plus_weight * ones / 2 + (1 - plus_weight) * (2 * np.eye(2) - ones) / 2
    matrix = np.kron(on_a, np.diag([0.3, 0.7])) + 0.5j * 8e-11 * np.kron(ones, sigma_x)
    doc = _two_qubit_scenario({"kind": "density", "matrix": [json_pairs(row) for row in matrix]})
    path = tmp_path / "skew.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["conditional", "--scenario", str(path), "--given", "xa:xa-0", "--target", "zb"]
    code = main(argv)
    captured = capsys.readouterr()
    if plus_weight == 1.0:
        assert code == 0, captured.err
        report = run_command("conditional", load_file(path), Options(given="xa:xa-0", target="zb"))
        _close(_cells(report, "probabilities of 'zb' given 'xa:xa-0'")[0], [0.3, 0.7])
    else:
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "qprob: error: probability operator must be hermitian: residual 1.600e-10 exceeds 1e-10\n"
        )


@pytest.mark.parametrize("command", ["gross", "joint", "conditional", "luder"])
def test_many_unit_factors_match_the_two_factor_document(tmp_path, capsys, command):
    # 27 factors, one qubit and 26 of dim 1, describe the same system as
    # the qubit and one dim-1 factor: the tables agree exactly.
    rng = np.random.default_rng(27)
    doc = _two_qubit_scenario({"kind": "density", "matrix": [json_pairs(row) for row in rand_density(rng, 2)]})
    doc["spaces"][1]["dim"] = 1
    doc["observables"][1] = _observable("zb", "b", [[np.array([1])]])
    del doc["observers"], doc["weighting"]
    tables = []
    for extra in (0, 25):
        doc["spaces"][2:] = [{"id": f"c{k}", "dim": 1} for k in range(extra)]
        doc["composite"] = [space["id"] for space in doc["spaces"]]
        path = tmp_path / f"units-{extra}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        tables.append(_json_tables(capsys, path, command))
    two, many = tables
    assert list(two) == list(many) and all(np.array_equal(two[c], many[c]) for c in two)
