"""Byte-determinism on a dense state beyond the presets, across BLAS thread
counts: the same request prints the same csv bytes whether OpenBLAS runs
one thread or two.

The scenario is a seeded 16 x 16 composite (D = 256) in a dense pure state,
with a computational-basis observable on factor 1 and an observable on
factor 2 whose channels are the columns of a random unitary, each read by
an observer. `luder`, `collapse` and `branches` print D x D operators,
formed from the pure state's branch vectors as F F^dag; `gross`, `joint`,
`conditional` and `net` print tables computed from reduced operators,
M M^dag or |v^dag M|^2 with M the state vector reshaped. The same
composite in a dense density state (a 3.3 MB file, the heaviest payload a
scenario carries) is collapsed, decohered and read as a conditional table
too: its D x D operator takes the matrix route of the sandwich.

Every zero that a pure state's operator holds by structure, off the
blocks of its branches, is +0.0, as the lifted sandwich wrote it, so csv
and json print 0.0 there and never -0.0.

A dense state on one space of dim 256, read through a basis of random
rank-1 channels and a coarse-graining of it into two rank-128 channels,
prints its `gross` and `joint` tables through the channel bases alone.
`joint` needs two factors, so that space is paired with one of dim 1,
which leaves every table on the one space.

A pure state on a 100 x 120 composite (D = 12,000) prints its `check`
residuals with the same bytes: OpenBLAS threads a dot product over a
vector this long, so the unit trace |psi|^2 is not read through BLAS.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qprob import branch_decompose, collapse, load_file, luder
from tests.helpers import json_pairs, rand_density, rand_unitary

N = 16


def _dense_scenario(kind: str = "pure") -> dict:
    rng = np.random.default_rng(20250)
    psi = rng.normal(size=N * N) + 1j * rng.normal(size=N * N)
    psi /= np.linalg.norm(psi)
    eye = np.eye(N, dtype=np.complex128)
    u = rand_unitary(rng, N)
    if kind == "pure":
        state = {"kind": "pure", "vector": json_pairs(psi)}
    else:
        state = {"kind": "density", "matrix": [json_pairs(row) for row in rand_density(rng, N * N)]}
    return {
        "name": "dense-16x16",
        "kind": "quantum",
        "spaces": [{"id": "a", "dim": N}, {"id": "b", "dim": N}],
        "composite": ["a", "b"],
        "state": state,
        "observers": [
            {"id": "observer-a", "observable": "basis-a", "lifetime": 1.0, "perception_duration": 1.0},
            {"id": "observer-b", "observable": "rotated-b", "lifetime": 2.0, "perception_duration": 0.5},
        ],
        "weighting": {"scheme": "entropic", "log_base": 2},
        "observables": [
            {
                "id": "basis-a",
                "space": "a",
                "channels": [{"label": f"k{k}", "vectors": [json_pairs(eye[:, k])]} for k in range(N)],
            },
            {
                "id": "rotated-b",
                "space": "b",
                "channels": [{"label": f"r{k}", "vectors": [json_pairs(u[:, k])]} for k in range(N)],
            },
        ],
    }


def _single_space_scenario() -> dict:
    d = 256
    rng = np.random.default_rng(20256)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    u = rand_unitary(rng, d)
    halves = (range(d // 2), range(d // 2, d))
    return {
        "name": "dense-256",
        "kind": "quantum",
        "spaces": [{"id": "s", "dim": d}, {"id": "unit", "dim": 1}],
        "composite": ["s", "unit"],
        "state": {"kind": "pure", "vector": json_pairs(psi / np.linalg.norm(psi))},
        "observables": [
            {
                "id": "basis",
                "space": "s",
                "channels": [{"label": f"k{k}", "vectors": [json_pairs(u[:, k])]} for k in range(d)],
            },
            {
                "id": "coarse",
                "space": "s",
                "channels": [
                    {"label": f"h{h}", "vectors": [json_pairs(u[:, k]) for k in half]} for h, half in enumerate(halves)
                ],
            },
        ],
    }


def _long_pure_scenario(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=100 * 120) + 1j * rng.normal(size=100 * 120)
    eye = np.eye(100)
    return {
        "name": "pure-100x120",
        "kind": "quantum",
        "spaces": [{"id": "a", "dim": 100}, {"id": "b", "dim": 120}],
        "composite": ["a", "b"],
        "state": {"kind": "pure", "vector": json_pairs(psi / np.linalg.norm(psi))},
        "observables": [
            {
                "id": "basis-a",
                "space": "a",
                "channels": [{"label": f"k{k}", "vectors": [json_pairs(eye[:, k])]} for k in range(100)],
            }
        ],
    }


def _assert_thread_independent(doc: dict, command: list, tmp_path) -> None:
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        run = subprocess.run(
            [sys.executable, "-m", "qprob", *command, "--scenario", str(path), "--format", "csv"],
            capture_output=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "command",
    [
        ["luder", "--obs", "rotated-b"],
        ["collapse", "--on", "rotated-b:r3"],
        ["branches", "--obs", "basis-a"],
        ["gross"],
        ["joint"],
        ["conditional"],
        ["net"],
    ],
)
def test_csv_bytes_do_not_depend_on_blas_threads(command, tmp_path):
    _assert_thread_independent(_dense_scenario(), command, tmp_path)


@pytest.mark.parametrize(
    "command", [["collapse", "--on", "rotated-b:r3"], ["luder", "--obs", "rotated-b"], ["conditional"]]
)
def test_density_state_csv_bytes_do_not_depend_on_blas_threads(command, tmp_path):
    _assert_thread_independent(_dense_scenario("density"), command, tmp_path)


@pytest.mark.parametrize("command", [["gross"], ["joint", "--rows", "basis", "--cols", "coarse"]])
def test_single_space_tables_do_not_depend_on_blas_threads(command, tmp_path):
    _assert_thread_independent(_single_space_scenario(), command, tmp_path)


# Seeds whose unit-trace residual, read by BLAS's threaded dot product,
# printed differently under one thread and two.
@pytest.mark.parametrize("seed", [12001, 12006])
def test_check_residuals_of_a_long_pure_state_do_not_depend_on_blas_threads(seed, tmp_path):
    _assert_thread_independent(_long_pure_scenario(seed), ["check"], tmp_path)


def test_structural_zeros_of_pure_state_operators_are_positive(tmp_path):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(_dense_scenario()), encoding="utf-8")
    scn = load_file(path)
    basis = scn.observables[0].observable  # its posteriors live on one block of rows and columns
    operators = [
        collapse(scn.state, basis.channels[3], comp=scn.composite).operator,
        luder(scn.state, basis, comp=scn.composite),
        *branch_decompose(scn.state, basis, comp=scn.composite).posteriors,
    ]
    for op in operators:
        entries = op.matrix.entries
        assert np.count_nonzero(entries == 0) >= N**3 * (N - 1)  # off the blocks
        for part in (entries.real, entries.imag):
            assert not np.signbit(part[part == 0]).any()
