"""Byte-determinism on a dense state beyond the presets, across BLAS thread
counts: the same request prints the same csv bytes whether OpenBLAS runs
one thread or two.

The scenario is a seeded 16 x 16 composite (D = 256) in a dense pure state,
with a computational-basis observable on factor 1 and an observable on
factor 2 whose channels are the columns of a random unitary. `luder` and
`collapse` print D x D operators; `joint` and `conditional` print tables
computed from reduced operators. The same composite in a dense density
state (a 3.3 MB file, the heaviest payload a scenario carries) is
collapsed too.

A dense state on one space of dim 256, read through a basis of random
rank-1 channels and a coarse-graining of it into two rank-128 channels,
prints its `gross` and `joint` tables through the channel bases alone.
`joint` needs two factors, so that space is paired with one of dim 1,
which leaves every table on the one space.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
    [["luder", "--obs", "rotated-b"], ["collapse", "--on", "rotated-b:r3"], ["joint"], ["conditional"]],
)
def test_csv_bytes_do_not_depend_on_blas_threads(command, tmp_path):
    _assert_thread_independent(_dense_scenario(), command, tmp_path)


def test_density_state_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    _assert_thread_independent(_dense_scenario("density"), ["collapse", "--on", "rotated-b:r3"], tmp_path)


@pytest.mark.parametrize("command", [["gross"], ["joint", "--rows", "basis", "--cols", "coarse"]])
def test_single_space_tables_do_not_depend_on_blas_threads(command, tmp_path):
    _assert_thread_independent(_single_space_scenario(), command, tmp_path)
