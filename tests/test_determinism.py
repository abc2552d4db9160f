"""Byte-determinism on a dense state beyond the presets, across BLAS thread
counts: the same request prints the same csv bytes whether OpenBLAS runs
one thread or two.

The scenario is a seeded 16 x 16 composite (D = 256) in a dense pure state,
with a computational-basis observable on factor 1 and an observable on
factor 2 whose channels are the columns of a random unitary.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tests.helpers import rand_unitary

N = 16


def _pairs(z: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in z]


def _dense_scenario() -> dict:
    rng = np.random.default_rng(20250)
    psi = rng.normal(size=N * N) + 1j * rng.normal(size=N * N)
    psi /= np.linalg.norm(psi)
    eye = np.eye(N, dtype=np.complex128)
    u = rand_unitary(rng, N)
    return {
        "name": "dense-16x16",
        "kind": "quantum",
        "spaces": [{"id": "a", "dim": N}, {"id": "b", "dim": N}],
        "composite": ["a", "b"],
        "state": {"kind": "pure", "vector": _pairs(psi)},
        "observables": [
            {
                "id": "basis-a",
                "space": "a",
                "channels": [{"label": f"k{k}", "vectors": [_pairs(eye[:, k])]} for k in range(N)],
            },
            {
                "id": "rotated-b",
                "space": "b",
                "channels": [{"label": f"r{k}", "vectors": [_pairs(u[:, k])]} for k in range(N)],
            },
        ],
    }


@pytest.mark.parametrize("command", [["luder", "--obs", "rotated-b"], ["collapse", "--on", "rotated-b:r3"]])
def test_csv_bytes_do_not_depend_on_blas_threads(command, tmp_path):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(_dense_scenario()), encoding="utf-8")
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
