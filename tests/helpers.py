"""Shared generators for the test suite: seeded random operators and
edited scenario files."""

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from qprob import Eventuality, HilbertSpace, Op, ProbabilityOperator, Vec

PRESETS = Path(__file__).resolve().parent.parent / "src" / "qprob" / "presets"


def variant(directory: Path, source: Path, edit) -> Path:
    """The scenario file `source` after edit(doc), written to `directory`."""
    doc = json.loads(source.read_text(encoding="utf-8"))
    edit(doc)
    path = directory / f"{source.stem}-variant.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def json_pairs(z) -> list:
    """Complex entries as the [re, im] pairs a scenario file writes."""
    return [[float(c.real), float(c.imag)] for c in z]


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary: QR of a Ginibre matrix with the R phases fixed."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def rand_density(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return m / np.trace(m).real


def rand_state(rng: np.random.Generator, space: HilbertSpace) -> ProbabilityOperator:
    return ProbabilityOperator.from_entries(space, rand_density(rng, space.dim))


def rand_pure(rng: np.random.Generator, space: HilbertSpace) -> Vec:
    v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return Vec(space, v / np.linalg.norm(v))


def rand_subspace(rng: np.random.Generator, space: HilbertSpace, rank: int) -> Eventuality:
    vecs = [rand_pure(rng, space) for _ in range(rank)]
    return Eventuality.from_span(space, vecs)


def rand_unitary_op(rng: np.random.Generator, space: HilbertSpace) -> Op:
    return Op(space, rand_unitary(rng, space.dim))


def on_fresh_stack(fn, *args):
    """fn(*args) on a new thread, whose stack starts out about as empty as
    that of a `python -m qprob` process. How deeply a document may nest
    before the decoder gives up depends on the frames beneath the call,
    and a test runner adds some thirty."""
    with ThreadPoolExecutor(1) as pool:
        return pool.submit(fn, *args).result()
