"""Deterministic scenario documents for the benchmark.

Every scenario the program reads in the composite-tables, dense-operators
and ladder runs is made here from the seed: the same seed and shape give
the same bytes. Factors are named a, b, c; the observable on the first
factor is its standard basis ("a-std", channels a0, a1, ...), and every
other factor carries a seeded random-unitary basis ("b-rot", "c-rot"), so
the lifted projectors are dense. Two-factor documents also declare two
observers under entropic weighting, so `net` applies.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FACTOR_IDS = ("a", "b", "c")
STATE_KINDS = ("diagonal", "pure", "density")


def observable_id(factor: int) -> str:
    return f"{FACTOR_IDS[factor]}-std" if factor == 0 else f"{FACTOR_IDS[factor]}-rot"


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _state(rng: np.random.Generator, kind: str, dim: int) -> dict:
    if kind == "diagonal":
        w = rng.random(dim) + 0.05
        return {"kind": "diagonal", "weights": [float(x) for x in w / w.sum()]}
    if kind == "pure":
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return {"kind": "pure", "vector": _pairs(v / np.linalg.norm(v))}
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    m = m / np.trace(m).real
    return {"kind": "density", "matrix": [_pairs(row) for row in m]}


def scenario(seed: int, dims: tuple[int, ...], kind: str) -> dict:
    """A composite scenario over factors of the given dimensions."""
    rng = np.random.default_rng([seed, len(dims), *dims, STATE_KINDS.index(kind)])
    ids = FACTOR_IDS[: len(dims)]
    observables = []
    for f, n in enumerate(dims):
        basis = np.eye(n, dtype=np.complex128) if f == 0 else _random_unitary(rng, n)
        observables.append({
            "id": observable_id(f),
            "space": ids[f],
            "channels": [
                {"label": f"{ids[f]}{k}", "vectors": [_pairs(basis[:, k])]} for k in range(n)
            ],
        })
    doc = {
        "name": f"{kind}-{'x'.join(str(n) for n in dims)}",
        "kind": "quantum",
        "spaces": [{"id": i, "dim": n} for i, n in zip(ids, dims)],
        "composite": list(ids),
        "state": _state(rng, kind, int(np.prod(dims))),
        "observables": observables,
    }
    if len(dims) == 2:
        doc["observers"] = [
            {"id": "observer-a", "observable": observable_id(0), "lifetime": 1.0, "perception_duration": 1.0},
            {"id": "observer-b", "observable": observable_id(1), "lifetime": 2.0, "perception_duration": 0.5},
        ]
        doc["weighting"] = {"scheme": "entropic", "log_base": 2}
    return doc


def write(directory: Path, doc: dict) -> Path:
    path = directory / f"{doc['name']}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path
