"""Scaling ladder: one qprob primitive per cell, timed on composites of
growing dimension D, each cell in a child process with a wall-clock budget.

For every D and factorization a group child loads a generated dense pure
scenario (the `load_file` cell), lifts the first two factor observables
once, and forks one grandchild per primitive. A cell that does not report
within its budget is killed and recorded as "skipped: over budget"; its
metric value is the wall time at which it was cut, a lower bound on the
real cost. Lifted observables are fresh in every grandchild, so each call
also builds the projectors it needs, as a CLI invocation does.

Children are forked, not spawned: a spawned cell would pay the ~0.3 s
import of numpy and qprob again, more than most cells cost. The benchmark
process starts no threads and BLAS is pinned to one thread, so forking
is safe here.
"""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path

from inputs import scenario, write

PRIMITIVES = ("load_file", "born", "joint_matrix", "collapse", "luder", "reduce_composite")
SHAPES = {
    16: ((4, 4), (2, 2, 4)),
    64: ((8, 8), (4, 4, 4)),
    256: ((16, 16), (4, 8, 8)),
    1024: ((32, 32), (8, 8, 16)),
}
LOAD_BUDGET_S = 3.0
CELL_BUDGET_S = 1.0
# Time a child may take beyond its budget to report or to exit.
GRACE_S = 2.0

_fork = multiprocessing.get_context("fork")


def metric_name(primitive: str, dim: int, factors: int) -> str:
    return f"ladder.{primitive}.D{dim}_{factors}f_ms"


def _timed(conn, fn) -> None:
    t0 = time.perf_counter()
    fn()
    conn.send((time.perf_counter() - t0) * 1e3)


def _in_child(fn, budget_s: float) -> tuple[str, float]:
    """Run fn in a forked child and return (status, ms); a cut cell
    reports the wall time at which it was cut."""
    recv, send = _fork.Pipe(duplex=False)
    child = _fork.Process(target=_timed, args=(send, fn))
    t0 = time.perf_counter()
    child.start()
    send.close()
    try:
        if recv.poll(budget_s):
            return "ok", recv.recv()
        return "skipped: over budget", (time.perf_counter() - t0) * 1e3
    except EOFError:
        return "failed", (time.perf_counter() - t0) * 1e3
    finally:
        recv.close()
        child.kill()
        child.join()


def _group(conn, path: str) -> None:
    from qprob import engine
    from qprob.observables import lift
    from qprob.scenario import load_file

    t0 = time.perf_counter()
    scn = load_file(path)
    conn.send(("load_file", "ok", (time.perf_counter() - t0) * 1e3))
    comp, state = scn.composite, scn.state
    obs = [so.observable for so in scn.observables]

    def lifted(k):
        return lift(obs[k], comp)

    calls = {
        "born": lambda: engine.born(state, lifted(1).channels[0]),
        "joint_matrix": lambda: engine.joint_matrix(state, lifted(0), lifted(1)),
        "collapse": lambda: engine.collapse(state, lifted(1).channels[0]),
        "luder": lambda: engine.luder(state, lifted(1)),
        "reduce_composite": lambda: engine.reduce_composite(state, comp, 0),
    }
    for name, fn in calls.items():
        conn.send((name, *_in_child(fn, CELL_BUDGET_S)))


def _run_group(path: Path) -> dict[str, tuple[str, float]]:
    recv, send = _fork.Pipe(duplex=False)
    group = _fork.Process(target=_group, args=(send, str(path)))
    t0 = time.perf_counter()
    group.start()
    send.close()
    out: dict[str, tuple[str, float]] = {}
    try:
        for budget in [LOAD_BUDGET_S] + [CELL_BUDGET_S + GRACE_S] * (len(PRIMITIVES) - 1):
            if not recv.poll(budget):
                break
            name, status, ms = recv.recv()
            out[name] = (status, ms)
    except EOFError:
        pass
    finally:
        recv.close()
        group.kill()
        group.join()
    if "load_file" not in out:
        out["load_file"] = ("skipped: over budget", (time.perf_counter() - t0) * 1e3)
        missing = "skipped: load over budget"
    else:
        missing = "failed"
    for name in PRIMITIVES:
        out.setdefault(name, (missing, 0.0))
    return out


def run(work: Path, seed: int) -> list[dict]:
    """Every (primitive, D, factors) cell, including the skipped ones."""
    import qprob.cli  # noqa: F401  (imported once here, not in every child)

    rows = []
    for dim, shapes in SHAPES.items():
        for dims in shapes:
            path = write(work, scenario(seed, dims, "pure"))
            for name, (status, ms) in _run_group(path).items():
                rows.append({
                    "metric": metric_name(name, dim, len(dims)),
                    "primitive": name, "D": dim, "dims": list(dims),
                    "status": status,
                    "ms": ms,
                })
    return rows
