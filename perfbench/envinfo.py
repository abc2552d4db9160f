"""Machine facts, the cold-start breakdown and the BLAS thread-count check."""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Interpreter settings that change how fast a child starts or writes.
_SPEED_VARS = ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED", "PYTHONDEVMODE", "PYTHONPROFILEIMPORTTIME")
STARTUP_REPEATS = 3

_DIGEST_CHILD = """
import contextlib, hashlib, io, json, sys
from qprob.cli import main
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    print(code, hashlib.sha256(buf.getvalue().encode()).hexdigest())
"""


def child_env(root: Path, blas_threads: int = 1) -> dict:
    """Environment for qprob child processes: the checkout's src first on
    the path, BLAS pinned, bytecode caching on."""
    env = {k: v for k, v in os.environ.items() if k not in _SPEED_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = str(blas_threads)
    return env


def facts(driver_threads: dict) -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env_given": driver_threads,
        "thread_env_used": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _importtime(root: Path) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qprob.cli"],
        env=child_env(root), capture_output=True, text=True, check=True, cwd=root,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].strip()
            cumulative.setdefault(name, int(parts[1]) / 1e3)
    return cumulative


def startup_breakdown(root: Path) -> dict[str, float]:
    """Medians over a few children: bare interpreter wall time, and the
    cumulative `-X importtime` cost of numpy, jsonschema and qprob's own
    modules inside `import qprob.cli`."""
    interp, numpy_ms, jsonschema_ms, qprob_ms = [], [], [], []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(root), check=True, cwd=root)
        interp.append((time.perf_counter() - t0) * 1e3)
        cum = _importtime(root)
        numpy_ms.append(cum.get("numpy", 0.0))
        jsonschema_ms.append(cum.get("jsonschema", 0.0))
        qprob_ms.append(cum["qprob.cli"] - numpy_ms[-1] - jsonschema_ms[-1])
    return {
        "startup.interpreter_ms": statistics.median(interp),
        "startup.import_numpy_ms": statistics.median(numpy_ms),
        "startup.import_jsonschema_ms": statistics.median(jsonschema_ms),
        "startup.import_qprob_ms": statistics.median(qprob_ms),
    }


def blas_thread_check(root: Path, argvs: list[list[str]]) -> dict:
    """Stdout digests of the given csv requests under 1 and 2 BLAS threads."""
    runs = {}
    for threads in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_CHILD, json.dumps(argvs)],
            env=child_env(root, threads), capture_output=True, text=True, check=True, cwd=root,
        )
        runs[threads] = proc.stdout.split("\n")
    mismatched = [" ".join(a) for a, x, y in zip(argvs, runs[1], runs[2]) if x != y]
    return {"requests": len(argvs), "match": not mismatched, "mismatched": mismatched}
