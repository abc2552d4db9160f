"""qprob benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qprob is imported from its `src`. BLAS is
pinned to one thread. `--trace 0` runs the workload closed loop for S
seconds and reports the `end_to_end` metrics of BENCHMARK.json; `--trace 1`
reports its `per_layer` metrics: the cold-start breakdown, the BLAS
thread-count check, the scaling ladder, and one untraced then one traced
pass over the workload's fixed trace request set. The last stdout line is
the JSON result; the lines before it are a readable summary. Results (and
in a traced run the spans) are written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
from collections import Counter
import sys
import tempfile
import time
from pathlib import Path

from envinfo import THREAD_VARS  # stdlib only: numpy is not imported yet

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def mix_weights(keys: list[str]) -> list[float]:
    """1 / (samples of that request), so every request of the workload's
    mix weighs the same however the timed run's last cycle was cut."""
    counts = Counter(keys)
    return [1.0 / counts[k] for k in keys]


def weighted_quantile(values: list[float], weights: list[float], q: float) -> float:
    total = sum(weights)
    acc = 0.0
    for value, weight in sorted(zip(values, weights)):
        acc += weight
        if acc >= q * total:
            return value
    return max(values)


def setup(workload_cls, work: Path, seed: int):
    """Set the workload up SETUP_REPEATS times; the last instance and the
    median set-up time."""
    times = []
    for r in range(SETUP_REPEATS):
        directory = work / f"setup{r}"
        directory.mkdir()
        t0 = time.perf_counter()
        workload = workload_cls(ROOT, directory, seed)
        workload.setup()
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def end_to_end(workload, imports_s: float, setup_s: float, seconds: float):
    """Latency percentiles over every attempted request and throughput in
    completed requests per second of request wall time (the checker's own
    time is left out), both at the workload's mix: each distinct request
    weighs the same."""
    from workloads import Checker, run_timed

    t0 = time.perf_counter()
    samples, failures = run_timed(workload, Checker(workload.refs), seconds)
    elapsed = time.perf_counter() - t0
    keys, latencies, passed = zip(*samples)
    weights = mix_weights(keys)
    completed = sum(w for w, ok in zip(weights, passed) if ok)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    metrics = {
        "latency_ms.p50": weighted_quantile(latencies, weights, 0.5) * 1e3,
        "latency_ms.p90": weighted_quantile(latencies, weights, 0.9) * 1e3,
        "throughput_rps": completed / sum(w * t for w, t in zip(weights, latencies)),
        "setup_s": imports_s + setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    summary = [
        f"samples: {len(latencies)} requests ({len(set(keys))} distinct) in {elapsed:.1f} s, closed loop, one client",
        f"error_rate: {len(failures) / len(latencies):.4f} ({len(failures)} of {len(latencies)} failed)",
        f"setup: imports {imports_s:.3f} s + median of {SETUP_REPEATS} set-ups {setup_s:.3f} s",
    ]
    return metrics, len(latencies), failures, summary


def traced(workload, driver_threads: dict, work: Path, seed: int):
    import envinfo
    import ladder
    from tracing import LAYERS, Tracer, layer_metrics, top_self
    from workloads import Checker, DenseOperators, run_pass

    facts = envinfo.facts(driver_threads)
    metrics = envinfo.startup_breakdown(ROOT)
    dense = DenseOperators(ROOT, work / "blas", seed)
    dense.work.mkdir()
    dense.write_inputs()
    blas = envinfo.blas_thread_check(ROOT, dense.blas_argvs())
    (work / "ladder").mkdir()
    cells = ladder.run(work / "ladder", seed)

    requests = workload.trace_pass()
    check = Checker(workload.refs)
    busy_plain, failures = run_pass(workload, requests, check)
    tracer = Tracer()
    with tracer.installed():
        busy_traced, traced_failures = run_pass(workload, requests, check, tracer)
    failures += traced_failures

    metrics.update(layer_metrics(tracer.spans))
    metrics["trace.overhead_pct"] = (busy_traced / busy_plain - 1.0) * 100.0
    metrics["env.blas_threads_csv_match"] = 1.0 if blas["match"] else 0.0
    for cell in cells:
        metrics[cell["metric"]] = cell["ms"]
    metrics["ladder.cells_over_budget"] = sum(c["status"] == "skipped: over budget" for c in cells)

    ranking = sorted(LAYERS, key=lambda layer: -metrics[f"self.{layer}_ms"])
    summary = [f"env: {json.dumps(facts)}",
               f"blas threads 1 vs 2, {blas['requests']} dense-operators csv requests: "
               + ("bytes match" if blas["match"] else f"MISMATCH in {blas['mismatched']}"),
               f"traced pass: {len(requests)} requests x 2 (untraced {busy_plain:.2f} s, traced {busy_traced:.2f} s)",
               f"largest self-time layer: {ranking[0]}",
               "self time by layer (ms): " + ", ".join(f"{x} {metrics[f'self.{x}_ms']:.1f}" for x in ranking),
               "self time by span (ms): " + ", ".join(f"{n} {ms:.1f}" for n, ms in top_self(tracer.spans))]
    summary += [f"ladder {c['metric']}: {c['status']} {c['ms']:.2f} ms" for c in cells]
    extra = {"env": facts, "blas_check": blas, "ladder": cells, "largest_self_layer": ranking[0]}
    return metrics, 2 * len(requests), failures, summary, extra, tracer.spans


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "qprob" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no qprob source at {ROOT / 'src' / 'qprob'}; run from a checkout\n")
        return 2
    driver_threads = {var: os.environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = False

    import qprob.cli  # noqa: F401  (imported here so that set-up time includes it)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}\n")
        return 2
    declared = declared_metrics(args.trace)
    imports_s = time.perf_counter() - t_start

    (HERE / "tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "tmp"))
    try:
        workload, setup_s = setup(WORKLOADS[args.workload], work, args.seed)
        spans, extra = None, {}
        if args.trace:
            metrics, attempted, failures, summary, extra, spans = traced(
                workload, driver_threads, work, args.seed)
        else:
            metrics, attempted, failures, summary = end_to_end(workload, imports_s, setup_s, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(declared):
        sys.stderr.write(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}\n")
        return 2
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in declared.items()},
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    record = dict(result, workload=args.workload, why=workload.why, seed=args.seed,
                  seconds=args.seconds, failures=failures, **extra)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans is not None:
        (results / f"{stem}_spans.json").write_text(json.dumps(spans), encoding="utf-8")

    print(f"workload: {args.workload} (seed {args.seed}, trace {args.trace})")
    print(f"why: {workload.why}")
    for line in summary + [f"FAILED {f}" for f in failures[:20]]:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
