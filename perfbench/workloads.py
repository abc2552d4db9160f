"""The three workloads: request sets, how a request runs, how it is checked.

All run closed loop with one client: the next request starts when the
previous one has returned. Request order is a fixed cycle; the seed
makes the generated scenario data.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from envinfo import child_env
from reference import Reference, check_json, check_output, digest
from tracing import Tracer, now_ns

FORMATS = ("text", "csv", "json")
# At least ten samples beyond the 90th percentile.
MIN_REQUESTS = 100
MAX_EXTENSION = 0.1


@dataclass(frozen=True)
class Request:
    key: str
    argv: tuple[str, ...]
    fmt: str
    scenario: str | None = None  # name of the Reference that checks json output
    command: str = ""
    params: dict = field(default_factory=dict)
    expect: tuple[int, ...] = (0,)
    needle: str = ""  # text stderr must contain (rejections)


@dataclass
class Outcome:
    code: int
    out: str
    err: str


class Checker:
    """Per-request checks. The first output of each request is checked in
    full; every repeat must have the same stdout digest."""

    def __init__(self, refs: dict[str, Reference]):
        self.refs = refs
        self.digests: dict[str, str] = {}

    def __call__(self, req: Request, outcome: Outcome) -> str | None:
        """None if the request passed, else why it failed."""
        if outcome.code not in req.expect:
            return f"exit {outcome.code}, want {req.expect}: {outcome.err.strip()[-300:]}"
        if req.needle and req.needle not in outcome.err:
            return f"stderr does not name the violation ({req.needle!r})"
        seen = self.digests.get(req.key)
        now = digest(outcome.out)
        if seen is not None:
            return None if seen == now else "stdout differs from an earlier run of the same request"
        try:
            if outcome.code == 0:
                check_output(outcome.out)
                if req.fmt == "json" and req.scenario is not None:
                    check_json(self.refs[req.scenario], req.command, req.params, outcome.out)
        except (AssertionError, ValueError, TypeError, KeyError, IndexError, StopIteration) as exc:
            return f"{type(exc).__name__}: {exc}"
        self.digests[req.key] = now
        return None


class Workload:
    name = ""
    why = ""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.refs: dict[str, Reference] = {}
        self.cycle: list = []

    def setup(self) -> None:
        """Make inputs, references, preload; then warm up."""
        raise NotImplementedError

    def request(self, i: int) -> Request:
        """The i-th request of the timed loop."""
        raise NotImplementedError

    def warm_up(self, requests) -> None:
        """Run requests once, untimed. A failure is not counted here: the
        timed loop runs the same requests and counts it there."""
        for req in requests:
            try:
                self.execute(req)
            except Exception:  # counted by the timed loop instead
                pass

    def trace_pass(self) -> list[Request]:
        """The fixed request set of a traced run."""
        raise NotImplementedError

    def execute(self, req: Request, tracer: Tracer | None = None) -> Outcome:
        raise NotImplementedError


# Criterion 10 of tests/test_acceptance.py, pinned here rather than imported
# so that the request set stays fixed when the tests change.
APPLICABLE = {
    "coin": ("validate", "gross", "check"),
    "stern-gerlach": ("validate", "gross", "luder", "branches", "check"),
    "cat-box": ("validate", "gross", "joint", "conditional", "luder", "branches", "check"),
    "cat-master": ("validate", "gross", "joint", "conditional", "luder", "branches", "net", "check"),
}
COLLAPSE_TARGETS = {
    "stern-gerlach": "alignment:up",
    "cat-box": "reading:up",
    "cat-master": "master-mind:dreams-awake",
}
MALFORMED_NEEDLES = {
    "01_syntax.json": "parse error",
    "02_missing_state.json": "'state' is a required property",
    "03_bad_trace.json": "unit trace",
    "04_negative_weight.json": "positive semidefinite",
    "05_unnormalized_pure.json": "unit squared norm",
    "06_nonorthogonal_observable.json": "orthogonal",
    "07_incomplete_observable.json": "completeness",
    "08_unknown_space_ref.json": "unknown space id",
    "09_unknown_observable_ref.json": "unknown observable",
    "10_bad_complex_pair.json": "schema violation",
    "11_duplicate_values.json": "pairwise distinct",
    "12_wrong_vector_length.json": "length 3",
    "13_zero_lifetime.json": "lifetime",
    "14_dup_space_ids.json": "duplicate space id",
    "15_bad_measure_sum.json": "measure must total 1",
}
TRACE_STRIDE = 3


class CliCold(Workload):
    name = "cli-cold"
    why = (
        "One `python -m qprob` process per request: imports are ~85% of its ~0.4 s and compute is "
        "under 2 ms, so it moves with startup, import and schema changes, not with engine changes."
    )

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.env = child_env(root)
        cycle = []
        for preset, commands in APPLICABLE.items():
            for command in commands:
                for fmt in FORMATS:
                    cycle.append(self._req(command, ("--preset", preset), fmt, preset))
        for k, (preset, target) in enumerate(COLLAPSE_TARGETS.items()):
            cycle.append(self._req("collapse", ("--preset", preset, "--on", target), FORMATS[k], preset,
                                   on=target))
        cycle.append(self._req("lifetime", ("--scenario", "scenarios/midlife.json"), "text", None))
        for name, needle in MALFORMED_NEEDLES.items():
            argv = ("validate", "--scenario", f"tests/data/malformed/{name}")
            cycle.append(Request(" ".join(argv), argv, "text", expect=(1, 2), needle=needle))
        self.cycle = cycle

    @staticmethod
    def _req(command, source, fmt, scenario, **params) -> Request:
        argv = (command, *source, "--format", fmt)
        return Request(" ".join(argv), argv, fmt, scenario, command, params)

    def setup(self) -> None:
        for preset in APPLICABLE:
            doc = json.loads((self.root / "src/qprob/presets" / f"{preset}.json").read_text())
            self.refs[preset] = Reference(doc)
        self.warm_up(self.cycle[:1])

    def request(self, i):
        return self.cycle[i % len(self.cycle)]

    def trace_pass(self):
        return self.cycle[::TRACE_STRIDE]

    def execute(self, req, tracer=None):
        if tracer is None:
            proc = subprocess.run([sys.executable, "-m", "qprob", *req.argv], env=self.env, cwd=self.root,
                                  capture_output=True, text=True, timeout=120)
            return Outcome(proc.returncode, proc.stdout, proc.stderr)
        fd, spans_path = tempfile.mkstemp(suffix=".json", dir=self.work)
        os.close(fd)
        env = dict(self.env, PERFBENCH_SPANS=spans_path, PERFBENCH_SPAWN_NS=str(now_ns()))
        script = Path(__file__).with_name("traced_cli.py")
        proc = subprocess.run([sys.executable, str(script), *req.argv], env=env, cwd=self.root,
                              capture_output=True, text=True, timeout=120)
        with open(spans_path, encoding="utf-8") as fh:
            tracer.adopt(json.load(fh))
        os.unlink(spans_path)
        return Outcome(proc.returncode, proc.stdout, proc.stderr)


class CompositeTables(Workload):
    name = "composite-tables"
    why = (
        "In-process run_command + render_report on preloaded n x n composites, D = 16, 64, 144: "
        "joint_matrix and born over lifted D x D projectors dominate; import and schema do not show."
    )
    SIZES = (4, 8, 12)
    COMMANDS = ("gross", "joint", "conditional", "net", "check")

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.scenarios = {}
        # Triplets over the sizes, commands varying fastest, so that the
        # part-cycle at the end of a timed run keeps the size mix.
        self.cycle = []
        for j in range(len(self.COMMANDS) * len(inputs.STATE_KINDS)):
            command = self.COMMANDS[j % len(self.COMMANDS)]
            kind = inputs.STATE_KINDS[j // len(self.COMMANDS)]
            for p, n in enumerate(self.SIZES):
                self.cycle.append((command, f"{kind}-{n}x{n}", p + j))

    def request(self, i):
        command, scenario, offset = self.cycle[i % len(self.cycle)]
        fmt = FORMATS[(offset + i // len(self.cycle)) % len(FORMATS)]
        return Request(f"{command} {scenario} {fmt}", (command,), fmt, scenario, command)

    def trace_pass(self):
        return [self.request(i) for i in range(len(self.cycle))]

    def setup(self):
        import qprob.cli
        from qprob.scenario import load_file

        self.cli = qprob.cli
        for n in self.SIZES:
            for kind in inputs.STATE_KINDS:
                doc = inputs.scenario(self.seed, (n, n), kind)
                self.refs[doc["name"]] = Reference(doc)
                self.scenarios[doc["name"]] = load_file(inputs.write(self.work, doc))
        self.warm_up(self.request(i) for i in range(0, len(self.cycle), len(self.SIZES)))

    def execute(self, req, tracer=None):
        report = self.cli.run_command(req.command, self.scenarios[req.scenario], self.cli.Options())
        return Outcome(0, self.cli.render_report(report, req.fmt, 6), "")


class DenseOperators(Workload):
    name = "dense-operators"
    why = (
        "In-process qprob.cli.main on dense states up to D = 256: each request reloads and "
        "schema-checks its file, eigendecomposes derived operators and renders D x D tables."
    )
    REQUESTS = (
        ((8, 8), "density", ("collapse", "--on", "b-rot:b1")),
        ((8, 8), "density", ("luder", "--obs", "a-std")),
        ((8, 8), "density", ("branches", "--obs", "a-std")),
        ((12, 12), "pure", ("collapse", "--on", "b-rot:b2")),
        ((12, 12), "pure", ("luder", "--obs", "a-std")),
        ((12, 12), "pure", ("branches", "--obs", "a-std")),
        ((16, 16), "pure", ("collapse", "--on", "a-std:a3")),
        ((16, 16), "pure", ("luder", "--obs", "a-std")),
        ((4, 6, 6), "pure", ("luder", "--obs", "c-rot")),
    )
    # Requests compared under 1 and 2 BLAS threads.
    BLAS_CHECK = (1, 6, 7)

    def __init__(self, root, work, seed):
        super().__init__(root, work, seed)
        self.paths = {}
        for dims, kind, args in self.REQUESTS:
            name = f"{kind}-{'x'.join(map(str, dims))}"
            self.paths[name] = work / f"{name}.json"
            self.cycle.append((name, args))

    def argv(self, k: int, fmt: str) -> tuple[str, ...]:
        name, args = self.cycle[k]
        return (*args, "--scenario", str(self.paths[name]), "--format", fmt)

    def request(self, i):
        k = i % len(self.cycle)
        fmt = FORMATS[(k + i // len(self.cycle)) % len(FORMATS)]
        name, args = self.cycle[k]
        params = {args[1].lstrip("-"): args[2]}
        return Request(f"{' '.join(args)} {name} {fmt}", self.argv(k, fmt), fmt, name, args[0], params)

    def trace_pass(self):
        return [self.request(i) for i in range(len(self.cycle) * len(FORMATS))]

    def write_inputs(self):
        for dims, kind, _ in self.REQUESTS:
            doc = inputs.scenario(self.seed, dims, kind)
            if doc["name"] not in self.refs:
                self.refs[doc["name"]] = Reference(doc)
                inputs.write(self.work, doc)

    def setup(self):
        import qprob.cli

        self.cli = qprob.cli
        self.write_inputs()
        self.warm_up([self.request(0)])

    def blas_argvs(self) -> list[list[str]]:
        return [list(self.argv(k, "csv")) for k in self.BLAS_CHECK]

    def execute(self, req, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(req.argv))
        return Outcome(code, out.getvalue(), err.getvalue())


WORKLOADS = {w.name: w for w in (CliCold, CompositeTables, DenseOperators)}


def attempt(workload: Workload, req: Request, check: Checker, tracer: Tracer | None = None):
    """Run and check one request: its wall time, and why it failed if it did."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = workload.execute(req)
        else:
            with tracer.span("request"):
                outcome = workload.execute(req, tracer)
    except Exception as exc:  # a raising request is a failed request
        return time.perf_counter() - t0, f"{req.key}: raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    why = check(req, outcome)
    return seconds, None if why is None else f"{req.key}: {why}"


def run_timed(workload: Workload, check: Checker, seconds: float):
    """Closed loop for `seconds`: (request key, wall time, passed) per
    request, and the failures. A run short of MIN_REQUESTS goes on until it
    has them, for at most MAX_EXTENSION more of its length."""
    samples, failures = [], []
    start = time.perf_counter()
    deadline, cutoff = start + seconds, start + seconds * (1.0 + MAX_EXTENSION)
    while time.perf_counter() < (deadline if len(samples) >= MIN_REQUESTS else cutoff):
        req = workload.request(len(samples))
        took, failure = attempt(workload, req, check)
        samples.append((req.key, took, failure is None))
        failures += [failure] if failure else []
    return samples, failures


def run_pass(workload: Workload, requests: list[Request], check: Checker, tracer: Tracer | None = None):
    """Run a fixed request set once: seconds spent in requests, and failures."""
    busy, failures = 0.0, []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        took, failure = attempt(workload, req, check, tracer)
        busy += took
        failures += [failure] if failure else []
    return busy, failures
