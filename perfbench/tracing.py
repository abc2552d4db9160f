"""Spans around calls into qprob's layers, recorded from outside the package.

`Tracer.installed()` replaces each traced function on every name a caller
looks it up by: the defining module, every qprob module that imported it
with `from ... import`, the two traced methods on their classes, and
`numpy.linalg.eigh`/`eigvalsh`. Spans are kept in memory as
[name, start_ns, end_ns, parent, request, extra] and written out at the
end. Clocks are CLOCK_MONOTONIC, so spans from the traced cli-cold child
processes line up with the parent's.

A span's layer is its name up to the first dot; its self time is its
duration minus the durations of its direct children (calls nest, so
children never overlap).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = (
    "startup", "cli", "scenario", "lattice", "observables",
    "hilbert", "engine", "weighting", "render", "linalg",
)

# (span name, module, attribute); `extra` records a size alongside the span.
FUNCTIONS = (
    ("cli.main", "qprob.cli", "main"),
    ("cli.run_command", "qprob.cli", "run_command"),
    ("scenario.load_file", "qprob.scenario", "load_file"),
    ("scenario.load_preset", "qprob.scenario", "load_preset"),
    ("scenario.json_parse", "qprob.scenario", "_parse"),
    ("scenario.schema", "qprob.scenario", "_validate_structure"),
    ("scenario.build", "qprob.scenario", "_build"),
    ("observables.lift", "qprob.observables", "lift"),
    ("observables.validate_observable", "qprob.observables", "validate_observable"),
    ("hilbert.structure_check", "qprob.hilbert", "structure_check"),
    ("hilbert.partial_trace", "qprob.hilbert", "partial_trace"),
    ("engine.born", "qprob.engine", "born"),
    ("engine.joint_matrix", "qprob.engine", "joint_matrix"),
    ("engine.conditional", "qprob.engine", "conditional"),
    ("engine.correlation_check", "qprob.engine", "correlation_check"),
    ("engine.collapse", "qprob.engine", "collapse"),
    ("engine.luder", "qprob.engine", "luder"),
    ("engine.branch_decompose", "qprob.engine", "branch_decompose"),
    ("engine.reduce_composite", "qprob.engine", "reduce_composite"),
    ("weighting.net_table", "qprob.weighting", "net_table"),
    ("weighting.lifetime_distribution", "qprob.weighting", "lifetime_distribution"),
    ("render.render_report", "qprob.render", "render_report"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
)
# (span name, module, class, method); from_span is a classmethod.
METHODS = (
    ("engine.prob_operator", "qprob.engine", "ProbabilityOperator", "__post_init__"),
    ("lattice.from_span", "qprob.lattice", "Eventuality", "from_span"),
)
EXTRAS = {
    "scenario.json_parse": lambda args, result: len(args[0]),
    "render.render_report": lambda args, result: len(result),
    "observables.lift": lambda args, result: f"{os.getpid()}:{id(args[0])}:{id(args[1])}",
}
ENGINE_PRIMITIVES = {
    "engine.born", "engine.joint_matrix", "engine.conditional", "engine.correlation_check",
    "engine.collapse", "engine.luder", "engine.branch_decompose", "engine.reduce_composite",
}


def now_ns() -> int:
    return time.monotonic_ns()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request: int | None = None
        self._stack: list[int] = []

    def add(self, name: str, start: int, end: int, extra=None) -> int:
        """Record a finished span under the currently open one."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.request, extra])
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        index = self.add(name, now_ns(), None)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = now_ns()

    def adopt(self, spans: list[list]) -> None:
        """Append spans recorded in another process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, start, end, p, _, extra in spans:
            self.spans.append([name, start, end, parent if p is None else base + p, self.request, extra])

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
                if extra is not None:
                    self.spans[index][5] = extra(args, result)
                return result

        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        undo = []
        qprob_modules = [m for n, m in list(sys.modules.items()) if n == "qprob" or n.startswith("qprob.")]
        try:
            for name, module, attr in FUNCTIONS:
                original = getattr(sys.modules[module], attr)
                wrapper = self._wrap(name, original)
                for mod in {id(m): m for m in qprob_modules + [sys.modules[module]]}.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, value))
                            setattr(mod, key, wrapper)
            for name, module, cls_name, attr in METHODS:
                cls = getattr(sys.modules[module], cls_name)
                raw = cls.__dict__[attr]
                undo.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name, raw))
            yield self
        finally:
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[list]) -> list[int]:
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    return [end - start - child_ns[i] for i, (_, start, end, _, _, _) in enumerate(spans)]


def top_self(spans: list[list], k: int = 6) -> list[tuple[str, float]]:
    """The k span names with the most self time (ms)."""
    by_name = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        by_name[span[0]] += own / 1e6
    return sorted(by_name.items(), key=lambda item: -item[1])[:k]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times (ms) summed over every traced request."""
    own = self_times(spans)
    total_ms = defaultdict(float)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    layer_self_ms = dict.fromkeys(LAYERS, 0.0)
    extras = defaultdict(list)
    derived = 0
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        total_ms[name] += (end - start) / 1e6
        self_ms[name] += own[i] / 1e6
        calls[name] += 1
        layer = name.split(".", 1)[0]
        if layer in layer_self_ms:
            layer_self_ms[layer] += own[i] / 1e6
        if extra is not None:
            extras[name].append(extra)
        if name == "engine.prob_operator" and parent is not None and spans[parent][0] in ENGINE_PRIMITIVES:
            derived += 1
    lift_keys = set(extras["observables.lift"])
    out = {
        "scenario.json_parse_ms": total_ms["scenario.json_parse"],
        "scenario.schema_ms": total_ms["scenario.schema"],
        "scenario.build_self_ms": self_ms["scenario.build"],
        "scenario.load_ms": total_ms["scenario.load_file"] + total_ms["scenario.load_preset"],
        "scenario.doc_bytes": float(sum(extras["scenario.json_parse"])),
        "lattice.from_span.calls": calls["lattice.from_span"],
        "lattice.from_span_ms": total_ms["lattice.from_span"],
        "observables.validate_observable_ms": total_ms["observables.validate_observable"],
        "observables.lift.calls": calls["observables.lift"],
        "observables.lift_ms": total_ms["observables.lift"],
        "observables.lift.repeat_ratio": calls["observables.lift"] / len(lift_keys) if lift_keys else 0.0,
        "engine.born.calls": calls["engine.born"],
        "engine.born_ms": total_ms["engine.born"],
        "engine.joint_matrix.calls": calls["engine.joint_matrix"],
        "engine.joint_matrix_ms": total_ms["engine.joint_matrix"],
        "engine.conditional_ms": total_ms["engine.conditional"],
        "engine.correlation_check_ms": total_ms["engine.correlation_check"],
        "weighting.net_table_ms": total_ms["weighting.net_table"],
        "engine.prob_operator.constructions": calls["engine.prob_operator"],
        "engine.prob_operator.derived": derived,
        "engine.prob_operator.check_ms": total_ms["engine.prob_operator"],
        "engine.collapse_ms": total_ms["engine.collapse"],
        "engine.luder_ms": total_ms["engine.luder"],
        "engine.branch_decompose_ms": total_ms["engine.branch_decompose"],
        "hilbert.structure_check.calls": calls["hilbert.structure_check"],
        "hilbert.structure_check_ms": total_ms["hilbert.structure_check"],
        "linalg.eigendecompositions": calls["linalg.eigh"] + calls["linalg.eigvalsh"],
        "linalg.eig_ms": total_ms["linalg.eigh"] + total_ms["linalg.eigvalsh"],
        "cli.dispatch_self_ms": self_ms["cli.run_command"],
        "render.render_report_ms": total_ms["render.render_report"],
        "render.bytes_out": float(sum(extras["render.render_report"])),
        "trace.spans": len(spans),
    }
    for layer, ms in layer_self_ms.items():
        out[f"self.{layer}_ms"] = ms
    return out
