"""Command line interface.

Usage: qprob <command> (--preset NAME | --scenario FILE) [flags]

Each command is declared once, in `_COMMANDS`: its handler, help text,
extra flags and the kind of scenario it needs. Exit status 0 on success,
1 for input or usage errors (bad flags, unknown preset, unreadable or
unparseable file, command/scenario mismatch), 2 for validation or numeric
failures and for running out of memory. Output is deterministic: the same
invocation produces identical bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Callable

import numpy as np

from . import __version__
from .engine import (
    CorrelationReport,
    JointProbabilityMatrix,
    born,
    branch_decompose,
    collapse,
    conditional,
    joint_matrix,
    luder,
)
from .errors import (
    IncompatibleCommandError,
    QprobError,
    ScenarioParseError,
    UnknownPresetError,
    ZeroProbabilityError,
)
from .hilbert import INVARIANT_TOL
from .lattice import CLASSICAL_SUM_TOL
from .render import FORMATS, RenderedTable, Report, TextLines, format_number, render_report
from .scenario import PRESET_NAMES, Scenario, ScenarioObservable, load_file, load_preset
from .weighting import Scheme, lifetime_distribution, net_table

__all__ = ["COMMANDS", "build_parser", "run_command", "main"]

@dataclass(frozen=True)
class Options:
    tol: float = INVARIANT_TOL
    log_base: object = None  # None: scenario setting, else 2
    precision: int = 6
    given: str | None = None
    target: str | None = None
    on: str | None = None
    obs: str | None = None
    rows: str | None = None
    cols: str | None = None


# The name of each probability-operator invariant in validation reports,
# by report kind.
_INVARIANTS = {"hermitian": "hermitian", "unit-trace": "unit-trace", "psd": "positive semidefinite"}

# --log-base spellings and the base each selects.
_LOG_BASES = {"2": 2, "e": "e"}


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    if not math.isfinite(value):  # nan, inf and overflowing literals such as 1e400
        raise argparse.ArgumentTypeError("must be finite")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES, help="shipped scenario name")
    source.add_argument("--scenario", metavar="FILE", help="scenario file path")
    common.add_argument("--tol", type=_positive_float, default=Options.tol, metavar="X",
                        help="commutation tolerance of joint tables and tolerance of the correlation "
                             "verdict (default %(default)s); validation reports use the fixed "
                             "invariant tolerance")
    common.add_argument("--log-base", choices=list(_LOG_BASES), default=Options.log_base,
                        help="entropy log base (default: scenario setting, else 2)")
    common.add_argument("--precision", type=_positive_int, default=Options.precision, metavar="N",
                        help="significant digits in text output (default %(default)s)")
    common.add_argument("--format", choices=list(FORMATS), default="text",
                        help="output format (default text)")

    parser = _Parser(prog="qprob", description="Finite-dimensional quantum probability engine.")
    parser.add_argument("--version", action="version", version=f"qprob {__version__}")
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=spec.help)
        for flag, kwargs in spec.flags.items():
            p.add_argument(flag, **kwargs)
    return parser


# -- helpers -----------------------------------------------------------


def _clamp(p) -> np.ndarray:
    # Presentation-side clamp; raw values stay untouched in the library.
    return np.clip(np.asarray(p, dtype=np.float64), 0.0, 1.0)


def _observable(scn: Scenario, obs_id: str) -> ScenarioObservable:
    try:
        return scn.observable_by_id(obs_id)
    except KeyError as exc:
        raise IncompatibleCommandError(exc.args[0]) from None


def _channel_ref(scn: Scenario, text: str, flag: str):
    if ":" not in text:
        raise IncompatibleCommandError(f"{flag} expects OBSERVABLE:CHANNEL, got {text!r}")
    obs_id, label = text.split(":", 1)
    sobs = _observable(scn, obs_id)
    try:
        index = sobs.observable.index(label)
    except KeyError as exc:
        raise IncompatibleCommandError(exc.args[0]) from None
    return sobs, index


def _factor_observable(scn: Scenario, index: int, command: str) -> ScenarioObservable:
    found = scn.observables_on_factor(index)
    if not found:
        raise IncompatibleCommandError(
            f"command {command!r} needs an observable on factor {index + 1} "
            f"({scn.composite.factors[index]})"
        )
    return found[0]


def _log_base(scn: Scenario, opts: Options):
    if opts.log_base is not None:
        return opts.log_base
    if scn.weighting is not None:
        return scn.weighting.log_base
    return 2


def _basis_labels(dim: int) -> tuple[str, ...]:
    return tuple(str(k) for k in range(dim))


def _operator_table(caption: str, op) -> RenderedTable:
    labels = _basis_labels(op.entries.shape[0])
    return RenderedTable(caption, labels, labels, op.entries)


def _probability_table(caption: str, row_labels, probs) -> RenderedTable:
    return RenderedTable(caption, tuple(row_labels), ("probability",), _clamp(probs)[:, None])


# -- command handlers ---------------------------------------------------


def _validation_sections(scn: Scenario, opts: Options) -> list:
    sections: list = []
    if scn.is_classical:
        model = scn.classical
        lines = [
            f"kind: classical, {len(model.points)} sample points",
            f"measure total residual: {abs(sum(model.measure) - 1.0):.3e} (tol {CLASSICAL_SUM_TOL:.0e}): ok",
            f"all weights within [0, 1]: ok",
            f"events: {', '.join(e.id for e in scn.events) or '(none)'}",
        ]
        sections.append(TextLines(f"scenario '{scn.name}': valid", tuple(lines)))
        return sections

    lines = [f"kind: quantum, spaces: " + ", ".join(f"{s.label} (dim {s.dim})" for s in scn.spaces)]
    if scn.composite is not None:
        lines.append("composite factor order: " + " * ".join(s.label for s in scn.composite.factors))
    lines.append(f"state space dimension: {scn.full_space.dim}")
    sections.append(TextLines(f"scenario '{scn.name}': valid", tuple(lines)))

    # Every check reported here ran, and passed, when the scenario loaded.
    sections.append(TextLines(
        "state checks",
        tuple(
            f"{_INVARIANTS[r.kind]} residual: {r.residual:.3e} (tol {r.tol:.0e}): ok"
            for r in scn.state.checks
        ),
    ))

    for sobs in scn.observables:
        report = sobs.validation
        ranks = ", ".join(str(ch.rank) for ch in sobs.observable.channels)
        lines = [
            f"channels: {', '.join(sobs.observable.labels)} (ranks {ranks})",
            f"orthogonality residual: {report.orthogonality_residual:.3e} (tol {report.tol:.0e}): ok",
            f"completeness residual: {report.completeness_residual:.3e} (tol {report.tol:.0e}): ok",
        ]
        if sobs.quantitative is not None:
            lines.append("channel values: " + ", ".join(format_number(v, opts.precision)
                                                        for v in sobs.quantitative.values))
        sections.append(TextLines(f"observable '{sobs.id}' on '{sobs.space_id}'", tuple(lines)))

    if scn.observers:
        lines = []
        for o in scn.observers:
            lines.append(
                f"{o.id}: branch channels {o.branch_channels if o.branch_channels is not None else 'n/a'}, "
                f"lifetime {format_number(o.lifetime, opts.precision)}, "
                f"perception duration {format_number(o.perception_duration, opts.precision)}"
            )
        sections.append(TextLines("observers", tuple(lines)))
    if scn.weighting is not None:
        sections.append(TextLines(
            "weighting",
            (f"scheme: {scn.weighting.variant}, log base {scn.weighting.log_base}",),
        ))
    if scn.lifetime_profile is not None:
        sections.append(TextLines(
            "lifetime profile",
            (f"{len(scn.lifetime_profile.segments)} segments",),
        ))
    return sections


def _correlation_section(scn: Scenario, opts: Options, joint: tuple | None = None) -> TextLines:
    """The correlation check between the first observables of the two
    factors. `joint` is a (rows, cols, table) triple already computed; its
    table is reused when it is for that same pair."""
    if scn.is_classical or scn.composite is None or len(scn.composite.factors) != 2:
        return TextLines("correlation check", ("not applicable: needs a two-factor quantum scenario",))
    rows = scn.observables_on_factor(0)
    cols = scn.observables_on_factor(1)
    if not rows or not cols:
        return TextLines("correlation check", ("not applicable: needs an observable on each factor",))
    rows, cols = rows[0], cols[0]
    jm = joint[2] if joint is not None and joint[:2] == (rows, cols) else _joint(scn, rows, cols, opts)
    report = CorrelationReport.of(jm, opts.tol)
    lines = [
        f"observables: '{rows.id}' ({report.row_channels} channels) vs "
        f"'{cols.id}' ({report.col_channels} channels)",
        f"channel counts match: {'yes' if report.counts_match else 'no'}",
        f"off-diagonal joint mass: {report.off_diagonal_mass:.3e}",
        f"max conditional deviation from identity: {report.max_conditional_deviation:.3e}",
    ]
    if report.skipped_rows:
        lines.append("rows skipped for zero marginal: " + ", ".join(str(i + 1) for i in report.skipped_rows))
    verdict = "yes" if report.adequately_correlated else "no"
    lines.append(f"adequately correlated at tol {opts.tol:.3g}: {verdict}")
    return TextLines("correlation check", tuple(lines))


def _cmd_check(scn: Scenario, opts: Options) -> list:
    sections = _validation_sections(scn, opts)
    sections.append(_correlation_section(scn, opts))
    return sections


def _cmd_gross(scn: Scenario, opts: Options) -> list:
    sections = []
    if scn.is_classical:
        labels = tuple(e.id for e in scn.events)
        probs = [e.event.prob() for e in scn.events]
        sections.append(_probability_table("event probabilities", labels, probs))
    else:
        for sobs in scn.observables:
            probs = born(scn.state, sobs.observable, comp=scn.composite)
            sections.append(_probability_table(
                f"gross probabilities: observable '{sobs.id}'", sobs.observable.labels, probs
            ))
            if sobs.quantitative is not None:
                value = sum(v * p for v, p in zip(sobs.quantitative.values, probs))
                sections.append(TextLines(
                    f"expectation of '{sobs.id}'",
                    (f"value: {format_number(value, opts.precision)}",),
                ))
    return sections


def _joint(scn: Scenario, rows: ScenarioObservable, cols: ScenarioObservable,
           opts: Options) -> JointProbabilityMatrix:
    # --tol sets the commutation tolerance, but never below the invariant tolerance.
    return joint_matrix(scn.state, rows.observable, cols.observable,
                        tol=max(opts.tol, INVARIANT_TOL), comp=scn.composite)


def _joint_table(rows: ScenarioObservable, cols: ScenarioObservable,
                 jm: JointProbabilityMatrix, caption: str) -> RenderedTable:
    return RenderedTable(caption, rows.observable.labels, cols.observable.labels, _clamp(jm.values))


def _cmd_joint(scn: Scenario, opts: Options) -> list:
    rows = _observable(scn, opts.rows) if opts.rows else _factor_observable(scn, 0, "joint")
    cols = _observable(scn, opts.cols) if opts.cols else _factor_observable(scn, 1, "joint")
    if rows.id == cols.id:
        raise IncompatibleCommandError("row and column observables must differ")
    jm = _joint(scn, rows, cols, opts)
    table = _joint_table(rows, cols, jm, f"joint probabilities: rows '{rows.id}', columns '{cols.id}'")
    return [table, _correlation_section(scn, opts, (rows, cols, jm))]


def _cmd_conditional(scn: Scenario, opts: Options) -> list:
    if opts.given:
        sobs, index = _channel_ref(scn, opts.given, "--given")
        if opts.target:
            target = _observable(scn, opts.target)
        else:
            others = [so for so in scn.observables if so.observable.space != sobs.observable.space]
            if not others:
                raise IncompatibleCommandError("no observable on another factor to condition; pass --target")
            target = others[0]
        probs = conditional(scn.state, sobs.observable.channels[index], target.observable, comp=scn.composite)
        label = f"{sobs.id}:{sobs.observable.labels[index]}"
        table = RenderedTable(
            f"probabilities of '{target.id}' given '{label}'",
            (label,),
            target.observable.labels,
            _clamp(probs)[None, :],
        )
        return [table]

    rows = _factor_observable(scn, 0, "conditional")
    target = _factor_observable(scn, 1, "conditional")
    kept_labels = []
    cells = []
    skipped = []
    for label, ch in zip(rows.observable.labels, rows.observable.channels):
        try:
            cells.append(conditional(scn.state, ch, target.observable, comp=scn.composite))
        except ZeroProbabilityError:
            skipped.append(label)
            continue
        kept_labels.append(f"{rows.id}:{label}")
    sections: list = [RenderedTable(
        f"probabilities of '{target.id}' given channels of '{rows.id}'",
        tuple(kept_labels),
        target.observable.labels,
        _clamp(cells),
    )]
    if skipped:
        sections.append(TextLines(
            "skipped rows",
            tuple(f"'{rows.id}:{lbl}': zero probability, cannot condition" for lbl in skipped),
        ))
    return sections


def _cmd_collapse(scn: Scenario, opts: Options) -> list:
    sobs, index = _channel_ref(scn, opts.on, "--on")
    result = collapse(scn.state, sobs.observable.channels[index], comp=scn.composite)
    label = f"{sobs.id}:{sobs.observable.labels[index]}"
    lines = TextLines(
        "collapse",
        (
            f"eventuality: {label}",
            f"probability: {format_number(_clamp(result.probability), opts.precision)}",
        ),
    )
    table = _operator_table(f"a-posteriori operator given '{label}'", result.operator.matrix)
    return [lines, table]


def _cmd_luder(scn: Scenario, opts: Options) -> list:
    sobs = _observable(scn, opts.obs) if opts.obs else scn.observables[0]
    result = luder(scn.state, sobs.observable, comp=scn.composite)
    table = _probability_table(
        f"channel probabilities under the decohered operator (observable '{sobs.id}')",
        sobs.observable.labels,
        born(result, sobs.observable, comp=scn.composite),
    )
    op_table = _operator_table("decohered operator", result.matrix)
    return [table, op_table]


def _cmd_branches(scn: Scenario, opts: Options) -> list:
    sobs = _observable(scn, opts.obs) if opts.obs else scn.observables[0]
    labels = sobs.observable.labels
    bd = branch_decompose(scn.state, sobs.observable, comp=scn.composite)
    sections: list = [_probability_table(
        f"branch probabilities (observable '{sobs.id}')", labels, bd.probabilities
    )]
    if bd.zero_channels:
        sections.append(TextLines(
            "zero-probability branches",
            tuple(
                f"'{labels[i]}': probability below threshold {bd.threshold:.0e}; no a-posteriori operator"
                for i in bd.zero_channels
            ),
        ))
    for label, post in zip(labels, bd.posteriors):
        if post is not None:
            sections.append(_operator_table(f"branch '{label}': a-posteriori operator", post.matrix))
    return sections


def _cmd_net(scn: Scenario, opts: Options) -> list:
    if not scn.observers:
        raise IncompatibleCommandError(f"scenario {scn.name!r} defines no observers")
    if scn.weighting is None:
        raise IncompatibleCommandError(f"scenario {scn.name!r} defines no weighting scheme")
    scheme = Scheme(scn.weighting.variant, _log_base(scn, opts))

    gross = []
    channel_labels = []
    for o in scn.observers:
        if o.observable is None:
            raise IncompatibleCommandError(
                f"observer {o.id!r} has no perception observable; gross probabilities are undefined"
            )
        gross.append(born(scn.state, o.observable, comp=scn.composite))
        channel_labels.append(o.observable.labels)
    table = net_table(scheme, scn.observers, gross)

    sections: list = []
    if (
        scn.composite is not None
        and len(scn.composite.factors) == 2
        and len(scn.observers) == 2
        and {o.observable.space for o in scn.observers} == set(scn.composite.factors)
    ):
        by_factor = sorted(
            scn.observers, key=lambda o: scn.composite.factor_index(o.observable.space)
        )
        rows, cols = (scn.perceives[o.id] for o in by_factor)
        sections.append(_joint_table(
            rows, cols, _joint(scn, rows, cols, opts),
            f"joint gross probabilities: rows '{rows.id}', columns '{cols.id}'",
        ))

    if scheme.variant == "entropic":
        caption = (
            f"observer weights (entropic, log base {scheme.log_base}): "
            f"alpha = {format_number(table.normalizer, opts.precision)}"
        )
    elif scheme.variant == "proper":
        caption = f"observer weights (proper): rate = {format_number(table.normalizer, opts.precision)}"
    else:
        caption = "observer weights (weak)"
    sections.append(RenderedTable(
        caption,
        tuple(o.id for o in scn.observers),
        ("weight",),
        np.asarray(table.weights)[:, None],
    ))

    sections.append(RenderedTable(
        "net perception probabilities",
        tuple(f"{o.id}:{label}" for o, labels in zip(scn.observers, channel_labels) for label in labels),
        ("gross", "net"),
        _clamp([np.concatenate(table.gross), np.concatenate(table.net)]).T,
        arrow_pair=True,
    ))
    sections.append(TextLines(
        "totals",
        (f"net total: {format_number(table.grand_total(), opts.precision)}",),
    ))
    return sections


def _cmd_lifetime(scn: Scenario, opts: Options) -> list:
    if scn.lifetime_profile is None:
        raise IncompatibleCommandError(f"scenario {scn.name!r} defines no lifetime profile")
    base = _log_base(scn, opts)
    dist = lifetime_distribution(scn.lifetime_profile, base)
    segments = scn.lifetime_profile.segments
    labels = tuple(f"segment {k + 1}" for k in range(len(segments)))
    table = RenderedTable(
        f"perceived-moment distribution (log base {base})",
        labels,
        ("duration", "capacity", "perception", "density", "mass", "cumulative"),
        np.column_stack((
            [seg.duration for seg in segments],
            [seg.entropy(base) for seg in segments],
            [seg.perception_duration for seg in segments],
            dist.densities,
            dist.masses,
            dist.cumulative,
        )),
    )
    lines = TextLines(
        "summary",
        (f"most likely segment: {dist.argmax_segment + 1} of {len(labels)}",),
    )
    return [table, lines]


# -- the command table ---------------------------------------------------


@dataclass(frozen=True)
class _Command:
    handler: Callable[[Scenario, Options], list]  # the sections of the command's report
    help: str
    # "quantum", "composite" (a quantum scenario with two or more factors) or None
    needs: str | None = None
    # extra flags: flag -> argparse keyword arguments
    flags: dict = field(default_factory=dict)


_OBS_FLAG = {"--obs": dict(metavar="OBS", help="observable id (default: first declared)")}

_COMMANDS = {
    "validate": _Command(_validation_sections, "report scenario validation residuals"),
    "gross": _Command(_cmd_gross, "per-channel probabilities of every observable"),
    "joint": _Command(_cmd_joint, "joint probability table over two factors", "composite", {
        "--rows": dict(metavar="OBS", help="row observable id (default: first on factor 1)"),
        "--cols": dict(metavar="OBS", help="column observable id (default: first on factor 2)"),
    }),
    "conditional": _Command(_cmd_conditional, "conditional probabilities after an outcome", "composite", {
        "--given": dict(metavar="OBS:CHANNEL", help="conditioning channel (default: every row)"),
        "--target": dict(metavar="OBS", help="target observable id (default: the other factor)"),
    }),
    "collapse": _Command(_cmd_collapse, "a-posteriori operator given one outcome", "quantum", {
        "--on": dict(metavar="OBS:CHANNEL", required=True, help="conditioning channel"),
    }),
    "luder": _Command(_cmd_luder, "decohere the state over an observable", "quantum", _OBS_FLAG),
    "branches": _Command(_cmd_branches, "branch decomposition over an observable", "quantum", _OBS_FLAG),
    "net": _Command(_cmd_net, "observer-weighted net perception table", "quantum"),
    "lifetime": _Command(_cmd_lifetime, "perceived-moment distribution over a lifetime profile"),
    "check": _Command(_cmd_check, "all validations plus the correlation check"),
}

COMMANDS = tuple(_COMMANDS)


def run_command(command: str, scn: Scenario, opts: Options) -> Report:
    """Run one command against a loaded scenario and return its report."""
    if command not in _COMMANDS:
        raise IncompatibleCommandError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    spec = _COMMANDS[command]
    if spec.needs is not None and scn.is_classical:
        raise IncompatibleCommandError(f"command {command!r} needs a quantum scenario; {scn.name!r} is classical")
    if spec.needs == "composite" and (scn.composite is None or len(scn.composite.factors) < 2):
        raise IncompatibleCommandError(f"command {command!r} needs a composite scenario with at least two factors")
    return Report(f"{command}: scenario '{scn.name}'", tuple(spec.handler(scn, opts)))


@cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    # Building the parser costs more than a parse, and parsing leaves it as
    # it was, so every call in one process shares one.
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    if args.command is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("qprob: error: a command is required\n")
        return 1
    values = vars(args) | {"log_base": _LOG_BASES.get(args.log_base)}
    # Flags a command does not take are absent from its namespace.
    opts = Options(**{f.name: values.get(f.name, f.default) for f in fields(Options)})
    try:
        scn = load_preset(args.preset) if args.preset else load_file(args.scenario)
        report = run_command(args.command, scn, opts)
        text = render_report(report, args.format, args.precision)
    except (UnknownPresetError, ScenarioParseError, IncompatibleCommandError) as exc:
        sys.stderr.write(f"qprob: error: {exc}\n")
        return 1
    except (QprobError, ValueError) as exc:
        sys.stderr.write(f"qprob: error: {exc}\n")
        return 2
    except MemoryError as exc:
        sys.stderr.write(f"qprob: error: out of memory: {str(exc) or 'an allocation failed'}\n")
        return 2
    # In 1 Mi-character slices: the text layer encodes each write whole.
    for start in range(0, len(text), 1 << 20):
        sys.stdout.write(text[start:start + (1 << 20)])
    return 0
