"""Exact tables over the Gaussian rationals.

Every float is exactly a rational, so an operator, a pure state's vector
or a channel basis that qprob has loaded is exactly a matrix of Gaussian
rationals a + bi, with a and b held as `fractions.Fraction`. The state is
P as loaded: its matrix, or psi psi^dag for a pure state's psi. This
oracle computes, in that arithmetic and with no eigensolver, the tables
that qprob prints in floats, each from its projector definition (Nielsen
& Chuang, section 2.2.5), with E = V V^dag for a channel's loaded basis V
lifted onto the composite:

- channel probabilities tr(P E_i);
- joint tables tr(P E_i F_j);
- conditional tables tr(E P E F_j) / tr(P E), skipping a given channel of
  probability at or below the zero threshold;
- the channel probabilities of the Lueders operator sum_i E_i P E_i, and
  that operator itself;
- the a-posteriori operator E P E / tr(P E) of `collapse`;
- the branch probabilities tr(P E_i) and each branch posterior
  E_i P E_i / tr(P E_i) above the zero threshold.

These are the values the engine approximates on its own data, so a
printed table's distance from them is its rounding error alone. `tables`
gives the tables of a CLI request in the order it prints them; `distance`
reads a json report against them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from qprob import ZERO_PROBABILITY_THRESHOLD, load_file, load_preset
from qprob.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
# The commands whose reports print tables: probability tables, and the
# operators of collapse, luder and branches.
TABLE_COMMANDS = ("gross", "joint", "conditional", "luder", "collapse", "branches")
_FRACTIONS = np.vectorize(Fraction, otypes=[object])


@dataclass(frozen=True)
class Matrix:
    """A complex matrix with exactly rational real and imaginary parts."""

    re: np.ndarray  # object arrays of Fraction
    im: np.ndarray

    @classmethod
    def of(cls, a) -> "Matrix":
        """The exact value of a float array."""
        a = np.asarray(a, dtype=np.complex128)
        return cls(_FRACTIONS(a.real), _FRACTIONS(a.imag))

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.re + other.re, self.im + other.im)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return Matrix(self.re @ other.re - self.im @ other.im, self.re @ other.im + self.im @ other.re)

    @property
    def dagger(self) -> "Matrix":
        return Matrix(self.re.T, -self.im.T)

    def cells(self, scale: Fraction = Fraction(1)) -> list[list[tuple[Fraction, Fraction]]]:
        """The entries divided by `scale`, as (re, im) pairs."""
        return [[(a / scale, b / scale) for a, b in zip(*rows)] for rows in zip(self.re, self.im)]


def trace_of_product(a: Matrix, b: Matrix) -> Fraction:
    """Re tr(a b), summed entry by entry."""
    return sum((a.re * b.re.T - a.im * b.im.T).ravel(), Fraction(0))


def projector(v: np.ndarray) -> Matrix:
    """E = V V^dag of a float basis, exactly."""
    exact = Matrix.of(v)
    return exact @ exact.dagger


def born(p: Matrix, projectors: list[Matrix]) -> list[Fraction]:
    return [trace_of_product(p, e) for e in projectors]


def joint(p: Matrix, rows: list[Matrix], cols: list[Matrix]) -> list[list[Fraction]]:
    return [[trace_of_product(p @ e, f) for f in cols] for e in rows]


def conditional(p: Matrix, given: Matrix, target: list[Matrix]) -> list[Fraction] | None:
    """p(F_j | E) by the Lueders rule, or None at or below the zero threshold."""
    probability = trace_of_product(p, given)
    if probability <= ZERO_PROBABILITY_THRESHOLD:
        return None
    sandwich = given @ p @ given
    return [trace_of_product(sandwich, f) / probability for f in target]


def luder(p: Matrix, projectors: list[Matrix]) -> list[list[list]]:
    """The channel probabilities of sum_i E_i P E_i, and that operator."""
    decohered = [e @ p @ e for e in projectors]
    total = sum(decohered[1:], decohered[0])
    return [[[x] for x in born(total, projectors)], total.cells()]


def collapse(p: Matrix, given: Matrix) -> list[list[tuple[Fraction, Fraction]]]:
    return (given @ p @ given).cells(trace_of_product(p, given))


def branches(p: Matrix, projectors: list[Matrix]) -> list[list[list]]:
    """The branch probabilities, then each posterior above the zero threshold."""
    probs = born(p, projectors)
    posteriors = [collapse(p, e) for e, x in zip(projectors, probs) if x > ZERO_PROBABILITY_THRESHOLD]
    return [[[x] for x in probs], *posteriors]


def _lifted(scn, space, channels) -> list[Matrix]:
    # The projector of each channel's basis, lifted onto the composite by
    # placing the basis between identities, which is exact.
    comp = scn.composite
    k = comp.factor_index(space) if comp else 0
    before, after = (comp.dim_before(k), comp.dim_after(k)) if comp else (1, 1)
    return [projector(np.kron(np.kron(np.eye(before), ch.basis_matrix), np.eye(after))) for ch in channels]


def tables(argv: list[str]) -> list[list[list]] | None:
    """The tables that `qprob argv` prints, in order, computed exactly on
    the data it loads; None when it prints none. A cell is a Fraction, or
    an (re, im) pair of them in an operator. Scenario paths are relative to
    the repository root."""
    args = build_parser().parse_args(argv)
    if args.command not in TABLE_COMMANDS:
        return None
    scn = load_preset(args.preset) if args.preset else load_file(ROOT / args.scenario)
    if scn.is_classical:  # event probabilities: sums of the measure's weights
        weights = dict(zip(scn.classical.points, map(Fraction, scn.classical.measure)))
        return [[[sum((weights[m] for m in e.event.members), Fraction(0))] for e in scn.events]]
    if scn.state.factor is None:
        p = Matrix.of(scn.state.matrix.entries)
    else:
        f = Matrix.of(scn.state.factor)
        p = f @ f.dagger

    def lifted(obs_id=None, factor=0):
        # The named observable, else the first on the factor, as the CLI picks it.
        obs = (scn.observable_by_id(obs_id) if obs_id else scn.observables_on_factor(factor)[0]).observable
        return _lifted(scn, obs.space, obs.channels)

    if args.command == "gross":
        return [[[x] for x in born(p, lifted(so.id))] for so in scn.observables]
    if args.command in ("luder", "branches"):
        return (luder if args.command == "luder" else branches)(p, lifted(args.obs or scn.observables[0].id))
    if args.command == "collapse":
        obs_id, label = args.on.split(":", 1)
        on = scn.observable_by_id(obs_id).observable
        return [collapse(p, _lifted(scn, on.space, (on.channel(label),))[0])]
    if args.command == "joint":
        return [joint(p, lifted(args.rows, 0), lifted(args.cols, 1))]
    if args.given:
        obs_id, label = args.given.split(":", 1)
        given = scn.observable_by_id(obs_id).observable
        target = args.target or next(so.id for so in scn.observables if so.observable.space != given.space)
        return [[conditional(p, _lifted(scn, given.space, (given.channel(label),))[0], lifted(target))]]
    target = lifted(None, 1)
    rows = [conditional(p, e, target) for e in lifted(None, 0)]
    return [[row for row in rows if row is not None]]


def _parts(cell) -> tuple[Fraction, Fraction]:
    # A printed json cell (a number or an [re, im] pair) or an exact one.
    re, im = cell if isinstance(cell, (list, tuple)) else (cell, 0)
    return Fraction(re), Fraction(im)


def distance(report: str, exact: list[list[list]]) -> float:
    """The largest |printed - exact| over the real and imaginary parts of
    the cells of the first tables of a json report, one per exact table;
    inf when their shapes differ."""
    printed = [s["cells"] for s in json.loads(report)["sections"] if s["kind"] == "table"][: len(exact)]
    shapes = [[len(row) for row in table] for table in exact]
    if [[len(row) for row in table] for table in printed] != shapes:
        return float("inf")
    cells = [(_parts(c), _parts(x)) for pt, et in zip(printed, exact) for pr, er in zip(pt, et) for c, x in zip(pr, er)]
    return float(max(max(abs(c[0] - x[0]), abs(c[1] - x[1])) for c, x in cells))
