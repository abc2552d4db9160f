"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; plain `pytest` shows them for failing criteria only. Tolerances
are pinned here, not imported, so a library regression cannot silently
relax the gate.
"""

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from qprob import (
    ClassicalModel,
    CompositeSpace,
    Eventuality,
    HilbertSpace,
    LifetimeProfile,
    LifetimeSegment,
    Observable,
    ObserverModel,
    ProbabilityOperator,
    Scheme,
    Vec,
    born,
    collapse,
    entropy_capacity,
    expectation,
    heisenberg_transport,
    lift,
    lift_eventuality,
    load_preset,
    luder,
    net_table,
    partial_trace,
    reduce_composite,
    shannon_entropy,
    weights_entropic,
    weights_weak,
)
from qprob.cli import Options, main, run_command
from qprob.render import RenderedTable, render_report
from tests.helpers import (
    on_fresh_stack,
    rand_density,
    rand_pure,
    rand_state,
    rand_subspace,
    rand_unitary_op,
)

REPO = Path(__file__).parent.parent
MALFORMED = Path(__file__).parent / "data" / "malformed"

EXACT = 0.0
TIGHT = 1e-12
COMPOSITE_TOL = 1e-10
ALGEBRA_TOL = 1e-8


def report(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(str(f) for f in failures[:10])


def basis_observable(space, labels=()):
    channels = tuple(Eventuality.from_basis_states(space, [k]) for k in range(space.dim))
    return Observable(space, channels, labels)


def cells_of(report_obj, caption_prefix):
    for section in report_obj.sections:
        if isinstance(section, RenderedTable) and section.caption.startswith(caption_prefix):
            return [[float(c) for c in row] for row in section.cells]
    raise AssertionError(f"no table with caption starting {caption_prefix!r}")


def test_criterion_01_master_table_end_to_end(capsys):
    """The shipped four-channel/two-channel scenario reproduces its worked
    probability table through the command line."""
    failures = []
    rep = run_command("net", load_preset("cat-master"), Options())

    joint = np.array(cells_of(rep, "joint gross probabilities"))
    want_joint = np.array([[0.25, 0], [0, 0.25], [0.125, 0.125], [0.125, 0.125]])
    if np.abs(joint - want_joint).max() > TIGHT:
        failures.append(f"joint table off by {np.abs(joint - want_joint).max():.3e}")

    weights = np.array(cells_of(rep, "observer weights")).ravel()
    if np.abs(weights - [2 / 3, 1 / 3]).max() > TIGHT:
        failures.append(f"weights {weights} not (2/3, 1/3)")

    net = np.array(cells_of(rep, "net perception probabilities"))
    want_net = np.array([[0.25, 1 / 6]] * 4 + [[0.5, 1 / 6]] * 2)
    if np.abs(net - want_net).max() > TIGHT:
        failures.append(f"net listing off by {np.abs(net - want_net).max():.3e}")

    text = render_report(rep, "text", 6)
    if text.count("-> 0.166667") != 6:
        failures.append("expected six equal net probabilities in text output")

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qprob", "net", "--preset", "cat-master"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        failures.append(f"subprocess exit {proc.returncode}: {proc.stderr[:200]}")
    elif proc.stdout != text:
        failures.append("subprocess output differs from in-process rendering")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget is 1s")
    report(1, "worked master/cat net table via CLI, within 1e-12, under 1s", failures)


def test_criterion_02_entropy_capacities_exact():
    """Branch-count capacities are bit-exact for powers of two."""
    failures = []
    cases = [
        ((4, 1, 2), 2.0),
        ((2, 1, 2), 1.0),
        ((4, 2, 2), 1.0),
        ((1024, 1, 2), 10.0),
        ((1048576, 1, 2), 20.0),
        ((8, 8, 2), 0.0),
        ((65536, 256, 2), 8.0),
    ]
    for (dim, rank, base), want in cases:
        got = entropy_capacity(dim, rank, base)
        if got != want:
            failures.append(f"capacity({dim},{rank}) = {got!r}, want {want!r} exactly")
    import math

    if abs(entropy_capacity(4, 1, "e") - math.log(4)) > TIGHT:
        failures.append("natural-log capacity off")
    report(2, "entropy capacities exact (log2 on powers of two)", failures)


def test_criterion_03_two_channel_split():
    """The symmetric two-channel preset yields a perfect half/half split
    and zero expectation."""
    failures = []
    scn = load_preset("stern-gerlach")
    sobs = scn.observable_by_id("alignment")
    probs = [born(scn.state, ch) for ch in sobs.observable.channels]
    if abs(probs[0] - 0.5) > TIGHT or abs(probs[1] - 0.5) > TIGHT:
        failures.append(f"gross split {probs}")
    value = expectation(sobs.quantitative, scn.state)
    if abs(value) > TIGHT:
        failures.append(f"expectation {value:.3e} should vanish")
    report(3, "two-channel preset splits 1/2, 1/2 with zero expectation", failures)


def test_criterion_04_decoherence_round_trips():
    """Decoherence: sandwich sum equals the collapse mixture, is
    idempotent, and preserves channel probabilities. 500 random draws."""
    failures = []
    rng = np.random.default_rng(2026_08_19)
    for trial in range(500):
        dim = int(rng.integers(2, 9))
        space = HilbertSpace(dim, "h")
        state = rand_state(rng, space)
        obs = heisenberg_transport(basis_observable(space), rand_unitary_op(rng, space))
        direct = luder(state, obs)
        mixture = np.zeros((dim, dim), dtype=complex)
        for ch in obs.channels:
            p = born(state, ch)
            if p > 1e-12:
                mixture += p * collapse(state, ch).operator.matrix.entries
        if np.abs(direct.matrix.entries - mixture).max() > ALGEBRA_TOL:
            failures.append(f"trial {trial}: sandwich sum != collapse mixture")
            break
        twice = luder(direct, obs)
        if np.abs(twice.matrix.entries - direct.matrix.entries).max() > ALGEBRA_TOL:
            failures.append(f"trial {trial}: not idempotent")
            break
        for ch in obs.channels:
            if abs(born(direct, ch) - born(state, ch)) > ALGEBRA_TOL:
                failures.append(f"trial {trial}: channel probability drifted")
                break
    report(4, "500 decoherence round trips (mixture, idempotence, preservation) at 1e-8", failures)


def _partial_trace_oracle(entries, dims, keep):
    n = dims[keep]
    out = np.zeros((n, n), dtype=complex)
    boxed = entries.reshape(tuple(dims) + tuple(dims))
    other = [k for k in range(len(dims)) if k != keep]
    for i in range(n):
        for j in range(n):
            for idx in itertools.product(*(range(dims[k]) for k in other)):
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, k in enumerate(other):
                    row[k] = idx[pos]
                    col[k] = idx[pos]
                row[keep] = i
                col[keep] = j
                out[i, j] += boxed[tuple(row) + tuple(col)]
    return out


def test_criterion_05_composite_consistency():
    """Reduction and lifting agree: tr(P_reduced e) == tr(P (e x I)), and
    the einsum partial trace matches a direct index-summation oracle.
    500 random draws over 2x2, 2x3, 3x3."""
    failures = []
    rng = np.random.default_rng(50_05)
    shapes = [(2, 2), (2, 3), (3, 3)]
    for trial in range(500):
        d1, d2 = shapes[trial % len(shapes)]
        comp = CompositeSpace((HilbertSpace(d1, "left"), HilbertSpace(d2, "right")))
        state = rand_state(rng, comp.space)
        keep = trial % 2
        reduced = reduce_composite(state, comp, keep)
        oracle = _partial_trace_oracle(state.matrix.entries, (d1, d2), keep)
        if np.abs(reduced.matrix.entries - oracle).max() > COMPOSITE_TOL:
            failures.append(f"trial {trial}: partial trace disagrees with summation oracle")
            break
        factor = comp.factors[keep]
        e = rand_subspace(rng, factor, int(rng.integers(1, factor.dim + 1)))
        lifted = lift_eventuality(e, comp, keep)
        if abs(born(reduced, e) - born(state, lifted)) > COMPOSITE_TOL:
            failures.append(f"trial {trial}: reduced-state and lifted-event probabilities differ")
            break
    report(5, "500 composite reduce/lift consistency checks at 1e-10", failures)


def test_criterion_06_lattice_laws():
    """Subspace lattice laws on 500 random pairs, exact classical
    inclusion-exclusion, and the quantum sum-rule violation witness."""
    failures = []
    rng = np.random.default_rng(60_06)
    for trial in range(500):
        dim = int(rng.integers(2, 7))
        space = HilbertSpace(dim, "h")
        a = rand_subspace(rng, space, int(rng.integers(0, dim + 1)))
        b = rand_subspace(rng, space, int(rng.integers(0, dim + 1)))
        checks = [
            ((a & (a | b)).equals(a, ALGEBRA_TOL), "absorption meet"),
            ((a | (a & b)).equals(a, ALGEBRA_TOL), "absorption join"),
            ((~(~a)).equals(a, ALGEBRA_TOL), "double complement"),
            ((a & ~a).is_null, "meet with complement"),
            ((a | ~a).is_certain, "join with complement"),
            ((a & b).equals(~((~a) | (~b)), ALGEBRA_TOL), "De Morgan cross-route"),
            ((a & b).rank >= a.rank + b.rank - dim, "rank lower bound"),
            ((a & b).leq(a, ALGEBRA_TOL) and a.leq(a | b, ALGEBRA_TOL), "ordering"),
        ]
        bad = [name for ok, name in checks if not ok]
        if bad:
            failures.append(f"trial {trial} (dim {dim}): {', '.join(bad)}")
            if len(failures) > 3:
                break

    # classical inclusion-exclusion stays exact on dyadic weights
    for trial in range(200):
        n = int(rng.integers(1, 6))
        cuts = np.sort(rng.integers(0, 4097, size=n - 1)) if n > 1 else np.array([], dtype=int)
        ticks = np.concatenate(([0], cuts, [4096]))
        weights = [(int(ticks[i + 1]) - int(ticks[i])) / 4096 for i in range(n)]
        model = ClassicalModel(tuple(f"w{i}" for i in range(n)), weights)
        pick = lambda: [f"w{i}" for i in range(n) if rng.integers(0, 2)]
        a = model.event(pick())
        b = model.event(pick())
        if (a | b).prob() != a.prob() + b.prob() - (a & b).prob():
            failures.append(f"classical trial {trial}: inclusion-exclusion not exact")
            break
        if (~a).prob() != 1.0 - a.prob():
            failures.append(f"classical trial {trial}: complement not exact")
            break

    # witness: non-orthogonal join breaks the classical sum rule
    spin = HilbertSpace(2, "spin")
    state = ProbabilityOperator.diagonal(spin, [0.75, 0.25])
    a = Eventuality.from_span(spin, [Vec(spin, [1, 0])])
    b = Eventuality.from_span(spin, [Vec(spin, np.array([1, 1]) / np.sqrt(2))])
    classical_value = born(state, a) + born(state, b) - born(state, a & b)
    if abs(born(state, a | b) - classical_value) < 0.2:
        failures.append("sum-rule violation witness lost")
    report(6, "500 lattice law checks at 1e-8, exact classical algebra, sum-rule witness", failures)


def test_criterion_07_picture_equivalence():
    """Transporting the state forward equals transporting eventualities
    backward: 200 random (state, unitary, eventuality) triples."""
    failures = []
    rng = np.random.default_rng(70_07)
    for trial in range(200):
        dim = int(rng.integers(2, 8))
        space = HilbertSpace(dim, "h")
        state = rand_state(rng, space)
        u = rand_unitary_op(rng, space)
        e = rand_subspace(rng, space, int(rng.integers(1, dim + 1)))
        evolved = ProbabilityOperator.from_entries(
            space, u.entries @ state.matrix.entries @ u.entries.conj().T
        )
        lhs = born(evolved, e)
        rhs = born(state, heisenberg_transport(e, u))
        if abs(lhs - rhs) > COMPOSITE_TOL:
            failures.append(f"trial {trial}: pictures differ by {abs(lhs - rhs):.3e}")
            break
    report(7, "200 picture-equivalence triples at 1e-10", failures)


def test_criterion_08_weighting_invariants():
    """Shannon bound over 1000 draws; net tables total 1 under all three
    schemes; entropic weights are log-base invariant and exactly uniform
    for equal channel counts."""
    failures = []
    rng = np.random.default_rng(80_08)
    for trial in range(1000):
        n = int(rng.choice([2, 4, 8]))
        probs = rng.dirichlet(np.ones(n))
        h = shannon_entropy(probs)
        if not -1e-12 <= h <= np.log2(n) + 1e-9:
            failures.append(f"trial {trial}: entropy {h} outside [0, log2 {n}]")
            break

    def rand_gross(k):
        return list(rng.dirichlet(np.ones(k)))

    for trial in range(100):
        observers = [
            ObserverModel(
                f"o{i}",
                branch_channels=int(rng.choice([2, 4, 8, 16])),
                lifetime=float(rng.uniform(0.5, 80.0)),
                perception_duration=float(rng.uniform(0.1, 2.0)),
            )
            for i in range(int(rng.integers(1, 5)))
        ]
        gross = [rand_gross(int(rng.integers(1, 5))) for _ in observers]
        for variant in ("weak", "proper", "entropic"):
            table = net_table(Scheme(variant), observers, gross)
            if abs(table.grand_total() - 1.0) > TIGHT:
                failures.append(f"trial {trial}: {variant} net total {table.grand_total()}")
        w2, _ = weights_entropic(observers, log_base=2)
        we, _ = weights_entropic(observers, log_base="e")
        if np.abs(w2 - we).max() > TIGHT:
            failures.append(f"trial {trial}: entropic weights depend on log base")
        if len(failures) > 3:
            break

    equal = [ObserverModel(f"e{i}", branch_channels=4) for i in range(3)]
    gross = [rand_gross(2) for _ in equal]
    went = net_table(Scheme("entropic"), equal, gross)
    wweak = net_table(Scheme("weak"), equal, gross)
    for ge, gw in zip(went.net, wweak.net):
        if list(ge) != list(gw):
            failures.append("equal channel counts: entropic must equal weak exactly")
    if list(weights_weak(equal)) != [1 / 3, 1 / 3, 1 / 3]:
        failures.append("weak weights not exactly uniform")
    report(8, "1000 Shannon bounds, net totals 1 under 3 schemes, base invariance", failures)


def test_criterion_09_lifetime_and_moderation():
    """Lifetime mass splits exactly with duration; entropic shares are
    moderated for channel counts of 3 and up."""
    failures = []
    profile = LifetimeProfile(
        (
            LifetimeSegment(2.0, 1.0, branch_channels=4),
            LifetimeSegment(1.0, 1.0, branch_channels=4),
        )
    )
    from qprob import lifetime_distribution

    dist = lifetime_distribution(profile)
    if abs(dist.masses[0] - 2 / 3) > TIGHT or abs(dist.masses[1] - 1 / 3) > TIGHT:
        failures.append(f"two-segment masses {dist.masses}")
    if dist.argmax_segment != 0:
        failures.append("argmax segment wrong")

    for n1 in range(3, 41):
        for n2 in range(n1 + 1, 41):
            w, _ = weights_entropic(
                [ObserverModel("a", branch_channels=n1), ObserverModel("b", branch_channels=n2)]
            )
            if not 0.5 < w[1] < n2 / (n1 + n2):
                failures.append(f"moderation fails at ({n1}, {n2}): share {w[1]}")
    # the documented boundary: N1 = 2 reverses at N2 = 3 and ties at N2 = 4
    w23, _ = weights_entropic(
        [ObserverModel("a", branch_channels=2), ObserverModel("b", branch_channels=3)]
    )
    if not w23[1] > 3 / 5:
        failures.append("(2, 3) boundary case changed behavior")
    w25, _ = weights_entropic(
        [ObserverModel("a", branch_channels=2), ObserverModel("b", branch_channels=5)]
    )
    if not 0.5 < w25[1] < 5 / 7:
        failures.append("(2, 5) spot check fails moderation")
    report(9, "lifetime mass 2/3-1/3 at 1e-12; moderation holds for all 3<=N1<N2<=40", failures)


APPLICABLE = {
    "coin": ["validate", "gross", "check"],
    "stern-gerlach": ["validate", "gross", "luder", "branches", "check"],
    "cat-box": ["validate", "gross", "joint", "conditional", "luder", "branches", "check"],
    "cat-master": [
        "validate",
        "gross",
        "joint",
        "conditional",
        "luder",
        "branches",
        "net",
        "check",
    ],
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
    "16_nan_duration.json": "non-finite number NaN",
    "17_overflow_lifetime.json": "non-finite number 1e999",
    "18_huge_integer_duration.json": "integer literal too large for a float",
    "19_overflowing_channel_vector.json": "channel 'up': spanning vector norm overflows a float",
    "20_ragged_channel_vectors.json": "channel 'up': vectors have different lengths (2 and 1)",
    "21_ragged_density_rows.json": "state matrix: rows have different lengths",
    "22_deep_nesting.json": "parse error: nesting too deep to read",
    "23_deep_payload.json": "schema violation: value nested too deeply to check",
    "24_overflowing_weights.json": "diagonal weight total overflows a float",
}


def test_criterion_10_determinism_and_rejection(capsys):
    """Every preset/command pair renders byte-identical output twice in
    every format; subprocess spot checks agree; malformed files are
    rejected with the violated invariant named."""
    failures = []
    for preset, commands in APPLICABLE.items():
        scn = load_preset(preset)
        for command in commands:
            for fmt in ("text", "csv", "json"):
                opts = Options()
                first = render_report(run_command(command, scn, opts), fmt, 6)
                second = render_report(run_command(command, scn, opts), fmt, 6)
                if first != second:
                    failures.append(f"{preset}/{command}/{fmt}: output not reproducible")
        if preset in COLLAPSE_TARGETS:
            opts = Options(on=COLLAPSE_TARGETS[preset])
            first = render_report(run_command("collapse", scn, opts), "text", 6)
            second = render_report(run_command("collapse", scn, opts), "text", 6)
            if first != second:
                failures.append(f"{preset}/collapse: output not reproducible")

    spot_checks = [
        ["net", "--preset", "cat-master"],
        ["gross", "--preset", "coin", "--format", "csv"],
        ["check", "--preset", "cat-box", "--format", "json"],
    ]
    for argv in spot_checks:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "qprob"] + argv, capture_output=True
            )
            for _ in range(2)
        ]
        if runs[0].returncode != 0:
            failures.append(f"spot check {argv}: exit {runs[0].returncode}")
        if (runs[0].stdout, runs[0].stderr, runs[0].returncode) != (
            runs[1].stdout,
            runs[1].stderr,
            runs[1].returncode,
        ):
            failures.append(f"spot check {argv}: bytes differ between runs")

    files = sorted(MALFORMED.glob("*.json"))
    if len(files) < 10:
        failures.append(f"only {len(files)} malformed files")
    for path in files:
        # From a stack as shallow as the command line's: the verdict on a
        # document nested near the recursion limit depends on it.
        code = on_fresh_stack(main, ["validate", "--scenario", str(path)])
        err = capsys.readouterr().err
        if code not in (1, 2):
            failures.append(f"{path.name}: exit {code}, want 1 or 2")
        needle = MALFORMED_NEEDLES.get(path.name, "")
        if needle and needle not in err:
            failures.append(f"{path.name}: stderr does not name the violation ({needle!r})")
    report(10, "byte-determinism across presets/commands/formats; 24 malformed files rejected", failures)
