import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprob import (
    Eventuality,
    HilbertSpace,
    LifetimeProfile,
    LifetimeSegment,
    Observable,
    ObserverModel,
    Scheme,
    entropy_capacity,
    lifetime_distribution,
    net_table,
    perception_rate,
    shannon_entropy,
    weights_entropic,
    weights_proper,
    weights_weak,
)


def test_entropy_capacity_frozen():
    assert entropy_capacity(4, 1) == 2.0
    assert entropy_capacity(4, 2) == 1.0
    assert entropy_capacity(2, 1) == 1.0
    assert entropy_capacity(1024, 1) == 10.0
    assert entropy_capacity(8, 8) == 0.0
    assert entropy_capacity(4, 1, log_base="e") == pytest.approx(math.log(4))


def test_entropy_capacity_guards():
    with pytest.raises(ValueError):
        entropy_capacity(4, 3)  # does not divide
    with pytest.raises(ValueError):
        entropy_capacity(2, 4)  # exceeds dim
    with pytest.raises(ValueError):
        entropy_capacity(0, 1)
    with pytest.raises(ValueError):
        entropy_capacity(4, 1, log_base=10)


def test_shannon_entropy():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert shannon_entropy([1.0, 0.0]) == 0.0  # 0 log 0 = 0
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0)
    assert shannon_entropy([0.5, 0.5], log_base="e") == pytest.approx(math.log(2))
    with pytest.raises(ValueError):
        shannon_entropy([-0.1, 1.1])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=16))
def test_shannon_entropy_bounded_by_log_count(raw):
    probs = np.array(raw) / np.sum(raw)
    h = shannon_entropy(probs)
    assert -1e-9 <= h <= math.log2(len(probs)) + 1e-9


def test_scheme_validation():
    Scheme("weak")
    Scheme("entropic", log_base="e")
    with pytest.raises(ValueError):
        Scheme("strong")
    with pytest.raises(ValueError):
        Scheme("entropic", log_base=3)


def observer(id, channels, lifetime=1.0, tau=1.0):
    return ObserverModel(
        id, branch_channels=channels, lifetime=lifetime, perception_duration=tau
    )


def test_observer_model_sources():
    space = HilbertSpace(4, "mind")
    obs = Observable(
        space,
        tuple(Eventuality.from_basis_states(space, [2 * k, 2 * k + 1]) for k in range(2)),
        ("left", "right"),
    )
    o = ObserverModel("pair", observable=obs)
    assert o.channel_rank == 2
    assert o.branch_channels == 2
    assert o.entropy() == 1.0
    direct = ObserverModel("direct", entropy_value=1.5)
    assert direct.entropy() == 1.5
    assert direct.entropy(log_base="e") == 1.5  # passed through unchanged


def test_observer_model_guards():
    with pytest.raises(ValueError, match="exactly one"):
        ObserverModel("two", branch_channels=2, entropy_value=1.0)
    with pytest.raises(ValueError, match="exactly one"):
        ObserverModel("none")
    with pytest.raises(ValueError, match="lifetime"):
        observer("late", 2, lifetime=0.0)
    with pytest.raises(ValueError, match="perception duration"):
        observer("fast", 2, tau=-1.0)
    space = HilbertSpace(3, "odd")
    ragged = Observable(
        space,
        (
            Eventuality.from_basis_states(space, [0, 1]),
            Eventuality.from_basis_states(space, [2]),
        ),
        ("wide", "narrow"),
    )
    with pytest.raises(ValueError, match="share one rank"):
        ObserverModel("ragged", observable=ragged)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_observer_model_rejects_non_finite(value):
    # Left through, these reach the weights: lifetime inf gave weights [nan, 0].
    with pytest.raises(ValueError, match="observer 'late': lifetime must be finite"):
        observer("late", 2, lifetime=value)
    with pytest.raises(ValueError, match="observer 'slow': perception duration must be finite"):
        observer("slow", 2, tau=value)
    with pytest.raises(ValueError, match="observer 'vast': entropy must be finite"):
        ObserverModel("vast", entropy_value=value)


def test_weights_weak():
    w = weights_weak([observer("a", 2), observer("b", 4), observer("c", 8)])
    assert w == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(ValueError):
        weights_weak([])


def test_weights_proper_frozen():
    w, rate = weights_proper([observer("a", 2, lifetime=30.0), observer("b", 2, lifetime=70.0)])
    assert w == pytest.approx([0.3, 0.7])
    assert rate == pytest.approx(0.01)


def test_weights_entropic_cat_master_exact():
    # 4 channels vs 2 channels: capacities 2 and 1, weights exactly 2/3, 1/3
    w, alpha = weights_entropic([observer("master", 4), observer("cat", 2)])
    assert w[0] == 2 / 3  # exact float, via the ratio form
    assert w[1] == 1 / 3
    assert alpha == pytest.approx(1 / 3)


def test_weights_entropic_degenerate_exact():
    # equal capacities give the exact uniform split, not 0.4999...
    w, _ = weights_entropic([observer("a", 8), observer("b", 8), observer("c", 8)])
    assert list(w) == [1 / 3, 1 / 3, 1 / 3]


def test_weights_entropic_zero_capacity():
    w, alpha = weights_entropic([observer("thin", 1), observer("thick", 4)])
    assert w[0] == 0.0
    assert w[1] == 1.0
    assert alpha == pytest.approx(0.5)
    with pytest.raises(ValueError, match="zero entropy"):
        weights_entropic([observer("a", 1), observer("b", 1)])


def test_weights_entropic_log_base_invariant():
    # weights are capacity ratios, so the base drops out
    obs = [observer("a", 2), observer("b", 8), observer("c", 32)]
    w2, _ = weights_entropic(obs, log_base=2)
    we, _ = weights_entropic(obs, log_base="e")
    assert w2 == pytest.approx(we, abs=1e-12)


def test_net_table_frozen_cat_master():
    scheme = Scheme("entropic")
    observers = [observer("master", 4), observer("cat", 2)]
    gross = [[0.25, 0.25, 0.25, 0.25], [0.5, 0.5]]
    table = net_table(scheme, observers, gross)
    assert list(table.net[0]) == pytest.approx([1 / 6] * 4, abs=1e-15)
    assert list(table.net[1]) == pytest.approx([1 / 6] * 2, abs=1e-15)
    assert table.grand_total() == pytest.approx(1.0, abs=1e-12)
    assert table.normalizer == pytest.approx(1 / 3)


def test_net_table_rejects_bad_gross():
    scheme = Scheme("weak")
    with pytest.raises(ValueError, match="'b'"):
        net_table(scheme, [observer("a", 2), observer("b", 2)], [[0.5, 0.5], [0.6, 0.6]])
    with pytest.raises(ValueError, match="gross vectors"):
        net_table(scheme, [observer("a", 2)], [])


def test_net_table_weak_equals_entropic_for_equal_channels():
    observers = [observer("a", 4), observer("b", 4)]
    gross = [[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]]
    weak = net_table(Scheme("weak"), observers, gross)
    entropic = net_table(Scheme("entropic"), observers, gross)
    for g_w, g_e in zip(weak.net, entropic.net):
        assert list(g_w) == list(g_e)  # exact: both weights are exactly 1/2


def test_perception_rate():
    observers = [observer("a", 4, lifetime=10.0, tau=0.5), observer("b", 2, lifetime=30.0, tau=1.0)]
    proper = Scheme("proper")
    assert perception_rate(proper, observers, 0) == pytest.approx(1 / 40)
    assert perception_rate(proper, observers, 1) == pytest.approx(1 / 40)
    entropic = Scheme("entropic")
    # alpha = 1/3; rate_a = (1/3) * 2 / 0.5, rate_b = (1/3) * 1 / 1.0
    assert perception_rate(entropic, observers, 0) == pytest.approx(4 / 3)
    assert perception_rate(entropic, observers, 1) == pytest.approx(1 / 3)
    with pytest.raises(ValueError, match="no perception rate"):
        perception_rate(Scheme("weak"), observers, 0)
    with pytest.raises(ValueError, match="out of range"):
        perception_rate(proper, observers, 2)


def test_lifetime_segment_guards():
    with pytest.raises(ValueError):
        LifetimeSegment(0.0, 1.0, branch_channels=2)
    with pytest.raises(ValueError):
        LifetimeSegment(1.0, 0.0, branch_channels=2)
    with pytest.raises(ValueError, match="exactly one"):
        LifetimeSegment(1.0, 1.0)
    with pytest.raises(ValueError, match="exactly one"):
        LifetimeSegment(1.0, 1.0, branch_channels=2, entropy_value=1.0)
    with pytest.raises(ValueError):
        LifetimeProfile(())


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_lifetime_segment_rejects_non_finite(value):
    with pytest.raises(ValueError, match="segment duration must be finite"):
        LifetimeSegment(value, 1.0, branch_channels=2)
    with pytest.raises(ValueError, match="segment perception duration must be finite"):
        LifetimeSegment(1.0, value, branch_channels=2)
    with pytest.raises(ValueError, match="entropy must be finite"):
        LifetimeSegment(1.0, 1.0, entropy_value=value)


def test_lifetime_distribution_two_segment_exact():
    # same capacity and perception duration: mass is duration share
    profile = LifetimeProfile(
        (
            LifetimeSegment(2.0, 1.0, branch_channels=4),
            LifetimeSegment(1.0, 1.0, branch_channels=4),
        )
    )
    dist = lifetime_distribution(profile)
    assert dist.masses == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
    assert dist.cumulative == pytest.approx([2 / 3, 1.0], abs=1e-12)
    assert dist.argmax_segment == 0


def test_lifetime_distribution_midlife_frozen():
    profile = LifetimeProfile(
        (
            LifetimeSegment(20.0, 0.3, branch_channels=1024),
            LifetimeSegment(40.0, 0.5, branch_channels=1048576),
            LifetimeSegment(20.0, 1.0, branch_channels=1048576),
        )
    )
    dist = lifetime_distribution(profile)
    assert dist.densities == pytest.approx([10 / 0.3, 40.0, 20.0], abs=1e-9)
    assert dist.masses == pytest.approx([0.25, 0.6, 0.15], abs=1e-12)
    assert dist.argmax_segment == 1


def test_lifetime_distribution_zero_capacity_everywhere():
    profile = LifetimeProfile((LifetimeSegment(5.0, 1.0, branch_channels=1),))
    with pytest.raises(ValueError, match="zero total"):
        lifetime_distribution(profile)


@pytest.mark.parametrize("duration,perception_duration", [(1e308, 0.3), (20.0, 5e-324)])
def test_lifetime_distribution_overflowing_mass(duration, perception_duration):
    # Finite inputs whose mass duration * capacity / perception duration overflows.
    profile = LifetimeProfile(
        (
            LifetimeSegment(duration, perception_duration, branch_channels=1024),
            LifetimeSegment(40.0, 0.5, branch_channels=1048576),
        )
    )
    with pytest.raises(ValueError, match="non-finite total perception mass inf"):
        lifetime_distribution(profile)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=3, max_value=60),
    st.integers(min_value=1, max_value=60),
)
def test_entropic_moderation_inequality(n1, gap):
    # For branch-channel counts 3 <= N1 < N2 the entropic share of the
    # bigger observer is strictly moderated: above the uniform split but
    # below the channel-count share. (Not true for N1 = 2: (2,3) reverses
    # and (2,4) ties.)
    n2 = n1 + gap
    w, _ = weights_entropic([observer("small", n1), observer("big", n2)])
    uniform = 0.5
    population = n2 / (n1 + n2)
    assert uniform < w[1] < population


def test_moderation_counterexamples_below_three():
    # documented boundary: with N1 = 2 the inequality fails
    w23, _ = weights_entropic([observer("a", 2), observer("b", 3)])
    assert w23[1] > 3 / 5  # reversed
    w24, _ = weights_entropic([observer("a", 2), observer("b", 4)])
    assert w24[1] == pytest.approx(4 / 6, abs=1e-12)  # exact tie
