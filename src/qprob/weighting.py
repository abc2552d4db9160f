"""Observer weighting: how perception probability is shared out.

Three schemes. The weak scheme splits weight evenly over observers. The
proper scheme weights each observer by lifetime, so the weight is
lifetime / (mean lifetime * count) and the common perception rate is
1 / (mean lifetime * count). The entropic scheme weights an observer by
entropy capacity: with a perception observable of equal-rank channels on
an N-dimensional space, capacity is log N - log R, i.e. the log of the
branch-channel count. Capacity ratios do not depend on whether they are
computed in the observer's own factor or in a composite that lifts it,
because lifting multiplies channel rank and total dimension by the same
factor.

A lifetime profile is piecewise constant: each segment carries a duration,
an entropy source, and a perception duration; perceived moments fall on a
segment in proportion to duration * capacity / perception duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import INVARIANT_TOL
from .observables import Observable

__all__ = [
    "GROSS_SUM_TOL",
    "Scheme",
    "ObserverModel",
    "NetTable",
    "LifetimeSegment",
    "LifetimeProfile",
    "LifetimeDistribution",
    "entropy_capacity",
    "shannon_entropy",
    "weights_weak",
    "weights_proper",
    "weights_entropic",
    "net_table",
    "perception_rate",
    "lifetime_distribution",
]

# A per-observer gross vector must total 1 within this.
GROSS_SUM_TOL = INVARIANT_TOL

SCHEME_VARIANTS = ("weak", "proper", "entropic")


def _log(x: float, log_base) -> float:
    # Supported bases: 2 (bits) and "e" (nats).
    if log_base == 2:
        return math.log2(x)
    if log_base == "e" or log_base == math.e:
        return math.log(x)
    raise ValueError(f"log base must be 2 or 'e', got {log_base!r}")


def entropy_capacity(dim: int, channel_rank: int, log_base=2) -> float:
    """Entropy capacity log(dim) - log(rank): the information in knowing
    which of the dim/rank equal-rank channels holds. Requires
    1 <= rank <= dim with rank dividing dim."""
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    if not isinstance(channel_rank, int) or channel_rank < 1:
        raise ValueError(f"channel rank must be a positive integer, got {channel_rank!r}")
    if channel_rank > dim:
        raise ValueError(f"channel rank {channel_rank} exceeds dimension {dim}")
    if dim % channel_rank != 0:
        raise ValueError(f"channel rank {channel_rank} does not divide dimension {dim}")
    return _log(dim, log_base) - _log(channel_rank, log_base)


def shannon_entropy(probabilities, log_base=2) -> float:
    """Shannon entropy -sum(p log p) with the 0 log 0 = 0 convention.
    Normalization is the caller's responsibility."""
    total = 0.0
    for p in probabilities:
        p = float(p)
        if p < 0:
            raise ValueError(f"probabilities must be nonnegative, got {p}")
        if p > 0:
            total -= p * _log(p, log_base)
    return total


@dataclass(frozen=True)
class Scheme:
    """A weighting scheme choice; log_base only matters for entropic."""

    variant: str
    log_base: object = 2

    def __post_init__(self):
        if self.variant not in SCHEME_VARIANTS:
            raise ValueError(f"unknown scheme {self.variant!r}, expected one of {SCHEME_VARIANTS}")
        _log(2.0, self.log_base)  # reject unsupported bases early


class _EntropySource:
    """What observers and lifetime segments share: positive, finite
    durations and exactly one entropy source, read out as a capacity.
    Subclasses carry `branch_channels` and `entropy_value`."""

    def _check_positive(self, prefix: str, quantities: dict[str, float]) -> None:
        for name, value in quantities.items():
            if not math.isfinite(value):
                raise ValueError(f"{prefix}{name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{prefix}{name} must be positive, got {value}")

    def _check_source(self, names: tuple[str, ...], prefix: str = "", scope: str = "") -> None:
        # `names` are the attributes that each count as an entropy source.
        if sum(getattr(self, name) is not None for name in names) != 1:
            raise ValueError(f"{prefix}give exactly one of {', '.join(names)}{scope}")
        if self.branch_channels is not None and (
            not isinstance(self.branch_channels, int) or self.branch_channels < 1
        ):
            raise ValueError(f"{prefix}branch_channels must be a positive integer, got {self.branch_channels!r}")
        if self.entropy_value is not None and not math.isfinite(self.entropy_value):
            raise ValueError(f"{prefix}entropy must be finite, got {self.entropy_value}")
        if self.entropy_value is not None and self.entropy_value < 0:
            raise ValueError(f"{prefix}entropy must be nonnegative, got {self.entropy_value}")

    def entropy(self, log_base=2) -> float:
        """Entropy capacity in the given base; a direct entropy value is
        returned as supplied (its base is the caller's convention)."""
        if self.entropy_value is not None:
            return float(self.entropy_value)
        return _log(self.branch_channels, log_base)


@dataclass(frozen=True, eq=False)
class ObserverModel(_EntropySource):
    """An observer: an entropy source plus lifetime bookkeeping.

    Exactly one entropy source must be given: a perception observable
    (channels must share a single rank; branch channels = dim / rank), a
    direct branch-channel count, or a direct entropy value for what-if
    profiles. Lifetime and perception duration must be positive.
    """

    id: str
    observable: Observable | None = None
    branch_channels: int | None = None
    entropy_value: float | None = None
    lifetime: float = 1.0
    perception_duration: float = 1.0
    channel_rank: int | None = None

    def __post_init__(self):
        prefix = f"observer {self.id!r}: "
        self._check_positive(prefix, {"lifetime": self.lifetime, "perception duration": self.perception_duration})
        self._check_source(("observable", "branch_channels", "entropy_value"), prefix=prefix)
        if self.observable is not None:
            ranks = sorted({ch.rank for ch in self.observable.channels})
            if len(ranks) != 1:
                raise ValueError(
                    f"observer {self.id!r}: perception channels must share one rank, got ranks {ranks}"
                )
            rank = ranks[0]
            if rank == 0:
                raise ValueError(f"observer {self.id!r}: perception channels must be non-null")
            object.__setattr__(self, "channel_rank", rank)
            object.__setattr__(self, "branch_channels", self.observable.space.dim // rank)


def weights_weak(observers) -> np.ndarray:
    """Equal share per observer."""
    n = len(observers)
    if n == 0:
        raise ValueError("cannot weight an empty observer list")
    return np.full(n, 1.0 / n)


def weights_proper(observers) -> tuple[np.ndarray, float]:
    """Lifetime-proportional weights plus the common perception rate
    1 / (mean lifetime * count)."""
    n = len(observers)
    if n == 0:
        raise ValueError("cannot weight an empty observer list")
    lifetimes = np.array([o.lifetime for o in observers], dtype=np.float64)
    total = float(lifetimes.sum())
    return lifetimes / total, 1.0 / total


def weights_entropic(observers, log_base=2) -> tuple[np.ndarray, float]:
    """Entropy-proportional weights plus the normalizer alpha = 1 / sum S.

    weight_k is computed as 1 / sum_m(S_m / S_k), which equals
    S_k / sum S but degenerates exactly to the uniform split when all
    capacities coincide. Zero-capacity observers get weight zero; an
    all-zero population cannot be normalized.
    """
    n = len(observers)
    if n == 0:
        raise ValueError("cannot weight an empty observer list")
    caps = [float(o.entropy(log_base)) for o in observers]
    total = sum(caps)
    if total <= 0.0:
        raise ValueError("every observer has zero entropy capacity; entropic weights are undefined")
    weights = np.empty(n, dtype=np.float64)
    for k, s in enumerate(caps):
        if s == 0.0:
            weights[k] = 0.0
        else:
            weights[k] = 1.0 / sum(other / s for other in caps)
    return weights, 1.0 / total


@dataclass(frozen=True, eq=False)
class NetTable:
    """Net perception probabilities: weight times gross, per channel."""

    scheme: Scheme
    observers: tuple[ObserverModel, ...]
    weights: np.ndarray
    gross: tuple[np.ndarray, ...]
    net: tuple[np.ndarray, ...]
    normalizer: float | None  # alpha (entropic) or rate (proper)

    def grand_total(self) -> float:
        return float(sum(arr.sum() for arr in self.net))


def net_table(scheme: Scheme, observers, gross) -> NetTable:
    """Split gross per-observer channel probabilities into net shares.

    Every gross vector must total 1 within GROSS_SUM_TOL. The net table totals 1
    because the weights do.
    """
    observers = tuple(observers)
    gross = tuple(np.array(g, dtype=np.float64) for g in gross)
    if len(observers) != len(gross):
        raise ValueError(f"{len(observers)} observers but {len(gross)} gross vectors")
    for o, g in zip(observers, gross):
        residual = abs(float(g.sum()) - 1.0)
        if residual > GROSS_SUM_TOL:
            raise ValueError(
                f"gross probabilities for {o.id!r} must total 1: residual {residual:.3e} exceeds {GROSS_SUM_TOL:.0e}"
            )
    normalizer: float | None = None
    if scheme.variant == "weak":
        weights = weights_weak(observers)
    elif scheme.variant == "proper":
        weights, normalizer = weights_proper(observers)
    else:
        weights, normalizer = weights_entropic(observers, scheme.log_base)
    net = tuple(w * g for w, g in zip(weights, gross))
    return NetTable(scheme, observers, weights, gross, net, normalizer)


def perception_rate(scheme: Scheme, observers, index: int) -> float:
    """Perception probability per unit time for one observer.

    Proper: 1 / (mean lifetime * count), the same for everyone. Entropic:
    alpha * capacity / perception duration, so rate * duration recovers
    the observer's weight. The weak scheme defines no rate.
    """
    observers = tuple(observers)
    if not 0 <= index < len(observers):
        raise ValueError(f"observer index {index} out of range for {len(observers)} observers")
    if scheme.variant == "proper":
        return weights_proper(observers)[1]
    if scheme.variant == "entropic":
        _, alpha = weights_entropic(observers, scheme.log_base)
        o = observers[index]
        return alpha * o.entropy(scheme.log_base) / o.perception_duration
    raise ValueError("the weak scheme defines no perception rate")


@dataclass(frozen=True)
class LifetimeSegment(_EntropySource):
    """One piecewise-constant stretch of a lifetime."""

    duration: float
    perception_duration: float
    branch_channels: int | None = None
    entropy_value: float | None = None

    def __post_init__(self):
        self._check_positive("segment ", {"duration": self.duration, "perception duration": self.perception_duration})
        self._check_source(("branch_channels", "entropy_value"), scope=" per segment")


@dataclass(frozen=True)
class LifetimeProfile:
    segments: tuple[LifetimeSegment, ...]

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a lifetime profile needs at least one segment")
        object.__setattr__(self, "segments", segments)


@dataclass(frozen=True, eq=False)
class LifetimeDistribution:
    """Where on a lifetime the perceived moment falls."""

    profile: LifetimeProfile
    densities: np.ndarray  # capacity / perception duration, per segment
    masses: np.ndarray  # normalized duration * density
    cumulative: np.ndarray
    argmax_segment: int


def lifetime_distribution(profile: LifetimeProfile, log_base=2) -> LifetimeDistribution:
    """Distribute perception mass over a profile's segments in proportion
    to duration * capacity / perception duration. An all-zero profile, or
    one whose total mass overflows, has no distribution and is an error."""
    dens = np.array(
        [seg.entropy(log_base) / seg.perception_duration for seg in profile.segments],
        dtype=np.float64,
    )
    with np.errstate(over="ignore"):  # an overflow is reported below as a non-finite total
        raw = np.array([seg.duration for seg in profile.segments], dtype=np.float64) * dens
        total = float(raw.sum())
    if not math.isfinite(total):
        raise ValueError(f"profile has non-finite total perception mass {total}; distribution is undefined")
    if total <= 0.0:
        raise ValueError("profile has zero total perception mass; distribution is undefined")
    masses = raw / total
    return LifetimeDistribution(profile, dens, masses, np.cumsum(masses), int(np.argmax(masses)))
