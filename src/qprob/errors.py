"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "QprobError",
    "SpaceMismatchError",
    "StructureError",
    "ZeroProbabilityError",
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "UnknownPresetError",
    "IncompatibleCommandError",
]


class QprobError(Exception):
    """Base class for every error raised by this package."""


class SpaceMismatchError(QprobError):
    """Operands live on different Hilbert spaces or factorizations."""


class StructureError(QprobError):
    """A matrix fails a required structural predicate.

    Carries the defining residual when one is available, so callers can
    report how far the input was from satisfying the predicate.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ZeroProbabilityError(QprobError):
    """Conditioning on an eventuality whose probability is below threshold."""

    def __init__(self, message: str, probability: float, threshold: float):
        super().__init__(message)
        self.probability = probability
        self.threshold = threshold


class ScenarioError(QprobError):
    """Base class for scenario loading problems."""


class ScenarioParseError(ScenarioError):
    """The scenario file is not syntactically valid."""


class ScenarioValidationError(ScenarioError):
    """The scenario file parses but violates a documented invariant.

    Carries the JSON path of the offending node (`$.state.vector[0]`) when
    the violation belongs to one node, so callers can point at it.
    """

    def __init__(self, message: str, json_path: str | None = None):
        super().__init__(message)
        self.json_path = json_path


class UnknownPresetError(ScenarioError):
    """A preset name that is not shipped with the package."""


class IncompatibleCommandError(QprobError):
    """The requested command does not apply to the given scenario."""
