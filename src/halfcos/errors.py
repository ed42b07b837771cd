"""Exceptions shared across the package."""

__all__ = [
    "HalfcosError",
    "DomainError",
    "ResolutionMismatchError",
    "AliasingError",
    "TruncationError",
    "ConditionError",
    "DivergentTailError",
    "ConfigError",
]


class HalfcosError(Exception):
    """Base class for all package errors."""


class DomainError(HalfcosError):
    """Input point or grid lies outside the declared domain."""


class ResolutionMismatchError(HalfcosError):
    """Two grid functions with incompatible resolutions were combined."""


class AliasingError(HalfcosError):
    """Quadrature resolution too low for the requested frequency set."""


class TruncationError(HalfcosError):
    """A truncated series tail exceeds the requested tolerance."""


class ConditionError(HalfcosError):
    """A linear system is ill-conditioned beyond the accepted threshold."""


class DivergentTailError(HalfcosError):
    """Tail extrapolation of a level sum does not decay."""


class ConfigError(HalfcosError):
    """Invalid experiment configuration."""
