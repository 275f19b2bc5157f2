"""Exception hierarchy, mapped onto stable CLI exit codes (1/2/3)."""


class OrbitMpcError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class NumericalError(OrbitMpcError):
    """Divergence, residual failure, non-finite values, indefinite matrices."""

    exit_code = 1


class InfeasibleError(NumericalError):
    """Empty or NaN constraint set, or an applied input beyond its limits."""

    exit_code = 1


class ConfigError(OrbitMpcError):
    """Bad configuration values, unreadable or malformed input files."""

    exit_code = 2


class DimensionError(OrbitMpcError):
    """Shape mismatch between plant, design bundle and runtime data."""

    exit_code = 3
