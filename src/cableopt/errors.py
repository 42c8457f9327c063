"""Exception types shared across the package: one per CLI exit code."""


class CableOptError(Exception):
    """Base class for all cableopt errors."""


class ConfigError(CableOptError, ValueError):
    """The study or one of its inputs is malformed or out of range (CLI exit 2)."""


class Infeasible(CableOptError):
    """The cable cannot carry the request, or the request is degenerate (CLI exit 3)."""
