"""Exception types shared across the package."""


class CableOptError(Exception):
    """Base class for all cableopt errors."""


class DegenerateCable(CableOptError):
    """Cable parameters admit no two-port (zero length or zero shunt admittance)."""


class ZeroFarmPower(CableOptError):
    """The wind side injects no active power; efficiency is undefined."""


class NoPositivePower(CableOptError):
    """No scaling in the search range yields positive farm power."""


class Infeasible(CableOptError):
    """No operating point satisfies the voltage and current constraints."""


class EmptyCurve(CableOptError):
    """Duration curve has no bins or zero total weight."""


class NegativeWeight(CableOptError):
    """Duration curve contains a negative or non-finite weight."""


class PowerOutOfRange(CableOptError):
    """Duration curve contains a production level outside [0, 1]."""


class UnreachableTarget(CableOptError):
    """Bisection cannot attain the requested utilization factor."""


class ConfigError(CableOptError):
    """Study configuration is malformed or inconsistent."""
