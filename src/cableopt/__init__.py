"""Loss and efficiency analysis of long HVAC export cables.

Distributed-parameter cable modeling, loss-minimizing voltage control
under equipment constraints, annual energy efficiency of voltage-control
strategies, and maximum-transfer envelopes, with a CSV-emitting CLI.
"""

from .annual_energy import (
    AnnualResult,
    BinOutcome,
    DurationCurve,
    FixedVoltage,
    StrategyOutcome,
    VoltageRange,
    VoltageStrategy,
    annual_efficiency,
    compare_strategies,
    load_duration_curve,
    read_duration_csv,
    reference_duration_curve,
    synth_duration_curve,
    tap_range,
    utilization_factor,
    write_duration_csv,
)
from .cable_model import (
    DEFAULT_PROFILE_SEGMENTS,
    CableSpec,
    PulParameters,
    SegmentProfile,
    TwoPort,
    characteristic_impedance,
    exact_pi_two_port,
    propagation_constant,
    pul_series_impedance,
    pul_shunt_admittance,
    segment_profile,
)
from .errors import CableOptError, ConfigError, Infeasible
from .optimizer import (
    BindingConstraint,
    Constraints,
    CurvePoint,
    EnvelopePoint,
    OptimumPoint,
    TransferEnvelope,
    max_feasible_power,
    max_feasible_power_rows,
    optimal_voltage_curve,
    optimize_at_production,
    optimize_at_production_rows,
    optimize_scaling_unconstrained,
    transfer_envelope,
)
from .power_flow import (
    FlowSolution,
    OperatingPoint,
    VoltageScaling,
    efficiency_of_scaling,
    farm_power_coefficient,
    grid_power_coefficient,
    solve_flow,
)

__version__ = "0.1.0"

__all__ = [
    "AnnualResult", "BinOutcome", "BindingConstraint", "CableOptError",
    "CableSpec", "ConfigError", "Constraints", "CurvePoint",
    "DEFAULT_PROFILE_SEGMENTS", "DurationCurve", "EnvelopePoint", "FixedVoltage",
    "FlowSolution", "Infeasible", "OperatingPoint", "OptimumPoint", "PulParameters",
    "SegmentProfile", "StrategyOutcome", "TransferEnvelope", "TwoPort",
    "VoltageRange", "VoltageScaling", "VoltageStrategy",
    "annual_efficiency", "characteristic_impedance",
    "compare_strategies", "efficiency_of_scaling", "exact_pi_two_port",
    "farm_power_coefficient", "grid_power_coefficient",
    "load_duration_curve", "max_feasible_power", "max_feasible_power_rows",
    "optimal_voltage_curve", "optimize_at_production", "optimize_at_production_rows",
    "optimize_scaling_unconstrained",
    "propagation_constant", "pul_series_impedance", "pul_shunt_admittance",
    "read_duration_csv", "reference_duration_curve", "segment_profile",
    "solve_flow", "synth_duration_curve", "tap_range", "transfer_envelope",
    "utilization_factor", "write_duration_csv",
]
