"""Steady-state flow, losses and efficiency of a cable operating point.

Conventions (fixed once, used everywhere):

* the grid-side voltage v2 is real and given in per unit of the cable's
  nominal (line-to-line) voltage;
* the wind-side voltage is v1 = xi*v2 with xi = alpha*e^{j*beta};
* both terminal currents are positive into the cable, so delivered grid
  power is p_grid = -3*Re{V2*conj(I2)};
* powers are three-phase watts/vars formed from phase voltages,
  3*Re{V_ph*conj(I)}, numerically equal to sqrt(3)*Re{V_LL*conj(I)}.

For a fixed scaling xi the efficiency p_grid/p_farm is independent of v2:
both powers scale with v2^2, which is what makes a closed-form efficiency
of the scaling alone possible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .cable_model import CableSpec, TwoPort, exact_pi_two_port
from .errors import Infeasible


@dataclass(frozen=True)
class VoltageScaling:
    """Complex ratio of wind-side to grid-side voltage, xi = alpha*e^{j*beta}.

    alpha is the magnitude ratio, beta the phase lead [rad] of the wind side.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not (-math.pi < self.beta <= math.pi):
            raise ValueError(f"beta must be in (-pi, pi], got {self.beta}")

    @classmethod
    def from_degrees(cls, alpha: float, beta_deg: float) -> "VoltageScaling":
        return cls(alpha, math.radians(beta_deg))

    @property
    def beta_deg(self) -> float:
        return math.degrees(self.beta)

    @property
    def xi(self) -> complex:
        return self.alpha * cmath.exp(1j * self.beta)


@dataclass(frozen=True)
class OperatingPoint:
    """Grid-side voltage [p.u. of nominal] plus the wind-side scaling."""

    v2: float
    scaling: VoltageScaling

    def __post_init__(self):
        if not (self.v2 > 0.0 and math.isfinite(self.v2)):
            raise ValueError(f"v2 must be > 0 p.u., got {self.v2}")


@dataclass(frozen=True)
class FlowSolution:
    """Terminal currents, three-phase powers, losses and efficiency.

    eta is None when the wind side injects no positive active power
    (p_farm <= 0), where the ratio p_grid/p_farm has no meaning as an
    efficiency.
    """

    i1: complex
    i2: complex
    p_farm: float
    q_farm: float
    p_grid: float
    q_grid: float
    p_loss: float
    eta: float | None


def solve_flow(spec: CableSpec, op: OperatingPoint) -> FlowSolution:
    """Currents, powers and losses at a terminal operating point."""
    return two_port_flow(exact_pi_two_port(spec), spec.phase_voltage, op)


def two_port_flow(tp: TwoPort, phase_voltage: float, op: OperatingPoint) -> FlowSolution:
    """solve_flow on a two-port already built; phase_voltage is the cable's p.u. base [V]."""
    v2 = op.v2 * phase_voltage  # real by convention
    v1 = op.scaling.xi * v2
    i1, i2 = tp.currents(v1, v2)

    s_farm = 3.0 * v1 * i1.conjugate()
    s_grid = -3.0 * v2 * i2.conjugate()
    p_farm, q_farm = s_farm.real, s_farm.imag
    p_grid, q_grid = s_grid.real, s_grid.imag
    p_loss = p_farm - p_grid
    eta = p_grid / p_farm if p_farm > 0.0 else None
    return FlowSolution(
        i1=i1, i2=i2,
        p_farm=p_farm, q_farm=q_farm,
        p_grid=p_grid, q_grid=q_grid,
        p_loss=p_loss, eta=eta,
    )


def unit_flow(tp: TwoPort, xi: complex) -> tuple[float, float, complex, complex]:
    """(farm, grid, i1, i2) per phase at v1 = xi V and v2 = 1 V.

    farm and grid are active powers [W], i1 and i2 the end currents [A].
    At a grid-side phase voltage V_ph the powers scale by V_ph^2 and the
    currents by V_ph, so grid/farm is the efficiency of the scaling xi.
    """
    i1, i2 = tp.currents(xi, 1.0)
    return (xi * i1.conjugate()).real, -i2.real, i1, i2


def efficiency_of_scaling(spec: CableSpec, scaling: VoltageScaling) -> float:
    """Cable efficiency as a function of the scaling alone.

    Closed form from the nodal relation with v1 = xi*v2: the v2^2 factor
    cancels between delivered and injected power, so the result holds for
    every operating voltage and equals solve_flow(...).eta up to rounding.
    """
    farm, grid, _, _ = unit_flow(exact_pi_two_port(spec), scaling.xi)
    if farm <= 0.0:
        raise Infeasible(
            f"wind side injects no active power at alpha={scaling.alpha}, "
            f"beta={scaling.beta_deg:.3f} deg; efficiency undefined"
        )
    return grid / farm


def farm_power_coefficient(spec: CableSpec, scaling: VoltageScaling) -> float:
    """c such that p_farm = c*v2^2 [W per (p.u.)^2] for this scaling."""
    farm, _, _, _ = unit_flow(exact_pi_two_port(spec), scaling.xi)
    return 3.0 * farm * spec.phase_voltage**2


def grid_power_coefficient(spec: CableSpec, scaling: VoltageScaling) -> float:
    """g such that p_grid = g*v2^2 [W per (p.u.)^2] for this scaling."""
    _, grid, _, _ = unit_flow(exact_pi_two_port(spec), scaling.xi)
    return 3.0 * grid * spec.phase_voltage**2
