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
both powers scale with v2^2, so the efficiency and the coefficients c and g
of the scaling alone are solve_flow's eta, p_farm and p_grid at v2 = 1 p.u.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .cable_model import CableSpec, complex_product, exact_pi_two_port


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

    @classmethod
    def from_parts(cls, i1, i2, p_farm, q_farm, p_grid, q_grid) -> "FlowSolution":
        """The solution of flow_parts' float parts at one point."""
        return cls(complex(*i1), complex(*i2), p_farm, q_farm, p_grid, q_grid,
                   p_loss=p_farm - p_grid, eta=p_grid / p_farm if p_farm > 0.0 else None)


def solve_flow(spec: CableSpec, op: OperatingPoint) -> FlowSolution:
    """Currents, powers and losses at a terminal operating point."""
    tp, beta = exact_pi_two_port(spec), op.scaling.beta
    return FlowSolution.from_parts(*flow_parts(
        tp.a.real, tp.a.imag, tp.b.real, tp.b.imag, spec.phase_voltage,
        op.scaling.alpha, math.cos(beta), math.sin(beta), op.v2))


def flow_parts(ar, ai, br, bi, phase_voltage, alpha, cos_beta, sin_beta, v2):
    """(i1, i2, p_farm, q_farm, p_grid, q_grid) at v2 [p.u.], xi = alpha*e^{j*beta}, in real parts.

    The admittances a and b come as their (real, imag) parts, and i1 and i2
    go out as theirs.  The arguments are floats or numpy float arrays:
    every part is formed operation for operation as CPython forms the
    complex expressions

        v1 = alpha*e^{j*beta} * (v2*V_ph),  i1 = a*v1 + b*(v2*V_ph),
        i2 = b*v1 + a*(v2*V_ph),  s_farm = 3*v1*conj(i1),  s_grid = -3*(v2*V_ph)*conj(i2),

    x*0.0 terms included, so a float and an array give the same bits, signed
    zeros too, whatever numpy's dispatch.
    """
    v = v2 * phase_voltage
    v1 = complex_product(*complex_product(alpha, 0.0, cos_beta, sin_beta), v, 0.0)
    i1 = tuple(x + y for x, y in zip(complex_product(ar, ai, *v1), complex_product(br, bi, v, 0.0)))
    i2 = tuple(x + y for x, y in zip(complex_product(br, bi, *v1), complex_product(ar, ai, v, 0.0)))
    s_farm = complex_product(*complex_product(3.0, 0.0, *v1), i1[0], -i1[1])
    s_grid = complex_product(-3.0 * v, 0.0, i2[0], -i2[1])
    return i1, i2, *s_farm, *s_grid
