"""Distributed-parameter cable model.

Everything here is per phase: voltages are phase-to-ground volts, currents
are line amperes, and the per-unit-length data of a three-core (or three
single-core) cable is the positive-sequence value of one phase.  Three-phase
powers are formed downstream as 3*Re{V_ph*conj(I)}.

The cable terminal behaviour is the exact PI equivalent

    a = coth(gamma*l)/Z_c        (self admittance, S)
    b = -1/(Z_c*sinh(gamma*l))   (transfer admittance, S)

with both terminal currents taken positive into the cable, so

    [i1, i2]^T = [[a, b], [b, a]] * [v1, v2]^T
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import Infeasible

DEFAULT_PROFILE_SEGMENTS = 100
#: most values a range argument, a sweep or a segment profile may ask for
MAX_POINTS = 10_000


@dataclass(frozen=True)
class PulParameters:
    """Per-unit-length electrical data.

    r: series resistance [ohm/km], l: series inductance [H/km],
    c: shunt capacitance [F/km], g: shunt conductance [S/km].
    """

    r: float
    l: float
    c: float
    g: float = 0.0

    def __post_init__(self):
        if not (self.r >= 0.0 and math.isfinite(self.r)):
            raise ValueError(f"resistance per km must be >= 0, got {self.r}")
        if not (self.l > 0.0 and math.isfinite(self.l)):
            raise ValueError(f"inductance per km must be > 0, got {self.l}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise ValueError(f"capacitance per km must be > 0, got {self.c}")
        if not (self.g >= 0.0 and math.isfinite(self.g)):
            raise ValueError(f"conductance per km must be >= 0, got {self.g}")


@dataclass(frozen=True)
class CableSpec:
    """A cable instance: per-unit-length data plus length and ratings.

    nominal_voltage is the line-to-line voltage [V] used as the per-unit
    base for operating voltages; rated_current is the continuous line
    current limit [A].
    """

    pul: PulParameters
    length_km: float
    nominal_voltage: float
    rated_current: float
    frequency: float = 50.0

    def __post_init__(self):
        if not (self.length_km > 0.0 and math.isfinite(self.length_km)):
            raise ValueError(f"length must be > 0 km, got {self.length_km}")
        if not (self.nominal_voltage > 0.0 and math.isfinite(self.nominal_voltage)):
            raise ValueError(f"nominal voltage must be > 0 V, got {self.nominal_voltage}")
        if not (self.rated_current > 0.0 and math.isfinite(self.rated_current)):
            raise ValueError(f"rated current must be > 0 A, got {self.rated_current}")
        if not (self.frequency > 0.0 and math.isfinite(self.frequency)):
            raise ValueError(f"frequency must be > 0 Hz, got {self.frequency}")

    @property
    def omega(self) -> float:
        """Angular frequency [rad/s]."""
        return 2.0 * math.pi * self.frequency

    @property
    def phase_voltage(self) -> float:
        """Phase-to-ground base voltage [V] (nominal_voltage / sqrt(3))."""
        return self.nominal_voltage / math.sqrt(3.0)

    def with_length(self, length_km: float) -> "CableSpec":
        """Same cable type at a different route length."""
        return replace(self, length_km=length_km)


@dataclass(frozen=True)
class TwoPort:
    """Nodal admittance pair of the exact PI equivalent, per phase [S].

    The full matrix is [[a, b], [b, a]]; reciprocity and the symmetry of a
    uniform line make both diagonal entries equal.
    """

    a: complex
    b: complex

    def currents(self, v1: complex, v2: complex) -> tuple[complex, complex]:
        """Terminal currents (into the cable) for given terminal voltages."""
        return self.a * v1 + self.b * v2, self.b * v1 + self.a * v2


@dataclass(frozen=True)
class SegmentProfile:
    """Voltages, currents and losses along an N-segment subdivision.

    node_voltages has N+1 entries (phase-to-ground volts, both terminals
    included and equal to the imposed boundary values).  node_currents has
    N entries: the current entering segment k at its sending node.
    grid_end_current is the current entering the last segment at the far
    terminal, i.e. the terminal current of the cable at the grid end.
    segment_losses are three-phase watts dissipated per segment.
    """

    node_voltages: tuple[complex, ...]
    node_currents: tuple[complex, ...]
    grid_end_current: complex
    segment_losses: tuple[float, ...]

    @property
    def total_loss(self) -> float:
        return float(sum(self.segment_losses))

    @property
    def max_voltage(self) -> float:
        return max(abs(v) for v in self.node_voltages)

    @property
    def max_current(self) -> float:
        return max(max(abs(i) for i in self.node_currents), abs(self.grid_end_current))


def pul_series_impedance(pul: PulParameters, omega: float) -> complex:
    """Series impedance per km, R + j*omega*L [ohm/km]."""
    return complex(pul.r, omega * pul.l)


def pul_shunt_admittance(pul: PulParameters, omega: float) -> complex:
    """Shunt admittance per km, G + j*omega*C [S/km]."""
    return complex(pul.g, omega * pul.c)


def characteristic_impedance(spec: CableSpec) -> complex:
    """Wave impedance sqrt(Z/Y) [ohm], principal branch (Re >= 0)."""
    z = pul_series_impedance(spec.pul, spec.omega)
    y = pul_shunt_admittance(spec.pul, spec.omega)
    if y == 0:
        raise Infeasible("shunt admittance is zero; wave impedance undefined")
    return cmath.sqrt(z / y)


def propagation_constant(spec: CableSpec) -> complex:
    """Propagation constant sqrt(Z*Y) [1/km], principal branch (Re >= 0)."""
    z = pul_series_impedance(spec.pul, spec.omega)
    y = pul_shunt_admittance(spec.pul, spec.omega)
    return cmath.sqrt(z * y)


def _coth(z: complex) -> complex:
    # Laurent series below |z| = 0.1: the exponential form loses ~2 digits
    # to the 1 - e^-2z cancellation, which the profile's current
    # reconstruction a*V_k + b*V_{k+1} then amplifies for short segments.
    if abs(z) < 0.1:
        z2 = z * z
        return 1.0 / z + z * (1.0 / 3 + z2 * (-1.0 / 45 + z2 * (2.0 / 945 - z2 / 4725)))
    # (1 + e^-2z)/(1 - e^-2z); e^-2z decays for Re z > 0, so no overflow
    # even for electrically very long cables.
    e = cmath.exp(-2.0 * z)
    return (1.0 + e) / (1.0 - e)


def _csch(z: complex) -> complex:
    if abs(z) < 0.1:
        z2 = z * z
        return 1.0 / z + z * (-1.0 / 6 + z2 * (7.0 / 360 + z2 * (-31.0 / 15120 + z2 * 127.0 / 604800)))
    # 2 e^-z / (1 - e^-2z), same stability argument as _coth.
    e = cmath.exp(-z)
    return 2.0 * e / (1.0 - e * e)


def _shunt_conductance(spec: CableSpec, length_km: float) -> float:
    """Re(a + b) of the exact PI of this length: its end-shunt conductance [S].

    a + b = tanh(gamma*d/2)/Z_c cancels for short lengths, so it is taken as
    Re((Y*d/2)*T(u)) with u = Z*Y*d^2/4 and T(u) = tanh(sqrt(u))/sqrt(u),
    from the series of T below |u| = 1e-3, where the closed form loses the
    small imaginary part of T that sets the result.
    """
    yd2 = pul_shunt_admittance(spec.pul, spec.omega) * length_km / 2
    u = pul_series_impedance(spec.pul, spec.omega) * yd2 * length_km / 2
    if abs(u) < 1e-3:
        t = 1.0 + u * (-1.0 / 3 + u * (2.0 / 15 + u * (-17.0 / 315 + u * 62.0 / 2835)))
    else:
        s = cmath.sqrt(u)
        t = cmath.tanh(s) / s
    return (yd2 * t).real


def _two_port_for_length(spec: CableSpec, length_km: float) -> TwoPort:
    if length_km <= 0.0:
        raise Infeasible(f"cable length must be > 0 km, got {length_km}")
    zc = characteristic_impedance(spec)
    gl = propagation_constant(spec) * length_km
    if gl == 0:
        raise Infeasible("propagation constant is zero; two-port undefined")
    return TwoPort(a=_coth(gl) / zc, b=-_csch(gl) / zc)


def exact_pi_two_port(spec: CableSpec) -> TwoPort:
    """Exact PI nodal admittances of the whole cable."""
    return _two_port_for_length(spec, spec.length_km)


def segment_profile(
    spec: CableSpec,
    v1: complex,
    v2: complex,
    n_segments: int = DEFAULT_PROFILE_SEGMENTS,
) -> SegmentProfile:
    """Voltage/current/loss profile of N equal segments.

    v1 and v2 are the imposed phase-to-ground terminal voltages [V].  The
    node voltages are the line solution at x = k*l/N; the currents and
    losses come from each segment's own exact PI two-port of length l/N, so
    the terminal behaviour is identical to the unsegmented cable for any N.
    """
    if not 1 <= n_segments <= MAX_POINTS:
        raise ValueError(f"n_segments must be in [1, {MAX_POINTS}], got {n_segments}")
    if not (cmath.isfinite(v1) and cmath.isfinite(v2)):
        raise ValueError("terminal voltages must be finite")

    seg = _two_port_for_length(spec, spec.length_km / n_segments)
    a, b = seg.a, seg.b

    # V(x) = (v1*sinh(gamma*(l-x)) + v2*sinh(gamma*x)) / sinh(gamma*l) at the
    # interior nodes x = k*l/N, with every exponent's real part <= 0 so long
    # cables cannot overflow
    gl = propagation_constant(spec) * spec.length_km
    t = np.arange(1, n_segments) / n_segments
    gx, gr = gl * t, gl * (1.0 - t)
    interior = (v1 * np.exp(-gx) * np.expm1(-2.0 * gr)
                + v2 * np.exp(-gr) * np.expm1(-2.0 * gx)) / np.expm1(-2.0 * gl)
    voltages = np.concatenate([[v1], interior, [v2]])

    sending = a * voltages[:-1] + b * voltages[1:]
    receiving = b * voltages[:-1] + a * voltages[1:]
    # Branch-wise quadratic form for the dissipation: algebraically equal to
    # 3*Re{V_k*conj(I_send) + V_{k+1}*conj(I_recv)} but free of the massive
    # cancellation between through-power terms (series conductance is -Re b,
    # end-shunt conductance Re(a+b), both non-negative for a passive cable).
    g_series = -b.real
    g_shunt = _shunt_conductance(spec, spec.length_km / n_segments)
    dv = voltages[:-1] - voltages[1:]
    # huge terminal voltages overflow to inf losses, which the callers report
    with np.errstate(over="ignore"):
        losses = 3.0 * (
            g_series * (dv * np.conj(dv)).real
            + g_shunt * ((voltages[:-1] * np.conj(voltages[:-1])).real
                         + (voltages[1:] * np.conj(voltages[1:])).real)
        )

    return SegmentProfile(
        node_voltages=tuple(voltages.tolist()),
        node_currents=tuple(sending.tolist()),
        grid_end_current=complex(receiving[-1]),
        segment_losses=tuple(losses.tolist()),
    )
