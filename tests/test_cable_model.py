"""Cable-model tests.

Frozen complex reference values were computed with an independent
arbitrary-precision (mpmath, 60 digits) evaluation of the wave-parameter
and hyperbolic formulas before this implementation existed.
"""

import cmath
import math
import random

import pytest

from cableopt import (
    CableSpec,
    Infeasible,
    PulParameters,
    characteristic_impedance,
    exact_pi_two_port,
    propagation_constant,
    pul_series_impedance,
    pul_shunt_admittance,
    segment_profile,
    solve_flow,
    OperatingPoint,
    VoltageScaling,
)
from cableopt.cable_model import _shunt_conductance, _two_port_for_length

from conftest import REF_PUL, random_cable, random_scaling, ref_cable
from oracle import rk4_line_profile

OMEGA_50 = 2 * math.pi * 50.0

# mpmath references for the Table-style data sheet cable at 50 Hz
ZC_REF = complex(46.257293248215909955, -9.175054391985131669)
GAMMA_REF = complex(0.00051883710253465062203, 0.0026157883075837892435)
A200_REF = complex(0.015203704201440453278, -0.032911061638167341795)
B200_REF = complex(-0.015149745179930198529, 0.038692573987009882145)


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# per-unit-length quantities

def test_series_impedance_reference_cable():
    z = pul_series_impedance(REF_PUL, OMEGA_50)
    assert z.real == 0.048
    assert abs(z.imag - 0.11623892818282235) < 1e-15


def test_series_impedance_degenerate_cases():
    assert pul_series_impedance(PulParameters(0.0, 1e-12, 1e-9), OMEGA_50) == pytest.approx(
        complex(0.0, OMEGA_50 * 1e-12), abs=1e-18)
    z = pul_series_impedance(PulParameters(1.0, 1e-15, 1e-9), 123.0)
    assert z.real == 1.0 and abs(z.imag) < 1e-12


def test_shunt_admittance_reference_cable():
    y = pul_shunt_admittance(REF_PUL, OMEGA_50)
    assert y.real == 0.0
    assert abs(y.imag - 5.6548667764616278e-05) < 1e-19


def test_shunt_admittance_conductance_only():
    y = pul_shunt_admittance(PulParameters(0.0, 1e-3, 1e-12, g=1e-9), 1.0)
    assert y.real == 1e-9 and abs(y.imag) < 1e-11


# ---------------------------------------------------------------------------
# wave parameters

def test_characteristic_impedance_reference():
    assert rel(characteristic_impedance(ref_cable()), ZC_REF) < 1e-12


def test_characteristic_impedance_lossless_is_real():
    spec = CableSpec(PulParameters(0.0, 0.37e-3, 0.18e-6, 0.0), 200.0, 240e3, 1055.0, 50.0)
    zc = characteristic_impedance(spec)
    assert zc.imag == pytest.approx(0.0, abs=1e-12)
    assert zc.real == pytest.approx(math.sqrt(0.37e-3 / 0.18e-6), rel=1e-12)
    assert zc.real == pytest.approx(45.338, abs=5e-4)


def test_characteristic_impedance_zero_admittance_rejected():
    # the type invariants forbid c == 0, so forge the state to hit the guard
    pul = PulParameters.__new__(PulParameters)
    for k, v in dict(r=0.1, l=1e-3, c=0.0, g=0.0).items():
        object.__setattr__(pul, k, v)
    spec = ref_cable()
    forged = CableSpec.__new__(CableSpec)
    for k, v in dict(pul=pul, length_km=1.0, nominal_voltage=1e5,
                     rated_current=100.0, frequency=50.0).items():
        object.__setattr__(forged, k, v)
    with pytest.raises(Infeasible, match="^shunt admittance is zero; wave impedance undefined$"):
        characteristic_impedance(forged)


def test_propagation_constant_reference():
    assert rel(propagation_constant(ref_cable()), GAMMA_REF) < 1e-12


def test_propagation_constant_sign_structure():
    g = propagation_constant(ref_cable())
    assert g.real > 0 and g.imag > 0


def test_propagation_constant_lossless_is_imaginary():
    spec = CableSpec(PulParameters(0.0, 0.37e-3, 0.18e-6, 0.0), 200.0, 240e3, 1055.0, 50.0)
    g = propagation_constant(spec)
    assert g.real == pytest.approx(0.0, abs=1e-15)
    assert g.imag == pytest.approx(OMEGA_50 * math.sqrt(0.37e-3 * 0.18e-6), rel=1e-12)


# ---------------------------------------------------------------------------
# exact PI two-port

def test_two_port_reference_values(cable200):
    tp = exact_pi_two_port(cable200)
    assert rel(tp.a, A200_REF) < 1e-10
    assert rel(tp.b, B200_REF) < 1e-10


def test_two_port_zero_length_rejected(cable200):
    with pytest.raises(Infeasible, match="^cable length must be > 0 km, got 0.0$"):
        _two_port_for_length(cable200, 0.0)
    with pytest.raises(ValueError):
        cable200.with_length(0.0)


def _fold_segments(tp_seg, k):
    """Chain k identical two-ports by eliminating shared interior nodes."""
    a_left, a_right, b = tp_seg.a, tp_seg.a, tp_seg.b
    for _ in range(k - 1):
        mid = a_right + tp_seg.a
        a_left, a_right, b = (
            a_left - b * b / mid,
            tp_seg.a - tp_seg.b * tp_seg.b / mid,
            -b * tp_seg.b / mid,
        )
    return a_left, a_right, b


@pytest.mark.parametrize("k", [2, 4, 8])
def test_cascade_identity(cable200, k):
    full = exact_pi_two_port(cable200)
    seg = exact_pi_two_port(cable200.with_length(200.0 / k))
    a_left, a_right, b = _fold_segments(seg, k)
    assert rel(a_left, full.a) < 1e-10
    assert rel(a_right, full.a) < 1e-10
    assert rel(b, full.b) < 1e-10


@pytest.mark.parametrize("length_km", [0.1, 1.0])
def test_lumped_pi_short_length_limit(length_km):
    spec = ref_cable(length_km)
    tp = exact_pi_two_port(spec)
    z = pul_series_impedance(spec.pul, spec.omega) * length_km
    y = pul_shunt_admittance(spec.pul, spec.omega) * length_km
    a_lumped = 1.0 / z + y / 2.0
    b_lumped = -1.0 / z
    assert rel(tp.a, a_lumped) < 1e-4
    assert rel(tp.b, b_lumped) < 1e-4


def test_reciprocity_exchanging_voltages_exchanges_currents(cable200):
    tp = exact_pi_two_port(cable200)
    v1, v2 = complex(130e3, 9e3), complex(127e3, 0)
    i1, i2 = tp.currents(v1, v2)
    j1, j2 = tp.currents(v2, v1)
    assert i1 == j2 and i2 == j1


def test_passivity_real_part_positive_semidefinite():
    # eigenvalues of the Hermitian part of [[a, b], [b, a]] are Re(a) +/- Re(b)
    rng = random.Random(20260810)
    for _ in range(200):
        tp = exact_pi_two_port(random_cable(rng))
        assert tp.a.real + tp.b.real >= -1e-15 * abs(tp.a)
        assert tp.a.real - tp.b.real >= -1e-15 * abs(tp.a)


# ---------------------------------------------------------------------------
# segmented profile

def _flow_at(spec, alpha=1.025, beta_deg=4.25, v2=1.0):
    scaling = VoltageScaling.from_degrees(alpha, beta_deg)
    flow = solve_flow(spec, OperatingPoint(v2, scaling))
    vph = spec.phase_voltage
    return flow, scaling.xi * v2 * vph, v2 * vph


def test_profile_single_segment_matches_terminal_solution(cable200):
    flow, v1, v2 = _flow_at(cable200)
    prof = segment_profile(cable200, v1, v2, 1)
    assert prof.node_voltages == (v1, v2)
    assert prof.node_currents[0] == flow.i1
    assert prof.grid_end_current == flow.i2


def test_profile_terminal_voltages_imposed_exactly(cable200):
    _, v1, v2 = _flow_at(cable200)
    prof = segment_profile(cable200, v1, v2, 37)
    assert prof.node_voltages[0] == v1
    assert prof.node_voltages[-1] == v2


@pytest.mark.parametrize("n", [1, 2, 10, 100, 1000, 2000])
def test_profile_endpoint_currents_consistent(cable200, n):
    flow, v1, v2 = _flow_at(cable200)
    prof = segment_profile(cable200, v1, v2, n)
    assert abs(prof.node_currents[0] - flow.i1) / abs(flow.i1) < 1e-10
    assert abs(prof.grid_end_current - flow.i2) / abs(flow.i2) < 1e-10


def test_profile_matches_rk4_oracle():
    # the RK4 telegrapher integration shares no code and no hyperbolic
    # function with the model; worst seen: voltages 1.6e-13 of max |V|,
    # end currents 1.1e-12 of the larger one
    rng = random.Random(41)
    for _ in range(30):
        spec = random_cable(rng).with_length(10 ** rng.uniform(0.0, math.log10(1500.0)))
        n = rng.choice([2, 10, 100, 1000, 2000])
        v2 = rng.uniform(0.4, 1.0) * spec.phase_voltage
        v1 = random_scaling(rng).xi * v2
        volts, i0, il = rk4_line_profile(spec, v1, v2, n)
        prof = segment_profile(spec, v1, v2, n)
        v_max = max(abs(v) for v in volts)
        assert max(abs(a - b) for a, b in zip(prof.node_voltages, volts)) <= 1e-12 * v_max
        i1, i2 = exact_pi_two_port(spec).currents(v1, v2)
        assert max(abs(i0 - i1), abs(-il - i2)) <= 1e-11 * max(abs(i1), abs(i2))


@pytest.mark.parametrize("n", [2, 10, 100])
def test_profile_loss_sum_matches_terminal_loss(cable200, n):
    flow, v1, v2 = _flow_at(cable200)
    prof = segment_profile(cable200, v1, v2, n)
    assert abs(prof.total_loss - flow.p_loss) / flow.p_loss < 1e-8


# Re(a + b) of the exact PI of one segment, Re(tanh(gamma*d/2)/Z_c), in
# 40-digit mpmath; the second cable has a shunt conductance
G_CABLE = CableSpec(PulParameters(r=0.03, l=0.4e-3, c=0.2e-6, g=3e-8), 100.0, 220e3, 1000.0)


@pytest.mark.parametrize("spec,d_km,g_shunt", [
    (ref_cable(), 200.0, 5.3959021510254743e-5),
    (ref_cable(), 60.0, 1.3879888491811395e-6),
    (ref_cable(), 2.0, 5.1164298263598164e-11),
    (ref_cable(), 0.1, 6.3955037359831988e-15),
    (ref_cable(), 0.002, 5.116402921551628e-20),
    (G_CABLE, 25.0, 4.5249106411505349e-7),
    (G_CABLE, 0.05, 7.5000061931753796e-10),
])
def test_segment_shunt_conductance_matches_mpmath(spec, d_km, g_shunt):
    assert abs(_shunt_conductance(spec, d_km) - g_shunt) <= 1e-13 * g_shunt


@pytest.mark.parametrize("length", [20.0, 200.0, 600.0])
def test_profile_loss_sum_is_the_terminal_loss_at_any_segment_count(length):
    spec = ref_cable(length)
    flow, v1, v2 = _flow_at(spec)
    for n in (1, 2, 3, 10, 100, 1000, 2000, 10000):
        prof = segment_profile(spec, v1, v2, n)
        assert abs(prof.total_loss - flow.p_loss) <= 2e-13 * flow.p_loss, n


def test_profile_symmetric_for_equal_terminal_voltages(cable200):
    v = cable200.phase_voltage + 0j
    prof = segment_profile(cable200, v, v, 100)
    mags = [abs(x) for x in prof.node_voltages]
    for k in range(len(mags)):
        assert abs(mags[k] - mags[-1 - k]) / mags[k] < 1e-9
    # lightly loaded line rises toward the middle
    assert prof.max_voltage > abs(v)


def test_profile_losses_nonnegative(cable200):
    flow, v1, v2 = _flow_at(cable200, alpha=1.06, beta_deg=12.0, v2=0.8)
    prof = segment_profile(cable200, v1, v2, 50)
    assert all(p >= 0.0 for p in prof.segment_losses)


def test_profile_input_validation(cable200):
    with pytest.raises(ValueError):
        segment_profile(cable200, 1e5 + 0j, 1e5 + 0j, 0)
    with pytest.raises(ValueError):
        segment_profile(cable200, complex("inf"), 1e5 + 0j, 10)


# ---------------------------------------------------------------------------
# type invariants

@pytest.mark.parametrize("kwargs", [
    dict(r=-0.01, l=1e-3, c=1e-7),
    dict(r=0.01, l=0.0, c=1e-7),
    dict(r=0.01, l=1e-3, c=0.0),
    dict(r=0.01, l=1e-3, c=1e-7, g=-1e-9),
    dict(r=math.nan, l=1e-3, c=1e-7),
])
def test_pul_parameter_invariants(kwargs):
    with pytest.raises(ValueError):
        PulParameters(**kwargs)


@pytest.mark.parametrize("field,value", [
    ("length_km", -5.0),
    ("nominal_voltage", 0.0),
    ("rated_current", -1.0),
    ("frequency", 0.0),
])
def test_cable_spec_invariants(field, value):
    kwargs = dict(pul=REF_PUL, length_km=200.0, nominal_voltage=240e3,
                  rated_current=1055.0, frequency=50.0)
    kwargs[field] = value
    with pytest.raises(ValueError):
        CableSpec(**kwargs)
