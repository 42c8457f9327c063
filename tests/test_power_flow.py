"""Flow, loss and closed-form efficiency tests.

The beta-sweep peak value below was frozen from a 1e-4 rad brute-force
sweep refined with an arbitrary-precision golden search (independent of
this implementation).
"""

import math
import random

import numpy as np
import pytest

from cableopt import (
    CableSpec,
    OperatingPoint,
    PulParameters,
    VoltageScaling,
    exact_pi_two_port,
    optimizer,
    solve_flow,
)
from conftest import random_cable, random_scaling, ref_cable
from oracle import complex_two_port_flow

# eta(200 km, alpha=1.025, beta=4.25 deg), mpmath
ETA_PAPER_POINT = 0.94002481104338039
# peak of the beta sweep at alpha = 1 for the 200 km reference cable, mpmath
BETA_PEAK_DEG = 4.82862508339
ETA_PEAK_ALPHA1 = 0.93596663781388237


def at_unit_voltage(spec, scaling):
    """The flow at v2 = 1 p.u.: its eta, p_farm and p_grid are the scaling's eta, c and g."""
    return solve_flow(spec, OperatingPoint(1.0, scaling))


def test_scaling_validation():
    with pytest.raises(ValueError):
        VoltageScaling(0.0, 0.1)
    with pytest.raises(ValueError):
        VoltageScaling(1.0, -math.pi)
    s = VoltageScaling.from_degrees(1.05, 4.0)
    assert s.beta_deg == pytest.approx(4.0)
    assert abs(s.xi) == pytest.approx(1.05)


def test_operating_point_validation():
    with pytest.raises(ValueError):
        OperatingPoint(0.0, VoltageScaling(1.0, 0.1))


def test_efficiency_at_reference_point(cable200):
    eta = at_unit_voltage(cable200, VoltageScaling.from_degrees(1.025, 4.25)).eta
    assert eta == pytest.approx(ETA_PAPER_POINT, abs=1e-11)


def test_closed_form_matches_flow_solution_exactly(cable200):
    rng = random.Random(7)
    for _ in range(25):
        scaling = random_scaling(rng)
        eta_closed = at_unit_voltage(cable200, scaling).eta
        for v2 in (0.3, 0.7, 1.0):
            flow = solve_flow(cable200, OperatingPoint(v2, scaling))
            assert flow.eta is not None
            assert abs(flow.eta - eta_closed) <= 1e-13 * abs(eta_closed)


def test_efficiency_independent_of_voltage(cable200):
    scaling = VoltageScaling.from_degrees(1.03, 5.0)
    etas = [solve_flow(cable200, OperatingPoint(v2, scaling)).eta
            for v2 in (0.3, 0.7, 1.0)]
    base = etas[0]
    for e in etas[1:]:
        assert abs(e - base) <= 1e-12 * abs(base)


def test_unity_scaling_splits_charging_losses(cable200):
    flow = solve_flow(cable200, OperatingPoint(1.0, VoltageScaling(1.0, 0.0)))
    assert flow.p_farm > 0
    assert flow.p_grid == pytest.approx(-flow.p_farm, rel=1e-12)
    assert flow.p_farm == pytest.approx(flow.p_loss / 2.0, rel=1e-12)
    assert at_unit_voltage(cable200, VoltageScaling(1.0, 0.0)).eta == pytest.approx(-1.0, rel=1e-12)


def test_lossless_cable_has_unit_efficiency():
    spec = CableSpec(PulParameters(0.0, 0.37e-3, 0.18e-6, 0.0), 200.0, 240e3, 1055.0, 50.0)
    scaling = VoltageScaling.from_degrees(1.02, 6.0)
    flow = solve_flow(spec, OperatingPoint(0.9, scaling))
    assert flow.p_farm > 0
    assert flow.eta == pytest.approx(1.0, rel=1e-12)
    assert flow.p_loss == pytest.approx(0.0, abs=1e-12 * flow.p_farm)


def test_power_balance_identity():
    rng = random.Random(11)
    for _ in range(50):
        spec = random_cable(rng)
        flow = solve_flow(spec, OperatingPoint(rng.uniform(0.3, 1.1), random_scaling(rng)))
        assert abs(flow.p_farm - flow.p_grid - flow.p_loss) <= 1e-10 * max(abs(flow.p_farm), 1.0)


def test_passivity_losses_nonnegative():
    rng = random.Random(13)
    for _ in range(200):
        spec = random_cable(rng)
        flow = solve_flow(spec, OperatingPoint(rng.uniform(0.2, 1.2), random_scaling(rng)))
        assert flow.p_loss >= -1e-12 * max(abs(flow.p_farm), abs(flow.p_grid))


def test_quadratic_power_and_linear_current_scaling(cable200):
    scaling = VoltageScaling.from_degrees(1.04, 3.5)
    lo = solve_flow(cable200, OperatingPoint(0.4, scaling))
    hi = solve_flow(cable200, OperatingPoint(0.8, scaling))
    assert hi.p_farm == pytest.approx(4.0 * lo.p_farm, rel=1e-12)
    assert hi.p_grid == pytest.approx(4.0 * lo.p_grid, rel=1e-12)
    assert abs(hi.i1) == pytest.approx(2.0 * abs(lo.i1), rel=1e-12)
    assert abs(hi.i2) == pytest.approx(2.0 * abs(lo.i2), rel=1e-12)


def test_net_reactive_generation_scales_quadratically(cable200):
    scaling = VoltageScaling.from_degrees(1.02, 4.0)
    lo = solve_flow(cable200, OperatingPoint(0.5, scaling))
    hi = solve_flow(cable200, OperatingPoint(1.0, scaling))
    net_lo = lo.q_farm + lo.q_grid
    net_hi = hi.q_farm + hi.q_grid
    assert net_hi == pytest.approx(4.0 * net_lo, rel=1e-12)


def test_farm_power_coefficient_inverts_to_power(cable200):
    scaling = VoltageScaling.from_degrees(1.025, 4.25)
    c = at_unit_voltage(cable200, scaling).p_farm
    for v2 in (0.25, 0.5, 1.0):
        flow = solve_flow(cable200, OperatingPoint(v2, scaling))
        assert flow.p_farm == pytest.approx(c * v2 * v2, rel=1e-12)


def test_grid_power_coefficient_consistent(cable200):
    scaling = VoltageScaling.from_degrees(1.05, 6.0)
    g = at_unit_voltage(cable200, scaling).p_grid
    flow = solve_flow(cable200, OperatingPoint(0.8, scaling))
    assert flow.p_grid == pytest.approx(g * 0.64, rel=1e-12)


def test_eta_absent_when_farm_power_nonpositive(cable200):
    # strongly negative beta reverses the flow: grid feeds the wind side
    flow = solve_flow(cable200, OperatingPoint(1.0, VoltageScaling.from_degrees(1.0, -30.0)))
    assert flow.p_farm < 0
    assert flow.eta is None


def test_beta_sweep_peak_regression(cable200):
    """Brute 1e-4 rad sweep at alpha = 1 reproduces the frozen peak."""
    best_eta, best_beta = -2.0, None
    beta = 1e-4
    while beta < 0.35:
        eta = at_unit_voltage(cable200, VoltageScaling(1.0, beta)).eta
        if eta > best_eta:
            best_eta, best_beta = eta, beta
        beta += 1e-4
    assert math.degrees(best_beta) == pytest.approx(BETA_PEAK_DEG, abs=0.01)
    assert best_eta == pytest.approx(ETA_PEAK_ALPHA1, abs=1e-7)


def test_flow_in_real_parts_is_the_complex_flow_bit_for_bit():
    # solve_flow on one point, the array pass the solves finish with and
    # a one-row solve's winner give the bits of the complex-arithmetic flow,
    # signed zeros included
    rng = random.Random(97)
    specs, points = [], []
    for _ in range(300):
        spec = random_cable(rng)
        for _ in range(5):
            specs.append(spec)
            points.append(OperatingPoint(rng.uniform(0.3, 1.2), VoltageScaling(
                rng.uniform(0.8, 1.2), rng.uniform(-math.pi / 2, math.pi / 2))))
    assert min(op.scaling.beta for op in points) < 0.0 < max(op.scaling.beta for op in points)
    rows = [(spec, optimizer.Constraints().fixed_v2(op.v2)) for spec, op in zip(specs, points)]
    best = np.array([[0.0, op.scaling.alpha, op.scaling.beta, op.v2] for op in points]).T
    won = optimizer.Optima(optimizer._Rows(rows), best)
    for r, (spec, op, eta) in enumerate(zip(specs, points, won.eta.tolist())):
        want = complex_two_port_flow(exact_pi_two_port(spec), spec.phase_voltage, op)
        point = won.point(r)
        one = optimizer.Optima(optimizer._Rows(rows[r:r + 1]), best[:, r:r + 1]).point(0)
        for flow in (solve_flow(spec, op), point.flow, one.flow):
            got = (flow.i1, flow.i2, flow.p_farm, flow.q_farm, flow.p_grid, flow.q_grid,
                   flow.p_loss, flow.eta)
            assert repr(got) == repr(want)
        assert point.operating_point == op
        assert repr(eta) == repr(math.nan if want[-1] is None else want[-1])
