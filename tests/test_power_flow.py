"""Flow, loss and closed-form efficiency tests.

The beta-sweep peak value below was frozen from a 1e-4 rad brute-force
sweep refined with an arbitrary-precision golden search (independent of
this implementation).
"""

import math
import random

import pytest

from cableopt import (
    CableSpec,
    Infeasible,
    OperatingPoint,
    PulParameters,
    VoltageScaling,
    efficiency_of_scaling,
    farm_power_coefficient,
    grid_power_coefficient,
    solve_flow,
)

from conftest import random_cable, random_scaling, ref_cable

# eta(200 km, alpha=1.025, beta=4.25 deg), mpmath
ETA_PAPER_POINT = 0.94002481104338039
# peak of the beta sweep at alpha = 1 for the 200 km reference cable, mpmath
BETA_PEAK_DEG = 4.82862508339
ETA_PEAK_ALPHA1 = 0.93596663781388237


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
    eta = efficiency_of_scaling(cable200, VoltageScaling.from_degrees(1.025, 4.25))
    assert eta == pytest.approx(ETA_PAPER_POINT, abs=1e-11)


def test_closed_form_matches_flow_solution_exactly(cable200):
    rng = random.Random(7)
    for _ in range(25):
        scaling = random_scaling(rng)
        eta_closed = efficiency_of_scaling(cable200, scaling)
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
    assert efficiency_of_scaling(cable200, VoltageScaling(1.0, 0.0)) == pytest.approx(-1.0, rel=1e-12)


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
    c = farm_power_coefficient(cable200, scaling)
    for v2 in (0.25, 0.5, 1.0):
        flow = solve_flow(cable200, OperatingPoint(v2, scaling))
        assert flow.p_farm == pytest.approx(c * v2 * v2, rel=1e-12)


def test_grid_power_coefficient_consistent(cable200):
    scaling = VoltageScaling.from_degrees(1.05, 6.0)
    g = grid_power_coefficient(cable200, scaling)
    flow = solve_flow(cable200, OperatingPoint(0.8, scaling))
    assert flow.p_grid == pytest.approx(g * 0.64, rel=1e-12)


def test_eta_absent_when_farm_power_nonpositive(cable200):
    # strongly negative beta reverses the flow: grid feeds the wind side
    flow = solve_flow(cable200, OperatingPoint(1.0, VoltageScaling.from_degrees(1.0, -30.0)))
    assert flow.p_farm < 0
    assert flow.eta is None
    with pytest.raises(Infeasible, match="^wind side injects no active power at alpha=1.0, "):
        efficiency_of_scaling(cable200, VoltageScaling.from_degrees(1.0, -30.0))


def test_beta_sweep_peak_regression(cable200):
    """Brute 1e-4 rad sweep at alpha = 1 reproduces the frozen peak."""
    best_eta, best_beta = -2.0, None
    beta = 1e-4
    while beta < 0.35:
        eta = efficiency_of_scaling(cable200, VoltageScaling(1.0, beta))
        if eta > best_eta:
            best_eta, best_beta = eta, beta
        beta += 1e-4
    assert math.degrees(best_beta) == pytest.approx(BETA_PEAK_DEG, abs=0.01)
    assert best_eta == pytest.approx(ETA_PEAK_ALPHA1, abs=1e-7)
