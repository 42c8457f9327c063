"""Acceptance criteria.

One test per criterion, each enforcing its stated tolerance and runtime
budget and printing a PASS line with the measured values (run pytest -s
to see them).  Brute-force references live in oracle.py and share no
search code with the package.
"""

import math
import random
import time
from functools import lru_cache

import pytest

from cableopt import (
    Constraints,
    FixedVoltage,
    Infeasible,
    OperatingPoint,
    VoltageRange,
    VoltageScaling,
    annual_efficiency,
    compare_strategies,
    exact_pi_two_port,
    optimal_voltage_curve,
    optimize_at_production,
    optimize_scaling_unconstrained,
    pul_series_impedance,
    pul_shunt_admittance,
    reference_duration_curve,
    segment_profile,
    solve_flow,
    tap_range,
    transfer_envelope,
    utilization_factor,
)

from conftest import random_cable, random_scaling, ref_cable
from oracle import best_eta_at_production

FIG6_SCALING = VoltageScaling.from_degrees(1.025, 4.25)


def _report(num, text, elapsed, budget):
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s >= {budget}s"
    print(f"[criterion {num}] PASS ({elapsed:.2f}s < {budget}s): {text}")


def test_criterion_1_voltage_invariance_of_efficiency():
    """Eta identical across v2 in {0.3, 0.6, 1.0} p.u. to <= 1e-12 relative."""
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    worst = 0.0
    cases = 0
    while cases < 20:
        spec = random_cable(rng)
        scaling = random_scaling(rng)
        flows = [solve_flow(spec, OperatingPoint(v2, scaling)) for v2 in (0.3, 0.6, 1.0)]
        if any(f.p_farm <= 0.0 for f in flows):
            continue
        cases += 1
        base = flows[0].eta
        spread = max(abs(f.eta - base) / abs(base) for f in flows)
        worst = max(worst, spread)
        assert spread <= 1e-12
    _report(1, f"20 random cases, worst relative spread {worst:.2e} <= 1e-12",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_optimal_scaling_for_reference_cable():
    """alpha 1.025 +/- 0.01, beta 4.25 +/- 0.5 deg, eta 0.94 +/- 0.005."""
    t0 = time.perf_counter()
    scaling, eta = optimize_scaling_unconstrained(ref_cable(200.0))
    assert abs(scaling.alpha - 1.025) <= 0.01
    assert abs(scaling.beta_deg - 4.25) <= 0.5
    assert abs(eta - 0.94) <= 0.005
    _report(2, f"alpha={scaling.alpha:.4f}, beta={scaling.beta_deg:.3f} deg, eta={eta:.5f}",
            time.perf_counter() - t0, 10.0)


def test_criterion_3_optimal_voltage_curve_crossings():
    """v2 crosses 1.0 p.u. at 200 +/- 15 MW; current hits 1055 A at 250 +/- 20 MW."""
    t0 = time.perf_counter()
    spec = ref_cable(200.0)
    targets = [p * 0.25e6 for p in range(400, 1321)]  # 100..330 MW, 0.25 MW steps
    points = optimal_voltage_curve(spec, FIG6_SCALING, targets)
    p_v2 = next(p.p_farm for p in points if p.exceeds_v2_max)
    p_cur = next(p.p_farm for p in points if p.exceeds_current)
    assert abs(p_v2 - 200e6) <= 15e6
    assert abs(p_cur - 250e6) <= 20e6
    _report(3, f"v2=1.0 at {p_v2/1e6:.2f} MW, 1055 A at {p_cur/1e6:.2f} MW",
            time.perf_counter() - t0, 5.0)


def test_criterion_4_transfer_capability():
    """<= 1 MW deliverable in [255, 270] km at 1.0 p.u.; > 10 MW at 400 km, 0.6 p.u."""
    t0 = time.perf_counter()
    spec = ref_cable(200.0)
    lengths = [float(l) for l in range(100, 401, 20)] + [255.0, 260.0, 265.0, 270.0]
    lengths = sorted(set(lengths))
    voltages = [1.0, 0.8, 0.6, 0.4]
    env = transfer_envelope(spec, lengths, voltages, Constraints())
    at = {(p.length_km, p.v2): p for p in env.points}
    window = [at[(l, 1.0)].p_grid_max for l in (255.0, 260.0, 265.0, 270.0)]
    assert min(window) <= 1e6
    far = at[(400.0, 0.6)].p_grid_max
    assert far > 10e6
    _report(4, f"min capability in [255,270] km at 1.0 pu = {min(window)/1e6:.3f} MW; "
               f"400 km at 0.6 pu = {far/1e6:.1f} MW",
            time.perf_counter() - t0, 60.0)


@lru_cache(maxsize=None)
def _annual_study(curve_name: str):
    curve = reference_duration_curve(curve_name)
    outcomes = compare_strategies(
        ref_cable(200.0), 320e6, curve,
        [FixedVoltage(1.0), VoltageRange(0.4, 1.0), tap_range(0.87, 0.15)],
    )
    return utilization_factor(curve), outcomes


def test_criterion_5_annual_high_utilization():
    """Range(0.4,1.0) reduction in [8%, 18%]; 0.87 p.u. +/-15% tap in [5%, 13%]."""
    t0 = time.perf_counter()
    uf, outcomes = _annual_study("high-uf")
    assert abs(uf - 0.46) <= 1e-3
    red_range = outcomes[1].loss_reduction_pct
    red_tap = outcomes[2].loss_reduction_pct
    assert 8.0 <= red_range <= 18.0
    assert 5.0 <= red_tap <= 13.0
    _report(5, f"UF={uf:.4f}; range(0.4,1.0) reduction {red_range:.2f}% in [8,18]; "
               f"tap 0.87+/-15% reduction {red_tap:.2f}% in [5,13]",
            time.perf_counter() - t0, 60.0)


def test_criterion_6_annual_low_utilization():
    """Range(0.4,1.0) reduction in [15%, 27%] and above the high-UF reduction."""
    t0 = time.perf_counter()
    uf, outcomes = _annual_study("low-uf")
    assert abs(uf - 0.35) <= 1e-3
    red_low = outcomes[1].loss_reduction_pct
    _, high_outcomes = _annual_study("high-uf")
    red_high = high_outcomes[1].loss_reduction_pct
    assert 15.0 <= red_low <= 27.0
    assert red_low > red_high
    _report(6, f"UF={uf:.4f}; reduction {red_low:.2f}% in [15,27], "
               f"> high-UF reduction {red_high:.2f}%",
            time.perf_counter() - t0, 60.0)


def test_criterion_7_optimizer_matches_exhaustive_grid():
    """|delta eta| <= 1e-5 against the dense (v2, alpha, beta) oracle, 9 cases."""
    t0 = time.perf_counter()
    worst = 0.0
    agreements = []
    for length in (100.0, 200.0, 300.0):
        spec = ref_cable(length)
        for p_mw in (50.0, 150.0, 250.0):
            try:
                mine = optimize_at_production(spec, p_mw * 1e6, Constraints()).eta
            except Infeasible:
                mine = None
            ref = best_eta_at_production(spec, p_mw * 1e6, 0.4, 1.0, 1055.0)
            if mine is None or ref is None:
                assert mine is None and ref is None, (
                    f"feasibility disagreement at {length} km, {p_mw} MW: "
                    f"optimizer={mine}, oracle={ref}")
                agreements.append(f"{length:.0f}km/{p_mw:.0f}MW infeasible")
                continue
            gap = abs(mine - ref)
            worst = max(worst, gap)
            assert gap <= 1e-5, f"{length} km, {p_mw} MW: |delta eta| = {gap:.2e}"
    _report(7, f"9 cases, worst |delta eta| = {worst:.2e} <= 1e-5; "
               + "; ".join(agreements),
            time.perf_counter() - t0, 300.0)


def test_criterion_8_structural_property_suite():
    """Cascade, lumped-PI, passivity, balance, loss summation, strategy identities."""
    t0 = time.perf_counter()
    spec = ref_cable(200.0)

    # cascade identity to 1e-10
    full = exact_pi_two_port(spec)
    for k in (2, 4, 8):
        seg = exact_pi_two_port(spec.with_length(200.0 / k))
        a_left, a_right, b = seg.a, seg.a, seg.b
        for _ in range(k - 1):
            mid = a_right + seg.a
            a_left, a_right, b = (a_left - b * b / mid,
                                  seg.a - seg.b * seg.b / mid,
                                  -b * seg.b / mid)
        assert abs(a_left - full.a) / abs(full.a) < 1e-10
        assert abs(b - full.b) / abs(full.b) < 1e-10

    # lumped-PI short-length limit to 1e-4
    for lkm in (0.1, 1.0):
        short = ref_cable(lkm)
        tp = exact_pi_two_port(short)
        z = pul_series_impedance(short.pul, short.omega) * lkm
        y = pul_shunt_admittance(short.pul, short.omega) * lkm
        assert abs(tp.a - (1 / z + y / 2)) / abs(1 / z + y / 2) < 1e-4
        assert abs(tp.b - (-1 / z)) / abs(1 / z) < 1e-4

    # passivity and power balance over 1000 random feasible points
    rng = random.Random(8)
    checked = 0
    while checked < 1000:
        rspec = random_cable(rng)
        flow = solve_flow(rspec, OperatingPoint(rng.uniform(0.2, 1.1), random_scaling(rng)))
        scale = max(abs(flow.p_farm), abs(flow.p_grid), 1.0)
        assert flow.p_loss >= -1e-12 * scale
        assert abs(flow.p_farm - flow.p_grid - flow.p_loss) <= 1e-10 * scale
        checked += 1

    # segment-loss summation to 1e-8
    scaling = VoltageScaling.from_degrees(1.03, 5.0)
    flow = solve_flow(spec, OperatingPoint(0.9, scaling))
    vph = spec.phase_voltage
    for n in (2, 10, 100):
        prof = segment_profile(spec, scaling.xi * 0.9 * vph, 0.9 * vph, n)
        assert abs(prof.total_loss - flow.p_loss) / flow.p_loss < 1e-8

    # strategy identities on a coarse synthetic curve
    from cableopt import synth_duration_curve
    curve = synth_duration_curve(8.0, 3.0, 11.0, 25.0, n_bins=12, target_uf=0.46)
    fixed = annual_efficiency(spec, 300e6, curve, FixedVoltage(0.8))
    degenerate_range = annual_efficiency(spec, 300e6, curve, VoltageRange(0.8, 0.8))
    assert fixed.eta_annual == degenerate_range.eta_annual
    wide = annual_efficiency(spec, 300e6, curve, VoltageRange(0.4, 1.0))
    mid = annual_efficiency(spec, 300e6, curve, VoltageRange(0.6, 0.9))
    assert wide.eta_annual >= mid.eta_annual - 1e-9
    for v in (0.4, 0.7, 1.0):
        res = annual_efficiency(spec, 300e6, curve, FixedVoltage(v))
        assert wide.eta_annual >= res.eta_annual - 1e-9
        total = res.energy_delivered + res.energy_lost + res.energy_curtailed
        assert abs(total - res.energy_produced_potential) <= 1e-9 * res.energy_produced_potential

    _report(8, "cascade 1e-10, lumped-PI 1e-4, 1000-point passivity/balance, "
               "loss summation 1e-8, strategy identities, energy conservation",
            time.perf_counter() - t0, 120.0)
