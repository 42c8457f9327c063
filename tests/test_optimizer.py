"""Optimizer tests against frozen optima and independent brute-force grids."""

import cmath
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cableopt import (
    BindingConstraint,
    Constraints,
    Infeasible,
    VoltageScaling,
    max_feasible_power,
    max_feasible_power_rows,
    optimal_voltage_curve,
    optimize_at_production,
    optimize_at_production_rows,
    optimize_scaling_unconstrained,
    segment_profile,
    solve_flow,
    transfer_envelope,
)

from cableopt import optimizer
from cableopt.cli import main
from cableopt.optimizer import _Cable, _points
from cableopt.power_flow import unit_flow
from conftest import random_cable, ref_cable
from oracle import best_eta_at_production, best_eta_unconstrained, best_pgrid_at_voltage

# 2-D optimum for the 200 km reference cable: the stationary point of eta,
# solved with 40-digit mpmath (beta in rad)
OPT_ALPHA = 1.031273161717023
OPT_BETA = 0.07846217092031672
OPT_ETA = 0.94026997592593181


# ---------------------------------------------------------------------------
# unconstrained optimum

def test_unconstrained_optimum_matches_frozen_values(cable200):
    scaling, eta = optimize_scaling_unconstrained(cable200)
    assert scaling.alpha == pytest.approx(OPT_ALPHA, abs=1e-12)
    assert scaling.beta == pytest.approx(OPT_BETA, abs=1e-12)
    assert eta == pytest.approx(OPT_ETA, abs=1e-6)


def test_unconstrained_optimum_beats_fine_grid(cable200):
    _, eta = optimize_scaling_unconstrained(cable200)
    grid_eta = best_eta_unconstrained(cable200)
    assert eta >= grid_eta - 1e-9
    assert abs(eta - grid_eta) < 1e-6


def test_short_cable_optimum_approaches_unity():
    scaling, eta = optimize_scaling_unconstrained(ref_cable(10.0))
    assert scaling.alpha <= 1.005
    assert scaling.beta_deg <= 0.25
    assert eta > 0.999


def test_unconstrained_optimum_deterministic(cable200):
    s1, e1 = optimize_scaling_unconstrained(cable200)
    s2, e2 = optimize_scaling_unconstrained(cable200)
    assert (s1.alpha, s1.beta, e1) == (s2.alpha, s2.beta, e2)


def test_no_positive_power_error(cable200):
    with pytest.raises(ValueError):
        optimize_scaling_unconstrained(cable200, (0.0, 1.0))


# ---------------------------------------------------------------------------
# optimal-voltage curve

def test_curve_zero_power_gives_zero_voltage(cable200):
    pts = optimal_voltage_curve(cable200, VoltageScaling.from_degrees(1.025, 4.25), [0.0])
    assert pts[0].v2_opt == 0.0
    assert not pts[0].exceeds_v2_max


def test_curve_is_strictly_increasing(cable200):
    targets = [20e6 * k for k in range(1, 14)]
    pts = optimal_voltage_curve(cable200, VoltageScaling.from_degrees(1.025, 4.25), targets)
    v2s = [p.v2_opt for p in pts]
    assert all(b > a for a, b in zip(v2s, v2s[1:]))


def test_curve_flags_consistent_with_limits(cable200):
    scaling = VoltageScaling.from_degrees(1.025, 4.25)
    targets = [p * 1e6 for p in range(100, 320, 5)]
    pts = optimal_voltage_curve(cable200, scaling, targets)
    for pt in pts:
        assert pt.exceeds_v2_max == (pt.v2_opt > 1.0)
    # flags are monotone: once a limit is crossed it stays crossed
    flags_v = [p.exceeds_v2_max for p in pts]
    flags_i = [p.exceeds_current for p in pts]
    assert flags_v == sorted(flags_v)
    assert flags_i == sorted(flags_i)


def test_curve_rejects_powerless_scaling(cable200):
    with pytest.raises(Infeasible, match=r"^farm power coefficient is -.* W/pu\^2 at this scaling$"):
        optimal_voltage_curve(cable200, VoltageScaling.from_degrees(1.0, -30.0), [1e6])


# ---------------------------------------------------------------------------
# constrained optimum at a production level

def test_small_production_reaches_unconstrained_optimum(cable200):
    point = optimize_at_production(cable200, 50e6, Constraints())
    assert point.binding_constraints == frozenset()
    assert point.eta == pytest.approx(OPT_ETA, abs=1e-6)
    assert point.operating_point.v2 == pytest.approx(math.sqrt(50e6 / 214.4e6), abs=5e-3)


def test_production_point_transmits_exactly(cable200):
    for p in (30e6, 120e6, 250e6):
        point = optimize_at_production(cable200, p, Constraints())
        assert point.flow.p_farm == pytest.approx(p, rel=1e-9)


def test_feasibility_soundness(cable200):
    cons = Constraints()
    for p in (30e6, 120e6, 250e6, 280e6):
        point = optimize_at_production(cable200, p, cons)
        op = point.operating_point
        assert cons.v2_min * (1 - 1e-9) <= op.v2 <= cons.v2_max * (1 + 1e-9)
        assert cons.alpha_min <= op.scaling.alpha <= cons.alpha_max
        flow = point.flow
        i_lim = cons.rated_current(cable200)
        assert abs(flow.i1) <= i_lim * (1 + 1e-9)
        assert abs(flow.i2) <= i_lim * (1 + 1e-9)
        # terminal currents of the segmented profile agree with the check
        vph = cable200.phase_voltage
        prof = segment_profile(cable200, op.scaling.xi * op.v2 * vph, op.v2 * vph, 50)
        assert abs(prof.node_currents[0]) <= i_lim * (1 + 1e-6)
        assert abs(prof.grid_end_current) <= i_lim * (1 + 1e-6)


@pytest.mark.parametrize("p_mw,v2_lo,v2_hi", [
    (100.0, 1.0, 1.0),    # fixed full voltage
    (60.0, 0.6, 0.6),     # fixed reduced voltage
    (150.0, 0.4, 1.0),    # free range, interior optimum
    (260.0, 0.4, 1.0),    # near capability, constraint-bound
])
def test_production_optimum_matches_brute_grid(cable200, p_mw, v2_lo, v2_hi):
    cons = Constraints(v2_min=v2_lo, v2_max=v2_hi)
    point = optimize_at_production(cable200, p_mw * 1e6, cons)
    oracle = best_eta_at_production(cable200, p_mw * 1e6, v2_lo, v2_hi, 1055.0)
    assert oracle is not None
    assert abs(point.eta - oracle) <= 1e-5


def test_fixed_voltage_binding_constraints(cable200):
    point = optimize_at_production(cable200, 100e6, Constraints().fixed_v2(1.0))
    assert BindingConstraint.V2_MAX in point.binding_constraints
    assert BindingConstraint.V2_MIN in point.binding_constraints


def test_high_production_binds_limits(cable200):
    point = optimize_at_production(cable200, 290e6, Constraints())
    assert point.binding_constraints != frozenset()


def test_overload_is_infeasible(cable200):
    with pytest.raises(Infeasible):
        optimize_at_production(cable200, 320e6, Constraints().fixed_v2(1.0))
    with pytest.raises(Infeasible):
        optimize_at_production(cable200, 400e6, Constraints())


def test_tiny_production_at_full_voltage_uses_widened_window(cable200):
    # 1 MW cannot be pushed through a 200 km cable at full voltage with
    # beta >= 0; the widened window finds the (lossy) backfeed point
    point = optimize_at_production(cable200, 1e6, Constraints().fixed_v2(1.0))
    assert point.flow.p_farm == pytest.approx(1e6, rel=1e-9)
    assert point.operating_point.scaling.beta < 0
    assert point.eta is not None and point.eta < 0


@pytest.mark.parametrize("p_mw", [50.0, 100.0])
def test_unbound_production_optimum_is_the_scaling_optimum(cable200, p_mw):
    point = optimize_at_production(cable200, p_mw * 1e6, Constraints())
    _, eta_star = optimize_scaling_unconstrained(cable200)
    assert point.binding_constraints == frozenset()
    assert abs(point.eta - eta_star) <= 1e-12


def test_capability_edge_production_is_feasible(cable200):
    # max_feasible_power's optimum injects 319.6 MW; 319 MW is still feasible
    point = optimize_at_production(cable200, 319e6)
    assert point.flow.p_farm == pytest.approx(319e6, rel=1e-9)
    assert 0.4 * (1 - 1e-9) <= point.operating_point.v2 <= 1.0 * (1 + 1e-9)
    assert max(abs(point.flow.i1), abs(point.flow.i2)) <= 1055.0 * (1 + 1e-9)


def _scale(form, xi):
    """Size of the terms of form (q2, w, q0) at xi."""
    return abs(form[0]) * abs(xi) ** 2 + abs(form[1]) * abs(xi) + abs(form[2])


def test_forms_match_kernel_and_profile():
    # the four cable forms at v2 = 1 V against power_flow.unit_flow, and the node
    # forms at v2 = 1 p.u. against segment_profile, to 1e-12 of each form's terms
    rng = random.Random(17)
    for _ in range(300):
        spec = random_cable(rng).with_length(rng.uniform(1.0, 600.0))
        cons = Constraints(check_internal_current=True, n_profile_segments=rng.choice([1, 2, 7, 40]))
        cab = _Cable(spec, cons)
        xi = cmath.rect(rng.uniform(0.8, 1.2), rng.uniform(-math.pi, math.pi))
        farm, grid, i1, i2 = unit_flow(cab.tp, xi)
        forms = [cab.farm, cab.grid, cab.cur1, cab.cur2]
        wants = [farm, grid, abs(i1) ** 2, abs(i2) ** 2]
        prof = segment_profile(spec, xi * cab.vph, cab.vph, cons.n_profile_segments)
        v_forms, i_forms = cab.node_forms
        forms += v_forms + i_forms
        wants += [abs(v) ** 2 for v in prof.node_voltages]
        wants += [abs(i) ** 2 for i in prof.node_currents + (prof.grid_end_current,)]
        assert len(forms) == len(wants)
        for form, want in zip(forms, wants):
            got = form[0] * abs(xi) ** 2 + (form[1] * xi).real + form[2]
            assert abs(got - want) <= 1e-12 * _scale(form, xi)


def test_production_determinism(cable200):
    a = optimize_at_production(cable200, 137e6, Constraints())
    b = optimize_at_production(cable200, 137e6, Constraints())
    assert a.operating_point == b.operating_point


def test_internal_checks_accept_normal_point(cable200):
    cons = Constraints(check_internal_current=True, check_internal_voltage_max=1.5,
                       n_profile_segments=40)
    point = optimize_at_production(cable200, 120e6, cons)
    assert point.eta > 0.9


def test_internal_voltage_cap_can_bind(cable200):
    # a tight internal cap forces a different (or infeasible) solution
    loose = optimize_at_production(cable200, 120e6, Constraints())
    cap = 1.001 * loose.operating_point.v2  # barely above the grid end
    cons = Constraints(check_internal_voltage_max=cap, n_profile_segments=40)
    try:
        point = optimize_at_production(cable200, 120e6, cons)
    except Infeasible:
        return
    assert point.eta <= loose.eta + 1e-12


# ---------------------------------------------------------------------------
# maximum deliverable power

def test_max_power_matches_brute_grid(cable200):
    pf, pg, point = max_feasible_power(cable200, Constraints().fixed_v2(1.0))
    oracle = best_pgrid_at_voltage(cable200, 1.0, 1055.0)
    assert pg >= oracle - 1.0          # refinement may only improve
    assert abs(pg - oracle) < 1e-3 * oracle
    assert pf > pg > 0
    assert BindingConstraint.CURRENT_LIMIT in point.binding_constraints


@pytest.mark.parametrize("length", [100.0, 200.0, 260.0])
def test_max_power_matches_capped_brute_grid(length):
    spec = ref_cable(length)
    for v2 in (1.0, 0.62):
        for cap in (None, 50e6, 150e6):
            ref = best_pgrid_at_voltage(spec, v2, 1055.0, p_farm_cap=cap)
            try:
                pf, pg, _ = max_feasible_power(spec, Constraints().fixed_v2(v2), p_farm_cap=cap)
            except Infeasible:
                assert ref is None, f"{length} km, {v2} pu, cap {cap}: oracle delivers {ref}"
                continue
            assert ref is not None
            assert pg >= ref - 1.0, f"{length} km, {v2} pu, cap {cap}: {pg} < {ref}"
            assert cap is None or pf <= cap * (1 + 1e-9)


# a 0.25 deg beta grid plus pattern search stops 0.7 % and 0.35 % short here
@pytest.mark.parametrize("length,cap,floor", [(80.0, 150e6, 146.19e6), (97.0, None, 268.12e6)])
def test_max_power_reaches_optimum_at_reduced_voltage(length, cap, floor):
    _, pg, _ = max_feasible_power(ref_cable(length), Constraints().fixed_v2(0.62), p_farm_cap=cap)
    assert pg >= floor


def test_max_power_with_farm_cap(cable200):
    pf, pg, _ = max_feasible_power(cable200, Constraints().fixed_v2(1.0), p_farm_cap=100e6)
    assert pf <= 100e6 * (1 + 1e-9)
    assert pg < pf


def test_max_power_respects_binding_internal_voltage_cap():
    spec = ref_cable(150.0)
    cons = Constraints(check_internal_current=True, check_internal_voltage_max=0.98,
                       n_profile_segments=40)
    _, pg, point = max_feasible_power(spec, cons)
    _, free, _ = max_feasible_power(spec, Constraints())
    op = point.operating_point
    vph = spec.phase_voltage
    prof = segment_profile(spec, op.scaling.xi * op.v2 * vph, op.v2 * vph, 40)
    assert BindingConstraint.INTERNAL_VOLTAGE in point.binding_constraints
    assert prof.max_voltage <= 0.98 * vph * (1 + 1e-12)
    assert prof.max_current <= 1055.0 * (1 + 1e-12)
    assert 0.9 * free < pg < free


def test_max_power_internal_limits_take_several_cuts(monkeypatch):
    # each internal-check failure adds the worst node as a circle and solves
    # again: one candidate table per cut round of this one-row solve
    solves, profiles = [], []
    monkeypatch.setattr(optimizer, "_points", lambda *a: solves.append(1) or _points(*a))
    monkeypatch.setattr(optimizer, "segment_profile",
                        lambda *a: profiles.append(1) or segment_profile(*a))
    spec = ref_cable(150.0)
    cons = Constraints(check_internal_current=True, check_internal_voltage_max=0.98,
                       n_profile_segments=40)
    _, pg, point = max_feasible_power(spec, cons)
    assert len(solves) > 2
    # the candidates a cut node already rules out get no profile: two for the
    # node forms, one check per round, one for the binding internal voltage
    assert len(profiles) == 2 + len(solves) + 1
    assert pg >= 355.917174e6      # reached by the earlier alpha search with beta bisection
    op = point.operating_point
    vph = spec.phase_voltage
    prof = segment_profile(spec, op.scaling.xi * op.v2 * vph, op.v2 * vph, 40)
    assert prof.max_voltage <= 0.98 * vph * (1 + 1e-12)
    assert prof.max_current <= 1055.0 * (1 + 1e-12)


def test_max_power_infeasible_for_overlong_cable_at_full_voltage():
    with pytest.raises(Infeasible):
        max_feasible_power(ref_cable(300.0), Constraints().fixed_v2(1.0))


def test_envelope_structure():
    spec = ref_cable(200.0)
    lengths = [100.0, 200.0, 260.0, 320.0, 400.0]
    voltages = [1.0, 0.6]
    env = transfer_envelope(spec, lengths, voltages, Constraints())
    by_voltage = {v: [p for p in env.points if p.v2 == v] for v in voltages}
    # capability is non-increasing in length for each fixed voltage
    for v in voltages:
        caps = [p.p_grid_max for p in by_voltage[v]]
        assert all(b <= a + 1.0 for a, b in zip(caps, caps[1:]))
    # the free-voltage envelope dominates every fixed-voltage curve
    for k, length in enumerate(lengths):
        for v in voltages:
            assert env.envelope[k].p_grid_max >= by_voltage[v][k].p_grid_max * (1 - 1e-9)
    # crossing structure: high voltage wins short, low voltage extends far
    assert by_voltage[1.0][0].p_grid_max > by_voltage[0.6][0].p_grid_max
    assert by_voltage[0.6][-1].p_grid_max > by_voltage[1.0][-1].p_grid_max
    # infeasible points recorded as zero capability, not errors
    assert any(not p.feasible and p.p_grid_max == 0.0 for p in by_voltage[1.0])
    # delivered never exceeds injected
    for p in env.points + env.envelope:
        assert p.p_grid_max <= p.p_farm_at_max + 1e-6


def test_constraints_validation():
    with pytest.raises(ValueError):
        Constraints(v2_min=0.0)
    with pytest.raises(ValueError):
        Constraints(v2_min=0.9, v2_max=0.5)
    with pytest.raises(ValueError):
        Constraints(alpha_min=1.2, alpha_max=1.1)
    with pytest.raises(ValueError):
        Constraints(i_rated=-1.0)
    for bad in (dict(v2_max=math.inf), dict(alpha_max=math.nan), dict(alpha_min=0.0),
                dict(v2_max=1e200), dict(v2_min=1e-200)):
        with pytest.raises(ValueError):
            Constraints(**bad)


def test_oracle_sees_small_beta_optimum():
    # the optimum sits at beta = 0.011 deg, below an oracle scan from 0.05 deg
    spec = ref_cable(281.34)
    point = optimize_at_production(spec, 3.40e6, Constraints(v2_min=0.6, v2_max=0.85))
    ref = best_eta_at_production(spec, 3.40e6, 0.6, 0.85, 1055.0)
    assert point.eta == pytest.approx(-0.932, abs=1e-3)
    assert ref is not None and abs(point.eta - ref) <= 1e-5


def test_randomized_oracle_equivalence():
    """Seeded sample of (cable, power, box) cases against the brute oracle.

    The optimizer must agree on feasibility, never fall more than 1e-5
    below the oracle, and every winning point must satisfy the limits
    when re-checked through the flow solution.
    """
    rng = random.Random(99)
    checked = 0
    while checked < 12:
        spec = ref_cable(rng.uniform(60.0, 340.0))
        p = rng.uniform(5e6, 350e6)
        v2_lo = rng.choice([0.3, 0.4, 0.6, 0.8])
        v2_hi = rng.choice([u for u in (0.7, 0.85, 1.0) if u >= v2_lo])
        if rng.random() < 0.25:
            v2_hi = v2_lo
        cons = Constraints(v2_min=v2_lo, v2_max=v2_hi)
        try:
            point = optimize_at_production(spec, p, cons)
        except Infeasible:
            point = None
        ref = best_eta_at_production(spec, p, v2_lo, v2_hi, cons.rated_current(spec))
        assert (point is None) == (ref is None), (
            f"feasibility disagreement: L={spec.length_km:.1f} p={p/1e6:.1f} "
            f"box=[{v2_lo},{v2_hi}]")
        checked += 1
        if point is None:
            continue
        assert point.eta >= ref - 1e-5
        flow = point.flow
        assert flow.p_farm == pytest.approx(p, rel=1e-9)
        i_lim = cons.rated_current(spec)
        assert max(abs(flow.i1), abs(flow.i2)) <= i_lim * (1 + 1e-9)
        assert v2_lo * (1 - 1e-9) <= point.operating_point.v2 <= v2_hi * (1 + 1e-9)


# ---------------------------------------------------------------------------
# qualitative operating-strategy behaviour

def test_optimal_voltage_rises_with_production_then_saturates(cable200):
    """Low production parks at the range floor; the optimum then climbs to 1.0."""
    v2s = []
    for p_mw in (20, 60, 100, 140, 180, 220, 260):
        point = optimize_at_production(cable200, p_mw * 1e6, Constraints())
        v2s.append(point.operating_point.v2)
    assert v2s[0] == pytest.approx(0.4, abs=1e-6)          # floor binds
    assert all(b >= a - 1e-9 for a, b in zip(v2s, v2s[1:]))  # non-decreasing
    assert v2s[-1] == pytest.approx(1.0, abs=1e-6)         # ceiling binds


def test_variable_voltage_dominates_fixed_mostly_at_low_power(cable200):
    gains = {}
    for p_mw in (20, 100, 220):
        free = optimize_at_production(cable200, p_mw * 1e6, Constraints())
        fixed = optimize_at_production(cable200, p_mw * 1e6, Constraints().fixed_v2(1.0))
        assert free.eta >= fixed.eta - 1e-9
        gains[p_mw] = free.eta - fixed.eta
    assert gains[20] > 0.1          # huge at low production
    assert gains[220] < 1e-3        # negligible once v2 = 1.0 is optimal anyway


def test_long_cable_needs_reduced_voltage():
    """At 300 km full-voltage operation is impossible but a reduced range works."""
    spec = ref_cable(300.0)
    with pytest.raises(Infeasible):
        optimize_at_production(spec, 100e6, Constraints().fixed_v2(1.0))
    point = optimize_at_production(spec, 100e6, Constraints())
    assert point.eta > 0.8
    assert point.operating_point.v2 < 0.9


def test_extreme_length_two_port_is_stable():
    """Hyperbolic evaluation must not overflow; long lines approach matching."""
    from cableopt import characteristic_impedance, exact_pi_two_port
    spec = ref_cable(5000.0)
    tp = exact_pi_two_port(spec)
    assert math.isfinite(abs(tp.a)) and math.isfinite(abs(tp.b))
    matched = 1.0 / characteristic_impedance(spec)
    assert abs(tp.a - matched) / abs(matched) < 0.02
    assert abs(tp.b) < 0.2 * abs(matched)


# ---------------------------------------------------------------------------
# property: the circle solve is never beaten by a feasible sampled point

def _grid(lo, hi, n=41):
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), length=st.floats(20.0, 400.0), v2_lo=st.floats(0.3, 1.0),
       v2_span=st.sampled_from([0.0, 0.15, 0.6]), a_lo=st.floats(0.9, 1.1),
       a_span=st.sampled_from([0.0, 0.05, 0.2]), p=st.floats(2e6, 400e6),
       cap=st.none() | st.floats(1e6, 400e6))
def test_solves_beat_every_feasible_sample(seed, length, v2_lo, v2_span, a_lo, a_span, p, cap):
    spec = random_cable(random.Random(seed)).with_length(length)
    cons = Constraints(v2_min=v2_lo, v2_max=v2_lo + v2_span, alpha_min=a_lo, alpha_max=a_lo + a_span)
    cab = _Cable(spec, cons)
    i_max, vph = cons.rated_current(spec), spec.phase_voltage
    etas, delivered = [], []
    for alpha in _grid(cons.alpha_min, cons.alpha_max):
        for beta in _grid(cab.beta_floor, cab.beta_cap):
            farm, grid, i1, i2 = unit_flow(cab.tp, cmath.rect(alpha, beta))
            if farm > 0.0:
                v2 = math.sqrt(p / (3.0 * vph**2 * farm))
                if cons.v2_min <= v2 <= cons.v2_max and max(abs(i1), abs(i2)) * vph * v2 <= i_max:
                    etas.append(grid / farm)
        for beta in _grid(*cab.delivery_window):
            farm, grid, i1, i2 = unit_flow(cab.tp, cmath.rect(alpha, beta))
            v2 = min(cons.v2_max, i_max / (vph * max(abs(i1), abs(i2))))
            if cap is not None and farm > 0.0:
                v2 = min(v2, math.sqrt(cap / (3.0 * vph**2 * farm)))
            if v2 >= cons.v2_min:
                v2 = v2 if grid > 0.0 else cons.v2_min
                delivered.append(3.0 * vph**2 * grid * v2 * v2)
    try:
        eta = optimize_at_production(spec, p, cons).eta
    except Infeasible:
        assert not etas
    else:
        assert not etas or eta >= max(etas) - 1e-12
    try:
        _, pg, _ = max_feasible_power(spec, cons, p_farm_cap=cap)
    except Infeasible:
        assert not delivered
    else:
        assert not delivered or pg >= max(delivered) - 1e-12 * abs(max(delivered))


# ---------------------------------------------------------------------------
# rows: a batched solve gives each row what its one-row call gives

def test_envelope_rows_match_one_row_calls():
    rng = random.Random(31)
    for _ in range(6):
        spec = random_cable(rng)
        lengths = sorted(rng.uniform(1.0, 400.0) for _ in range(3))
        voltages = [rng.uniform(0.4, 1.0) for _ in range(3)]
        cons = Constraints(v2_min=rng.uniform(0.3, 0.8), v2_max=1.0)
        env = transfer_envelope(spec, lengths, voltages, cons)
        boxes = [cons.fixed_v2(v2) for v2 in voltages]
        rows = [(pt, box) for pt, box in zip(env.points, boxes * len(lengths))]
        rows += [(pt, cons) for pt in env.envelope]
        for pt, box in rows:
            try:
                pf, pg, point = max_feasible_power(spec.with_length(pt.length_km), box)
            except Infeasible:
                assert not pt.feasible and pt.p_grid_max == 0.0
                continue
            assert pt.feasible and pt.v2 == pytest.approx(point.operating_point.v2, rel=1e-12)
            if pg > 0.0:
                assert pt.p_grid_max == pytest.approx(pg, rel=1e-12)
                assert pt.p_farm_at_max == pytest.approx(pf, rel=1e-12)
            else:
                assert pt.p_grid_max == pt.p_farm_at_max == 0.0


def _same_point(point, one):
    """A row's OptimumPoint against its one-row call's, within 1e-12 relative."""
    assert (point is None) == (one is None)
    if point is not None:
        got, want = point.operating_point, one.operating_point
        assert got.v2 == pytest.approx(want.v2, rel=1e-12)
        assert got.scaling.alpha == pytest.approx(want.scaling.alpha, rel=1e-12)
        assert got.scaling.beta == pytest.approx(want.scaling.beta, rel=1e-12, abs=1e-15)
        assert point.flow.p_farm == pytest.approx(one.flow.p_farm, rel=1e-12)
        assert point.flow.p_grid == pytest.approx(one.flow.p_grid, rel=1e-12)
        assert point.binding_constraints == one.binding_constraints


@pytest.mark.parametrize("internal", [False, True])
def test_rows_on_different_cables_match_one_row_calls(internal):
    # one production and one capped delivery solve over rows whose cables
    # differ in their per-length data and length, and whose v2 boxes differ
    rng = random.Random(43 + internal)
    cons = Constraints(check_internal_current=internal,
                       check_internal_voltage_max=1.0 if internal else None, n_profile_segments=8)
    specs = [random_cable(rng).with_length(10.0 ** rng.uniform(0.0, math.log10(400.0)))
             for _ in range(6 if internal else 16)]
    rows = []
    for spec in specs:
        for _ in range(3):
            lo = rng.uniform(0.3, 1.0)
            rows.append((spec, cons.with_v2_range(lo, rng.choice([lo, rng.uniform(lo, 1.0), 1.0])),
                         10.0 ** rng.uniform(5.0, 9.0)))
    rng.shuffle(rows)
    batched = optimize_at_production_rows([(spec, p, box) for spec, box, p in rows])
    for (spec, box, p), point in zip(rows, batched):
        _same_point(point, optimize_at_production_rows([(spec, p, box)])[0])
    assert any(point is None for point in batched) and any(point is not None for point in batched)
    batched = max_feasible_power_rows(rows)
    for (spec, box, cap), point in zip(rows, batched):
        _same_point(point, max_feasible_power_rows([(spec, box, cap)])[0])
    assert any(point is None for point in batched) and any(point is not None for point in batched)


def test_rows_may_differ_in_their_cable_and_v2_box_only(cable200):
    rows = [(cable200, 100e6, Constraints()), (cable200, 100e6, Constraints(alpha_max=1.05))]
    with pytest.raises(ValueError):
        optimize_at_production_rows(rows)
    with pytest.raises(ValueError):
        max_feasible_power_rows([(cable200, Constraints(), None), (cable200, Constraints(), 50e6)])
    assert optimize_at_production_rows([]) == []
    # a different cable, v2 box or cable rating is fine; a different override is not
    rows = [(cable200, 100e6, Constraints()), (ref_cable(80.0), 100e6, Constraints(v2_min=0.9)),
            (replace(cable200, rated_current=700.0), 100e6, Constraints())]
    assert None not in optimize_at_production_rows(rows)
    with pytest.raises(ValueError):
        optimize_at_production_rows(rows + [(cable200, 100e6, Constraints(i_rated=900.0))])
    with pytest.raises(ValueError):
        max_feasible_power_rows([(cable200, Constraints(), None),
                                 (cable200, Constraints(check_internal_current=True), None)])


def test_envelope_and_sweep_are_one_solve_each(solve_calls, capsys):
    calls = solve_calls
    env = transfer_envelope(ref_cable(), [60.0, 150.0, 240.0, 330.0, 420.0], [1.0, 0.8, 0.6, 0.4])
    assert len(calls) == 1
    assert len(env.points) == 20 and len(env.envelope) == 5
    assert [pt.length_km for pt in env.envelope] == [60.0, 150.0, 240.0, 330.0, 420.0]
    calls.clear()
    assert main(["sweep", "--voltages", "0.6,1.0", "--optimal-range", "0.4", "1.0"]) == 0
    assert len(calls) == 1
    assert len(capsys.readouterr().out.splitlines()) > 3 * 30
