"""Optimizer tests against frozen optima and independent brute-force grids."""

import cmath
import json
import math
import os
import platform
import random
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cableopt import (
    BindingConstraint,
    Constraints,
    EnvelopePoint,
    Infeasible,
    OperatingPoint,
    VoltageScaling,
    exact_pi_two_port,
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
from cableopt.optimizer import _points, _Rows
from conftest import random_cable, ref_cable
from oracle import (best_eta_at_production, best_eta_unconstrained, best_pgrid_at_voltage,
                    full_form_delivery, profile_worst_nodes, rating_disk_grids,
                    two_circle_production, unit_flow, walked_winners)

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
    # at alpha <= 0.02 no scaling delivers power: the best eta, -18.5, is no optimum
    with pytest.raises(Infeasible, match="efficiency is never > 0$"):
        optimize_scaling_unconstrained(cable200, (0.01, 0.02))


@pytest.mark.parametrize("length", [0.05, 0.2, 0.5, 2.0])
def test_short_cable_optimum_beats_a_local_grid(length):
    # the optimum leads by about 5e-7 rad at 0.5 km and by less on shorter
    # cables, so the beta window must reach below it.  A grid around the
    # winner, scaled to its distance from xi = 1, may beat eta* by the flow's
    # rounding only: 8*eps*3*V_ph^2*(|a|*alpha + |b|)*alpha over p_farm, about
    # 4e-6 at 0.05 km, where the two-port's shunt conductance rounds to zero
    spec, tp = ref_cable(length), exact_pi_two_port(ref_cable(length))
    scaling, eta = optimize_scaling_unconstrained(spec)
    alpha, beta = scaling.alpha, scaling.beta
    size = 3.0 * spec.phase_voltage**2 * (abs(tp.a) * alpha + abs(tp.b)) * alpha
    tol = 8.0 * sys.float_info.epsilon * size / solve_flow(spec, OperatingPoint(1.0, scaling)).p_farm
    grid = max(solve_flow(spec, OperatingPoint(1.0, VoltageScaling(
        max(1.0, 1.0 + (alpha - 1.0) * (1 + i / 20)), beta * (1 + j / 20)))).eta
        for i in range(-10, 11) for j in range(-10, 11))
    assert eta >= grid - tol


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


def test_curve_rejects_a_negative_target(cable200):
    with pytest.raises(ValueError, match="^farm power target must be >= 0, got -1.0$"):
        optimal_voltage_curve(cable200, VoltageScaling.from_degrees(1.025, 4.25), [1e6, -1.0])


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
    # the four cable forms at v2 = 1 V against the complex-arithmetic flow, the
    # node forms at v2 = 1 p.u. against segment_profile, and the scorer _Rows.at
    # against solve_flow at v2 = 1 p.u., to 1e-12 of each form's or term's size
    rng = random.Random(17)
    for _ in range(300):
        spec = random_cable(rng).with_length(rng.uniform(1.0, 600.0))
        cons = Constraints(check_internal_current=True, check_internal_voltage_max=1.0,
                           n_profile_segments=rng.choice([1, 2, 7, 40]))
        cables, vph = _Rows([(spec, cons)]), spec.phase_voltage
        alpha, beta = rng.uniform(0.8, 1.2), rng.uniform(-math.pi, math.pi)
        xi = cmath.rect(alpha, beta)
        farm, grid, i1, i2 = unit_flow(exact_pi_two_port(spec), xi)
        forms = [[x[0] for x in form] for form in (cables.farm, cables.grid, cables.cur1, cables.cur2)]
        wants = [farm, grid, abs(i1) ** 2, abs(i2) ** 2]
        prof = segment_profile(spec, xi * vph, vph, cons.n_profile_segments)
        (i_forms, _), (v_forms, _) = cables.per_row[0].checks
        forms += v_forms + i_forms
        wants += [abs(v) ** 2 for v in prof.node_voltages]
        wants += [abs(i) ** 2 for i in prof.node_currents + (prof.grid_end_current,)]
        assert len(forms) == len(wants)
        for form, want in zip(forms, wants):
            got = form[0] * abs(xi) ** 2 + (form[1] * xi).real + form[2]
            assert abs(got - want) <= 1e-12 * _scale(form, xi)
        flow = solve_flow(spec, OperatingPoint(1.0, VoltageScaling(alpha, beta)))
        c, g, eta, i = (x.item() for x in cables.at(np.array([alpha]), np.array([beta]), np.array([0])))
        c_size, g_size = (3.0 * vph**2 * _scale(form, xi) for form in forms[:2])
        a, b = abs(cables.a[0]), abs(cables.b[0])
        assert abs(c - flow.p_farm) <= 1e-12 * c_size
        assert abs(g - flow.p_grid) <= 1e-12 * g_size
        if flow.eta is not None:
            assert abs(eta - flow.eta) <= 1e-12 * (g_size + abs(flow.eta) * c_size) / abs(flow.p_farm)
        else:
            assert eta == -math.inf
        assert abs(i - max(abs(flow.i1), abs(flow.i2))) <= 1e-12 * (a + b) * max(alpha, 1.0) * vph


def test_node_form_checks_match_the_profile_checks():
    # _Cable.violations reads the node forms; the profile check it replaced
    # must fail the same checks at the same worst nodes, but where a worst node
    # lies within 1e-11 relative of limit*(1 + _EDGE), where rounding may tip either.
    # A third of the points put the worst node 0, 1e-10 or 1e-8 off it.
    rng = random.Random(29)
    compared = near = failed = 0
    for _ in range(200):
        spec = random_cable(rng).with_length(rng.uniform(1.0, 600.0))
        current, v_cap = rng.choice([(True, None), (False, 1.0), (True, rng.uniform(0.9, 1.2))])
        cons = Constraints(check_internal_current=current, check_internal_voltage_max=v_cap,
                           n_profile_segments=rng.choice([1, 2, 3, 7, 40, 100]))
        cable = optimizer._Cable(spec, cons)
        for _ in range(25):
            alpha, beta = rng.uniform(0.8, 1.25), rng.uniform(-math.pi / 2, math.pi / 2)
            v2 = rng.uniform(0.3, 1.1)
            if rng.random() < 1 / 3:
                # every node scales with v2^2: put one check's worst node on its threshold
                forms, limit = rng.choice(cable.checks)
                xi = cmath.rect(alpha, beta)
                worst = max(optimizer._value(form, alpha, xi, 1.0) for form in forms)
                off = rng.choice([0.0, 1e-10, -1e-10, 1e-8, -1e-8])
                v2 = limit * (1 + optimizer._EDGE) * (1 + off) / math.sqrt(worst)
            ref = profile_worst_nodes(spec, cons, alpha, beta, v2)
            got = cable.violations(alpha, beta, v2)
            edges = [limit * (1 + optimizer._EDGE) for _, _, limit in ref]
            if any(abs(value - edge) <= 1e-11 * edge for (_, value, _), edge in zip(ref, edges)):
                near += 1
                continue
            want = [(forms[k], limit) for (forms, _), (k, value, limit), edge in
                    zip(cable.checks, ref, edges) if value > edge]
            assert got == want, (spec, cons, alpha, beta, v2)
            compared += 1
            failed += bool(want)
    assert compared > 4500 and near < 400
    assert 1000 < failed < compared - 1000


def test_production_transmits_p_to_the_conditioning_of_the_farm_power():
    # floats alpha and beta carry the farm power no closer than eps times the
    # condition number of farm = Re(xi*conj(a*xi + b)) at the winner, which
    # grows as 1/|xi - 1| as a short cable's a and b cancel; eps/|xi - 1|
    # alone is exceeded 142-fold on this grid (6.7 m, 0.50 MW, at v2_min and the rating)
    rng = random.Random(66)
    eps, feasible = sys.float_info.epsilon, 0
    for _ in range(300):
        spec = random_cable(rng).with_length(10.0 ** rng.uniform(-3.0, math.log10(400.0)))
        p = 10.0 ** rng.uniform(5.0, math.log10(316e6))
        try:
            point = optimize_at_production(spec, p)
        except Infeasible:
            continue
        s, tp = point.operating_point.scaling, exact_pi_two_port(spec)
        xi = cmath.rect(s.alpha, s.beta)
        farm = (xi * (tp.a * xi + tp.b).conjugate()).real
        cond = (abs(tp.a) * abs(xi) ** 2 + abs(tp.b) * abs(xi)) / farm
        assert abs(point.flow.p_farm - p) / p <= 2.0 * eps * cond
        feasible += 1
    assert feasible == 298


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


def _rating_floor(spec, alpha, v2, current):
    """4*eps*kappa^2, kappa = (|a|*alpha + |b|)*V_ph*v2/current: the rounding of the rating circles."""
    tp = exact_pi_two_port(spec)
    kappa = (abs(tp.a) * alpha + abs(tp.b)) * spec.phase_voltage * v2 / current
    return 4.0 * sys.float_info.epsilon * kappa * kappa


@pytest.mark.parametrize("length,v2", [(0.5, 1.0), (0.05, 1.0), (0.4, 1.0), (0.001, 0.6), (0.4, 0.6)])
def test_short_cable_fixed_box_delivers_at_its_rating_corner(length, v2):
    # the winner has both end currents at the rating, a corner that the rating
    # circles put up to 4*eps*kappa^2 above it: these rows delivered under 1 MW
    # while 0.3 and 1 km delivered about 438.55 MW at 1.0 p.u.
    spec = ref_cable(length)
    _, pg, point = max_feasible_power(spec, Constraints().fixed_v2(v2))
    floor = _rating_floor(spec, point.operating_point.scaling.alpha, v2, 1055.0)
    assert max(abs(point.flow.i1), abs(point.flow.i2)) <= 1055.0 * (1.0 + floor)
    alphas, betas = rating_disk_grids(spec, v2, 1055.0)
    ref = best_pgrid_at_voltage(spec, v2, 1055.0, alphas=alphas, betas=betas)
    assert abs(pg - ref) <= (floor + 1e-8) * ref
    # a free box up to v2 takes a rating within that slack of v2 as v2 too, so
    # it scores the same corner and reads no less than the fixed box
    _, free_pg, free = max_feasible_power(spec, Constraints(v2_min=0.4 * v2, v2_max=v2))
    assert free_pg == pg and free.operating_point == point.operating_point


def test_max_power_with_farm_cap(cable200):
    pf, pg, _ = max_feasible_power(cable200, Constraints().fixed_v2(1.0), p_farm_cap=100e6)
    assert pf <= 100e6 * (1 + 1e-9)
    assert pg < pf


@pytest.mark.parametrize("cap,p_grid,beta_deg", [(6e6, -11.2107e6, -0.153), (7e6, -10.2092e6, -0.094),
                                                  (8.5e6, -8.7082e6, -0.006)])
def test_capped_box_that_operates_is_never_infeasible(cap, p_grid, beta_deg):
    # on 317 km a fixed 0.8 p.u. box injects at least about 5.74 MW, and it
    # injects so little only at beta < 0: the capped solve searches the whole
    # beta branch, as the production solve does, and finds that solve's point
    spec, box = ref_cable(317.0), Constraints().fixed_v2(0.8)
    pf, pg, point = max_feasible_power(spec, box, p_farm_cap=cap)
    assert pf <= cap * (1 + 1e-12)
    assert pg == pytest.approx(optimize_at_production(spec, cap, box).flow.p_grid, rel=1e-9)
    assert pg == pytest.approx(p_grid, rel=1e-5)
    assert point.operating_point.scaling.beta_deg == pytest.approx(beta_deg, abs=5e-4)


def test_cap_under_the_least_injection_is_infeasible():
    # the box operates from about 5.74 MW: the message names the cap, not the charging current
    spec, box = ref_cable(317.0), Constraints().fixed_v2(0.8)
    with pytest.raises(Infeasible, match=r"^no operating point at v2 in \[0\.8, 0\.8\] p\.u\. injects "
                                         r"at most the cap of 5\.000 MW; without the cap the box operates$"):
        max_feasible_power(spec, box, p_farm_cap=5e6)
    with pytest.raises(Infeasible):
        optimize_at_production(spec, 5e6, box)


@pytest.mark.parametrize("internal", [False, True])
def test_capped_delivery_meets_the_production_solve_at_its_cap(internal):
    # where the production solve injects exactly the cap, that point is one
    # the capped delivery solve may take: it finds a row, delivering no less
    rng = random.Random(71 + internal)
    cons = Constraints(check_internal_current=internal,
                       check_internal_voltage_max=1.0 if internal else None, n_profile_segments=8)
    rows = []
    for _ in range(30 if internal else 80):
        spec, lo = random_cable(rng), rng.uniform(0.3, 1.0)
        rows.append((spec, cons.with_v2_range(lo, rng.choice([lo, rng.uniform(lo, 1.0), 1.0])),
                     10.0 ** rng.uniform(6.0, 9.0)))
    at_cap = optimize_at_production_rows([(spec, cap, box) for spec, box, cap in rows])
    won = max_feasible_power_rows(rows)
    found = np.flatnonzero(at_cap.found)
    assert found.size > 15
    assert won.found[found].all()
    assert (won.p_grid[found] >= at_cap.p_grid[found] - 1e-9 * abs(at_cap.p_grid[found])).all()


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
    # the checks read the node forms, so the two profiles that build them are all
    assert len(profiles) == 2
    assert pg >= 355.917174e6      # reached by the earlier alpha search with beta bisection
    op = point.operating_point
    vph = spec.phase_voltage
    prof = segment_profile(spec, op.scaling.xi * op.v2 * vph, op.v2 * vph, 40)
    assert prof.max_voltage <= 0.98 * vph * (1 + 1e-12)
    assert prof.max_current <= 1055.0 * (1 + 1e-12)


def test_max_power_infeasible_for_overlong_cable_at_full_voltage():
    with pytest.raises(Infeasible, match="^charging current alone exceeds 1055 A at v2 = 1.0 p.u.;"):
        max_feasible_power(ref_cable(300.0), Constraints().fixed_v2(1.0))
    # an internal check on changes nothing where the box has no point without it
    with pytest.raises(Infeasible, match="^charging current alone exceeds 1055 A at v2 = 1.0 p.u.;"):
        max_feasible_power(ref_cable(300.0), Constraints(check_internal_current=True).fixed_v2(1.0))


@pytest.mark.parametrize("current,message", [
    (False, "fails the internal voltage (0.9 p.u.) check"),
    (True, "fails the internal current (1055 A) or voltage (0.9 p.u.) check"),
])
def test_empty_box_names_the_internal_checks_that_empty_it(current, message):
    # 200 km at 1.0 p.u. delivers 291.9 MW, but at every operating point some
    # node lies above the 0.9 p.u. internal cap
    spec, box = ref_cable(200.0), Constraints().fixed_v2(1.0)
    assert max_feasible_power(spec, box)[1] == pytest.approx(291.94e6, rel=1e-4)
    capped = replace(box, check_internal_current=current, check_internal_voltage_max=0.9)
    with pytest.raises(Infeasible) as exc:
        max_feasible_power(spec, capped)
    assert str(exc.value) == (f"every operating point at v2 in [1.0, 1.0] p.u. {message}; "
                              "without the internal checks the box operates")


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
    with pytest.raises(ValueError, match="^lengths and v2_values must be non-empty$"):
        transfer_envelope(spec, [], voltages)


def test_envelope_row_that_delivers_nothing_is_feasible_at_zero():
    # from 548.75 to 557.5 km the 0.4 p.u. box still carries the charging
    # current, but its best delivery is <= 0: a feasible row at 0, 0
    env = transfer_envelope(ref_cable(), [548.0, 550.0, 558.0], [0.4])
    (short, dead, long_), free = env.points, env.envelope
    assert short.feasible and short.p_grid_max > 0.0
    assert dead == EnvelopePoint(550.0, 0.4, 0.0, 0.0, feasible=True) == free[1]
    assert not long_.feasible


_DOMINANCE_GRID = (np.geomspace(0.05, 450.0, 120).tolist(), [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])


def rows_above_their_optimal_row(lengths, voltages):
    """The reference cable's envelope (fixed row, optimal row) pairs where the fixed row reads higher."""
    env = transfer_envelope(ref_cable(), lengths, voltages)
    return [(pt, best) for k, best in enumerate(env.envelope)
            for pt in env.points[k * len(voltages):(k + 1) * len(voltages)]
            if pt.p_grid_max > best.p_grid_max]


def test_fixed_voltage_rows_never_read_above_their_optimal_row():
    # the free box takes a rating within its 4*eps*kappa^2 slack of v2_max as
    # v2_max, as a fixed box does, so no fixed row reads above its length's
    # optimal row, not even by the slack (up to 1.1e-7 on the short cables)
    assert rows_above_their_optimal_row(*_DOMINANCE_GRID) == []


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the dispatch names are x86 ones")
def test_fixed_voltage_rows_never_read_above_their_optimal_row_under_baseline_dispatch():
    # on numpy's x86-64-v2 loops, at 0.0629 km the free winner and the fixed
    # 1.0 p.u. one lie 1-2 ulp apart in alpha and beta, and the solve's score
    # and the reported flow order the two oppositely: the optimal row takes
    # the best of its free row and the fixed rows in its box
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from test_optimizer import rows_above_their_optimal_row as above\n"
         "print(above(*json.loads(sys.argv[1])))", json.dumps(_DOMINANCE_GRID)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    cables, tp = _Rows([(spec, cons)]), exact_pi_two_port(spec)
    beta_floor, beta_cap = cables.beta_floor.item(), cables.beta_cap.item()
    i_max, vph = cons.rated_current(spec), spec.phase_voltage
    etas, delivered = [], []
    # both solves search the cable's whole beta branch
    for alpha in _grid(cons.alpha_min, cons.alpha_max):
        for beta in _grid(beta_floor, beta_cap):
            farm, grid, i1, i2 = unit_flow(tp, cmath.rect(alpha, beta))
            if farm > 0.0:
                v2 = math.sqrt(p / (3.0 * vph**2 * farm))
                if cons.v2_min <= v2 <= cons.v2_max and max(abs(i1), abs(i2)) * vph * v2 <= i_max:
                    etas.append(grid / farm)
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
    # caps under the least injection of their box, about 5.74 MW here: no row
    rows += [(ref_cable(317.0), cons.fixed_v2(0.8), cap) for cap in (1e6, 5e6)]
    rng.shuffle(rows)
    won = optimize_at_production_rows([(spec, p, box) for spec, box, p in rows])
    batched = [won.point(r) for r in range(len(rows))]
    for (spec, box, p), point in zip(rows, batched):
        _same_point(point, optimize_at_production_rows([(spec, p, box)]).point(0))
    assert any(point is None for point in batched) and any(point is not None for point in batched)
    won = max_feasible_power_rows(rows)
    batched = [won.point(r) for r in range(len(rows))]
    for (spec, box, cap), point in zip(rows, batched):
        _same_point(point, max_feasible_power_rows([(spec, box, cap)]).point(0))
    assert any(point is None for point in batched) and any(point is not None for point in batched)


def _bits(*values):
    """The float.hex of every part of values, NaN and None alike as nan: equal only bit for bit."""
    parts = [x for v in values for x in ((v.real, v.imag) if isinstance(v, complex) else (v,))]
    return [float.hex(math.nan if x is None else float(x)) for x in parts]


@pytest.mark.parametrize("kind", ["production", "uncapped", "capped"])
def test_row_flow_arrays_are_the_points_solve_flow(kind):
    # the flow arrays of the row API, and so Optima.point(r)'s flow, hold the
    # bits of solve_flow at the winner on every found row
    rng = random.Random({"production": 61, "uncapped": 62, "capped": 63}[kind])
    cons, rows = Constraints(), []
    for _ in range(12):
        spec = random_cable(rng).with_length(10.0 ** rng.uniform(-0.5, math.log10(400.0)))
        for _ in range(3):
            lo = rng.uniform(0.3, 1.0)
            rows.append((spec, cons.with_v2_range(lo, rng.choice([lo, rng.uniform(lo, 1.0), 1.0])),
                         10.0 ** rng.uniform(6.0, 9.0)))
    if kind == "production":
        won = optimize_at_production_rows([(spec, p, box) for spec, box, p in rows])
    else:
        won = max_feasible_power_rows([(spec, box, p if kind == "capped" else None)
                                       for spec, box, p in rows])
    found = np.flatnonzero(won.found).tolist()
    assert len(found) > 10
    for r in found:
        point = won.point(r)
        flow = solve_flow(rows[r][0], point.operating_point)
        assert _bits(*astuple(point.flow)) == _bits(*astuple(flow)), r
        got = _bits(complex(won.i1[0][r], won.i1[1][r]), complex(won.i2[0][r], won.i2[1][r]),
                    *(x[r] for x in (won.p_farm, won.q_farm, won.p_grid, won.q_grid, won.eta)))
        assert got == _bits(flow.i1, flow.i2, flow.p_farm, flow.q_farm, flow.p_grid, flow.q_grid,
                            flow.eta), r


def _ranked_tables(rng):
    """A random ranked candidate table: (ranked, count), each row's candidates by descending score.

    Its rows hold none, one or several candidates; a row's candidates mix
    ulp-level duplicates, chains of scores within TIE_TOL whose v2 or
    alpha falls or rises by about TIE_TOL, steps just past TIE_TOL and far
    drops.  beta, which the test's checks read, is drawn afresh for each.
    """
    tol = optimizer.TIE_TOL
    count = rng.choice([0, 1, 2, 3, 5, 8, 13], size=rng.integers(1, 30))
    rows = []
    for n in count.tolist():
        cand = [rng.uniform(0.9, 1.0), rng.choice([1.0, 1.05, 1.1]), 0.0, rng.uniform(0.4, 1.0)]
        row = []
        for _ in range(n):
            cand[2] = rng.uniform()
            row.append(list(cand))
            kind = rng.integers(4)
            if kind == 0:       # ulp-level duplicate, or the same point
                cand = [x if rng.integers(2) else np.nextafter(x, x + rng.choice([-1, 1]))
                        for x in cand]
            elif kind == 1:     # within TIE_TOL: a lower v2 or alpha may take over
                cand[0] -= rng.uniform(0.0, 1.2) * tol
                for j in (1, 3):
                    step = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0]) * rng.uniform(0.5, 1.5)
                    cand[j] += step * tol
            elif kind == 2:     # just past TIE_TOL
                cand[0] -= rng.uniform(0.9, 1.1) * tol
            else:
                cand[0] -= rng.uniform(0.0, 1e-3)
        row.sort(key=lambda c: -c[0])    # stable: the rank keeps the order of equal scores
        rows += row
    return np.array(rows, dtype=float).reshape(-1, 4).T.copy(), count


def test_walk_is_the_float_walk():
    # the array walk over random ranked tables gives, bit for bit, what
    # walking each row's candidates as floats through the scalar tie rule
    # gives, with and without checks that reject candidates and stop rows
    def fails(cand):
        return cand[2] < 0.3

    def stops(cand):
        return cand[2] < 0.1

    def check(live, cand, held, wins):
        going = np.ones(live.size, bool)
        for i in np.flatnonzero(wins).tolist():
            if fails(cand[:, i]):
                wins[i] = False
                going[i] = not (math.isnan(held[0, i]) and stops(cand[:, i]))
        return going

    rng = np.random.default_rng(2026)
    later = several = empty = 0
    for _ in range(400):
        ranked, count = _ranked_tables(rng)
        won = optimizer._walk(ranked, count)
        assert won.tobytes() == walked_winners(ranked, count).tobytes()
        assert (optimizer._walk(ranked, count, check).tobytes()
                == walked_winners(ranked, count, fails, stops).tobytes())
        first, has = np.cumsum(count) - count, count > 0
        later += int((won[:, has] != ranked[:, first[has]]).any(axis=0).sum())
        several += int((count > 1).sum())
        empty += int((count == 0).sum())
    # rows whose winner is a later candidate than their first, and rows with none
    assert later > 100 and several > 1000 and empty > 100


def test_passing_internal_checks_keep_the_walk_winners():
    # the walk with the internal-check bookkeeping on, where every check
    # passes, picks what the walk without it picks; one production row here
    # has a tie that the walk settles on a later candidate than the first
    rng = random.Random(42)
    specs = [random_cable(rng).with_length(rng.uniform(1.0, 400.0)) for _ in range(12)]
    rows = []
    for spec in specs:
        for _ in range(4):
            lo = rng.uniform(0.3, 1.0)
            rows.append((spec, Constraints(v2_min=lo, v2_max=rng.choice([lo, 1.0])),
                         10.0 ** rng.uniform(5.0, 9.0)))

    def winners(**checks):
        boxed = [(spec, replace(box, **checks), p) for spec, box, p in rows]
        return [np.array([w.found, w.alpha, w.beta, w.v2]) for w in (
            optimize_at_production_rows([(spec, p, box) for spec, box, p in boxed]),
            max_feasible_power_rows(boxed))]

    picked = winners()
    # a cap of 1000 p.u. no node reaches: every check passes
    for got, want in zip(picked, winners(check_internal_voltage_max=1000.0)):
        assert got.tobytes() == want.tobytes()
    assert all(found.any() and not found.all() for found, *_ in picked)


@pytest.mark.parametrize("internal", [False, True])
def test_infinite_farm_cap_finds_what_no_cap_finds(internal):
    # a cap of inf caps nothing: its rows have a winner exactly where the
    # rows without a cap do
    rng = random.Random(61 + internal)
    cons = Constraints(check_internal_current=internal,
                       check_internal_voltage_max=1.02 if internal else None, n_profile_segments=8)
    rows = []
    for _ in range(40 if internal else 160):
        spec = random_cable(rng).with_length(rng.uniform(1.0, 450.0))
        lo = rng.uniform(0.3, 1.0)
        rows.append((spec, cons.with_v2_range(lo, rng.choice([lo, rng.uniform(lo, 1.0), 1.0]))))
    capped = max_feasible_power_rows([(spec, box, math.inf) for spec, box in rows]).found
    uncapped = max_feasible_power_rows([(spec, box, None) for spec, box in rows]).found
    assert capped.tolist() == uncapped.tolist()
    assert uncapped.any() and not uncapped.all()


@pytest.mark.parametrize("capped", [False, True], ids=["uncapped", "capped"])
@pytest.mark.parametrize("checks", [{}, {"check_internal_current": True},
                                    {"check_internal_voltage_max": 0.95}],
                         ids=["no-check", "current-check", "voltage-check"])
def test_fixed_boxes_win_as_on_the_free_box_forms(checks, capped):
    # a fixed box is solved on its own short lists: one rating circle per end
    # current, one cap circle, one ratio.  Each row finds a winner where the
    # lists of a free box find one, free rows bit for bit.  A fixed row's
    # winner is bit for bit the same on most rows; on the others the long lists
    # met the same corner on more circles and kept the copy that rounded
    # highest, within 4*eps*kappa^2 of the rating circles' rounding
    rng = random.Random(19 + capped)
    cons = Constraints(n_profile_segments=12, **checks)
    rows = []
    for _ in range(40):     # 1-400 km log-uniform: a third below 10 km, where corners round worst
        spec = random_cable(rng).with_length(10.0 ** rng.uniform(0.0, math.log10(400.0)))
        lo = rng.uniform(0.4, 1.0)
        for box in (cons.fixed_v2(lo), cons.fixed_v2(1.0), cons.with_v2_range(lo, 1.0)):
            cap = rng.choice([math.inf, rng.uniform(10e6, 600e6)]) if capped else None
            rows.append((spec, box, cap))
    won, full = max_feasible_power_rows(rows), full_form_delivery(rows)
    assert won.found.tobytes() == full.found.tobytes()
    same = 0
    for r, (spec, box, _) in enumerate(rows):
        got, want = (np.array([x[r] for x in (o.alpha, o.beta, o.v2, o.p_farm, o.p_grid)])
                     for o in (won, full))
        if got.tobytes() == want.tobytes():
            same += 1
            continue
        assert box.v2_min == box.v2_max
        current = max(math.hypot(*(x[r] for x in won.i1)), math.hypot(*(x[r] for x in won.i2)))
        floor = _rating_floor(spec, won.alpha[r], won.v2[r], current)
        assert abs(got[4] - want[4]) <= floor * abs(want[4])
    assert same >= 0.9 * len(rows)
    fixed = np.array([box.v2_min == box.v2_max for _, box, _ in rows])
    assert won.found[fixed].sum() > 20 and not won.found[fixed].all()


_OPTIMA_ARRAYS = ("found", "alpha", "beta", "v2", "i1", "i2", "p_farm", "q_farm", "p_grid", "q_grid", "eta")


def _same_bits(won, r, want, s=0):
    """Row r of the Optima won holds row s of want's bits in every array."""
    for name in _OPTIMA_ARRAYS:
        got, other = np.asarray(getattr(won, name)), np.asarray(getattr(want, name))
        assert got[..., r].tobytes() == other[..., s].tobytes(), (r, name)


@pytest.mark.parametrize("checks", [{}, {"check_internal_current": True, "check_internal_voltage_max": 1.0}],
                         ids=["no-check", "checks"])
def test_rows_with_mixed_caps_match_one_row_calls(checks, solve_calls):
    # each delivery row's cap is its own: a row of None or inf has no cap
    # forms, so capped and uncapped rows, in fixed and free boxes, mix in one
    # call, which is one candidate solve, and each row finds the bits it finds alone
    rng = random.Random(83)
    cons = Constraints(n_profile_segments=8, **checks)
    rows = []
    for _ in range(15 if checks else 40):
        spec = random_cable(rng).with_length(10.0 ** rng.uniform(0.0, math.log10(450.0)))
        lo = rng.uniform(0.3, 1.0)
        for box in (cons.fixed_v2(lo), cons.with_v2_range(lo, 1.0)):
            rows.append((spec, box, rng.choice([None, math.inf, 10.0 ** rng.uniform(6.0, 9.0)])))
    won = max_feasible_power_rows(rows)
    assert len(solve_calls) == 1
    for r, row in enumerate(rows):
        _same_bits(won, r, max_feasible_power_rows([row]))
    caps = [cap for _, _, cap in rows]
    assert None in caps and math.inf in caps and any(cap not in (None, math.inf) for cap in caps)
    assert won.found.any() and not won.found.all()


@pytest.mark.parametrize("checks", [{}, {"check_internal_current": True},
                                    {"check_internal_voltage_max": 0.95}],
                         ids=["no-check", "current-check", "voltage-check"])
def test_fixed_production_boxes_win_as_with_both_v2_circles(checks):
    # a fixed box (v2_min = v2_max) states its one v2 level with one circle;
    # its second circle, alike, only doubled every candidate on it
    rng = random.Random(29)
    cons = Constraints(n_profile_segments=12, **checks)
    rows = []
    for _ in range(40):
        spec = random_cable(rng).with_length(10.0 ** rng.uniform(0.0, math.log10(400.0)))
        for v2 in (rng.uniform(0.4, 1.0), 1.0):
            rows.append((spec, 10.0 ** rng.uniform(6.0, 9.0), cons.fixed_v2(v2)))
    won, want = optimize_at_production_rows(rows), two_circle_production(rows)
    for r in range(len(rows)):
        _same_bits(won, r, want, r)
    assert won.found.sum() > 20 and not won.found.all()


def test_current_check_keeps_a_short_cable_fixed_box_at_its_rating_corner():
    # on a short cable the node currents peak within about 1e-6 of the end
    # currents, so the current check costs little delivery; its nodes pass
    # within their forms' rounding, by which the rating corner and the points
    # of the cut circles exceed the limit: without that, rows here lost
    # up to 99 % of their delivery
    rng = random.Random(5)
    rows = []
    for _ in range(60):
        spec = random_cable(rng).with_length(10.0 ** rng.uniform(0.0, 1.0))
        rows += [(spec, Constraints().fixed_v2(v2), None) for v2 in (rng.uniform(0.4, 1.0), 1.0)]
    plain = max_feasible_power_rows(rows)
    checked = max_feasible_power_rows([(spec, replace(box, check_internal_current=True), cap)
                                       for spec, box, cap in rows])
    assert checked.found.tolist() == plain.found.tolist() and plain.found.sum() > 60
    found = plain.found
    assert (checked.p_grid[found] >= plain.p_grid[found] * (1 - 1e-5)).all()


def test_rows_may_differ_in_their_cable_and_v2_box_only(cable200):
    rows = [(cable200, 100e6, Constraints()), (cable200, 100e6, Constraints(alpha_max=1.05))]
    with pytest.raises(ValueError):
        optimize_at_production_rows(rows)
    # and a delivery row in its cap: capped and uncapped rows mix
    assert max_feasible_power_rows([(cable200, Constraints(), None), (cable200, Constraints(), 50e6)]
                                   ).found.all()
    for cap in (0.0, -1.0):
        with pytest.raises(ValueError, match="^p_farm_cap must be > 0 W"):
            max_feasible_power_rows([(cable200, Constraints(), cap)])
    with pytest.raises(ValueError):
        optimize_at_production_rows([])
    with pytest.raises(ValueError):
        max_feasible_power_rows([])
    # a different cable, v2 box or cable rating is fine; a different override is not
    rows = [(cable200, 100e6, Constraints()), (ref_cable(80.0), 100e6, Constraints(v2_min=0.9)),
            (replace(cable200, rated_current=700.0), 100e6, Constraints())]
    assert optimize_at_production_rows(rows).found.all()
    with pytest.raises(ValueError):
        optimize_at_production_rows(rows + [(cable200, 100e6, Constraints(i_rated=900.0))])
    with pytest.raises(ValueError):
        max_feasible_power_rows([(cable200, Constraints(), None),
                                 (cable200, Constraints(check_internal_current=True), None)])


def test_envelope_and_sweep_are_one_solve_each(solve_calls, capsys):
    # the envelope's fixed-voltage and free rows are at most one delivery solve,
    # and none where every row is certified or ruled out: here only the 420 km
    # free row, whose winner lies where alpha_max meets its rating at v2_min,
    # goes to the candidate solve
    calls = solve_calls
    env = transfer_envelope(ref_cable(), [60.0, 150.0, 240.0, 330.0, 420.0], [1.0, 0.8, 0.6, 0.4])
    assert len(calls) == 1
    assert len(env.points) == 20 and len(env.envelope) == 5
    assert [pt.length_km for pt in env.envelope] == [60.0, 150.0, 240.0, 330.0, 420.0]
    calls.clear()
    assert main(["sweep", "--voltages", "0.6,1.0", "--optimal-range", "0.4", "1.0"]) == 0
    assert len(calls) == 1
    assert len(capsys.readouterr().out.splitlines()) > 3 * 30


def _wide_box_rows(rng):
    """12 production and 12 delivery rows that share one wide alpha box, rating override and check."""
    a_lo = rng.uniform(0.2, 2.0)
    checks = rng.choice([{}, {"check_internal_current": True},
                         {"check_internal_voltage_max": rng.uniform(0.9, 1.3)}])
    cons = Constraints(alpha_min=a_lo, alpha_max=rng.choice([a_lo, rng.uniform(a_lo, 5.0)]),
                       i_rated=rng.choice([None, 10.0 ** rng.uniform(2.0, 6.0)]), n_profile_segments=8,
                       **checks)
    production, delivery = [], []
    for _ in range(12):
        # log-uniform 0.05-1000 km, or 700-1000 km, where winners on a ray lie
        length = rng.choice([10.0 ** rng.uniform(math.log10(0.05), 3.0), rng.uniform(700.0, 1000.0)])
        spec = rng.choice([random_cable(rng), ref_cable()]).with_length(length)
        lo = rng.uniform(0.3, 1.0)
        box = rng.choice([cons.fixed_v2(lo), cons.with_v2_range(lo, rng.uniform(lo, 1.2))])
        production.append((spec, 10.0 ** rng.uniform(5.0, 10.0), box))
        delivery.append((spec, box, rng.choice([None, 10.0 ** rng.uniform(5.0, 10.0)])))
    return production, delivery


def test_rows_that_drop_their_window_rays_win_as_with_them(monkeypatch):
    # a box solve traces the window rays only for the rows where the least end
    # current on them, at v2_min, is within the rating (_Rows.rays).  On the
    # others no ray point is feasible, so every winner keeps its bits against
    # the same solve with every row keeping its rays.  Wide alpha boxes,
    # rating overrides and 700-1000 km cables put some winners on a ray
    rng = random.Random(26)
    trials = [_wide_box_rows(rng) for _ in range(60)]
    solves = (optimize_at_production_rows, max_feasible_power_rows)
    got = [[solve(rows) for solve, rows in zip(solves, trial)] for trial in trials]
    monkeypatch.setattr(optimizer, "_least_abs", lambda *args: 0.0)     # ray_i = 0: rays everywhere
    tally = {solve: np.zeros(4, int) for solve in solves}
    for trial, wons in zip(trials, got):
        for solve, rows, won in zip(solves, trial, wons):
            want = solve(rows)
            assert want.cables.rays.all()
            for name in _OPTIMA_ARRAYS:
                assert np.asarray(getattr(won, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()
            kept, cables = won.cables.rays, won.cables
            on_ray = won.found & ((won.beta == cables.beta_floor) | (won.beta == cables.beta_cap))
            tally[solve] += [kept.sum(), (~kept).sum(), (won.found & ~kept).sum(), (on_ray & kept).sum()]
            assert not (on_ray & ~kept).any()
    # per solve: rows that keep their rays, rows that drop them, dropping rows
    # that find a winner, and winners on a ray
    for kept, dropped, found, on_ray in tally.values():
        assert kept > 50 and dropped > 300 and found > 50 and on_ray > 0


def test_ray_current_bound_is_below_the_end_currents_on_the_rays():
    # ray_i is at most the larger end current anywhere on either window ray
    # xi = t*e^{j*beta}, t in the alpha box, here at 200 points of each ray
    rng = random.Random(261)
    for _ in range(40):
        a_lo = rng.uniform(0.2, 2.0)
        a_hi = rng.choice([a_lo, rng.uniform(a_lo, 5.0)])
        spec = rng.choice([random_cable(rng), ref_cable()]).with_length(
            10.0 ** rng.uniform(math.log10(0.05), 3.0))
        cables = _Rows([(spec, Constraints(alpha_min=a_lo, alpha_max=a_hi))])
        least = min(max(abs(flow.i1), abs(flow.i2)) for beta in (cables.beta_floor[0], cables.beta_cap[0])
                    for t in np.linspace(a_lo, a_hi, 200).tolist()
                    for flow in [solve_flow(spec, OperatingPoint(1.0, VoltageScaling(t, beta)))])
        bound = cables.ray_i[0] * spec.phase_voltage
        assert bound * bound <= least * least
        assert bound >= 0.9 * least     # and no vacuous bound


def _certificate_rows(rng):
    """Production rows on 12 cables that share a default or a wide alpha box and rating.

    Per cable, one row at a random production; then, with v2* the v2 at
    which the alpha box's eta optimum injects it, six rows at v2* random in
    [v2_min/2, 1.5*v2_max] and the rows at v2* = v2_min and v2_max, each
    times (1 +- e), e in (0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3).  Without a
    rating override, 16 winners of those rows each give four more rows, on
    the cable rated at the winner's larger end current times (1 + e), e in
    (1e-9, 1e-7, 1e-5, -1e-7).  The near-edge rows are those with |e| <= 1e-7.
    """
    wide = rng.random() < 0.5
    a_lo = rng.uniform(0.2, 2.0) if wide else 1.0
    cons = Constraints(alpha_min=a_lo, alpha_max=rng.choice([a_lo, rng.uniform(a_lo, 5.0)]) if wide else 1.1,
                       i_rated=rng.choice([None, 10.0 ** rng.uniform(2.0, 6.0)]) if wide else None)
    rows, near = [], []
    for _ in range(12):
        length = rng.choice([10.0 ** rng.uniform(math.log10(0.05), 3.0), rng.uniform(700.0, 1000.0)])
        spec = rng.choice([random_cable(rng), ref_cable()]).with_length(length)
        lo = rng.uniform(0.3, 1.0)
        box = rng.choice([cons.fixed_v2(lo), cons.with_v2_range(lo, rng.uniform(lo, 1.2))])
        rows.append((spec, 10.0 ** rng.uniform(5.0, 10.0), box))
        near.append(False)
        try:
            scaling, _ = optimize_scaling_unconstrained(spec, (cons.alpha_min, cons.alpha_max))
        except Infeasible:
            continue
        c = solve_flow(spec, OperatingPoint(1.0, scaling)).p_farm
        for _ in range(6):
            rows.append((spec, c * rng.uniform(0.5 * box.v2_min, 1.5 * box.v2_max) ** 2, box))
            near.append(False)
        for v2 in (box.v2_min, box.v2_max):
            for e in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7, 1e-5, -1e-5, 1e-3, -1e-3):
                rows.append((spec, c * v2 * v2 * (1.0 + e), box))
                near.append(abs(e) <= 1e-7)
    if cons.i_rated is None:
        won = two_circle_production(rows)
        found = np.flatnonzero(won.found).tolist()
        for r in rng.sample(found, min(16, len(found))):
            spec, p, box = rows[r]
            current = max(math.hypot(*(float(x[r]) for x in i)) for i in (won.i1, won.i2))
            for e in (1e-9, 1e-7, 1e-5, -1e-7):
                rows.append((replace(spec, rated_current=current * (1.0 + e)), p, box))
                near.append(abs(e) <= 1e-7)
    return rows, np.array(near)


def test_certified_production_winners_are_the_enumeration_winners(monkeypatch):
    # optimize_at_production_rows certifies most winners in closed form, the
    # pencil optimum xi* or the top of eta along a v2 circle, and enumerates
    # candidates only for the rows it declines.  Each row finds the bits of
    # the full enumeration, here with both v2 circles on every row.  The
    # productions that put xi* on or near a v2 bound test the tie margins
    rng = random.Random(27)
    certified, certify = [], optimizer._certified

    def spy(*args):
        best = certify(*args)
        certified.append(best.copy())
        return best
    monkeypatch.setattr(optimizer, "_certified", spy)
    tally = np.zeros(3, int)
    for _ in range(12):
        rows, near = _certificate_rows(rng)
        won, want = optimize_at_production_rows(rows), two_circle_production(rows)
        for name in _OPTIMA_ARRAYS:
            assert np.asarray(getattr(won, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), name
        sure, cables = ~np.isnan(certified[-1][0]), won.cables
        bound = (abs(won.v2 / cables.lo - 1.0) < 1e-12) | (abs(won.v2 / cables.hi - 1.0) < 1e-12)
        # certified at xi*, certified on a v2 circle, and near-edge rows declined that have a winner
        tally += [(sure & ~bound).sum(), (sure & bound).sum(), (near & won.found & ~sure).sum()]
    assert (tally > 40).all(), tally


def test_certificate_keeps_the_bits_of_the_candidate_solve(monkeypatch):
    # _certified settles a production row in closed form, with or without
    # internal checks, and declines a certified point that fails a check.
    # Every row keeps the bits it finds with the certificate declining every
    # row, where the candidate solve takes them all.  The rows are those of
    # _certificate_rows, alone and under each check
    rng = random.Random(28)
    certify, tally = optimizer._certified, np.zeros(2, int)

    def spy(cables, *args):
        internal, cables.internal = cables.internal, False
        unchecked = certify(cables, *args)
        cables.internal = internal
        best = certify(cables, *args)
        sure = ~np.isnan(best[0])
        # certified rows with checks, and certified points declined for failing one
        tally[:] += [(sure & internal).sum(), (~np.isnan(unchecked[0]) & ~sure).sum()]
        return best
    trials = []
    for _ in range(8):
        rows, _ = _certificate_rows(rng)
        for checks in ({}, {"check_internal_current": True}, {"check_internal_voltage_max": 0.9},
                       {"check_internal_voltage_max": 1.0}):
            trials.append([(spec, p, replace(box, **checks)) for spec, p, box in rows])
    monkeypatch.setattr(optimizer, "_certified", spy)
    got = [optimize_at_production_rows(rows) for rows in trials]
    monkeypatch.setattr(optimizer, "_certified", lambda cables, *args: np.full((4, len(cables)), np.nan))
    for rows, won in zip(trials, got):
        want = optimize_at_production_rows(rows)
        for name in _OPTIMA_ARRAYS:
            assert np.asarray(getattr(won, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), name
    assert (tally > 0).all(), tally


def _delivery_certificate_rows(rng):
    """Uncapped delivery rows on 10 cables that share a default or a wide alpha box, rating and checks.

    Per cable, 0.05-1000 km, 80-420 km or 700-1000 km, where winners on a
    window ray lie, a fixed box, a free box and a fixed box at a
    random v2; then, with each row's winner of the candidate solve, rows
    that put it 1 +- e, e in (1e-12, 1e-9, 1e-7, 1e-5), from a second bound:
    the cable rated at the winner's larger end current times 1 + e (without
    a rating override) and a free box's v2_max at the winner's v2 times 1 + e.
    """
    wide = rng.random() < 0.5
    a_lo = rng.uniform(0.2, 2.0) if wide else 1.0
    cons = Constraints(alpha_min=a_lo, alpha_max=rng.choice([a_lo, rng.uniform(a_lo, 5.0)]) if wide else 1.1,
                       i_rated=rng.choice([None, 10.0 ** rng.uniform(2.0, 6.0)]) if wide else None,
                       n_profile_segments=8, **rng.choice([{}, {}, {"check_internal_current": True},
                                                           {"check_internal_voltage_max": 0.9}]))
    rows = []
    for _ in range(10):
        length = rng.choice([10.0 ** rng.uniform(math.log10(0.05), 3.0), rng.uniform(80.0, 420.0),
                             rng.uniform(700.0, 1000.0)])
        spec = rng.choice([random_cable(rng), ref_cable()]).with_length(length)
        lo = rng.uniform(0.3, 1.0)
        rows += [(spec, box, None) for box in (cons.fixed_v2(lo), cons.with_v2_range(lo, rng.uniform(lo, 1.2)),
                                               cons.fixed_v2(rng.uniform(0.3, 1.2)))]
    won = max_feasible_power_rows(rows)
    for r in np.flatnonzero(won.found).tolist():
        spec, box, _ = rows[r]
        current = max(math.hypot(*(float(x[r]) for x in i)) for i in (won.i1, won.i2))
        for e in rng.sample([1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7, 1e-5, -1e-5], 3):
            if box.i_rated is None:
                rows.append((replace(spec, rated_current=current * (1.0 + e)), box, None))
            if box.v2_min < float(won.v2[r]) * (1.0 + e) and box.v2_min < box.v2_max:
                rows.append((spec, box.with_v2_range(box.v2_min, float(won.v2[r]) * (1.0 + e)), None))
    return rows


def _delivery_kind(won, r):
    """The kind of row r's winner: which of alpha_max, the v2_max level and the ratings it lies on."""
    cables = won.cables

    def on(x, y, tol=1e-9):
        return abs(x / y - 1.0) < tol
    fixed = cables.lo[r] == cables.hi[r]
    alpha = on(won.alpha[r], cables.cons.alpha_max)
    # a short cable's end currents round to about 1e-9 relative
    rated = [on(math.hypot(*(float(x[r]) for x in i)), cables.i_rated[r], 1e-6) for i in (won.i1, won.i2)]
    if fixed:
        return ("fixed", "alpha_max" if alpha else "", "both ratings" if all(rated) else
                "a rating" if any(rated) else "")
    return ("free", "alpha_max" if alpha else "", "v2_max" if on(won.v2[r], cables.hi[r]) else "current")


def test_certified_delivery_winners_are_the_enumeration_winners(monkeypatch):
    # max_feasible_power_rows rules out rows whose least larger end current
    # over the box exceeds the rating, certifies most winners in closed form
    # (optimizer._delivered) and enumerates candidates only for the rows it
    # declines.  Each row finds the bits of the enumeration with the
    # certificate off, and a ruled-out row finds nothing there.  The rows
    # whose winner lies 1 +- e from a second bound test the tie margins
    rng = random.Random(29)
    trials = [_delivery_certificate_rows(rng) for _ in range(40)]
    delivered, ruled = optimizer._delivered, optimizer._ruled_out
    seen = []

    def spy_delivered(cables, rows, *args):
        best = delivered(cables, rows, *args)
        seen[-1][0][rows[~np.isnan(best[0])]] = True
        return best

    def spy_ruled(cables, rows):
        out = ruled(cables, rows)
        seen[-1][1][rows[out]] = True
        return out
    monkeypatch.setattr(optimizer, "_delivered", spy_delivered)
    monkeypatch.setattr(optimizer, "_ruled_out", spy_ruled)
    got = []
    for rows in trials:
        seen.append((np.zeros(len(rows), bool), np.zeros(len(rows), bool)))
        got.append(max_feasible_power_rows(rows))
    monkeypatch.setattr(optimizer, "_delivered", lambda cables, rows, *args: np.full((4, rows.size), np.nan))
    monkeypatch.setattr(optimizer, "_ruled_out", lambda cables, rows: np.zeros(rows.size, bool))
    kinds, n_ruled = {}, 0
    for rows, won, (sure, out) in zip(trials, got, seen):
        want = max_feasible_power_rows(rows)
        for name in _OPTIMA_ARRAYS:
            assert np.asarray(getattr(won, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), name
        assert not want.found[out].any()
        n_ruled += out.sum()
        for r in np.flatnonzero(sure).tolist():
            kind = _delivery_kind(won, r)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert n_ruled > 200, n_ruled
    # the fixed boxes' tops of g along a rating circle, where alpha_max or the other rating meets
    # it, and the top along alpha_max; the free boxes' winners at v2_max, on alpha_max below it
    # and inside the box below it
    for kind in [("fixed", "", "a rating"), ("fixed", "alpha_max", "a rating"), ("fixed", "", "both ratings"),
                 ("fixed", "alpha_max", ""), ("free", "", "v2_max"), ("free", "alpha_max", "current"),
                 ("free", "", "current")]:
        assert kinds.get(kind, 0) > 10, (kind, kinds)


def test_least_current_bounds_the_box_and_rules_out_the_infeasible_envelope_rows(monkeypatch):
    # _least_current is at most the larger end current anywhere on a dense
    # (alpha, beta) grid of the box, and close to its least there on cables
    # long enough for the currents' rounding to be small
    rng = random.Random(291)
    for _ in range(40):
        a_lo = rng.choice([1.0, rng.uniform(0.2, 2.0)])
        a_hi = rng.choice([a_lo, 1.1 * a_lo, rng.uniform(a_lo, 5.0)])
        spec = rng.choice([random_cable(rng), ref_cable()]).with_length(
            rng.choice([10.0 ** rng.uniform(math.log10(0.05), 3.0), rng.uniform(700.0, 1000.0)]))
        cables = _Rows([(spec, Constraints(alpha_min=a_lo, alpha_max=a_hi))])
        a, b = cables.a[0], cables.b[0]
        alpha, beta = np.linspace(a_lo, a_hi, 201), np.linspace(cables.beta_floor[0], cables.beta_cap[0], 2001)
        for _ in range(2):      # the grid, then a finer one around its least, for a cone's sharp least
            xi = alpha[:, None] * np.exp(1j * beta)
            larger = np.maximum(abs(a * xi + b), abs(b * xi + a))
            i, j = np.unravel_index(larger.argmin(), larger.shape)
            least = larger[i, j]
            alpha = np.linspace(alpha[max(i - 2, 0)], alpha[min(i + 2, alpha.size - 1)], 401)
            beta = np.linspace(beta[max(j - 2, 0)], beta[min(j + 2, beta.size - 1)], 401)
        with np.errstate(all="ignore"):     # NaN marks what does not exist
            bound = optimizer._least_current(cables)[0]
        assert bound <= least
        # and no vacuous bound where the currents' rounding, 16*eps*(|a|*alpha + |b|)^2, is small
        assert spec.length_km < 10.0 or bound >= 0.95 * least
    # it rules out every fixed row of the README envelope that the candidate solve finds infeasible
    spec, cons = ref_cable(), Constraints()
    rows = [(spec.with_length(length), cons.fixed_v2(v2), None) for length in np.arange(100.0, 401.0, 10.0)
            for v2 in (1.0, 0.8, 0.6, 0.4)]
    with np.errstate(all="ignore"):
        out = optimizer._ruled_out(_Rows([row[:2] for row in rows]), np.arange(len(rows)))
    monkeypatch.setattr(optimizer, "_ruled_out", lambda cables, rows: np.zeros(rows.size, bool))
    monkeypatch.setattr(optimizer, "_delivered", lambda cables, rows, *args: np.full((4, rows.size), np.nan))
    found = max_feasible_power_rows(rows).found
    assert out.sum() == (~found).sum() > 20
    assert (out == ~found).all()


# ---------------------------------------------------------------------------
# the certificates' geometry and the enumeration's ratio columns

def _disk_points(gen, c, r2, m=400):
    """m points of the disk |x - c|^2 <= r2, half of them on its circle."""
    r = math.sqrt(r2) * np.concatenate([np.ones(m // 2), np.sqrt(gen.uniform(size=m - m // 2))])
    return c + r * np.exp(2j * np.pi * gen.uniform(size=m))


def _farthest(points):
    """The largest distance between two of the complex points, 0 for fewer than two."""
    return abs(points[:, None] - points[None, :]).max() if points.size > 1 else 0.0


@np.errstate(invalid="ignore")      # the bounds take the square root of a chord's square < 0, and drop it
def test_certificate_sets_lie_within_their_diameter_bounds():
    # the delivery certificate bounds the meets of its convex sets by _cap (a disk
    # cut by a half-plane), _lens (two disks) and _triangle (three lines, from the
    # point they hold), with the disks of their forms from _disk: no two sampled
    # points of a set lie farther apart than its bound, nor, in a triangle, farther
    # from the point than its corners
    gen = np.random.default_rng(31)
    tally = np.zeros(4, int)
    for _ in range(200):
        q2, c0, r0 = gen.uniform(0.1, 10.0), complex(*gen.normal(size=2)), gen.uniform(0.01, 2.0)
        c, r2 = optimizer._disk((q2, -2.0 * q2 * np.conj(c0), q2 * (abs(c0) ** 2 - r0 * r0)))
        assert abs(c - c0) <= 1e-12 * (1.0 + abs(c0)) and abs(r2 - r0 * r0) <= 1e-12 * (1.0 + abs(c0) ** 2)
        disk = _disk_points(gen, c, r2)
        # a half-plane Re(conj(n)*x) >= h through the disk, or past it
        n = complex(*gen.normal(size=2))
        h = (np.conj(n) * c).real + abs(n) * math.sqrt(r2) * gen.uniform(-1.2, 1.2)
        cap = disk[(np.conj(n) * disk).real >= h]
        assert _farthest(cap) <= optimizer._cap(c, r2, n, h) * (1 + 1e-12)
        # a second disk that meets the first, or holds it, or lies inside it
        c2 = c + complex(*gen.normal(size=2)) * math.sqrt(r2)
        r22 = (gen.uniform(0.1, 2.0) * math.sqrt(r2)) ** 2
        lens = np.concatenate([disk[abs(disk - c2) ** 2 <= r22], (x := _disk_points(gen, c2, r22))[
            abs(x - c) ** 2 <= r2]])
        assert _farthest(lens) <= optimizer._lens(c, r2, c2, r22) * (1 + 1e-12)
        tally[:2] += cap.size > 1, lens.size > 1
        # three lines Re(conj(n_k)*x) <= d_k, d_k >= 0, around the point 0
        normal = np.exp(1j * gen.uniform(0.0, 2.0 * np.pi, 3))
        d = gen.uniform(0.0, 1.0, 3)
        far = optimizer._triangle(np.conj(normal) * np.roll(normal, -1), d)
        if np.isnan(far):   # no triangle: a direction leaves every half-plane
            u = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 3601))
            assert ((np.conj(normal[:, None]) * u).real <= 1e-3).all(axis=0).any()
            tally[3] += 1
            continue
        x = far * (gen.uniform(-3.0, 3.0, 20000) + 1j * gen.uniform(-3.0, 3.0, 20000))
        inside = x[((np.conj(normal[:, None]) * x).real <= d[:, None]).all(axis=0)]
        assert abs(inside).max(initial=0.0) <= far * (1 + 1e-12)
        tally[2] += 1
    assert (tally > 30).all(), tally


def test_disk_test_declines_every_disk_that_crosses_a_bound():
    # _clear passes a disk only where no sampled point of it lies inside the
    # alpha_min disk, outside the beta window or across a counted circle of
    # avoid, and _meets marks every circle a sampled point crosses.  Disks
    # of radius up to alpha and windows over 1 rad each side: a disk with
    # rho >= alpha/2 passes where the window test holds
    gen = np.random.default_rng(32)
    rows, a_lo = 3000, 0.8
    a, b = gen.uniform(0.5, 4.0, rows), gen.uniform(-1.5, 1.5, rows)
    x = a * np.exp(1j * b)
    rho = a * np.where(gen.uniform(size=rows) < 0.25, gen.uniform(0.5, 0.9, rows),
                       10.0 ** gen.uniform(-4.0, 0.0, rows))
    w_lo, w_hi = b - gen.uniform(0.0, 2.0, rows), b + gen.uniform(0.0, 2.0, rows)
    # circles, of either sign, and lines, each passing within a few rho of x
    q2 = gen.choice([-1.0, 0.0, 1.0, 5.0], (rows, 3))
    z = x[:, None] + rho[:, None] * 3.0 * np.exp(2j * np.pi * gen.uniform(size=(rows, 3)))
    radius = abs(x[:, None] - z) + rho[:, None] * gen.uniform(-3.0, 3.0, (rows, 3))
    line = np.exp(2j * np.pi * gen.uniform(size=(rows, 3)))
    w = np.where(q2 != 0.0, -2.0 * q2 * np.conj(z), line)
    q0 = np.where(q2 != 0.0, q2 * (abs(z) ** 2 - radius * radius),
                  -(line * x[:, None]).real + rho[:, None] * gen.uniform(-3.0, 3.0, (rows, 3)))
    counted = gen.uniform(size=(rows, 3)) < 0.8
    with np.errstate(all="ignore"):
        ok = optimizer._clear((q2, w, q0), counted, x, a, b, rho, a_lo, w_lo, w_hi)
        meets = optimizer._meets((q2, w, q0), x, a, rho)
    y = x[:, None] + rho[:, None] * np.concatenate([np.exp(2j * np.pi * np.arange(64) / 64),
                                                   _disk_points(gen, 0.0, 1.0, 64)])[None, :]
    values = q2[..., None] * abs(y[:, None]) ** 2 + (w[..., None] * y[:, None]).real + q0[..., None]
    centre = q2 * abs(x[:, None]) ** 2 + (w * x[:, None]).real + q0
    crosses = (np.sign(values) != np.sign(centre)[..., None]).any(axis=2)
    assert meets[crosses].all()
    inside = (abs(y) > a_lo) & (w_lo[:, None] <= np.angle(y)) & (np.angle(y) <= w_hi[:, None])
    assert inside[ok].all()
    assert not (crosses & counted)[ok].any()
    assert ok.sum() > 300 and (~ok & (crosses & counted).any(axis=1)).sum() > 300, (ok.sum(), crosses.sum())
    assert (~ok & ~inside.all(axis=1)).sum() > 300
    big = ok & (rho >= 0.5 * a)
    assert big.sum() > 10 and inside[big].all(), big.sum()


def test_production_certificate_declines_an_optimum_beyond_alpha_max(monkeypatch):
    # the 200 km cable's pencil optimum xi* lies at alpha 1.0313, beyond an alpha box
    # [0.95, 1.0] by far more than its disk's radius; the disk meets no circle there,
    # so only the certificate's own alpha_max test declines it (_meets cannot tell
    # on which side of a circle the disk lies).  The winner then lies on alpha_max;
    # in a box that holds xi*, the certificate takes xi*
    certify, seen = optimizer._certified, []
    monkeypatch.setattr(optimizer, "_certified", lambda *args: seen.append(certify(*args)) or seen[-1].copy())
    spec = ref_cable()
    for a_hi in (1.0, 1.1):
        rows = [(spec, p, Constraints(alpha_min=0.95, alpha_max=a_hi)) for p in (100e6, 150e6, 200e6)]
        won = optimize_at_production_rows(rows)
        assert won.found.all()
        if a_hi == 1.0:
            assert np.isnan(seen[-1][0]).all()
            assert (abs(won.alpha - 1.0) < 1e-12).all()
        else:
            assert not np.isnan(seen[-1][0]).any()
            assert won.alpha == pytest.approx(OPT_ALPHA, abs=1e-9)


def test_ratio_columns_keep_the_bits_of_their_own_columns():
    # _points takes each form the ratios use once, and a ratio names its numerator
    # and denominator by column: a form shared by several ratios, here as a numerator
    # and as a denominator, gives the bits that the same form repeated as each
    # ratio's own column gives, with the window rays traced or not
    rng = random.Random(33)
    specs = [rng.choice([random_cable(rng), ref_cable()]).with_length(10.0 ** rng.uniform(-1.0, 3.0))
             for _ in range(40)]
    cables = _Rows([(spec, Constraints(alpha_min=0.9, alpha_max=1.3)) for spec in specs])
    g, one, c1, c2 = cables.grid, cables.one, cables.cur1, cables.cur2
    level = (cables.i_rated / (cables.vph * 0.8)) ** 2
    circles = [(1.0, 0j, -0.81), (1.0, 0j, -1.69), optimizer._sub(c1, c2)]
    circles += [optimizer._sub(cur, one, level) for cur in (c1, c2)]
    ratios = [(g, one), (g, c1), (c1, one), (g, c2), (c2, one)]
    shared = optimizer._stack(circles + [g, one, c1, c2], len(specs))
    own = optimizer._stack(circles + [num for num, _ in ratios] + [den for _, den in ratios], len(specs))
    window = (cables.beta_floor, cables.beta_cap)
    by_form = np.array([(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)])
    by_ratio = np.array([(j, 5 + j) for j in range(5)])
    for rays in (np.zeros(len(specs), bool), np.array([rng.random() < 0.5 for _ in specs])):
        with np.errstate(all="ignore"):
            got = _points(shared, len(circles), by_form, *window, rays)
            want = _points(own, len(circles), by_ratio, *window, rays)
        assert got[0].size > 1000
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()


def test_solve_finds_the_same_bits_for_shared_and_copied_ratio_forms():
    # _solve stacks each ratio form once, told apart by identity: a free delivery
    # box whose ratios share their form objects finds the bits it finds where
    # every ratio holds its own equal copies
    rng = random.Random(34)
    rows = []
    for _ in range(30):
        spec = rng.choice([random_cable(rng), ref_cable()]).with_length(10.0 ** rng.uniform(-1.0, 3.0))
        lo = rng.uniform(0.3, 1.0)
        rows.append((spec, Constraints().with_v2_range(lo, rng.uniform(lo, 1.2))))
    cables = _Rows(rows)
    g, one, curs = cables.grid, cables.one, (cables.cur1, cables.cur2)
    bounds = [optimizer._sub(*curs)] + [optimizer._sub(cur, one, (cables.i_rated / (cables.vph * v2)) ** 2)
                                        for cur in curs for v2 in (cables.lo, cables.hi)]
    ratios = [(g, one)] + [(num, den) for cur in curs for num, den in ((g, cur), (cur, one))]
    pieces = [(v2 * v2, one) for v2 in (cables.lo, cables.hi)] + [(cables.i_rated2 / cables.vph2, cur)
                                                                   for cur in curs]
    copied = [tuple(tuple(np.copy(x) for x in form) for form in pair) for pair in ratios]
    point = optimizer._delivery_point(cables, np.full(len(rows), np.inf))
    window = (cables.beta_floor, cables.beta_cap)
    with np.errstate(all="ignore"):
        got, want = (optimizer._solve(cables, window, bounds, r, point, pieces) for r in (ratios, copied))
    assert np.isfinite(got[0]).sum() > 20
    assert got.tobytes() == want.tobytes()
