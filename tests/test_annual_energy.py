"""Duration curves, synthetic generation and annual strategy evaluation."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cableopt import (
    ConfigError,
    Constraints,
    FixedVoltage,
    Infeasible,
    VoltageRange,
    annual_efficiency,
    compare_strategies,
    load_duration_curve,
    max_feasible_power,
    optimize_at_production,
    optimize_scaling_unconstrained,
    read_duration_csv,
    reference_duration_curve,
    synth_duration_curve,
    tap_range,
    utilization_factor,
    write_duration_csv,
)
from cableopt.annual_energy import REFERENCE_CURVE_PARAMS

from conftest import random_cable, ref_cable


def small_curve(n_bins=12, target_uf=0.46):
    """Coarse synthetic curve: keeps annual evaluations fast in unit tests."""
    return synth_duration_curve(9.0, 8.0, 3.0, 11.0, 25.0,
                                n_bins=n_bins, target_uf=target_uf)


# ---------------------------------------------------------------------------
# curve loading and utilization

def test_single_rated_bin_has_unit_utilization():
    curve = load_duration_curve([(1.0, 1.0)])
    assert utilization_factor(curve) == 1.0


def test_weights_are_normalized():
    curve = load_duration_curve([(0.5, 2.0), (0.5, 2.0)])
    assert [w for _, w in curve.bins] == [0.5, 0.5]
    assert curve.normalization == 4.0
    assert utilization_factor(curve) == 0.5


def test_all_zero_production_curve():
    curve = load_duration_curve([(0.0, 0.3), (0.0, 0.7)])
    assert utilization_factor(curve) == 0.0


# the message each kind of malformed curve raises its ConfigError with
_CURVE_FAULTS = {
    "EmptyCurve": "^(no duration-curve rows given|duration-curve weights sum to zero)$",
    "NegativeWeight": r"^weight must be finite and >= 0, got (-1\.0|nan)$",
    "PowerOutOfRange": r"^power_pu must lie in \[0, 1\], got (1\.5|-0\.2)$",
}


@pytest.mark.parametrize("rows,fault", [
    ([], "EmptyCurve"),
    ([(0.5, 0.0)], "EmptyCurve"),
    ([(0.5, -1.0)], "NegativeWeight"),
    ([(0.5, math.nan)], "NegativeWeight"),
    ([(1.5, 1.0)], "PowerOutOfRange"),
    ([(-0.2, 1.0)], "PowerOutOfRange"),
])
def test_curve_validation(rows, fault):
    with pytest.raises(ConfigError, match=_CURVE_FAULTS[fault]):
        load_duration_curve(rows)


# ---------------------------------------------------------------------------
# synthetic curves

@pytest.mark.parametrize("target", [0.46, 0.35])
def test_synth_hits_target_utilization(target):
    curve = synth_duration_curve(9.0, 8.0, 3.0, 11.0, 25.0, n_bins=100, target_uf=target)
    assert utilization_factor(curve) == pytest.approx(target, abs=1e-3)


def test_synth_round_trips_through_csv(tmp_path):
    curve = small_curve()
    path = tmp_path / "curve.csv"
    write_duration_csv(curve, path, comment="unit test")
    loaded = read_duration_csv(path)
    assert loaded.bins == curve.bins
    assert utilization_factor(loaded) == utilization_factor(curve)


def test_synth_rated_everywhere_degenerate_shape():
    # an extremely narrow wind distribution centred inside the rated band
    curve = synth_duration_curve(15.0, 80.0, 3.0, 11.0, 25.0, n_bins=50)
    assert curve.bins[-1][1] == pytest.approx(1.0, abs=1e-6)
    assert utilization_factor(curve) == pytest.approx(1.0, abs=1e-6)


def test_synth_unreachable_target():
    with pytest.raises(Infeasible, match="^utilization factor 0.95 unreachable; maximum"):
        synth_duration_curve(9.0, 2.0, 10.0, 24.0, 25.0, n_bins=50, target_uf=0.95)


def test_synth_validates_inputs():
    with pytest.raises(ValueError):
        synth_duration_curve(9.0, 8.0, 3.0, 11.0, 25.0, n_bins=1)
    with pytest.raises(ValueError):
        synth_duration_curve(9.0, 8.0, 12.0, 11.0, 25.0)


def test_reference_curves_load_and_match_generator():
    for name, params in REFERENCE_CURVE_PARAMS.items():
        committed = reference_duration_curve(name)
        regenerated = synth_duration_curve(**params)
        assert committed.bins == regenerated.bins
        assert utilization_factor(committed) == pytest.approx(params["target_uf"], abs=1e-3)


def test_reference_curve_unknown_name():
    with pytest.raises(KeyError):
        reference_duration_curve("no-such-curve")


# ---------------------------------------------------------------------------
# strategies

def test_tap_range_clips_to_cap():
    band = tap_range(0.87, 0.15)
    assert band.v2_min == pytest.approx(0.87 * 0.85)
    assert band.v2_max == 1.0


@pytest.mark.parametrize("nominal,fraction,lo,hi", [
    (0.9, 1.0 / 9.0, 0.8, 1.0),    # +/- 11.1 %
    (0.8, 0.25, 0.6, 1.0),         # +/- 25.0 %
    (0.7, 3.0 / 7.0, 0.4, 1.0),    # +/- 42.9 %
])
def test_tap_range_regulation_table(nominal, fraction, lo, hi):
    band = tap_range(nominal, fraction)
    assert band.v2_min == pytest.approx(lo, abs=1e-12)
    assert band.v2_max == pytest.approx(hi, abs=1e-12)


def test_strategy_validation():
    with pytest.raises(ValueError):
        FixedVoltage(0.0)
    with pytest.raises(ValueError):
        FixedVoltage(1.2)
    with pytest.raises(ValueError):
        VoltageRange(0.8, 0.4)


# ---------------------------------------------------------------------------
# annual evaluation

def test_short_cable_is_nearly_lossless():
    spec = ref_cable(1.0)
    curve = small_curve(n_bins=8)
    for strategy in (FixedVoltage(1.0), VoltageRange(0.4, 1.0)):
        result = annual_efficiency(spec, 320e6, curve, strategy)
        assert result.eta_annual > 0.999


def test_fixed_equals_degenerate_range(cable200):
    curve = small_curve()
    fixed = annual_efficiency(cable200, 250e6, curve, FixedVoltage(0.8))
    range_ = annual_efficiency(cable200, 250e6, curve, VoltageRange(0.8, 0.8))
    assert fixed.eta_annual == range_.eta_annual
    assert fixed.energy_delivered == range_.energy_delivered


def test_wider_range_never_hurts(cable200):
    curve = small_curve()
    wide = annual_efficiency(cable200, 320e6, curve, VoltageRange(0.4, 1.0))
    for v in (0.4, 0.7, 1.0):
        fixed = annual_efficiency(cable200, 320e6, curve, FixedVoltage(v))
        assert wide.eta_annual >= fixed.eta_annual - 1e-9
    narrow = annual_efficiency(cable200, 320e6, curve, VoltageRange(0.6, 0.9))
    assert wide.eta_annual >= narrow.eta_annual - 1e-9


def test_energy_conservation(cable200):
    curve = small_curve()
    result = annual_efficiency(cable200, 340e6, curve, FixedVoltage(1.0))
    total = result.energy_delivered + result.energy_lost + result.energy_curtailed
    assert total == pytest.approx(result.energy_produced_potential, rel=1e-9)
    assert result.energy_curtailed > 0.0  # 340 MW exceeds the cable capability


def test_matches_production_weighted_bin_mean_without_curtailment(cable200):
    curve = small_curve()
    result = annual_efficiency(cable200, 200e6, curve, VoltageRange(0.4, 1.0))
    assert result.energy_curtailed == 0.0
    num = sum(o.weight * o.p_farm * o.eta_bin for o in result.per_bin if o.p_farm > 0)
    den = sum(o.weight * o.p_farm for o in result.per_bin)
    assert result.eta_annual == pytest.approx(num / den, rel=1e-12)


def test_zero_bins_contribute_nothing(cable200):
    curve = load_duration_curve([(0.0, 0.5), (0.625, 0.5)])
    result = annual_efficiency(cable200, 320e6, curve, VoltageRange(0.4, 1.0))
    zero_bin = result.per_bin[0]
    assert zero_bin.p_grid == 0.0 and zero_bin.curtailed == 0.0
    assert zero_bin.eta_bin is None
    # aggregate equals the single productive bin's efficiency
    assert result.eta_annual == pytest.approx(result.per_bin[1].eta_bin, rel=1e-12)


def test_curtailment_grows_with_rating(cable200):
    curve = small_curve()
    etas = [annual_efficiency(cable200, rated, curve, FixedVoltage(1.0)).eta_annual
            for rated in (360e6, 450e6, 550e6)]
    assert etas[0] > etas[1] > etas[2]


def test_low_bins_shut_down_not_backfed(cable200):
    # production below the minimum transmittable power at fixed full voltage
    curve = load_duration_curve([(0.002, 0.5), (0.5, 0.5)])
    result = annual_efficiency(cable200, 320e6, curve, FixedVoltage(1.0))
    low = result.per_bin[0]
    assert low.p_grid == 0.0
    assert low.curtailed == pytest.approx(0.002 * 320e6)


def test_infeasible_strategy_reported(cable200):
    spec = ref_cable(300.0)
    with pytest.raises(Infeasible):
        annual_efficiency(spec, 200e6, small_curve(n_bins=6), FixedVoltage(1.0))


def test_compare_strategies_reference_is_zero(cable200):
    curve = small_curve()
    out = compare_strategies(cable200, 320e6, curve,
                             [FixedVoltage(1.0), FixedVoltage(1.0), VoltageRange(0.4, 1.0)])
    assert out[0].loss_reduction_pct == 0.0
    assert out[1].loss_reduction_pct == pytest.approx(0.0, abs=1e-9)
    assert out[2].loss_reduction_pct > 0.0


def test_compare_strategies_is_three_solves_with_the_one_strategy_results(solve_calls):
    spec, curve = ref_cable(230.0), small_curve()
    strategies = [FixedVoltage(1.0), VoltageRange(0.4, 1.0), tap_range(0.9, 0.1)]
    out = compare_strategies(spec, 340e6, curve, strategies)
    # the up-front check, the production solve and the capped solve
    assert len(solve_calls) == 3
    for o, strategy in zip(out, strategies):
        alone = annual_efficiency(spec, 340e6, curve, strategy)
        assert o.strategy == strategy and o.result == alone
        assert any(b.curtailed > 0.0 for b in alone.per_bin)


def test_compare_strategies_names_the_first_inoperable_strategy():
    spec, curve = ref_cable(300.0), small_curve(n_bins=6)
    strategies = [VoltageRange(0.4, 1.0), FixedVoltage(1.0), FixedVoltage(0.99)]
    with pytest.raises(Infeasible) as alone:
        annual_efficiency(spec, 200e6, curve, FixedVoltage(1.0))
    with pytest.raises(Infeasible) as batch:
        compare_strategies(spec, 200e6, curve, strategies)
    assert str(batch.value) == str(alone.value) == (
        "strategy fixed-1.000 cannot operate this cable at all: charging current alone "
        "exceeds 1055 A at v2 = 1.0 p.u.; even zero-power operation violates limits")


def test_annual_validates_rated_power(cable200):
    with pytest.raises(ValueError):
        annual_efficiency(cable200, 0.0, small_curve(n_bins=4), FixedVoltage(1.0))


# ---------------------------------------------------------------------------
# every bin of one annual evaluation is one row of two batched solves

def _random_case(rng):
    spec = random_cable(rng).with_length(rng.uniform(1.0, 400.0))
    levels = [0.0, 1.0] + [rng.random() ** 2 for _ in range(8)]
    curve = load_duration_curve([(p, rng.uniform(0.1, 1.0)) for p in levels])
    lo = rng.uniform(0.4, 1.0)
    strategy = rng.choice([FixedVoltage(lo), VoltageRange(lo, rng.uniform(lo, 1.0)),
                           tap_range(rng.uniform(0.85, 1.0), rng.uniform(0.05, 0.15))])
    return spec, rng.uniform(20e6, 600e6), curve, strategy


def _close(a, b, rel=1e-12):
    return (a is None and b is None) or abs(a - b) <= rel * max(abs(a), abs(b))


def test_annual_bins_match_one_row_calls():
    # each per_bin outcome is what optimize_at_production, or else
    # max_feasible_power capped at that bin's production, gives for it alone
    rng = random.Random(29)
    cases = [_random_case(rng) for _ in range(24)]
    box = Constraints(check_internal_voltage_max=1.02, check_internal_current=True,
                      n_profile_segments=20)
    cases.append((ref_cable(150.0), 340e6, small_curve(8), VoltageRange(0.9, 1.0), box))
    kinds = []
    for spec, rated, curve, strategy, *cons in cases:
        cons = cons[0] if cons else Constraints()
        try:
            result = annual_efficiency(spec, rated, curve, strategy, cons)
        except Infeasible:
            continue
        lo, hi = strategy.v2_bounds()
        box = cons.with_v2_range(lo, hi)
        for o in result.per_bin:
            if o.p_farm == 0.0:
                continue
            try:
                best = optimize_at_production(spec, o.p_farm, box)
            except Infeasible:
                best = None
            if best is not None and best.eta > 0.0:
                kinds.append("served")
                assert o.p_farm_used == o.p_farm and o.curtailed == 0.0
                assert _close(o.p_grid, best.flow.p_grid) and _close(o.v2_used, best.operating_point.v2)
                continue
            try:
                pf, pg, point = max_feasible_power(spec, box, p_farm_cap=o.p_farm)
            except Infeasible:
                pg = 0.0
            if pg > 0.0:
                kinds.append("curtailed")
                assert _close(o.p_grid, pg) and _close(o.p_farm_used, pf)
                assert _close(o.v2_used, point.operating_point.v2)
            else:
                kinds.append("shut down")
                assert (o.p_grid, o.p_farm_used, o.v2_used, o.curtailed) == (0.0, 0.0, None, o.p_farm)
    assert {"served", "curtailed", "shut down"} <= set(kinds)


# ---------------------------------------------------------------------------
# property: the annual energies balance and stay under the scaling optimum

@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), length=st.floats(1.0, 300.0), rated=st.floats(0.1, 1.5),
       kind=st.sampled_from(["fixed", "range", "tap"]), v2=st.floats(0.6, 1.0))
def test_annual_energy_balance(seed, length, rated, kind, v2):
    rng = random.Random(seed)
    spec = random_cable(rng).with_length(length)
    curve = load_duration_curve([(p, rng.uniform(0.1, 1.0))
                                 for p in [0.0, 1.0] + [rng.random() for _ in range(6)]])
    strategy = {"fixed": FixedVoltage(v2), "range": VoltageRange(0.4, v2),
                "tap": tap_range(v2, 0.1)}[kind]
    try:
        _, p_max, _ = max_feasible_power(spec, Constraints().with_v2_range(*strategy.v2_bounds()))
    except Infeasible:
        p_max = 0.0
    assume(p_max > 0.0)     # the strategy delivers something at its best
    result = annual_efficiency(spec, rated * p_max, curve, strategy)
    total = result.energy_delivered + result.energy_lost + result.energy_curtailed
    assert abs(total - result.energy_produced_potential) <= 1e-9 * result.energy_produced_potential
    _, eta_star = optimize_scaling_unconstrained(spec)
    assert 0.0 < result.eta_annual <= eta_star + 1e-12
