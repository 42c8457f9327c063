"""Duration curves, synthetic generation and annual strategy evaluation."""

import collections
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cableopt import (
    ConfigError,
    Constraints,
    DurationCurve,
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
from cableopt import annual_energy, cli, optimizer
from cableopt.annual_energy import REFERENCE_CURVE_PARAMS
from cableopt.cable_model import MAX_POINTS

from conftest import random_cable, ref_cable, with_config
from oracle import bisected_duration_curve, every_short_bin_capped


def small_curve(n_bins=12, target_uf=0.46):
    """Coarse synthetic curve: keeps annual evaluations fast in unit tests."""
    return synth_duration_curve(8.0, 3.0, 11.0, 25.0, n_bins=n_bins, target_uf=target_uf)


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


def test_duration_curve_checks_its_bins():
    with pytest.raises(ConfigError, match="^duration curve has no bins$"):
        DurationCurve(bins=())
    with pytest.raises(ValueError, match="^weights must sum to 1 within 1e-9, got 0.9$"):
        DurationCurve(bins=((0.5, 0.4), (1.0, 0.5)))


# ---------------------------------------------------------------------------
# synthetic curves

@pytest.mark.parametrize("target", [0.46, 0.35])
def test_synth_hits_target_utilization(target):
    curve = synth_duration_curve(8.0, 3.0, 11.0, 25.0, n_bins=100, target_uf=target)
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
    curve = synth_duration_curve(80.0, 3.0, 11.0, 25.0, n_bins=50, weibull_scale=15.0)
    assert curve.bins[-1][1] == pytest.approx(1.0, abs=1e-6)
    assert utilization_factor(curve) == pytest.approx(1.0, abs=1e-6)


def test_synth_unreachable_target():
    with pytest.raises(Infeasible, match="^utilization factor 0.95 unreachable; maximum"):
        synth_duration_curve(2.0, 10.0, 24.0, 25.0, n_bins=50, target_uf=0.95)


def test_synth_validates_inputs():
    with pytest.raises(ValueError):
        synth_duration_curve(8.0, 3.0, 11.0, 25.0, n_bins=1, weibull_scale=9.0)
    with pytest.raises(ValueError):
        synth_duration_curve(8.0, 12.0, 11.0, 25.0, weibull_scale=9.0)
    with pytest.raises(ValueError):
        synth_duration_curve(8.0, 3.0, 11.0, 25.0, n_bins=MAX_POINTS + 1, weibull_scale=9.0)
    # the scale comes from exactly one of weibull_scale and target_uf
    for scale, target in ((None, None), (9.0, 0.46)):
        with pytest.raises(ValueError, match="^give exactly one of weibull_scale and target_uf$"):
            synth_duration_curve(8.0, 3.0, 11.0, 25.0, weibull_scale=scale, target_uf=target)
    # arithmetic that overflows a float is a configuration error, not a crash
    with pytest.raises(ConfigError):
        synth_duration_curve(1e300, 3.0, 11.0, 25.0, target_uf=0.4)
    with pytest.raises(ConfigError):
        synth_duration_curve(8.0, 1e-300, 1e300, 1e300, target_uf=0.4)


def test_synth_bisection_stops_at_its_fixed_point(monkeypatch):
    # the scale bisection ends where a step leaves its bracket unchanged:
    # the same curve, bit for bit, as running all 80 steps, in about 2/3 of the curve builds
    builds = []
    load = annual_energy.load_duration_curve
    monkeypatch.setattr(annual_energy, "load_duration_curve",
                        lambda rows: builds.append(1) or load(rows))
    rng = random.Random(2024)
    cases = 0
    for _ in range(150):
        cut_in = rng.uniform(2.0, 4.5)
        rated = rng.uniform(cut_in + 3.0, 15.0)
        cut_out = rng.uniform(rated, 30.0)
        shape, n_bins, target = rng.uniform(1.2, 10.0), rng.randint(2, 24), rng.uniform(0.05, 0.7)
        builds.clear()
        try:
            curve = synth_duration_curve(shape, cut_in, rated, cut_out, n_bins=n_bins, target_uf=target)
        except Infeasible:
            continue
        # the bisection plus the curves at the upper end and at the result
        assert 54 + 2 <= len(builds) <= 56 + 2
        want = bisected_duration_curve(shape, cut_in, rated, cut_out, n_bins, target_uf=target)
        assert repr(curve.bins) == repr(want.bins)
        cases += 1
    assert cases == 134


def _synth_outcome(build, *args, **kwargs):
    """repr of build's bins, or (exception type, text) where it raises."""
    try:
        return repr(build(*args, **kwargs).bins)
    except (ConfigError, Infeasible) as exc:
        return type(exc), str(exc)


def test_synth_matches_the_bin_by_bin_reference():
    # each edge's speed once per call and its CDF once per curve: the same
    # bins, bit for bit, and the same errors as building every bin from scratch
    rng = random.Random(16)
    kinds = collections.Counter()
    for draw in range(200):
        cut_in = rng.uniform(0.5, 5.0)
        rated = rng.uniform(cut_in * 1.05, 20.0)
        cut_out = rng.uniform(rated, 35.0)
        shape = rng.uniform(1.0, 12.0)
        n_bins = (2, 400)[draw] if draw < 2 else round(2.0 ** rng.uniform(1.0, 8.64))
        if draw % 5 == 4:       # speeds or a CDF that overflow a float
            shape, cut_in, rated, cut_out = rng.choice([
                (1e300, cut_in, rated, cut_out), (shape, 1e-300, 1e300, 1e300),
                (shape, cut_in, rated, 1e300)])
        if draw % 2:
            kwargs = dict(weibull_scale=rng.uniform(0.5, 40.0))
        elif draw % 8:
            kwargs = dict(target_uf=rng.uniform(0.02, 0.95))
        else:
            # out of (0, 1): Infeasible, also where the speeds overflow
            kwargs = dict(target_uf=rng.choice([0.0, 1.5]))
        if draw == 2:           # the bisection stalls at UF 0.78908
            shape, cut_in, rated, cut_out, kwargs = 8.0, 0.01, 0.05, 25.0, dict(target_uf=0.001)
        got = _synth_outcome(synth_duration_curve, shape, cut_in, rated, cut_out, n_bins, **kwargs)
        want = _synth_outcome(bisected_duration_curve, shape, cut_in, rated, cut_out, n_bins,
                              **kwargs)
        assert got == want, (draw, kwargs)
        kinds[got[1].split(" ")[0] if isinstance(got, tuple) else "curve"] += 1
    assert kinds == {"curve": 125, "synthetic": 24, "target": 25, "utilization": 22,
                     "bisection": 4}


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


def test_compare_strategies_is_one_solve_per_kind_with_the_one_strategy_results(solve_calls):
    spec, curve = ref_cable(230.0), small_curve()
    strategies = [FixedVoltage(1.0), VoltageRange(0.4, 1.0), tap_range(0.9, 0.1)]
    out = compare_strategies(spec, 340e6, curve, strategies)
    # the production solve and the capped solve, which also checks that each
    # strategy operates: one over the fixed-voltage boxes, one over the free ones
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


def test_compare_strategies_needs_a_strategy(cable200):
    with pytest.raises(ValueError, match="^strategy list must be non-empty$"):
        compare_strategies(cable200, 320e6, small_curve(n_bins=4), [])


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
# a short bin over its strategy's served levels takes the uncapped maximum

def _same_as_every_bin_capped(out, want):
    """Every field of each StrategyOutcome is the reference's, by repr."""
    assert len(out) == len(want)
    for o, (strategy, result, reduction) in zip(out, want):
        assert o.strategy == strategy and repr(o.loss_reduction_pct) == repr(reduction)
        for name in ("eta_annual", "energy_produced_potential", "energy_delivered",
                     "energy_lost", "energy_curtailed", "per_bin"):
            assert repr(getattr(o.result, name)) == repr(getattr(result, name)), name


def _annual_case(rng):
    """A random or the reference cable, 120-300 km, 250-400 MW rated, fixed, range and tap strategies."""
    spec = rng.choice([random_cable(rng), ref_cable()]).with_length(rng.uniform(120.0, 300.0))
    curve = load_duration_curve([(p, rng.uniform(0.1, 1.0))
                                 for p in [0.0, 1.0] + [rng.random() for _ in range(18)]])
    strategies = [FixedVoltage(rng.uniform(0.8, 1.0)), VoltageRange(0.4, 1.0),
                  tap_range(rng.uniform(0.9, 1.0), rng.uniform(0.05, 0.15))]
    return spec, rng.uniform(250e6, 400e6), curve, strategies


@pytest.fixture
def capped_rows(monkeypatch) -> list:
    """The row count of each capped delivery solve compare_strategies makes."""
    rows, solve = [], annual_energy.max_feasible_power_rows
    monkeypatch.setattr(annual_energy, "max_feasible_power_rows",
                        lambda batch: rows.append(len(batch)) or solve(batch))
    return rows


def test_over_capability_bins_are_the_capped_solve_of_every_short_bin(capped_rows):
    rng, cases, shortcuts = random.Random(211), 0, 0
    for _ in range(60):
        spec, rated, curve, strategies = _annual_case(rng)
        try:
            want = every_short_bin_capped(spec, rated, curve, strategies)
        except Infeasible as exc:
            with pytest.raises(Infeasible) as got:
                compare_strategies(spec, rated, curve, strategies)
            assert str(got.value) == str(exc)
            continue
        capped_rows.clear()
        _same_as_every_bin_capped(compare_strategies(spec, rated, curve, strategies), want)
        short = sum(o.curtailed > 0.0 for _, result, _ in want for o in result.per_bin)
        assert capped_rows[0] <= short + len(strategies)
        cases += 1
        shortcuts += capped_rows[0] < short + len(strategies)
    assert cases >= 40 and shortcuts >= 20      # 45 and 24 with this seed


def test_a_short_bin_under_the_uncapped_maximum_gets_a_capped_row(monkeypatch, capped_rows):
    # the production solve is made to miss the first strategy's highest
    # served bin: it lies above every level that strategy serves, but under
    # the injection of its uncapped maximum, so a follow-up capped solve
    # answers it, as the reference does
    production = optimizer.optimize_at_production_rows

    def missing_top(rows):
        won = production(rows)
        box, served = rows[0][2], (won.found & (won.eta > 0.0)).tolist()
        top = max((r for r, row in enumerate(rows) if row[2] is box and served[r]),
                  key=lambda r: rows[r][1], default=None)
        if top is not None:
            won.found[top] = False
        return won

    monkeypatch.setattr(annual_energy, "optimize_at_production_rows", missing_top)
    monkeypatch.setattr(optimizer, "optimize_at_production_rows", missing_top)
    rng, follow_ups = random.Random(212), 0
    cases = [(ref_cable(150.0), 250e6, small_curve(), [VoltageRange(0.4, 1.0), FixedVoltage(0.9)])]
    cases += [_annual_case(rng) for _ in range(12)]
    for spec, rated, curve, strategies in cases:
        try:
            want = every_short_bin_capped(spec, rated, curve, strategies)
        except Infeasible:
            continue
        capped_rows.clear()
        _same_as_every_bin_capped(compare_strategies(spec, rated, curve, strategies), want)
        follow_ups += len(capped_rows) > 1
    assert follow_ups >= 10     # 12 of the 13 cases with this seed


def test_follow_up_capped_solve_runs_on_a_long_cable(monkeypatch, capped_rows, tmp_path):
    # on 317 km the fixed 0.8 p.u. strategy serves no bin with eta > 0, and
    # its three lowest bins lie under the injection of its uncapped maximum,
    # about 21.7 MW: the follow-up capped solve answers them, unpatched
    calls, compare = [], annual_energy.compare_strategies
    monkeypatch.setattr(cli, "compare_strategies", lambda *args: calls.append(args) or compare(*args))
    argv = ["annual", "--rated-mw", "213.7", "--synth-uf", "0.35", "--n-bins", "40",
            "--strategy", "fixed:0.8", "--strategy", "range:0.6:1.0", {"cable": {"length_km": 317.0}}]
    assert cli.main(with_config(argv, tmp_path)) == 0
    assert len(calls) == 1 and capped_rows[1:] == [3]
    _same_as_every_bin_capped(compare(*calls[0]), every_short_bin_capped(*calls[0]))


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
