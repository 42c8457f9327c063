"""Annual efficiency of voltage-control strategies over a duration curve.

A duration curve is a weighted list of production levels (p.u. of rated
farm power); weights are relative durations over the year and sum to one.
Annual efficiency is delivered energy over potential energy, where the
potential includes production that had to be curtailed for lack of cable
capability - curtailed energy counts as lost.

Per-bin policy: each positive production level is transmitted at the most
efficient feasible operating point the strategy allows.  If the level is
infeasible (either above the cable's capability or below the minimum
power the strategy's voltage floor can transmit), the bin delivers the
most it feasibly can without injecting more than the farm produces; when
even that best delivery is non-positive, the bin is shut down and fully
curtailed rather than operated as a net sink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .cable_model import CableSpec
from .errors import ConfigError, Infeasible
from .optimizer import Constraints, inoperable, max_feasible_power_rows, optimize_at_production_rows

_UF_BISECT_ITERS = 80


@dataclass(frozen=True)
class DurationCurve:
    """Ordered production-level bins (power_pu, weight), weights summing to 1.

    normalization records the factor the raw weights were divided by when
    the curve was loaded.
    """

    bins: tuple[tuple[float, float], ...]
    normalization: float = 1.0

    def __post_init__(self):
        if not self.bins:
            raise ConfigError("duration curve has no bins")
        total = math.fsum(w for _, w in self.bins)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 within 1e-9, got {total!r}")


def load_duration_curve(rows: list[tuple[float, float]]) -> DurationCurve:
    """Validate and normalize raw (power_pu, weight) rows."""
    if not rows:
        raise ConfigError("no duration-curve rows given")
    for p, w in rows:
        if not (math.isfinite(w) and w >= 0.0):
            raise ConfigError(f"weight must be finite and >= 0, got {w!r}")
        if not (math.isfinite(p) and -1e-9 <= p <= 1.0 + 1e-9):
            raise ConfigError(f"power_pu must lie in [0, 1], got {p!r}")
    total = math.fsum(w for _, w in rows)
    if total <= 0.0:
        raise ConfigError("duration-curve weights sum to zero")
    bins = tuple((min(max(p, 0.0), 1.0), w / total) for p, w in rows)
    return DurationCurve(bins=bins, normalization=total)


def utilization_factor(curve: DurationCurve) -> float:
    """Mean production over the year in p.u. of rated power."""
    return math.fsum(p * w for p, w in curve.bins)


# ---------------------------------------------------------------------------
# synthetic curves

def _weibull_cdf(v: float, shape: float, scale: float) -> float:
    if v <= 0.0:
        return 0.0
    return 1.0 - math.exp(-((v / scale) ** shape))


def _curve_for_scale(scale: float, shape: float, cut_in: float, rated: float,
                     cut_out: float, n_bins: int) -> DurationCurve:
    # Cubic power curve p(v) = (v^3 - ci^3)/(vr^3 - ci^3) on [ci, vr]; its
    # inverse maps power-bin edges to wind-speed edges, so each bin weight
    # is an exact Weibull probability mass rather than a sampled estimate.
    span3 = rated**3 - cut_in**3

    def v_of_p(p: float) -> float:
        return (cut_in**3 + p * span3) ** (1.0 / 3.0)

    levels = [k / (n_bins - 1) for k in range(n_bins)]
    edges = [0.0] + [0.5 * (levels[k] + levels[k + 1]) for k in range(n_bins - 1)] + [1.0]
    cdf = lambda v: _weibull_cdf(v, shape, scale)

    weights = []
    for k in range(n_bins):
        if k == 0:
            # calm below the first midpoint plus storm shut-down
            w = cdf(v_of_p(edges[1])) + (1.0 - cdf(cut_out))
        elif k == n_bins - 1:
            # band just below rated plus the rated plateau
            w = cdf(cut_out) - cdf(v_of_p(edges[k]))
        else:
            w = cdf(v_of_p(edges[k + 1])) - cdf(v_of_p(edges[k]))
        weights.append(max(w, 0.0))
    return load_duration_curve(list(zip(levels, weights)))


def synth_duration_curve(
    weibull_scale: float,
    weibull_shape: float,
    cut_in: float,
    rated: float,
    cut_out: float,
    n_bins: int = 100,
    target_uf: float | None = None,
    uf_tolerance: float = 1e-3,
) -> DurationCurve:
    """Deterministic duration curve from a Weibull wind-speed distribution.

    With target_uf set, the scale parameter is bisected (on the rising
    branch, scale < cut_out) until the utilization factor matches within
    uf_tolerance; the given weibull_scale is then only a formality.
    """
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    if not (0.0 < cut_in < rated <= cut_out):
        raise ValueError(f"need 0 < cut_in < rated <= cut_out, got {cut_in}, {rated}, {cut_out}")
    if not (weibull_shape > 0.0 and weibull_scale > 0.0):
        raise ValueError("Weibull parameters must be > 0")

    if target_uf is None:
        return _curve_for_scale(weibull_scale, weibull_shape, cut_in, rated, cut_out, n_bins)

    if not (0.0 < target_uf < 1.0):
        raise Infeasible(f"target utilization factor must be in (0, 1), got {target_uf}")
    lo, hi = 0.05, 0.98 * cut_out
    uf_hi = utilization_factor(_curve_for_scale(hi, weibull_shape, cut_in, rated, cut_out, n_bins))
    if uf_hi < target_uf - uf_tolerance:
        raise Infeasible(
            f"utilization factor {target_uf} unreachable; maximum on the rising "
            f"branch is {uf_hi:.4f} for this turbine"
        )
    for _ in range(_UF_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        u = utilization_factor(_curve_for_scale(mid, weibull_shape, cut_in, rated, cut_out, n_bins))
        if u < target_uf:
            lo = mid
        else:
            hi = mid
    scale = 0.5 * (lo + hi)
    curve = _curve_for_scale(scale, weibull_shape, cut_in, rated, cut_out, n_bins)
    if abs(utilization_factor(curve) - target_uf) > uf_tolerance:
        raise Infeasible(
            f"bisection stalled at UF {utilization_factor(curve):.5f} for target {target_uf}"
        )
    return curve


# ---------------------------------------------------------------------------
# duration-curve files (format shared with the CLI)

def _parse_duration_lines(lines, source: str) -> DurationCurve:
    """Parse `power_pu,weight` rows after that header; '#' lines are comments."""
    rows = []
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            cols = [c.strip() for c in line.split(",")]
            if cols != ["power_pu", "weight"]:
                raise ConfigError(
                    f"{source}:{lineno}: expected header 'power_pu,weight', got {line!r}"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{source}:{lineno}: expected two columns, got {line!r}")
        rows.append((float(parts[0]), float(parts[1])))
    return load_duration_curve(rows)


def read_duration_csv(path: str | Path) -> DurationCurve:
    """Read a `power_pu,weight` duration-curve file; '#' lines are comments."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_duration_lines(fh, str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read curve {path}: {exc}") from exc


def write_duration_csv(curve: DurationCurve, path: str | Path, comment: str | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write("power_pu,weight\n")
        for p, w in curve.bins:
            fh.write(f"{p!r},{w!r}\n")  # repr round-trips float64 exactly


#: Generator settings of the two committed reference curves.
REFERENCE_CURVE_PARAMS = {
    "high-uf": dict(weibull_scale=9.0, weibull_shape=8.0, cut_in=3.0, rated=11.0,
                    cut_out=25.0, n_bins=100, target_uf=0.46),
    "low-uf": dict(weibull_scale=8.0, weibull_shape=8.0, cut_in=3.0, rated=11.0,
                   cut_out=25.0, n_bins=100, target_uf=0.35),
}

_REFERENCE_FILES = {"high-uf": "duration_high_uf.csv", "low-uf": "duration_low_uf.csv"}


def reference_duration_curve(name: str) -> DurationCurve:
    """One of the committed reference curves, 'high-uf' (0.46) or 'low-uf' (0.35)."""
    if name not in _REFERENCE_FILES:
        raise KeyError(f"unknown reference curve {name!r}; choose from {sorted(_REFERENCE_FILES)}")
    text = (resources.files("cableopt.data") / _REFERENCE_FILES[name]).read_text(encoding="utf-8")
    return _parse_duration_lines(text.splitlines(), _REFERENCE_FILES[name])


# ---------------------------------------------------------------------------
# strategies

@dataclass(frozen=True)
class FixedVoltage:
    """Operate at one grid-side voltage for every production level."""

    v2: float

    def __post_init__(self):
        if not (0.0 < self.v2 <= 1.0 + 1e-12):
            raise ValueError(f"fixed voltage must be in (0, 1] p.u., got {self.v2}")

    @property
    def label(self) -> str:
        return f"fixed-{self.v2:.3f}"

    def v2_bounds(self) -> tuple[float, float]:
        return self.v2, self.v2


@dataclass(frozen=True)
class VoltageRange:
    """Adjust the grid-side voltage freely inside [v2_min, v2_max]."""

    v2_min: float
    v2_max: float

    def __post_init__(self):
        if not (0.0 < self.v2_min <= self.v2_max <= 1.0 + 1e-12):
            raise ValueError(
                f"need 0 < v2_min <= v2_max <= 1, got [{self.v2_min}, {self.v2_max}]"
            )

    @property
    def label(self) -> str:
        return f"range-{self.v2_min:.3f}-{self.v2_max:.3f}"

    def v2_bounds(self) -> tuple[float, float]:
        return self.v2_min, self.v2_max


VoltageStrategy = FixedVoltage | VoltageRange


def tap_range(nominal_pu: float, fraction: float, cap: float = 1.0) -> VoltageRange:
    """Tap-changer band nominal*(1 -/+ fraction), clipped to the cap."""
    return VoltageRange(nominal_pu * (1.0 - fraction), min(nominal_pu * (1.0 + fraction), cap))


# ---------------------------------------------------------------------------
# annual evaluation

@dataclass(frozen=True)
class BinOutcome:
    """Operating result of one production level."""

    power_pu: float
    weight: float
    p_farm: float           # potential injection at this level [W]
    p_farm_used: float      # actually injected after curtailment [W]
    p_grid: float           # delivered [W]
    v2_used: float | None
    eta_bin: float | None
    curtailed: float        # p_farm - p_farm_used [W]


@dataclass(frozen=True)
class AnnualResult:
    """Eq.-17-style annual aggregation over a duration curve.

    Energies are duration-weighted average powers over the year [W];
    delivered + lost + curtailed equals the potential production exactly.
    """

    eta_annual: float
    energy_produced_potential: float
    energy_delivered: float
    energy_lost: float
    energy_curtailed: float
    per_bin: tuple[BinOutcome, ...]


def _annual_results(
    spec: CableSpec,
    rated_farm_power: float,
    curve: DurationCurve,
    strategies: list[VoltageStrategy],
    constraints: Constraints | None,
) -> list[AnnualResult]:
    """annual_efficiency of every strategy, each kind of solve done once for all of them."""
    if not (rated_farm_power > 0.0 and math.isfinite(rated_farm_power)):
        raise ValueError(f"rated farm power must be > 0 W, got {rated_farm_power}")
    base = constraints if constraints is not None else Constraints()
    boxes = [base.with_v2_range(*strategy.v2_bounds()) for strategy in strategies]

    # a strategy whose voltage window cannot even carry the charging current
    # is infeasible as a whole, not merely curtailed
    for strategy, box, point in zip(strategies, boxes,
                                    max_feasible_power_rows([(spec, box, None) for box in boxes])):
        if point is None:
            exc = inoperable(spec, box)
            raise Infeasible(
                f"strategy {strategy.label} cannot operate this cable at all: {exc}") from exc

    # every strategy's positive bins in one production solve; those it cannot
    # serve (sensibly) in one capped delivery solve
    levels = [power_pu * rated_farm_power for power_pu, _ in curve.bins]
    live = [(s, k) for s in range(len(strategies)) for k, p in enumerate(levels) if p > 0.0]
    points = optimize_at_production_rows([(spec, levels[k], boxes[s]) for s, k in live])
    served = {row: best for row, best in zip(live, points)
              if best is not None and best.eta is not None and best.eta > 0.0}
    short = [row for row in live if row not in served]
    capped = dict(zip(short, max_feasible_power_rows([(spec, boxes[s], levels[k]) for s, k in short])))

    results = []
    for s in range(len(strategies)):
        outcomes = []
        for k, (power_pu, weight) in enumerate(curve.bins):
            p = levels[k]
            if p <= 0.0:
                outcomes.append(BinOutcome(power_pu, weight, 0.0, 0.0, 0.0, None, None, 0.0))
            elif (best := served.get((s, k))) is not None:
                outcomes.append(BinOutcome(
                    power_pu, weight, p, p, best.flow.p_grid,
                    best.operating_point.v2, best.eta, 0.0,
                ))
            elif (point := capped[s, k]) is not None and point.flow.p_grid > 0.0:
                # Required level not (sensibly) transmittable: deliver what the
                # cable can, capped by the available production
                pf, pg = point.flow.p_farm, point.flow.p_grid
                outcomes.append(BinOutcome(
                    power_pu, weight, p, pf, pg,
                    point.operating_point.v2, pg / pf if pf > 0 else None, p - pf,
                ))
            else:
                # shut down: even the best delivery is non-positive, or the cap
                # admits no operating point
                outcomes.append(BinOutcome(power_pu, weight, p, 0.0, 0.0, None, None, p))

        potential = math.fsum(o.weight * o.p_farm for o in outcomes)
        delivered = math.fsum(o.weight * o.p_grid for o in outcomes)
        curtailed = math.fsum(o.weight * o.curtailed for o in outcomes)
        lost = math.fsum(o.weight * (o.p_farm_used - o.p_grid) for o in outcomes)
        results.append(AnnualResult(
            eta_annual=delivered / potential if potential > 0.0 else 0.0,
            energy_produced_potential=potential,
            energy_delivered=delivered,
            energy_lost=lost,
            energy_curtailed=curtailed,
            per_bin=tuple(outcomes),
        ))
    return results


def annual_efficiency(
    spec: CableSpec,
    rated_farm_power: float,
    curve: DurationCurve,
    strategy: VoltageStrategy,
    constraints: Constraints | None = None,
) -> AnnualResult:
    """Annual efficiency of one strategy against a duration curve.

    Raises Infeasible when the strategy cannot operate the cable at all
    (for instance a fixed voltage whose charging current alone exceeds the
    rating); individual over- or under-range production levels are handled
    by curtailment instead.
    """
    return _annual_results(spec, rated_farm_power, curve, [strategy], constraints)[0]


@dataclass(frozen=True)
class StrategyOutcome:
    strategy: VoltageStrategy
    result: AnnualResult
    loss_reduction_pct: float


def compare_strategies(
    spec: CableSpec,
    rated_farm_power: float,
    curve: DurationCurve,
    strategies: list[VoltageStrategy],
    constraints: Constraints | None = None,
) -> list[StrategyOutcome]:
    """Annual results plus loss reduction against the first (reference) strategy.

    Loss includes curtailed energy: loss = potential - delivered, and the
    reduction is (loss_ref - loss)/loss_ref in percent.
    """
    if not strategies:
        raise ValueError("strategy list must be non-empty")
    results = _annual_results(spec, rated_farm_power, curve, strategies, constraints)
    loss_ref = results[0].energy_produced_potential - results[0].energy_delivered
    out = []
    for strategy, result in zip(strategies, results):
        loss = result.energy_produced_potential - result.energy_delivered
        red = 100.0 * (loss_ref - loss) / loss_ref if loss_ref > 0.0 else 0.0
        out.append(StrategyOutcome(strategy, result, red))
    return out
