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

Bin routing: one production solve takes every strategy's positive bins.
A short bin (one it cannot serve) above every level its strategy serves
takes the strategy's uncapped maximum, which a cap at the bin's level
leaves as it is unless that maximum injects more; such a bin goes in one
follow-up capped solve.  One delivery solve takes the other short bins,
each capped at its level, and per strategy one uncapped row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from operator import mul, sub
from pathlib import Path

from .cable_model import MAX_POINTS, CableSpec
from .errors import ConfigError, Infeasible
from .optimizer import Constraints, inoperable, max_feasible_power_rows, optimize_at_production_rows

_UF_BISECT_ITERS = 80
#: how close a synthetic curve's utilization factor must come to its target
_UF_TOLERANCE = 1e-3


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

def synth_duration_curve(
    weibull_shape: float,
    cut_in: float,
    rated: float,
    cut_out: float,
    n_bins: int = 100,
    *,
    weibull_scale: float | None = None,
    target_uf: float | None = None,
) -> DurationCurve:
    """Deterministic duration curve from a Weibull wind-speed distribution.

    Exactly one of weibull_scale and target_uf sets the scale: with
    target_uf it is bisected (on the rising branch, scale < cut_out) until
    the utilization factor matches within _UF_TOLERANCE (1e-3).
    """
    if (weibull_scale is None) == (target_uf is None):
        raise ValueError("give exactly one of weibull_scale and target_uf")
    if not 2 <= n_bins <= MAX_POINTS:
        raise ValueError(f"n_bins must be in [2, {MAX_POINTS}], got {n_bins}")
    if not (0.0 < cut_in < rated <= cut_out):
        raise ValueError(f"need 0 < cut_in < rated <= cut_out, got {cut_in}, {rated}, {cut_out}")
    if not (weibull_shape > 0.0 and (weibull_scale is None or weibull_scale > 0.0)):
        raise ValueError("Weibull parameters must be > 0")
    # ahead of any arithmetic that can overflow: an out-of-range target is Infeasible
    if target_uf is not None and not (0.0 < target_uf < 1.0):
        raise Infeasible(f"target utilization factor must be in (0, 1), got {target_uf}")

    def overflow(exc: OverflowError) -> ConfigError:
        return ConfigError(f"synthetic curve of Weibull shape {weibull_shape} and speeds {cut_in}, "
                           f"{rated}, {cut_out} overflows: {exc}")

    # Cubic power curve p(v) = (v^3 - ci^3)/(vr^3 - ci^3) on [ci, vr]; its
    # inverse maps power-bin edges to wind-speed edges, so each bin weight
    # is an exact Weibull probability mass rather than a sampled estimate.
    # The edge speeds, the interior ones and then cut-out, fit every scale.
    levels = [k / (n_bins - 1) for k in range(n_bins)]
    try:
        span3 = rated**3 - cut_in**3
        speeds = [(cut_in**3 + 0.5 * (levels[k] + levels[k + 1]) * span3) ** (1.0 / 3.0)
                  for k in range(n_bins - 1)] + [cut_out]
    except OverflowError as exc:
        raise overflow(exc) from exc

    def curve_at(scale: float) -> DurationCurve:
        try:
            cdf = [1.0 - math.exp(-((v / scale) ** weibull_shape)) for v in speeds]
        except OverflowError as exc:
            raise overflow(exc) from exc
        # bin 0: calm below the first edge plus storm shut-down; the last bin:
        # the band just below rated plus the rated plateau
        weights = [cdf[0] + (1.0 - cdf[-1])] + [cdf[k] - cdf[k - 1] for k in range(1, n_bins)]
        return load_duration_curve([(p, max(w, 0.0)) for p, w in zip(levels, weights)])

    if target_uf is None:
        return curve_at(weibull_scale)

    lo, hi = 0.05, 0.98 * cut_out
    uf_hi = utilization_factor(curve_at(hi))
    if uf_hi < target_uf - _UF_TOLERANCE:
        raise Infeasible(
            f"utilization factor {target_uf} unreachable; maximum on the rising "
            f"branch is {uf_hi:.4f} for this turbine"
        )
    for _ in range(_UF_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if utilization_factor(curve_at(mid)) < target_uf else (lo, mid)
        if bracket == (lo, hi):
            break       # a fixed point: every later step would repeat this one
        lo, hi = bracket
    curve = curve_at(0.5 * (lo + hi))
    if abs(utilization_factor(curve) - target_uf) > _UF_TOLERANCE:
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


#: Generator settings of the committed reference curves, by name; the curve
#: named "high-uf" ships as data/duration_high_uf.csv.
REFERENCE_CURVE_PARAMS = {
    "high-uf": dict(weibull_shape=8.0, cut_in=3.0, rated=11.0, cut_out=25.0, n_bins=100,
                    target_uf=0.46),
    "low-uf": dict(weibull_shape=8.0, cut_in=3.0, rated=11.0, cut_out=25.0, n_bins=100,
                   target_uf=0.35),
}


def reference_duration_curve(name: str) -> DurationCurve:
    """One of the committed reference curves, 'high-uf' (0.46) or 'low-uf' (0.35)."""
    if name not in REFERENCE_CURVE_PARAMS:
        raise KeyError(f"unknown reference curve {name!r}; "
                       f"choose from {sorted(REFERENCE_CURVE_PARAMS)}")
    file = f"duration_{name.replace('-', '_')}.csv"
    text = (resources.files("cableopt.data") / file).read_text(encoding="utf-8")
    return _parse_duration_lines(text.splitlines(), file)


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
    per_bin is built on first access from outcomes, each bin's fields as a tuple.
    """

    eta_annual: float
    energy_produced_potential: float
    energy_delivered: float
    energy_lost: float
    energy_curtailed: float
    outcomes: tuple[tuple, ...]

    @cached_property
    def per_bin(self) -> tuple[BinOutcome, ...]:
        return tuple(BinOutcome(*o) for o in self.outcomes)


@dataclass(frozen=True)
class StrategyOutcome:
    strategy: VoltageStrategy
    result: AnnualResult
    loss_reduction_pct: float


def annual_efficiency(
    spec: CableSpec,
    rated_farm_power: float,
    curve: DurationCurve,
    strategy: VoltageStrategy,
    constraints: Constraints | None = None,
) -> AnnualResult:
    """Annual efficiency of one strategy against a duration curve: compare_strategies of it alone."""
    return compare_strategies(spec, rated_farm_power, curve, [strategy], constraints)[0].result


def compare_strategies(
    spec: CableSpec,
    rated_farm_power: float,
    curve: DurationCurve,
    strategies: list[VoltageStrategy],
    constraints: Constraints | None = None,
) -> list[StrategyOutcome]:
    """Annual results plus loss reduction against the first (reference) strategy.

    Each kind of solve is done once for all the strategies.  Loss includes
    curtailed energy: loss = potential - delivered, and the reduction is
    (loss_ref - loss)/loss_ref in percent.  Raises Infeasible when a
    strategy cannot operate the cable at all (for instance a fixed voltage
    whose charging current alone exceeds the rating); individual over- or
    under-range production levels are handled by curtailment instead.
    """
    if not strategies:
        raise ValueError("strategy list must be non-empty")
    if not (rated_farm_power > 0.0 and math.isfinite(rated_farm_power)):
        raise ValueError(f"rated farm power must be > 0 W, got {rated_farm_power}")
    base = constraints if constraints is not None else Constraints()
    boxes = [base.with_v2_range(*strategy.v2_bounds()) for strategy in strategies]

    # every strategy's positive bins in one production solve
    levels = [power_pu * rated_farm_power for power_pu, _ in curve.bins]
    live = [(s, k) for s in range(len(strategies)) for k, p in enumerate(levels) if p > 0.0]
    served = {}
    if live:
        won = optimize_at_production_rows([(spec, levels[k], boxes[s]) for s, k in live])
        served = {row: (pg, v2, eta) for row, good, pg, v2, eta in zip(live, *(x.tolist() for x in (
            won.found & (won.eta > 0.0), won.p_grid, won.v2, won.eta))) if good}
    # the delivery solve's rows (see the module docstring) end with one
    # uncapped row per strategy: a strategy whose voltage window cannot even
    # carry the charging current finds no point there and is infeasible as
    # a whole, not merely curtailed
    top = [max([levels[k] for t, k in served if t == s], default=0.0) for s in range(len(strategies))]
    short = [(s, k) for s, k in live if (s, k) not in served]
    rest = [(s, k) for s, k in short if levels[k] <= top[s]]

    def delivery(rows):     # (p_farm, p_grid, v2) of each (strategy, cap) row, None where none is found
        won = max_feasible_power_rows([(spec, boxes[s], cap) for s, cap in rows])
        return [(pf, pg, v2) if ok else None for ok, pf, pg, v2 in zip(*(x.tolist() for x in (
            won.found, won.p_farm, won.p_grid, won.v2)))]

    found = delivery([(s, levels[k]) for s, k in rest] + [(s, None) for s in range(len(strategies))])
    capped, uncapped = dict(zip(rest, found)), found[len(rest):]
    for strategy, box, best in zip(strategies, boxes, uncapped):
        if best is None:
            exc = inoperable(spec, box)
            raise Infeasible(
                f"strategy {strategy.label} cannot operate this cable at all: {exc}") from exc
    # 1e-6 covers the rounding between the two injections: where the cap does
    # not bind, the capped solve finds the uncapped candidate, bit for bit
    over = [(s, k) for s, k in short if levels[k] > top[s]]
    capped.update((row, uncapped[row[0]]) for row in over)
    later = [(s, k) for s, k in over if levels[k] < uncapped[s][0] * (1.0 + 1e-6)]
    if later:
        capped.update(zip(later, delivery([(s, levels[k]) for s, k in later])))

    out = []
    for s, strategy in enumerate(strategies):
        outcomes = []       # BinOutcome's fields, bin by bin
        for k, (power_pu, weight) in enumerate(curve.bins):
            p = levels[k]
            if p <= 0.0:
                outcomes.append((power_pu, weight, 0.0, 0.0, 0.0, None, None, 0.0))
            elif (hit := served.get((s, k))) is not None:
                pg, v2, eta = hit
                outcomes.append((power_pu, weight, p, p, pg, v2, eta, 0.0))
            elif (hit := capped.get((s, k))) is not None and hit[1] > 0.0:
                # Required level not (sensibly) transmittable: deliver what the
                # cable can, capped by the available production
                pf, pg, v2 = hit
                outcomes.append((power_pu, weight, p, pf, pg, v2, pg / pf if pf > 0 else None, p - pf))
            else:
                # shut down: even the best delivery is non-positive, or the cap
                # admits no operating point
                outcomes.append((power_pu, weight, p, 0.0, 0.0, None, None, p))

        _, weight, p_farm, used, p_grid, _, _, cut = zip(*outcomes)
        potential = math.fsum(map(mul, weight, p_farm))
        delivered = math.fsum(map(mul, weight, p_grid))
        curtailed = math.fsum(map(mul, weight, cut))
        lost = math.fsum(map(mul, weight, map(sub, used, p_grid)))
        loss = potential - delivered
        if s == 0:
            loss_ref = loss
        out.append(StrategyOutcome(strategy, AnnualResult(
            eta_annual=delivered / potential if potential > 0.0 else 0.0,
            energy_produced_potential=potential,
            energy_delivered=delivered,
            energy_lost=lost,
            energy_curtailed=curtailed,
            outcomes=tuple(outcomes),
        ), 100.0 * (loss_ref - loss) / loss_ref if loss_ref > 0.0 else 0.0))
    return out
