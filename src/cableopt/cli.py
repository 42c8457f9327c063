"""Command-line front end.

Subcommands: analyze, optimize, sweep, annual, envelope.  Results are
comma-separated tables (or the same content as JSON with --json) with a
unit header and a provenance footer; angles are degrees at this surface
and radians internally.

Exit codes: 0 success; 2 `config error:` for a ConfigError or any other
ValueError (bad configuration or usage); 3 `infeasible:` for an Infeasible
(infeasible or degenerate request).  Only main prints these lines.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys
from contextlib import ExitStack

from . import __version__
from .annual_energy import (
    REFERENCE_CURVE_PARAMS,
    compare_strategies,
    read_duration_csv,
    reference_duration_curve,
    synth_duration_curve,
    utilization_factor,
)
from .cable_model import MAX_POINTS, segment_profile
from .errors import ConfigError, Infeasible
from .config import StudyConfig, load_config, normalized_si, parse_strategy
from .optimizer import (
    optimize_at_production,
    optimize_at_production_rows,
    optimize_scaling_unconstrained,
    transfer_envelope,
)
from .power_flow import OperatingPoint, VoltageScaling, solve_flow
from .results import Document, ResultTable, provenance_digest, write_tables


def _binding_label(point) -> str:
    names = sorted(c.value for c in point.binding_constraints)
    return "+".join(names) if names else "-"


def _float_range(start: float, stop: float, step: float):
    """Yield start + k*step for k = 0, 1, ... up to stop inclusive; at most MAX_POINTS values."""
    if not step > 0:
        raise ValueError("step must be > 0")
    k = 0
    while (v := start + k * step) <= stop * (1 + 1e-12):
        if k == MAX_POINTS:
            raise ValueError(f"more than {MAX_POINTS} points")
        yield v
        k += 1


def _parse_float_list(text: str, what: str) -> list[float]:
    """Comma list `a,b,c` or range `start:stop:step` (see _float_range)."""
    try:
        if ":" in text:
            start_s, stop_s, step_s = text.split(":")
            out = list(_float_range(float(start_s), float(stop_s), float(step_s)))
            if not out:
                raise ValueError("empty range")
            return out
        out = [float(tok) for tok in text.split(",") if tok.strip()]
        if not out:
            raise ValueError("empty list")
        return out
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from exc


def _resolve_curve(cfg: StudyConfig, args):
    if args.curve:
        return read_duration_csv(args.curve), f"file:{args.curve}"
    if args.builtin_curve:
        return reference_duration_curve(args.builtin_curve), f"builtin:{args.builtin_curve}"
    if args.synth_uf is not None:
        curve = synth_duration_curve(
            weibull_shape=args.weibull_shape,
            cut_in=args.cut_in,
            rated=args.rated_speed,
            cut_out=args.cut_out,
            n_bins=args.n_bins,
            target_uf=args.synth_uf,
        )
        return curve, f"synth:uf={args.synth_uf}"
    block = cfg.annual
    if "curve" in block:
        name = block["curve"]
        if name in REFERENCE_CURVE_PARAMS:
            return reference_duration_curve(name), f"builtin:{name}"
        return read_duration_csv(name), f"file:{name}"
    raise ConfigError("no duration curve given: use --curve, --builtin-curve or --synth-uf")


def _emit(args, cfg: StudyConfig, tables: list[ResultTable],
          extra_provenance: dict | None = None) -> int:
    document = Document(tables, args.json)
    if (name := document.nonfinite()) is not None and not args.allow_infeasible:
        raise Infeasible(f"section {name} contains non-finite values; "
                         f"rerun with --allow-infeasible to emit them")
    provenance = {
        "config_sha256": provenance_digest(normalized_si(cfg)),
        "tool": f"cableopt/{__version__}",
    }
    if extra_provenance:
        provenance.update(extra_provenance)
    echo = normalized_si(cfg) if args.echo_config else None
    with ExitStack() as stack:
        if args.out:
            try:
                fh = stack.enter_context(open(args.out, "w", encoding="utf-8"))
            except OSError as exc:
                raise ConfigError(f"cannot write output {args.out}: {exc}") from exc
        else:
            fh = sys.stdout
        write_tables(fh, document, provenance, config_echo=echo)
    return 0


# ---------------------------------------------------------------------------
# subcommands

def _cmd_analyze(args, cfg: StudyConfig) -> int:
    spec = cfg.cable
    scaling = VoltageScaling.from_degrees(args.alpha, args.beta_deg)
    flow = solve_flow(spec, OperatingPoint(args.v2, scaling))
    # degenerate: no positive through power (covers xi = 1, where both ends
    # merely feed the charging losses, and reversed-flow points); the row
    # also flags a NaN efficiency, as from powers that overflow
    degenerate = flow.eta is None or flow.p_grid <= 0.0
    if degenerate and not args.allow_infeasible:
        raise Infeasible(f"no through power at alpha={args.alpha}, "
                         f"beta={args.beta_deg} deg (p_farm = {flow.p_farm/1e6:.6g} MW, "
                         f"p_grid = {flow.p_grid/1e6:.6g} MW)")
    eta = flow.eta if flow.eta is not None else math.nan

    table = ResultTable(
        "flow",
        ["v2", "alpha", "beta", "i1", "i2", "p_farm", "q_farm",
         "p_grid", "q_grid", "p_loss", "eta", "degenerate"],
        ["pu", "-", "deg", "A", "A", "MW", "Mvar", "MW", "Mvar", "MW", "-", "flag"],
    )
    table.add(args.v2, args.alpha, args.beta_deg, abs(flow.i1), abs(flow.i2),
              flow.p_farm / 1e6, flow.q_farm / 1e6, flow.p_grid / 1e6,
              flow.q_grid / 1e6, flow.p_loss / 1e6, eta, degenerate or math.isnan(eta))
    tables = [table]

    if args.profile:
        vph = spec.phase_voltage
        v2_volts = args.v2 * vph
        prof = segment_profile(spec, scaling.xi * v2_volts, v2_volts, args.profile)
        voltages = prof.node_voltages
        v_mag = list(map(abs, voltages))
        step = spec.length_km / args.profile
        nodes = range(len(voltages))
        tables.append(ResultTable(
            "profile",
            ["node", "position", "v_mag", "v_pu", "v_angle", "i_mag", "segment_loss"],
            ["-", "km", "kV", "pu", "deg", "A", "MW"],
            [list(nodes),
             [k * step for k in nodes],
             [m / 1e3 for m in v_mag],
             [m / vph for m in v_mag],
             list(map(math.degrees, map(cmath.phase, voltages))),
             [*map(abs, prof.node_currents), abs(prof.grid_end_current)],
             [p / 1e6 for p in prof.segment_losses] + [0.0]],
        ))
    return _emit(args, cfg, tables)


def _cmd_optimize(args, cfg: StudyConfig) -> int:
    spec = cfg.cable
    if args.p_farm_mw is not None:
        point = optimize_at_production(spec, args.p_farm_mw * 1e6, cfg.constraints)
        label = "at-production"
    else:
        scaling, eta = optimize_scaling_unconstrained(
            spec, (cfg.constraints.alpha_min, cfg.constraints.alpha_max))
        table = ResultTable(
            "optimum",
            ["mode", "alpha", "beta", "eta"],
            ["-", "-", "deg", "-"],
        )
        table.add("unconstrained-scaling", scaling.alpha, scaling.beta_deg, eta)
        return _emit(args, cfg, [table])

    flow = point.flow
    table = ResultTable(
        "optimum",
        ["mode", "p_farm", "eta", "v2", "alpha", "beta", "i1", "i2",
         "p_grid", "p_loss", "binding"],
        ["-", "MW", "-", "pu", "-", "deg", "A", "A", "MW", "MW", "-"],
    )
    table.add(label, flow.p_farm / 1e6,
              flow.eta if flow.eta is not None else float("nan"),
              point.operating_point.v2, point.operating_point.scaling.alpha,
              point.operating_point.scaling.beta_deg,
              abs(flow.i1), abs(flow.i2), flow.p_grid / 1e6, flow.p_loss / 1e6,
              _binding_label(point))
    return _emit(args, cfg, [table])


def _cmd_sweep(args, cfg: StudyConfig) -> int:
    spec = cfg.cable
    block = cfg.sweep
    p_min = args.p_min_mw if args.p_min_mw is not None else block.get("p_min_mw", 10.0)
    p_max = args.p_max_mw if args.p_max_mw is not None else block.get("p_max_mw", 300.0)
    p_step = args.p_step_mw if args.p_step_mw is not None else block.get("p_step_mw", 10.0)
    if not (p_min > 0 and p_max >= p_min and p_step > 0):
        raise ConfigError(f"bad sweep range {p_min}:{p_max}:{p_step}")
    try:
        levels = list(_float_range(p_min, p_max, p_step))
    except ValueError as exc:
        raise ConfigError(f"sweep range {p_min}:{p_max}:{p_step}: {exc}") from exc

    voltages = (_parse_float_list(args.voltages, "--voltages")
                if args.voltages else block.get("voltages", []))
    policies = [(f"fixed-{v:g}", cfg.constraints.fixed_v2(v)) for v in voltages]
    optimal_range = args.optimal_range or block.get("optimal_range")
    if optimal_range:
        lo, hi = optimal_range
        policies.append((f"optimal-{lo:g}-{hi:g}", cfg.constraints.with_v2_range(lo, hi)))
    if not policies:
        raise ConfigError("sweep needs --voltages and/or --optimal-range")

    table = ResultTable(
        "sweep",
        ["policy", "p_farm", "feasible", "eta", "v2", "alpha", "beta"],
        ["-", "MW", "flag", "-", "pu", "-", "deg"],
    )
    rows = [(label, level * 1e6, cons) for label, cons in policies for level in levels]
    won = optimize_at_production_rows([(spec, p, cons) for _, p, cons in rows])
    for (label, p, _), found, p_farm, eta, v2, alpha, beta in zip(rows, *(x.tolist() for x in (
            won.found, won.p_farm, won.eta, won.v2, won.alpha, won.beta))):
        if not found:
            table.add(label, p / 1e6, False, 0.0, 0.0, 0.0, 0.0)
            continue
        table.add(label, p / 1e6, True, eta if p_farm > 0.0 else 0.0, v2, alpha, math.degrees(beta))
    return _emit(args, cfg, [table])


def _cmd_annual(args, cfg: StudyConfig) -> int:
    spec = cfg.cable
    block = cfg.annual
    rated_mw = args.rated_mw if args.rated_mw is not None else block.get("rated_mw")
    if rated_mw is None:
        raise ConfigError("annual needs --rated-mw (or annual.rated_mw in the config)")
    curve, curve_tag = _resolve_curve(cfg, args)
    strategy_texts = args.strategy or block.get("strategies")
    if not strategy_texts:
        raise ConfigError("annual needs at least one --strategy (first one is the reference)")
    strategies = [parse_strategy(s) for s in strategy_texts]

    outcomes = compare_strategies(spec, rated_mw * 1e6, curve, strategies, cfg.constraints)
    table = ResultTable(
        "annual",
        ["strategy", "eta_annual", "potential", "delivered", "lost",
         "curtailed", "loss_reduction"],
        ["-", "-", "MW", "MW", "MW", "MW", "%"],
    )
    for o in outcomes:
        r = o.result
        table.add(o.strategy.label, r.eta_annual,
                  r.energy_produced_potential / 1e6, r.energy_delivered / 1e6,
                  r.energy_lost / 1e6, r.energy_curtailed / 1e6,
                  o.loss_reduction_pct)
    extra = {"duration_curve": curve_tag,
             "utilization_factor": f"{utilization_factor(curve):.6f}"}
    return _emit(args, cfg, [table], extra)


def _cmd_envelope(args, cfg: StudyConfig) -> int:
    spec = cfg.cable
    block = cfg.envelope
    lengths = (_parse_float_list(args.lengths_km, "--lengths-km")
               if args.lengths_km else block.get("lengths_km"))
    voltages = (_parse_float_list(args.voltages, "--voltages")
                if args.voltages else block.get("voltages"))
    if not lengths or not voltages:
        raise ConfigError("envelope needs --lengths-km and --voltages")

    result = transfer_envelope(spec, lengths, voltages, cfg.constraints)
    table = ResultTable(
        "envelope",
        ["length", "policy", "v2", "p_grid_max", "p_farm_at_max", "feasible"],
        ["km", "-", "pu", "MW", "MW", "flag"],
    )
    for pt in result.points:
        table.add(pt.length_km, f"fixed-{pt.v2:g}", pt.v2, pt.p_grid_max / 1e6,
                  pt.p_farm_at_max / 1e6, pt.feasible)
    for pt in result.envelope:
        table.add(pt.length_km, "optimal", pt.v2, pt.p_grid_max / 1e6,
                  pt.p_farm_at_max / 1e6, pt.feasible)
    return _emit(args, cfg, [table])


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later one."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON study configuration")
    common.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    common.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    common.add_argument("--allow-infeasible", action="store_true",
                        help="emit rows containing NaN/degenerate markers instead of failing")
    common.add_argument("--echo-config", action="store_true",
                        help="prepend the normalized SI configuration for audit")

    parser = argparse.ArgumentParser(
        prog="cableopt",
        description="Losses, optimal voltages and annual efficiency of HVAC export cables.",
    )
    parser.add_argument("--version", action="version", version=f"cableopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="solve one operating point (optionally with internal profile)")
    p.add_argument("--v2", type=float, default=1.0, help="grid-side voltage [p.u.]")
    p.add_argument("--alpha", type=float, default=1.0, help="wind-side magnitude ratio")
    p.add_argument("--beta-deg", type=float, default=0.0, help="wind-side phase lead [deg]")
    p.add_argument("--profile", type=int, default=0, metavar="N",
                   help="emit the internal profile with N segments")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("optimize", parents=[common],
                       help="optimal scaling, or the constrained optimum at a production level")
    p.add_argument("--p-farm-mw", type=float, default=None,
                   help="production level [MW]; omit for the unconstrained scaling optimum")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", parents=[common],
                       help="efficiency vs production for fixed and optimal-range policies")
    p.add_argument("--p-min-mw", type=float, default=None)
    p.add_argument("--p-max-mw", type=float, default=None)
    p.add_argument("--p-step-mw", type=float, default=None)
    p.add_argument("--voltages", help="fixed-voltage policies, e.g. 0.4,0.6,0.8,1.0")
    p.add_argument("--optimal-range", nargs=2, type=float, metavar=("LO", "HI"),
                   help="add an optimal variable-voltage policy on [LO, HI] p.u.")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("annual", parents=[common],
                       help="annual efficiency of strategies over a duration curve")
    p.add_argument("--rated-mw", type=float, default=None, help="rated farm power [MW]")
    source = p.add_mutually_exclusive_group()     # one duration curve; a flag beats annual.curve
    source.add_argument("--curve", metavar="PATH", help="duration-curve CSV (power_pu,weight)")
    source.add_argument("--builtin-curve", choices=list(REFERENCE_CURVE_PARAMS),
                        help="use a committed reference curve")
    source.add_argument("--synth-uf", type=float, default=None,
                        help="synthesize a curve tuned to this utilization factor")
    p.add_argument("--weibull-shape", type=float, default=8.0)
    p.add_argument("--cut-in", type=float, default=3.0)
    p.add_argument("--rated-speed", type=float, default=11.0)
    p.add_argument("--cut-out", type=float, default=25.0)
    p.add_argument("--n-bins", type=int, default=100)
    p.add_argument("--strategy", action="append", metavar="SPEC",
                   help="fixed:V | range:LO:HI | tap:NOM:FRAC; repeatable, first is reference")
    p.set_defaults(func=_cmd_annual)

    p = sub.add_parser("envelope", parents=[common],
                       help="maximum power transfer vs cable length and operating voltage")
    p.add_argument("--lengths-km", help="e.g. 100,150,200 or 100:400:10")
    p.add_argument("--voltages", help="fixed operating voltages, e.g. 1.0,0.8,0.6,0.4")
    p.set_defaults(func=_cmd_envelope)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(args, cfg)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ConfigError, and the domain validation of user-supplied values (voltages, powers, ...)
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
