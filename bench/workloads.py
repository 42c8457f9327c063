"""Seeded workloads for the cableopt benchmark: inputs, operations and checks.

Every operation is one ``cableopt.cli.main(argv)`` call.  The program sees
only the generated argv, config files and duration-curve CSVs; everything
random comes from ``random.Random(f"{workload}:{seed}")``, so one seed
always gives byte-identical inputs.

Each workload yields operations in rounds.  A round stratifies the inputs
that drive the cost of an operation (route length and rated power for
``annual``, voltages for ``envelope``, the analyze/optimize mix and profile
size for ``point``), so that runs with different seeds carry the same mix
of work and their timings can be compared.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from cableopt.config import load_config
from cableopt.optimizer import max_feasible_power, optimize_scaling_unconstrained
from cableopt.results import read_tables

WORKLOADS = ("annual", "envelope", "point")

RATED_CURRENT_A = 1055.0
V2_MIN, V2_MAX = 0.4, 1.0
ANNUAL_BINS = 100
# Known search shortfalls of the current optimizer, accepted as answers but
# counted in Op.flags so that they stay visible and a fix shows:
# * optimize --p-farm-mw answers exit 3 from about 316 MW at 200 km, although
#   the maximum-delivery point injects 319.6 MW (the production search misses
#   the thin feasible sliver at the capability edge).  Exit 3 is accepted from
#   EDGE_BAND below that p_farm and counted as "edge_infeasible" up to it.
# * the free-voltage envelope row falls short of the best fixed-voltage row
#   at current-limited lengths, by up to 0.21 % on a 64 x 31 grid of 80-269 km
#   and 0.40-1.00 p.u.  Shortfalls above ENVELOPE_EXACT count as
#   "envelope_shortfall_rows"; above ENVELOPE_SEARCH_TOL the op fails.
# * the unconstrained optimum eta* breaks ties within the optimizer's 1e-9
#   toward lower alpha and ends 1.05e-9 below the maximum that a local
#   search without that tie band finds at 200 km (1-2e-9 over 150-250 km),
#   so an optimize --p-farm-mw answer can read up to that much above it
#   (1.03e-9 at 214.353 MW).  eta above eta* + ETA_EXACT counts as
#   "eta_star_exceeded"; above eta* + ETA_SEARCH_TOL the op fails.
EDGE_BAND = 0.02
FLAGS = ("edge_infeasible", "envelope_shortfall_rows", "eta_star_exceeded")
ENVELOPE_EXACT = 1e-6
ENVELOPE_SEARCH_TOL = 1e-2
ETA_EXACT = 1e-9
ETA_SEARCH_TOL = 1e-8


@dataclass
class Op:
    """One CLI call plus what its output must satisfy."""

    kind: str
    argv: list[str]
    units: int                       # work units this op completes
    check: Callable[["Op", int, str, str], list[str]]
    expect: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)   # counts the check noted, see above


# ---------------------------------------------------------------------------
# output parsing shared by the checks

def parse_output(text: str, json_mode: bool) -> dict[str, list[dict]]:
    """Sections of a CLI result as lists of {column: value} rows.

    CSV goes through ``results.read_tables``, JSON through ``json.loads``;
    a malformed document raises ValueError.
    """
    if json_mode:
        doc = json.loads(text)
        sections = {name: (sec["columns"], sec["rows"]) for name, sec in doc["sections"].items()}
        if "config_sha256" not in doc["provenance"]:
            raise ValueError("JSON output has no provenance hash")
    else:
        tables = read_tables(io.StringIO(text))
        sections = {name: (t.columns, t.rows) for name, t in tables.items()}
        if "# config_sha256: " not in text:
            raise ValueError("CSV output has no provenance footer")
    out = {}
    for name, (columns, rows) in sections.items():
        parsed = []
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(f"section {name}: row width {len(row)} != {len(columns)}")
            parsed.append(dict(zip(columns, row)))
        out[name] = parsed
    return out


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def _common(op: Op, code: int, out: str, allowed_codes=(0,)):
    """Exit-code check plus parsing; returns (problems, sections or None)."""
    if code not in allowed_codes:
        return [f"exit code {code}, expected {allowed_codes}"], None
    if code != 0:
        return [], None
    try:
        return [], parse_output(out, "--json" in op.argv)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output does not reload: {exc}"], None


# ---------------------------------------------------------------------------
# annual

def _write_curve(path: Path, rng: random.Random) -> float:
    """100-bin duration curve with a utilization factor in [0.30, 0.50].

    Levels are k/99; weights are seeded jitter tilted by exp(theta*p), with
    theta bisected to the drawn utilization factor.  Returns the factor the
    written numbers give.
    """
    target = rng.uniform(0.30, 0.50)
    levels = [k / (ANNUAL_BINS - 1) for k in range(ANNUAL_BINS)]
    base = [rng.uniform(0.5, 1.5) for _ in levels]

    def weights(theta):
        return [b * math.exp(theta * p) for b, p in zip(base, levels)]

    def uf(ws):
        return math.fsum(p * w for p, w in zip(levels, ws)) / math.fsum(ws)

    lo, hi = -40.0, 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if uf(weights(mid)) < target:
            lo = mid
        else:
            hi = mid
    ws = weights(0.5 * (lo + hi))
    total = math.fsum(ws)
    ws = [w / total for w in ws]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# seeded duration curve, target utilization factor {target!r}\n")
        fh.write("power_pu,weight\n")
        for p, w in zip(levels, ws):
            fh.write(f"{p!r},{w!r}\n")
    return uf(ws)


def _check_annual(op: Op, code: int, out: str, err: str) -> list[str]:
    problems, sections = _common(op, code, out)
    if sections is None:
        return problems
    rows = sections.get("annual", [])
    e = op.expect
    if [r["strategy"] for r in rows] != e["labels"]:
        return [f"strategies {[r['strategy'] for r in rows]} != {e['labels']}"]
    eta = {}
    for r in rows:
        pot, dlv, lost, curt = r["potential"], r["delivered"], r["lost"], r["curtailed"]
        if not _close(dlv + lost + curt, pot, 1e-9):
            problems.append(f"{r['strategy']}: delivered+lost+curtailed != potential")
        if not _close(pot, e["rated_mw"] * e["uf"], 1e-9):
            problems.append(f"{r['strategy']}: potential {pot} != rated*UF")
        if not 0.0 < r["eta_annual"] <= e["eta_star"]:
            problems.append(f"{r['strategy']}: eta_annual {r['eta_annual']} "
                            f"outside (0, eta*={e['eta_star']}]")
        if pot > 0 and not _close(r["eta_annual"], dlv / pot, 1e-9):
            problems.append(f"{r['strategy']}: eta_annual != delivered/potential")
        eta[r["strategy"]] = r["eta_annual"]
    fixed, rng_label = e["labels"][0], e["labels"][1]
    if eta[rng_label] < eta[fixed] - 1e-9:
        problems.append(f"eta({rng_label}) < eta({fixed})")
    if rows[0]["loss_reduction"] != 0.0:
        problems.append("reference strategy has nonzero loss reduction")
    return problems


def annual_ops(rng: random.Random, workdir: Path) -> Iterator[Op]:
    """One ``annual`` call per op: fixed:V, range:0.4:1.0 and a tap band.

    Each round of three ops is a Latin hypercube: route length, rated power,
    V and both tap parameters each take a value from a different third of
    their range in every op of the round.
    """

    def thirds(lo, hi, digits=3):
        bands = rng.sample(range(3), 3)
        return [round(lo + (b + rng.random()) * (hi - lo) / 3, digits) for b in bands]

    k = 0
    while True:
        for length, rated, v_fixed, tap_nom, tap_frac in zip(
                thirds(150.0, 250.0), thirds(250.0, 350.0), thirds(0.8, 1.0),
                thirds(0.9, 1.0), thirds(0.05, 0.15)):
            curve = workdir / f"annual-{k}.csv"
            uf = _write_curve(curve, rng)
            cfg = workdir / f"annual-{k}.json"
            cfg.write_text(json.dumps({"cable": {"length_km": length},
                                       "annual": {"rated_mw": rated}}), encoding="utf-8")
            study = load_config(cfg)
            _, eta_star = optimize_scaling_unconstrained(
                study.cable, (study.constraints.alpha_min, study.constraints.alpha_max))
            tap_lo, tap_hi = tap_nom * (1 - tap_frac), min(tap_nom * (1 + tap_frac), 1.0)
            labels = [f"fixed-{v_fixed:.3f}", "range-0.400-1.000",
                      f"range-{tap_lo:.3f}-{tap_hi:.3f}"]
            argv = ["annual", "--config", str(cfg), "--curve", str(curve),
                    "--strategy", f"fixed:{v_fixed}", "--strategy", "range:0.4:1.0",
                    "--strategy", f"tap:{tap_nom}:{tap_frac}"]
            yield Op("annual", argv, ANNUAL_BINS * 3, _check_annual,
                     {"labels": labels, "rated_mw": rated, "uf": uf, "eta_star": eta_star,
                      "config": str(cfg)})
            k += 1


# ---------------------------------------------------------------------------
# envelope

def _check_envelope(op: Op, code: int, out: str, err: str) -> list[str]:
    op.flags.clear()
    problems, sections = _common(op, code, out)
    if sections is None:
        return problems
    rows = sections.get("envelope", [])
    lengths, volts = op.expect["lengths"], op.expect["voltages"]
    n_fixed = len(lengths) * len(volts)
    if len(rows) != n_fixed + len(lengths):
        return [f"{len(rows)} rows, expected {n_fixed + len(lengths)}"]
    for r in rows:
        if r["p_grid_max"] > r["p_farm_at_max"] + 1e-9:
            problems.append(f"{r['length']} km {r['policy']}: p_grid_max > p_farm_at_max")
        if r["feasible"] == 0.0 and (r["p_grid_max"] != 0.0 or r["p_farm_at_max"] != 0.0):
            problems.append(f"{r['length']} km {r['policy']}: infeasible row is not 0 MW")
    for i, length in enumerate(lengths):
        fixed = rows[i * len(volts):(i + 1) * len(volts)]
        best = rows[n_fixed + i]
        if best["policy"] != "optimal" or not _close(best["length"], length, 1e-9):
            problems.append(f"optimal row {i} is {best['policy']} at {best['length']} km")
            continue
        for v, r in zip(volts, fixed):
            if r["policy"] != f"fixed-{v:g}" or not _close(r["length"], length, 1e-9):
                problems.append(f"row {r['policy']} at {r['length']} km, "
                                f"expected fixed-{v:g} at {length} km")
            elif r["p_grid_max"] > best["p_grid_max"] * (1 + ENVELOPE_SEARCH_TOL) + 1e-9:
                problems.append(f"{length} km: fixed-{v:g} delivers more than optimal")
            elif r["p_grid_max"] > best["p_grid_max"] * (1 + ENVELOPE_EXACT) + 1e-9:
                op.flags["envelope_shortfall_rows"] = op.flags.get("envelope_shortfall_rows", 0) + 1
    return problems


def envelope_ops(rng: random.Random, workdir: Path) -> Iterator[Op]:
    """One ``envelope`` call per op over ~80-420 km and four voltages.

    Steps of 10-20 km keep the length count near 23, reaching into the
    infeasible tail beyond about 270 km; the four voltages come one from
    each quarter of [0.4, 1.0].
    """
    cfg = workdir / "envelope.json"
    cfg.write_text(json.dumps({"cable": {"profile": "brakelmann-220kV-1000mm2"}}),
                   encoding="utf-8")
    while True:
        lengths = [round(rng.uniform(75.0, 85.0), 3)]
        while True:
            nxt = round(lengths[-1] + rng.uniform(10.0, 20.0), 3)
            if nxt > 420.0:
                break
            lengths.append(nxt)
        volts = sorted((round(0.4 + 0.15 * (q + rng.random()), 3) for q in range(4)),
                       reverse=True)
        argv = ["envelope", "--config", str(cfg),
                "--lengths-km", ",".join(f"{x:g}" for x in lengths),
                "--voltages", ",".join(f"{v:g}" for v in volts)]
        yield Op("envelope", argv, len(lengths) * (len(volts) + 1), _check_envelope,
                 {"lengths": lengths, "voltages": volts, "config": str(cfg)})


# ---------------------------------------------------------------------------
# point

def _check_analyze(op: Op, code: int, out: str, err: str) -> list[str]:
    problems, sections = _common(op, code, out)
    if sections is None:
        return problems
    e = op.expect
    flow = sections["flow"][0]
    for key in ("v2", "alpha"):
        if not _close(flow[key], e[key], 1e-9):
            problems.append(f"flow {key} {flow[key]} != requested {e[key]}")
    p_farm, p_grid, p_loss = flow["p_farm"], flow["p_grid"], flow["p_loss"]
    if abs(p_farm - p_grid - p_loss) > 1e-9 * abs(p_farm):
        problems.append("p_farm - p_grid - p_loss exceeds 1e-9 of p_farm")
    if not _close(flow["eta"], p_grid / p_farm, 1e-9):
        problems.append("eta != p_grid/p_farm")
    prof = sections.get("profile", [])
    n = e["n"]
    if [r["node"] for r in prof] != [float(k) for k in range(n + 1)]:
        return problems + [f"profile nodes are not 0..{n}"]
    seg_sum = math.fsum(r["segment_loss"] for r in prof)
    if not _close(seg_sum, p_loss, 1e-6):
        problems.append(f"sum of segment_loss {seg_sum} != p_loss {p_loss}")
    if not _close(prof[0]["v_pu"], e["alpha"] * e["v2"], 1e-9):
        problems.append("profile does not start at alpha*v2")
    if not _close(prof[-1]["v_pu"], e["v2"], 1e-9):
        problems.append("profile does not end at v2")
    return problems


def _check_optimize_p(op: Op, code: int, out: str, err: str) -> list[str]:
    op.flags.clear()
    e = op.expect
    problems, sections = _common(op, code, out, allowed_codes=(0, 3))
    if code == 3:
        if not err.startswith("infeasible:"):
            return [f"exit 3 without an infeasible message: {err!r}"]
        if e["p_mw"] < e["p_edge_mw"] * (1 - EDGE_BAND):
            return [f"{e['p_mw']} MW called infeasible, far below the "
                    f"{e['p_edge_mw']:.3f} MW capability"]
        if e["p_mw"] <= e["p_edge_mw"]:
            op.flags["edge_infeasible"] = 1
        return []
    if sections is None:
        return problems
    row = sections["optimum"][0]
    if row["mode"] != "at-production":
        problems.append(f"mode {row['mode']}")
    if not _close(row["p_farm"], e["p_mw"], 1e-9):
        problems.append(f"p_farm {row['p_farm']} != request {e['p_mw']}")
    if not V2_MIN * (1 - 1e-9) <= row["v2"] <= V2_MAX * (1 + 1e-9):
        problems.append(f"v2 {row['v2']} outside [{V2_MIN}, {V2_MAX}]")
    if max(row["i1"], row["i2"]) > RATED_CURRENT_A * (1 + 1e-9):
        problems.append(f"current {max(row['i1'], row['i2'])} A above rating")
    if not 0.0 < row["eta"] <= e["eta_star"] + ETA_SEARCH_TOL:
        problems.append(f"eta {row['eta']} outside (0, eta*={e['eta_star']}]")
    elif row["eta"] > e["eta_star"] + ETA_EXACT:
        op.flags["eta_star_exceeded"] = 1
    if not _close(row["p_farm"] - row["p_grid"], row["p_loss"], 1e-9, 1e-9 * row["p_farm"]):
        problems.append("p_farm - p_grid != p_loss")
    return problems


def _check_optimize_free(op: Op, code: int, out: str, err: str) -> list[str]:
    problems, sections = _common(op, code, out)
    if sections is None:
        return problems
    row = sections["optimum"][0]
    if row["mode"] != "unconstrained-scaling":
        problems.append(f"mode {row['mode']}")
    if not _close(row["eta"], op.expect["eta_star"], 1e-11):
        problems.append(f"eta {row['eta']} != eta* {op.expect['eta_star']}")
    if not (1.0 <= row["alpha"] <= 1.1 and 0.0 < row["beta"] < 90.0):
        problems.append(f"scaling ({row['alpha']}, {row['beta']} deg) outside the search box")
    return problems


POINT_LENGTH_KM = 200.0
_N_MIN, _N_MAX = 50, 2000


def point_ops(rng: random.Random, workdir: Path) -> Iterator[Op]:
    """Short interactive calls, ten per round in shuffled order.

    Six ``analyze --profile N`` (log N stratified over [50, 2000], two of
    them with --json), three ``optimize --p-farm-mw P`` at 200 km with P
    stratified over [20, 330] MW, and one unconstrained ``optimize``.
    """
    cfg = workdir / "point.json"
    cfg.write_text(json.dumps({"cable": {"length_km": POINT_LENGTH_KM}}), encoding="utf-8")
    study = load_config(cfg)
    _, eta_star = optimize_scaling_unconstrained(
        study.cable, (study.constraints.alpha_min, study.constraints.alpha_max))
    p_edge_mw = max_feasible_power(study.cable, study.constraints)[0] / 1e6
    log_lo, log_hi = math.log(_N_MIN), math.log(_N_MAX)
    while True:
        round_ops = []
        json_slots = set(rng.sample(range(6), 2))
        for s in range(6):
            n = int(round(math.exp(log_lo + (s + rng.random()) * (log_hi - log_lo) / 6)))
            v2 = round(rng.uniform(0.4, 1.0), 4)
            alpha = round(rng.uniform(1.0, 1.1), 4)
            beta = round(rng.uniform(1.0, 8.0), 4)
            argv = ["analyze", "--config", str(cfg), "--v2", str(v2), "--alpha", str(alpha),
                    "--beta-deg", str(beta), "--profile", str(n)]
            if s in json_slots:
                argv.append("--json")
            round_ops.append(Op("analyze", argv, 1, _check_analyze,
                                {"n": n, "v2": v2, "alpha": alpha, "config": str(cfg)}))
        for s in range(3):
            p = round(20.0 + (s + rng.random()) * 310.0 / 3, 3)
            argv = ["optimize", "--config", str(cfg), "--p-farm-mw", str(p)]
            round_ops.append(Op("optimize-p", argv, 1, _check_optimize_p,
                                {"p_mw": p, "eta_star": eta_star, "p_edge_mw": p_edge_mw,
                                 "config": str(cfg)}))
        round_ops.append(Op("optimize-free", ["optimize", "--config", str(cfg)], 1,
                            _check_optimize_free, {"eta_star": eta_star, "config": str(cfg)}))
        rng.shuffle(round_ops)
        yield from round_ops


GENERATORS = {"annual": annual_ops, "envelope": envelope_ops, "point": point_ops}


def make_ops(workload: str, seed: int, workdir: Path) -> Iterator[Op]:
    """Endless, seed-determined operation stream for one workload."""
    workdir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)
