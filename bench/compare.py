"""Spread of one result set, or a parent/change comparison of two.

    python3 bench/compare.py bench/out/results              # spread per metric
    python3 bench/compare.py PARENT_DIR CHANGE_DIR          # verdict per metric
    python3 bench/compare.py --trace 1 PARENT_DIR CHANGE_DIR

A result set is a directory of run records written by ``bench/run.py``.
Each (workload, metric) gets its own row with each side's median and
quartiles (``statistics.quantiles(values, n=4)``).  Two sets are paired by
seed; a pair is won by the side that reads better.  The verdict uses the
bound fixed in BENCHMARK.json:

* regressed  - the change's median is worse than the parent's by more
  than the bound;
* improved   - the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's quartile distance;
* unresolved - either side's quartile distance exceeds the bound (unless
  every change run beats every parent run);
* unchanged  - otherwise.

``error_rate`` (failed / attempted) is shown beside the metrics; any
increase is a regression.  Per-layer metrics (``--trace 1``) have no bound
and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path, trace: int) -> dict[str, dict[int, dict]]:
    """{workload: {seed: record}} of the runs with this trace flag."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        prov = rec["provenance"]
        if prov["trace"] != trace:
            continue
        rec["metrics"]["error_rate"] = {
            "value": rec["failed"] / rec["attempted"], "unit": "ratio"}
        out.setdefault(prov["workload"], {})[prov["seed"]] = rec
    return out


def load_spec() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    metrics["error_rate"] = {"name": "error_rate", "unit": "ratio", "better": "lower"}
    return metrics


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values: list[float]) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(parent: dict[int, float], change: dict[int, float], spec: dict) -> tuple[str, str]:
    """(pairs won by the change, verdict) under the metric's bound."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    won = f"{wins}/{len(seeds)}"
    pv, cv = list(parent.values()), list(change.values())
    p_med, p_q1, p_q3 = summary(pv)
    c_med = summary(cv)[0]
    gain = sign * (c_med - p_med)
    if spec["name"] == "error_rate":
        return won, "regressed" if c_med > p_med else "unchanged"
    bound = spec.get("bound")
    if bound is None:
        return won, "-"
    if gain < -bound * abs(p_med):
        return won, "regressed"
    if seeds and wins >= 0.9 * len(seeds) and gain > p_q3 - p_q1:
        return won, "improved"
    all_better = min(sign * c for c in cv) > max(sign * p for p in pv)
    if max(spread(pv), spread(cv)) > bound and not all_better:
        return won, "unresolved"
    return won, "unchanged"


def _fmt(values: list[float]) -> str:
    med, q1, q3 = summary(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", metavar="DIR", help="one or two result directories")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1 compares the per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two result directories")
    specs = load_spec()
    sets = [load_set(Path(d), args.trace) for d in args.sets]
    if not any(sets):
        print("no run records found", file=sys.stderr)
        return 2

    if len(sets) == 1:
        print(f"{'workload':9s} {'metric':48s} {'unit':6s} {'n':>3s} "
              f"{'median [q1, q3]':>36s} {'spread':>8s} {'bound':>6s}")
    else:
        print(f"{'workload':9s} {'metric':48s} {'unit':6s} {'parent median [q1, q3]':>36s} "
              f"{'change median [q1, q3]':>36s} {'won':>6s} verdict")
    workloads = sorted(set().union(*sets))
    for w in workloads:
        runs = [s.get(w, {}) for s in sets]
        names = sorted(set().union(*(r["metrics"] for side in runs for r in side.values())),
                       key=lambda n: (n not in specs, n))
        for name in names:
            cols = [{seed: r["metrics"][name]["value"] for seed, r in side.items()
                     if name in r["metrics"]} for side in runs]
            if not all(cols):
                continue
            unit = next(iter(runs[0].values()))["metrics"][name]["unit"]
            spec = specs.get(name, {"name": name, "better": "lower"})
            if len(sets) == 1:
                values = list(cols[0].values())
                bound = spec.get("bound")
                print(f"{w:9s} {name:48s} {unit:6s} {len(values):3d} {_fmt(values):>36s} "
                      f"{spread(values):8.4f} {bound if bound is not None else '-':>6}")
            else:
                won, v = verdict(cols[0], cols[1], spec)
                print(f"{w:9s} {name:48s} {unit:6s} {_fmt(list(cols[0].values())):>36s} "
                      f"{_fmt(list(cols[1].values())):>36s} {won:>6s} {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
