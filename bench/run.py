"""cableopt benchmark: run one workload, check every output, report metrics.

    python3 bench/run.py --workload annual --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Run from anywhere inside a checkout that holds ``src/cableopt``.  Each
operation is one in-process ``cableopt.cli.main(argv)`` call on a single
thread, closed loop: the next call starts when the previous one returned.

With ``--trace 0`` the run times the operations untraced and reports the
end-to-end metrics, op times in reference seconds (see ``Speedometer``).
With ``--trace 1`` it alternates untraced and traced passes over a fixed
prefix of the same operation stream and reports the per-layer metrics plus
the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  A record
of the run, with provenance, goes to ``bench/out/results`` (see
``bench/compare.py``).  ``--workload all`` runs every workload in its own
process and prints one table.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for setup_s over one run.
SETUP_SAMPLES = 9
#: Fixed prefix of the operation stream replayed in each traced pass.
TRACE_OPS = {"annual": 1, "envelope": 2, "point": 100}
#: op_s_p90 needs ten samples beyond the 90th percentile.
P90_MIN_OPS = 100
#: Pause between two samples of the speed kernel.
SPEED_INTERVAL_S = 0.05
#: Kernel CPU time that defines one reference second (ref_s).
REF_KERNEL_S = 0.0004

_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import cableopt
from cableopt.config import load_config
load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


class SetupSampler:
    """setup_s: fresh interpreters that import cableopt and load the config.

    The samples are spread over the run (``due``), so that their median
    sees the same machine as the operations do; one discarded warm-up
    start fills caches and writes bytecode first.
    """

    def __init__(self, config_path: str, seconds: float):
        self.config_path = config_path
        self.interval = seconds / SETUP_SAMPLES
        self.samples: list[float] = []
        self._start_once()

    def _start_once(self) -> float:
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), self.config_path],
                              capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout.strip())

    def due(self, elapsed: float) -> None:
        """Take the samples scheduled up to `elapsed` seconds into the run."""
        while len(self.samples) < SETUP_SAMPLES and len(self.samples) * self.interval <= elapsed:
            self.samples.append(self._start_once())

    def median(self) -> float:
        self.due(float("inf"))
        return statistics.median(self.samples)


def _kernel() -> int:
    """Fixed pure-Python work, none of it cableopt's: complex scalar
    arithmetic and float formatting, about 0.4 ms."""
    z, acc = 0j, 0.0
    for k in range(600):
        z = z * 0.999 + complex(math.cos(k * 1e-3), math.sin(k * 1e-3))
        acc += abs(z)
    return len(",".join(f"{x:.12g}" for x in (acc, z.real, z.imag) * 40))


class Speedometer:
    """The CPU's speed over a run, from a kernel timed beside the ops.

    The shared host changes speed by up to 1.75x within seconds to
    minutes (see README), which moves whole runs.  A thread times the CPU
    time of a fixed kernel every SPEED_INTERVAL_S while the ops run; the
    process is pinned to one CPU (see ``pin_to_one_cpu``), so the kernel
    sees the speed the ops see.  Op times divided by the mean kernel time
    lose the host's drift and keep every change to cableopt: times in ref_s
    are wall seconds scaled to a CPU on which the kernel takes REF_KERNEL_S.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SPEED_INTERVAL_S):
            t0 = time.thread_time()
            _kernel()
            self.samples.append(time.thread_time() - t0)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        """Reference seconds per wall second of this run."""
        return REF_KERNEL_S / statistics.fmean(self.samples)


def pin_to_one_cpu() -> None:
    """Run this process, its threads and children on the lowest allowed CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Runner:
    """Executes operations against the in-process CLI and checks them."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.attempted = 0
        self.failed = 0
        self.flags: dict[str, int] = {}
        self.problems: list[str] = []

    def execute(self, op):
        """(exit code or None, stdout, stderr, seconds) of one main(argv) call."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the benchmark must keep running; record it
                code = None
                err.write(traceback.format_exc())
            dt = time.perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), dt

    def run_checked(self, op):
        """Execute and check one op; returns (seconds, stdout)."""
        code, out, err, dt = self.execute(op)
        self.attempted += 1
        if code is None:
            problems = [f"raised: {err.strip().splitlines()[-1]}"]
        else:
            try:
                problems = op.check(op, code, out, err)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                problems = [f"malformed output: {exc!r}"]
        if problems:
            self.fail(op, problems)
        for k, v in op.flags.items():
            self.flags[k] = self.flags.get(k, 0) + v
        return dt, out

    def fail(self, op, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op.argv[0]}: {'; '.join(problems)}")

    def check_repeat(self, op, first_out: str):
        """Re-run an operation; its output must be byte-identical."""
        code, out, err, _ = self.execute(op)
        if out != first_out:
            self.fail(op, ["re-run output is not byte-identical"])


def run_untraced(runner, first, ops, seconds, setup):
    # The first op runs once untimed, to warm caches and lazy set-up; its
    # timed run, the first of the loop, must repeat that output byte for byte.
    _, warm_out = runner.run_checked(first)
    times, units = [], 0
    with Speedometer() as speed:
        start = time.perf_counter()
        for op in chain([first], ops):
            setup.due(time.perf_counter() - start)
            dt, out = runner.run_checked(op)
            if not times and out != warm_out:
                runner.fail(op, ["re-run output is not byte-identical"])
            times.append(dt)
            units += op.units
            if time.perf_counter() - start >= seconds:
                break
    scale = speed.scale()
    wall_s, op_s_p50 = math.fsum(times), statistics.median(times)
    metrics = {
        "setup_s": (setup.median(), "s"),
        "work_per_ref_s": (units / (wall_s * scale), "1/ref_s"),
        "op_ref_s_p50": (op_s_p50 * scale, "ref_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"ops": len(times), "units": units, "work_per_s": units / wall_s,
             "op_s_p50": op_s_p50, "kernel_s": statistics.fmean(speed.samples),
             "kernel_samples": len(speed.samples), "op_times": times,
             "setup_samples": setup.samples}
    if len(times) >= P90_MIN_OPS:
        extra["op_s_p90"] = statistics.quantiles(times, n=10, method="inclusive")[-1]
    return metrics, extra


def run_traced(runner, ops, seconds, spans_path):
    from layertrace import TRACED, Tracer, layer_stats, write_spans
    from workloads import FLAGS

    ops = list(ops)
    plain_walls, traced_walls, self_by_fn = [], [], {}
    first_stats = first_out = None
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        wall = 0.0
        for op in ops:
            dt, out = runner.run_checked(op)
            wall += dt
            if first_out is None:
                first_out = out
        plain_walls.append(wall)

        tracer = Tracer()
        wall = 0.0
        flags_before = dict(runner.flags)
        with tracer.installed():
            for k, op in enumerate(ops):
                tracer.op = k
                wall += runner.run_checked(op)[0]
        traced_walls.append(wall)
        spans = tracer.finished()
        stats = layer_stats(spans)
        if first_stats is None:
            first_stats = stats
            first_flags = {k: runner.flags.get(k, 0) - flags_before.get(k, 0) for k in FLAGS}
            write_spans(spans, spans_path)
        for fn, st in stats.items():
            self_by_fn.setdefault(fn, []).append(st["self_s"])
    runner.check_repeat(ops[0], first_out)

    metrics = {}
    for mod, fn in TRACED:
        name = f"{mod}.{fn}"
        st = first_stats[name]
        metrics[f"{name}.calls"] = (st["calls"], "count")
        metrics[f"{name}.self_s"] = (statistics.median(self_by_fn[name]), "s")
        metrics[f"{name}.failed"] = (st["failed"], "count")
    opt = first_stats["optimizer.optimize_at_production"]
    # no calls means no wasted search: report the ratio as 1
    useful = (opt["calls"] - opt["failed"]) / opt["calls"] if opt["calls"] else 1.0
    metrics["optimizer.optimize_at_production.useful_ratio"] = (useful, "ratio")
    metrics["results.write_tables.bytes"] = (first_stats["results.write_tables"]["amount"], "bytes")
    metrics["cable_model.segment_profile.segments"] = (
        first_stats["cable_model.segment_profile"]["amount"], "count")
    # known search shortfalls seen in the outputs (see workloads.py)
    metrics["optimizer.optimize_at_production.edge_infeasible"] = (
        first_flags["edge_infeasible"], "count")
    metrics["optimizer.transfer_envelope.shortfall_rows"] = (
        first_flags["envelope_shortfall_rows"], "count")
    metrics["optimizer.optimize_scaling_unconstrained.eta_star_exceeded"] = (
        first_flags["eta_star_exceeded"], "count")
    plain, traced = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace_overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    metrics["trace_ops"] = (len(ops), "count")
    metrics["trace_op_wall_s"] = (traced, "s")
    accounted = sum(m[0] for k, m in metrics.items() if k.endswith(".self_s"))
    extra = {"ops": runner.attempted, "passes": len(traced_walls),
             "self_s_share_of_op_wall": accounted / traced}
    return metrics, extra


def provenance(args) -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "machine": platform.machine()}


def run_one(args) -> int:
    pin_to_one_cpu()
    import cableopt.cli
    from workloads import FLAGS, make_ops

    out_dir = BENCH_DIR / "out"
    workdir = out_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = Path(args.results_dir) if args.results_dir else out_dir / "results"
    try:
        ops = make_ops(args.workload, args.seed, workdir)
        runner = Runner(cableopt.cli)
        if args.trace:
            (out_dir / "spans").mkdir(parents=True, exist_ok=True)
            spans_path = out_dir / "spans" / f"{args.workload}-seed{args.seed}.csv"
            metrics, extra = run_traced(runner, islice(ops, TRACE_OPS[args.workload]),
                                        args.seconds, spans_path)
        else:
            first = next(ops)
            setup = SetupSampler(first.expect["config"], args.seconds)
            metrics, extra = run_untraced(runner, first, ops, args.seconds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra["error_rate"] = runner.failed / runner.attempted
    for k in FLAGS:
        extra[k] = runner.flags.get(k, 0)
    record = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "problems": runner.problems,
        "provenance": provenance(args),
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-trace{args.trace}-seed{args.seed}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    for k, (v, u) in metrics.items():
        print(f"{args.workload:9s} {k:60s} {v:14.6g} {u}")
    for k, v in extra.items():
        if not isinstance(v, list):
            print(f"{args.workload:9s} {k:60s} {v:14.6g}")
    for p in runner.problems:
        print(f"FAILED {p}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one table of every metric."""
    from workloads import WORKLOADS

    ok = True
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.results_dir:
            cmd += ["--results-dir", args.results_dir]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{w:9s} attempted {result['attempted']}, failed {result['failed']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["annual", "envelope", "point", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results-dir", help="where to write the run record "
                        "(default: bench/out/results)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "cableopt" / "__init__.py").is_file():
        print(f"error: no cableopt sources at {SRC}; run inside a cableopt checkout",
              file=sys.stderr)
        return 2
    # One thread, here and in the setup_s interpreters: numpy's BLAS would
    # start a spinning thread per core at import, which makes setup_s swing
    # by a factor of two on a shared 2-core box.  cableopt makes no BLAS calls.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)

if __name__ == "__main__":
    sys.exit(main())
