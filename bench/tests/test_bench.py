"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

    python3 -m pytest -q bench/tests
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cableopt.cli  # noqa: E402
import cableopt.config  # noqa: E402
import cableopt.results  # noqa: E402
from cableopt.cli import main as cli_main  # noqa: E402
from layertrace import TRACED, Tracer, layer_stats, self_times  # noqa: E402
from run import Runner, Speedometer  # noqa: E402
from workloads import WORKLOADS, Op, _check_annual, make_ops  # noqa: E402


def _inputs(workload, seed, workdir, n):
    """argv (workdir-relative) and generated file contents of the first n ops."""
    ops = list(islice(make_ops(workload, seed, workdir), n))
    argvs = [[a.replace(str(workdir), "<work>") for a in op.argv] for op in ops]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return argvs, files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = _inputs(workload, 7, tmp_path / "a", 4)
    assert first == _inputs(workload, 7, tmp_path / "b", 4)
    assert first != _inputs(workload, 8, tmp_path / "c", 4)


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _first(workload, kind, tmp_path):
    return next(op for op in make_ops(workload, 3, tmp_path) if op.kind == kind)


def _replace_cell(text, section, column, transform, row=0):
    """CSV text with one cell of a section rewritten."""
    lines = text.splitlines(keepends=True)
    start = lines.index(f"# section: {section}\n")
    header = lines[start + 1].strip().split(",")
    idx = start + 3 + row
    cells = lines[idx].rstrip("\n").split(",")
    col = header.index(column)
    cells[col] = transform(cells[col])
    lines[idx] = ",".join(cells) + "\n"
    return "".join(lines)


def _analyze_op(tmp_path):
    op = _first("point", "analyze", tmp_path)
    if "--json" in op.argv:
        op.argv.remove("--json")
    n = 40
    op.argv[op.argv.index("--profile") + 1] = str(n)
    op.expect["n"] = n
    return op


def test_untampered_outputs_pass(tmp_path):
    for op in (_analyze_op(tmp_path), _first("point", "optimize-free", tmp_path)):
        code, out = _run(op.argv)
        assert op.check(op, code, out, "") == []


def test_tampered_analyze_output_fails(tmp_path):
    op = _analyze_op(tmp_path)
    code, out = _run(op.argv)
    perturbed = _replace_cell(out, "flow", "p_loss", lambda c: repr(float(c) * (1 + 1e-6)))
    assert op.check(op, code, perturbed, "")
    lines = out.splitlines(keepends=True)
    dropped = lines[:-4] + lines[-3:]          # one profile row less
    assert op.check(op, code, "".join(dropped), "")
    assert op.check(op, code, out[: len(out) // 2], "")
    assert op.check(op, 2, out, "")


def test_tampered_optimize_output_fails(tmp_path):
    op = _first("point", "optimize-p", tmp_path)
    op.expect["p_mw"] = 150.0
    op.argv[op.argv.index("--p-farm-mw") + 1] = "150.0"
    code, out = _run(op.argv)
    assert op.check(op, code, out, "") == []
    assert op.check(op, code, _replace_cell(out, "optimum", "p_farm", lambda c: "150.001"), "")
    assert op.check(op, code, _replace_cell(out, "optimum", "i1", lambda c: "1056"), "")
    # eta a hair above the unconstrained eta* is its known shortfall, counted
    eta_star = op.expect["eta_star"]
    near = _replace_cell(out, "optimum", "eta", lambda c: repr(eta_star + 3e-9))
    assert op.check(op, code, near, "") == []
    assert op.flags == {"eta_star_exceeded": 1}
    far = _replace_cell(out, "optimum", "eta", lambda c: repr(eta_star + 2e-8))
    assert op.check(op, code, far, "")
    # exit 3 is an answer only near the capability edge, counted below it
    assert op.check(op, 3, "", "infeasible: no operating point")
    op.expect["p_mw"] = op.expect["p_edge_mw"] * 0.995
    assert op.check(op, 3, "", "infeasible: no operating point") == []
    assert op.flags == {"edge_infeasible": 1}
    op.expect["p_mw"] = op.expect["p_edge_mw"] * 1.01
    assert op.check(op, 3, "", "infeasible: no operating point") == []
    assert op.flags == {}


def test_tampered_envelope_output_fails(tmp_path):
    op = _first("envelope", "envelope", tmp_path)
    op.expect["lengths"] = [100.0, 330.0]
    op.argv[op.argv.index("--lengths-km") + 1] = "100,330"
    code, out = _run(op.argv)
    assert op.check(op, code, out, "") == []
    lines = out.splitlines(keepends=True)
    assert op.check(op, code, "".join(lines[:4] + lines[5:]), "")      # row dropped
    n_fixed = 2 * len(op.expect["voltages"])
    rows = cableopt.results.read_tables(io.StringIO(out))["envelope"].rows
    best_100 = rows[n_fixed][3]
    over = _replace_cell(out, "envelope", "p_grid_max", lambda c: repr(best_100 * 1.02))
    assert any("more than optimal" in p for p in op.check(op, code, over, ""))
    # a shortfall within the search tolerance is an answer, but counted
    near = _replace_cell(out, "envelope", "p_grid_max", lambda c: repr(best_100 * 1.001))
    near = _replace_cell(near, "envelope", "p_farm_at_max", lambda c: repr(best_100 * 1.1))
    assert op.check(op, code, near, "") == []
    assert op.flags == {"envelope_shortfall_rows": 1}
    infeasible = next(k for k, r in enumerate(rows) if r[5] == 0.0)
    nonzero = _replace_cell(out, "envelope", "p_grid_max", lambda c: "1", row=infeasible)
    assert any("not 0 MW" in p for p in op.check(op, code, nonzero, ""))


def test_tampered_annual_output_fails(tmp_path):
    curve = tmp_path / "curve.csv"
    curve.write_text("power_pu,weight\n0.0,0.5\n0.5,0.25\n1.0,0.25\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cable": {"length_km": 200.0}, "annual": {"rated_mw": 100.0}}))
    study = cableopt.config.load_config(cfg)
    eta_star = cableopt.optimize_scaling_unconstrained(study.cable)[1]
    argv = ["annual", "--config", str(cfg), "--curve", str(curve), "--strategy", "fixed:0.9",
            "--strategy", "range:0.4:1.0", "--strategy", "tap:0.95:0.1"]
    op = Op("annual", argv, 9, _check_annual,
            {"labels": ["fixed-0.900", "range-0.400-1.000", "range-0.855-1.000"],
             "rated_mw": 100.0, "uf": 0.375, "eta_star": eta_star})
    code, out = _run(argv)
    assert _check_annual(op, code, out, "") == []
    lost_up = _replace_cell(out, "annual", "lost", lambda c: repr(float(c) + 0.01))
    assert _check_annual(op, code, lost_up, "")
    lines = out.splitlines(keepends=True)
    assert _check_annual(op, code, "".join(lines[:4] + lines[5:]), "")
    op.expect["eta_star"] = 0.9
    assert _check_annual(op, code, out, "")


class _FakeCli:
    """Stands in for cableopt.cli, printing a fixed (possibly tampered) text."""

    def __init__(self, texts):
        self.texts = list(texts)

    def main(self, argv):
        print(self.texts.pop(0), end="")
        return 0


def test_runner_counts_tampered_output_and_nondeterminism(tmp_path):
    op = _analyze_op(tmp_path)
    code, out = _run(op.argv)
    bad = _replace_cell(out, "flow", "p_farm", lambda c: repr(float(c) * 1.001))
    runner = Runner(_FakeCli([out, bad, out + "# extra\n"]))
    runner.run_checked(op)
    assert (runner.attempted, runner.failed) == (1, 0)
    runner.run_checked(op)
    assert (runner.attempted, runner.failed) == (2, 1)
    runner.check_repeat(op, out)
    assert runner.failed == 2
    runner = Runner(_FakeCli(["# section: flow\nv2\n# units: pu\n1.0\n# config_sha256: x\n"]))
    runner.run_checked(op)                          # a section without the checked columns
    assert runner.failed == 1 and "malformed output" in runner.problems[0]


def test_traced_self_times_sum_to_op_wall_time(tmp_path):
    op = _analyze_op(tmp_path)
    op.argv[op.argv.index("--profile") + 1] = "1500"
    op.expect["n"] = 1500
    originals = {(m, f): getattr(sys.modules[f"cableopt.{m}"], f) for m, f in TRACED}
    runner = Runner(cableopt.cli)
    runner.execute(op)                              # warm caches
    tracer = Tracer()
    with tracer.installed():
        tracer.op = 0
        t0 = time.perf_counter()
        code, out, err, _ = runner.execute(op)
        wall = time.perf_counter() - t0
    assert code == 0 and op.check(op, code, out, err) == []
    spans = tracer.finished()
    assert {s.op for s in spans} == {0}
    # self times partition the root span, which is all but the redirect
    # set-up and the timer reads of the op's wall time (stated: 2% + 1 ms)
    assert sum(self_times(spans)) == pytest.approx(wall, rel=0.02, abs=1e-3)
    stats = layer_stats(spans)
    for name in ("cli.main", "config.load_config", "power_flow.solve_flow",
                 "cable_model.segment_profile", "results.write_tables"):
        assert stats[name]["calls"] == 1, name
    assert stats["cable_model.segment_profile"]["amount"] == 1500
    assert stats["results.write_tables"]["amount"] == len(out)
    # wrappers are gone afterwards
    for (m, f), fn in originals.items():
        assert getattr(sys.modules[f"cableopt.{m}"], f) is fn
    assert cableopt.cli.segment_profile is originals[("cable_model", "segment_profile")]


def test_speedometer_samples_while_running_and_stops():
    with Speedometer() as speed:
        time.sleep(0.3)
    assert len(speed.samples) >= 3 and all(k > 0 for k in speed.samples)
    assert speed.scale() > 0
    assert not speed._thread.is_alive()
