"""CLI behaviour: output format, determinism, exit codes, round-trips."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cableopt.cli import MAX_POINTS, _build_parser, _parse_float_list, main
from cableopt.errors import ConfigError
from cableopt.results import read_tables

import output_digests
from conftest import with_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return read_tables(io.StringIO(out))


# the one stderr prefix of each error exit code
_PREFIX = {2: "config error:", 3: "infeasible:"}


def run_fuzzed(argv):
    """main(argv) with stdout and stderr captured: (code, out, err, RuntimeWarnings)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return (code, out.getvalue(), err.getvalue(),
            [w for w in caught if issubclass(w.category, RuntimeWarning)])


def assert_exit_policy(code, err, runtime_warnings):
    """Exit 0 with a silent stderr, or exit 2 or 3 with its own prefix; never a numpy warning."""
    assert code in (0, 2, 3), err
    assert not runtime_warnings
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(_PREFIX[code]) and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# analyze

def test_analyze_reference_point(capsys):
    code, out, err = run(capsys, "analyze", "--v2", "1.0", "--alpha", "1.025",
                         "--beta-deg", "4.25")
    assert code == 0
    flow = parse(out)["flow"]
    row = dict(zip(flow.columns, flow.rows[0]))
    assert row["eta"] == pytest.approx(0.94002481104338, abs=1e-9)
    assert row["p_farm"] == pytest.approx(197.38, abs=0.01)
    assert row["degenerate"] == 0.0


def test_analyze_degenerate_point_exits_3(capsys):
    # xi = 1: both ends only feed charging losses, no through power
    code, out, err = run(capsys, "analyze", "--alpha", "1.0", "--beta-deg", "0.0",
                         "--v2", "1.0")
    assert code == 3
    assert err.startswith("infeasible: no through power")
    # reversed flow is equally degenerate
    code, out, err = run(capsys, "analyze", "--alpha", "1.0", "--beta-deg", "-30.0")
    assert code == 3


def test_analyze_huge_voltage_exits_3_without_warnings(capsys):
    # the profile's losses overflow to inf; exit 3 reports it, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "analyze", "--v2", "1e150", "--alpha", "1.03",
                           "--beta-deg", "5", "--profile", "10")
    assert code == 3
    assert err.startswith("infeasible:")


# numpy with its AVX2 and AVX-512 loops off: the x86-64-v2 baseline dispatch
_BASELINE_DISPATCH = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the dispatch names are x86 ones")
@pytest.mark.parametrize("profile", [["10"], ["2"], ["2", "--json"]], ids=["10", "2", "2-json"])
def test_huge_voltage_exits_3_without_warnings_under_baseline_dispatch(profile):
    # the profile's losses overflow at v2 = 1e150, and numpy's baseline loops
    # may warn where its AVX ones do not; -W error turns any numpy warning
    # into a traceback
    env = {**os.environ, **_BASELINE_DISPATCH,
           "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import sys; from cableopt.cli import main; sys.exit(main(sys.argv[1:]))",
         "analyze", "--v2", "1e150", "--alpha", "1.03", "--beta-deg", "5", "--profile", *profile],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("infeasible:") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("json_mode", [False, True], ids=["csv", "json"])
def test_nonfinite_rows_need_allow_infeasible(capsys, json_mode):
    # at v2 = 1e150 the powers overflow: the flow row holds inf and NaN
    argv = ["analyze", "--v2", "1e150", "--alpha", "1.03", "--beta-deg", "5",
            "--profile", "2"] + (["--json"] if json_mode else [])
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("infeasible: section flow contains non-finite values")
    code, out, err = run(capsys, *argv, "--allow-infeasible")
    assert code == 0 and err == ""
    if json_mode:
        assert "Infinity" in out and "NaN" in out
        flow = json.loads(out)["sections"]["flow"]
        row = dict(zip(flow["columns"], flow["rows"][0]))
    else:
        flow = parse(out)["flow"]
        row = dict(zip(flow.columns, flow.rows[0]))
    assert row["p_farm"] == math.inf and math.isnan(row["eta"])
    # an efficiency of inf/inf is no operating point: the row is flagged degenerate
    assert row["degenerate"] == 1.0


@pytest.mark.parametrize("json_mode", [False, True], ids=["csv", "json"])
def test_nonfinite_rows_leave_out_path_uncreated(tmp_path, capsys, json_mode):
    # the verdict comes before the output is opened: no file, not even an empty one
    path = tmp_path / "result.txt"
    argv = ["analyze", "--v2", "1e150", "--alpha", "1.03", "--beta-deg", "5",
            "--profile", "2", "--out", str(path)] + (["--json"] if json_mode else [])
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and not path.exists()
    assert err.startswith("infeasible: section flow contains non-finite values")
    code, out, err = run(capsys, *argv, "--allow-infeasible")
    assert code == 0 and out == "" and err == ""
    text = path.read_text(encoding="utf-8")
    if json_mode:
        assert "Infinity" in text and "NaN" in text
        flow = json.loads(text)["sections"]["flow"]
        row = dict(zip(flow["columns"], flow["rows"][0]))
    else:
        assert ",inf," in text and ",nan," in text
        flow = parse(text)["flow"]
        row = dict(zip(flow.columns, flow.rows[0]))
    assert row["p_farm"] == math.inf and math.isnan(row["eta"])


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e300, -1e300])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(v2=_SPECIAL | st.floats(0.01, 2.0), alpha=_SPECIAL | st.floats(0.5, 1.5),
       beta=_SPECIAL | st.floats(-90.0, 90.0),
       profile=st.sampled_from([-1, 0, 1, 2, 7, 50, MAX_POINTS, MAX_POINTS + 1]),
       json_mode=st.booleans(), allow=st.booleans())
def test_fuzzed_analyze_exits_0_2_or_3(v2, alpha, beta, profile, json_mode, allow):
    argv = ["analyze", f"--v2={v2!r}", f"--alpha={alpha!r}", f"--beta-deg={beta!r}",
            f"--profile={profile}"]
    argv += ["--json"] * json_mode + ["--allow-infeasible"] * allow
    code, out, err, runtime_warnings = run_fuzzed(argv)
    assert_exit_policy(code, err, runtime_warnings)
    if code != 0:
        return
    if json_mode:
        sections = {name: t["rows"] for name, t in json.loads(out)["sections"].items()}
    else:
        sections = {name: t.rows for name, t in parse(out).items()}
    assert len(sections["flow"]) == 1
    assert len(sections.get("profile", ())) == (profile + 1 if profile > 0 else 0)


def test_analyze_degenerate_allowed_with_flag(capsys):
    code, out, err = run(capsys, "analyze", "--alpha", "1.0", "--beta-deg", "-30.0",
                         "--allow-infeasible")
    assert code == 0
    flow = parse(out)["flow"]
    row = dict(zip(flow.columns, flow.rows[0]))
    assert row["degenerate"] == 1.0
    assert math.isnan(row["eta"])
    # xi = 1 with the flag: reported with eta = -1 and the degenerate marker
    code, out, err = run(capsys, "analyze", "--alpha", "1.0", "--beta-deg", "0.0",
                         "--allow-infeasible")
    assert code == 0
    row = dict(zip(parse(out)["flow"].columns, parse(out)["flow"].rows[0]))
    assert row["degenerate"] == 1.0
    assert row["eta"] == pytest.approx(-1.0, rel=1e-9)


def test_analyze_profile_sections_consistent(capsys):
    code, out, err = run(capsys, "analyze", "--v2", "0.9", "--alpha", "1.03",
                         "--beta-deg", "5.0", "--profile", "100")
    assert code == 0
    tables = parse(out)
    assert set(tables) == {"flow", "profile"}
    prof = tables["profile"]
    assert len(prof.rows) == 101
    cols = {c: i for i, c in enumerate(prof.columns)}
    loss_sum = sum(r[cols["segment_loss"]] for r in prof.rows)
    p_loss = dict(zip(tables["flow"].columns, tables["flow"].rows[0]))["p_loss"]
    assert loss_sum == pytest.approx(p_loss, rel=1e-8)


def test_analyze_deterministic_output(capsys):
    args = ("analyze", "--v2", "0.77", "--alpha", "1.042", "--beta-deg", "3.21",
            "--profile", "20")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_json_mode_matches_csv_values(capsys):
    _, out_csv, _ = run(capsys, "analyze", "--v2", "1.0", "--alpha", "1.025",
                        "--beta-deg", "4.25")
    _, out_json, _ = run(capsys, "analyze", "--v2", "1.0", "--alpha", "1.025",
                         "--beta-deg", "4.25", "--json")
    csv_row = parse(out_csv)["flow"].rows[0]
    doc = json.loads(out_json)
    json_row = doc["sections"]["flow"]["rows"][0]
    for a, b in zip(csv_row, json_row):
        if isinstance(b, float):
            assert a == pytest.approx(b, rel=1e-9)
    assert "provenance" in doc


def test_round_trip_reload(tmp_path, capsys):
    out_file = tmp_path / "result.csv"
    code = main(["analyze", "--v2", "0.5", "--alpha", "1.05", "--beta-deg", "7.5",
                 "--out", str(out_file)])
    assert code == 0
    capsys.readouterr()
    with open(out_file, encoding="utf-8") as fh:
        tables = read_tables(fh)
    row = dict(zip(tables["flow"].columns, tables["flow"].rows[0]))
    assert row["v2"] == 0.5
    assert row["alpha"] == 1.05


@pytest.mark.parametrize("where", ["missing/result.csv", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_path_exits_2(tmp_path, capsys, where):
    path = tmp_path / where
    code, out, err = run(capsys, "optimize", "--p-farm-mw", "150", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"config error: cannot write output {path}:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# config handling

def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"cable": {"length_km": 100.0}}), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--config", str(cfg), "--v2", "1.0",
                       "--alpha", "1.01", "--beta-deg", "2.0", "--echo-config")
    assert code == 0
    assert '"length_km": 100.0' in out
    assert '"nominal_voltage_v": 240000.0' in out


def test_bad_json_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--config", str(cfg))
    assert code == 2
    assert "config error" in err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"cable": {"resistance": 0.05}}), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--config", str(cfg))
    assert code == 2
    assert "unknown keys" in err


def test_missing_config_file_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--config", "/no/such/file.json")
    assert code == 2


@pytest.mark.parametrize("constraints", [
    {"v2_max": 1e308},      # squaring the bound overflows
    {"v2_min": 1e-200},     # squaring the bound underflows to zero
    {"alpha_min": 0.0},
    {"alpha_min": -1.0},
])
def test_extreme_constraint_bounds_exit_2(tmp_path, capsys, constraints):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"constraints": constraints}), encoding="utf-8")
    code, _, err = run(capsys, "optimize", "--config", str(cfg), "--p-farm-mw", "100")
    assert code == 2
    assert err.startswith("config error:")


@pytest.mark.parametrize("argv,expected", [
    (["envelope", "--lengths-km", "200", "--voltages", "0.5"], 0),
    (["optimize", "--p-farm-mw", "100"], 3),
])
def test_tiny_v2_bounds_do_not_overflow(tmp_path, capsys, argv, expected):
    # (rating / v2)^2 overflows a float here; the searches must carry on with inf
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"constraints": {"v2_min": 1e-160, "v2_max": 1e-160}}),
                   encoding="utf-8")
    code, _, _ = run(capsys, *argv, "--config", str(cfg))
    assert code == expected


_ANNUAL = ["annual", "--rated-mw", "300", "--synth-uf", "0.46", "--n-bins", "10"]
_SWEEP = ["sweep", "--p-step-mw", "100", "--optimal-range", "0.4", "1.0"]


@pytest.mark.parametrize("constraints,argv,expected", [
    # a v2 box of [1e-160, 1e-160]: its squares underflow, (rating / v2)^2 overflows
    ({"v2_min": 1e-160, "v2_max": 1e-160},
     _ANNUAL + ["--strategy", "fixed:1e-160", "--strategy", "range:1e-160:1.0"], 0),
    ({"v2_min": 1e-160, "v2_max": 1e-160}, ["envelope", "--lengths-km", "100,250",
                                             "--voltages", "1.0,1e-160"], 0),
    ({"v2_min": 1e-160, "v2_max": 1e-160}, ["sweep", "--p-min-mw", "50", "--p-max-mw", "250",
                                             "--p-step-mw", "100", "--voltages", "1e-160,0.6"], 0),
    ({"v2_min": 1e-160, "v2_max": 1e-160}, ["optimize", "--p-farm-mw", "100"], 3),
    # a fixed alpha: both alpha circles are one
    ({"alpha_min": 1.05, "alpha_max": 1.05},
     _ANNUAL + ["--strategy", "fixed:1.0", "--strategy", "range:0.4:1.0"], 0),
    ({"alpha_min": 1.05, "alpha_max": 1.05}, ["envelope", "--lengths-km", "100,250",
                                               "--voltages", "1.0,0.5"], 0),
    ({"alpha_min": 1.05, "alpha_max": 1.05},
     _SWEEP + ["--p-min-mw", "1e-6", "--p-max-mw", "300", "--voltages", "0.6"], 0),
    ({"alpha_min": 1.05, "alpha_max": 1.05}, ["optimize", "--p-farm-mw", "100"], 0),
    # a 1 W production level
    ({}, ["annual", "--rated-mw", "1e-6", "--synth-uf", "0.46", "--n-bins", "10",
          "--strategy", "fixed:1.0", "--strategy", "range:0.4:1.0"], 0),
    ({}, _SWEEP + ["--p-min-mw", "1e-6", "--p-max-mw", "1e-6", "--voltages", "1.0,0.4"], 0),
    ({}, ["optimize", "--p-farm-mw", "1e-6"], 0),
])
def test_extreme_inputs_print_no_numpy_warning(tmp_path, capsys, constraints, argv, expected):
    # the array solves mark what does not exist with NaN: no RuntimeWarning may escape
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"constraints": constraints}), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == expected
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("length", [1e-160, 1e-200, 1e-300, 5e-324])
@pytest.mark.parametrize("argv", [
    ["optimize", "--p-farm-mw", "100"],
    ["optimize"],
    _SWEEP + ["--p-min-mw", "50", "--p-max-mw", "250", "--voltages", "0.6"],
    _ANNUAL + ["--strategy", "fixed:1.0", "--strategy", "range:0.4:1.0"],
    ["envelope", "--voltages", "1"],
])
def test_very_short_cable_is_degenerate(tmp_path, capsys, length, argv):
    # its admittances overflow when squared: an infeasible request, not a
    # traceback; at 5e-324 km the propagation constant times the length is 0
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"cable": {"length_km": length}}), encoding="utf-8")
    if argv[0] == "envelope":
        argv = argv + ["--lengths-km", f"200,{length}"]
    code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 3
    assert err.startswith("infeasible:")
    assert ("too short" if length > 5e-324 else "propagation constant is zero") in err


@pytest.mark.parametrize("value", [1e151, 1e152, 1e153, 1e154, 1e155, 1e300])
@pytest.mark.parametrize("block,key", [("cable", "nominal_voltage_kv"),
                                       ("cable", "rated_current_a"), ("constraints", "i_rated_a")])
@pytest.mark.parametrize("argv", [
    ["optimize"],
    ["optimize", "--p-farm-mw", "100"],
    _SWEEP + ["--p-min-mw", "50", "--p-max-mw", "250", "--voltages", "0.6"],
    ["envelope", "--lengths-km", "100,200", "--voltages", "1.0,0.6"],
    _ANNUAL + ["--strategy", "fixed:1.0", "--strategy", "range:0.4:1.0"],
], ids=["optimize", "optimize-p", "sweep", "envelope", "annual"])
def test_huge_voltage_or_rating_exits_0_2_or_3(tmp_path, argv, block, key, value):
    # the solves square V_ph and the rating as Python floats: a value whose
    # square overflows is a configuration error, not an OverflowError
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({block: {key: value}}), encoding="utf-8")
    code, _, err, runtime_warnings = run_fuzzed(argv + ["--config", str(cfg)])
    assert_exit_policy(code, err, runtime_warnings)
    if value >= (1e152 if key == "nominal_voltage_kv" else 1e155):
        assert code == 2 and "overflows" in err, err


_LOG_KM = st.floats(-300.0, 9.0).map(lambda e: 10.0 ** e)
_VOLTAGE = st.floats(0.0, 1.5) | st.floats(-160.0, 0.0).map(lambda e: 10.0 ** e)
_LEVEL_MW = st.floats(-300.0, 6.0).map(lambda e: 10.0 ** e)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(command=st.sampled_from(["envelope", "sweep", "optimize"]), length=_LOG_KM,
       lengths=st.lists(_LOG_KM, min_size=1, max_size=3),
       voltages=st.lists(_VOLTAGE, min_size=1, max_size=3), level=_LEVEL_MW | st.none(),
       box=st.tuples(_VOLTAGE, st.floats(0.0, 1.0)))
def test_fuzzed_commands_exit_0_2_or_3(command, length, lengths, voltages, level, box):
    joined = ",".join(map(repr, voltages))
    argv = {
        "envelope": ["envelope", f"--lengths-km={','.join(map(repr, lengths))}",
                     f"--voltages={joined}"],
        "sweep": ["sweep", f"--voltages={joined}",
                  "--optimal-range", repr(box[0]), repr(box[0] + box[1]),
                  f"--p-min-mw={level or 1.0!r}", f"--p-max-mw={4 * (level or 1.0)!r}",
                  f"--p-step-mw={level or 1.0!r}"],
        "optimize": ["optimize"] + ([] if level is None else [f"--p-farm-mw={level!r}"]),
    }[command]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "study.json"
        cfg.write_text(json.dumps({"cable": {"length_km": length}}), encoding="utf-8")
        code, _, err, runtime_warnings = run_fuzzed(argv + ["--config", str(cfg)])
    assert_exit_policy(code, err, runtime_warnings)


_GOOD_CURVE = "# comment\npower_pu , weight\n\n0.0,0.5\n0.5,0.3\n1.0,0.2\n"
_BAD_CURVES = [
    "", "# no header\n", "power_pu,weight\n", "power,weight\n0.5,1.0\n",
    "power_pu,weight,extra\n0.5,1.0\n", "0.5,1.0\n", "power_pu,weight\n0.5,nan\n",
    "power_pu,weight\n0.5,-1\n", "power_pu,weight\n0.5,inf\n",
    "power_pu,weight\n0.5,0\n0.7,0\n", "power_pu,weight\n1.5,1\n",
    "power_pu,weight\n-0.2,1\n", "power_pu,weight\nnan,1\n",
    "power_pu,weight\n0.5,1,2\n", "power_pu,weight\nabc,1\n",
]
_ODD = [True, False, "x", None, 0, 1, 10001, -1.0, math.inf, -math.inf, 1e300, -1e300, 1e-300]
_CONSTRAINT_KEYS = {
    "v2_min": [0.4, 0.2], "v2_max": [1.0, 0.9], "alpha_min": [1.0], "alpha_max": [1.1, 1.2],
    "i_rated_a": [1055.0, 700.0], "check_internal_current": [False, True],
    "check_internal_voltage_max": [1.1], "n_profile_segments": [20],
}


def _constraints(values):
    """A constraints block of up to three keys, each drawing its value from values(key)."""
    return st.lists(st.sampled_from(sorted(_CONSTRAINT_KEYS)), max_size=3, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: values(k) for k in keys}))


_BAD_SOURCES = ([("--synth-uf", repr(uf)) for uf in (math.nan, -1.0, 0.0, 1e-300, 0.95, 1.0, 1e300)]
                + [("--curve", text) for text in _BAD_CURVES] + [None])

# one input per call is drawn from its faulty values, the rest from valid ones
_ANNUAL_INPUTS = {
    "rated": (st.floats(50.0, 500.0),
              st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300, None])),
    "source": (st.sampled_from([("--builtin-curve", "high-uf"), ("--builtin-curve", "low-uf"),
                                ("--synth-uf", "0.3"), ("--synth-uf", "0.46"),
                                ("--curve", _GOOD_CURVE)]),
               st.sampled_from(_BAD_SOURCES)),
    "n_bins": (st.sampled_from([2, 10]), st.sampled_from([MAX_POINTS + 1, 10**8, -1, 0, 1])),
    # turbines whose synthetic curve overflows a float; they act on a --synth-uf source
    "turbine": (st.just([]), st.sampled_from([["--weibull-shape=1e300"], [
        "--cut-in=1e-300", "--rated-speed=1e300", "--cut-out=1e300"]])),
    "strategies": (st.lists(st.sampled_from(["fixed:1.0", "fixed:0.6", "range:0.4:1.0",
                                             "range:0.9:0.9", "tap:0.87:0.15"]),
                            min_size=1, max_size=3),
                   st.lists(st.sampled_from(["fixed:0", "fixed:-1", "fixed:nan", "fixed:inf",
                                             "fixed:1e-160", "range:1.0:0.4", "range:0:1",
                                             "range:nan:1", "tap:1:2", "tap:0.5:-1",
                                             "tap:nan:0.1", "fixed", "sawtooth:0.5", ""]),
                            max_size=2)),
    "constraints": (_constraints(lambda k: st.sampled_from(_CONSTRAINT_KEYS[k])),
                    _constraints(lambda k: st.sampled_from(_ODD))
                    | st.just({"n_profile_segments": 10001, "check_internal_current": True})
                    | st.just({"bogus": 1.0})),
    # from 300 km on, charging current alone exceeds the rating at 1.0 p.u.
    "length_km": (st.sampled_from([100.0, 200.0, 300.0]),
                  st.sampled_from([0.0, -1.0, 1e-200, 1e300, math.nan, "x", True, 1e4])),
}


def _run_annual(drawn, json_mode=False):
    """run_fuzzed of an annual call on the inputs drawn, its curve file and config in a temp dir."""
    rated, source, strategies = drawn["rated"], drawn["source"], drawn["strategies"]
    argv = ["annual", f"--n-bins={drawn['n_bins']}"] + ["--json"] * json_mode
    argv += [] if rated is None else [f"--rated-mw={rated!r}"]
    argv += [f"--strategy={text}" for text in strategies] + drawn["turbine"]
    with tempfile.TemporaryDirectory() as tmp:
        if source is not None:
            option, value = source
            if option == "--curve":
                curve = Path(tmp) / "curve.csv"
                curve.write_text(value, encoding="utf-8")
                value = str(curve)
            argv.append(f"{option}={value}")
        cfg = Path(tmp) / "study.json"
        cfg.write_text(json.dumps({"cable": {"length_km": drawn["length_km"]},
                                   "constraints": drawn["constraints"]}), encoding="utf-8")
        return run_fuzzed(argv + ["--config", str(cfg)])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=st.data(), fault=st.sampled_from([None, *_ANNUAL_INPUTS]), json_mode=st.booleans())
def test_fuzzed_annual_exits_0_2_or_3(data, fault, json_mode):
    drawn = {name: data.draw(pair[name == fault], label=name)
             for name, pair in _ANNUAL_INPUTS.items()}
    code, out, err, runtime_warnings = _run_annual(drawn, json_mode)
    assert_exit_policy(code, err, runtime_warnings)
    if code == 0:
        rows = (json.loads(out)["sections"]["annual"]["rows"] if json_mode
                else parse(out)["annual"].rows)
        assert len(rows) == len(drawn["strategies"])


def _source_id(source):
    if source is None:
        return "no-source"
    option, value = source
    return f"synth-uf={value}" if option == "--synth-uf" else f"curve-{_BAD_CURVES.index(value)}"


@pytest.mark.parametrize("source", _BAD_SOURCES, ids=_source_id)
def test_each_faulty_annual_source_exits_0_2_or_3(source):
    # the fuzzed test draws few of these: each runs here once, with valid other inputs
    drawn = {"rated": 300.0, "source": source, "n_bins": 10, "turbine": [],
             "strategies": ["fixed:1.0", "range:0.4:1.0"], "constraints": {}, "length_km": 200.0}
    code, _, err, runtime_warnings = _run_annual(drawn)
    assert_exit_policy(code, err, runtime_warnings)


# ---------------------------------------------------------------------------
# optimize and sweep

def test_optimize_unconstrained(capsys):
    code, out, _ = run(capsys, "optimize")
    assert code == 0
    row = dict(zip(*[parse(out)["optimum"].columns, parse(out)["optimum"].rows[0]]))
    assert row["eta"] == pytest.approx(0.94027, abs=1e-4)


def test_optimize_at_production(capsys):
    code, out, _ = run(capsys, "optimize", "--p-farm-mw", "150")
    assert code == 0
    row = dict(zip(parse(out)["optimum"].columns, parse(out)["optimum"].rows[0]))
    assert row["p_farm"] == pytest.approx(150.0, rel=1e-9)
    assert row["binding"] == "-"


def test_optimize_infeasible_exits_3(capsys):
    code, _, err = run(capsys, "optimize", "--p-farm-mw", "500")
    assert code == 3
    assert "infeasible" in err


def test_optimize_without_positive_efficiency_exits_3(tmp_path, capsys):
    # at alpha <= 0.02 the grid feeds the cable: the best eta, -18.5, is no optimum,
    # as analyze at that point reports no through power
    study = {"constraints": {"alpha_min": 0.01, "alpha_max": 0.02}}
    code, out, err = run(capsys, *with_config(["optimize", study], tmp_path))
    assert code == 3 and out == ""
    assert err == "infeasible: no scaling in range delivers power to the grid: efficiency is never > 0\n"
    code, _, err = run(capsys, *with_config(["analyze", "--alpha", "0.02", "--beta-deg", "90", study],
                                            tmp_path))
    assert code == 3 and "no through power" in err


def test_digest_commands_exit_0_or_3(tmp_path):
    # all of output_digests.py's commands, in process: each gives a result or
    # an infeasible verdict, never an uncaught exception (exit 1), and the
    # tally of verdicts is pinned.  Five of its six check settings turn an
    # internal check on, so the production rows certified in closed form
    # (optimizer._certified) face the checks here too; the 28 analyze commands all exit 0
    path, codes = tmp_path / "study.json", []
    for argv, study in output_digests.commands():
        path.write_text(json.dumps(study), encoding="utf-8")
        code, output = output_digests.run(main, argv + ["--config", str(path)])
        assert code in (0, 3), (argv, study, output)
        codes.append(code)
    assert (len(codes), codes.count(0), codes.count(3)) == (544, 460, 84)


def test_sweep_policies_and_flags(capsys):
    code, out, _ = run(capsys, "sweep", "--p-min-mw", "50", "--p-max-mw", "350",
                       "--p-step-mw", "100", "--voltages", "1.0",
                       "--optimal-range", "0.4", "1.0")
    assert code == 0
    table = parse(out)["sweep"]
    cols = {c: i for i, c in enumerate(table.columns)}
    rows = {(r[cols["policy"]], r[cols["p_farm"]]): r for r in table.rows}
    assert len(rows) == 8  # 2 policies x 4 levels
    # 350 MW fixed at 1.0 p.u. is beyond capability
    assert rows[("fixed-1", 350.0)][cols["feasible"]] == 0.0
    assert rows[("optimal-0.4-1", 150.0)][cols["feasible"]] == 1.0
    eta_fixed = rows[("fixed-1", 150.0)][cols["eta"]]
    eta_free = rows[("optimal-0.4-1", 150.0)][cols["eta"]]
    assert eta_free >= eta_fixed - 1e-12


def test_sweep_requires_policy(capsys):
    code, _, err = run(capsys, "sweep", "--p-min-mw", "50", "--p-max-mw", "100",
                       "--p-step-mw", "50")
    assert code == 2


def test_sweep_point_count_is_capped(capsys):
    code, _, err = run(capsys, "sweep", "--p-min-mw", "1", "--p-max-mw", "1e9",
                       "--p-step-mw", "1e-3", "--voltages", "1.0")
    assert code == 2
    assert err.startswith("config error:") and "more than" in err


def test_sweep_stops_at_p_max(capsys):
    # a span that is not a multiple of the step must not run past p_max
    code, out, _ = run(capsys, "sweep", "--p-min-mw", "10", "--p-max-mw", "25",
                       "--p-step-mw", "10", "--voltages", "0.8")
    assert code == 0
    assert [row[1] for row in parse(out)["sweep"].rows] == [10.0, 20.0]


# ---------------------------------------------------------------------------
# annual and envelope

def test_annual_self_reference_reduction_zero(capsys):
    code, out, _ = run(capsys, "annual", "--rated-mw", "200",
                       "--synth-uf", "0.46", "--n-bins", "10",
                       "--strategy", "fixed:1.0", "--strategy", "fixed:1.0")
    assert code == 0
    table = parse(out)["annual"]
    cols = {c: i for i, c in enumerate(table.columns)}
    assert table.rows[0][cols["loss_reduction"]] == 0.0
    assert abs(table.rows[1][cols["loss_reduction"]]) < 1e-9


def test_annual_with_builtin_curve_and_tap(capsys):
    code, out, _ = run(capsys, "annual", "--rated-mw", "320",
                       "--builtin-curve", "high-uf",
                       "--strategy", "fixed:1.0", "--strategy", "tap:0.87:0.15")
    assert code == 0
    table = parse(out)["annual"]
    cols = {c: i for i, c in enumerate(table.columns)}
    assert table.rows[1][cols["strategy"]].startswith("range-0.739")
    assert table.rows[1][cols["loss_reduction"]] > 0.0


def test_annual_needs_curve_and_strategy(capsys):
    code, _, err = run(capsys, "annual", "--rated-mw", "320")
    assert code == 2


def test_annual_missing_curve_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "annual", "--rated-mw", "320",
                       "--curve", str(tmp_path / "missing.csv"))
    assert code == 2
    assert err.startswith("config error: cannot read curve")


def test_annual_curve_from_file(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    path.write_text("# comment\npower_pu,weight\n0.0,0.5\n0.5,0.5\n", encoding="utf-8")
    code, out, _ = run(capsys, "annual", "--rated-mw", "100", "--curve", str(path),
                       "--strategy", "fixed:0.8")
    assert code == 0
    assert "utilization_factor: 0.25" in out


def test_envelope_zero_capability_flagged(capsys):
    code, out, _ = run(capsys, "envelope", "--lengths-km", "200,260",
                       "--voltages", "1.0,0.6")
    assert code == 0
    table = parse(out)["envelope"]
    cols = {c: i for i, c in enumerate(table.columns)}
    rows = {(r[cols["length"]], r[cols["policy"]]): r for r in table.rows}
    # 260 km at full voltage: charging current alone exceeds the rating
    r = rows[(260.0, "fixed-1")]
    assert r[cols["feasible"]] == 0.0 and r[cols["p_grid_max"]] == 0.0
    assert rows[(260.0, "fixed-0.6")][cols["p_grid_max"]] > 0.0
    assert rows[(200.0, "optimal")][cols["p_grid_max"]] >= rows[(200.0, "fixed-1")][cols["p_grid_max"]] - 1e-6


def test_envelope_range_syntax(capsys):
    code, out, _ = run(capsys, "envelope", "--lengths-km", "100:200:50",
                       "--voltages", "0.8")
    assert code == 0
    table = parse(out)["envelope"]
    lengths = sorted({r[0] for r in table.rows})
    assert lengths == [100.0, 150.0, 200.0]


def test_range_point_count_is_capped(capsys):
    assert len(_parse_float_list(f"1:{MAX_POINTS}:1", "x")) == MAX_POINTS
    with pytest.raises(ConfigError, match="more than"):
        _parse_float_list(f"1:{MAX_POINTS + 1}:1", "x")
    code, _, err = run(capsys, "envelope", "--lengths-km", "0:1e9:1e-3", "--voltages", "1")
    assert code == 2
    assert err.startswith("config error:") and "more than" in err


@pytest.mark.parametrize("argv,constraints", [
    (["analyze", "--alpha", "1.03", "--beta-deg", "5", "--profile", str(MAX_POINTS + 1)], {}),
    (["optimize", "--p-farm-mw", "100"],
     {"check_internal_current": True, "n_profile_segments": MAX_POINTS + 1}),
])
def test_profile_size_is_capped(tmp_path, capsys, argv, constraints):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"constraints": constraints}), encoding="utf-8")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert err.startswith("config error:") and str(MAX_POINTS) in err
    assert out == ""


def test_annual_names_the_internal_check_that_rules_a_strategy_out(tmp_path, capsys):
    # the README annual with a 0.9 p.u. internal cap: fixed:1.0 has no point
    # that passes it, though it operates without the internal checks
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({"constraints": {"check_internal_voltage_max": 0.9}}), encoding="utf-8")
    code, out, err = run(capsys, "annual", "--rated-mw", "320", "--builtin-curve", "high-uf",
                         "--strategy", "fixed:1.0", "--strategy", "range:0.4:1.0",
                         "--strategy", "tap:0.87:0.15", "--config", str(cfg))
    assert code == 3 and out == ""
    assert err == ("infeasible: strategy fixed-1.000 cannot operate this cable at all: every "
                   "operating point at v2 in [1.0, 1.0] p.u. fails the internal voltage (0.9 p.u.) "
                   "check; without the internal checks the box operates\n")


def test_stalled_uf_bisection_exits_3(capsys):
    # on this turbine the smallest scale the bisection tries still gives a UF near 0.79
    code, out, err = run(capsys, "annual", "--rated-mw", "300", "--synth-uf", "0.001",
                         "--cut-in", "0.01", "--rated-speed", "0.05", "--strategy", "fixed:1.0")
    assert code == 3 and out == ""
    assert err.startswith("infeasible: bisection stalled at UF 0.78908 for target 0.001")


def test_strategy_parse_errors(capsys):
    code, _, err = run(capsys, "annual", "--rated-mw", "100", "--synth-uf", "0.4",
                       "--strategy", "sawtooth:0.5")
    assert code == 2
    assert "bad strategy" in err


def test_bad_voltage_value_exits_2(capsys):
    code, _, err = run(capsys, "sweep", "--p-min-mw", "50", "--p-max-mw", "100",
                       "--p-step-mw", "50", "--voltages", "-0.5")
    assert code == 2


def test_study_blocks_drive_commands(tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({
        "cable": {"length_km": 150.0},
        "sweep": {"p_min_mw": 100.0, "p_max_mw": 200.0, "p_step_mw": 100.0,
                  "voltages": [0.8], "optimal_range": [0.4, 1.0]},
        "annual": {"rated_mw": 150.0, "curve": "high-uf",
                   "strategies": ["fixed:1.0", "range:0.4:1.0"]},
        "envelope": {"lengths_km": [150.0], "voltages": [0.8]},
    }), encoding="utf-8")

    code, out, _ = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert len(parse(out)["sweep"].rows) == 4  # 2 policies x 2 levels

    code, out, _ = run(capsys, "envelope", "--config", str(cfg))
    assert code == 0
    assert len(parse(out)["envelope"].rows) == 2  # fixed-0.8 plus the envelope row


@pytest.mark.parametrize("study", [
    {"sweep": {"p_min_mw": "x", "voltages": [1.0]}},
    {"envelope": {"lengths_km": ["a"], "voltages": [1.0]}},
    {"annual": {"rated_mw": "320", "curve": "high-uf", "strategies": ["fixed:1.0"]}},
    {"sweep": {"optimal_range": 5}},
    {"annual": {"rated_mw": 320, "curve": "high-uf", "strategies": [1]}},
    # a number is no curve path: open(0) would read standard input
    {"annual": {"rated_mw": 320, "curve": 0, "strategies": ["fixed:1.0"]}},
])
def test_wrong_typed_study_block_exits_2(tmp_path, capsys, study):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps(study), encoding="utf-8")
    code, _, err = run(capsys, *study, "--config", str(cfg))
    assert code == 2
    assert err.startswith("config error:")


@pytest.mark.parametrize("source", ["builtin", "file"])
def test_config_curve_matches_the_curve_flags(tmp_path, capsys, source):
    # annual.curve names a reference curve or a CSV path; the flag for the
    # same curve gives the same bytes, provenance included
    csv = tmp_path / "curve.csv"
    csv.write_text(_GOOD_CURVE, encoding="utf-8")
    curve, flag = ("high-uf", "--builtin-curve") if source == "builtin" else (str(csv), "--curve")
    argv = ["annual", "--strategy", "fixed:1.0", "--strategy", "range:0.4:1.0"]
    code, want, err = run(capsys, *argv, "--rated-mw", "320", flag, curve)
    assert code == 0 and err == ""
    study = {"annual": {"rated_mw": 320, "curve": curve}}
    code, out, err = run(capsys, *with_config(argv + [study], tmp_path))
    assert code == 0 and err == ""
    assert out == want


@pytest.mark.parametrize("argv,study,message", [
    (["envelope", "--lengths-km", "1:2:0", "--voltages", "1.0"], None, "step must be > 0"),
    (["envelope", "--lengths-km", "5:1:1", "--voltages", "1.0"], None, "empty range"),
    (["envelope", "--lengths-km", ",", "--voltages", "1.0"], None, "empty list"),
    (["sweep", "--p-min-mw", "0", "--voltages", "1.0"], None, "bad sweep range"),
    (["envelope", "--voltages", "1.0"], None, "envelope needs --lengths-km"),
    (["optimize"], [1.0], "config root must be an object"),
    (["optimize"], {"bogus": {}}, "unknown top-level keys"),
    (["sweep", "--voltages", "1.0"], {"sweep": [1.0]}, "sweep: expected an object"),
    (["optimize"], {"cable": {"profile": "no-such-cable"}}, "unknown profile"),
    (["optimize"], {"constraints": {"check_internal_current": 1}}, "expected true/false"),
    (["optimize", "--p-farm-mw", "0"], None, "p_farm must be > 0 W, got 0.0"),
    (["annual", "--rated-mw", "320", "--synth-uf", "0.4", "--weibull-shape", "0",
      "--strategy", "fixed:1.0"], None, "Weibull parameters must be > 0"),
    (["optimize"], {"constraints": {"n_profile_segments": 1.5}},
     "constraints.n_profile_segments: expected an integer"),
    (["optimize"], {"constraints": {"n_profile_segments": True}},
     "constraints.n_profile_segments: expected an integer"),
    (["annual", "--rated-mw", "320", "--builtin-curve", "high-uf", "--strategy", "fixed:abc"], None,
     "bad strategy 'fixed:abc': could not convert string to float: 'abc'"),
    (["annual", "--rated-mw", "320", "--builtin-curve", "high-uf", "--strategy", "fixed:2"], None,
     "bad strategy 'fixed:2': fixed voltage must be in (0, 1] p.u., got 2.0"),
    (["annual", "--builtin-curve", "high-uf", "--strategy", "fixed:1.0"], None,
     "annual needs --rated-mw"),
    (["annual", "--rated-mw", "320", "--builtin-curve", "high-uf"], None,
     "annual needs at least one --strategy"),
], ids=["zero-step", "empty-range", "empty-list", "zero-p-min", "no-lengths", "root-not-object",
        "unknown-top-key", "block-not-object", "unknown-profile", "non-bool-check", "zero-p-farm",
        "zero-weibull-shape", "fractional-segments", "bool-segments", "non-numeric-strategy",
        "out-of-range-strategy", "no-rated-power", "no-strategy"])
def test_config_errors_exit_2_with_empty_stdout(tmp_path, capsys, argv, study, message):
    if study is not None:
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps(study), encoding="utf-8")
        argv = argv + ["--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and message in err and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["optimize", "--p-farm-mw", "150"],
                                  ["envelope", "--lengths-km", "200", "--voltages", "1.0"]],
                         ids=["optimize", "envelope"])
@pytest.mark.parametrize("cap", [1e300, -1.0, -0.85, 0])
def test_internal_voltage_cap_must_be_positive_and_may_be_huge(tmp_path, capsys, argv, cap):
    # a cap no node reaches squares to inf and leaves the rows as without the
    # check; a cap <= 0 is a config error, not its absolute value or an empty box
    code, out, err = run(capsys, *with_config(
        argv + [{"constraints": {"check_internal_voltage_max": cap}}], tmp_path))
    if cap > 0:
        assert code == 0 and err == ""
        _, want, _ = run(capsys, *argv)
        assert ({name: table.rows for name, table in parse(out).items()}
                == {name: table.rows for name, table in parse(want).items()})
    else:
        assert code == 2 and out == ""
        assert err.startswith("config error: constraints:") and err.count("\n") == 1, err
        assert "check_internal_voltage_max" in err


# every key of every block of the study file, each with a valid value
_STUDY = {
    "cable": {"profile": "brakelmann-220kV-1000mm2", "length_km": 200.0,
              "nominal_voltage_kv": 240.0, "rated_current_a": 1055.0, "frequency_hz": 50.0,
              "r_ohm_per_km": 0.048, "l_mh_per_km": 0.37, "c_uf_per_km": 0.18,
              "g_s_per_km": 0.0},
    "constraints": {"v2_min": 0.4, "v2_max": 1.0, "alpha_min": 1.0, "alpha_max": 1.1,
                    "i_rated_a": None, "check_internal_current": False,
                    "check_internal_voltage_max": None, "n_profile_segments": 100},
    "sweep": {"p_min_mw": 100.0, "p_max_mw": 300.0, "p_step_mw": 100.0, "voltages": [1.0],
              "optimal_range": [0.4, 1.0]},
    "annual": {"rated_mw": 320.0, "curve": "high-uf", "strategies": ["fixed:1.0", "range:0.4:1.0"]},
    "envelope": {"lengths_km": [200.0], "voltages": [1.0, 0.6]},
}
# the command that reads each block; None is the root
_READER = {None: ["optimize"], "cable": ["optimize", "--p-farm-mw", "150"],
           "constraints": ["optimize", "--p-farm-mw", "150"], "sweep": ["sweep"],
           "annual": ["annual"], "envelope": ["envelope"]}
# a value of each JSON type
_JSON = {"null": st.none(), "bool": st.booleans(), "int": st.integers(), "float": st.floats(),
         "string": st.text(max_size=4), "list": st.lists(st.integers() | st.text(max_size=2), max_size=3),
         "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)}
# the JSON types a key takes are those of its valid value; null (the
# default) also takes a number
_TAKES = {float: {"int", "float"}, int: {"int"}, bool: {"bool"}, str: {"string"}, list: {"list"},
          type(None): {"null", "int", "float"}}


def _study_with(block, key, value):
    """_STUDY with key of block set to value: (block read, study)."""
    return block, {**_STUDY, block: {**_STUDY[block], key: value}}


def _replaced(block, value):
    """The root or a block replaced by value: (block read, study, expected message)."""
    if isinstance(value, dict):
        message = None
    else:
        message = f"{block}: expected an object" if block else "config root must be an object"
    return block, value if block is None else {**_STUDY, block: value}, message


def _changes() -> dict:
    """Every change to the study file by its label, each a strategy of (block
    read, study, expected message); the message is None where the study may be valid."""
    out = {}
    for block in [None, *_STUDY]:
        for kind, draw in _JSON.items():
            out[f"{block or 'root'}={kind}"] = draw.map(lambda value, b=block: _replaced(b, value))
    for block, keys in _STUDY.items():
        unknown = st.text(max_size=6).filter(lambda key, keys=keys: key not in keys)
        out[f"{block}.unknown"] = st.tuples(unknown, st.one_of(*_JSON.values())).map(
            lambda kv, b=block: (*_study_with(b, *kv), f"{b}: unknown keys"))
        for key, valid in keys.items():
            for kind, draw in _JSON.items():
                if kind not in _TAKES[type(valid)]:
                    out[f"{block}.{key}={kind}"] = draw.map(
                        lambda value, b=block, k=key: (*_study_with(b, k, value), f"{b}.{k}: expected"))
    return out


@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(changes=st.fixed_dictionaries(_changes()))
@example(changes={
    "constraints=5": ("constraints", {"constraints": 5}, "constraints: expected an object"),
    "cable=5": ("cable", {"cable": 5}, "cable: expected an object"),
    "cable.profile=list": ("cable", {"cable": {"profile": ["x"]}}, "cable.profile: expected a string"),
    "constraints=string": ("constraints", {"constraints": "v2_min"}, "constraints: expected an object"),
    "sweep.p_max": (*_study_with("sweep", "p_max", 50), "sweep: unknown keys ['p_max']"),
    # a JSON integer too large for a float
    "cable.length_km=huge": (*_study_with("cable", "length_km", 10**400),
                             "cable.length_km: expected a finite number")})
def test_fuzzed_study_file_exits_0_2_or_3(changes):
    # each example makes every change once: the root and each block as every
    # JSON type, an unknown key in each block, each key as each wrong type
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "study.json"
        for label, (block, study, message) in changes.items():
            cfg.write_text(json.dumps(study), encoding="utf-8")
            code, out, err, runtime_warnings = run_fuzzed(_READER[block] + ["--config", str(cfg)])
            assert_exit_policy(code, err, runtime_warnings)
            assert code == 0 or out == "", label
            if message is not None:
                assert code == 2 and message in err, (label, err)


# ---------------------------------------------------------------------------
# one parser for every main() call

_POINT = ["analyze", "--alpha", "1.025", "--beta-deg", "4.25"]


def test_parser_is_built_once(capsys, monkeypatch):
    run(capsys, *_POINT)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (_POINT, ["optimize"], ["envelope", "--lengths-km", "100", "--voltages", "1"]):
        assert run(capsys, *argv)[0] == 0
    assert built == []
    assert _build_parser() is _build_parser()


def test_arguments_do_not_leak_between_calls(capsys):
    # --strategy appends: one call's strategies must not add to the next call's
    code, out, _ = run(capsys, *_ANNUAL, "--strategy", "fixed:1.0", "--strategy", "range:0.4:1.0")
    assert code == 0 and len(parse(out)["annual"].rows) == 2
    code, out, _ = run(capsys, *_ANNUAL, "--strategy", "fixed:0.8")
    assert code == 0 and len(parse(out)["annual"].rows) == 1
    # an option given once falls back to its default in the next call
    code, out, _ = run(capsys, *_POINT, "--v2", "0.8", "--json")
    assert code == 0 and json.loads(out)["sections"]["flow"]["rows"][0][0] == 0.8
    code, out, _ = run(capsys, *_POINT)
    assert code == 0 and out.startswith("# section: flow")
    assert parse(out)["flow"].rows[0][0] == 1.0
    assert _build_parser().parse_args(["analyze"]).v2 == 1.0


@pytest.mark.parametrize("bad", [["analyze", "--v2", "abc"], ["analyse"], ["annual", "--bogus"],
                                 ["annual", "--weibull-scale", "9"],
                                 # one duration curve at a time
                                 ["annual", "--curve", "c.csv", "--builtin-curve", "high-uf"],
                                 ["annual", "--curve", "c.csv", "--synth-uf", "0.3"],
                                 ["annual", "--builtin-curve", "high-uf", "--synth-uf", "0.3"]])
def test_usage_error_leaves_the_parser_working(capsys, bad):
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    code, out, err = run(capsys, *_POINT)
    assert code == 0 and err == ""
    assert parse(out)["flow"].rows[0][:3] == (1.0, 1.025, 4.25)


# ---------------------------------------------------------------------------
# golden outputs: a change to these digests changes published numbers and
# must be explained in CHANGES.md

_GOLDEN = [
    (["sweep", "--p-min-mw", "50", "--p-max-mw", "350", "--p-step-mw", "100",
      "--voltages", "0.6", "--optimal-range", "0.4", "1.0"],
     "8a40e762071da65295fb3878bac7bfb0b430c7f448bf93da65884ab7ae11880a"),
    (["envelope", "--lengths-km", "150:450:150", "--voltages", "1.0,0.6"],
     "19f851e00ee59555ef498fb92e178bfe2709251af60a2536df60533070c91a92"),
    (["annual", "--rated-mw", "320", "--synth-uf", "0.46", "--n-bins", "10",
      "--strategy", "fixed:1.0", "--strategy", "range:0.4:1.0"],
     "b4c4c16deed54c3abc505bc84e019d660963b38f4fe5acc88147aa0381c47d08"),
    (["analyze", "--v2", "0.9", "--alpha", "1.03", "--beta-deg", "5", "--profile", "50"],
     "944726ac79bb53244cb1edfbd32dbac73fa3799d1497b5c25d1c2b55312b07a8"),
    (["analyze", "--v2", "0.9", "--alpha", "1.03", "--beta-deg", "5", "--profile", "50",
      "--json"],
     "40cf968494c0bd5e052a465e0d2d184521fc8b53ae2ab461b2847cf6377a7abb"),
    (["analyze", "--v2", "0.9", "--alpha", "1.03", "--beta-deg", "5", "--profile", "2000"],
     "4c175d34924f865cdb7176cbf4eac392bdf512df7c5690e8386bbdbda3d3359a"),
    (["optimize", "--echo-config", "--json"],
     "36ad7f0f39ab5ad476ba1ff28abba1de00be8e7b88f26dd9ace8c817e68e1d22"),
    # the README's optimize at 150 MW, sweep, annual and envelope runs
    (["optimize", "--p-farm-mw", "150"],
     "6b25e4805c107bf41f038a25755b97ff1b63f3e54e4b2c8cbc42028221e46c4f"),
    (["sweep", "--p-min-mw", "20", "--p-max-mw", "300", "--p-step-mw", "10",
      "--voltages", "0.4,0.6,0.8,1.0", "--optimal-range", "0.4", "1.0"],
     "f688e685a9aa6e5fced7e14e084df8075d68f92636f634a6945102be2db61e2b"),
    (["annual", "--rated-mw", "320", "--builtin-curve", "high-uf", "--strategy", "fixed:1.0",
      "--strategy", "range:0.4:1.0", "--strategy", "tap:0.87:0.15"],
     "5c6374bd0804278c8feace351c68da1068c373aae702860711c9e45dece4f4ba"),
    (["envelope", "--lengths-km", "100:400:10", "--voltages", "1.0,0.8,0.6,0.4"],
     "f6ebd3361fd072bcf19eb1f90271802de7ddd3d53a21a24f5eb64f8a9c205bee"),
    # internal checks on, from the study configuration in the trailing dict
    (["optimize", "--p-farm-mw", "150", {"cable": {"length_km": 250.0},
                                         "constraints": {"check_internal_voltage_max": 0.75}}],
     "c819ab42b55dd72fb830c0abb2deeb8115de0a466b99ece9ab67dd10a01eadea"),
    (["sweep", "--p-min-mw", "50", "--p-max-mw", "350", "--p-step-mw", "100",
      "--voltages", "0.6", "--optimal-range", "0.4", "1.0",
      {"cable": {"length_km": 150.0}, "constraints": {"check_internal_current": True}}],
     "1e1eaf39a5cdd125a7b8f9dade23bfa47ebbd888822ff4c490cd0d6a8bdd384d"),
    (["annual", "--rated-mw", "320", "--synth-uf", "0.46", "--n-bins", "10",
      "--strategy", "fixed:1.0", "--strategy", "range:0.4:1.0",
      {"constraints": {"check_internal_current": True}}],
     "131ad1fedd5d182716fad7c28b45c9eeb83093bcee8d5013e0d65a90df0e8327"),
    (["envelope", "--lengths-km", "150:450:150", "--voltages", "1.0,0.6",
      {"constraints": {"check_internal_current": True}}],
     "3bbd367ea6215e7bed9a4a4240bf05ef84ffbe68d221e26c238bc1d9af209a1f"),
    (["envelope", "--lengths-km", "150:450:150", "--voltages", "1.0,0.6",
      {"constraints": {"check_internal_voltage_max": 0.9}}],
     "d17e15b263f431fbe5d4362deee3e0a603a45ffd7903ae959c4b3a535498e180"),
]


@pytest.mark.parametrize("argv,digest", _GOLDEN)
def test_golden_output_digest(capsys, tmp_path, argv, digest):
    code, out, _ = run(capsys, *with_config(argv, tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the dispatch names are x86 ones")
def test_golden_output_digests_under_baseline_dispatch(tmp_path):
    # the published numbers may not depend on the CPU: every golden command,
    # run in one process with numpy's AVX2 and AVX-512 loops off
    argvs = []
    for k, (argv, _) in enumerate(_GOLDEN):
        (tmp_path / str(k)).mkdir()
        argvs.append(with_config(argv, tmp_path / str(k)))
    env = {**os.environ, **_BASELINE_DISPATCH,
           "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, hashlib, io, json, sys; from cableopt.cli import main\n"
         "for argv in json.loads(sys.argv[1]):\n"
         "    out = io.StringIO()\n"
         "    with contextlib.redirect_stdout(out):\n"
         "        code = main(argv)\n"
         "    print(code, hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest())",
         json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == [f"0 {digest}" for _, digest in _GOLDEN]
