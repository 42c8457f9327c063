"""Solver work per CLI command, pinned exactly.

Counts do not depend on the host's speed or load, so they show a change in
the work a command does where wall time cannot.  A change that raises a
count updates it here and says why in CHANGES.md; one that lowers it has
evidence of its speed-up.  The commands' output is the same on every numpy
SIMD dispatch, but the candidates scored are not: the candidate solve's
numpy loops round a few ulps apart by dispatch, and an ill-conditioned
candidate can move into or out of the alpha annulus.  So they are pinned
for the AVX2/AVX-512 loops.  Under the x86-64-v2 baseline
(NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR") the
candidates scored read 88, not 89, for the golden annual and for
annual-current-check, and 616, not 617, for the README annual; every
other count is the same.  The commands are the sixteen
golden-digest commands of test_cli.py: seven of its own, the README's
optimize at 150 MW, sweep, annual and envelope runs, then five runs with
an internal check on; and the README annual at 350 MW on a 250 km cable,
where most bins the production solve cannot serve are over the cable's
capability.
A delivery call makes at most one solve, over its fixed-voltage and its free
boxes alike.  A solve row states only the forms its box has: a fixed box
has one v2 level, so every form drawn at v2_min, or that only a free box
has, is NaN on its rows (optimizer._Rows.levels), and a delivery row has
the farm cap's forms only where it is capped.  A box solve scores a row's
window-ray candidates only where the row keeps its rays (optimizer._Rows.rays),
which no row of these commands does.  A production solve counts only the
rows whose winner it cannot certify in closed form (optimizer._certified),
with or without internal checks, and the certified rows whose winner fails
a check: one-row optimize at 150 MW solves none.  A delivery call of at
least 24 rows, none of them capped, first rules out those rows whose
least end current exceeds the rating (optimizer._ruled_out) and
certifies most others (optimizer._delivered), whose walks count as
walked; it solves only the rows it declines, and none at all where it
declines none: the README envelope makes no candidate solve.  The golden
envelope's 9 rows and the annual studies' delivery rows are too few, or
capped, and are solved as before.
"""

import numpy as np
import pytest

from cableopt import annual_energy, cable_model, cli, optimizer

from conftest import with_config

_SWEEP = ["sweep", "--p-min-mw", "20", "--p-max-mw", "300", "--p-step-mw", "10",
          "--voltages", "0.4,0.6,0.8,1.0", "--optimal-range", "0.4", "1.0"]
_ANNUAL = ["annual", "--rated-mw", "320", "--builtin-curve", "high-uf", "--strategy", "fixed:1.0",
           "--strategy", "range:0.4:1.0", "--strategy", "tap:0.87:0.15"]
_ENVELOPE = ["envelope", "--lengths-km", "100:400:10", "--voltages", "1.0,0.8,0.6,0.4"]
_GOLDEN_SWEEP = ["sweep", "--p-min-mw", "50", "--p-max-mw", "350", "--p-step-mw", "100",
                 "--voltages", "0.6", "--optimal-range", "0.4", "1.0"]
_GOLDEN_ENVELOPE = ["envelope", "--lengths-km", "150:450:150", "--voltages", "1.0,0.6"]
_GOLDEN_ANNUAL = ["annual", "--rated-mw", "320", "--synth-uf", "0.46", "--n-bins", "10",
                  "--strategy", "fixed:1.0", "--strategy", "range:0.4:1.0"]
_ANALYZE = ["analyze", "--v2", "0.9", "--alpha", "1.03", "--beta-deg", "5", "--profile"]
_CURRENT = {"constraints": {"check_internal_current": True}}


@pytest.fixture
def counts(monkeypatch) -> dict:
    """Counters of the candidate solve and of what the commands build, through wrappers."""
    c = dict.fromkeys(("solves", "rows", "candidates", "walked", "profiles", "cables",
                       "optimum_points", "curves", "certified", "ruled_out"), 0)
    solve, better = optimizer._solve, optimizer._better
    delivered, ruled_out = optimizer._delivered, optimizer._ruled_out
    cable, optimum = optimizer._Cable, optimizer.OptimumPoint
    profile = cable_model.segment_profile

    def counted_solve(cables, window, bounds, ratios, point, pieces=(), rows=None, rays=None):
        def counted_point(alpha, beta, r):
            c["candidates"] += len(alpha)
            return point(alpha, beta, r)

        c["solves"] += 1
        c["rows"] += len(cables) if rows is None else len(rows)
        return solve(cables, window, bounds, ratios, counted_point, pieces, rows, rays)

    def counted_delivered(cables, rows, *args):
        best = delivered(cables, rows, *args)
        c["certified"] += int((~np.isnan(best[0])).sum())
        return best

    def counted_ruled_out(cables, rows):
        out = ruled_out(cables, rows)
        c["ruled_out"] += int(out.sum())
        return out

    def counted_better(cand, best):
        c["walked"] += len(cand[0])
        return better(cand, best)

    def counted(key, fun):
        def wrapper(*args, **kwargs):
            c[key] += 1
            return fun(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(optimizer, "_solve", counted_solve)
    monkeypatch.setattr(optimizer, "_better", counted_better)
    monkeypatch.setattr(optimizer, "_delivered", counted_delivered)
    monkeypatch.setattr(optimizer, "_ruled_out", counted_ruled_out)
    monkeypatch.setattr(optimizer, "_Cable", counted("cables", cable))
    monkeypatch.setattr(optimizer, "OptimumPoint", counted("optimum_points", optimum))
    for module in (cable_model, optimizer, cli):
        monkeypatch.setattr(module, "segment_profile", counted("profiles", profile))
    monkeypatch.setattr(annual_energy, "load_duration_curve",
                        counted("curves", annual_energy.load_duration_curve))
    return c


# (solves, rows solved, candidates scored, candidates compared with their row's best in
#  the walk, segment profiles, _Cable builds, OptimumPoint builds, duration curves loaded:
#  the --synth-uf bisection's builds, delivery rows certified in closed form, delivery rows
#  ruled out); a trailing dict is the study configuration
@pytest.mark.parametrize("argv,want", [
    (_GOLDEN_SWEEP, (1, 3, 48, 0, 0, 1, 0, 0, 0, 0)),
    (_GOLDEN_ENVELOPE, (1, 9, 161, 0, 0, 3, 0, 0, 0, 0)),
    (_GOLDEN_ANNUAL, (2, 4, 89, 2, 0, 2, 0, 57, 0, 0)),
    (_ANALYZE + ["50"], (0, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    (_ANALYZE + ["50", "--json"], (0, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    (_ANALYZE + ["2000"], (0, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    (["optimize", "--echo-config", "--json"], (1, 1, 8, 0, 0, 1, 0, 0, 0, 0)),
    (["optimize", "--p-farm-mw", "150"], (0, 0, 0, 0, 0, 1, 1, 0, 0, 0)),
    (_SWEEP, (1, 31, 516, 0, 0, 1, 0, 0, 0, 0)),
    (_ANNUAL, (2, 29, 617, 3, 0, 2, 0, 1, 0, 0)),
    (_ENVELOPE, (0, 0, 0, 29, 0, 31, 0, 0, 131, 24)),
    (["optimize", "--p-farm-mw", "150", {"cable": {"length_km": 250.0},
                                         "constraints": {"check_internal_voltage_max": 0.75}}],
     (1, 1, 79, 0, 2, 1, 1, 0, 0, 0)),
    (_GOLDEN_SWEEP + [{"cable": {"length_km": 150.0}, **_CURRENT}], (1, 1, 16, 0, 2, 1, 0, 0, 0, 0)),
    (_GOLDEN_ANNUAL + [_CURRENT], (2, 4, 89, 2, 4, 2, 0, 57, 0, 0)),
    (_GOLDEN_ENVELOPE + [_CURRENT], (1, 9, 161, 0, 6, 3, 0, 0, 0, 0)),
    (_GOLDEN_ENVELOPE + [{"constraints": {"check_internal_voltage_max": 0.9}}],
     (1, 9, 333, 1, 6, 3, 0, 0, 0, 0)),
    (_ANNUAL[:2] + ["350"] + _ANNUAL[3:] + [{"cable": {"length_km": 250.0}}],
     (2, 191, 3514, 1, 0, 2, 0, 1, 0, 0)),
], ids=["golden-sweep", "golden-envelope", "golden-annual", "analyze-50", "analyze-50-json",
        "analyze-2000", "optimize-echo", "readme-optimize-p", "readme-sweep", "readme-annual",
        "readme-envelope", "optimize-voltage-check", "sweep-current-check",
        "annual-current-check", "envelope-current-check", "envelope-voltage-check",
        "long-annual"])
def test_command_counts(counts, capsys, tmp_path, argv, want):
    assert cli.main(with_config(argv, tmp_path)) == 0
    capsys.readouterr()
    assert tuple(counts.values()) == want
