"""Result tables: the written CSV and JSON text, and the non-finite check."""

import io
import json
import math
import random

import numpy as np
import pytest

from cableopt import results
from cableopt.results import ResultTable, read_tables, write_tables


def _ref_fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def _reference(tables, provenance, json_mode, config_echo) -> str:
    """The format, cell by cell: a per-cell CSV join and json.dump."""
    fh = io.StringIO()
    if json_mode:
        doc = {"sections": {t.name: {"columns": t.columns, "units": t.units,
                                     "rows": [list(r) for r in t.rows]} for t in tables},
               "provenance": provenance}
        if config_echo is not None:
            doc["config"] = config_echo
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
        return fh.getvalue()
    if config_echo is not None:
        for line in json.dumps(config_echo, indent=2, sort_keys=True).splitlines():
            fh.write(f"# config: {line}\n")
    for t in tables:
        fh.write(f"# section: {t.name}\n")
        fh.write(",".join(t.columns) + "\n")
        fh.write("# units: " + ",".join(t.units) + "\n")
        for row in t.rows:
            fh.write(",".join(_ref_fmt(v) for v in row) + "\n")
    for key in sorted(provenance):
        fh.write(f"# {key}: {provenance[key]}\n")
    return fh.getvalue()


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, 5e-324]
_TEXT = ['a"b', "line\nbreak", "x,y", "Ω-km", "naïve", "", "plain", "\\", "日本"]


def _float(rng):
    if rng.random() < 0.2:
        return rng.choice(_SPECIAL)
    return rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300)


_CELLS = {
    "float": _float,
    "finite": lambda rng: rng.uniform(-1e3, 1e3),
    "int": lambda rng: rng.choice([0, -7, 12, 10 ** 12 + rng.randrange(10 ** 6), 2 ** 70]),
    "bool": lambda rng: rng.random() < 0.5,
    "np.float64": lambda rng: np.float64(_float(rng)),
    "str": lambda rng: rng.choice(_TEXT),
}


def _column(rng):
    kinds = rng.sample(sorted(_CELLS), rng.choice([1, 1, 1, 2]))
    return lambda: _CELLS[rng.choice(kinds)](rng)


def _random_document(seed):
    rng = random.Random(seed)
    tables = []
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        width = rng.choice([0, 1, 3, 7])
        cells = [_column(rng) for _ in range(width)]
        table = ResultTable(rng.choice(["flow", "profile", "sweep", "a,b"]),
                            [f"c{k}" for k in range(width)], ["-"] * width)
        for _ in range(rng.choice([0, 1, 2, 15])):
            table.add(*[cell() for cell in cells])
        tables.append(table)
    provenance = {"config_sha256": f"{rng.getrandbits(64):016x}", "tool": "cableopt/x"}
    if rng.random() < 0.5:
        provenance["duration_curve"] = rng.choice(_TEXT)
    config_echo = None
    if rng.random() < 0.5:
        config_echo = {"cable": {"length_km": _float(rng), "name": rng.choice(_TEXT)},
                       "list": [1, 2.5, True, None], "empty": {}, "none": []}
    return tables, provenance, config_echo


@pytest.mark.parametrize("json_mode", [False, True], ids=["csv", "json"])
def test_write_tables_matches_cell_by_cell_reference(json_mode):
    for seed in range(300):
        tables, provenance, config_echo = _random_document(seed)
        fh = io.StringIO()
        write_tables(fh, tables, provenance, json_mode=json_mode, config_echo=config_echo)
        assert fh.getvalue() == _reference(tables, provenance, json_mode, config_echo), seed


@pytest.mark.parametrize("cells,spec", [
    ((0, -7, 2 ** 63, -(2 ** 63) - 1, 10 ** 30), "%d"),
    ((True, False), "%s"),
    ((3, 2.5, -1), "%s"),
    ((1, True), "%s"),
], ids=["ints", "bools", "ints-floats", "ints-bools"])
def test_csv_int_column_is_its_str(cells, spec):
    # an all-int column goes through %d, which writes str(v) for any int;
    # bools stay 1/0 and a mixed column is written cell by cell
    assert results._csv_column(cells)[0] == spec
    table = ResultTable("t", ["n"], ["-"])
    for cell in cells:
        table.add(cell)
    fh = io.StringIO()
    write_tables(fh, [table], {"tool": "t"})
    assert fh.getvalue() == _reference([table], {"tool": "t"}, False, None)
    assert fh.getvalue().splitlines()[3:3 + len(cells)] == [_ref_fmt(cell) for cell in cells]


def test_written_csv_reloads():
    table = ResultTable("t", ["i", "x", "flag", "name"], ["-", "m", "flag", "-"])
    table.add(10 ** 13, -0.0, True, "a")
    table.add(-3, 1e-300, False, "b")
    fh = io.StringIO()
    write_tables(fh, [table], {"tool": "t"})
    fh.seek(0)
    assert read_tables(fh)["t"].rows == [(1e13, -0.0, 1.0, "a"), (-3.0, 1e-300, 0.0, "b")]


@pytest.mark.parametrize("value,flagged", [
    (math.nan, True), (math.inf, True), (-math.inf, True),
    (np.float64("nan"), True), (np.float64("inf"), True), (np.float64("-inf"), True),
    (0.0, False), (1e308, False), (np.float64(2.5), False),
    (True, False), (False, False), (0, False), (10 ** 400, False),
    ("nan", False), ("inf", False),
])
def test_has_nonfinite(value, flagged):
    table = ResultTable("t", ["a", "b"], ["-", "-"])
    assert not table.has_nonfinite()
    table.add(1.0, "x")
    table.add("y", value)
    assert table.has_nonfinite() is flagged


@pytest.mark.parametrize("build,message", [
    (lambda: ResultTable("t", ["a", "b"], ["-"]), "^columns and units must have equal length$"),
    (lambda: ResultTable("t", ["a", "b"], ["-", "-"]).add(1.0), r"^row width 1 != 2 columns$"),
    (lambda: read_tables(io.StringIO("# units: -\n")), "^units line before any section$"),
    (lambda: read_tables(io.StringIO("a,b\n")), "^data line before any section$"),
    (lambda: read_tables(io.StringIO("# section: t\na,b\n# units: -\n1,2\n")),
     "^section t: units/columns mismatch$"),
], ids=["units-width", "row-width", "units-first", "data-first", "units-columns"])
def test_malformed_tables_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()
