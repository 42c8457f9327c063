"""Result tables: the written CSV and JSON text, and the non-finite verdict of the writer's scan."""

import io
import json
import math
import random

import numpy as np
import pytest

from cableopt import results
from cableopt.results import Document, ResultTable, read_tables, write_tables


def _ref_fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def _reference(sections, provenance, json_mode, config_echo) -> str:
    """The format, cell by cell from (name, columns, units, rows): a per-cell CSV join and json.dump."""
    fh = io.StringIO()
    if json_mode:
        doc = {"sections": {name: {"columns": columns, "units": units, "rows": [list(r) for r in rows]}
                            for name, columns, units, rows in sections},
               "provenance": provenance}
        if config_echo is not None:
            doc["config"] = config_echo
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
        return fh.getvalue()
    if config_echo is not None:
        for line in json.dumps(config_echo, indent=2, sort_keys=True).splitlines():
            fh.write(f"# config: {line}\n")
    for name, columns, units, rows in sections:
        fh.write(f"# section: {name}\n")
        fh.write(",".join(columns) + "\n")
        fh.write("# units: " + ",".join(units) + "\n")
        for row in rows:
            fh.write(",".join(_ref_fmt(v) for v in row) + "\n")
    for key in sorted(provenance):
        fh.write(f"# {key}: {provenance[key]}\n")
    return fh.getvalue()


def _ref_nonfinite(sections) -> str | None:
    """The first section with a float cell (numpy float64 included) that is NaN or infinite."""
    for name, _, _, rows in sections:
        if any(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row):
            return name
    return None


def _write(tables, provenance, json_mode=False, config_echo=None) -> str:
    fh = io.StringIO()
    write_tables(fh, Document(tables, json_mode), provenance, config_echo=config_echo)
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
    """Random tables, each built by add or from its columns, with the (name, columns, units, rows)
    they hold; a table without columns has no rows."""
    rng = random.Random(seed)
    tables, sections = [], []
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        width = rng.choice([0, 1, 3, 7])
        cells = [_column(rng) for _ in range(width)]
        name, columns = rng.choice(["flow", "profile", "sweep", "a,b"]), [f"c{k}" for k in range(width)]
        rows = [tuple(cell() for cell in cells) for _ in range(rng.choice([0, 1, 2, 15]) if width else 0)]
        if rng.random() < 0.5:
            table = ResultTable(name, columns, ["-"] * width)
            for row in rows:
                table.add(*row)
        else:
            table = ResultTable(name, columns, ["-"] * width, [list(c) for c in zip(*rows)])
        tables.append(table)
        sections.append((name, columns, ["-"] * width, rows))
    provenance = {"config_sha256": f"{rng.getrandbits(64):016x}", "tool": "cableopt/x"}
    if rng.random() < 0.5:
        provenance["duration_curve"] = rng.choice(_TEXT)
    config_echo = None
    if rng.random() < 0.5:
        config_echo = {"cable": {"length_km": _float(rng), "name": rng.choice(_TEXT)},
                       "list": [1, 2.5, True, None], "empty": {}, "none": []}
    return tables, sections, provenance, config_echo


@pytest.mark.parametrize("json_mode", [False, True], ids=["csv", "json"])
def test_write_tables_matches_cell_by_cell_reference(json_mode):
    for seed in range(300):
        tables, sections, provenance, config_echo = _random_document(seed)
        assert [t.rows for t in tables] == [rows for *_, rows in sections], seed
        document = Document(tables, json_mode)
        assert document.nonfinite() == _ref_nonfinite(sections), seed
        fh = io.StringIO()
        write_tables(fh, document, provenance, config_echo=config_echo)
        assert fh.getvalue() == _reference(sections, provenance, json_mode, config_echo), seed


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
    text = _write([table], {"tool": "t"})
    assert text == _reference([("t", ["n"], ["-"], [(cell,) for cell in cells])], {"tool": "t"}, False, None)
    assert text.splitlines()[3:3 + len(cells)] == [_ref_fmt(cell) for cell in cells]


def test_written_csv_reloads():
    table = ResultTable("t", ["i", "x", "flag", "name"], ["-", "m", "flag", "-"])
    table.add(10 ** 13, -0.0, True, "a")
    table.add(-3, 1e-300, False, "b")
    reloaded = read_tables(io.StringIO(_write([table], {"tool": "t"})))["t"]
    assert reloaded.rows == [(1e13, -0.0, 1.0, "a"), (-3.0, 1e-300, 0.0, "b")]


@pytest.mark.parametrize("value,flagged", [
    (math.nan, True), (math.inf, True), (-math.inf, True),
    (np.float64("nan"), True), (np.float64("inf"), True), (np.float64("-inf"), True),
    (0.0, False), (1e308, False), (np.float64(2.5), False),
    (True, False), (False, False), (0, False), (10 ** 400, False),
    ("nan", False), ("inf", False),
])
def test_has_nonfinite(value, flagged):
    # the verdict of the writer's column scan, in either output mode
    table = ResultTable("t", ["a", "b"], ["-", "-"])
    assert Document([table]).nonfinite() is None
    table.add(1.0, "x")
    table.add("y", value)
    for json_mode in (False, True):
        assert (Document([table], json_mode).nonfinite() == "t") is flagged


_NONFINITE = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("inf"), np.float64("-inf")]


@pytest.mark.parametrize("column", [
    [1.0, -2.5, 0.0],
    [1e308, 1e308],                         # finite cells whose sum overflows
    [np.float64(1.5), 2.5],
    [0, -7, 2 ** 63, 2 ** 70, -(2 ** 70)],
    [True, False],
    ["nan", "inf", "-inf", "x"],
    [1, 2.5, True, "x", np.float64(3.0), 2 ** 64],
    [],
], ids=["float", "float-overflow", "np.float64", "int", "bool", "str", "mixed", "empty"])
def test_scan_verdict_matches_a_cell_wise_reference(column):
    # each non-finite value, Python float and numpy float64, at each place of the column,
    # which is the second table, after a finite one
    finite = ResultTable("f", ["x"], ["-"], [[1.0, 2]])
    for bad in [None, *_NONFINITE]:
        for at in range(len(column) + 1):
            cells = column[:at] + [bad] + column[at:] if bad is not None else column
            rows = [(cell,) for cell in cells]
            sections = [("f", ["x"], ["-"], finite.rows), ("t", ["c"], ["-"], rows)]
            tables = [finite, ResultTable("t", ["c"], ["-"], [list(cells)])]
            for json_mode in (False, True):
                document = Document(tables, json_mode)
                assert document.nonfinite() == _ref_nonfinite(sections), (bad, at, json_mode)
                assert _write(tables, {"tool": "t"}, json_mode) == _reference(
                    sections, {"tool": "t"}, json_mode, None)


def test_scan_verdict_of_tables_without_cells():
    tables = [ResultTable("none", [], []), ResultTable("empty", ["a", "b"], ["-", "-"])]
    tables[0].add()
    assert tables[0].rows == [] and tables[1].rows == []
    for json_mode in (False, True):
        assert Document(tables, json_mode).nonfinite() is None


def test_shadowed_json_section_is_still_checked():
    # of two tables with one name JSON writes the later one, but the verdict covers both
    shadowed = ResultTable("t", ["a"], ["-"], [[math.nan]])
    later = ResultTable("t", ["a"], ["-"], [[1.0]])
    document = Document([shadowed, later], json_mode=True)
    assert document.nonfinite() == "t"
    written = json.loads(_write([shadowed, later], {"tool": "t"}, json_mode=True))
    assert written["sections"]["t"]["rows"] == [[1.0]]
    assert Document([later, later], json_mode=True).nonfinite() is None


@pytest.mark.parametrize("build,message", [
    (lambda: ResultTable("t", ["a", "b"], ["-"]), "^columns and units must have equal length$"),
    (lambda: ResultTable("t", ["a", "b"], ["-", "-"]).add(1.0), r"^row width 1 != 2 columns$"),
    (lambda: ResultTable("t", ["a", "b"], ["-", "-"], [[1.0]]),
     "^2 columns need as many cell lists of one length$"),
    (lambda: ResultTable("t", ["a", "b"], ["-", "-"], [[1.0], []]),
     "^2 columns need as many cell lists of one length$"),
    (lambda: read_tables(io.StringIO("# units: -\n")), "^units line before any section$"),
    (lambda: read_tables(io.StringIO("a,b\n")), "^data line before any section$"),
    (lambda: read_tables(io.StringIO("# section: t\na,b\n# units: -\n1,2\n")),
     "^section t: units/columns mismatch$"),
    (lambda: read_tables(io.StringIO("# section: t\na,b\n# units: -,-\n1,2\n3\n")),
     r"^row width 1 != 2 columns$"),
], ids=["units-width", "row-width", "cells-width", "cells-length", "units-first", "data-first",
        "units-columns", "ragged-row"])
def test_malformed_tables_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()
