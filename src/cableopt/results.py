"""Plot-ready result tables: CSV with a unit header, or the same as JSON.

Format contract: the first non-comment line is the column names, the
following comment line carries the units, rows are comma-separated with
fixed %.12g float formatting, and a provenance footer (config hash, tool
version) trails as comments.  Identical inputs produce byte-identical
output.  Multiple sections may share one stream; each section starts
with a `# section: <name>` marker.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain, compress, repeat


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


@dataclass
class ResultTable:
    name: str
    columns: list[str]
    units: list[str]
    rows: list[tuple] = field(default_factory=list)

    def __post_init__(self):
        if len(self.columns) != len(self.units):
            raise ValueError("columns and units must have equal length")

    def add(self, *row):
        if len(row) != len(self.columns):
            raise ValueError(f"row width {len(row)} != {len(self.columns)} columns")
        self.rows.append(tuple(row))

    def has_nonfinite(self) -> bool:
        """True if a float cell (numpy float64 included) is NaN or infinite."""
        cells = list(chain.from_iterable(self.rows))
        floats = compress(cells, map(isinstance, cells, repeat(float)))
        return not all(map(math.isfinite, floats))


def provenance_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# A table's rows are written through one %-template built column by column:
# a column whose cells are all exact floats or all exact ints is formatted by
# % itself, every other column is turned into strings first and goes in through %s.

def _csv_column(values: tuple) -> tuple[str, tuple]:
    kinds = set(map(type, values))
    if kinds == {float}:
        return "%.12g", values          # the text of f"{v:.12g}"
    if kinds == {int}:
        return "%d", values             # the text of str(v)
    return "%s", tuple(map(_fmt, values))


def _json_column(values: tuple) -> tuple[str, tuple]:
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return "%r", values             # float.__repr__, as json writes it
    if kinds == {int}:
        return "%d", values
    return "%s", tuple(map(json.dumps, values))


def _cells(rows: list[tuple], column_format) -> tuple[list[str], tuple]:
    """The %-spec of each column and every cell, row by row, for one % call."""
    columns = [column_format(values) for values in zip(*rows)]
    cells = tuple(chain.from_iterable(zip(*[values for _, values in columns])))
    return [spec for spec, _ in columns], cells


def _json_block(value, depth: int) -> str:
    """json.dumps(value, indent=2, sort_keys=True) nested `depth` levels deep."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _json_table(table: ResultTable) -> str:
    rows = "[]"
    if table.rows:
        specs, cells = _cells(table.rows, _json_column)
        row = "        []"
        if specs:
            row = "        [\n          " + ",\n          ".join(specs) + "\n        ]"
        rows = "[\n" + ",\n".join([row] * len(table.rows)) % cells + "\n      ]"
    return (f'{{\n      "columns": {_json_block(table.columns, 3)},\n'
            f'      "rows": {rows},\n'
            f'      "units": {_json_block(table.units, 3)}\n    }}')


def write_tables(
    fh,
    tables: list[ResultTable],
    provenance: dict[str, str],
    json_mode: bool = False,
    config_echo: dict | None = None,
):
    """Write the tables as CSV, or with json_mode as the JSON document
    {"config"?, "provenance", "sections": {name: {columns, rows, units}}}
    laid out exactly as json.dump(doc, indent=2, sort_keys=True) lays it out;
    of two tables with one name, the later one is the section."""
    if json_mode:
        named = {t.name: t for t in tables}
        sections = "{}"
        if named:
            sections = "{\n" + ",\n".join(
                f"    {json.dumps(name)}: {_json_table(named[name])}"
                for name in sorted(named)) + "\n  }"
        parts = [f'  "provenance": {_json_block(provenance, 1)}',
                 f'  "sections": {sections}']
        if config_echo is not None:
            parts.insert(0, f'  "config": {_json_block(config_echo, 1)}')
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")
        return
    if config_echo is not None:
        for line in json.dumps(config_echo, indent=2, sort_keys=True).splitlines():
            fh.write(f"# config: {line}\n")
    for table in tables:
        fh.write(f"# section: {table.name}\n")
        fh.write(",".join(table.columns) + "\n")
        fh.write("# units: " + ",".join(table.units) + "\n")
        specs, cells = _cells(table.rows, _csv_column)
        fh.write((",".join(specs) + "\n") * len(table.rows) % cells)
    for key in sorted(provenance):
        fh.write(f"# {key}: {provenance[key]}\n")


def read_tables(fh) -> dict[str, ResultTable]:
    """Round-trip reader for the CSV format; numbers come back as floats."""
    tables: dict[str, ResultTable] = {}
    current: ResultTable | None = None
    expect_header = False
    for raw in fh:
        line = raw.rstrip("\n")
        if line.startswith("# section: "):
            name = line[len("# section: "):]
            tables[name] = current = ResultTable(name, [], [])
            expect_header = True
            continue
        if line.startswith("# units: "):
            if current is None:
                raise ValueError("units line before any section")
            current.units = line[len("# units: "):].split(",")
            continue
        if not line or line.startswith("#"):
            continue
        if current is None:
            raise ValueError("data line before any section")
        if expect_header:
            current.columns = line.split(",")
            expect_header = False
            continue
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        current.rows.append(tuple(row))
    for t in tables.values():
        if len(t.units) != len(t.columns):
            raise ValueError(f"section {t.name}: units/columns mismatch")
    return tables

