"""Plot-ready result tables: CSV with a unit header, or the same as JSON.

Format contract: the first non-comment line is the column names, the
following comment line carries the units, rows are comma-separated with
fixed %.12g float formatting, and a provenance footer (config hash, tool
version) trails as comments.  Identical inputs produce byte-identical
output.  Multiple sections may share one stream; each section starts
with a `# section: <name>` marker.

Tables are held by column.  `Document` scans each column once, before
anything is written, for its %-spec, its cells and whether its float cells
(numpy float64 included) are all finite: a caller refuses non-finite tables
before it opens its output, and `write_tables` formats from the scans.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import compress, repeat


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
    """A table held by column, cells[k] being column k; a table without columns has no rows."""

    name: str
    columns: list[str]
    units: list[str]
    cells: list[list] = field(default_factory=list)

    def __post_init__(self):
        if len(self.columns) != len(self.units):
            raise ValueError("columns and units must have equal length")
        self.cells = self.cells or [[] for _ in self.columns]
        if len(self.cells) != len(self.columns) or len(set(map(len, self.cells))) > 1:
            raise ValueError(f"{len(self.columns)} columns need as many cell lists of one length")

    def __len__(self) -> int:
        return len(self.cells[0]) if self.cells else 0

    def add(self, *row):
        if len(row) != len(self.columns):
            raise ValueError(f"row width {len(row)} != {len(self.columns)} columns")
        for column, cell in zip(self.cells, row):
            column.append(cell)

    @property
    def rows(self) -> list[tuple]:
        """The cells row by row: a new list, which add does not change."""
        return list(zip(*self.cells))


def provenance_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# A table's rows are written through one %-template built column by column:
# a column whose cells are all exact floats or all exact ints is formatted by
# % itself, every other column is turned into strings first and goes in through %s.

def _kinds(values) -> tuple[set, bool]:
    """The cell types of a column, and whether its float cells are all finite."""
    kinds = set(map(type, values))
    if kinds == {float}:    # a sum of floats is finite only where every term is, overflow aside
        return kinds, math.isfinite(sum(values)) or all(map(math.isfinite, values))
    floats = compress(values, map(isinstance, values, repeat(float)))
    return kinds, not any(issubclass(kind, float) for kind in kinds) or all(map(math.isfinite, floats))


def _csv_column(values) -> tuple[str, list | tuple, bool]:
    kinds, finite = _kinds(values)
    if kinds == {float}:
        return "%.12g", values, finite      # the text of f"{v:.12g}"
    if kinds == {int}:
        return "%d", values, finite         # the text of str(v)
    return "%s", tuple(map(_fmt, values)), finite


def _json_column(values) -> tuple[str, list | tuple, bool]:
    kinds, finite = _kinds(values)
    if kinds == {float} and finite:
        return "%r", values, finite         # float.__repr__, as json writes it
    if kinds == {int}:
        return "%d", values, finite
    return "%s", tuple(map(json.dumps, values)), finite


class Document:
    """The tables of one CSV or JSON output, every column scanned once.

    Per table it holds the %-spec of each column, every cell row by row for
    one % call, and whether all its float cells are finite.
    """

    def __init__(self, tables: list[ResultTable], json_mode: bool = False):
        column_format = _json_column if json_mode else _csv_column
        self.json_mode = json_mode
        self.tables = []
        for table in tables:
            specs, flat, finite = [], [None] * (len(table) * len(table.cells)), True
            for k, values in enumerate(table.cells):
                spec, cells, column_finite = column_format(values)
                specs.append(spec)
                flat[k::len(table.cells)] = cells
                finite &= column_finite
            self.tables.append((table, specs, tuple(flat), finite))

    def nonfinite(self) -> str | None:
        """The name of the first table with a NaN or infinite float cell, or None."""
        return next((table.name for table, _, _, finite in self.tables if not finite), None)


def _json_block(value, depth: int) -> str:
    """json.dumps(value, indent=2, sort_keys=True) nested `depth` levels deep."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _json_table(table: ResultTable, specs: list[str], cells: tuple) -> str:
    rows = "[]"
    if len(table):
        row = "        []"
        if specs:
            row = "        [\n          " + ",\n          ".join(specs) + "\n        ]"
        rows = "[\n" + ",\n".join([row] * len(table)) % cells + "\n      ]"
    return (f'{{\n      "columns": {_json_block(table.columns, 3)},\n'
            f'      "rows": {rows},\n'
            f'      "units": {_json_block(table.units, 3)}\n    }}')


def write_tables(
    fh,
    document: Document,
    provenance: dict[str, str],
    config_echo: dict | None = None,
):
    """Write the document's tables as CSV, or in its json_mode as the JSON document
    {"config"?, "provenance", "sections": {name: {columns, rows, units}}}
    laid out exactly as json.dump(doc, indent=2, sort_keys=True) lays it out;
    of two tables with one name, the later one is the section."""
    if document.json_mode:
        named = {table.name: (table, specs, cells) for table, specs, cells, _ in document.tables}
        sections = "{}"
        if named:
            sections = "{\n" + ",\n".join(
                f"    {json.dumps(name)}: {_json_table(*named[name])}"
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
    for table, specs, cells, _ in document.tables:
        fh.write(f"# section: {table.name}\n")
        fh.write(",".join(table.columns) + "\n")
        fh.write("# units: " + ",".join(table.units) + "\n")
        fh.write((",".join(specs) + "\n") * len(table) % cells)
    for key in sorted(provenance):
        fh.write(f"# {key}: {provenance[key]}\n")


def read_tables(fh) -> dict[str, ResultTable]:
    """Round-trip reader for the CSV format; numbers come back as floats."""
    sections: dict[str, list] = {}      # name: [columns, units, rows]
    current: list | None = None
    expect_header = False
    for raw in fh:
        line = raw.rstrip("\n")
        if line.startswith("# section: "):
            current = sections[line[len("# section: "):]] = [[], [], []]
            expect_header = True
            continue
        if line.startswith("# units: "):
            if current is None:
                raise ValueError("units line before any section")
            current[1] = line[len("# units: "):].split(",")
            continue
        if not line or line.startswith("#"):
            continue
        if current is None:
            raise ValueError("data line before any section")
        if expect_header:
            current[0] = line.split(",")
            expect_header = False
            continue
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        current[2].append(row)
    tables = {}
    for name, (columns, units, rows) in sections.items():
        if len(units) != len(columns):
            raise ValueError(f"section {name}: units/columns mismatch")
        tables[name] = table = ResultTable(name, columns, units)
        for row in rows:
            table.add(*row)
    return tables
