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
from dataclasses import dataclass, field


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
        for row in self.rows:
            for v in row:
                if isinstance(v, float) and v != v:
                    return True
                if isinstance(v, float) and v in (float("inf"), float("-inf")):
                    return True
        return False

    def as_dict(self) -> dict:
        return {"columns": self.columns, "units": self.units,
                "rows": [list(r) for r in self.rows]}


def provenance_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def write_tables(
    fh,
    tables: list[ResultTable],
    provenance: dict[str, str],
    json_mode: bool = False,
    config_echo: dict | None = None,
):
    if json_mode:
        doc = {"sections": {t.name: t.as_dict() for t in tables},
               "provenance": provenance}
        if config_echo is not None:
            doc["config"] = config_echo
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
        return
    if config_echo is not None:
        for line in json.dumps(config_echo, indent=2, sort_keys=True).splitlines():
            fh.write(f"# config: {line}\n")
    for table in tables:
        fh.write(f"# section: {table.name}\n")
        fh.write(",".join(table.columns) + "\n")
        fh.write("# units: " + ",".join(table.units) + "\n")
        for row in table.rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
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

