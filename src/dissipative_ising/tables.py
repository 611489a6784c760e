"""Plot-ready CSV tables and JSON run metadata.

Data files are UTF-8 CSV with a header row, '.' decimal separator,
17-significant-digit floats, LF line endings and deterministic row
order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Table:
    """A named column layout plus rows of plain Python values."""

    columns: list[str]
    rows: list[list] = field(default_factory=list)

    def append(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))


def format_cell(value) -> str:
    """Deterministic text form: bools as 0/1, floats at 17 significant digits."""
    # the exact built-in types first, each given the text the isinstance
    # chain below gives it; numpy scalars and subclasses take the chain
    kind = type(value)
    if kind is float:
        return format(value, ".17g")
    if kind is str:
        return value
    if kind is int:
        return str(value)
    if kind is bool:
        return "1" if value else "0"
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_table(table: Table, path) -> None:
    """Write a table as CSV (header row, LF endings)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([format_cell(v) for v in row])


def write_metadata(path, config: dict, timings: dict, outputs: list[str],
                   tool_name: str, tool_version: str) -> None:
    """Write the run manifest.

    The embedded ``config`` block has every default materialized and can
    be fed back to the CLI to reproduce the run byte for byte.
    """
    payload = {
        "tool": {"name": tool_name, "version": tool_version},
        "config": config,
        "timings": timings,
        "outputs": outputs,
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
