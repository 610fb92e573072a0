"""Deterministic CSV emission for scenario outputs.

Floats are written in scientific notation with 15 significant digits and a
'.' decimal separator; rows come out in the order given, so a fixed config
and seed always reproduce byte-identical files.  Mixed rows (bools, ints,
strings, floats) are written cell by cell; a ``FloatBlock`` writes the rows
of a float matrix with one format string per row.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.14e}"
    return str(value)


@dataclass(frozen=True, eq=False)
class FloatBlock:
    """The rows of a float matrix, each led by the same cells ``lead``."""

    lead: tuple
    matrix: np.ndarray


def emit_csv(rows: Sequence[Sequence | FloatBlock], header: Sequence[str],
             path: str | Path) -> int:
    width = len(header)
    for i, row in enumerate(rows):
        cells = len(row.lead) + row.matrix.shape[1] if isinstance(row, FloatBlock) else len(row)
        if cells != width:
            raise ValueError(f"row {i} has {cells} cells, header has {width}")
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if not isinstance(row, FloatBlock):
                writer.writerow([format_cell(cell) for cell in row])
                continue
            line = "".join(format_cell(cell).replace("%", "%%") + "," for cell in row.lead)
            line += ",".join(["%.14e"] * row.matrix.shape[1]) + "\n"
            # a chunk at a time, so only one chunk of rows is held as Python floats
            for start in range(0, len(row.matrix), 4096):
                fh.writelines(line % tuple(r) for r in row.matrix[start:start + 4096].tolist())
    return sum(len(row.matrix) if isinstance(row, FloatBlock) else 1 for row in rows)
