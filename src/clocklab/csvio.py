"""Deterministic CSV emission for scenario outputs.

Floats are written in scientific notation with 15 significant digits and a
'.' decimal separator; rows come out in the order given, so a fixed config
and seed always reproduce byte-identical files.  Mixed rows (bools, ints,
strings, floats) are written cell by cell.  A ``FloatBlock`` writes the rows
of a float matrix from one row template: a column whose cells all share row
0's bit pattern (most trajectory columns are constants of the motion) is
formatted once into the template, and the varying columns of 4096 rows at a
time are filled in by one ``%`` operation.  The bytes are those of the cell
by cell path, since ``%.14e`` output depends only on a float's bit pattern
(so ``0.0`` and ``-0.0`` never share a cell, nor do NaNs of different
payloads, although those format alike).
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
            matrix = row.matrix
            if not len(matrix):
                continue
            bits = matrix.view(np.int64)
            varying = (bits != bits[:1]).any(axis=0)
            # lead and constant cells are literal text in the row template
            template = [format_cell(cell).replace("%", "%%") for cell in row.lead]
            template += ["%.14e" if vary else format_cell(value)
                         for vary, value in zip(varying.tolist(), matrix[0].tolist())]
            line = ",".join(template) + "\n"
            # a chunk at a time, so only one chunk of rows is held as Python floats
            for start in range(0, len(matrix), 4096):
                chunk = matrix[start:start + 4096, varying]
                fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
    return sum(len(row.matrix) if isinstance(row, FloatBlock) else 1 for row in rows)
