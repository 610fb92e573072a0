"""Deterministic CSV emission for scenario outputs.

A scenario's output is a list of tables, each a list of equal-length 1-D
numpy columns, and every table is written from one row template.  A
column's dtype picks its slot: a float is ``%.14e`` (15 significant digits,
'.' decimal separator), an integer or a bool ``%d`` (a flag reads 1 or 0),
a string ``%s``.  A column whose cells all hold row 0's value is formatted
once into the template, and the varying columns of 4096 rows at a time fill
it in by one ``%`` operation.  For a float column "the same value" means the
same bit pattern: ``%.14e`` output depends on the bits alone, while ``==``
calls 0.0 and -0.0 equal (they print differently) and no NaN equal to
itself.  Rows come out in the order given, so a fixed config and seed always
reproduce byte-identical files.  No cell is quoted, so the bytes are those
the ``csv`` module writes for the same cells as long as no string is empty
or holds a comma, a double quote or a line break; none of the scenarios'
strings (column names, bracket pair labels, snapshot axes) does.
"""
from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

_SLOTS = {"f": "%.14e", "i": "%d", "u": "%d", "b": "%d", "U": "%s"}


def emit_csv(tables: Sequence[Sequence[np.ndarray]], header: Sequence[str],
             path: str | Path) -> int:
    """Write ``header`` and the rows of every table, in order, to ``path``;
    returns the number of rows written."""
    width = len(header)
    for i, table in enumerate(tables):
        if len(table) != width or len({len(column) for column in table}) != 1:
            raise ValueError(f"table {i} is not {width} columns of one length")
    path = Path(path)
    if not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for table in tables:
            slots, varying = [], []
            for column in map(np.asarray, table):
                slot = _SLOTS[column.dtype.kind]
                keys = column.view(f"i{column.itemsize}") if slot == "%.14e" else column
                if len(column) and (keys == keys[0]).all():
                    # a constant cell is literal text in the row template
                    slots.append((slot % column[0].item()).replace("%", "%%"))
                else:
                    slots.append(slot)
                    varying.append(column)
            n = len(table[0])
            line = ",".join(slots) + "\n"
            # a chunk at a time, so only one chunk of rows is held as Python objects
            for start in range(0, n, 4096):
                chunk = np.empty((min(4096, n - start), len(varying)), object)
                for j, column in enumerate(varying):
                    chunk[:, j] = column[start:start + 4096]
                fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
    return sum(len(table[0]) for table in tables)
