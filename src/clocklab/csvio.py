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

A varying float column is formatted in numpy, each cell still exactly
``'%.14e' % x``: with e = ``floor(log10|x|)``, corrected by one where needed,
``|x| 10^(14-e)`` in long double rounds to the 15-digit mantissa.  It is within
2^-13 of the exact product on x86-64, so a cell whose fraction lies within
``_MARGIN`` (2^-8 there) of 0.5, or that is not finite, or whose product falls
outside [1e14, 1e15), goes to ``'%.14e' %`` itself.  Where long double is only
a double the margin reads 8 and every cell does.
"""
from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

_SLOTS = {"f": "%.14e", "i": "%d", "u": "%d", "b": "%d", "U": "%s"}


def _tables():
    """10^k in long double, parsed from the text 1e-400 ... 1e+400; the ASCII
    of every 4-digit group and of every exponent's text e+XX or e-XXX, as
    little-endian words.  Exponent tables are indexed by k + 400."""
    k = np.arange(-400, 401)
    sign, digits = np.where(k < 0, ord("-"), ord("+")), np.abs(k)[:, None] // [100, 10, 1] % 10
    text = np.stack([np.full(len(k), ord("1")), np.full(len(k), ord("e")), sign,
                     *(digits + ord("0")).T], axis=1).astype("<u4").view("<U6").ravel()
    groups = np.stack(np.indices((10,) * 4, np.uint8), axis=-1) + ord("0")
    exponents = ((digits + ord("0")) << [0, 8, 16]).sum(axis=1) >> np.where(np.abs(k) < 100, 8, 0)
    return (text.astype(np.longdouble), groups.view("<u4").ravel().astype(np.uint64),
            (ord("e") | sign << 8 | exponents << 16).astype(np.uint64))


_POW10, _GROUPS, _EXPONENTS = _tables()
_MARGIN = 64 * 2.0 ** 49 * np.finfo(np.longdouble).eps


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``'%.14e' % cell`` for every cell of ``x``, as an S24 array."""
    x = np.asarray(x, dtype=np.float64)
    usable = np.isfinite(x) & (x != 0.0)
    e = np.floor(np.log10(np.where(usable, np.abs(x), 1.0))).astype(np.int64)
    a = np.where(usable, np.abs(x), 0.0).astype(np.longdouble)  # 0 where not usable, e = 0
    e += (a >= _POW10[e + 401]).astype(np.int64) - ((a < _POW10[e + 400]) & usable)
    s = a * _POW10[400 + 14 - e]
    m = s.astype(np.int64)
    fraction = (s - m).astype(np.float64)
    fast = (m >= 10 ** 14) & (m < 10 ** 15) & (np.abs(fraction - 0.5) >= _MARGIN) | (x == 0.0)
    m += fraction > 0.5
    carry = m == 10 ** 15  # 9.99...95e-05 rounds to 1.00...0e-04
    m, e = np.where(carry, 10 ** 14, m), e + carry
    high, low = m // 10 ** 8, m % 10 ** 8
    g0, g2 = _GROUPS[high // 10000], _GROUPS[low // 10000]
    # bytes 0-7 "D.dddddd" (the group "0Ddd" with its D moved before the point), 8-15 "dddddddd"
    w0 = g0 >> 8 & 0xFF | 0x2E00 | g0 & 0xFFFF0000 | _GROUPS[high % 10000] << 32
    w1 = g2 | _GROUPS[low % 10000] << 32
    # a minus sign shifts the cell's 24 bytes one byte up
    minus = np.signbit(x).astype(np.uint64)
    shift = minus << 3
    cells = np.empty((len(x), 3), "<u8")
    cells[:, 0] = w0 << shift | minus * ord("-")
    cells[:, 1] = w1 << shift | (w0 >> 56) * minus
    cells[:, 2] = _EXPONENTS[e + 400] << shift | (w1 >> 56) * minus
    cells = cells.view("S24").ravel()
    cells[~fast] = [b"%.14e" % v for v in x[~fast].tolist()]
    return cells


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
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for table in tables:
            slots, varying = [], []
            for column in map(np.asarray, table):
                slot = _SLOTS[column.dtype.kind]
                keys = column.view(f"i{column.itemsize}") if slot == "%.14e" else column
                if len(column) and (keys == keys[0]).all():
                    # a constant cell is literal text in the row template
                    slots.append((slot % column[0].item()).replace("%", "%%"))
                else:
                    slots.append("%d" if slot == "%d" else "%s")  # float and str cells are bytes
                    varying.append(np.array([cell.encode() for cell in column.tolist()], object)
                                   if slot == "%s" else column)
            n = len(table[0])
            line = (",".join(slots) + "\n").encode()
            # a chunk at a time, so only one chunk of rows is held as Python objects
            for start in range(0, n, 4096):
                chunk = np.empty((min(4096, n - start), len(varying)), object)
                for j, column in enumerate(varying):
                    part = column[start:start + 4096]
                    chunk[:, j] = _float_cells(part) if part.dtype.kind == "f" else part
                fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
    return sum(len(table[0]) for table in tables)
