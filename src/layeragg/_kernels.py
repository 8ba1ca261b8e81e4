"""Hot GF(2^m) array kernels: the byte-split product-table matrix product
and the XOR fold.

Multiplying by a fixed coefficient c is linear over GF(2), so it splits
over the bytes of the other operand: c*y = XOR_t c*(y_t << 8t), with y_t
byte t of y. One table of c*(x << 8t) per byte position turns c*y into a
single gather for m <= 8, and two gathers and an XOR for m = 16 (the
split-table multiply of Plank, Greenan and Miller, FAST 2013). The
log/antilog tables serve only to build those product tables
(gf.GF.byte_tables).
"""

from __future__ import annotations

import numpy as np


def _byte_indices(row: np.ndarray) -> list[np.ndarray]:
    """Byte t of every symbol of row, as gather indices, for t < itemsize."""
    if row.itemsize == 1:
        return [row.astype(np.intp)]
    return [((row >> (8 * t)) & 0xFF).astype(np.intp) for t in range(row.itemsize)]


def gf_matmul(a, b, byte_tables):
    """Matrix product over GF(2^m) from byte-split product tables.

    a: (n, k) coefficients, b: (k, d) symbols; returns (n, d).
    byte_tables(c) is the read-only table T[t][x] = c*(x << 8t) of a
    coefficient c >= 2. Each row of b is split into byte indices once and
    reused for every coefficient of its column of a. Coefficient 1 is a
    plain XOR and coefficient 0 is skipped.
    """
    out = np.zeros((a.shape[0], b.shape[1]), dtype=b.dtype)
    for kk, row in enumerate(b):
        indices = None
        for i, c in enumerate(a[:, kk].tolist()):
            if c == 0:
                continue
            if c == 1:
                out[i] ^= row
                continue
            if indices is None:
                indices = _byte_indices(row)
            table = byte_tables(c)
            prod = table[0].take(indices[0])
            for t in range(1, len(indices)):
                prod ^= table[t].take(indices[t])
            out[i] ^= prod
    return out


def xor_reduce(x):
    """XOR-fold the rows of a (rows, d) array into a (d,) vector."""
    out = np.zeros(x.shape[1], dtype=x.dtype)
    if x.shape[0]:
        np.bitwise_xor.reduce(np.ascontiguousarray(x), axis=0, out=out)
    return out
