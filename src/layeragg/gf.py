"""GF(2^m) arithmetic for m in {4, 8, 16}.

Elements are integers in [0, 2^m - 1], read as polynomials over GF(2)
modulo a fixed irreducible polynomial. Addition is XOR. Scalar
multiplication goes through antilog/log tables, built once per
(m, poly) per process, on first use.

Array products use packed byte-split product tables. Multiplying by a
fixed coefficient c is linear over GF(2), so it splits over the bytes of
the other operand: c*y = XOR_t c*(y_t << 8t), with y_t byte t of y, and
one table of c*(x << 8t) per byte position turns c*y into gathers (the
split-table multiply of Plank, Greenan and Miller, FAST 2013).

GF.matmul packs a word of 8 // element_bytes output rows (8 for m <= 8,
4 for m = 16) into one integer of at most 64 bits. The word's table for
input row k and byte t holds, at x, the products c_i*(x << 8t) of all
its coefficients c_i = a[lo+i, k], each in its own lane of
8*element_bytes bits. So there is one gather per (input row, word,
symbol byte, column block), and row i of the output is the XOR of the
word's gathers shifted right by 8*element_bytes*i bits. Columns go in
blocks of BLOCK symbols, so that a block's gather indices and words stay
in L2. The log/antilog tables serve only to build the packed tables,
once per word of coefficients.
"""

from __future__ import annotations

from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import ConfigurationError

# Bit i of the polynomial is the coefficient of x^i (bit m included).
DEFAULT_POLY = {
    4: 0x13,       # x^4 + x + 1
    8: 0x11B,      # x^8 + x^4 + x^3 + x + 1
    16: 0x1100B,   # x^16 + x^12 + x^3 + x + 1
}


def is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _poly_mul(a: int, b: int, m: int, poly: int) -> int:
    """Schoolbook multiply-and-reduce; only used to bootstrap the tables."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= poly
    return acc


@lru_cache(maxsize=16)
def _log_exp_tables(m: int, poly: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(generator, antilog, log) of GF(2^m) modulo poly, read-only.

    The antilog table is doubled so a sum of two logs needs no modulo.
    """
    q = 1 << m
    dtype = np.uint8 if m <= 8 else np.uint16
    for cand in range(2, min(q, 258)):
        trail = np.zeros(2 * (q - 1), dtype=dtype)
        x = 1
        ok = True
        for i in range(q - 1):
            trail[i] = x
            x = _poly_mul(x, cand, m, poly)
            if x == 1 and i != q - 2:
                ok = False  # candidate's order divides q-1 properly
                break
        if ok and x == 1:
            trail[q - 1 :] = trail[: q - 1]
            log = np.zeros(q, dtype=np.int64)  # log[0] unused; callers mask zeros
            log[trail[: q - 1]] = np.arange(q - 1)
            trail.setflags(write=False)
            log.setflags(write=False)
            return cand, trail, log
    raise ConfigurationError(
        f"no multiplicative generator found; 0x{poly:X} is not irreducible"
    )


# Columns of b per block of GF.matmul. A block's gather indices (8 bytes
# per symbol) and its words (at most 8 bytes per symbol) then take at most
# 512 KiB per array, so they stay in L2 and the kernel's scratch memory
# does not grow with the row length. On GF(2^8) rows of ~350k symbols this
# size was the fastest of 2^12 to 2^17, ~5% ahead of unblocked rows.
BLOCK = 1 << 16


@lru_cache(maxsize=1024)
def _word_tables(m: int, poly: int, coefs: tuple[int, ...]) -> np.ndarray:
    """Packed product tables of one word of coefficients, read-only.

    W[t][x] = XOR_i (c_i*(x << 8t)) << (8*element_bytes*i), stored in the
    narrowest of uint8/16/32/64 that holds len(coefs) elements. Shape
    (element_bytes, 256), or (1, 2^m) when m < 8, so that a symbol outside
    the field fails the gather instead of reading a product. At most 1024
    are kept, so the cache holds at most 1024 * 2 * 256 * 8 B = 4 MiB
    (element_bytes <= 2, entries <= 8 B).
    """
    _, exp, log = _log_exp_tables(m, poly)
    nbytes = (m + 7) // 8
    width = 8 * nbytes
    dtype = np.min_scalar_type((1 << (width * len(coefs))) - 1)
    x = np.arange(1, min(1 << m, 256))
    table = np.zeros((nbytes, x.size + 1), dtype=dtype)
    for t in range(nbytes):
        log_x = log[x << (8 * t)]
        for i, c in enumerate(coefs):
            if c:
                table[t, 1:] |= exp[log[c] + log_x].astype(dtype) << (width * i)
    table.setflags(write=False)
    return table


def _byte_indices(row: np.ndarray, t: int, out: np.ndarray) -> None:
    """Write byte t of every symbol of row into out, as gather indices.

    Symbols are at most two bytes wide (m <= 16), so byte 1 needs no mask.
    """
    if t:
        np.right_shift(row, 8, out=out)
    elif row.itemsize == 1:
        out[...] = row
    else:
        np.bitwise_and(row, 0xFF, out=out)


class GF:
    """A binary extension field GF(2^m).

    Parameters
    ----------
    m : int
        Extension degree; one of 4, 8, 16.
    poly : int or None
        Irreducible polynomial with bit m set. Defaults per degree.

    The first field of a given (m, poly) in a process searches for a
    multiplicative generator while filling the antilog table; failure to
    find one means the supplied polynomial is not irreducible, which is
    reported as a ConfigurationError. Later instances share its tables.
    """

    def __init__(self, m: int = 8, poly: int | None = None):
        if not is_integer(m) or m not in DEFAULT_POLY:
            raise ConfigurationError(
                f"unsupported field degree m={m!r}; expected one of {sorted(DEFAULT_POLY)}"
            )
        m = int(m)
        if poly is None:
            poly = DEFAULT_POLY[m]
        if not is_integer(poly):
            raise ConfigurationError(f"field polynomial must be an integer, got {poly!r}")
        poly = int(poly)
        if poly >> m != 1:
            raise ConfigurationError(
                f"polynomial 0x{poly:X} does not have degree exactly {m}"
            )
        self.m = m
        self.order = 1 << m
        self.poly = poly
        self.dtype = np.dtype(np.uint8 if m <= 8 else np.uint16)
        self.element_bytes = (m + 7) // 8
        self.generator, self.exp, self.log = _log_exp_tables(m, poly)

    # -- scalar element arithmetic -------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return int(self.exp[(self.order - 1) - self.log[a]])

    def gen_pow(self, e: int) -> int:
        """generator**e, the e-th point of the standard evaluation sequence."""
        return int(self.exp[e % (self.order - 1)])

    # -- array operations ----------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(n, k) x (k, d) matrix product over the field.

        One gather per (input row, word of output rows, symbol byte, column
        block), from the word's packed tables; see the module docstring.
        """
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
        bad = a[a >= self.order]
        if bad.size:
            raise ValueError(f"coefficient {bad[0]} is not an element of {self!r}")
        out = np.zeros((a.shape[0], b.shape[1]), dtype=self.dtype)
        rows = 8 // self.element_bytes
        width = 8 * self.element_bytes
        # (output rows, packed tables per input row or None); all-zero words left out
        words = []
        for lo in range(0, a.shape[0], rows):
            coefs = a[lo : lo + rows].T.tolist()
            if any(map(any, coefs)):
                tables = [
                    _word_tables(self.m, self.poly, tuple(c)) if any(c) else None
                    for c in coefs
                ]
                words.append((out[lo : lo + rows], tables))
        # One index buffer per call, refilled per input row, byte and block: a
        # fresh 512 KiB array each time went back to the OS when freed and
        # was faulted in again.
        buffer = np.empty(min(BLOCK, b.shape[1]), np.intp)
        for start in range(0, b.shape[1], BLOCK):
            cols = slice(start, start + BLOCK)
            idx = buffer[: min(BLOCK, b.shape[1] - start)]
            acc = [None] * len(words)
            for kk, row in enumerate(b):
                for t in range(self.element_bytes):
                    _byte_indices(row[cols], t, idx)
                    for w, (_, tables) in enumerate(words):
                        if tables[kk] is None:
                            continue
                        # no name holds a product, so each is freed before the next
                        if acc[w] is None:
                            acc[w] = tables[kk][t].take(idx)
                        else:
                            acc[w] ^= tables[kk][t].take(idx)
            for (dest, _), word in zip(words, acc):
                for out_row in dest:
                    out_row[cols] = word
                    word >>= width
        return out

    def xor_sum(self, rows: np.ndarray) -> np.ndarray:
        """Field sum (XOR) of the rows of a (rows, d) array."""
        rows = np.asarray(rows, dtype=self.dtype)
        out = np.zeros(rows.shape[1], dtype=self.dtype)
        if rows.shape[0]:
            np.bitwise_xor.reduce(np.ascontiguousarray(rows), axis=0, out=out)
        return out

    def reduce(self, values) -> np.ndarray:
        """Map arbitrary integers into the field by truncating to m bits."""
        arr = np.asarray(values)
        return (arr & (self.order - 1)).astype(self.dtype)

    def __repr__(self) -> str:
        return f"GF(m={self.m}, poly=0x{self.poly:X})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and (self.m, self.poly) == (other.m, other.poly)

    def __hash__(self) -> int:
        return hash((self.m, self.poly))
