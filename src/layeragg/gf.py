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

Both GF.matmul and GF.matmul_fixed run one loop, GF._gather. It packs a
word of output rows into one integer of at most 64 bits, one lane per
row. The word's table for input row k holds, at each index x, the
products of x by all its coefficients c_i = a[lo+i, k], each in its own
lane. The input rows are read as gather indices in one pass or more,
and the output rows as units of a lane's width. So there is one gather
per (input row, word, pass, column block), and row i of the output is
the XOR of the word's gathers shifted right by i lanes. Columns go in
blocks of BLOCK units, so that a block's gather indices and words stay
in L2. The log/antilog tables serve only to build the packed tables,
once per word of coefficients. The two products differ in their tables
and units:

- GF.matmul, for one-off coefficients (the r x r decode solves of
  master.decode_global, make_generator), packs 8 // element_bytes rows a
  word (8 for m <= 8, 4 for m = 16), in lanes of one symbol. Its tables
  (_word_tables) have 256 entries, one per byte, and a symbol is read in
  one pass per byte.
- GF.matmul_fixed, for a coefficient matrix that is reused across many
  calls, such as a code's parity coefficients, by which a round
  multiplies its edges' messages, a batch of edges a product
  (client.encode_client, mds.fill_parity), and by which the decode
  re-encodes the message symbols it received (master.decode_global),
  reads and writes rows as 16-bit units, '<u2' views of the rows: one
  symbol at m = 16, two adjacent symbols, low byte first, at m <= 8. Its
  tables (_symbol_tables) have 2^16 entries, one per unit, with 16-bit
  lanes for a word of up to 4 rows, laid out as the unit itself: 256 KiB
  for a word of one or two rows. At m <= 8 that is one gather per two
  symbols; an odd row's last symbol is a unit whose high byte is zero.
  On a 2-vCPU Xeon host, in two runs of 300 interleaved calls,
  long_gf8's (2, 3) x (3, 349552) GF(2^8) encode took 1.68-1.84 ms
  against 2.46-2.54 ms for one gather per symbol, and layers_gf16's
  (2, 4) x (4, 13440) GF(2^16) encode, one gather per symbol either way,
  157-214 against 158-232 us. A table takes 60-150 us to build, so it
  pays off only when its coefficients are reused.
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
    # an int first: the Integral check goes through the ABC machinery (~1 us)
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def check_count(value, name: str) -> int:
    """value, when it is a positive integer; else ConfigurationError naming name."""
    if not is_integer(value) or value < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_non_negative(value, name: str) -> int:
    """value, when it is a non-negative integer; else ConfigurationError naming name."""
    if not is_integer(value) or value < 0:
        raise ConfigurationError(f"{name} must be a non-negative integer, got {value!r}")
    return value


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


# Units of b per block of GF._gather: symbols in GF.matmul, 16-bit units in
# GF.matmul_fixed. A block's gather indices (8 bytes per symbol or unit)
# and its words (at most 8 bytes per symbol or unit) then take at most 512
# KiB per array, so they stay in L2 and the kernel's scratch memory does
# not grow with the row length. On GF(2^8) rows of ~350k symbols this size
# was the fastest of 2^12 to 2^17 for GF.matmul, ~5% ahead of unblocked
# rows. For GF.matmul_fixed on long_gf8's encode, 2^14 units was ~18%
# faster in a loop of calls alone, but 3-5% slower in whole rounds, where
# other stages evict the tables between encodes.
BLOCK = 1 << 16


def _lane_tables(m: int, poly: int, coefs: tuple[int, ...], width: int, dtype) -> np.ndarray:
    """T[t][x] = XOR_i (c_i*(x << 8t)) << (width*i), of dtype: shape
    (element_bytes, 256), and 0 at any x outside the field."""
    _, exp, log = _log_exp_tables(m, poly)
    x = np.arange(1, min(1 << m, 256))
    table = np.zeros(((m + 7) // 8, 256), dtype=dtype)
    for t in range(table.shape[0]):
        log_x = log[x << (8 * t)]
        for i, c in enumerate(coefs):
            if c:
                table[t, 1 : x.size + 1] |= exp[log[c] + log_x].astype(dtype) << (width * i)
    return table


@lru_cache(maxsize=1024)
def _word_tables(m: int, poly: int, coefs: tuple[int, ...]) -> np.ndarray:
    """Packed product tables of one word of coefficients, read-only.

    W[t][x] = XOR_i (c_i*(x << 8t)) << (8*element_bytes*i), stored in the
    narrowest of uint8/16/32/64 that holds len(coefs) elements, shape
    (element_bytes, 256). At most 1024 are kept, so the cache holds at
    most 1024 * 2 * 256 * 8 B = 4 MiB (element_bytes <= 2, entries <= 8 B).
    """
    width = 8 * ((m + 7) // 8)
    dtype = np.min_scalar_type((1 << (width * len(coefs))) - 1)
    table = _lane_tables(m, poly, coefs, width, dtype)
    table.setflags(write=False)
    return table


# A unit table is 2^16 packed words of at most 8 B, so the 16 kept take at
# most 8 MiB (256 KiB each for a word of one or two coefficients). A code
# uses one per input row and word of parity rows: nu of them when s <= 4.
@lru_cache(maxsize=16)
def _symbol_tables(m: int, poly: int, coefs: tuple[int, ...]) -> np.ndarray:
    """Packed product tables of one word of up to 4 coefficients, indexed
    by a 16-bit unit, read-only: shape (2^16,), little-endian entries of
    the narrowest of 16, 32 and 64 bits that holds a lane per coefficient.

    A unit is one symbol at m = 16 and two adjacent symbols, low byte
    first, at m <= 8. Entry y holds, in 16-bit lane i, the products by c_i
    of y's symbols laid out as y itself: c_i*y at m = 16, and low byte
    c_i*(y & 0xFF), high byte c_i*(y >> 8) at m <= 8. Either way it is
    H[y >> 8] ^ T[y & 0xFF], with T the products of the low byte and H
    those of the high byte (c_i*(x << 8) at m = 16, (c_i*x) << 8 at
    m <= 8). At m = 4 a byte outside the field reads 0; GF._operands
    rejects such symbols first. Building one took 60-150 us on a 2-vCPU
    Xeon host.
    """
    dtype = np.dtype(np.min_scalar_type((1 << (16 * len(coefs))) - 1)).newbyteorder("<")
    lanes = _lane_tables(m, poly, coefs, 16, dtype)
    high = lanes[0] << 8 if m <= 8 else lanes[1]
    table = (high[:, None] ^ lanes[0][None, :]).reshape(-1)
    table.setflags(write=False)
    return table


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
        # the scalar ops index memoryviews of the tables: each index reads
        # a Python int, several times faster than a numpy scalar, and a
        # view copies nothing (a list of the tables would box every int,
        # ~7 MB at m = 16)
        self._exp, self._log = memoryview(self.exp), memoryview(self.log)

    # -- scalar element arithmetic -------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._exp[(self.order - 1) - self._log[a]]

    def gen_pow(self, e: int) -> int:
        """generator**e, the e-th point of the standard evaluation sequence."""
        return self._exp[e % (self.order - 1)]

    # -- array operations ----------------------------------------------------

    def _operands(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """a and b as field arrays, b C-contiguous. A coefficient outside
        the field raises ValueError and a symbol outside it IndexError, as
        a gather from a table of 2^m entries would."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
        bad = a[a >= self.order]
        if bad.size:
            raise ValueError(f"coefficient {bad[0]} is not an element of {self!r}")
        if self.m < 8 and b.size and b.max() >= self.order:
            bad = int(b[b >= self.order][0])
            raise IndexError(f"index {bad} is out of bounds for axis 0 with size {self.order}")
        return a, np.ascontiguousarray(b)

    def _gather(self, a: np.ndarray, src: np.ndarray, dst: np.ndarray, rows: int, table_of) -> None:
        """dst = a x b, one block of BLOCK units at a time: the loop of
        both products; see the module docstring.

        src is b read as gather indices, shape (k, n, passes): pass t of
        unit j of input row kk indexes table t of that row's tables,
        table_of(m, poly, coefs) for each word of up to rows output rows.
        dst is the output as n units per row, and lane i, 8 * dst.itemsize
        bits, of a word's XOR is its output row i. A word of zero
        coefficients is zeroed in dst and skipped, as is an input row with
        no nonzero coefficient in a word.
        """
        k, n, passes = src.shape
        words = []
        for lo in range(0, a.shape[0], rows):
            coefs = a[lo : lo + rows].T.tolist()
            if any(map(any, coefs)):
                words.append((dst[lo : lo + rows], [
                    table_of(self.m, self.poly, tuple(c)).reshape(passes, -1) if any(c) else None
                    for c in coefs
                ]))
            else:
                dst[lo : lo + rows] = 0
        bits = 8 * dst.itemsize
        # One index buffer per call, refilled per input row, pass and block: a
        # fresh 512 KiB array each time went back to the OS when freed and
        # was faulted in again.
        buffer = np.empty(min(BLOCK, n), np.intp)
        for start in range(0, n, BLOCK):
            cols = slice(start, start + BLOCK)
            idx = buffer[: min(BLOCK, n - start)]
            acc = [None] * len(words)
            for kk in range(k):
                for t in range(passes):
                    idx[...] = src[kk, cols, t]
                    for w, (_, tables) in enumerate(words):
                        if tables[kk] is None:
                            continue
                        # Every index is below the table's width (_operands
                        # checked the symbols), so the gathers need no bounds
                        # check; no name holds a product, so each is freed
                        # before the next.
                        if acc[w] is None:
                            acc[w] = tables[kk][t].take(idx, mode="clip")
                        else:
                            acc[w] ^= tables[kk][t].take(idx, mode="clip")
            for (dest, _), word in zip(words, acc):
                for row in dest:
                    row[cols] = word
                    word >>= bits

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(n, k) x (k, d) matrix product over the field.

        One gather per (input row, word of output rows, symbol byte, column
        block), from the word's packed byte tables; see the module docstring.
        """
        a, b = self._operands(a, b)
        out = np.empty((a.shape[0], b.shape[1]), dtype=self.dtype)
        # pass t reads byte t of every symbol, low byte first
        src = b.astype(self.dtype.newbyteorder("<"), copy=False).view(np.uint8)
        src = src.reshape(*b.shape, self.element_bytes)
        self._gather(a, src, out, 8 // self.element_bytes, _word_tables)
        return out

    def matmul_fixed(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """(n, k) x (k, d) product by a coefficient matrix a that is reused
        across calls, such as a code's parity coefficients.

        Rows are read and written as 16-bit units: one gather per (input
        row, word of 4 output rows, block of BLOCK units), from tables
        indexed by the unit and cached per word, and lane i of the word's
        XOR is output row i's units; see the module docstring. out, when
        given, is an (n, d) array of the field's dtype that receives the
        product. A symbol of b outside the field raises IndexError.
        """
        a, b = self._operands(a, b)
        shape = (a.shape[0], b.shape[1])
        if out is None:
            out = np.empty(shape, dtype=self.dtype)
        elif out.shape != shape or out.dtype != self.dtype:
            raise ValueError(
                f"out must be a {shape} array of {self.dtype}, got {out.shape} {out.dtype}"
            )
        dest = out if out.flags.c_contiguous else np.empty(shape, dtype=self.dtype)
        pairs = self.m <= 8

        def units(x: np.ndarray) -> np.ndarray:
            return x[:, : shape[1] // 2 * 2].view("<u2") if pairs else x

        self._gather(a, units(b)[:, :, None], units(dest), 4, _symbol_tables)
        if pairs and shape[1] % 2:
            # the last symbol, as a unit whose high byte is zero
            last = np.empty((shape[0], 1), "<u2")
            self._gather(a, b[:, -1:, None], last, 4, _symbol_tables)
            dest[:, -1:] = last
        if dest is not out:
            out[...] = dest
        return out

    def xor_sum(self, rows: np.ndarray) -> np.ndarray:
        """Field sum (XOR) of the rows of a (rows, d) array, in a new array:
        the XOR of the first two rows, the rest XORed into it in place. On
        the two-row folds of aggregate.GroupSums that is 1.7-2.3x faster
        than bitwise_xor.reduce over axis 0. One row gives a copy of it,
        and no rows give zeros."""
        rows = np.asarray(rows, dtype=self.dtype)
        if len(rows) < 2:
            return rows[0].copy() if len(rows) else np.zeros(rows.shape[1], dtype=self.dtype)
        total = np.bitwise_xor(rows[0], rows[1])
        for row in rows[2:]:
            total ^= row
        return total

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

    def __reduce__(self):
        # a memoryview does not pickle; the field is its (m, poly)
        return GF, (self.m, self.poly)
