"""GF.matmul and GF.xor_sum against the log/antilog product and scalar loops."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layeragg
from layeragg import gf
from layeragg.gf import BLOCK, GF

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


def logexp_matmul(a, b, log, exp):
    """Matrix product over GF(2^m) via log/antilog tables: the bit-exactness oracle.

    exp is doubled, so the sum of two logs needs no modulo; zero operands
    are masked, since log[0] is meaningless.
    """
    out = np.zeros((a.shape[0], b.shape[1]), dtype=b.dtype)
    log_b = log[b]
    for kk in range(a.shape[1]):
        coefs = a[:, kk]
        prod = exp[log[coefs][:, None] + log_b[kk][None, :]]
        prod[:, b[kk] == 0] = 0
        prod[coefs == 0, :] = 0
        out ^= prod
    return out


def loop_matmul(fld, a, b):
    """Scalar loops over GF.mul, as in test_gf.test_matmul_against_scalar_loops."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=fld.dtype)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for k in range(a.shape[1]):
                acc ^= fld.mul(int(a[i, k]), int(b[k, j]))
            out[i, j] = acc
    return out


@pytest.mark.parametrize("m", [4, 8, 16])
@pytest.mark.parametrize("n,k,d", [(3, 4, 9), (3, 1, 5), (4, 3, 1), (3, 2, 0)])
def test_matmul_matches_logexp_and_scalar_loops(m, n, k, d):
    fld = GF(m)
    rng = np.random.default_rng([m, n, k, d])
    a = rng.integers(0, fld.order, size=(n, k), dtype=fld.dtype)
    a[0, 0] = 0  # skipped coefficient
    a[-1, -1] = 1  # plain XOR
    b = rng.integers(0, fld.order, size=(k, d), dtype=fld.dtype)
    if d:
        b[:, 0] = fld.order - 1  # the top byte of every symbol is set
    got = fld.matmul(a, b)
    assert got.dtype == fld.dtype and got.shape == (n, d)
    assert np.array_equal(got, logexp_matmul(a, b, fld.log, fld.exp))
    assert np.array_equal(got, loop_matmul(fld, a, b))


@pytest.mark.parametrize("m", [4, 8, 16])
def test_matmul_on_long_rows_matches_logexp(m):
    fld = GF(m)
    rng = np.random.default_rng(m)
    a = rng.integers(0, fld.order, size=(3, 4), dtype=fld.dtype)
    b = rng.integers(0, fld.order, size=(4, 5000), dtype=fld.dtype)
    assert np.array_equal(fld.matmul(a, b), logexp_matmul(a, b, fld.log, fld.exp))


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([4, 8, 16]),
    n=st.integers(1, 10),
    k=st.integers(1, 5),
    d=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 3]),
    zero=st.sampled_from(["none", "column", "word", "all"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=4, n=10, k=5, d=BLOCK + 3, zero="word", seed=0)
@example(m=8, n=10, k=5, d=BLOCK + 3, zero="word", seed=1)
@example(m=16, n=10, k=5, d=BLOCK + 3, zero="word", seed=2)
@example(m=16, n=9, k=3, d=BLOCK - 1, zero="all", seed=3)
@example(m=8, n=10, k=4, d=BLOCK + 3, zero="column", seed=4)
@example(m=16, n=10, k=4, d=BLOCK, zero="column", seed=5)
def test_packed_words_over_blocks_match_logexp(m, n, k, d, zero, seed):
    """Several words of output rows, several column blocks, coefficients 0
    and 1, and a zero word, a word with one zero input column, or zero a."""
    fld = GF(m)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, fld.order, size=(n, k), dtype=fld.dtype)
    a[rng.random((n, k)) < 0.2] = 0
    a[rng.random((n, k)) < 0.2] = 1
    rows = 8 // fld.element_bytes
    lo = rows * int(rng.integers(0, -(-n // rows)))
    if zero == "column":
        a[lo : lo + rows, int(rng.integers(0, k))] = 0
    elif zero == "word":
        a[lo : lo + rows] = 0
    elif zero == "all":
        a[:] = 0
    b = rng.integers(0, fld.order, size=(k, d), dtype=fld.dtype)
    b[:, -1:] = fld.order - 1  # the top byte of the last symbol, across a block edge
    got = fld.matmul(a, b)
    assert got.dtype == fld.dtype and got.shape == (n, d)
    assert np.array_equal(got, logexp_matmul(a, b, fld.log, fld.exp))


def test_symbol_outside_small_field_fails_the_gather():
    fld = GF(4)
    with pytest.raises(IndexError):
        fld.matmul(np.array([[3]]), np.array([[16]]))


@pytest.mark.parametrize("a", [[[200]], [[3, 1], [0, 16]]])
def test_coefficient_outside_small_field_is_rejected(a):
    with pytest.raises(ValueError, match=rf"coefficient {np.max(a)} is not an element of GF\(m=4"):
        GF(4).matmul(np.array(a), np.ones((len(a[0]), 2), dtype=np.uint8))


@pytest.mark.parametrize("m", [4, 8, 16])
def test_word_tables_hold_packed_products(m):
    fld = GF(m)
    rows = 8 // fld.element_bytes
    width = 8 * fld.element_bytes
    for coefs in [(fld.gen_pow(5),), (1, 0, fld.gen_pow(3)), tuple(range(2, 2 + rows))]:
        table = gf._word_tables(fld.m, fld.poly, coefs)
        assert table.shape == (fld.element_bytes, 256)
        narrowest = next(
            dt for dt in (np.uint8, np.uint16, np.uint32, np.uint64)
            if np.dtype(dt).itemsize * 8 >= width * len(coefs)
        )
        assert table.dtype == narrowest and not table.flags.writeable
        for t in range(fld.element_bytes):
            for x in range(256):
                lanes = [(int(table[t, x]) >> (width * i)) & ((1 << width) - 1) for i in range(len(coefs))]
                # at m = 4 a byte outside the field reads 0
                y = x << (8 * t)
                assert lanes == [fld.mul(c, y) if y < fld.order else 0 for c in coefs]


def test_tables_are_shared_per_field_and_not_built_at_import():
    assert GF(16).exp is GF(16).exp
    fld = GF(16)
    word = gf._word_tables(fld.m, fld.poly, (7, 0, 1, 9))
    assert gf._word_tables(16, fld.poly, (7, 0, 1, 9)) is word
    assert not word.flags.writeable
    # worst case of the word cache: 2-byte symbols, 256 entries of 8 bytes
    assert gf._word_tables.cache_info().maxsize * 2 * 256 * 8 <= 4 << 20
    src = str(Path(layeragg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import layeragg; import layeragg.gf as g; print(*(f.cache_info().currsize "
        "for f in (g._log_exp_tables, g._word_tables, g._symbol_tables)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "0", "0"]


def test_xor_reduce_empty_and_single():
    empty = np.zeros((0, 5), dtype=np.uint8)
    assert np.array_equal(GF(8).xor_sum(empty), np.zeros(5, dtype=np.uint8))
    one = np.arange(5, dtype=np.uint8).reshape(1, 5)
    assert np.array_equal(GF(8).xor_sum(one), one[0])


@pytest.mark.parametrize("m", [4, 8, 16])
def test_xor_sum_of_one_row_is_a_copy_of_that_row(m):
    # the sum goes into an uninitialised array, which the reduce must fill
    field = GF(m)
    row = np.random.default_rng(m).integers(0, field.order, size=(1, 1000), dtype=field.dtype)
    total = field.xor_sum(row)
    assert total.dtype == field.dtype and np.array_equal(total, row[0])
    assert not np.shares_memory(total, row)


@pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
@pytest.mark.parametrize("m", [8, 16])
def test_xor_sum_equals_the_xor_reduce_of_the_rows(m, layout):
    field = GF(m)
    rng = np.random.default_rng(m)
    for r in range(6):
        x = rng.integers(0, field.order, size=(r, 2 * 37), dtype=field.dtype)
        if layout == "strided":
            x = x[:, ::2]
        elif layout == "transposed":
            x = np.ascontiguousarray(x.T).T
        before = x.copy()
        total = field.xor_sum(x)
        assert total.dtype == field.dtype and total.shape == (x.shape[1],)
        assert np.array_equal(total, np.bitwise_xor.reduce(x, axis=0)), r
        assert np.array_equal(x, before) and not np.shares_memory(total, x)


def placed(x: np.ndarray, layout: str) -> np.ndarray:
    """A copy of x, C-contiguous at an odd byte address for "offset", and
    with every other column of a wider array for "strided"."""
    if layout == "offset":
        y = np.empty(x.nbytes + 1, np.uint8)[1:].view(x.dtype).reshape(x.shape)
    elif layout == "strided":
        y = np.empty((x.shape[0], 2 * x.shape[1]), x.dtype)[:, ::2]
    else:
        y = np.empty_like(x)
    y[...] = x
    return y


@settings(max_examples=40, deadline=None)
@given(
    m=st.sampled_from([4, 8, 16]),
    n=st.integers(1, 9),
    k=st.integers(1, 5),
    d=st.sampled_from([0, 1, 7, 2 * BLOCK + 2, BLOCK + 3]),
    zero=st.sampled_from(["none", "column", "word", "all"]),
    layout=st.sampled_from(["fresh", "offset", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=4, n=9, k=5, d=BLOCK + 3, zero="word", layout="fresh", seed=0)
@example(m=8, n=9, k=5, d=BLOCK + 3, zero="column", layout="fresh", seed=1)
@example(m=16, n=2, k=4, d=BLOCK + 3, zero="none", layout="fresh", seed=2)
@example(m=16, n=9, k=3, d=BLOCK + 3, zero="word", layout="fresh", seed=3)
@example(m=16, n=5, k=2, d=7, zero="all", layout="fresh", seed=4)
@example(m=8, n=2, k=3, d=2 * BLOCK + 2, zero="none", layout="fresh", seed=5)
@example(m=4, n=5, k=3, d=2 * BLOCK + 2, zero="column", layout="fresh", seed=6)
@example(m=8, n=3, k=4, d=7, zero="none", layout="fresh", seed=7)
@example(m=8, n=6, k=3, d=BLOCK + 3, zero="none", layout="offset", seed=8)
@example(m=16, n=3, k=2, d=7, zero="none", layout="offset", seed=9)
@example(m=8, n=5, k=3, d=2 * BLOCK + 2, zero="none", layout="strided", seed=10)
@example(m=16, n=2, k=2, d=7, zero="column", layout="strided", seed=11)
def test_whole_symbol_product_equals_matmul(m, n, k, d, zero, layout, seed):
    """GF.matmul_fixed against GF.matmul, into a fresh array and into out:
    coefficients 0 and 1, a zero word or input column, zero a, more than
    one block of units, odd rows (at m <= 8 their last symbol is half a
    unit, and every other row starts at an odd byte), operands at an odd
    byte address, and non-contiguous operands."""
    fld = GF(m)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, fld.order, size=(n, k), dtype=fld.dtype)
    a[rng.random((n, k)) < 0.2] = 0
    a[rng.random((n, k)) < 0.2] = 1
    rows = 4  # output rows per word
    lo = rows * int(rng.integers(0, -(-n // rows)))
    if zero == "column":
        a[lo : lo + rows, int(rng.integers(0, k))] = 0
    elif zero == "word":
        a[lo : lo + rows] = 0
    elif zero == "all":
        a[:] = 0
    b = rng.integers(0, fld.order, size=(k, d), dtype=fld.dtype)
    b[:, -1:] = fld.order - 1
    want = fld.matmul(a, b)
    b = placed(b, layout)
    got = fld.matmul_fixed(a, b)
    assert got.dtype == fld.dtype and np.array_equal(got, want)
    out = placed(np.full((n, d), fld.order - 1, dtype=fld.dtype), layout)  # stale values are overwritten
    assert fld.matmul_fixed(a, b, out=out) is out
    assert np.array_equal(out, want)


def test_whole_symbol_product_rejects_bad_operands():
    fld = GF(4)
    with pytest.raises(IndexError):
        fld.matmul_fixed(np.array([[3]]), np.array([[16]]))
    with pytest.raises(ValueError, match=r"coefficient 16 is not an element of GF\(m=4"):
        fld.matmul_fixed(np.array([[16]]), np.array([[1]]))
    with pytest.raises(ValueError, match="out must be"):
        fld.matmul_fixed(np.array([[3]]), np.array([[1, 2]]), out=np.empty((1, 3), np.uint8))
    with pytest.raises(ValueError, match="out must be"):
        fld.matmul_fixed(np.array([[3]]), np.array([[1, 2]]), out=np.empty((1, 2), np.uint16))


@pytest.mark.parametrize("m", [4, 8, 16])
def test_unit_tables_hold_the_products_of_each_symbol_of_the_unit(m):
    fld = GF(m)
    units = np.arange(1 << 16)
    # a unit is one symbol at m = 16, two at m <= 8, low byte first
    symbols = [units] if m == 16 else [units & 0xFF, units >> 8]
    for coefs in [(fld.gen_pow(5),), (1, 0), (fld.gen_pow(3), 0, 1), (2, 3, fld.order - 1, 1)]:
        table = gf._symbol_tables(fld.m, fld.poly, coefs)
        assert gf._symbol_tables(fld.m, fld.poly, coefs) is table
        assert table.shape == (1 << 16,) and not table.flags.writeable
        narrowest = next(bits for bits in (16, 32, 64) if bits >= 16 * len(coefs))
        assert table.dtype == np.dtype(f"<u{narrowest // 8}")
        entries = table.astype(np.uint64)
        for i, c in enumerate(coefs):
            products = np.array([fld.mul(c, x) for x in range(fld.order)] + [0] * (256 - fld.order))
            lane = (entries >> np.uint64(16 * i)) & np.uint64(0xFFFF)
            # at m = 4 a byte outside the field reads 0
            want = sum(products[x] << (8 * t) for t, x in enumerate(symbols))
            assert np.array_equal(lane, want), (m, coefs, i)
    # worst case of the cache: 2^16 entries of 8 bytes
    assert gf._symbol_tables.cache_info().maxsize * (1 << 16) * 8 <= 8 << 20
