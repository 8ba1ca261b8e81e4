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
        assert table.shape == (fld.element_bytes, min(fld.order, 256))
        narrowest = next(
            dt for dt in (np.uint8, np.uint16, np.uint32, np.uint64)
            if np.dtype(dt).itemsize * 8 >= width * len(coefs)
        )
        assert table.dtype == narrowest and not table.flags.writeable
        for t in range(fld.element_bytes):
            for x in range(table.shape[1]):
                lanes = [(int(table[t, x]) >> (width * i)) & (fld.order - 1) for i in range(len(coefs))]
                assert lanes == [fld.mul(c, x << (8 * t)) for c in coefs]


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
        "for f in (g._log_exp_tables, g._word_tables)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "0"]


def test_xor_reduce_empty_and_single():
    empty = np.zeros((0, 5), dtype=np.uint8)
    assert np.array_equal(GF(8).xor_sum(empty), np.zeros(5, dtype=np.uint8))
    one = np.arange(5, dtype=np.uint8).reshape(1, 5)
    assert np.array_equal(GF(8).xor_sum(one), one[0])
