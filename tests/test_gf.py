"""Field arithmetic tests: independent schoolbook oracle, axioms, tables."""

import copy
import pickle

import numpy as np
import pytest

from layeragg.errors import ConfigurationError
from layeragg.gf import DEFAULT_POLY, GF


def slow_mul(a: int, b: int, m: int, poly: int) -> int:
    """Schoolbook polynomial multiply-and-reduce; the oracle for table mul."""
    acc = 0
    for i in range(m):
        if (b >> i) & 1:
            acc ^= a << i
    for bit in range(2 * m - 2, m - 1, -1):
        if (acc >> bit) & 1:
            acc ^= poly << (bit - m)
    return acc


@pytest.fixture(scope="module")
def gf8():
    return GF(8)


def test_mul_identity_and_annihilator(gf8):
    for x in (1, 2, 0x53, 0xFF):
        assert gf8.mul(x, 1) == x
        assert gf8.mul(x, 0) == 0
        assert gf8.mul(0, x) == 0


def test_mul_matches_schoolbook_oracle(gf8):
    assert slow_mul(0x53, 0xCA, 8, 0x11B) == 0x01
    assert gf8.mul(0x53, 0xCA) == 0x01
    rng = np.random.default_rng(7)
    for _ in range(2000):
        a, b = int(rng.integers(256)), int(rng.integers(256))
        assert gf8.mul(a, b) == slow_mul(a, b, 8, 0x11B)


def test_inverse_exhaustive(gf8):
    assert gf8.inv(1) == 1
    for a in range(1, 256):
        assert gf8.mul(a, gf8.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf8.inv(0)


def test_multiplicative_group_order(gf8):
    # generator order is exactly 2^8 - 1: the antilog trail never repeats early
    assert len(set(gf8.exp[:255].tolist())) == 255


def test_axioms_exhaustive_gf16():
    fld = GF(4)
    elems = range(16)
    for a in elems:
        for b in elems:
            assert fld.mul(a, b) == fld.mul(b, a)
            assert fld.mul(a, b) == slow_mul(a, b, 4, DEFAULT_POLY[4])
            for c in elems:
                assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
                assert fld.mul(a, b ^ c) == fld.mul(a, b) ^ fld.mul(a, c)
    for a in range(1, 16):
        assert fld.mul(a, fld.inv(a)) == 1


def test_axioms_randomized_gf256(gf8):
    rng = np.random.default_rng(3)
    triples = rng.integers(0, 256, size=(10_000, 3))
    for a, b, c in triples.tolist():
        assert gf8.mul(gf8.mul(a, b), c) == gf8.mul(a, gf8.mul(b, c))
        assert gf8.mul(a, b ^ c) == gf8.mul(a, b) ^ gf8.mul(a, c)


def test_gf65536_basics():
    fld = GF(16)
    assert fld.dtype == np.uint16
    assert fld.element_bytes == 2
    assert len(set(fld.exp[: fld.order - 1].tolist())) == fld.order - 1
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = int(rng.integers(1, fld.order))
        assert fld.mul(a, fld.inv(a)) == 1
        b = int(rng.integers(fld.order))
        assert fld.mul(a, b) == slow_mul(a, b, 16, DEFAULT_POLY[16])


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        GF(5)
    with pytest.raises(ConfigurationError):
        GF(8, poly=0x1B)  # degree bit missing
    with pytest.raises(ConfigurationError):
        GF(8, poly=0x101)  # x^8 + 1 is reducible
    with pytest.raises(ConfigurationError, match="degree"):
        GF(8.0)
    with pytest.raises(ConfigurationError, match="degree"):
        GF(True)
    with pytest.raises(ConfigurationError, match="polynomial"):
        GF(8, poly="x")
    assert GF(np.int64(8)) == GF(8)


@pytest.mark.parametrize("m", [4, 8, 16])
def test_a_field_pickles_and_copies_as_its_degree_and_polynomial(m):
    field = GF(m)
    for other in (pickle.loads(pickle.dumps(field)), copy.deepcopy(field), copy.copy(field)):
        assert other == field and other.dtype == field.dtype
        assert other.mul(3, field.order - 1) == field.mul(3, field.order - 1)
        assert other.inv(7) == field.inv(7) and other.gen_pow(5) == field.gen_pow(5)


def test_matmul_against_scalar_loops(gf8):
    rng = np.random.default_rng(11)
    a = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
    b = rng.integers(0, 256, size=(4, 6), dtype=np.uint8)
    got = gf8.matmul(a, b)
    want = np.zeros((3, 6), dtype=np.uint8)
    for i in range(3):
        for j in range(6):
            acc = 0
            for k in range(4):
                acc ^= gf8.mul(int(a[i, k]), int(b[k, j]))
            want[i, j] = acc
    assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        gf8.matmul(a, np.zeros((3, 2), dtype=np.uint8))


def test_xor_sum_and_reduce(gf8):
    rows = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], dtype=np.uint8)
    assert np.array_equal(gf8.xor_sum(rows), np.array([1 ^ 4 ^ 7, 2 ^ 5 ^ 8, 3 ^ 6 ^ 9], dtype=np.uint8))
    assert np.array_equal(gf8.reduce([256, 257, 511]), np.array([0, 1, 255], dtype=np.uint8))
