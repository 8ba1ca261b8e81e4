"""MDS construction and codec tests; minors checked by a Laplace-expansion oracle."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from layeragg.errors import (
    ConfigurationError,
    CorruptionError,
    InsufficientDataError,
)
from layeragg.gf import GF
from layeragg.mds import (
    MdsCode,
    decode_from,
    encode,
    fill_parity,
    invert_matrix,
    make_generator,
    singular_minors,
    slot_subsets,
)


@pytest.fixture(scope="module")
def gf8():
    return GF(8)


def det(field, matrix) -> int:
    """Laplace expansion along the first row; independent of invert_matrix."""
    k = len(matrix)
    if k == 1:
        return int(matrix[0][0])
    acc = 0
    for c in range(k):
        if matrix[0][c] == 0:
            continue
        minor = [[row[x] for x in range(k) if x != c] for row in matrix[1:]]
        acc ^= field.mul(int(matrix[0][c]), det(field, minor))  # char 2: no signs
    return acc


@pytest.mark.parametrize("nu,s", [(2, 1), (3, 2), (1, 3), (4, 2)])
def test_all_maximal_minors_nonzero(gf8, nu, s):
    code = make_generator(gf8, nu, s)
    for cols in combinations(range(nu + s), nu):
        sub = [[int(code.generator[r, c]) for c in cols] for r in range(nu)]
        assert det(gf8, sub) != 0, f"singular minor at columns {cols}"


# The longest code checked exhaustively per field, every (nu, s) with
# nu + s at most it. Measured on a 2-vCPU host: all lengths up to 13 take
# 1.1-1.6 s at m = 4 (up to 15, the longest m = 4 allows, ~9 s), and up to
# 11 0.2-0.3 s at m = 8 and at m = 16 (up to 12, ~0.5 s each).
LONGEST_CHECKED = {4: 13, 8: 11, 16: 11}


@pytest.mark.parametrize("m", sorted(LONGEST_CHECKED))
def test_every_generator_up_to_the_checked_length_is_mds(m):
    # mds.py's argument: every nu-minor is a ratio of Vandermonde
    # determinants, so none is zero; checked here by invert_matrix
    field = GF(m)
    for n in range(2, LONGEST_CHECKED[m] + 1):
        for nu in range(1, n):
            assert singular_minors(make_generator(field, nu, n - nu)) == [], (nu, n - nu)


def test_nu_one_generator_row_all_nonzero(gf8):
    code = make_generator(gf8, 1, 3)
    assert code.generator.shape == (1, 4)
    assert np.all(code.generator != 0)


def test_generator_is_systematic(gf8):
    code = make_generator(gf8, 3, 2)
    assert np.array_equal(code.generator[:, :3], np.eye(3, dtype=np.uint8))


def test_capacity_error_small_field():
    fld = GF(4)
    with pytest.raises(ConfigurationError):
        make_generator(fld, 10, 6)  # nu+s = 16 > 15 points
    make_generator(fld, 10, 5)  # 15 is fine


def test_encode_systematic_and_zero(gf8):
    code = make_generator(gf8, 2, 1)
    message = np.array([[7, 8, 9], [1, 2, 3]], dtype=np.uint8)
    cw = encode(code, message)
    assert cw.shape == (3, 3)
    assert np.array_equal(cw[:2], message)
    zero = np.zeros((2, 3), dtype=np.uint8)
    assert not encode(code, zero).any()


def test_encode_parity_is_generator_combination(gf8):
    # one layer of the three-helper arrangement: parity = g0*G[0,2] + g1*G[1,2]
    code = make_generator(gf8, 2, 1)
    g0 = np.array([5, 17], dtype=np.uint8)
    g1 = np.array([200, 3], dtype=np.uint8)
    cw = encode(code, np.stack([g0, g1]))
    want = np.array(
        [
            gf8.mul(int(g0[t]), int(code.generator[0, 2]))
            ^ gf8.mul(int(g1[t]), int(code.generator[1, 2]))
            for t in range(2)
        ],
        dtype=np.uint8,
    )
    assert np.array_equal(cw[2], want)


def test_encode_linearity(gf8):
    code = make_generator(gf8, 3, 2)
    rng = np.random.default_rng(42)
    for _ in range(100):
        ma = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
        mb = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)
        assert np.array_equal(
            encode(code, ma) ^ encode(code, mb), encode(code, ma ^ mb)
        )


def test_encode_shape_mismatch(gf8):
    code = make_generator(gf8, 2, 1)
    with pytest.raises(ValueError):
        encode(code, np.zeros((3, 4), dtype=np.uint8))


@pytest.mark.parametrize("nu,s", [(1, 2), (2, 1), (2, 2), (3, 2), (2, 4), (4, 4)])
def test_decode_round_trip_every_subset(gf8, nu, s):
    code = make_generator(gf8, nu, s)
    rng = np.random.default_rng(nu * 10 + s)
    message = rng.integers(0, 256, size=(nu, 5), dtype=np.uint8)
    cw = encode(code, message)
    for subset in combinations(range(nu + s), nu):
        got = decode_from(code, list(subset), cw[list(subset)])
        assert np.array_equal(got, message), f"failed on columns {subset}"


def test_decode_systematic_positions_verbatim(gf8):
    code = make_generator(gf8, 2, 2)
    message = np.array([[9, 9], [4, 4]], dtype=np.uint8)
    cw = encode(code, message)
    assert np.array_equal(decode_from(code, [0, 1], cw[[0, 1]]), message)


def test_decode_error_paths(gf8):
    code = make_generator(gf8, 2, 2)
    message = np.array([[1, 2], [3, 4]], dtype=np.uint8)
    cw = encode(code, message)
    with pytest.raises(InsufficientDataError):
        decode_from(code, [0], cw[[0]])
    with pytest.raises(ValueError):
        decode_from(code, [0, 0], cw[[0, 0]])
    with pytest.raises(ValueError):
        decode_from(code, [0, 9], cw[[0, 1]])
    # overdetermined and consistent: fine
    assert np.array_equal(decode_from(code, [0, 1, 2, 3], cw), message)
    # overdetermined and tampered: corruption
    bad = cw.copy()
    bad[3, 0] ^= 1
    with pytest.raises(CorruptionError):
        decode_from(code, [0, 1, 2, 3], bad)


def test_invert_matrix_round_trip_and_singular(gf8):
    rng = np.random.default_rng(2)
    code = make_generator(gf8, 4, 3)
    sub = code.generator[:, [1, 3, 4, 6]]
    inv = invert_matrix(gf8, sub)
    assert np.array_equal(gf8.matmul(inv, sub), np.eye(4, dtype=np.uint8))
    singular = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(ValueError):
        invert_matrix(gf8, singular)
    with pytest.raises(ValueError):
        invert_matrix(gf8, np.zeros((2, 3), dtype=np.uint8))


def invertible(field, k, rng) -> np.ndarray:
    """P * L * U: a row permutation of a unit lower triangle times an upper
    triangle with a nonzero diagonal, so invertible by construction."""
    draw = lambda low: rng.integers(low, field.order, size=(k, k), dtype=field.dtype)
    lower = np.tril(draw(0), -1) + np.eye(k, dtype=field.dtype)
    upper = np.triu(draw(0), 1) + np.diag(np.diag(draw(1)))
    return field.matmul(lower, upper)[rng.permutation(k)]


@pytest.mark.parametrize("m", [4, 8, 16])
def test_invert_matrix_gives_the_inverse_of_random_matrices(m):
    field = GF(m)
    rng = np.random.default_rng(m)
    for k in range(1, 9):
        for _ in range(3):
            a = invertible(field, k, rng)
            inv = invert_matrix(field, a)
            assert inv.dtype == field.dtype and inv.shape == (k, k)
            eye = np.eye(k, dtype=field.dtype)
            assert np.array_equal(field.matmul(a, inv), eye), (k, a.tolist())
            assert np.array_equal(field.matmul(inv, a), eye), (k, a.tolist())


@pytest.mark.parametrize("m", [4, 8, 16])
def test_invert_matrix_rejects_singular_and_non_square_matrices(m):
    field = GF(m)
    rng = np.random.default_rng(m + 1)
    for k in range(2, 9):
        a = invertible(field, k, rng)
        # the last row a field combination of the others: rank k - 1
        c = rng.integers(1, field.order, size=(1, k - 1), dtype=field.dtype)
        a[-1] = field.matmul(c, a[:-1])[0]
        with pytest.raises(ValueError, match="^singular matrix: no pivot in column "):
            invert_matrix(field, a)
    with pytest.raises(ValueError, match=r"^singular matrix: no pivot in column 0$"):
        invert_matrix(field, np.zeros((3, 3), dtype=field.dtype))
    with pytest.raises(ValueError, match=r"^singular matrix: no pivot in column 1$"):
        invert_matrix(field, np.array([[1, 2], [0, 0]], dtype=field.dtype))
    with pytest.raises(ValueError, match=r"^matrix is not square: \(2, 3\)$"):
        invert_matrix(field, np.zeros((2, 3), dtype=field.dtype))


def test_singular_minors_flags_corrupt_generator(gf8):
    good = make_generator(gf8, 2, 2)
    assert singular_minors(good) == []
    dup = np.array(good.generator, copy=True)
    dup[:, 3] = dup[:, 2]  # duplicate evaluation column
    corrupt = MdsCode(field=gf8, nu=2, s=2, generator=dup)
    bad = singular_minors(corrupt)
    assert (2, 3) in bad


def test_make_generator_rejects_nonpositive(gf8):
    with pytest.raises(ConfigurationError):
        make_generator(gf8, 0, 2)
    with pytest.raises(ConfigurationError):
        make_generator(gf8, 2, 0)


def test_fill_parity_scratch_memory_stays_small(gf8):
    # long_gf8's encode: (2, 3) x (3, 349552), tables built by the first call
    code = make_generator(gf8, 3, 2)
    codeword = np.random.default_rng(9).integers(0, 256, size=(5, 349552), dtype=np.uint8)
    fill_parity(code, codeword)
    tracemalloc.start()
    try:
        fill_parity(code, codeword)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (1 << 20), peak
    assert np.array_equal(codeword[3:], gf8.matmul(code.generator[:, 3:].T, codeword[:3]))


def test_slot_subsets_lists_up_to_the_cap_and_draws_past_it():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert slot_subsets(6, 3, 20, rng) == list(combinations(range(6), 3))
    assert rng.bit_generator.state == before  # nothing drawn
    ref = np.random.default_rng(5)
    assert slot_subsets(6, 3, 19, rng) == [
        tuple(sorted(ref.choice(6, size=3, replace=False).tolist())) for _ in range(19)
    ]
    assert rng.bit_generator.state == ref.bit_generator.state
