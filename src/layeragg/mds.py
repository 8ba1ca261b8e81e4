"""Systematic [nu+s, nu] MDS codes: construction, encoding, erasure decoding.

make_generator takes the nu x (nu+s) Vandermonde matrix V, V[i, c] =
x_c^i, in the distinct nonzero points x_c = g^c, c < nu+s, of the field
generator g, and returns G = V[:, :nu]^-1 V = [I | A], whose left block
is the identity.

Every nu-minor of G is nonzero. For any nu columns S, det G[:, S] =
det V[:, S] / det V[:, :nu], a ratio of Vandermonde determinants in
distinct points: each is the product of x_b - x_a over the pairs a < b
of its points, and no factor is zero. So any nu coordinates of a
codeword determine its message, and the code is MDS.

Corollary: every square submatrix of the parity block A is nonsingular.
Take r rows M and r columns Q of A, and let S be the nu - r message
slots outside M together with the parity slots nu + Q. The columns of
G[:, S] at those message slots are unit vectors, so expanding det
G[:, S] along them leaves +-det A[M, Q], which is then nonzero. This is
the r x r solve of master.decode_global, with K the message slots in S.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import ConfigurationError, CorruptionError, InsufficientDataError
from .gf import GF

MINOR_CAP = 20000


@dataclass(frozen=True)
class MdsCode:
    field: GF
    nu: int
    s: int
    generator: np.ndarray  # (nu, nu+s), left nu x nu block is the identity

    @property
    def n(self) -> int:
        return self.nu + self.s


def invert_matrix(field: GF, a: np.ndarray) -> np.ndarray:
    """Invert a square matrix over the field by Gauss-Jordan elimination.

    Raises ValueError when the matrix is singular. Matrices here are at
    most (nu+s) x (nu+s), so the elimination runs on rows of Python ints
    with the field's scalar ops, 2.5-4x faster than on numpy scalars (a
    4 x 4 GF(2^16) inverse: 29-30 against 77-115 us, best of 7x500 calls
    in runs on a 2-vCPU host).
    """
    a = np.asarray(a, dtype=field.dtype)
    k = a.shape[0]
    if a.shape != (k, k):
        raise ValueError(f"matrix is not square: {a.shape}")
    mul = field.mul
    aug = [row + [int(c == r) for c in range(k)] for r, row in enumerate(a.tolist())]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col]), None)
        if pivot is None:
            raise ValueError(f"singular matrix: no pivot in column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = field.inv(aug[col][col])
        lead = aug[col] = [mul(inv_p, x) for x in aug[col]]
        for r in range(k):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [x ^ mul(f, y) for x, y in zip(aug[r], lead)]
    return np.array([row[k:] for row in aug], dtype=field.dtype).reshape(k, k)


def make_generator(field: GF, nu: int, s: int) -> MdsCode:
    """Build the systematic MDS generator for the given message/parity split."""
    if nu < 1 or s < 1:
        raise ConfigurationError(f"need nu >= 1 and s >= 1, got nu={nu}, s={s}")
    n = nu + s
    if n > field.order - 1:
        raise ConfigurationError(
            f"code length nu+s={n} exceeds the {field.order - 1} distinct "
            f"nonzero evaluation points of {field!r}"
        )
    vand = np.zeros((nu, n), dtype=field.dtype)
    for c in range(n):
        for r in range(nu):
            vand[r, c] = field.gen_pow(r * c)
    left_inv = invert_matrix(field, vand[:, :nu])
    gen = field.matmul(left_inv, vand)
    if not np.array_equal(gen[:, :nu], np.eye(nu, dtype=field.dtype)):
        raise ConfigurationError(
            f"generator for nu={nu}, s={s} over {field!r} is not systematic"
        )
    gen.setflags(write=False)
    return MdsCode(field=field, nu=nu, s=s, generator=gen)


def singular_minors(code: MdsCode) -> list[tuple[int, ...]]:
    """Column nu-subsets whose square submatrix is singular; empty means MDS.

    Exhaustive when C(nu+s, nu) <= MINOR_CAP, else a seeded sample of that many.
    """
    if comb(code.n, code.nu) > MINOR_CAP:
        rng = np.random.default_rng(0)
        subsets = [
            tuple(sorted(rng.choice(code.n, size=code.nu, replace=False).tolist()))
            for _ in range(MINOR_CAP)
        ]
    else:
        subsets = list(combinations(range(code.n), code.nu))
    bad = []
    for subset in subsets:
        try:
            invert_matrix(code.field, code.generator[:, list(subset)])
        except ValueError:
            bad.append(subset)
    return bad


def encode(code: MdsCode, message: np.ndarray) -> np.ndarray:
    """Encode nu message symbols (rows of length d) into nu+s coded symbols.

    Systematic: the first nu output rows are the message itself, and only
    the s parity rows are computed.
    """
    message = np.asarray(message, dtype=code.field.dtype)
    if message.ndim != 2 or message.shape[0] != code.nu:
        raise ValueError(
            f"message must be (nu, d) = ({code.nu}, *), got {message.shape}"
        )
    codeword = np.empty((code.n, message.shape[1]), dtype=code.field.dtype)
    codeword[: code.nu] = message
    fill_parity(code, codeword)
    return codeword


def fill_parity(code: MdsCode, codeword: np.ndarray) -> None:
    """Write the s parity rows of an (nu+s, d) codeword whose first nu rows
    hold the message.

    Every codeword of a code multiplies by the same parity coefficients,
    so the product reads tables indexed by 16-bit units of the rows (two
    symbols at m <= 8, one at m = 16), built once per code
    (GF.matmul_fixed).
    """
    code.field.matmul_fixed(
        code.generator[:, code.nu :].T, codeword[: code.nu], out=codeword[code.nu :]
    )


def decode_from(code: MdsCode, positions, symbols: np.ndarray) -> np.ndarray:
    """Recover the message from coded symbols at the given coordinates.

    Any nu coordinates determine the message; extra coordinates are
    checked for consistency and a mismatch raises CorruptionError.
    """
    positions = list(positions)
    symbols = np.asarray(symbols, dtype=code.field.dtype)
    if len(positions) < code.nu:
        raise InsufficientDataError(
            f"{len(positions)} coordinates given, {code.nu} needed"
        )
    if len(set(positions)) != len(positions):
        raise ValueError(f"duplicate coordinates in {positions}")
    if any(p < 0 or p >= code.n for p in positions):
        raise ValueError(f"coordinates out of range [0, {code.n}): {positions}")
    if symbols.ndim != 2 or symbols.shape[0] != len(positions):
        raise ValueError(
            f"symbols must be ({len(positions)}, d), got {symbols.shape}"
        )
    use = positions[: code.nu]
    sub = code.generator[:, use]  # (nu, nu)
    message = code.field.matmul(invert_matrix(code.field, sub.T), symbols[: code.nu])
    if len(positions) > code.nu:
        rest = positions[code.nu :]
        expected = code.field.matmul(code.generator[:, rest].T, message)
        if not np.array_equal(expected, symbols[code.nu :]):
            raise CorruptionError(
                f"symbols at coordinates {rest} disagree with the decoded message"
            )
    return message
