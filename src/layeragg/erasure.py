"""Erasure matrices: validation, sampling, the adversarial pattern, enumeration.

An erasure matrix is an (n_e, n_h) uint8 array with eps[i, j] = 1 when
the link from edge i to helper j failed. Strict means exactly s failures
per row (the set Omega(s) used for cost analysis); lax means at most s
(what the scheme must tolerate, and what validate checks, along with
the shape).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Iterator

import numpy as np

from .errors import CapExceededError, ConfigurationError
from .gf import check_non_negative, is_integer

ENUMERATION_CAP = 10**6
# the largest population for which numpy's Generator.choice, without
# replacement, runs Floyd's algorithm whatever the sample size
FLOYD_MAX = 10_000


def validate(eps, n_e: int, n_h: int, s: int) -> np.ndarray:
    """Return eps, any array-like, as an array once it passes the one check
    of an erasure matrix: reject a shape other than (n_e, n_h), then the
    first row with an entry other than 0 or 1, or a weight above s."""
    eps = np.asarray(eps)
    if eps.shape != (n_e, n_h):
        raise ConfigurationError(
            f"erasure matrix shape {eps.shape} mismatch: expected (n_e, n_h) = ({n_e}, {n_h})"
        )
    nonbinary = ((eps != 0) & (eps != 1)).any(axis=1)
    weights = eps.sum(axis=1)
    bad = np.flatnonzero(nonbinary | (weights > s))
    if bad.size:
        row = int(bad[0])
        if nonbinary[row]:
            raise ConfigurationError(f"row {row} has entries other than 0 and 1: {eps[row].tolist()}")
        raise ConfigurationError(f"row {row} has weight {int(weights[row])}, expected at most {s}")
    return eps


def from_erased_sets(rows, n_h: int) -> np.ndarray:
    """Build a matrix from per-edge lists of erased helper indices (JSON form),
    each index an integer in [0, n_h) named at most once per row."""
    eps = np.zeros((len(rows), n_h), dtype=np.uint8)
    for i, erased in enumerate(rows):
        for j in erased:
            if not is_integer(j):
                raise ConfigurationError(f"row {i}: helper index {j!r} is not an integer")
            if not 0 <= j < n_h:
                raise ConfigurationError(f"row {i}: helper index {j} out of range [0, {n_h})")
            if eps[i, j]:
                raise ConfigurationError(f"row {i}: helper index {j} named twice")
            eps[i, j] = 1
    return eps


def erased_sets(eps: np.ndarray) -> list[list[int]]:
    return [[int(j) for j in np.flatnonzero(row)] for row in np.asarray(eps)]


def seeded_rng(seed) -> np.random.Generator:
    """seed itself when it is a numpy Generator, else a generator seeded
    with it, which must be a non-negative integer."""
    if isinstance(seed, np.random.Generator):  # first: Monte Carlo passes one per chunk
        return seed
    if not is_integer(seed) or seed < 0:
        raise ConfigurationError(f"seed must be a numpy Generator or a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def sample_uniform(n_e: int, n_h: int, s: int, seed) -> np.ndarray:
    """Each row an independently uniform s-subset of helpers; exact weight s.

    The matrix is bit for bit the one that n_e calls of
    rng.choice(n_h, size=s, replace=False) mark, row after row, and the
    generator is left in the same state, pending 32-bit half included.
    For n_h <= FLOYD_MAX, numpy's choice runs Floyd's algorithm: for j
    from n_h-s to n_h-1 it takes a draw v in [0, j], or j when v is
    already taken, and then shuffles the s picks with draws in [0, i]
    for i from s-1 down to 1. Each draw in [0, r-1] is Lemire's method
    on one 32-bit word w: v = (w*r) >> 32, drawn again only when the low
    32 bits of w*r fall below 2^32 mod r. Floyd's j = 0, reached when
    s = n_h, takes no word. So a whole matrix takes one call of
    rng.integers(0, 2^32, dtype=uint32), which reads the same 32-bit
    stream, and array arithmetic; the shuffle's words are read and
    dropped, since the order of a row's picks leaves its set unchanged.

    Per-row choice still draws the matrix when the bit generator is not
    PCG64, when n_h > FLOYD_MAX, and when any word falls in Lemire's
    redraw zone; in that last case the generator's state is restored
    first. Raises ConfigurationError, before any draw, unless n_e and
    n_h are non-negative integers, s an integer in [0, n_h] and seed
    what seeded_rng takes.
    """
    check_non_negative(n_e, "n_e")
    check_non_negative(n_h, "n_h")
    if not is_integer(s) or not 0 <= s <= n_h:
        raise ConfigurationError(f"s must be an integer in [0, n_h] = [0, {n_h}], got {s!r}")
    rng = seeded_rng(seed)
    bits = rng.bit_generator
    if type(bits) is np.random.PCG64 and n_h <= FLOYD_MAX:
        state = bits.state
        eps = _floyd_batch(rng, n_e, n_h, s)
        if eps is not None:
            return eps
        bits.state = state
    eps = np.zeros((n_e, n_h), dtype=np.uint8)
    for i in range(n_e):
        eps[i, rng.choice(n_h, size=s, replace=False)] = 1
    return eps


@lru_cache(maxsize=64)
def _draw_spans(n_h: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The range r of each bounded draw of one row, in draw order (Floyd's
    j+1 for j >= 1, then the shuffle's i+1), and each one's Lemire
    threshold 2^32 mod r."""
    spans = np.r_[np.arange(max(n_h - s, 1), n_h), np.arange(s - 1, 0, -1)].astype(np.uint64) + 1
    return spans, (1 << 32) % spans


def _floyd_batch(rng: np.random.Generator, n_e: int, n_h: int, s: int):
    """sample_uniform's matrix from one batch of 32-bit words, or None when
    a word falls in Lemire's redraw zone (the generator is then advanced)."""
    spans, thresholds = _draw_spans(n_h, s)
    products = rng.integers(0, 1 << 32, size=(n_e, len(spans)), dtype=np.uint32) * spans
    if ((products & 0xFFFFFFFF) < thresholds).any():
        return None
    if s == n_h:
        return np.ones((n_e, n_h), dtype=np.uint8)
    eps = np.zeros((n_e, n_h), dtype=np.uint8)
    rows = np.arange(n_e)
    picks = (products >> 32).astype(np.intp)
    for t, j in enumerate(range(n_h - s, n_h)):
        v = picks[:, t]
        eps[rows, np.where(eps[rows, v] != 0, j, v)] = 1
    return eps


def worst_case_pattern(n_e: int, n_h: int, s: int) -> np.ndarray:
    """The adversarial matrix: rows cycle through all s-subsets lexicographically.

    With n_e >= C(n_h, s) every pattern occurs in some row, which makes
    every layer's aggregation map onto all of its s-subsets. Fewer edges
    get the lexicographic prefix.
    """
    subsets = list(combinations(range(n_h), s))
    eps = np.zeros((n_e, n_h), dtype=np.uint8)
    for i in range(n_e):
        eps[i, subsets[i % len(subsets)]] = 1
    return eps


def omega_size(n_e: int, n_h: int, s: int) -> int:
    """|Omega(s)|: number of strict erasure matrices."""
    return comb(n_h, s) ** n_e


def _check_cap(n_e: int, n_h: int, s: int) -> None:
    total = omega_size(n_e, n_h, s)
    if total > ENUMERATION_CAP:
        raise CapExceededError(
            f"Omega(s) has {total} matrices, above the cap of {ENUMERATION_CAP}",
            estimate=total,
        )


def enumerate_all(n_e: int, n_h: int, s: int) -> Iterator[np.ndarray]:
    """Yield every strict erasure matrix exactly once, refusing above the cap."""
    _check_cap(n_e, n_h, s)
    subsets = list(combinations(range(n_h), s))
    for choice in product(range(len(subsets)), repeat=n_e):
        eps = np.zeros((n_e, n_h), dtype=np.uint8)
        for i, c in enumerate(choice):
            eps[i, subsets[c]] = 1
        yield eps


def enumerate_row_sets(n_e: int, n_h: int, s: int) -> Iterator[np.ndarray]:
    """Yield one strict matrix per set of min(n_e, C(n_h, s)) distinct rows.

    A set's rows come in lexicographic order, and its first row repeats
    to fill the matrix's n_e rows. Refuses above the cap on |Omega(s)|,
    as enumerate_all does.
    """
    _check_cap(n_e, n_h, s)
    subsets = list(combinations(range(n_h), s))
    k = min(n_e, len(subsets))
    for chosen in combinations(subsets, k):
        eps = np.zeros((n_e, n_h), dtype=np.uint8)
        for i, subset in enumerate(chosen + chosen[:1] * (n_e - k)):
            eps[i, subset] = 1
        yield eps
