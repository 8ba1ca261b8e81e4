"""Erasure matrices: validation, sampling, the adversarial pattern, enumeration.

An erasure matrix is an (n_e, n_h) uint8 array with eps[i, j] = 1 when
the link from edge i to helper j failed. Strict means exactly s failures
per row (the set Omega(s) used for cost analysis); lax means at most s
(what the scheme must tolerate, and what validate checks, along with
the shape).
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import Iterator

import numpy as np

from .errors import CapExceededError, ConfigurationError
from .gf import is_integer

ENUMERATION_CAP = 10**6


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
    """Build a matrix from per-edge lists of erased helper indices (JSON form)."""
    eps = np.zeros((len(rows), n_h), dtype=np.uint8)
    for i, erased in enumerate(rows):
        for j in erased:
            if not is_integer(j):
                raise ConfigurationError(f"row {i}: helper index {j!r} is not an integer")
            if not 0 <= j < n_h:
                raise ConfigurationError(f"row {i}: helper index {j} out of range [0, {n_h})")
            eps[i, j] = 1
    return eps


def erased_sets(eps: np.ndarray) -> list[list[int]]:
    return [[int(j) for j in np.flatnonzero(row)] for row in np.asarray(eps)]


def sample_uniform(n_e: int, n_h: int, s: int, seed) -> np.ndarray:
    """Each row an independently uniform s-subset of helpers; exact weight s."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    eps = np.zeros((n_e, n_h), dtype=np.uint8)
    for i in range(n_e):
        eps[i, rng.choice(n_h, size=s, replace=False)] = 1
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
