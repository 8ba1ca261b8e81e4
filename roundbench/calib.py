"""Calibration kernels that track how fast the machine runs right now.

The benchmark's host is shared, and its speed drifts by up to ~1.7x over
minutes. Timing a fixed kernel next to every operation and scaling the
operation's wall time by reference_s / kernel time cancels that drift:
times are reported in milliseconds at the speed the machine had when
the kernel took its reference time.

The drift does not hit interpreter-bound and memory-bound code alike,
so the kernel is built from parts, and each workload names the parts
that resemble where its own time goes. No part touches layeragg, so a
change to the program cannot move the kernel.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

_ROWS = [sum(1 << j for j in c) for c in combinations(range(10), 2)][:40]
_TABLE = np.arange(1 << 16, dtype=np.uint16)[::-1].copy()
_INDEX = np.random.default_rng(0).integers(0, 1 << 16, size=1 << 18)
_EXP = np.arange(510, dtype=np.uint8)
_LOG = np.arange(256, dtype=np.int64)
_SYMBOLS = np.random.default_rng(1).integers(0, 256, size=(3, 349552), dtype=np.uint8)


def _interpreter() -> None:
    """Small-set and bit work in the interpreter, as in erasure planning."""
    for _ in range(2):
        for helpers in combinations(range(10), 6):
            layer = sum(1 << h for h in helpers)
            covers = set()
            for footprint in {m & layer for m in _ROWS}:
                free = [h for h in helpers if not footprint >> h & 1]
                covers.add(footprint | sum(1 << h for h in free[: 2 - bin(footprint).count("1")]))


def _gather() -> None:
    """Cache-resident table gathers and XOR folds."""
    for _ in range(24):
        np.bitwise_xor.reduce(_TABLE[_INDEX].reshape(64, -1), axis=0)


def _stream() -> None:
    """Log/antilog products with zero masks over rows longer than the caches, as in a field matmul."""
    log_b = _LOG[_SYMBOLS]
    zero_b = _SYMBOLS == 0
    out = np.zeros((5, _SYMBOLS.shape[1]), dtype=np.uint8)
    for k in range(_SYMBOLS.shape[0]):
        prod = _EXP[_LOG[np.arange(1, 6)][:, None] + log_b[k][None, :]]
        prod[:, zero_b[k]] = 0
        out ^= prod


# Each part's time on the reference machine (2 vCPUs, Python 3.11, numpy 2.4).
PARTS = {
    "interpreter": (_interpreter, 0.0100),
    "gather": (_gather, 0.0075),
    "stream": (_stream, 0.0210),
}


def reference_s(parts: list[str]) -> float:
    return sum(PARTS[p][1] for p in parts)


def kernel_s(parts: list[str]) -> float:
    """Wall time of one pass over the named parts."""
    start = time.perf_counter()
    for p in parts:
        PARTS[p][0]()
    return time.perf_counter() - start
