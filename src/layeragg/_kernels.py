"""Hot GF(2^m) array kernels: the log/antilog matrix product and the XOR fold."""

from __future__ import annotations

import numpy as np


def gf_matmul(a, b, log, exp):
    """Matrix product over GF(2^m) via log/antilog tables.

    a: (n, k) coefficients, b: (k, d) symbols; returns (n, d).
    Vectorized over the (usually long) last axis; k stays tiny. The exp
    table is doubled so the log sum never needs a modulo.
    """
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=b.dtype)
    log_b = log[b]
    zero_b = b == 0
    for kk in range(a.shape[1]):
        coefs = a[:, kk]
        nz = coefs != 0
        if not nz.any():
            continue
        prod = exp[log[coefs][:, None] + log_b[kk][None, :]]
        prod[:, zero_b[kk]] = 0
        prod[~nz, :] = 0
        out ^= prod
    return out


def xor_reduce(x):
    """XOR-fold the rows of a (rows, d) array into a (d,) vector."""
    out = np.zeros(x.shape[1], dtype=x.dtype)
    if x.shape[0]:
        np.bitwise_xor.reduce(np.ascontiguousarray(x), axis=0, out=out)
    return out
