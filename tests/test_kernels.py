"""Edge cases of the hot kernels; tests/test_gf.py holds the matmul oracle."""

import numpy as np

from layeragg import _kernels


def test_xor_reduce_empty_and_single():
    empty = np.zeros((0, 5), dtype=np.uint8)
    assert np.array_equal(_kernels.xor_reduce(empty), np.zeros(5, dtype=np.uint8))
    one = np.arange(5, dtype=np.uint8).reshape(1, 5)
    assert np.array_equal(_kernels.xor_reduce(one), one[0])
