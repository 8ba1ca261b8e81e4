"""Erasure matrix construction, sampling, and enumeration tests."""

import re
from itertools import combinations
from math import comb

import numpy as np
import pytest

from layeragg.erasure import (
    ENUMERATION_CAP,
    enumerate_all,
    enumerate_row_sets,
    erased_sets,
    from_erased_sets,
    omega_size,
    sample_uniform,
    validate,
    worst_case_pattern,
)
from layeragg.errors import CapExceededError, ConfigurationError

SEVEN_EDGE_ROWS = [[4, 5], [4, 5], [3, 4], [2, 3], [2, 3], [0, 1], [0, 1]]


def test_validate_lax_and_strict():
    zero = np.zeros((3, 4), dtype=np.uint8)
    validate(zero, 3, 4, s=1)  # lax ok
    checked = validate(zero.tolist(), 3, 4, s=1)
    assert isinstance(checked, np.ndarray) and np.array_equal(checked, zero)

    eps = from_erased_sets(SEVEN_EDGE_ROWS, 6)
    assert validate(eps, 7, 6, s=2) is eps
    assert (eps.sum(axis=1) == 2).all()  # every row has weight exactly 2

    heavy = zero.copy()
    heavy[1, :2] = 1
    with pytest.raises(ConfigurationError, match="^row 1 has weight 2, expected at most 1$"):
        validate(heavy, 3, 4, s=1)


def test_json_round_trip():
    eps = from_erased_sets(SEVEN_EDGE_ROWS, 6)
    assert eps.shape == (7, 6)
    assert erased_sets(eps) == SEVEN_EDGE_ROWS
    with pytest.raises(ValueError):
        from_erased_sets([[6]], 6)


def test_sample_uniform_weights_and_determinism():
    a = sample_uniform(20, 6, 2, seed=3)
    assert a.shape == (20, 6)
    assert (a.sum(axis=1) == 2).all()
    b = sample_uniform(20, 6, 2, seed=3)
    assert np.array_equal(a, b)
    c = sample_uniform(20, 6, 2, seed=4)
    assert not np.array_equal(a, c)


def test_sample_uniform_column_frequency():
    eps = sample_uniform(10_000, 4, 1, seed=0)
    freq = eps.mean(axis=0)
    assert np.all(np.abs(freq - 0.25) < 0.02)


def test_worst_case_has_every_pattern_when_edges_suffice():
    eps = worst_case_pattern(50, 10, 2)
    assert (eps.sum(axis=1) == 2).all()
    seen = {tuple(np.flatnonzero(row)) for row in eps}
    assert seen == set(combinations(range(10), 2))
    assert len(seen) == 45


def test_worst_case_prefix_when_edges_scarce():
    eps = worst_case_pattern(2, 3, 1)
    assert erased_sets(eps) == [[0], [1]]
    assert (eps.sum(axis=1) == 1).all()


def test_worst_case_cycles_over_surplus_rows():
    eps = worst_case_pattern(5, 3, 1)
    assert erased_sets(eps) == [[0], [1], [2], [0], [1]]


def test_enumerate_all_counts():
    nine = list(enumerate_all(2, 3, 1))
    assert len(nine) == 9 == omega_size(2, 3, 1)
    assert len({e.tobytes() for e in nine}) == 9
    for eps in nine:
        assert (eps.sum(axis=1) == 1).all()

    six = list(enumerate_all(1, 4, 2))
    assert len(six) == 6 == comb(4, 2)


def test_enumerate_all_refuses_above_cap():
    with pytest.raises(CapExceededError) as info:
        list(enumerate_all(7, 6, 2))
    assert info.value.estimate == 15**7
    # the boundary, at the real cap: the generator checks it before the
    # first matrix, so next() enumerates nothing
    assert omega_size(6, 10, 1) == ENUMERATION_CAP
    assert next(enumerate_all(6, 10, 1)).shape == (6, 10)
    assert omega_size(7, 10, 1) > ENUMERATION_CAP
    with pytest.raises(CapExceededError):
        next(enumerate_all(7, 10, 1))


@pytest.mark.parametrize("n_e, n_h, s", [(1, 3, 1), (2, 4, 2), (3, 3, 1), (5, 3, 2), (4, 5, 1)])
def test_enumerate_row_sets_yields_each_set_of_distinct_rows_once(n_e, n_h, s):
    """One strict matrix per set of min(n_e, C(n_h, s)) distinct rows."""
    k = min(n_e, comb(n_h, s))
    matrices = list(enumerate_row_sets(n_e, n_h, s))
    row_sets = {frozenset(map(tuple, erased_sets(eps))) for eps in matrices}
    assert len(matrices) == len(row_sets) == comb(comb(n_h, s), k)
    assert {len(rows) for rows in row_sets} == {k}
    for eps in matrices:
        assert eps.shape == (n_e, n_h) and (eps.sum(axis=1) == s).all()
    with pytest.raises(CapExceededError) as info:
        next(enumerate_row_sets(7, 6, 2))
    assert info.value.estimate == 15**7


@pytest.mark.parametrize(
    "entries, row",
    [
        ([[0, 0, 0, 0], [-1, -1, -1, 0]], 1),  # weight -3 passes a bare weight check
        ([[2, 0, 0, 0]], 0),
        ([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 255]], 2),
    ],
)
def test_validate_rejects_entries_other_than_zero_and_one(entries, row):
    with pytest.raises(ValueError, match=f"row {row} has entries other than 0 and 1"):
        validate(np.array(entries), len(entries), 4, s=1)


@pytest.mark.parametrize(
    "eps", [np.zeros(4), np.zeros((2, 2, 4)), np.uint8(0)], ids=["1-D", "3-D", "0-D"]
)
def test_validate_rejects_an_array_that_is_not_2d(eps):
    needle = re.escape(f"erasure matrix shape {eps.shape} mismatch: expected (n_e, n_h) = (2, 4)")
    with pytest.raises(ConfigurationError, match=needle):
        validate(eps, 2, 4, s=1)
