"""Erasure matrix construction, sampling, and enumeration tests."""

import re
from itertools import combinations
from math import comb

import numpy as np
import pytest

from layeragg import erasure
from layeragg.erasure import (
    ENUMERATION_CAP,
    FLOYD_MAX,
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
    with pytest.raises(ConfigurationError, match="^row 1: helper index 2 named twice$"):
        from_erased_sets([[0, 1], [2, 0, 2]], 3)


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


def per_row_choice(n_e, n_h, s, rng):
    """The matrix sample_uniform must equal: one rng.choice per row."""
    eps = np.zeros((n_e, n_h), dtype=np.uint8)
    for i in range(n_e):
        eps[i, rng.choice(n_h, size=s, replace=False)] = 1
    return eps


def same_state(a, b) -> bool:
    """Equal bit-generator states, arrays (MT19937's key) included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def assert_sample_is_per_row_choice(n_e, n_h, s, make_rng, pending=False):
    """sample_uniform and per-row choice, from twin generators, give the
    same matrix and leave the same full bit-generator state."""
    ours, theirs = make_rng(), make_rng()
    if pending:  # leave a 32-bit half-word pending in both
        for rng in (ours, theirs):
            rng.integers(0, 1 << 32, dtype=np.uint32)
    before = ours.bit_generator.state
    got = sample_uniform(n_e, n_h, s, ours)
    want = per_row_choice(n_e, n_h, s, theirs)
    case = (n_e, n_h, s, before)
    assert got.dtype == np.uint8 and np.array_equal(got, want), case
    assert same_state(ours.bit_generator.state, theirs.bit_generator.state), case


def test_sample_uniform_is_per_row_choice_bit_for_bit():
    """Over 1,500 random shapes, seeds and pending halves, and at the edges
    s = 0, s = n_h and n_e = 0: the batched PCG64 draw marks what per-row
    rng.choice marks and leaves the generator where choice leaves it."""
    meta = np.random.default_rng(2201)
    for _ in range(1500):
        n_h = int(meta.integers(0, 40))
        n_e, s = int(meta.integers(0, 30)), int(meta.integers(0, n_h + 1))
        seed, pending = int(meta.integers(0, 2**63)), bool(meta.integers(0, 2))
        assert_sample_is_per_row_choice(n_e, n_h, s, lambda: np.random.default_rng(seed), pending)
    for n_e, n_h, s in [(7, 6, 0), (7, 6, 6), (0, 6, 2), (5, 1, 1), (3, 0, 0), (50, 10, 2)]:
        for pending in (False, True):
            assert_sample_is_per_row_choice(n_e, n_h, s, lambda: np.random.default_rng(5), pending)
    pending_state = np.random.default_rng(5)
    pending_state.integers(0, 1 << 32, dtype=np.uint32)
    assert pending_state.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize(
    "n_e, n_h, s",
    [(3, FLOYD_MAX, 2), (3, FLOYD_MAX + 1, 2), (2, 12_000, 300)],
    ids=["floyd-max", "above-floyd-max", "numpy-tail-shuffle"],
)
def test_sample_uniform_is_per_row_choice_for_large_populations(n_e, n_h, s):
    for pending in (False, True):
        assert_sample_is_per_row_choice(n_e, n_h, s, lambda: np.random.default_rng(9), pending)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
def test_sample_uniform_is_per_row_choice_on_other_bit_generators(bit_generator):
    for seed in range(20):
        assert_sample_is_per_row_choice(
            9, 7, seed % 8, lambda: np.random.Generator(bit_generator(seed)), pending=seed % 2 == 1
        )


@pytest.mark.parametrize("seed", [66, 301])
def test_sample_uniform_redraws_per_row_in_lemires_zone(seed):
    """These seeds put a word of a (40, 10000, 100) matrix below Lemire's
    threshold, where choice draws that word again: the batch gives up and
    the per-row path, from the restored state, still equals choice."""
    assert erasure._floyd_batch(np.random.default_rng(seed), 40, 10_000, 100) is None
    assert_sample_is_per_row_choice(40, 10_000, 100, lambda: np.random.default_rng(seed))


@pytest.mark.parametrize(
    "n_e, n_h, s, needle",
    [
        (-1, 4, 1, "n_e must be a non-negative integer, got -1"),
        (2.0, 4, 1, "n_e must be a non-negative integer, got 2.0"),
        (True, 4, 1, "n_e must be a non-negative integer, got True"),
        (2, -1, 0, "n_h must be a non-negative integer, got -1"),
        (2, 4.0, 1, "n_h must be a non-negative integer, got 4.0"),
        (2, 4, 5, "s must be an integer in [0, n_h] = [0, 4], got 5"),
        (2, 4, -1, "s must be an integer in [0, n_h] = [0, 4], got -1"),
        (2, 4, 1.0, "s must be an integer in [0, n_h] = [0, 4], got 1.0"),
        (2, 4, False, "s must be an integer in [0, n_h] = [0, 4], got False"),
    ],
)
def test_sample_uniform_refuses_bad_arguments_before_any_draw(n_e, n_h, s, needle):
    rng = np.random.default_rng(3)
    rng.integers(0, 1 << 32, dtype=np.uint32)  # a pending half must stay pending
    before = rng.bit_generator.state
    with pytest.raises(ConfigurationError, match=f"^{re.escape(needle)}$"):
        sample_uniform(n_e, n_h, s, rng)
    assert rng.bit_generator.state == before


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
