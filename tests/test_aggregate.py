"""Aggregation plan and helper emission tests, pinned to the seven-edge example."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import combinations, product
from math import comb
from pathlib import Path

import numpy as np
import pytest
from reference_plan import (
    check_decode_patterns,
    lexmin_cover,
    reference_feeds,
    reference_plan_layer,
    reference_schedules,
    views,
)

import layeragg
from layeragg import aggregate, client, sim
from layeragg.aggregate import (
    AggregatedMessage,
    GroupSums,
    RoundPlan,
    aggregate_helper,
    plan_layer,
)
from layeragg.client import (
    CodewordArray,
    LayerMap,
    SchemeParams,
    edges_per_batch,
    encode_client,
    random_gradient,
)
from layeragg.erasure import enumerate_all, from_erased_sets, sample_uniform, validate
from layeragg.errors import ConfigurationError, ProtocolError
from layeragg.gf import GF
from layeragg.master import decode_global
from layeragg.mds import make_generator
from layeragg.sim import Scenario, run_round

SEVEN_EDGE_ROWS = [[4, 5], [4, 5], [3, 4], [2, 3], [2, 3], [0, 1], [0, 1]]


@pytest.fixture(scope="module")
def gf8():
    return GF(8)


def seven_edge_setup(gf8):
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    code = make_generator(gf8, 2, 2)
    eps = from_erased_sets(SEVEN_EDGE_ROWS, 6)
    return params, code, eps


def test_lexmin_cover_matches_scan_oracle():
    for n_h in (4, 5, 6):
        for k in range(2, n_h + 1):
            helpers = tuple(range(n_h - k, n_h))  # an arbitrary sorted subset
            for s in range(1, k):
                subsets = list(combinations(helpers, s))  # lexicographic
                for t_size in range(0, s + 1):
                    for trapped in combinations(helpers, t_size):
                        want = next(S for S in subsets if set(trapped) <= set(S))
                        assert lexmin_cover(helpers, trapped, s) == want


def test_every_cover_table_holds_the_lexmin_cover_of_every_mask():
    """Every table of k <= TABLE_SLOTS slots, for every s < k and every
    footprint mask: the id is -1 exactly when the mask weighs more than
    s, and otherwise names the mask's lexmin cover (about 82,000 cases)."""
    for k in range(2, aggregate.TABLE_SLOTS + 1):
        slots = range(k)
        masks = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(bool)
        weight = masks.sum(axis=1)
        for s in range(1, k):
            covers = aggregate._Covers(k, s)
            ids = covers.ids(masks)
            assert np.array_equal(ids == -1, weight > s), (k, s)
            light = weight <= s
            got = covers.members(ids[light]).tolist()
            for mask, member in zip(masks[light].tolist(), got):
                want = lexmin_cover(slots, [t for t in slots if mask[t]], s)
                assert tuple(t for t in slots if member[t]) == want, (k, s, mask)


def test_wide_layers_rank_every_light_mask_and_sampled_heavy_ones_to_the_lexmin_cover():
    """Above TABLE_SLOTS, _Covers ranks footprints on the fly: for k = 13..20
    slots and every s < k, on every mask of weight <= 2 and on 40 seeded
    masks of each weight from 3 to k, the id is -1 exactly when the mask
    weighs more than s, and otherwise names the mask's lexmin cover."""
    rng = np.random.default_rng(13)
    for k in range(aggregate.TABLE_SLOTS + 1, 21):
        slots = range(k)
        light = [()] + [(t,) for t in slots] + list(combinations(slots, 2))
        masks = np.zeros((len(light), k), dtype=bool)
        for row, members in enumerate(light):
            masks[row, list(members)] = True
        # 40 masks per weight w >= 3: the w slots of smallest random key
        heavy = np.repeat(np.arange(3, k + 1), 40)
        keys = rng.random((len(heavy), k)).argsort(axis=1).argsort(axis=1)
        masks = np.vstack([masks, keys < heavy[:, None]])
        weight = masks.sum(axis=1)
        for s in range(1, k):
            covers = aggregate._Covers(k, s)
            assert covers._ids is None  # the rank path, not a table
            ids = covers.ids(masks)
            assert np.array_equal(ids == -1, weight > s), (k, s)
            fits = weight <= s
            assert ((ids[fits] >= 0) & (ids[fits] < comb(k, s))).all(), (k, s)
            got = covers.members(ids[fits]).tolist()
            for mask, member in zip(masks[fits].tolist(), got):
                want = lexmin_cover(slots, [t for t in slots if mask[t]], s)
                assert tuple(t for t in slots if member[t]) == want, (k, s, mask)


def test_plan_matches_seven_edge_example(gf8):
    _, _, eps = seven_edge_setup(gf8)
    plan = plan_layer(0, (0, 1, 2, 3), eps, 2)
    assert plan.classes == ((0, 1), (2,), (3, 4), (5, 6))
    assert plan.phi == ((0, 1), (0, 3), (2, 3), (0, 1))
    assert plan.beta == 3
    assert plan.images == ((0, 1), (0, 3), (2, 3))
    assert plan.groups == ((0, 1, 5, 6), (2,), (3, 4))


def test_seven_edge_plans_equal_the_reference(gf8):
    params, _, eps = seven_edge_setup(gf8)
    plan = RoundPlan(eps, params)
    for layer, helpers in enumerate(params.layer_map):
        assert views(plan.layer_plans[layer]) == reference_plan_layer(layer, helpers, eps, params.s)
    assert plan.schedules == reference_schedules(params, plan.layer_plans)


def test_plan_rejects_a_footprint_heavier_than_s():
    # edge 0 erases three of layer 0's helpers {0, 1, 2, 3}, and s = 2
    eps = np.array([[1, 1, 1, 0], [0, 0, 0, 0]], dtype=np.uint8)
    params = SchemeParams(p=24, n_e=2, n_h=4, s=2, nu=2)
    with pytest.raises(ConfigurationError, match=r"^row 0 has weight 3, expected at most 2$"):
        RoundPlan(eps, params)
    with pytest.raises(ValueError, match=r"layer 0: edge 0 erases helpers \[0, 1, 2\]"):
        plan_layer(0, (0, 1, 2, 3), eps, 2)
    # a heavy footprint behind lighter edges names its own edge
    eps = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0]], dtype=np.uint8)
    with pytest.raises(ValueError, match=r"layer 2: edge 2 erases helpers \[0, 1\] of \(0, 1, 3\), more than s=1"):
        plan_layer(2, (0, 1, 3), eps, 1)


@pytest.mark.parametrize("helpers", [(3, 2, 1), (1, 2, 9), (-1, 1, 2), (1, 1, 2), (1, 2, 4)])
def test_plan_rejects_helpers_that_are_not_increasing_columns(helpers):
    # unchecked, (3, 2, 1) plans its images in reverse, 9 and 4 index past
    # the last of 4 columns, and -1 wraps around to it
    eps = np.zeros((2, 4), dtype=np.uint8)
    message = f"layer 0: helpers {helpers} are not strictly increasing within [0, 4)"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        plan_layer(0, helpers, eps, 1)


@pytest.mark.parametrize("helpers", [(), (0,), (0, 1)])
def test_plan_rejects_a_layer_of_s_helpers_or_fewer(helpers):
    # unchecked, () and (0,) fail inside numpy, and (0, 1) plans one cover
    # that holds every helper, so that no helper emits
    eps = np.zeros((2, 4), dtype=np.uint8)
    message = (
        f"layer 0: helpers {helpers} are not strictly increasing within [0, 4), "
        "or number s=2 or fewer"
    )
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        plan_layer(0, helpers, eps, 2)


def test_plan_counts_any_nonzero_entry_as_erased():
    # a stray 2 is one erasure of its own helper, not a carry into the next slot
    eps = np.array([[2, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint8)
    plan = plan_layer(0, (0, 1, 2), eps, 1)
    assert views(plan) == reference_plan_layer(0, (0, 1, 2), eps, 1)
    assert plan.phi == ((0,), (1,))


@pytest.mark.parametrize("k", [63, 64, 66])
def test_plan_of_a_layer_wider_than_a_machine_word(k):
    eps = np.zeros((4, k), dtype=np.uint8)
    eps[0, k - 1] = eps[1, k - 2] = eps[2, 0] = 1
    helpers = tuple(range(k))
    plan = plan_layer(0, helpers, eps, 1)
    assert views(plan) == reference_plan_layer(0, helpers, eps, 1)
    assert plan.images == ((0,), (k - 2,), (k - 1,))


@pytest.mark.parametrize("k", [63, 64, 66])
def test_round_of_a_layer_wider_than_a_machine_word(k):
    """Emitter patterns that differ only in slots past 64 decode apart."""
    eps = np.zeros((3, k), dtype=np.uint8)
    eps[0, k - 1] = eps[1, k - 2] = eps[2, 0] = 1
    scenario = Scenario(p=200, n_e=3, n_h=k, s=1, nu=k - 1, seed=1)
    assert run_round(scenario, eps=eps).passed
    plan = RoundPlan(eps, scenario.params())
    assert list(plan.decode_patterns) == [
        tuple(range(1, k)), tuple(range(k - 2)) + (k - 1,), tuple(range(k - 1)),
    ]


@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("k", [aggregate.TABLE_SLOTS, aggregate.TABLE_SLOTS + 1])
def test_plan_on_both_sides_of_the_table_bound(k, s):
    """Layers up to TABLE_SLOTS read their covers from tables, wider ones
    rank each footprint; both equal the reference."""
    rng = np.random.default_rng(k * 10 + s)
    eps = lax_matrix(40, k, s, rng)
    eps[:3] = 0
    eps[0, k - s :] = eps[1, :s] = 1  # the last and the first cover
    helpers = tuple(range(k))
    plan = plan_layer(0, helpers, eps, s)
    assert views(plan) == reference_plan_layer(0, helpers, eps, s)
    eps[2, : s + 1] = 1
    with pytest.raises(ConfigurationError, match=rf"layer 0: edge 2 erases helpers \[0, .*more than s={s}"):
        plan_layer(0, helpers, eps, s)


def test_a_layer_with_more_covers_than_int64_ids_plans_and_decodes():
    """C(68, 34) > 2^63: the cover ids are Python integers."""
    k, s = 68, 34
    eps = np.zeros((5, k), dtype=np.uint8)
    eps[0, k - s :] = eps[1, :s] = 1  # the last and the first cover
    eps[2, [3, 40, 67]] = eps[3, 66] = 1
    helpers = tuple(range(k))
    plan = plan_layer(0, helpers, eps, s)
    assert views(plan) == reference_plan_layer(0, helpers, eps, s)
    assert max(plan.cover) == comb(k, s) - 1 > np.iinfo(np.int64).max
    scenario = Scenario(p=200, n_e=5, n_h=k, s=s, nu=k - s, seed=1)
    assert run_round(scenario, eps=eps).passed
    round_plan = RoundPlan(eps, scenario.params())
    assert round_plan.beta.tolist() == [plan.beta] == [4]
    assert round_plan.m_j.tolist() == [len(entries) for entries in round_plan.schedules]


def test_malformed_erasure_inputs_raise_configuration_error():
    with pytest.raises(ConfigurationError, match="row 1 has weight 2, expected at most 1"):
        validate(np.array([[0, 0, 1], [1, 1, 0]]), 2, 3, 1)
    with pytest.raises(ConfigurationError, match="row 0 has entries other than 0 and 1"):
        validate(np.array([[2, 0, 0]]), 1, 3, 1)
    with pytest.raises(ConfigurationError, match=re.escape("row 1: helper index 3 out of range [0, 3)")):
        from_erased_sets([[0], [3]], 3)
    # a bool would index the whole row, a float no entry
    for j in (True, 1.5):
        with pytest.raises(ConfigurationError, match=f"row 0: helper index {j!r} is not an integer"):
            from_erased_sets([[j]], 3)
    with pytest.raises(ConfigurationError, match="more than s=1"):
        plan_layer(0, (0, 1, 2), np.array([[1, 1, 0]]), 1)
    with pytest.raises(ConfigurationError, match=re.escape("shape (2, 3) mismatch: expected (n_e, n_h)")):
        RoundPlan(np.zeros((2, 3), dtype=np.uint8), SchemeParams(p=24, n_e=2, n_h=4, s=1, nu=2))


def every_row(n_h: int, s: int) -> np.ndarray:
    """Every 0/1 row of n_h entries and weight at most s, as one matrix."""
    return from_erased_sets(
        [list(c) for w in range(s + 1) for c in combinations(range(n_h), w)], n_h
    )


def per_layer_ids(eps, params) -> np.ndarray:
    return np.stack(
        [plan_layer(layer, h, eps, params.s).cover for layer, h in enumerate(params.layer_map)],
        axis=1,
    )


def test_one_call_cover_ids_equal_per_layer_plans_on_every_row(monkeypatch):
    """A cover id depends on one row alone, so every row of weight <= s
    covers every matrix: for every (n_h, s, nu) with n_h <= 8, the ids
    of one cover_ids call, and of calls sliced two layers at a time,
    equal one plan_layer call per layer."""
    default = aggregate.COUNT_CELLS
    for n_h in range(2, 9):
        for s in range(1, n_h):
            eps = every_row(n_h, s)
            for nu in range(1, n_h - s + 1):
                params = SchemeParams(p=comb(n_h, nu + s) * nu, n_e=len(eps), n_h=n_h, s=s, nu=nu)
                want = per_layer_ids(eps, params)
                for cells in (default, 2 * len(eps) * (nu + s) + 1):
                    monkeypatch.setattr(aggregate, "COUNT_CELLS", cells)
                    got = aggregate.cover_ids(eps, params)
                    assert got.shape == (len(eps), params.layers)
                    assert np.array_equal(got, want), (n_h, s, nu, cells)


@pytest.mark.parametrize("k", [aggregate.TABLE_SLOTS, aggregate.TABLE_SLOTS + 1])
@pytest.mark.parametrize("s", [1, 3])
def test_one_call_cover_ids_equal_per_layer_plans_beside_table_slots(k, s, monkeypatch):
    # 14 helpers: 91 layers of 12 slots read a table, 14 of 13 rank
    eps = every_row(14, s)
    params = SchemeParams(p=comb(14, k) * (k - s), n_e=len(eps), n_h=14, s=s, nu=k - s)
    want = per_layer_ids(eps, params)
    assert np.array_equal(aggregate.cover_ids(eps, params), want)
    monkeypatch.setattr(aggregate, "COUNT_CELLS", 4 * len(eps) * k)
    assert np.array_equal(aggregate.cover_ids(eps, params), want)


@pytest.mark.parametrize("strict", [True, False])
def test_lazy_layer_plans_equal_plans_of_each_layer(strict):
    params = SchemeParams(p=120, n_e=9, n_h=6, s=2, nu=2)
    rng = np.random.default_rng(4)
    if strict:
        eps = sample_uniform(params.n_e, params.n_h, params.s, rng)
    else:
        weights = rng.integers(0, params.s + 1, size=params.n_e)
        eps = from_erased_sets(
            [rng.choice(params.n_h, w, replace=False).tolist() for w in weights], params.n_h
        )
        assert set(weights.tolist()) == {0, 1, 2}
    plan = RoundPlan(eps, params)
    assert len(plan.layer_plans) == params.layers
    for layer, (lazy, helpers) in enumerate(zip(plan.layer_plans, params.layer_map)):
        eager = plan_layer(layer, helpers, eps, params.s)
        assert views(lazy) == views(eager)
        assert lazy.beta == eager.beta == plan.beta[layer]
        assert np.array_equal(lazy.footprints, eager.footprints)
        assert np.array_equal(lazy.cover, plan.cover[:, layer])


def test_cover_table_is_shared_per_shape_and_not_built_at_import():
    src = str(Path(layeragg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import numpy as np, layeragg; "
        "from layeragg import aggregate as a; "
        "from layeragg.client import SchemeParams; "
        "print(a._cover_table.cache_info().currsize); "
        # 15 and then 5 layers, all with nu+s = 4 and s = 2
        "a.RoundPlan(np.zeros((3, 6), np.uint8), SchemeParams(p=40, n_e=3, n_h=6, s=2, nu=2)); "
        "a.RoundPlan(np.zeros((3, 5), np.uint8), SchemeParams(p=40, n_e=3, n_h=5, s=2, nu=2)); "
        "info = a._cover_table.cache_info(); "
        "print(info.currsize, info.misses, info.hits)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    # one table, read once by each plan for all its layers
    assert out.stdout.split() == ["0", "1", "1", "1"]


def test_plan_collapses_without_relevant_erasures():
    zero = np.zeros((5, 4), dtype=np.uint8)
    plan = plan_layer(0, (0, 1, 2), zero, 1)
    assert plan.classes == ((0, 1, 2, 3, 4),)
    assert plan.images == ((0,),)
    assert plan.beta == 1

    # erasures all outside the layer behave like no erasures
    outside = np.zeros((3, 4), dtype=np.uint8)
    outside[:, 3] = 1
    plan2 = plan_layer(0, (0, 1, 2), outside, 1)
    assert plan2.beta == 1 and plan2.images == ((0,),)


def test_plan_is_deterministic(gf8):
    _, _, eps = seven_edge_setup(gf8)
    a = plan_layer(0, (0, 1, 2, 3), eps, 2)
    b = plan_layer(0, (0, 1, 2, 3), eps, 2)
    assert np.array_equal(a.cover, b.cover)
    assert views(a) == views(b)
    # the views are read off cover once, so the plan does not rebind it
    with pytest.raises(FrozenInstanceError):
        a.cover = b.cover[::-1]


def test_groups_partition_all_edges(gf8):
    params, _, eps = seven_edge_setup(gf8)
    for plan in RoundPlan(eps, params).layer_plans:
        merged = sorted(i for group in plan.groups for i in group)
        assert merged == list(range(7))


def test_helper_emission_matches_seven_edge_example(gf8):
    params, code, eps = seven_edge_setup(gf8)
    rng = np.random.default_rng(1)
    grads = [random_gradient(rng, gf8, params.p) for _ in range(7)]
    arrays = [encode_client(g, params, code) for g in grads]
    received = {i: arrays[i].column(0) for i in range(7) if not eps[i, 0]}
    plan = RoundPlan(eps, params)
    msg = aggregate_helper(0, received, plan, gf8)

    # the layer on helpers {0,1,2,3} is layer 0; helper 0 emits exactly one
    # entry for it: the sum of edges 3 and 4 (the group covered by {2,3})
    schedule = plan.schedules[0]
    layer0_entries = [idx for idx, (layer, _) in enumerate(schedule) if layer == 0]
    assert len(layer0_entries) == 1
    want = arrays[3].fragments[0, 0] ^ arrays[4].fragments[0, 0]
    assert np.array_equal(msg.entries[layer0_entries[0]], want)


def test_zero_gradients_aggregate_to_zero(gf8):
    params, code, eps = seven_edge_setup(gf8)
    zero = np.zeros(params.p, dtype=np.uint8)
    arrays = [encode_client(zero, params, code) for _ in range(7)]
    received = {i: arrays[i].column(2) for i in range(7) if not eps[i, 2]}
    msg = aggregate_helper(2, received, RoundPlan(eps, params), gf8)
    assert len(msg) > 0
    assert not msg.entries.any()


def test_single_edge_entries_are_raw_symbols(gf8):
    params = SchemeParams(p=12, n_e=1, n_h=4, s=1, nu=1)
    layers = LayerMap(4, 2)
    code = make_generator(gf8, 1, 1)
    eps = np.zeros((1, 4), dtype=np.uint8)
    g = random_gradient(np.random.default_rng(3), gf8, 12)
    arr = encode_client(g, params, code)
    received = {0: arr.column(1)}
    plan = RoundPlan(eps, params)
    msg = aggregate_helper(1, received, plan, gf8)
    for idx, (layer, _) in enumerate(plan.schedules[1]):
        row = layers.column_layers(1).index(layer)
        assert np.array_equal(msg.entries[idx], arr.column(1)[row])


def test_message_count_matches_brute_force_recount(gf8):
    # every erasure matrix of the smallest system, recounted via aggregation
    params = SchemeParams(p=6, n_e=2, n_h=3, s=1, nu=1)
    code = make_generator(gf8, 1, 1)
    rng = np.random.default_rng(5)
    grads = [random_gradient(rng, gf8, 6) for _ in range(2)]
    arrays = [encode_client(g, params, code) for g in grads]
    for eps in enumerate_all(2, 3, 1):
        plan = RoundPlan(eps, params)
        for j in range(3):
            received = {i: arrays[i].column(j) for i in range(2) if not eps[i, j]}
            msg = aggregate_helper(j, received, plan, gf8)
            assert len(msg) == len(plan.schedules[j])


def test_double_count_identity_random(gf8):
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        eps = sample_uniform(7, 6, 2, rng)
        plan = RoundPlan(eps, params)
        total = sum(len(schedule) for schedule in plan.schedules)
        assert total == params.nu * sum(lp.beta for lp in plan.layer_plans)


def test_each_group_is_emitted_by_exactly_nu_helpers(gf8):
    params, _, eps = seven_edge_setup(gf8)
    plan = RoundPlan(eps, params)
    emitted: dict[tuple[int, int], int] = {}
    for schedule in plan.schedules:
        for pair in schedule:
            emitted[pair] = emitted.get(pair, 0) + 1
    for lp in plan.layer_plans:
        for a in range(lp.beta):
            assert emitted[(lp.layer, a)] == params.nu


def test_availability_invariant(gf8):
    params, _, _ = seven_edge_setup(gf8)
    rng = np.random.default_rng(8)
    for _ in range(25):
        eps = sample_uniform(7, 6, 2, rng)
        for plan in RoundPlan(eps, params).layer_plans:
            for cover, group in zip(plan.images, plan.groups):
                for j in plan.helpers:
                    if j not in cover:
                        assert not any(eps[i, j] for i in group)


def test_aggregate_detects_missing_column(gf8):
    params, code, eps = seven_edge_setup(gf8)
    g = np.zeros(params.p, dtype=np.uint8)
    arrays = [encode_client(g, params, code) for _ in range(7)]
    received = {i: arrays[i].column(0) for i in range(7) if not eps[i, 0]}
    received.pop(3)  # edge 3's link to helper 0 survived but the column is gone
    with pytest.raises(ProtocolError):
        aggregate_helper(0, received, RoundPlan(eps, params), gf8)


@pytest.mark.parametrize(
    "shape",
    [lambda b, d: (b, 1), lambda b, d: (b,), lambda b, d: (b + 3, d), lambda b, d: (b, d, 1)],
    ids=["one-symbol", "flat", "three-rows-long", "three-axes"],
)
def test_aggregate_rejects_a_column_of_the_wrong_shape(gf8, shape):
    params, code, eps = seven_edge_setup(gf8)
    g = np.zeros(params.p, dtype=np.uint8)
    received = {i: encode_client(g, params, code).column(0) for i in range(7) if not eps[i, 0]}
    bad = shape(params.b, params.d)
    received[3] = np.zeros(bad, dtype=np.uint8)
    message = f"helper 0 got a column of shape {bad} from edge 3, expected ({params.b}, {params.d})"
    with pytest.raises(ProtocolError, match=re.escape(message)):
        aggregate_helper(0, received, RoundPlan(eps, params), gf8)


@pytest.mark.parametrize("key", [7, 99, -1, "x", 2.5, None])
def test_aggregate_rejects_a_column_from_a_key_that_is_not_an_edge(gf8, key):
    # n_e = 7, so 7 and 99 are past the last edge, and -1 would wrap around
    params, code, eps = seven_edge_setup(gf8)
    g = random_gradient(np.random.default_rng(4), gf8, params.p)
    received = {i: encode_client(g, params, code).column(0) for i in range(7) if not eps[i, 0]}
    plan = RoundPlan(eps, params)
    want = aggregate_helper(0, received, plan, gf8).entries
    numpy_keys = {np.int64(i): column for i, column in received.items()}
    assert aggregate_helper(0, numpy_keys, plan, gf8).entries.tobytes() == want.tobytes()
    received[key] = received[2]
    message = f"helper 0 got a column from {key!r}, not an edge of the round"
    with pytest.raises(ProtocolError, match=re.escape(message)):
        aggregate_helper(0, received, plan, gf8)


@pytest.mark.parametrize("j", [-1, -6, 6, 99, True, 2.5, "x", None])
@pytest.mark.parametrize("path", ["group sums", "mapping"])
def test_aggregate_rejects_an_index_that_is_not_a_helper(gf8, path, j):
    # n_h = 6, so -1 would emit helper 5's rows and -6 read helper 0's cells
    params, code, eps = seven_edge_setup(gf8)
    plan = RoundPlan(eps, params)
    received = GroupSums(plan, gf8) if path == "group sums" else {}
    message = f"aggregate_helper got {j!r}, not a helper of the round"
    with pytest.raises(ProtocolError, match=re.escape(message)):
        aggregate_helper(j, received, plan, gf8)


@pytest.mark.parametrize(
    "column",
    [lambda col: col.astype(np.int64) + 256, lambda col: col + 0.5],
    ids=["int64-plus-256", "float-plus-half"],
)
def test_aggregate_rejects_a_column_of_another_dtype(gf8, column):
    # both columns truncate back to the true uint8 entries, so only the
    # dtype tells them apart from a valid column
    params, code, eps = seven_edge_setup(gf8)
    g = random_gradient(np.random.default_rng(5), gf8, params.p)
    received = {i: encode_client(g, params, code).column(0) for i in range(7) if not eps[i, 0]}
    received[3] = column(received[3])
    assert np.array_equal(received[3].astype(np.uint8), received[2])
    dtype = received[3].dtype
    message = f"helper 0 got a column of dtype {dtype} from edge 3, expected uint8"
    with pytest.raises(ProtocolError, match=re.escape(message)):
        aggregate_helper(0, received, RoundPlan(eps, params), gf8)


@pytest.mark.parametrize("kind", ["strict", "lax"])
def test_feeds_marks_each_cover_and_feeds_every_message_row(kind):
    params = SchemeParams(p=97, n_e=9, n_h=6, s=2, nu=2)
    L, rng = params.layers, np.random.default_rng(17)
    for _ in range(5):
        draw = sample_uniform if kind == "strict" else lax_matrix
        eps = draw(params.n_e, params.n_h, params.s, rng)
        plan = RoundPlan(eps, params)
        feeds = plan.feeds
        assert feeds.shape == (params.n_e, (params.nu + params.s) * L)
        # -1 exactly on each edge's cover, which holds every erased link
        for layer, helpers in enumerate(params.layer_map):
            for i in range(params.n_e):
                cover = lexmin_cover(helpers, [h for h in helpers if eps[i, h]], params.s)
                for t, h in enumerate(helpers):
                    assert (feeds[i, t * L + layer] == -1) == (h in cover), (i, layer, t)
        rows = int(plan.m_j.sum())
        assert np.array_equal(np.unique(feeds[feeds >= 0]), np.arange(rows))
        offsets = np.cumsum(plan.m_j) - plan.m_j
        for j, schedule in enumerate(plan.schedules):
            for k, (layer, a) in enumerate(schedule):
                fed = np.flatnonzero((feeds == offsets[j] + k).any(axis=1))
                assert tuple(fed.tolist()) == plan.layer_plans[layer].groups[a]


def test_round_plan_takes_a_list_and_rejects_entries_other_than_0_and_1():
    params = SchemeParams(p=24, n_e=2, n_h=4, s=1, nu=2)
    rows = [[0, 1, 0, 0], [1, 0, 0, 0]]
    plan = RoundPlan(rows, params)
    assert np.array_equal(plan.cover, RoundPlan(np.array(rows), params).cover)
    assert isinstance(plan.eps, np.ndarray)
    for bad in ([[0, -1, 0, 0], [1, 0, 0, 0]], [[0, 0.5, 0, 0], [1, 0, 0, 0]]):
        with pytest.raises(ConfigurationError, match="row 0 has entries other than 0 and 1"):
            RoundPlan(np.array(bad), params)


@pytest.mark.parametrize("shape", [(3, 4), (2, 5), (2, 3), (8,), (2, 4, 1)])
def test_round_plan_rejects_a_matrix_of_the_wrong_shape(shape):
    params = SchemeParams(p=24, n_e=2, n_h=4, s=1, nu=2)
    needle = f"erasure matrix shape {shape} mismatch: expected (n_e, n_h) = (2, 4)"
    with pytest.raises(ConfigurationError, match=re.escape(needle)):
        RoundPlan(np.zeros(shape, dtype=np.uint8), params)


@pytest.mark.parametrize(
    "eps",
    [
        np.zeros((2, 3), dtype=np.uint8),
        np.zeros(4, dtype=np.uint8),
        np.zeros((2, 4, 1), dtype=np.uint8),
        [[0, 0, 0, 0], [0, 2, 0, 0]],
        [[0, 0, 0, 0], [1, 1, 0, 0]],
    ],
    ids=["2-D", "1-D", "3-D", "entry 2", "heavy row"],
)
def test_each_erasure_matrix_fault_reads_the_same_from_every_entry_point(eps):
    scenario = Scenario(p=24, n_e=2, n_h=4, s=1, nu=2)
    with pytest.raises(ConfigurationError) as checked:
        validate(eps, 2, 4, 1)
    with pytest.raises(ConfigurationError) as planned:
        RoundPlan(eps, scenario.params())
    with pytest.raises(sim.StageFailure) as failed:
        run_round(scenario, eps=eps)
    assert failed.value.stage == "validate"
    assert str(planned.value) == str(checked.value)
    assert str(failed.value) == f"validate: {checked.value}"


def test_reading_every_table_of_a_round_plan_groups_once(monkeypatch, gf8):
    """Three sorts build every table: each layer's ids for the groups, the
    emitting cells by helper for the message rows, the groups by cover id
    for the decode patterns. beta and m_j come from one count_groups call,
    and no table runs np.unique."""
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(aggregate, "count_groups", counted("count_groups", aggregate.count_groups))
    monkeypatch.setattr(np, "argsort", counted("argsort", np.argsort))
    monkeypatch.setattr(np, "unique", counted("unique", np.unique))
    params, _, eps = seven_edge_setup(gf8)
    plan = RoundPlan(eps, params)
    for table in ("feeds", "decode_patterns", "m_j", "beta", "emitters", "group_of", "schedules"):
        getattr(plan, table)
    assert sorted(calls) == ["argsort"] * 3 + ["count_groups"]
    assert plan.beta.tolist() == [lp.beta for lp in plan.layer_plans]
    assert plan.m_j.tolist() == [len(entries) for entries in plan.schedules]


def test_counts_that_disagree_with_the_emitters_table_raise(monkeypatch, gf8):
    """count_groups and the emitters table count each helper's entries by
    two rules; the message-row table is built only where they agree, so
    the folds' clipped gathers stay inside the rows."""
    params, _, eps = seven_edge_setup(gf8)
    emitted = int(RoundPlan(eps, params).m_j[0])
    count_groups = aggregate.count_groups

    def miscounted(cover, params):
        counts = count_groups(cover, params)
        counts.m_j[:, 0] += 1
        return counts

    monkeypatch.setattr(aggregate, "count_groups", miscounted)
    message = (
        f"plan emission count broken: helper 0 emits {emitted} entries, "
        f"count_groups counts m_j = {emitted + 1}"
    )
    with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
        RoundPlan(eps, params).feeds
    scenario = Scenario(p=120, n_e=7, n_h=6, s=2, nu=2)
    with pytest.raises(sim.StageFailure) as failed:
        run_round(scenario, eps=eps)
    assert isinstance(failed.value.__cause__, ProtocolError)
    assert str(failed.value) == f"deliver: {message}"


def reference_aggregate(j, received, plan, field):
    """The per-entry fold: one xor_sum per emitted entry, in schedule order."""
    eps, layers = plan.eps, plan.params.layer_map
    row_of = {layer: row for row, layer in enumerate(layers.column_layers(j))}
    entries = []
    for layer, a in plan.schedules[j]:
        rows = []
        for i in plan.layer_plans[layer].groups[a]:
            if eps[i, j] or i not in received:
                raise ProtocolError(
                    f"helper {j} needs the layer-{layer} symbol of edge {i} "
                    f"but that link is erased"
                )
            rows.append(received[i][row_of[layer]])
        entries.append(field.xor_sum(np.stack(rows)))
    if entries:
        stacked = np.stack(entries)
    else:
        stacked = np.zeros((0, plan.params.d), dtype=field.dtype)
    return AggregatedMessage(helper=j, entries=stacked)


def lax_matrix(n_e, n_h, s, rng):
    eps = np.zeros((n_e, n_h), dtype=np.uint8)
    for i in range(n_e):
        eps[i, rng.choice(n_h, size=rng.integers(0, s + 1), replace=False)] = 1
    return eps


def assert_fold_matches_reference(params, eps, field, rng):
    """Each helper's message off its columns equals the per-entry fold, and
    the group sums folded off whole codewords equal those off every
    helper's columns."""
    code = make_generator(field, params.nu, params.s)
    arrays = [
        encode_client(random_gradient(rng, field, params.p), params, code)
        for _ in range(params.n_e)
    ]
    plan = RoundPlan(eps, params)
    by_codeword, by_column = GroupSums(plan, field), GroupSums(plan, field)
    for i, array in enumerate(arrays):
        by_codeword.fold(i, array.codeword)
    for j in range(params.n_h):
        received = {i: arrays[i].column(j) for i in range(params.n_e) if not eps[i, j]}
        for i, column in received.items():
            by_column.fold(i, column, helper=j)
        got = aggregate_helper(j, received, plan, field).entries
        want = reference_aggregate(j, received, plan, field).entries
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (j, eps.tolist())
    assert by_codeword.rows.tobytes() == by_column.rows.tobytes(), eps.tolist()


@pytest.mark.parametrize("m", [4, 8, 16])
def test_fold_equals_per_entry_reference_on_random_matrices(m):
    field = GF(m)
    rng = np.random.default_rng(m)
    for n_e, n_h, s, nu in [(7, 6, 2, 2), (9, 5, 2, 1), (12, 5, 1, 3), (1, 4, 1, 2)]:
        params = SchemeParams(p=97, n_e=n_e, n_h=n_h, s=s, nu=nu)
        for _ in range(4):
            assert_fold_matches_reference(params, sample_uniform(n_e, n_h, s, rng), field, rng)
            assert_fold_matches_reference(params, lax_matrix(n_e, n_h, s, rng), field, rng)


def test_fold_equals_per_entry_reference_on_every_small_matrix(gf8):
    rng = np.random.default_rng(9)
    for s, nu in [(1, 2), (2, 1)]:
        params = SchemeParams(p=30, n_e=3, n_h=4, s=s, nu=nu)
        for eps in enumerate_all(3, 4, s):
            assert_fold_matches_reference(params, eps, gf8, rng)


@pytest.mark.parametrize("cells", [1, 3])
def test_folds_in_slices_of_one_or_three_cells_equal_the_reference(monkeypatch, cells):
    # every other shape's fed cells fit in one slice of FOLD_BYTES; slices
    # of one or three cells split each codeword's fold into several
    def slice_cells(params, field):
        monkeypatch.setattr(aggregate, "FOLD_BYTES", cells * params.d * field.element_bytes)
        sums = GroupSums(RoundPlan(np.zeros((params.n_e, params.n_h)), params), field)
        assert sums._step == cells < params.nu * params.layers

    lax_rows = every_row(4, 1)
    for m in (4, 8, 16):
        field, rng = GF(m), np.random.default_rng(m)
        for s, nu in [(1, 2), (2, 1)]:
            params = SchemeParams(p=30, n_e=3, n_h=4, s=s, nu=nu)
            slice_cells(params, field)
            matrices = enumerate_all(3, 4, s)
            if s == 1:  # every lax matrix: rows of one erasure or none
                matrices = (lax_rows[list(c)] for c in product(range(len(lax_rows)), repeat=3))
            for eps in matrices:
                assert_fold_matches_reference(params, eps, field, rng)
        scenario = Scenario(p=600, n_e=9, n_h=6, s=2, nu=2, field_bits=m, seed=cells)
        slice_cells(scenario.params(), field)
        assert run_round(scenario, eps=lax_matrix(9, 6, 2, rng)).passed


@pytest.mark.parametrize("m", [4, 8, 16])
def test_rounds_encoded_in_batches_of_any_size_give_the_same_sums_and_decode(monkeypatch, m):
    # batches of 1, 2 and 3 edges (a remainder of one) and of all 7; L*d =
    # 15*7 is odd, so at m <= 8 each edge's last symbol shares a 16-bit
    # unit with the next edge's first in a batch's rows
    field, rng = GF(m), np.random.default_rng(40 + m)
    params = SchemeParams(p=200, n_e=7, n_h=6, s=2, nu=2)
    codeword_bytes = (params.nu + params.s) * params.layers * params.d * field.element_bytes
    assert params.layers * params.d % 2
    emit = aggregate.aggregate_helper
    for eps in (sample_uniform(7, 6, 2, rng), lax_matrix(7, 6, 2, rng)):
        scenario = Scenario(
            p=params.p, n_e=params.n_e, n_h=params.n_h, s=params.s, nu=params.nu,
            field_bits=m, seed=int(rng.integers(1 << 16)),
        )
        seen = []
        for edges in (1, 2, 3, params.n_e):
            monkeypatch.setattr(client, "ENCODE_BYTES", edges * codeword_bytes)
            assert edges_per_batch(params, field) == edges
            sums = []

            def recording_emit(j, received, plan, fld):
                if not sums:
                    sums.append(received.rows.copy())
                return emit(j, received, plan, fld)

            monkeypatch.setattr(aggregate, "aggregate_helper", recording_emit)
            result = run_round(scenario, eps=eps)
            assert result.passed
            seen.append((sums[0], result.hm_symbols, result.decoded))
        rows, hm_symbols, decoded = seen[0]
        for got in seen[1:]:
            assert np.array_equal(got[0], rows) and got[1] == hm_symbols
            assert np.array_equal(got[2], decoded)


def test_fold_of_a_helper_with_an_empty_schedule(gf8):
    # the only edge erases helper 0, so every cover holds it
    params = SchemeParams(p=12, n_e=1, n_h=4, s=1, nu=2)
    eps = np.array([[1, 0, 0, 0]], dtype=np.uint8)
    assert RoundPlan(eps, params).schedules[0] == ()
    assert_fold_matches_reference(params, eps, gf8, np.random.default_rng(2))
    msg = aggregate_helper(0, {}, RoundPlan(eps, params), gf8)
    assert msg.entries.shape == (0, params.d)


def test_round_calls_xor_sum_once_per_slice_of_fed_cells(monkeypatch):
    # roundbench's tracer counts each xor_sum call from one positional
    # (rows, d) array, so the fold must keep that call shape. An edge feeds
    # nu of the nu+s slots of every layer, so every edge has fed cells, and
    # its fold sums its nu*L fed cells with the rows they feed, a slice of
    # at most FOLD_BYTES bytes of cells a call: here one slice an edge,
    # then slices of 7 cells
    calls = []
    xor_sum = GF.xor_sum

    def recording(self, *args, **kwargs):
        calls.append((args, kwargs))
        return xor_sum(self, *args, **kwargs)

    monkeypatch.setattr(GF, "xor_sum", recording)
    scenario = Scenario(p=600, n_e=16, n_h=6, s=2, nu=2, seed=5)
    params = scenario.params()
    cell_bytes = params.d * scenario.field().element_bytes
    fed = params.nu * params.layers
    for cells in (aggregate.FOLD_BYTES // cell_bytes, 7):
        monkeypatch.setattr(aggregate, "FOLD_BYTES", cells * cell_bytes)
        calls.clear()
        assert run_round(scenario).passed
        slices = -(-fed // cells)
        assert len(calls) == params.n_e * slices and slices == (1 if cells > fed else 5)
        columns = []
        for args, kwargs in calls:
            assert kwargs == {} and len(args) == 1 and np.ndim(args[0]) == 2
            rows, width = np.shape(args[0])
            assert rows == 2 and width % params.d == 0 and width <= cells * params.d
            columns.append(width)
        edges = np.reshape(columns, (params.n_e, slices)).sum(axis=1)
        assert edges.tolist() == [fed * params.d] * params.n_e


@pytest.mark.parametrize("kind", ["strict", "lax"])
def test_feeds_stay_in_the_message_rows_and_no_edge_feeds_a_row_twice(kind):
    # the folds gather with mode="clip" and scatter without accumulating,
    # which is right only on in-range rows that an edge feeds once
    rng = np.random.default_rng(23)
    draw = sample_uniform if kind == "strict" else lax_matrix
    for n_e, n_h, s, nu in [(7, 6, 2, 2), (9, 5, 2, 1), (12, 5, 1, 3), (1, 4, 1, 2), (20, 8, 2, 3)]:
        params = SchemeParams(p=97, n_e=n_e, n_h=n_h, s=s, nu=nu)
        for _ in range(4):
            plan = RoundPlan(draw(n_e, n_h, s, rng), params)
            feeds, rows = plan.feeds, int(plan.m_j.sum())
            assert feeds.min() >= -1 and feeds.max() < rows
            for edge in feeds:
                fed = edge[edge >= 0]
                assert len(fed) == nu * params.layers
                assert len(np.unique(fed)) == len(fed)


@pytest.mark.parametrize("n_h, most_edges", [(2, 3), (3, 3), (4, 3), (5, 2)])
def test_round_layout_equals_the_reference_on_every_small_matrix(n_h, most_edges):
    """Encode, fold and decode are linear, so a round's layout depends on
    its plan alone. On every strict and lax matrix of n_h helpers and at
    most most_edges edges, for every (s, nu), the schedules, decode
    patterns and feeds equal those of the reference layer plans."""
    for s in range(1, n_h):
        erased = [c for w in range(s + 1) for c in combinations(range(n_h), w)]
        rows = from_erased_sets(erased, n_h)
        for nu, n_e in product(range(1, n_h - s + 1), range(1, most_edges + 1)):
            params = SchemeParams(p=comb(n_h, nu + s) * nu, n_e=n_e, n_h=n_h, s=s, nu=nu)
            for chosen in product(range(len(rows)), repeat=n_e):
                eps = rows[list(chosen)]
                want = [
                    reference_plan_layer(layer, helpers, eps, s)
                    for layer, helpers in enumerate(params.layer_map)
                ]
                plan = RoundPlan(eps, params)
                schedules = reference_schedules(params, want)
                assert plan.schedules == schedules, eps.tolist()
                check_decode_patterns(params, plan, schedules)
                assert plan.feeds.tolist() == reference_feeds(params, want, schedules), eps.tolist()


def emitted_by_round(monkeypatch, scenario, eps):
    """Run a round and record, per helper, what its emission received and
    returned, and a copy of every codeword the round encoded."""
    codewords, emitted = [], {}
    encode, emit = sim.encode_client, aggregate.aggregate_helper

    def recording_encode(*args, **kwargs):
        arrays = encode(*args, **kwargs)
        codewords.extend(array.codeword.copy() for array in arrays)
        return arrays

    def recording_emit(j, received, plan, field):
        message = emit(j, received, plan, field)
        emitted[j] = (received, plan, message.entries.copy())
        return message

    monkeypatch.setattr(sim, "encode_client", recording_encode)
    monkeypatch.setattr(aggregate, "aggregate_helper", recording_emit)
    result = run_round(scenario, eps=eps)
    monkeypatch.undo()
    assert result.passed
    return codewords, emitted


@pytest.mark.parametrize("m", [4, 8, 16])
def test_round_group_sums_equal_the_reference_and_the_mapping_path(monkeypatch, m):
    field = GF(m)
    rng = np.random.default_rng(100 + m)
    cases = [
        # helper 0 lies in every cover, so its schedule is empty
        (SchemeParams(p=12, n_e=1, n_h=4, s=1, nu=2), np.array([[1, 0, 0, 0]])),
        # one edge without erasures: helper 0's column feeds nothing
        (SchemeParams(p=30, n_e=1, n_h=5, s=2, nu=1), np.zeros((1, 5), dtype=int)),
    ]
    for n_e, n_h, s, nu in [(7, 6, 2, 2), (9, 5, 2, 1), (12, 5, 1, 3)]:
        params = SchemeParams(p=97, n_e=n_e, n_h=n_h, s=s, nu=nu)
        cases += [(params, sample_uniform(n_e, n_h, s, rng)) for _ in range(2)]
        cases += [(params, lax_matrix(n_e, n_h, s, rng)) for _ in range(2)]
    empty = 0
    for params, eps in cases:
        scenario = Scenario(
            p=params.p, n_e=params.n_e, n_h=params.n_h, s=params.s, nu=params.nu,
            field_bits=m, seed=int(rng.integers(1 << 16)),
        )
        codewords, emitted = emitted_by_round(monkeypatch, scenario, eps)
        arrays = [CodewordArray(params, codeword) for codeword in codewords]
        assert sorted(emitted) == list(range(params.n_h))
        for j, (received, plan, entries) in emitted.items():
            assert isinstance(received, GroupSums) and received.plan is plan
            columns = {i: arrays[i].column(j) for i in range(params.n_e) if not eps[i, j]}
            want = reference_aggregate(j, columns, plan, field).entries
            mapped = aggregate_helper(j, columns, plan, field).entries
            assert entries.dtype == want.dtype == mapped.dtype
            assert entries.shape == want.shape == mapped.shape
            assert entries.tobytes() == want.tobytes() == mapped.tobytes(), (j, eps.tolist())
            empty += not len(entries)
    assert empty >= 2


def test_a_round_holds_one_codeword_not_one_per_edge():
    # one warm round's traced peak stays below the bytes of the n_e
    # codewords the round encodes; a round that held them all would not
    scenario = Scenario(p=1 << 18, n_e=20, n_h=8, s=2, nu=3, field_bits=8, seed=3)
    params = scenario.params()
    codeword = (params.nu + params.s) * params.layers * params.d
    assert run_round(scenario).passed
    tracemalloc.start()
    try:
        assert run_round(scenario, round_index=1).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.n_e * codeword, (peak, params.n_e * codeword)


def test_counting_a_cost_chunk_makes_no_wide_copy_of_its_cover_ids():
    # one 8-matrix chunk of the cost_mc shape (alpha = 15, uint16 presence
    # words); a sort of the ids, or a copy of them as wide words or intp
    # indices, would peak at several times their bytes
    params = SchemeParams(p=53760, n_e=50, n_h=10, s=2, nu=4)
    rng = np.random.default_rng(11)
    eps = np.concatenate([sample_uniform(params.n_e, params.n_h, params.s, rng) for _ in range(8)])
    cover = np.ascontiguousarray(aggregate.cover_ids(eps, params)).reshape(8, params.n_e, -1)
    assert cover.shape == (8, 50, 210)
    want = aggregate.count_groups(cover, params)  # warm: the slot masks and positions
    tracemalloc.start()
    try:
        counts = aggregate.count_groups(cover, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * cover.nbytes, (peak, cover.nbytes)
    assert np.array_equal(counts.beta, want.beta) and np.array_equal(counts.m_j, want.m_j)


def test_a_mapped_message_holds_only_its_own_rows():
    # the mapping path folds into a fresh GroupSums of every helper's rows
    # (1,479,828 bytes here); a view of j's rows would keep them all alive
    scenario = Scenario(p=1 << 18, n_e=20, n_h=8, s=2, nu=3, field_bits=8, seed=1)
    params, field = scenario.params(), scenario.field()
    rng = np.random.default_rng(1)
    eps = sample_uniform(params.n_e, params.n_h, params.s, rng)
    code = make_generator(field, params.nu, params.s)
    gradients = [random_gradient(rng, field, params.p) for _ in range(params.n_e)]
    arrays = [encode_client(g, params, code) for g in gradients]
    plan = RoundPlan(eps, params)
    messages = []
    for j in range(params.n_h):
        columns = {i: arrays[i].column(j) for i in range(params.n_e) if not eps[i, j]}
        message = aggregate_helper(j, columns, plan, field)
        assert message.entries.base is None and message.entries.flags.owndata
        assert message.entries.nbytes == int(plan.m_j[j]) * params.d * field.element_bytes
        messages.append(message)
    assert sum(m.entries.nbytes for m in messages) == int(plan.m_j.sum()) * params.d
    decoded = decode_global(messages, plan, code)
    assert np.array_equal(decoded, np.bitwise_xor.reduce(np.stack(gradients)))


def test_group_sums_reject_a_codeword_of_another_shape_or_dtype(gf8):
    params, code, eps = seven_edge_setup(gf8)
    plan = RoundPlan(eps, params)
    sums = GroupSums(plan, gf8)
    codeword = encode_client(np.zeros(120, dtype=np.uint8), params, code).codeword
    with pytest.raises(ProtocolError, match=r"edge 0 sent a codeword that is not a \(4, 60\) uint8 array"):
        sums.fold(0, codeword[:, 1:])
    with pytest.raises(ProtocolError, match="edge 0 sent a codeword that is not"):
        sums.fold(0, codeword.astype(np.uint16))
    with pytest.raises(ProtocolError, match="group sums of another round or field"):
        aggregate_helper(0, sums, RoundPlan(eps, params), gf8)
    with pytest.raises(ProtocolError, match="group sums of another round or field"):
        aggregate_helper(0, sums, plan, GF(16))
    # nothing folded yet: helper 0's first read names the gap
    with pytest.raises(ProtocolError, match="helper 0 needs the layer-"):
        aggregate_helper(0, sums, plan, gf8)


@pytest.mark.parametrize("i", [-1, 7, 99, True, 2.5, "x", None])
def test_group_sums_reject_an_index_that_is_not_an_edge(gf8, i):
    # n_e = 7, so -1 would fold into edge 6 and mark its links folded
    params, code, eps = seven_edge_setup(gf8)
    sums = GroupSums(RoundPlan(eps, params), gf8)
    codeword = encode_client(np.ones(120, dtype=np.uint8), params, code).codeword
    with pytest.raises(ProtocolError, match=re.escape(f"fold got {i!r}, not an edge of the round")):
        sums.fold(i, codeword)
    assert not sums.folded.any() and not sums.rows.any()


@pytest.mark.parametrize("helper", [-1, 6, 99, 2.0, True, "x"])
def test_fold_rejects_a_column_for_an_index_that_is_not_a_helper(gf8, helper):
    # n_h = 6, so -1 would fold the link to helper 5 and 6 index past the cells
    params, code, eps = seven_edge_setup(gf8)
    sums = GroupSums(RoundPlan(eps, params), gf8)
    column = encode_client(np.ones(120, dtype=np.uint8), params, code).column(0)
    with pytest.raises(ProtocolError, match=re.escape(f"fold got {helper!r}, not a helper of the round")):
        sums.fold(0, column, helper=helper)
    assert not sums.folded.any() and not sums.rows.any()


@pytest.mark.parametrize("dtype, shape", [(np.uint8, (3, 3)), (np.uint16, (10, 4))])
def test_fold_rejects_a_column_of_another_shape_or_dtype(gf8, dtype, shape):
    params, _, eps = seven_edge_setup(gf8)
    assert (params.b, params.d) == (10, 4)
    sums = GroupSums(RoundPlan(eps, params), gf8)
    what = f"shape {shape}" if dtype is np.uint8 else "dtype uint16"
    message = f"helper 1 got a column of {what} from edge 0, expected "
    with pytest.raises(ProtocolError, match=re.escape(message)):
        sums.fold(0, np.zeros(shape, dtype), helper=1)
    assert not sums.folded.any() and not sums.rows.any()


def test_fold_names_the_same_missing_symbol_as_the_reference(gf8):
    params = SchemeParams(p=120, n_e=9, n_h=6, s=2, nu=2)
    code = make_generator(gf8, 2, 2)
    rng = np.random.default_rng(11)
    arrays = [encode_client(random_gradient(rng, gf8, 120), params, code) for _ in range(9)]
    for _ in range(20):
        eps = sample_uniform(9, 6, 2, rng)
        plan = RoundPlan(eps, params)
        for j in range(6):
            received = {i: arrays[i].column(j) for i in range(9) if not eps[i, j]}
            for i in rng.choice(sorted(received), size=2, replace=False):
                del received[i]
            with pytest.raises(ProtocolError) as want:
                reference_aggregate(j, received, plan, gf8)
            with pytest.raises(ProtocolError) as got:
                aggregate_helper(j, received, plan, gf8)
            assert str(got.value) == str(want.value)
