"""Aggregation plan and helper emission tests, pinned to the seven-edge example."""

import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from reference_plan import reference_plan_layer, reference_schedules

import layeragg
from layeragg import aggregate
from layeragg.aggregate import (
    AggregatedMessage,
    RoundPlan,
    aggregate_helper,
    lexmin_cover,
    message_from_bytes,
    message_to_bytes,
    plan_layer,
)
from layeragg.client import LayerMap, SchemeParams, encode_client, random_gradient
from layeragg.erasure import enumerate_all, from_erased_sets, sample_uniform
from layeragg.errors import ProtocolError
from layeragg.gf import GF
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
        assert plan.layer_plans[layer] == reference_plan_layer(layer, helpers, eps, params.s)
    assert plan.schedules == reference_schedules(params, plan.layer_plans)


def test_plan_rejects_a_footprint_heavier_than_s():
    # edge 0 erases three of layer 0's helpers {0, 1, 2, 3}, and s = 2
    eps = np.array([[1, 1, 1, 0], [0, 0, 0, 0]], dtype=np.uint8)
    params = SchemeParams(p=24, n_e=2, n_h=4, s=2, nu=2)
    with pytest.raises(ValueError, match=r"layer 0: edge 0 erases helpers \[0, 1, 2\]"):
        RoundPlan(eps, params)
    # a heavy footprint behind lighter edges names its own edge
    eps = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0]], dtype=np.uint8)
    with pytest.raises(ValueError, match=r"layer 2: edge 2 erases helpers \[0, 1\] of \(0, 1, 3\), more than s=1"):
        plan_layer(2, (0, 1, 3), eps, 1)


def test_plan_counts_any_nonzero_entry_as_erased():
    # a stray 2 is one erasure of its own helper, not a carry into the next slot
    eps = np.array([[2, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint8)
    plan = plan_layer(0, (0, 1, 2), eps, 1)
    assert plan == reference_plan_layer(0, (0, 1, 2), eps, 1)
    assert plan.phi == ((0,), (1,))


@pytest.mark.parametrize("k", [63, 64, 66])
def test_plan_of_a_layer_wider_than_a_machine_word(k):
    eps = np.zeros((4, k), dtype=np.uint8)
    eps[0, k - 1] = eps[1, k - 2] = eps[2, 0] = 1
    helpers = tuple(range(k))
    plan = plan_layer(0, helpers, eps, 1)
    assert plan == reference_plan_layer(0, helpers, eps, 1)
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
        "print(info.currsize, info.misses, info.hits, len(a._cover_table(4, 2)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    # one table for all 20 layers, holding only the footprint it was asked for
    assert out.stdout.split() == ["0", "1", "1", "19", "1"]


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
    assert a == b


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


@pytest.mark.parametrize("shape", [(3, 4), (2, 5), (2, 3), (8,)])
def test_round_plan_rejects_a_matrix_of_the_wrong_shape(shape):
    params = SchemeParams(p=24, n_e=2, n_h=4, s=1, nu=2)
    with pytest.raises(ValueError, match=re.escape(f"shape {shape}, expected (n_e, n_h) = (2, 4)")):
        RoundPlan(np.zeros(shape, dtype=np.uint8), params)


def test_wire_format_round_trip_and_layout(gf8):
    entries = np.array([[0x12, 0x34], [0xAB, 0x00]], dtype=np.uint8)
    from layeragg.aggregate import AggregatedMessage

    msg = AggregatedMessage(helper=3, entries=entries)
    payload = message_to_bytes(msg, gf8)
    assert payload == bytes([0x12, 0x34, 0xAB, 0x00])
    back = message_from_bytes(3, payload, gf8, count=2, d=2)
    assert np.array_equal(back.entries, entries)

    f16 = GF(16)
    wide = AggregatedMessage(helper=0, entries=np.array([[0x0201]], dtype=np.uint16))
    assert message_to_bytes(wide, f16) == (0x0201).to_bytes(2, "little")

    with pytest.raises(ProtocolError):
        message_from_bytes(3, payload, gf8, count=3, d=2)


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
    code = make_generator(field, params.nu, params.s)
    arrays = [
        encode_client(random_gradient(rng, field, params.p), params, code)
        for _ in range(params.n_e)
    ]
    plan = RoundPlan(eps, params)
    for j in range(params.n_h):
        received = {i: arrays[i].column(j) for i in range(params.n_e) if not eps[i, j]}
        got = aggregate_helper(j, received, plan, field).entries
        want = reference_aggregate(j, received, plan, field).entries
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (j, eps.tolist())


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


def test_fold_of_a_helper_with_an_empty_schedule(gf8):
    # the only edge erases helper 0, so every cover holds it
    params = SchemeParams(p=12, n_e=1, n_h=4, s=1, nu=2)
    eps = np.array([[1, 0, 0, 0]], dtype=np.uint8)
    assert RoundPlan(eps, params).schedules[0] == ()
    assert_fold_matches_reference(params, eps, gf8, np.random.default_rng(2))
    msg = aggregate_helper(0, {}, RoundPlan(eps, params), gf8)
    assert msg.entries.shape == (0, params.d)


def test_fold_calls_xor_sum_once_per_group_size(monkeypatch):
    # roundbench's tracer counts each xor_sum call from one positional
    # (rows, d) array, so the fold must keep that call shape
    calls = []
    helper = []
    xor_sum, aggregate_helper_ = GF.xor_sum, aggregate.aggregate_helper

    def recording(self, *args, **kwargs):
        calls.append((helper[-1], args, kwargs))
        return xor_sum(self, *args, **kwargs)

    def tagged(j, *args):
        helper.append(j)
        return aggregate_helper_(j, *args)

    monkeypatch.setattr(GF, "xor_sum", recording)
    monkeypatch.setattr(aggregate, "aggregate_helper", tagged)
    scenario = Scenario(p=600, n_e=16, n_h=6, s=2, nu=2, seed=5)
    result = run_round(scenario)
    assert result.passed
    params = scenario.params()
    plan = RoundPlan(result.eps, params)
    for _, args, kwargs in calls:
        assert kwargs == {} and len(args) == 1 and np.ndim(args[0]) == 2
    for j, schedule in enumerate(plan.schedules):
        sizes = [len(plan.layer_plans[layer].groups[a]) for layer, a in schedule]
        shapes = [np.shape(args[0]) for h, args, _ in calls if h == j]
        assert len(shapes) == len(set(sizes))
        assert sum((r - 1) * cols for r, cols in shapes) == sum(
            (r - 1) * params.d for r in sizes
        )
    assert len(calls) < sum(len(schedule) for schedule in plan.schedules)


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
