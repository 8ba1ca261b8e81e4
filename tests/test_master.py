"""Master decode and cost accounting tests; oracle is direct gradient summation."""

import json
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from reference_plan import lexmin_cover

from layeragg import aggregate, gf, master
from layeragg.aggregate import AggregatedMessage, GroupSums, RoundPlan, aggregate_helper
from layeragg.client import SchemeParams, encode_client, random_gradient, reassemble_gradient
from layeragg.erasure import (
    enumerate_all,
    enumerate_row_sets,
    from_erased_sets,
    sample_uniform,
    worst_case_pattern,
)
from layeragg.errors import CapExceededError, ConfigurationError, ProtocolError
from layeragg.gf import GF
from layeragg.master import (
    cost_average,
    cost_realized,
    cost_worst_case,
    decode_global,
)
from layeragg.mds import decode_from, make_generator

SEVEN_EDGE_ROWS = [[4, 5], [4, 5], [3, 4], [2, 3], [2, 3], [0, 1], [0, 1]]


@pytest.fixture(scope="module")
def gf8():
    return GF(8)


def full_round(gf8, params, eps, gradients):
    plan = RoundPlan(eps, params)
    code = make_generator(gf8, params.nu, params.s)
    arrays = [encode_client(gradients[i], params, code) for i in range(params.n_e)]
    messages = []
    for j in range(params.n_h):
        received = {
            i: arrays[i].column(j) for i in range(params.n_e) if not eps[i, j]
        }
        messages.append(aggregate_helper(j, received, plan, gf8))
    return decode_global(messages, plan, code), messages, plan, code


def test_single_edge_no_erasures(gf8):
    params = SchemeParams(p=24, n_e=1, n_h=4, s=1, nu=2)
    g = random_gradient(np.random.default_rng(0), gf8, 24)
    eps = np.zeros((1, 4), dtype=np.uint8)
    decoded, *_ = full_round(gf8, params, eps, [g])
    assert np.array_equal(decoded, g)


def test_identical_gradients_cancel_in_characteristic_two(gf8):
    params = SchemeParams(p=24, n_e=4, n_h=4, s=1, nu=2)
    g = random_gradient(np.random.default_rng(1), gf8, 24)
    eps = sample_uniform(4, 4, 1, seed=2)
    decoded, *_ = full_round(gf8, params, eps, [g] * 4)
    assert not decoded.any()  # even count of the same vector sums to zero


def test_decode_matches_direct_sum_random(gf8):
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    rng = np.random.default_rng(3)
    for trial in range(10):
        grads = np.stack([random_gradient(rng, gf8, 120) for _ in range(7)])
        eps = sample_uniform(7, 6, 2, rng)
        decoded, *_ = full_round(gf8, params, eps, grads)
        assert np.array_equal(decoded, np.bitwise_xor.reduce(grads, axis=0))


def test_decode_with_the_seven_edge_matrix(gf8):
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    eps = from_erased_sets(SEVEN_EDGE_ROWS, 6)
    rng = np.random.default_rng(4)
    grads = np.stack([random_gradient(rng, gf8, 120) for _ in range(7)])
    decoded, *_ = full_round(gf8, params, eps, grads)
    assert np.array_equal(decoded, np.bitwise_xor.reduce(grads, axis=0))


def test_decode_with_padding(gf8):
    params = SchemeParams(p=115, n_e=3, n_h=5, s=2, nu=3)  # lam does not divide p
    rng = np.random.default_rng(5)
    grads = np.stack([random_gradient(rng, gf8, 115) for _ in range(3)])
    eps = sample_uniform(3, 5, 2, rng)
    decoded, *_ = full_round(gf8, params, eps, grads)
    assert decoded.shape == (115,)
    assert np.array_equal(decoded, np.bitwise_xor.reduce(grads, axis=0))


def test_decode_rejects_truncated_message(gf8):
    params = SchemeParams(p=24, n_e=2, n_h=4, s=1, nu=2)
    rng = np.random.default_rng(6)
    grads = np.stack([random_gradient(rng, gf8, 24) for _ in range(2)])
    eps = sample_uniform(2, 4, 1, rng)
    _, messages, plan, code = full_round(gf8, params, eps, grads)
    clipped = AggregatedMessage(
        helper=0, entries=messages[0].entries[:-1]
    )
    with pytest.raises(ProtocolError):
        decode_global([clipped] + messages[1:], plan, code)
    with pytest.raises(ProtocolError):
        decode_global(messages[:3], plan, code)
    # one symbol too wide: named as the helper's fault, not a numpy broadcast
    entries = messages[1].entries
    wide = AggregatedMessage(
        helper=1, entries=np.hstack([entries, entries[:, :1]])
    )
    with pytest.raises(ProtocolError, match="helper 1"):
        decode_global([messages[0], wide] + messages[2:], plan, code)


@pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.float64])
def test_decode_rejects_entries_of_another_dtype(gf8, dtype):
    # uint8 entries widened to another dtype would be cut back silently
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    rng = np.random.default_rng(3)
    grads = np.stack([random_gradient(rng, gf8, 120) for _ in range(7)])
    eps = sample_uniform(7, 6, 2, rng)
    _, messages, plan, code = full_round(gf8, params, eps, grads)
    widened = AggregatedMessage(helper=4, entries=messages[4].entries.astype(dtype))
    message = f"helper 4 sent entries of dtype {np.dtype(dtype)}, expected uint8"
    with pytest.raises(ProtocolError, match=re.escape(message)):
        decode_global(messages[:4] + [widened] + messages[5:], plan, code)


@pytest.mark.parametrize("nu, s", [(3, 1), (1, 3), (2, 3)])
def test_encode_and_decode_reject_a_code_of_another_shape(gf8, nu, s):
    # the plan is [4,2]: the first two codes used to fail inside a solve,
    # and the third decoded without complaint
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    rng = np.random.default_rng(3)
    grads = np.stack([random_gradient(rng, gf8, 120) for _ in range(7)])
    _, messages, plan, _ = full_round(gf8, params, sample_uniform(7, 6, 2, rng), grads)
    code = make_generator(gf8, nu, s)
    message = re.escape(f"code is [{nu + s},{nu}] but params want [4,2]")
    with pytest.raises(ConfigurationError, match=message):
        decode_global(messages, plan, code)
    with pytest.raises(ConfigurationError, match=message):
        encode_client(grads[0], params, code)


def test_decode_reads_the_group_sums_of_a_round_in_place(gf8):
    # many groups per layer, so the round's (sum m_j, d) rows outweigh the
    # gradient, the decode solves and their kernel buffers; a decode that
    # copied the rows would peak above them
    params = SchemeParams(p=1 << 19, n_e=40, n_h=8, s=2, nu=3)
    rng = np.random.default_rng(7)
    grads = np.stack([random_gradient(rng, gf8, params.p) for _ in range(params.n_e)])
    eps = sample_uniform(params.n_e, params.n_h, params.s, rng)
    plan = RoundPlan(eps, params)
    code = make_generator(gf8, params.nu, params.s)
    sums = GroupSums(plan, gf8)
    for i, g in enumerate(grads):
        sums.fold(i, encode_client(g, params, code).codeword)
    messages = [aggregate_helper(j, sums, plan, gf8) for j in range(params.n_h)]
    want = decode_global(messages, plan, code)  # warm: the plan's tables and the solves' kernel tables
    assert np.array_equal(want, np.bitwise_xor.reduce(grads, axis=0))
    tracemalloc.start()
    try:
        decoded = decode_global(messages, plan, code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < sums.rows.nbytes, (peak, sums.rows.nbytes)
    assert decoded.tobytes() == want.tobytes()
    copies = [AggregatedMessage(helper=m.helper, entries=m.entries.copy()) for m in messages]
    assert decode_global(copies, plan, code).tobytes() == want.tobytes()


def full_solve_decode(messages, plan, code):
    """decode_global by definition: each group's nu entries, placed by the
    messages' schedules, decoded alone by mds.decode_from's nu x nu solve
    and XORed into its layer's sum; and the r of every group, its emitters
    at parity slots."""
    params = plan.params
    groups = {}
    for msg, schedule in zip(messages, plan.schedules):
        for row, (layer, image) in zip(msg.entries, schedule):
            slot = plan.layer_plans[layer].helpers.index(msg.helper)
            groups.setdefault((layer, image), {})[slot] = row
    layer_sums = np.zeros((params.layers, params.nu, params.d), dtype=code.field.dtype)
    covered = set()
    for (layer, _), rows in groups.items():
        slots = sorted(rows)
        layer_sums[layer] ^= decode_from(code, slots, np.stack([rows[t] for t in slots]))
        covered.add(sum(t >= params.nu for t in slots))
    return reassemble_gradient(layer_sums, params), covered


@pytest.mark.parametrize(
    "m, nu, s, n_h",
    [(4, 2, 2, 6), (8, 3, 2, 8), (16, 4, 2, 10), (8, 1, 3, 5), (16, 3, 3, 7), (8, 2, 5, 8)],
    ids=["gf4", "gf8", "gf16", "nu-1", "r-to-3", "s-5-two-words"],
)
def test_systematic_decode_equals_a_full_solve_per_group(monkeypatch, m, nu, s, n_h):
    # every r from 0 to min(nu, s), rows of weight s, below s and 0, and
    # at s = 5 a re-encode of two coefficient words per received row, on
    # rows of odd length (d = 63) that take matmul_fixed's last-symbol path
    field, n_e = GF(m), 24
    params = SchemeParams(p=997, n_e=n_e, n_h=n_h, s=s, nu=nu)
    rng = np.random.default_rng(m * 100 + nu * 10 + s)
    eps = sample_uniform(n_e, n_h, s, rng)
    eps[:4] = 0
    for row in eps[4:10]:
        row[rng.choice(np.flatnonzero(row), size=rng.integers(1, s + 1), replace=False)] = 0
    # r = 0 in layer 0: a footprint of exactly its parity slots
    eps[10] = 0
    eps[10, params.layer_map.slot_helpers[0, nu:]] = 1
    plan = RoundPlan(eps, params)
    code = make_generator(field, nu, s)
    grads = np.stack([random_gradient(rng, field, params.p) for _ in range(n_e)])
    sums = GroupSums(plan, field)
    for i, g in enumerate(grads):
        sums.fold(i, encode_client(g, params, code).codeword)
    messages = [aggregate_helper(j, sums, plan, field) for j in range(n_h)]
    want, covered = full_solve_decode(messages, plan, code)
    assert covered == set(range(min(nu, s) + 1))
    assert np.array_equal(want, np.bitwise_xor.reduce(grads, axis=0))
    solves, invert = [], master.invert_matrix

    def counting(f, a):
        solves.append(np.shape(a))
        return invert(f, a)

    monkeypatch.setattr(master, "invert_matrix", counting)
    misses = gf._symbol_tables.cache_info().misses
    got = decode_global(messages, plan, code)
    # the re-encodes read only the tables the encodes built
    assert gf._symbol_tables.cache_info().misses == misses
    assert got.tobytes() == want.tobytes()
    # one r x r solve per pattern with r >= 1 of its slots at parities
    assert solves == [(r, r) for r in (sum(t >= nu for t in slots) for slots in plan.decode_patterns) if r]
    assert {r for r, _ in solves} == set(range(1, min(nu, s) + 1))


def test_decode_names_a_message_in_the_wrong_slot(gf8):
    # helpers 2 and 5 emit the same number of entries here, so only the
    # sender field tells the swap apart from a valid round
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    rng = np.random.default_rng(3)
    grads = np.stack([random_gradient(rng, gf8, 120) for _ in range(7)])
    eps = sample_uniform(7, 6, 2, rng)
    _, messages, plan, code = full_round(gf8, params, eps, grads)
    assert len(messages[2]) == len(messages[5])
    swapped = list(messages)
    swapped[2], swapped[5] = messages[5], messages[2]
    with pytest.raises(ProtocolError, match="slot 2 holds the message of helper 5"):
        decode_global(swapped, plan, code)


def test_cost_realized_identity_and_closed_form():
    # both counting routes agree for arbitrary matrices, and c_eh is closed form
    rng = np.random.default_rng(7)
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)

    for _ in range(20):
        eps = sample_uniform(7, 6, 2, rng)
        plan = RoundPlan(eps, params)
        report = cost_realized(plan)
        assert report.c_eh == Fraction(4, 2)
        m_total = sum(len(schedule) for schedule in plan.schedules)
        beta_total = sum(p.beta for p in plan.layer_plans)
        assert report.c_hm_realized == Fraction(params.d * m_total, params.p_padded)
        assert report.c_hm_realized == Fraction(beta_total, params.layers)


def test_cost_endpoints_ten_helpers():
    arc = SchemeParams(p=comb(10, 3), n_e=50, n_h=10, s=2, nu=1)
    eps = worst_case_pattern(50, 10, 2)
    assert cost_realized(RoundPlan(eps, arc)).c_eh == Fraction(3)  # s + 1
    amc = SchemeParams(p=comb(10, 10) * 8, n_e=50, n_h=10, s=2, nu=8)
    assert cost_realized(RoundPlan(eps, amc)).c_eh == Fraction(10, 8)  # n_h / (n_h - s)


@pytest.mark.parametrize("n_h", range(2, 9))
def test_cost_endpoints_are_arc_and_amc(n_h):
    """nu = 1 costs what repetition (ARC) costs and nu = n_h - s what one
    MDS codeword (AMC) costs, on both links, with every s-subset erased."""
    for s in range(1, n_h):
        n_e = comb(n_h, s)
        eps = worst_case_pattern(n_e, n_h, s)
        endpoints = {1: (Fraction(s + 1), s + 1), n_h - s: (Fraction(n_h, n_h - s), comb(n_h, s))}
        for nu, (c_eh, c_hm) in endpoints.items():
            params = SchemeParams(p=comb(n_h, nu + s) * nu, n_e=n_e, n_h=n_h, s=s, nu=nu)
            assert params.p == params.p_padded  # no padding
            report = cost_realized(RoundPlan(eps, params))
            assert report.c_eh == c_eh, (n_h, s, nu)
            assert report.c_hm_realized == c_hm, (n_h, s, nu)
            worst = cost_worst_case(params)
            assert worst.tight and worst.value == c_hm == worst.lower_bound, (n_h, s, nu)


def test_cost_report_padding_variants():
    params = SchemeParams(p=100, n_e=2, n_h=4, s=1, nu=2)  # padded to 104
    eps = np.zeros((2, 4), dtype=np.uint8)
    report = cost_realized(RoundPlan(eps, params))
    assert report.c_eh == Fraction(3, 2)
    assert report.c_eh_declared == Fraction(report.eh_symbols_per_edge, 100)
    assert report.c_eh_declared > report.c_eh
    d = report.to_dict()
    assert d["c_eh"] == {"num": 3, "den": 2, "float": 1.5}


def test_cost_report_optional_sections():
    params = SchemeParams(p=3, n_e=2, n_h=3, s=1, nu=1)
    eps = np.zeros((2, 3), dtype=np.uint8)
    worst = cost_worst_case(params, mode="theorem")
    assert worst.value == Fraction(2)
    # hand-enumerated: the three equal-pattern matrices cost 1 each, the six
    # distinct-pattern ones cost 4/3, 4/3, 5/3, 5/3, 2, 2; mean 13/9
    average = cost_average(params, mode="exhaustive")
    assert average.value == Fraction(13, 9)
    assert worst.to_dict()["value"]["num"] == 2
    assert average.to_dict()["value"] == {"num": 13, "den": 9, "float": 13 / 9}
    plain = cost_realized(RoundPlan(eps, params)).to_dict()
    assert "c_hm_worst" not in plain and "c_hm_avg" not in plain


# The JSON of each cost result, key order and float text included.
COST_JSON = {
    "theorem, tight": (
        lambda: cost_worst_case(SchemeParams(p=3, n_e=3, n_h=3, s=1, nu=1)),
        '{"value": {"num": 2, "den": 1, "float": 2.0}, "tight": true, '
        '"lower_bound": {"num": 2, "den": 1, "float": 2.0}, "mode": "theorem"}',
    ),
    "theorem, not tight": (
        lambda: cost_worst_case(SchemeParams(p=3, n_e=3, n_h=4, s=1, nu=2)),
        '{"value": {"num": 3, "den": 1, "float": 3.0}, "tight": false, '
        '"lower_bound": {"num": 9, "den": 4, "float": 2.25}, "mode": "theorem"}',
    ),
    "brute force": (
        lambda: cost_worst_case(SchemeParams(p=3, n_e=3, n_h=4, s=1, nu=2), mode="brute_force"),
        '{"value": {"num": 3, "den": 1, "float": 3.0}, "tight": true, '
        '"lower_bound": {"num": 3, "den": 1, "float": 3.0}, "mode": "brute_force"}',
    ),
    "exhaustive": (
        lambda: cost_average(SchemeParams(p=3, n_e=2, n_h=3, s=1, nu=1)),
        '{"value": {"num": 13, "den": 9, "float": 1.4444444444444444}, '
        '"stderr": null, "mode": "exhaustive", "trials": null}',
    ),
    "monte carlo": (
        lambda: cost_average(
            SchemeParams(p=3, n_e=2, n_h=3, s=1, nu=1), mode="monte_carlo", trials=6, seed=0
        ),
        '{"value": 1.5, "stderr": 0.1875771446237126, "mode": "monte_carlo", "trials": 6}',
    ),
}


@pytest.mark.parametrize("case", list(COST_JSON))
def test_cost_result_json_is_pinned(case):
    compute, expected = COST_JSON[case]
    assert json.dumps(compute().to_dict()) == expected


def test_worst_case_theorem_tight_when_edges_cover(gf8):
    params = SchemeParams(p=comb(10, 4) * 2, n_e=50, n_h=10, s=2, nu=2)
    wc = cost_worst_case(params, mode="theorem")
    assert wc.value == Fraction(6) and wc.tight
    assert wc.lower_bound == Fraction(6)


def test_worst_case_single_edge():
    params = SchemeParams(p=3, n_e=1, n_h=3, s=1, nu=1)
    th = cost_worst_case(params, mode="theorem")
    assert th.value == Fraction(1) and th.tight
    bf = cost_worst_case(params, mode="brute_force")
    assert bf.value == Fraction(1)


def test_worst_case_brute_force_small():
    params = SchemeParams(p=3, n_e=2, n_h=3, s=1, nu=1)
    bf = cost_worst_case(params, mode="brute_force")
    assert bf.value == Fraction(2) == Fraction(min(2, comb(2, 1)))
    with pytest.raises(ValueError):
        cost_worst_case(params, mode="bogus")


def test_worst_case_brute_force_respects_cap():
    params = SchemeParams(p=30, n_e=7, n_h=6, s=2, nu=2)
    with pytest.raises(CapExceededError):
        cost_worst_case(params, mode="brute_force")


def test_average_single_edge_is_one():
    params = SchemeParams(p=3, n_e=1, n_h=3, s=1, nu=1)
    avg = cost_average(params, mode="exhaustive")
    assert avg.value == Fraction(1)


def test_average_exhaustive_vs_monte_carlo():
    params = SchemeParams(p=3, n_e=2, n_h=3, s=1, nu=1)
    exact = cost_average(params, mode="exhaustive")
    mc = cost_average(params, mode="monte_carlo", trials=10_000, seed=0)
    assert abs(float(exact.value) - mc.value) <= 3 * mc.stderr
    worst = cost_worst_case(params, mode="brute_force")
    assert float(exact.value) <= float(worst.value)
    for trials in (0, -1, 2.5, "3", True):
        with pytest.raises(ValueError, match=re.escape(f"got {trials!r}")):
            cost_average(params, mode="monte_carlo", trials=trials)
    assert cost_average(params, mode="monte_carlo", trials=np.int64(3)).trials == 3
    with pytest.raises(ValueError):
        cost_average(params, mode="nope")


def closed_form_mean(params):
    """E[C_HM] over Omega(s) without enumeration.

    Rows of a strict matrix are iid uniform s-subsets, and every layer sees
    the same footprint distribution, so E[C_HM] = E[beta_l] =
    sum_c (1 - (1 - q_c)^n_e) over the layer's covers c. q_c is the share of
    s-subsets whose footprint in one layer has lexmin cover c: a footprint f
    of the layer's k = nu+s slots is hit by C(n_h - k, s - |f|) of them.
    """
    k, s = params.nu + params.s, params.s
    slots = tuple(range(k))
    q = {}
    for w in range(s + 1):
        for footprint in combinations(slots, w):
            cover = lexmin_cover(slots, footprint, s)
            q[cover] = q.get(cover, 0) + Fraction(comb(params.n_h - k, s - w), comb(params.n_h, s))
    return sum(1 - (1 - q_c) ** params.n_e for q_c in q.values())


@pytest.mark.parametrize(
    "n_e, n_h, s, nu, mean",
    [(3, 4, 1, 2, Fraction(65, 32)), (3, 5, 2, 1, Fraction(233, 125)), (2, 6, 2, 2, Fraction(131, 75))],
)
def test_closed_form_mean_equals_enumeration(n_e, n_h, s, nu, mean):
    params = SchemeParams(p=60, n_e=n_e, n_h=n_h, s=s, nu=nu)
    assert closed_form_mean(params) == mean
    assert cost_average(params, mode="exhaustive").value == mean


def test_monte_carlo_agrees_with_the_closed_form_where_enumeration_cannot_reach():
    # the round benchmark's cost shape: |Omega(s)| = 45^50
    params = SchemeParams(p=53760, n_e=50, n_h=10, s=2, nu=4)
    mc = cost_average(params, mode="monte_carlo", trials=400, seed=7)
    assert abs(mc.value - float(closed_form_mean(params))) < 4 * mc.stderr


@pytest.mark.parametrize(
    "seed, value, stderr",
    [
        (0, 11.920833333333334, 0.14616614806769013),
        (1, 11.80654761904762, 0.16505277277420555),
        (2026, 11.70357142857143, 0.1592386272083684),
    ],
)
def test_monte_carlo_values_are_pinned_per_seed(seed, value, stderr):
    """Recorded while sample_uniform drew one rng.choice per row: a sampler
    that draws other matrices from the same seed moves these values. The
    round benchmark's cost oracle replays sample_uniform itself, so it
    cannot see such a drift."""
    params = SchemeParams(p=53760, n_e=50, n_h=10, s=2, nu=4)
    mc = cost_average(params, mode="monte_carlo", trials=8, seed=seed)
    assert (mc.value, mc.stderr) == pytest.approx((value, stderr), rel=1e-12, abs=0)


def generator(bits, pending: bool) -> np.random.Generator:
    rng = np.random.Generator(bits(12))
    if pending:
        # one 32-bit draw leaves the other half of a 64-bit output pending
        rng.integers(0, 1 << 32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
    return rng


@pytest.mark.parametrize("chunk, sizes", [(None, [5]), (2, [2, 2, 1])], ids=["one-chunk", "chunks-of-2"])
@pytest.mark.parametrize(
    "bits, pending",
    [(np.random.PCG64, False), (np.random.PCG64, True), (np.random.MT19937, False)],
    ids=["pcg64", "pcg64-pending-half", "mt19937"],
)
def test_monte_carlo_costs_the_matrices_that_sequential_draws_give(monkeypatch, bits, pending, chunk, sizes):
    """One sample_uniform call per chunk of k matrices, of k * n_e rows,
    draws the matrices that trials calls of n_e rows draw one after
    another, and leaves the passed generator in the same state."""
    params = SchemeParams(p=115, n_e=7, n_h=6, s=2, nu=2)
    replay = generator(bits, pending)
    drawn = [sample_uniform(params.n_e, params.n_h, params.s, replay) for _ in range(5)]
    samples = np.array([float(cost_realized(RoundPlan(eps, params)).c_hm_realized) for eps in drawn])
    if chunk:
        cells = params.n_e * params.layers * (params.nu + params.s)
        monkeypatch.setattr(aggregate, "COUNT_CELLS", chunk * cells + 1)
    blocks = []

    def sampling(*args):
        blocks.append(sample_uniform(*args))
        return blocks[-1]

    monkeypatch.setattr(master, "sample_uniform", sampling)
    rng = generator(bits, pending)
    mc = cost_average(params, "monte_carlo", trials=5, seed=rng)
    assert [len(block) for block in blocks] == [params.n_e * k for k in sizes]
    assert np.array_equal(np.concatenate(blocks), np.concatenate(drawn))
    np.testing.assert_equal(rng.bit_generator.state, replay.bit_generator.state)
    assert mc.value == float(samples.mean())
    assert mc.stderr == float(samples.std(ddof=1) / np.sqrt(5))


def test_cost_api_faults_raise_configuration_error():
    params = SchemeParams(p=3, n_e=2, n_h=3, s=1, nu=1)
    with pytest.raises(ConfigurationError, match="unknown mode 'nope'; use exhaustive or monte_carlo"):
        cost_average(params, mode="nope")
    with pytest.raises(ConfigurationError, match="unknown mode 'bogus'; use theorem or brute_force"):
        cost_worst_case(params, mode="bogus")
    with pytest.raises(ConfigurationError, match="trials must be a positive integer, got 0"):
        cost_average(params, mode="monte_carlo", trials=0)
    # -1 used to leak numpy's own error, and True used to seed as 1
    for seed in (-1, True, 1.5, None, "3"):
        message = f"seed must be a numpy Generator or a non-negative integer, got {seed!r}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            cost_average(params, mode="monte_carlo", trials=2, seed=seed)
        # sample_uniform takes a seed by the same rule
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            sample_uniform(2, 3, 1, seed)
    same = cost_average(params, mode="monte_carlo", trials=5, seed=3)
    assert cost_average(params, mode="monte_carlo", trials=5, seed=np.int64(3)) == same
    generator = np.random.default_rng(3)
    assert cost_average(params, mode="monte_carlo", trials=5, seed=generator) == same


def test_counting_never_builds_the_message_row_table(monkeypatch):
    def built(plan):
        pytest.fail("a cost call built the message-row table")

    monkeypatch.setattr(RoundPlan, "_message_rows", property(built))
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    cost_average(params, mode="monte_carlo", trials=20, seed=1)
    cost_average(SchemeParams(p=6, n_e=2, n_h=4, s=1, nu=2), mode="exhaustive")
    cost_worst_case(params)
    # the probe fires on the first read of an index table
    plan = RoundPlan(np.zeros((7, 6), dtype=np.uint8), params)
    with pytest.raises(pytest.fail.Exception):
        plan.decode_patterns


# Exact worst-case C_HM from brute force wherever the theorem reports
# tight=False (the adversarial pattern misses the bound), over the sweep
# below: (n_h, s, nu, n_e) -> max over Omega(s). In 17 entries the exact
# value is the bound min(n_e, alpha), attained by a matrix other than the
# adversarial pattern; the 11 entries below the bound are where a sharper
# bound would hold.
NON_TIGHT_WORST_CASE = {
    (3, 1, 1, 2): Fraction(2),
    (4, 1, 1, 2): Fraction(11, 6),
    (4, 1, 1, 3): Fraction(2),
    (4, 1, 2, 2): Fraction(2),
    (4, 1, 2, 3): Fraction(3),
    (4, 2, 1, 2): Fraction(2),
    (4, 2, 1, 3): Fraction(3),
    (5, 1, 1, 2): Fraction(17, 10),
    (5, 1, 1, 3): Fraction(19, 10),
    (5, 1, 2, 2): Fraction(19, 10),
    (5, 1, 2, 3): Fraction(27, 10),
    (5, 1, 3, 2): Fraction(2),
    (5, 1, 3, 3): Fraction(3),
    (5, 2, 1, 2): Fraction(2),
    (5, 2, 2, 2): Fraction(2),
    (5, 3, 1, 2): Fraction(2),
    (6, 1, 1, 2): Fraction(8, 5),
    (6, 1, 1, 3): Fraction(9, 5),
    (6, 1, 2, 2): Fraction(9, 5),
    (6, 1, 2, 3): Fraction(49, 20),
    (6, 1, 3, 2): Fraction(29, 15),
    (6, 1, 3, 3): Fraction(14, 5),
    (6, 1, 4, 2): Fraction(2),
    (6, 1, 4, 3): Fraction(3),
    (6, 2, 1, 2): Fraction(2),
    (6, 2, 2, 2): Fraction(2),
    (6, 2, 3, 2): Fraction(2),
    (6, 4, 1, 2): Fraction(2),
}
SWEEP_OMEGA_CAP = 256


def counted_betas(row_masks, n_h, k, s):
    """beta_l of every layer, counted without layeragg's planner.

    Row masks hold each edge's erased helpers as bits. A layer's cover of
    a footprint is that footprint filled up to s bits with the layer's
    smallest free helpers; beta_l counts the distinct covers.
    """
    betas = []
    for layer in combinations(range(n_h), k):
        in_layer = sum(1 << h for h in layer)
        covers = set()
        for footprint in {m & in_layer for m in row_masks}:
            cover = footprint
            for h in layer:
                if bin(cover).count("1") == s:
                    break
                cover |= 1 << h
            covers.add(cover)
        betas.append(len(covers))
    return betas


def test_costs_match_an_independent_count_on_every_small_system():
    non_tight = {}
    for n_h in range(2, 7):
        for s in range(1, n_h):
            rows = [sum(1 << h for h in erased) for erased in combinations(range(n_h), s)]
            for nu in range(1, n_h - s + 1):
                for n_e in range(1, 9):
                    if len(rows) ** n_e > SWEEP_OMEGA_CAP:
                        break
                    params = SchemeParams(
                        p=comb(n_h, nu + s) * nu, n_e=n_e, n_h=n_h, s=s, nu=nu
                    )
                    total = worst = 0
                    for choice in product(rows, repeat=n_e):
                        betas = counted_betas(choice, n_h, nu + s, s)
                        eps = np.array(
                            [[m >> h & 1 for h in range(n_h)] for m in choice], dtype=np.uint8
                        )
                        plan = RoundPlan(eps, params)
                        assert [lp.beta for lp in plan.layer_plans] == betas, choice
                        total += sum(betas)
                        worst = max(worst, sum(betas))
                    # C_HM(eps) = nu*d*sum(beta) / (d*L*nu) = sum(beta) / L
                    key = (n_h, s, nu, n_e)
                    count = len(rows) ** n_e
                    assert cost_average(params).value == Fraction(total, params.layers * count), key
                    exact = cost_worst_case(params, "brute_force").value
                    assert exact == Fraction(worst, params.layers), key
                    assert exact <= min(n_e, params.alpha), key
                    theorem = cost_worst_case(params)
                    assert theorem.lower_bound <= exact, key
                    assert theorem.tight == (theorem.lower_bound == theorem.value), key
                    if theorem.tight:
                        assert exact == theorem.value, key
                    else:
                        non_tight[key] = exact
    assert non_tight == NON_TIGHT_WORST_CASE


# -- cost analysis plans each distinct row of a chunk once ---------------------


def planned_rows(monkeypatch) -> list:
    """The number of rows of every cover_ids call from here on."""
    rows = []
    cover_ids = aggregate.cover_ids

    def counting(eps, params):
        rows.append(len(eps))
        return cover_ids(eps, params)

    monkeypatch.setattr(aggregate, "cover_ids", counting)
    return rows


def alone(matrices, params) -> list:
    """Each matrix costed alone, from its own RoundPlan."""
    return [cost_realized(RoundPlan(eps, params)) for eps in matrices]


def distinct(matrices) -> int:
    return len(np.unique(np.concatenate(matrices), axis=0))


def check_cost_modes(monkeypatch, params, seed, trials, exhaustive=True):
    """cost_average (Monte Carlo, and exhaustive when asked) and
    cost_worst_case(brute_force) equal costing each matrix alone, while
    cover_ids plans each Monte Carlo chunk's distinct rows only. Returns
    the rows of every cover_ids call, in the order of the modes above."""
    cells = params.n_e * params.layers * (params.nu + params.s)
    chunk = max(1, aggregate.COUNT_CELLS // cells)
    rng = np.random.default_rng(seed)
    drawn = [sample_uniform(params.n_e, params.n_h, params.s, rng) for _ in range(trials)]
    samples = np.array([float(r.c_hm_realized) for r in alone(drawn, params)])
    if exhaustive:
        matrices = list(enumerate_all(params.n_e, params.n_h, params.s))
        mean = sum(r.c_hm_realized for r in alone(matrices, params)) / len(matrices)
    row_sets = list(enumerate_row_sets(params.n_e, params.n_h, params.s))
    worst = max(r.c_hm_realized for r in alone(row_sets, params))
    rows = planned_rows(monkeypatch)
    mc = cost_average(params, "monte_carlo", trials=trials, seed=seed)
    assert mc.value == float(samples.mean())
    assert mc.stderr == float(samples.std(ddof=1) / np.sqrt(trials))
    chunks = [drawn[start : start + chunk] for start in range(0, trials, chunk)]
    assert rows == [distinct(part) for part in chunks]
    if exhaustive:
        assert cost_average(params, "exhaustive").value == mean
    assert cost_worst_case(params, "brute_force").value == worst
    return rows


def test_cost_modes_equal_per_matrix_costs_on_chunks_of_heavy_repeats(monkeypatch):
    # 5 edges on 3 helpers: one chunk a mode, each of 3 distinct rows
    params = SchemeParams(p=7, n_e=5, n_h=3, s=1, nu=1)
    assert check_cost_modes(monkeypatch, params, seed=11, trials=20) == [3] * 3


def test_cost_modes_equal_per_matrix_costs_on_chunks_without_repeats(monkeypatch):
    # one matrix a chunk, of 1 edge (exhaustive, Monte Carlo) or of 2
    # distinct rows (brute force), so every row a chunk plans is its own
    params = SchemeParams(p=30, n_e=1, n_h=6, s=2, nu=2)
    monkeypatch.setattr(aggregate, "COUNT_CELLS", params.layers * (params.nu + params.s))
    assert check_cost_modes(monkeypatch, params, seed=4, trials=5) == [1] * (5 + 15 + 15)
    params = SchemeParams(p=30, n_e=2, n_h=6, s=2, nu=2)
    rows = check_cost_modes(monkeypatch, params, seed=4, trials=5, exhaustive=False)
    assert rows[5:] == [2] * comb(15, 2)


def test_cost_modes_equal_per_matrix_costs_past_64_helpers(monkeypatch):
    # 70 layers of 69 slots, wider than TABLE_SLOTS, and row keys of 9
    # bytes: rows that differ only past helper 63 must not share a plan
    params = SchemeParams(p=70 * 68, n_e=3, n_h=70, s=1, nu=68)
    rng = np.random.default_rng(5)
    drawn = alone([sample_uniform(3, 70, 1, rng) for _ in range(4)], params)
    matrices = [from_erased_sets(m, 70) for m in ([[64], [65], [64]], [[69], [0], [65]], [[8], [64], [69]])]
    expected = alone(matrices, params)
    mc = cost_average(params, "monte_carlo", trials=4, seed=5)
    assert mc.value == float(np.mean([float(r.c_hm_realized) for r in drawn]))
    rows = planned_rows(monkeypatch)
    assert list(master._costs(master._blocks(matrices, params), params)) == expected
    assert rows == [5]


def test_costs_of_lax_chunks_with_all_zero_rows_equal_per_matrix_costs(monkeypatch):
    params = SchemeParams(p=40, n_e=4, n_h=5, s=2, nu=2)
    rng = np.random.default_rng(8)
    matrices = [np.zeros((4, 5), dtype=np.uint8)]
    for _ in range(7):
        rows = [rng.choice(5, size=rng.integers(0, 3), replace=False).tolist() for _ in range(4)]
        matrices.append(from_erased_sets(rows, 5))
    expected = alone(matrices, params)
    rows = planned_rows(monkeypatch)
    assert list(master._costs(master._blocks(matrices, params), params)) == expected
    assert rows == [distinct(matrices)]
    # chunks of three matrices, each its own distinct rows
    cells = params.n_e * params.layers * (params.nu + params.s)
    monkeypatch.setattr(aggregate, "COUNT_CELLS", 3 * cells)
    rows.clear()
    assert list(master._costs(master._blocks(matrices, params), params)) == expected
    assert rows == [distinct(matrices[start : start + 3]) for start in (0, 3, 6)]
