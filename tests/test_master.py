"""Master decode and cost accounting tests; oracle is direct gradient summation."""

import re
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from layeragg.aggregate import AggregatedMessage, RoundPlan, aggregate_helper
from layeragg.client import SchemeParams, encode_client, random_gradient
from layeragg.erasure import (
    enumerate_all,
    from_erased_sets,
    sample_uniform,
    worst_case_pattern,
)
from layeragg.errors import CapExceededError, ProtocolError
from layeragg.gf import GF
from layeragg.master import (
    cost_average,
    cost_realized,
    cost_worst_case,
    decode_global,
)
from layeragg.mds import make_generator

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
