"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from layeragg.aggregate import RoundPlan, aggregate_helper, plan_layer
from layeragg.client import (
    LayerMap,
    SchemeParams,
    encode_client,
    partition_gradient,
    random_gradient,
)
from layeragg.erasure import (
    enumerate_all,
    from_erased_sets,
    sample_uniform,
    worst_case_pattern,
)
from layeragg.gf import GF
from layeragg.master import cost_realized, cost_worst_case
from layeragg.mds import decode_from, make_generator, singular_minors
from layeragg.sim import Scenario, run_round

SEVEN_EDGE_ROWS = [[4, 5], [4, 5], [3, 4], [2, 3], [2, 3], [0, 1], [0, 1]]

_FIELD = GF(8)
_CODES: dict = {}


def _code(nu, s):
    if (nu, s) not in _CODES:
        _CODES[(nu, s)] = make_generator(_FIELD, nu, s)
    return _CODES[(nu, s)]


def _criterion(num: int, text: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {text}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


def test_criterion_1_edge_to_helper_cost_exact():
    failures = []
    rng = np.random.default_rng(1)
    for n_h in range(2, 11):
        for s in range(1, n_h):
            for nu in range(1, n_h - s + 1):
                params = SchemeParams(
                    p=comb(n_h, nu + s) * nu * 2, n_e=1, n_h=n_h, s=s, nu=nu
                )
                assert params.p_padded == params.p  # divisible by construction
                arr = encode_client(
                    random_gradient(rng, _FIELD, params.p), params, _code(nu, s)
                )
                sent = sum(arr.column(j).size for j in range(n_h))
                if Fraction(sent, params.p) != Fraction(nu + s, nu):
                    failures.append((n_h, s, nu, Fraction(sent, params.p)))
    _criterion(1, "measured C_EH = (nu+s)/nu for all n_h <= 10", failures)


def test_criterion_2_worst_case_cost_ten_helper_curve():
    failures = []
    eps_star = worst_case_pattern(50, 10, 2)
    want_hm = [3, 6, 10, 15, 21, 28, 36, 45]
    want_eh = [
        Fraction(3),
        Fraction(2),
        Fraction(5, 3),
        Fraction(3, 2),
        Fraction(7, 5),
        Fraction(4, 3),
        Fraction(9, 7),
        Fraction(5, 4),
    ]
    for nu in range(1, 9):
        params = SchemeParams(p=comb(10, nu + 2) * nu, n_e=50, n_h=10, s=2, nu=nu)
        report = cost_realized(RoundPlan(eps_star, params))
        if report.c_hm_realized != Fraction(comb(nu + 2, 2)):
            failures.append(("c_hm", nu, report.c_hm_realized))
        if report.c_hm_realized != want_hm[nu - 1]:
            failures.append(("c_hm_curve", nu, report.c_hm_realized))
        if report.c_eh != want_eh[nu - 1]:
            failures.append(("c_eh", nu, report.c_eh))
        theorem = cost_worst_case(params, mode="theorem")
        if theorem.value != Fraction(comb(nu + 2, 2)) or not theorem.tight:
            failures.append(("theorem", nu, theorem))
    _criterion(2, "adversarial-pattern cost reproduces the (n_h=10, s=2) curve", failures)


def test_criterion_3_brute_force_matches_and_respects_bound():
    failures = []
    for n_e, n_h, s in [(2, 3, 1), (3, 4, 1), (2, 4, 2)]:
        for nu in range(1, n_h - s + 1):
            params = SchemeParams(p=comb(n_h, nu + s) * nu, n_e=n_e, n_h=n_h, s=s, nu=nu)
            found = max(
                cost_realized(RoundPlan(eps, params)).c_hm_realized
                for eps in enumerate_all(n_e, n_h, s)
            )
            reported = cost_worst_case(params, mode="brute_force").value
            bound = Fraction(min(n_e, comb(nu + s, s)))
            if found != reported:
                failures.append(("mismatch", n_e, n_h, s, nu, found, reported))
            if found > bound:
                failures.append(("bound", n_e, n_h, s, nu, found, bound))
    _criterion(3, "exhaustive worst case matches cost_worst_case within the bound", failures)


def test_criterion_4_seven_edge_layer_plan_and_emission():
    failures = []
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    layers = LayerMap(6, 4)
    eps = from_erased_sets(SEVEN_EDGE_ROWS, 6)
    assert layers[0] == (0, 1, 2, 3)
    plan = plan_layer(0, layers[0], eps, 2)
    if plan.classes != ((0, 1), (2,), (3, 4), (5, 6)):
        failures.append(("classes", plan.classes))
    if plan.phi != ((0, 1), (0, 3), (2, 3), (0, 1)):
        failures.append(("images", plan.phi))
    if plan.beta != 3:
        failures.append(("beta", plan.beta))

    code = _code(2, 2)
    rng = np.random.default_rng(4)
    grads = [random_gradient(rng, _FIELD, 120) for _ in range(7)]
    arrays = [encode_client(g, params, code) for g in grads]
    received = {i: arrays[i].column(0) for i in range(7) if not eps[i, 0]}
    round_plan = RoundPlan(eps, params)
    msg = aggregate_helper(0, received, round_plan, _FIELD)
    schedule = round_plan.schedules[0]
    hits = [idx for idx, (layer, _) in enumerate(schedule) if layer == 0]
    if len(hits) != 1:
        failures.append(("entry count for the {0,1,2,3} layer", len(hits)))
    else:
        want = arrays[3].fragments[0, 0] ^ arrays[4].fragments[0, 0]
        if not np.array_equal(msg.entries[hits[0]], want):
            failures.append(("entry value", msg.entries[hits[0]], want))
    _criterion(4, "seven-edge example: classes, images, beta=3, helper-0 sum", failures)


def test_criterion_5_end_to_end_recovery():
    failures = []
    for nu in range(1, 5):  # nu in [n_h - s] = [4]
        scenario = Scenario(
            p=comb(6, nu + 2) * nu * 2, n_e=7, n_h=6, s=2, nu=nu, seed=nu
        )
        for r in range(100):
            result = run_round(scenario, round_index=r)
            if not result.passed:
                failures.append(("random", nu, r))
                break
    for nu in (1, 2):
        scenario = Scenario(p=comb(3, nu + 1) * nu * 3, n_e=2, n_h=3, s=1, nu=nu)
        for idx, eps in enumerate(enumerate_all(2, 3, 1)):
            result = run_round(scenario, round_index=idx, eps=eps)
            if not result.passed:
                failures.append(("exhaustive", nu, idx))
    _criterion(5, "decoded sum equals the direct sum on every tested round", failures)


def test_criterion_6_endpoint_costs():
    failures = []
    for n_h in range(4, 11):
        for s in range(1, n_h):
            arc = SchemeParams(p=comb(n_h, 1 + s), n_e=3, n_h=n_h, s=s, nu=1)
            eps = np.zeros((3, n_h), dtype=np.uint8)
            if cost_realized(RoundPlan(eps, arc)).c_eh != Fraction(s + 1):
                failures.append(("arc", n_h, s))
            amc = SchemeParams(p=n_h - s, n_e=3, n_h=n_h, s=s, nu=n_h - s)
            if cost_realized(RoundPlan(eps, amc)).c_eh != Fraction(n_h, n_h - s):
                failures.append(("amc", n_h, s))
    _criterion(6, "nu=1 gives C_EH=s+1 and nu=n_h-s gives C_EH=n_h/(n_h-s)", failures)


def test_criterion_7_structural_property_suite():
    failures = []

    # MDS minors, exhaustive for every code length nu+s <= 8
    for n in range(2, 9):
        for nu in range(1, n):
            if singular_minors(_code(nu, n - nu)):
                failures.append(("minors", nu, n - nu))

    # per-layer decodability from any nu filled cells, all nu at (n_h=6, s=2)
    rng = np.random.default_rng(7)
    for nu in range(1, 5):
        params = SchemeParams(p=comb(6, nu + 2) * nu, n_e=1, n_h=6, s=2, nu=nu)
        code = _code(nu, 2)
        g = random_gradient(rng, _FIELD, params.p)
        arr = encode_client(g, params, code)
        blocks = partition_gradient(g, params, _FIELD)
        for layer in range(params.layers):
            for slots in combinations(range(nu + 2), nu):
                got = decode_from(code, list(slots), arr.fragments[layer, list(slots)])
                if not np.array_equal(got, blocks[layer]):
                    failures.append(("decodability", nu, layer, slots))

    # availability + double count on 1000 random matrices at (7, 6, 2), nu=2
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    rng = np.random.default_rng(9)
    for t in range(1000):
        eps = sample_uniform(7, 6, 2, rng)
        round_plan = RoundPlan(eps, params)
        plans = round_plan.layer_plans
        for plan in plans:
            for cover, group in zip(plan.images, plan.groups):
                for j in plan.helpers:
                    if j not in cover and any(eps[i, j] for i in group):
                        failures.append(("availability", t, plan.layer))
        m_total = sum(len(schedule) for schedule in round_plan.schedules)
        if m_total != params.nu * sum(plan.beta for plan in plans):
            failures.append(("double_count", t))
    _criterion(7, "minors, decodability, availability, double-count identity", failures)
