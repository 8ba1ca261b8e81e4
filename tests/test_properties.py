"""Property tests: the decoded sum equals the XOR of the edge gradients,
and the symbols on both links match the closed-form counts.

Fields, shapes, padding and lax erasure matrices are drawn; the
helper-to-master hop goes through the wire format.
"""

from collections import Counter
from math import comb

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from layeragg.aggregate import (  # noqa: E402
    RoundPlan,
    aggregate_helper,
    message_from_bytes,
    message_to_bytes,
)
from layeragg.client import SchemeParams, encode_client  # noqa: E402
from layeragg.erasure import from_erased_sets, validate  # noqa: E402
from layeragg.gf import GF  # noqa: E402
from layeragg.master import cost_realized, decode_global  # noqa: E402
from layeragg.mds import make_generator  # noqa: E402
from reference_plan import reference_plan_layer, reference_schedules  # noqa: E402


@st.composite
def rounds(draw):
    m = draw(st.sampled_from([4, 8, 16]))
    n_h = draw(st.integers(2, 8))
    s = draw(st.integers(1, n_h - 1))
    nu = draw(st.integers(1, n_h - s))
    lam = comb(n_h, nu + s) * nu
    assume(lam > 1)
    d = draw(st.integers(1, 3))
    p = lam * d - draw(st.integers(1, lam - 1))  # lam does not divide p
    n_e = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, n_h - 1), max_size=s, unique=True),
            min_size=n_e,
            max_size=n_e,
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return m, SchemeParams(p=p, n_e=n_e, n_h=n_h, s=s, nu=nu), rows, seed


@settings(max_examples=60, deadline=None)
@given(rounds())
def test_decode_equals_xor_sum_over_the_wire(case):
    m, params, rows, seed = case
    fld = GF(m)
    eps = from_erased_sets(rows, params.n_h)
    validate(eps, params.s)
    grads = np.random.default_rng(seed).integers(
        0, fld.order, size=(params.n_e, params.p), dtype=fld.dtype
    )
    plan = RoundPlan(eps, params)
    code = make_generator(fld, params.nu, params.s)
    arrays = [encode_client(grads[i], params, code) for i in range(params.n_e)]
    for arr in arrays:
        sent = sum(arr.column(j).size for j in range(params.n_h))
        assert sent == params.n_h * params.b * params.d

    emitters = Counter(pair for schedule in plan.schedules for pair in schedule)
    groups = [(lp.layer, a) for lp in plan.layer_plans for a in range(lp.beta)]
    assert sorted(emitters) == groups
    assert set(emitters.values()) == {params.nu}

    messages = []
    for j in range(params.n_h):
        received = {i: arrays[i].column(j) for i in range(params.n_e) if not eps[i, j]}
        payload = message_to_bytes(aggregate_helper(j, received, plan, fld), fld)
        messages.append(
            message_from_bytes(j, payload, fld, len(plan.schedules[j]), params.d)
        )
    beta_total = sum(lp.beta for lp in plan.layer_plans)
    hm_symbols = sum(msg.entries.size for msg in messages)
    assert hm_symbols == cost_realized(plan).hm_symbols == params.nu * params.d * beta_total
    decoded = decode_global(messages, plan, code)
    assert np.array_equal(decoded, np.bitwise_xor.reduce(grads, axis=0))


@st.composite
def erasure_matrices(draw):
    n_h = draw(st.integers(2, 7))
    s = draw(st.integers(1, n_h - 1))
    nu = draw(st.integers(1, n_h - s))
    n_e = draw(st.integers(1, 8))
    strict = draw(st.booleans())
    rows = draw(
        st.lists(
            st.lists(
                st.integers(0, n_h - 1), min_size=s if strict else 0, max_size=s, unique=True
            ),
            min_size=n_e,
            max_size=n_e,
        )
    )
    params = SchemeParams(p=comb(n_h, nu + s) * nu, n_e=n_e, n_h=n_h, s=s, nu=nu)
    return params, from_erased_sets(rows, n_h)


@settings(max_examples=200, deadline=None)
@given(erasure_matrices())
def test_plan_and_schedules_equal_the_reference(case):
    params, eps = case
    plan = RoundPlan(eps, params)
    for layer, helpers in enumerate(params.layer_map):
        got = plan.layer_plans[layer]
        want = reference_plan_layer(layer, helpers, eps, params.s)
        for name in ("layer", "helpers", "classes", "phi", "images", "groups"):
            assert getattr(got, name) == getattr(want, name), (name, layer)
    schedules = reference_schedules(params, plan.layer_plans)
    assert plan.schedules == schedules
    # each decode row is the position of its (layer, image) entry in the
    # concatenated reference schedules, at the emitter of its slot
    entries = [(j, layer, a) for j, schedule in enumerate(schedules) for layer, a in schedule]
    seen = []
    for slots, (layers, rows) in plan.decode_patterns.items():
        assert rows.shape == (params.nu, len(layers))
        for layer, column in zip(layers.tolist(), rows.T.tolist()):
            helpers = params.layer_map[layer]
            got = [entries[r] for r in column]
            assert [(j, lay) for j, lay, _ in got] == [(helpers[t], layer) for t in slots]
            assert len({a for *_, a in got}) == 1
            seen += column
    assert sorted(seen) == list(range(len(entries)))


@settings(max_examples=100, deadline=None)
@given(erasure_matrices())
def test_round_counts_equal_the_layer_plans_and_reference_schedules(case):
    params, eps = case
    plan = RoundPlan(eps, params)
    assert plan.beta.tolist() == [lp.beta for lp in plan.layer_plans]
    schedules = reference_schedules(params, plan.layer_plans)
    assert plan.m_j.tolist() == [len(schedule) for schedule in schedules]
