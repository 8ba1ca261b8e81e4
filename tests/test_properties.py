"""Property tests: the decoded sum equals the XOR of the edge gradients,
and the symbols on both links match the closed-form counts.

Fields, shapes, padding and lax erasure matrices are drawn; the master
decodes the messages the helpers emit. The last tests feed mutated
scenario files, and mutated encode, simulate, verify and sweep argv, to
the command line, which must answer each with an exit code, never a
traceback.
"""

import json
from collections import Counter
from fractions import Fraction
from math import comb
from unittest.mock import patch

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st  # noqa: E402

from layeragg import aggregate  # noqa: E402
from layeragg.aggregate import (  # noqa: E402
    TABLE_SLOTS,
    GroupCounts,
    RoundPlan,
    aggregate_helper,
    count_groups,
    cover_ids,
    plan_layer,
)
from layeragg.cli import main  # noqa: E402
from layeragg.client import SchemeParams, encode_client  # noqa: E402
from layeragg.erasure import from_erased_sets, sample_uniform, validate  # noqa: E402
from layeragg.gf import GF  # noqa: E402
from layeragg.master import cost_average, cost_realized, decode_global  # noqa: E402
from layeragg.mds import make_generator  # noqa: E402
from reference_plan import (  # noqa: E402
    check_decode_patterns,
    reference_plan_layer,
    reference_schedules,
)


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
def test_decode_of_the_helper_messages_equals_xor_sum(case):
    m, params, rows, seed = case
    fld = GF(m)
    eps = from_erased_sets(rows, params.n_h)
    validate(eps, params.n_e, params.n_h, params.s)
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
        messages.append(aggregate_helper(j, received, plan, fld))
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
    check_decode_patterns(params, plan, schedules)


@settings(max_examples=100, deadline=None)
@given(erasure_matrices())
def test_round_counts_equal_the_layer_plans_and_reference_schedules(case):
    params, eps = case
    plan = RoundPlan(eps, params)
    assert plan.beta.tolist() == [lp.beta for lp in plan.layer_plans]
    schedules = reference_schedules(params, plan.layer_plans)
    assert plan.m_j.tolist() == [len(schedule) for schedule in schedules]


# (n_h, s, nu) shapes of the batched counter's tests: layers of up to
# TABLE_SLOTS slots read the cover tables, wider ones rank and unrank,
# and C(68, 34) covers need Python-integer ids.
SMALL_SHAPES = st.integers(2, 7).flatmap(
    lambda n_h: st.integers(1, n_h - 1).flatmap(
        lambda s: st.tuples(st.just(n_h), st.just(s), st.integers(1, n_h - s))
    )
)
WIDE_SHAPES = st.sampled_from([TABLE_SLOTS + 1, TABLE_SLOTS + 2]).flatmap(
    lambda k: st.tuples(st.sampled_from([k, k + 1]), st.integers(1, 4)).map(
        lambda shape: (shape[0], shape[1], k - shape[1])
    )
)
# alpha = C(nu+s, s) = 64, 65, 66 and C(68, 34): count_groups counts the first
# by presence words and the rest by sorting
WORD_SHAPES = st.sampled_from([(64, 1, 63), (65, 1, 64), (66, 1, 65), (68, 34, 34)])


@st.composite
def matrix_stacks(draw, shapes):
    """Params and 1-4 strict or lax matrices of the same shape."""
    n_h, s, nu = draw(shapes)
    n_e = draw(st.integers(1, 6))
    strict = draw(st.booleans())
    row = st.lists(
        st.integers(0, n_h - 1), min_size=s if strict else 0, max_size=s, unique=True
    )
    matrices = [
        from_erased_sets(draw(st.lists(row, min_size=n_e, max_size=n_e)), n_h)
        for _ in range(draw(st.integers(1, 4)))
    ]
    params = SchemeParams(p=comb(n_h, nu + s) * nu, n_e=n_e, n_h=n_h, s=s, nu=nu)
    return params, matrices


def check_batched_counts(params, matrices):
    """Count the matrices together, as cost analysis does: one cover_ids
    call on their stacked rows, which equals one plan_layer call per layer,
    then count_groups. Each matrix's counts equal its own round plan's
    per-layer images and the reference schedules, and cost the same; where
    alpha <= 64 they also equal the sort rule's on the same stack."""
    eps = np.concatenate(matrices)
    cover = cover_ids(eps, params)
    per_layer = [plan_layer(layer, h, eps, params.s).cover for layer, h in enumerate(params.layer_map)]
    assert np.array_equal(cover, np.stack(per_layer, axis=1))
    stack = cover.reshape(len(matrices), params.n_e, -1)
    counts = count_groups(stack, params)
    if params.alpha <= 64:
        # count_groups counts by presence words here: the sort rule's counts
        beta, covered = aggregate._count_sorted(stack, params)
        assert np.array_equal(counts.beta.ravel(), beta)
        assert np.array_equal(aggregate._count_present(stack, params)[1], covered)
    assert counts.beta.shape == (len(matrices), params.layers)
    assert counts.m_j.shape == (len(matrices), params.n_h)
    for one, beta, m_j in zip(matrices, counts.beta, counts.m_j):
        plan = RoundPlan(one, params)
        assert beta.tolist() == plan.beta.tolist() == [lp.beta for lp in plan.layer_plans]
        assert m_j.tolist() == plan.m_j.tolist()
        schedules = reference_schedules(params, plan.layer_plans)
        assert m_j.tolist() == [len(schedule) for schedule in schedules]
        assert cost_realized(GroupCounts(params, beta, m_j)) == cost_realized(plan)


@settings(max_examples=150, deadline=None)
@given(matrix_stacks(SMALL_SHAPES))
def test_batched_counts_equal_per_matrix_plans(case):
    check_batched_counts(*case)


@settings(max_examples=25, deadline=None)
@given(matrix_stacks(WIDE_SHAPES | WORD_SHAPES))
def test_batched_counts_equal_per_matrix_plans_on_ranked_layers(case):
    check_batched_counts(*case)


@pytest.mark.parametrize("n_h, s, nu", [(64, 1, 63), (65, 1, 64)], ids=["alpha64", "alpha65"])
def test_batched_counts_on_both_sides_of_64_covers(n_h, s, nu):
    rng = np.random.default_rng(n_h)
    params = SchemeParams(p=comb(n_h, nu + s) * nu, n_e=6, n_h=n_h, s=s, nu=nu)
    check_batched_counts(params, [sample_uniform(params.n_e, n_h, s, rng) for _ in range(3)])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**63), trials=st.integers(1, 12), chunk=st.integers(1, 5))
def test_monte_carlo_is_bit_identical_to_per_matrix_costs_across_chunks(seed, trials, chunk):
    """Chunks of `chunk` matrices give the floats that costing each
    sampled matrix alone gives, so value and stderr are bit-identical."""
    params = SchemeParams(p=115, n_e=7, n_h=6, s=2, nu=2)  # padded to 120
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(trials):
        plan = RoundPlan(sample_uniform(params.n_e, params.n_h, params.s, rng), params)
        beta_total = sum(lp.beta for lp in plan.layer_plans)
        samples.append(float(Fraction(params.nu * params.d * beta_total, params.p_padded)))
    samples = np.array(samples)
    cells = params.n_e * params.layers * (params.nu + params.s)
    with patch.object(aggregate, "COUNT_CELLS", chunk * cells):
        got = cost_average(params, "monte_carlo", trials=trials, seed=seed)
    assert got.value == float(samples.mean())
    assert got.stderr == (float(samples.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0)
    assert cost_average(params, "monte_carlo", trials=trials, seed=seed) == got


# what a mutation puts in place of a value: any JSON type but a larger
# integer, since sizes are not capped before they are allocated
JUNK = st.one_of(
    st.text(max_size=3),
    st.floats(),
    st.booleans(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
    st.none(),
    st.integers(-50, -1),
)
GRADIENT_FILE = "gradient.json"


@st.composite
def small_scenarios(draw):
    """A valid scenario dict with n_h <= 5, n_e <= 3 and p <= 64."""
    n_h = draw(st.integers(2, 5))
    s = draw(st.integers(1, n_h - 1))
    n_e = draw(st.integers(1, 3))
    kinds = ["matrix", "uniform", "worst_case"] + ["exhaustive"] * (comb(n_h, s) ** n_e <= 16)
    erasures = {"kind": draw(st.sampled_from(kinds))}
    if erasures["kind"] == "matrix":
        row = st.lists(st.integers(0, n_h - 1), max_size=s, unique=True)
        erasures["rows"] = draw(st.lists(row, min_size=n_e, max_size=n_e))
    if erasures["kind"] == "uniform" and draw(st.booleans()):
        erasures["seed"] = draw(st.integers(0, 99))
    if erasures["kind"] != "exhaustive" and draw(st.booleans()):
        erasures["rounds"] = draw(st.integers(1, 2))
    gradients = draw(
        st.sampled_from(
            [{"kind": "random"}, {"kind": "random", "seed": 3}, {"kind": "zero"},
             {"kind": "file", "path": GRADIENT_FILE}]
        )
    )
    return {
        "p": draw(st.integers(1, 64)), "n_e": n_e, "n_h": n_h, "s": s,
        "nu": draw(st.integers(1, n_h - s)), "field_bits": draw(st.sampled_from([4, 8, 16])),
        "erasures": erasures, "gradients": gradients, "seed": draw(st.integers(0, 99)),
    }


@st.composite
def mutated_scenarios(draw):
    """A small valid scenario with one value swapped for junk, or one
    extra key, at its top level, in a spec or in a matrix row; and the
    valid scenario's p, the length of the gradient file."""
    data = draw(small_scenarios())
    p = data["p"]
    places = [data, data["erasures"], data["gradients"]] + data["erasures"].get("rows", [])
    place = draw(st.sampled_from(places))
    if isinstance(place, list):
        if place and draw(st.booleans()):
            place[draw(st.integers(0, len(place) - 1))] = draw(JUNK)
        else:
            place.append(draw(JUNK))
    elif draw(st.booleans()):
        place[draw(st.sampled_from(sorted(place)))] = draw(JUNK)
    else:
        place[draw(st.text(min_size=1, max_size=5))] = draw(JUNK)
    return data, p


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_scenarios())
def test_a_mutated_scenario_file_gets_an_exit_code_not_a_traceback(case, tmp_path, capsys, monkeypatch):
    data, p = case
    monkeypatch.chdir(tmp_path)
    (tmp_path / GRADIENT_FILE).write_text(json.dumps(list(range(p))))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["simulate", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    if code:
        assert len(err.splitlines()) == 1 and err.startswith(("error: ", "refused: ")), err


@st.composite
def mutated_argv(draw):
    """encode, simulate, verify or sweep argv with --n-h <= 6 and --n-e in
    [-1, 4], whose --s and --nu (--nu-min and --nu-max on sweep) are
    valid, swapped, negative or oversized. encode and simulate also take
    a --p of at most 64 and any --field-bits, and simulate a --rounds in
    [-1, 3]."""
    n_h = draw(st.integers(2, 6))
    s = draw(st.integers(1, n_h - 1))
    nus = [draw(st.integers(1, n_h - s)) for _ in range(2)]
    values = {"s": s, "nu": nus[0], "nu-min": min(nus), "nu-max": max(nus)}
    mutation = draw(st.sampled_from(["none", "swap", "negative", "oversized"]))
    command = draw(st.sampled_from(["encode", "simulate", "verify", "sweep"]))
    names = ["s"] + (["nu-min", "nu-max"] if command == "sweep" else ["nu"])
    if mutation == "swap":
        a, b = draw(st.permutations(names))[:2]
        values[a], values[b] = values[b], values[a]
    elif mutation == "negative":
        name = draw(st.sampled_from(names))
        values[name] = -draw(st.integers(0, 3))
    elif mutation == "oversized":
        name = draw(st.sampled_from(names))
        values[name] = draw(st.integers(n_h - 1, 2 * n_h))
    argv = [command, "--n-e", str(draw(st.integers(-1, 4))), "--n-h", str(n_h)]
    argv += ["--s", str(values["s"])]
    if command in ("encode", "simulate"):
        argv += ["--p", str(draw(st.integers(-1, 64)))]
        argv += ["--field-bits", str(draw(st.sampled_from([4, 8, 16])))]
        if command == "encode" or draw(st.booleans()):
            argv += ["--nu", str(values["nu"])]
        if command == "simulate":
            argv += ["--rounds", str(draw(st.integers(-1, 3)))]
        return argv
    optional = ["nu", "--brute-force"] if command == "verify" else ["nu-min", "nu-max", "--measure"]
    for flag in draw(st.lists(st.sampled_from(optional), unique=True)):
        argv += [flag] if flag.startswith("--") else [f"--{flag}", str(values[flag])]
    return argv + (["--trials", "1"] if command == "verify" else [])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=mutated_argv())
def test_a_mutated_argv_gets_an_exit_code_not_a_traceback(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv, err)
    assert sum(line.startswith(("error:", "refused:")) for line in err.splitlines()) <= 1, (argv, err)
    if code == 0 and argv[0] == "verify":
        assert json.loads(out)["checks"], argv
