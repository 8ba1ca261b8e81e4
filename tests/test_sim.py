"""Scenario harness tests: rounds, the nu sweep, and the verifier."""

import dataclasses
import json
import re
import weakref
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from layeragg import aggregate, client, mds, sim
from layeragg.client import SchemeParams, edges_per_batch, encode_client
from layeragg.errors import ConfigurationError
from layeragg.gf import GF
from layeragg.sim import (
    Scenario,
    StageFailure,
    load_scenario,
    run_round,
    run_scenario,
    sweep_nu,
    verify_scheme,
)

SEVEN_EDGE_ROWS = [[4, 5], [4, 5], [3, 4], [2, 3], [2, 3], [0, 1], [0, 1]]

def test_scenario_json_round_trip(tmp_path):
    scenario = Scenario(
        p=120,
        n_e=7,
        n_h=6,
        s=2,
        nu=2,
        erasures={"kind": "matrix", "rows": SEVEN_EDGE_ROWS},
        gradients={"kind": "random", "seed": 5},
        seed=9,
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario.to_dict()))
    back = load_scenario(path)
    assert back == scenario

@pytest.mark.parametrize(
    "data,needle",
    [
        ({"n_e": 1, "n_h": 4, "s": 1, "nu": 1}, "p"),
        ({"p": "8", "n_e": 1, "n_h": 4, "s": 1, "nu": 1}, "p"),
        ({"p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1, "bogus": 2}, "bogus"),
        (
            {"p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1, "erasures": {"kind": "meteor"}},
            "erasures",
        ),
        (
            {"p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1, "erasures": {"kind": "matrix"}},
            "rows",
        ),
        (
            {"p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1, "gradients": {"kind": "file"}},
            "path",
        ),
        ([1, 2], "object"),
        ({"p": True, "n_e": 1, "n_h": 4, "s": 1, "nu": 1}, "p"),
        ({"p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1, "seed": 1.5}, "seed"),
        ({"p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1, "seed": "x"}, "seed"),
        (
            {
                "p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1,
                "erasures": {"kind": "uniform", "seed": 1.5},
            },
            "erasures.seed",
        ),
        (
            {
                "p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1,
                "gradients": {"kind": "random", "seed": True},
            },
            "gradients.seed",
        ),
        (
            {
                "p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1,
                "erasures": {"kind": "uniform", "rounds": "x"},
            },
            "erasures.rounds",
        ),
        (
            {
                "p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1,
                "erasures": {"kind": "uniform", "rounds": -1},
            },
            "erasures.rounds",
        ),
        ({"p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1, "field_bits": 8.0}, "field_bits"),
        ({"p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1, "field_poly": "x"}, "field_poly"),
        (
            {"p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1, "gradients": {"kind": ["random"]}},
            "gradients.kind",
        ),
        (
            {
                "p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1,
                "gradients": {"kind": "file", "path": 5},
            },
            "gradients.path",
        ),
        (
            {
                "p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1,
                "erasures": {"kind": "worst_case", "extra": 1},
            },
            "erasures.extra",
        ),
        (
            {
                "p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1,
                "erasures": {"kind": "exhaustive", "rounds": 2},
            },
            "erasures.rounds",
        ),
        (
            {
                "p": 24, "n_e": 2, "n_h": 4, "s": 2, "nu": 2,
                "erasures": {"kind": "matrix", "rows": [[0, 0], [1]]},
            },
            "^scenario field 'erasures.rows': row 0: helper index 0 named twice$",
        ),
        (
            {
                "p": 6, "n_e": 2, "n_h": 3, "s": 1, "nu": 1,
                "erasures": {"kind": "exhaustive", "rounds": 2},
            },
            "^scenario field 'erasures.rounds' is not taken by the 'exhaustive' kind$",
        ),
        (
            {"p": 8, "n_e": 1, "n_h": 4, "s": 1, "nu": 1, "seed": -5},
            "^scenario field 'seed' must be a non-negative integer$",
        ),
        (
            {
                "p": 24, "n_e": 2, "n_h": 4, "s": 1, "nu": 2,
                "erasures": {"kind": "matrix", "rows": [[0, 1], [2]]},
            },
            "^scenario field 'erasures.rows': row 0 has weight 2, expected at most 1$",
        ),
    ],
)
def test_scenario_validation_names_the_field(data, needle):
    with pytest.raises(ConfigurationError, match=needle):
        Scenario.from_dict(data)
    # the same fields, passed in code, fail the same way when they are a valid call
    names = {f.name for f in dataclasses.fields(Scenario)}
    if isinstance(data, dict) and {"p", "n_e", "n_h", "s", "nu"} <= data.keys() <= names:
        with pytest.raises(ConfigurationError, match=needle):
            Scenario(**data)


def test_a_scenario_is_frozen_and_replace_checks_it_again():
    scenario = Scenario(p=8, n_e=1, n_h=4, s=1, nu=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.seed = 3
    assert dataclasses.replace(scenario, seed=3).seed == 3
    # to_dict hands out copies, so its output cannot unsettle a checked scenario
    scenario.to_dict()["erasures"]["kind"] = "meteor"
    assert scenario.erasures == {"kind": "uniform"}
    with pytest.raises(ConfigurationError, match="^scenario field 'seed' must be a non-negative integer$"):
        dataclasses.replace(scenario, seed=-1)

def test_load_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="JSON"):
        load_scenario(path)

@pytest.mark.parametrize("nu", [1, 2, 3])
def test_four_helper_rounds_pass_for_every_nu(nu):
    scenario = Scenario(p=60, n_e=5, n_h=4, s=1, nu=nu, seed=nu)
    for r in range(5):
        result = run_round(scenario, round_index=r)
        assert result.passed
        assert result.report.c_eh == Fraction(nu + 1, nu)

def test_zero_gradients_decode_to_zero():
    scenario = Scenario(
        p=24, n_e=3, n_h=4, s=1, nu=2, gradients={"kind": "zero"}, seed=0
    )
    result = run_round(scenario)
    assert result.passed
    assert not result.decoded.any()

def test_file_gradient_is_every_edge_gradient(tmp_path):
    # three edges send the same gradient, so the sum is that gradient
    path = tmp_path / "g.json"
    path.write_text(json.dumps(list(range(24))))
    scenario = Scenario(
        p=24, n_e=3, n_h=4, s=1, nu=2, gradients={"kind": "file", "path": str(path)}
    )
    result = run_round(scenario)
    assert result.passed
    assert result.decoded.tolist() == list(range(24))
    path.write_text("[1.5]")
    with pytest.raises(StageFailure, match="entry 0 is 1.5") as info:
        run_round(scenario)
    assert info.value.stage == "gradients"

def _recording_draws(monkeypatch, fail_at=None):
    """Wrap sim.random_gradient: keep a copy of every draw, and before each
    draw count the earlier draws still alive (held by weak references)."""
    draws, alive, refs = [], [], []
    draw = sim.random_gradient

    def recording(rng, field, p):
        alive.append(sum(ref() is not None for ref in refs))
        if len(draws) == fail_at:
            raise RuntimeError("no entropy left")
        g = draw(rng, field, p)
        draws.append(g.copy())
        refs.append(weakref.ref(g))
        return g

    monkeypatch.setattr(sim, "random_gradient", recording)
    return draws, alive


@pytest.mark.parametrize("n_e", [1, 2, 7])
def test_round_draws_each_gradient_after_the_last_is_encoded(monkeypatch, n_e):
    draws, alive = _recording_draws(monkeypatch)
    result = run_round(Scenario(p=120, n_e=n_e, n_h=6, s=2, nu=2, seed=5))
    assert result.passed
    assert len(draws) == n_e
    assert alive == [0] * n_e
    assert np.array_equal(result.reference, np.bitwise_xor.reduce(draws))
    assert result.reference.dtype == np.uint8


def test_round_reference_of_the_file_and_zero_kinds(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(list(range(24))))
    for n_e, kind, want in [
        (1, {"kind": "file", "path": str(path)}, list(range(24))),
        (2, {"kind": "file", "path": str(path)}, [0] * 24),
        (3, {"kind": "file", "path": str(path)}, list(range(24))),
        (1, {"kind": "zero"}, [0] * 24),
        (3, {"kind": "zero"}, [0] * 24),
    ]:
        result = run_round(Scenario(p=24, n_e=n_e, n_h=4, s=1, nu=2, gradients=kind))
        assert result.passed
        assert result.reference.dtype == np.uint8
        assert result.reference.tolist() == want


def test_round_names_the_stage_of_a_failing_draw_or_encode(monkeypatch):
    scenario = Scenario(p=120, n_e=3, n_h=6, s=2, nu=2, seed=5)
    _recording_draws(monkeypatch, fail_at=1)
    with pytest.raises(StageFailure, match="^gradients: no entropy left$") as info:
        run_round(scenario)
    assert info.value.stage == "gradients"

    monkeypatch.undo()
    # batches of one edge, so the second edge's encode is a second call
    monkeypatch.setattr(client, "ENCODE_BYTES", 1)
    encoded = []

    def failing(g, params, code, out=None):
        if encoded:
            raise ValueError("codeword lost")
        encoded.append(g)
        return encode_client(g, params, code, out)

    monkeypatch.setattr(sim, "encode_client", failing)
    with pytest.raises(StageFailure, match="^encode: codeword lost$") as info:
        run_round(scenario)
    assert info.value.stage == "encode"


def test_round_counts_match_closed_forms():
    scenario = Scenario(p=120, n_e=7, n_h=6, s=2, nu=2, seed=3)
    result = run_round(scenario)
    params = scenario.params()
    assert result.eh_symbols_per_edge == params.n_h * params.b * params.d
    assert Fraction(result.eh_symbols_per_edge, params.p_padded) == Fraction(4, 2)
    assert result.hm_symbols == result.report.hm_symbols

def test_round_plans_each_layer_once(monkeypatch):
    # helpers, master and cost accounting share one RoundPlan per round
    calls = []
    plan_layer = aggregate.plan_layer

    def counting(*args, **kwargs):
        calls.append(args[0])
        return plan_layer(*args, **kwargs)

    monkeypatch.setattr(aggregate, "plan_layer", counting)
    scenario = Scenario(p=120, n_e=7, n_h=6, s=2, nu=2, seed=3)
    assert run_round(scenario).passed
    # one call plans every layer of the round's matrix
    assert calls == [0]

@pytest.mark.parametrize("edges", [None, 1, 3])
def test_round_makes_one_matmul_per_emitter_pattern_and_one_parity_product_per_batch(monkeypatch, edges):
    # GF.matmul: the generator's own product, then one r x r solve per
    # emitter-slot pattern that covers r >= 1 message slots; GF.matmul_fixed:
    # one parity product per batch of edges_per_batch edges, then one
    # re-encode of the k = nu - r received message rows by the code's parity
    # coefficients per such pattern with k >= 1. The batches are of
    # ENCODE_BYTES as it is (one batch here), then of one and of three
    # edges, which leaves a remainder of two.
    calls, fixed = [], []
    matmul, matmul_fixed = GF.matmul, GF.matmul_fixed

    def counting(self, a, b):
        calls.append((np.shape(a), np.shape(b)))
        return matmul(self, a, b)

    def counting_fixed(self, a, b, out=None):
        fixed.append((np.shape(a), np.shape(b)))
        return matmul_fixed(self, a, b, out)

    monkeypatch.setattr(GF, "matmul", counting)
    monkeypatch.setattr(GF, "matmul_fixed", counting_fixed)
    scenario = Scenario(p=53760 // 8, n_e=20, n_h=8, s=2, nu=3, field_bits=16, seed=4)
    params = scenario.params()
    nu, s, width = params.nu, params.s, params.layers * params.d
    if edges is not None:
        monkeypatch.setattr(client, "ENCODE_BYTES", edges * (nu + s) * width * 2)
    batch = edges_per_batch(params, scenario.field())
    assert batch == edges if edges else batch >= params.n_e
    result = run_round(scenario)
    assert result.passed
    plan = aggregate.RoundPlan(result.eps, params)
    # the groups of each cover, as slots of its layer; patterns go in
    # ascending (lexicographic) cover order
    covers = Counter(
        tuple(k for k, h in enumerate(lp.helpers) if h in cover)
        for lp in plan.layer_plans
        for cover in lp.images
    )
    assert 1 < len(covers) < sum(lp.beta for lp in plan.layer_plans)
    solves, re_encodes = [], []
    for cover, groups in sorted(covers.items()):
        r = sum(slot < nu for slot in cover)
        if r:
            solves.append(((r, r), (r, groups * params.d)))
            if r < nu:
                re_encodes.append(((s, nu - r), (nu - r, groups * params.d)))
    # some patterns cover no message slot and need no product
    assert 0 < len(solves) < len(covers)
    assert calls == [((nu, nu), (nu, nu + s))] + solves
    sizes = [min(batch, params.n_e - start) for start in range(0, params.n_e, batch)]
    assert len(sizes) == -(-params.n_e // batch) and sum(sizes) == params.n_e
    assert fixed == [((s, nu), (nu, size * width)) for size in sizes] + re_encodes


def test_invalid_matrix_fails_in_validate_stage():
    scenario = Scenario(p=24, n_e=2, n_h=4, s=1, nu=2)
    heavy = [[1, 1, 0, 0], [0, 0, 1, 0]]  # row 0 has weight 2 > s=1
    with pytest.raises(StageFailure) as info:
        run_round(scenario, eps=heavy)
    assert info.value.stage == "validate"


def test_nonbinary_matrix_fails_in_validate_stage():
    # row weight -3 <= s, so a weight check alone let it through to the decode
    eps = np.array([[-1, -1, -1, 0], [0, 0, 0, 0]])
    with pytest.raises(StageFailure, match="row 0 has entries other than 0 and 1") as info:
        run_round(Scenario(p=24, n_e=2, n_h=4, s=1, nu=2), eps=eps)
    assert info.value.stage == "validate"

def test_round_takes_a_list_of_lists_as_its_erasure_matrix():
    scenario = Scenario(p=24, n_e=2, n_h=4, s=1, nu=2)
    result = run_round(scenario, eps=[[0, 0, 0, 0], [0, 1, 0, 0]])
    assert result.passed
    assert result.eps.shape == (2, 4)


@pytest.mark.parametrize(
    "eps, needle",
    [
        ([[0, 0, 0], [0, 1, 0]], r"shape \(2, 3\) mismatch"),
        (np.zeros((3, 4), dtype=np.uint8), r"shape \(3, 4\) mismatch"),
        ([[0, 0, 0, 0], [0, 1, 0]], "inhomogeneous"),
        ([0, 0, 0, 0], r"shape \(4,\) mismatch: expected \(n_e, n_h\) = \(2, 4\)"),
        (np.zeros((2, 4, 1)), r"shape \(2, 4, 1\) mismatch: expected \(n_e, n_h\) = \(2, 4\)"),
    ],
)
def test_malformed_matrix_fails_in_validate_stage(eps, needle):
    with pytest.raises(StageFailure, match=needle) as info:
        run_round(Scenario(p=24, n_e=2, n_h=4, s=1, nu=2), eps=eps)
    assert info.value.stage == "validate"


def test_a_one_dimensional_matrix_is_named_by_the_shape_check():
    with pytest.raises(StageFailure) as info:
        run_round(Scenario(p=60, n_e=3, n_h=4, s=1, nu=2), eps=np.zeros(4))
    assert info.value.stage == "validate"
    assert type(info.value.__cause__) is ConfigurationError
    assert str(info.value) == (
        "validate: erasure matrix shape (4,) mismatch: expected (n_e, n_h) = (3, 4)"
    )


def test_rounds_count_in_erasure_spec_wins():
    scenario = Scenario(
        p=24, n_e=2, n_h=4, s=1, nu=2,
        erasures={"kind": "uniform", "seed": 1, "rounds": 4},
    )
    assert len(run_scenario(scenario, rounds=1)) == 4


@pytest.mark.parametrize(
    "erasures,rounds,needle",
    [
        ({"kind": "uniform"}, 0, "^rounds must"),
        ({"kind": "uniform"}, 1.5, "^rounds must"),
        ({"kind": "uniform", "rounds": -1}, 1, "erasures.rounds"),
        ({"kind": "uniform", "rounds": "x"}, 1, "erasures.rounds"),
    ],
)
def test_run_scenario_rejects_a_bad_round_count(erasures, rounds, needle):
    # a bad count in the spec is refused as the scenario is built
    with pytest.raises(ConfigurationError, match=needle):
        run_scenario(Scenario(p=24, n_e=2, n_h=4, s=1, nu=2, erasures=erasures), rounds=rounds)


def test_exhaustive_scenario_runs_every_matrix():
    scenario = Scenario(
        p=6, n_e=2, n_h=3, s=1, nu=1, erasures={"kind": "exhaustive"}, seed=1
    )
    results = run_scenario(scenario)
    assert len(results) == 9
    assert all(r.passed for r in results)

def test_seeded_rounds_are_replayable():
    scenario = Scenario(p=24, n_e=3, n_h=4, s=1, nu=2, seed=77)
    a = run_round(scenario, round_index=4)
    b = run_round(scenario, round_index=4)
    assert np.array_equal(a.eps, b.eps)
    assert np.array_equal(a.decoded, b.decoded)
    c = run_round(scenario, round_index=5)
    assert not np.array_equal(a.eps, c.eps) or not np.array_equal(a.decoded, c.decoded)

def test_sweep_reproduces_ten_helper_curve():
    table = sweep_nu(50, 10, 2)
    assert [row.nu for row in table.rows] == list(range(1, 9))
    assert [row.c_eh for row in table.rows] == [
        Fraction(3),
        Fraction(2),
        Fraction(5, 3),
        Fraction(3, 2),
        Fraction(7, 5),
        Fraction(4, 3),
        Fraction(9, 7),
        Fraction(5, 4),
    ]
    assert [row.c_hm for row in table.rows] == [
        Fraction(v) for v in (3, 6, 10, 15, 21, 28, 36, 45)
    ]
    assert all(row.tight for row in table.rows)
    # monotone: c_eh strictly down, c_hm strictly up
    for prev, cur in zip(table.rows, table.rows[1:]):
        assert cur.c_eh < prev.c_eh
        assert cur.c_hm > prev.c_hm

def test_sweep_endpoints_match_reference_schemes():
    for n_h in range(4, 11):
        for s in range(1, n_h - 1):
            table = sweep_nu(50, n_h, s)
            assert table.rows[0].c_eh == Fraction(s + 1)
            assert table.rows[-1].c_eh == Fraction(n_h, n_h - s)

def test_sweep_measured_column():
    # n_e=5 >= C(4,1): the adversarial pattern attains the worst case, so the
    # measured column must equal the theoretical one exactly
    table = sweep_nu(5, 4, 1, measure=True, seed=2)
    assert len(table.rows) == 3
    for row in table.rows:
        assert row.tight
        assert row.measured == row.c_hm

def test_sweep_rejects_bad_range():
    with pytest.raises(ConfigurationError):
        sweep_nu(5, 4, 1, nu_range=range(1, 5))
    with pytest.raises(ConfigurationError, match="is empty"):
        sweep_nu(5, 4, 1, nu_range=range(3, 3))

def test_sweep_serializations():
    table = sweep_nu(50, 10, 2)
    csv_text = table.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "nu,c_eh_num,c_eh_den,c_hm_num,c_hm_den,tight,measured"
    assert lines[1] == "1,3,1,3,1,true,"
    assert lines[8] == "8,5,4,45,1,true,"
    data = table.to_dict()
    assert data["rows"][2]["c_eh"] == {"num": 5, "den": 3}
    assert data["rows"][2]["c_hm"] == {"num": 10, "den": 1}

def test_verify_scheme_default_parameters_pass():
    report = verify_scheme(n_e=5, n_h=4, s=1, trials=10, seed=0)
    assert report.passed
    names = [c.name for c in report.checks]
    # all three nu values, five checks each
    assert len(names) == 15
    assert any("mds_minors" in n for n in names)
    data = report.to_dict()
    assert data["passed"] is True
    assert all(c["passed"] for c in data["checks"])


def test_verify_scheme_decodes_from_drawn_slot_subsets_past_the_cap(monkeypatch):
    # C(12, 6) = 924 slot subsets, more than DECODABILITY_SUBSETS
    calls = []
    decode_from = mds.decode_from

    def counting(code, positions, symbols):
        calls.append(positions)
        return decode_from(code, positions, symbols)

    monkeypatch.setattr(mds, "decode_from", counting)
    report = verify_scheme(n_e=3, n_h=12, s=6, nu=6, trials=2)
    assert report.passed, report.to_dict()
    assert len(calls) == sim.DECODABILITY_SUBSETS


def test_verify_scheme_reports_a_group_that_reads_an_erased_link(monkeypatch):
    # a doctored plan groups every layer as if nothing were erased, so the
    # helpers outside each layer's one cover read erased links
    seen = []
    round_plan = aggregate.RoundPlan

    def doctored(eps, params):
        seen.append(eps)
        return round_plan(np.zeros_like(eps), params)

    monkeypatch.setattr(aggregate, "RoundPlan", doctored)
    # the rounds would fail on the same plan; only the plan checks run
    monkeypatch.setattr(sim, "run_round", lambda scenario, round_index: SimpleNamespace(passed=True))
    report = verify_scheme(n_e=5, n_h=4, s=1, nu=2, trials=3, seed=0)
    checks = {c.name: c for c in report.checks}
    assert [name for name, c in checks.items() if not c.passed] == ["[nu=2] availability"]
    found = re.fullmatch(
        r"trial (\d+): layer (\d+) group \((\d+),\) uses an erased link to helper (\d+)",
        checks["[nu=2] availability"].detail,
    )
    t, layer, cover, j = map(int, found.groups())
    helpers = SchemeParams(p=24, n_e=5, n_h=4, s=1, nu=2).layer_map[layer]
    assert cover == helpers[0] and j in helpers[1:]
    assert seen[t][:, j].any()


def test_verify_scheme_reports_counts_that_disagree_with_the_emitters_table(monkeypatch):
    # count_groups counts one entry too many for helper 0, which the
    # message-row table's cross-check refuses
    count_groups = aggregate.count_groups

    def miscounted(cover, params):
        counts = count_groups(cover, params)
        counts.m_j[:, 0] += 1
        return counts

    monkeypatch.setattr(aggregate, "count_groups", miscounted)
    # the rounds would fail on the same plan; only the plan checks run
    monkeypatch.setattr(sim, "run_round", lambda scenario, round_index: SimpleNamespace(passed=True))
    report = verify_scheme(n_e=5, n_h=4, s=1, nu=2, trials=3, seed=0)
    checks = {c.name: c for c in report.checks}
    assert [name for name, c in checks.items() if not c.passed] == ["[nu=2] double_count"]
    # every trial fails; the first is named, as availability names its first
    assert re.fullmatch(
        r"trial 0: plan emission count broken: helper 0 emits \d+ entries, "
        r"count_groups counts m_j = \d+",
        checks["[nu=2] double_count"].detail,
    )


def test_verify_scheme_records_a_round_that_fails_in_a_stage(monkeypatch):
    # the same miscount also breaks every round, which raises StageFailure
    count_groups = aggregate.count_groups

    def miscounted(cover, params):
        counts = count_groups(cover, params)
        counts.m_j[:, 0] += 1
        return counts

    monkeypatch.setattr(aggregate, "count_groups", miscounted)
    report = verify_scheme(n_e=5, n_h=4, s=1, nu=2, trials=3, seed=0)
    checks = {c.name: c for c in report.checks}
    failed = [name for name, c in checks.items() if not c.passed]
    assert failed == ["[nu=2] double_count", "[nu=2] end_to_end"]
    scenario = Scenario(p=16, n_e=5, n_h=4, s=1, nu=2, seed=0)
    erased = sim.erasure.erased_sets(sim._round_erasure(scenario, 0))
    found = re.fullmatch(
        r"round 0: stage (\w+): plan emission count broken: helper 0 emits \d+ entries, "
        r"count_groups counts m_j = \d+ \(erasures (.+)\)",
        checks["[nu=2] end_to_end"].detail,
    )
    assert found and found[2] == str(erased)
    with pytest.raises(StageFailure, match=f"^{found[1]}: plan emission count broken"):
        run_round(scenario, round_index=0)


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_scheme_rejects_nonpositive_trials(trials):
    with pytest.raises(ConfigurationError, match="trials must be a positive integer"):
        verify_scheme(n_e=5, n_h=4, s=1, trials=trials)


@pytest.mark.parametrize(
    "call",
    [
        lambda seed: verify_scheme(n_e=5, n_h=4, s=1, seed=seed),
        lambda seed: sweep_nu(5, 4, 1, measure=True, seed=seed),
    ],
    ids=["verify_scheme", "sweep_nu"],
)
@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_a_bad_seed_is_refused_before_any_work(call, seed, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("work started before the seed was checked")

    monkeypatch.setattr(sim.mds, "make_generator", work)
    monkeypatch.setattr(sim.master, "cost_worst_case", work)
    with pytest.raises(ConfigurationError, match=f"^seed must be a non-negative integer, got {seed!r}$"):
        call(seed)
