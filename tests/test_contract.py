"""The calls roundbench's map measures: every target it names exists in
layeragg and is reached on each workload that expects it. Planning
reaches aggregate.plan_layer once per erasure matrix in a round, and
once per chunk of matrices in cost analysis, each call planning every
layer (aggregate.cover_ids) of the round's rows or of the chunk's
distinct rows, so plan_useful_ratio stays defined: L on a round, and L
times the matrices of a chunk in cost analysis. Monte Carlo draws each
chunk with one erasure.sample_uniform call. The field
kernels keep the call shape that roundbench's argument counters read."""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import layeragg
from layeragg import aggregate, master
from layeragg.client import SchemeParams
from layeragg.erasure import sample_uniform

MAP = json.loads((Path(__file__).resolve().parents[1] / "roundbench" / "map.json").read_text())


def counting(monkeypatch, target: str, read=lambda args: args[0] if args else None) -> list:
    """Record read(args), by default the first argument, of every call to
    a "module:attr" or "module:Class.attr" target. A method is wrapped on
    its class, a function at every binding site inside layeragg, so a
    module that did `from .x import f` cannot call f past the count."""
    module, _, path = target.partition(":")
    owner_path, _, attr = path.rpartition(".")
    owner = importlib.import_module(module)
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    calls = []

    def count(*args, **kwargs):
        calls.append(read(args))
        return original(*args, **kwargs)

    if owner_path:
        sites = [(owner, attr)]
    else:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "layeragg"]
        sites = [(m, key) for m in modules for key, v in list(vars(m).items()) if v is original]
    for site, key in sites:
        monkeypatch.setattr(site, key, count)
    return calls


def counting_plan_layer(monkeypatch) -> list:
    return counting(monkeypatch, "layeragg.aggregate:plan_layer")


def test_a_round_plan_plans_each_layer_once(monkeypatch):
    # every layer in one plan_layer call; the per-layer plans, which no
    # round reads, are planned one call per layer when first read
    calls = counting_plan_layer(monkeypatch)
    params = SchemeParams(p=53760, n_e=50, n_h=10, s=2, nu=4)
    plan = aggregate.RoundPlan(sample_uniform(50, 10, 2, 7), params)
    plan.feeds, plan.decode_patterns, plan.m_j, plan.schedules
    assert calls == [0]
    plan.layer_plans
    assert calls == [0] + list(range(params.layers))


def test_monte_carlo_plans_each_layer_once_per_chunk_and_costs_each_trial(monkeypatch):
    # each call's layer and footprint rows: one per distinct row of the
    # chunk and layer, never one per stacked row
    calls = counting(monkeypatch, "layeragg.aggregate:plan_layer", lambda args: (args[0], len(args[2])))
    costed = counting(monkeypatch, "layeragg.master:cost_realized")
    sampled = counting(monkeypatch, "layeragg.erasure:sample_uniform")  # rows drawn per call
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)

    def distinct_rows(trials, chunk):
        rng = np.random.default_rng(1)
        stacked = np.concatenate([sample_uniform(7, 6, 2, rng) for _ in range(trials)])
        rows = [len(np.unique(stacked[at : at + chunk * 7], axis=0)) for at in range(0, len(stacked), chunk * 7)]
        assert sum(rows) < len(stacked)
        return rows

    master.cost_average(params, mode="monte_carlo", trials=3, seed=np.random.default_rng(1))
    assert calls == [(0, rows * params.layers) for rows in distinct_rows(3, 3)]
    assert len(costed) == 3
    assert sampled == [3 * 7]
    # chunks of two matrices: 5 trials make 3 chunks
    cells = params.n_e * params.layers * (params.nu + params.s)
    monkeypatch.setattr(aggregate, "COUNT_CELLS", 2 * cells + 1)
    calls.clear()
    costed.clear()
    sampled.clear()
    master.cost_average(params, mode="monte_carlo", trials=5, seed=1)
    assert calls == [(0, rows * params.layers) for rows in distinct_rows(5, 2)]
    assert len(calls) == 3
    assert len(costed) == 5
    assert sampled == [2 * 7, 2 * 7, 7]


def test_layers_wider_than_count_cells_are_planned_in_slices(monkeypatch):
    # a matrix of more than COUNT_CELLS cells is one chunk, planned in
    # slices of as many layers as fit, at least one
    calls = counting_plan_layer(monkeypatch)
    params = SchemeParams(p=60, n_e=7, n_h=6, s=2, nu=2)  # 15 layers of 4 slots
    eps = sample_uniform(7, 6, 2, 3)
    whole = aggregate.RoundPlan(eps, params).cover
    for cells, starts in [(4 * 7 * 4, [0, 4, 8, 12]), (1, list(range(15)))]:
        monkeypatch.setattr(aggregate, "COUNT_CELLS", cells)
        calls.clear()
        assert np.array_equal(aggregate.RoundPlan(eps, params).cover, whole)
        assert calls == starts
        calls.clear()
        assert master.cost_average(params, "monte_carlo", trials=2, seed=5).trials == 2
        assert calls == starts * 2


def test_every_map_target_resolves_to_a_callable():
    layers = MAP["layers"]
    assert layers
    for layer in layers:
        module, _, path = layer["target"].partition(":")
        assert module.split(".")[0] == "layeragg", layer["name"]
        target = importlib.import_module(module)
        for name in path.split("."):
            target = getattr(target, name)
        assert callable(target), layer["name"]


def test_every_layer_expected_on_cost_mc_is_called_by_a_monte_carlo_call(monkeypatch):
    """A cost path that skips a map target would leave that layer
    unmeasured on the traced cost_mc run."""
    spec = MAP["workloads"]["cost_mc"]
    expected = [layer for layer in MAP["layers"] if "cost_mc" in layer["expected_on"]]
    assert expected
    calls = {layer["name"]: counting(monkeypatch, layer["target"]) for layer in expected}
    params = layeragg.SchemeParams(**spec["params"])
    layeragg.cost_average(params, "monte_carlo", trials=spec["trials_per_call"], seed=7)
    assert [name for name, seen in calls.items() if not seen] == []


ROUND_SHAPES = {
    # small shapes of the round workloads: a strict matrix at m = 16, and a
    # lax one (rows of weight 2, 1 and 0) at m = 8
    "layers_gf16": (
        dict(p=300, n_e=6, n_h=6, s=2, nu=2, field_bits=16, seed=1),
        sample_uniform(6, 6, 2, 1),
    ),
    "long_gf8": (
        dict(p=200, n_e=5, n_h=5, s=2, nu=1, field_bits=8, seed=2),
        np.array([[1, 0, 0, 1, 0], [0, 0, 1, 0, 0], [0] * 5, [0, 1, 1, 0, 0], [0] * 5]),
    ),
}


@pytest.mark.parametrize("workload", sorted(ROUND_SHAPES))
def test_every_layer_expected_on_a_round_workload_is_called_by_a_small_round(monkeypatch, workload):
    """A round path that skips a map target would leave that layer
    unmeasured on the traced run of the workload: GF.matmul, say, which
    the edge encodes no longer call, so only decode solves and
    make_generator reach it."""
    assert MAP["workloads"][workload]["kind"] == "round"
    expected = [layer for layer in MAP["layers"] if workload in layer["expected_on"]]
    assert expected
    calls = {layer["name"]: counting(monkeypatch, layer["target"]) for layer in expected}
    fields, eps = ROUND_SHAPES[workload]
    assert layeragg.run_round(layeragg.Scenario(**fields), 0, eps=eps).passed
    assert [name for name, seen in calls.items() if not seen] == []


def test_field_kernels_keep_the_call_shape_of_the_benchmark_counters():
    """roundbench's tracer calls a kernel's counter with the kernel's own
    arguments, so a parameter added to GF.matmul or GF.xor_sum would make
    the traced run raise TypeError."""
    path = Path(__file__).resolve().parents[1] / "roundbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("roundbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    kernels = [layer for layer in MAP["layers"] if "counter" in layer]
    assert {layer["target"] for layer in kernels} == {"layeragg.gf:GF.matmul", "layeragg.gf:GF.xor_sum"}
    for layer in kernels:
        target = getattr(layeragg.GF, layer["target"].rpartition(".")[2])
        counter = tracer.COUNTERS[layer["counter"]]
        assert len(inspect.signature(target).parameters) == len(inspect.signature(counter).parameters) - 1
    traced = tracer.Tracer("layeragg", kernels)
    traced.install()
    try:
        fields, eps = ROUND_SHAPES["layers_gf16"]
        assert layeragg.run_round(layeragg.Scenario(**fields), 0, eps=eps).passed
    finally:
        traced.uninstall()
    summary = traced.summary()
    assert summary["gf.matmul"]["calls"] and summary["gf.matmul"]["counts"]["mults"]
    assert summary["gf.xor_sum"]["calls"] and summary["gf.xor_sum"]["counts"]["ops"]


def test_decode_from_makes_the_calls_the_tracer_self_test_counts(monkeypatch):
    """roundbench's tracer self-test builds a (3, 2) code and decodes
    positions [0, 1, 2] with mds.decode_from, then pins two invert_matrix
    calls and 27 + 45 GF.matmul mults. A decode change that altered these
    calls would fail the benchmark's own self-test."""
    inverted = counting(monkeypatch, "layeragg.mds:invert_matrix", lambda args: np.shape(args[1]))
    products = counting(
        monkeypatch, "layeragg.gf:GF.matmul", lambda args: (np.shape(args[1]), np.shape(args[2]))
    )
    code = layeragg.make_generator(layeragg.GF(8), 3, 2)
    assert (inverted, products) == ([(3, 3)], [((3, 3), (3, 5))])
    message = layeragg.mds.decode_from(code, [0, 1, 2], code.generator.T[:3])
    assert (inverted, products) == ([(3, 3)] * 2, [((3, 3), (3, 5)), ((3, 3), (3, 3))])
    assert np.array_equal(message, np.eye(3, dtype=np.uint8))
