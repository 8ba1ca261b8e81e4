"""The calls roundbench's map measures: every target it names exists in
layeragg and is reached on each workload that expects it. Planning
reaches aggregate.plan_layer once per layer of each erasure matrix in a
round, and once per layer of each chunk of matrices in cost analysis,
so plan_useful_ratio stays defined."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np

import layeragg
from layeragg import aggregate, master
from layeragg.client import SchemeParams
from layeragg.erasure import sample_uniform

MAP = json.loads((Path(__file__).resolve().parents[1] / "roundbench" / "map.json").read_text())


def counting(monkeypatch, target: str) -> list:
    """Record the first argument of every call to a "module:attr" or
    "module:Class.attr" target. A method is wrapped on its class, a
    function at every binding site inside layeragg, so a module that did
    `from .x import f` cannot call f past the count."""
    module, _, path = target.partition(":")
    owner_path, _, attr = path.rpartition(".")
    owner = importlib.import_module(module)
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    calls = []

    def count(*args, **kwargs):
        calls.append(args[0] if args else None)
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
    calls = counting_plan_layer(monkeypatch)
    params = SchemeParams(p=53760, n_e=50, n_h=10, s=2, nu=4)
    plan = aggregate.RoundPlan(sample_uniform(50, 10, 2, 7), params)
    plan.helper_index, plan.decode_patterns, plan.m_j
    assert calls == list(range(params.layers))


def test_monte_carlo_plans_each_layer_once_per_chunk_and_costs_each_trial(monkeypatch):
    calls = counting_plan_layer(monkeypatch)
    costed = counting(monkeypatch, "layeragg.master:cost_realized")
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    master.cost_average(params, mode="monte_carlo", trials=3, seed=np.random.default_rng(1))
    assert calls == list(range(params.layers))
    assert len(costed) == 3
    # chunks of two matrices: 5 trials make 3 chunks
    cells = params.n_e * params.layers * (params.nu + params.s)
    monkeypatch.setattr(master, "COUNT_CELLS", 2 * cells + 1)
    calls.clear()
    costed.clear()
    master.cost_average(params, mode="monte_carlo", trials=5, seed=1)
    assert calls == list(range(params.layers)) * 3
    assert len(costed) == 5


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
