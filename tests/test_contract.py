"""The calls roundbench's map measures: every target it names exists in
layeragg, and planning reaches aggregate.plan_layer once per layer of
each erasure matrix, so its plan_useful_ratio stays 1.0 and no layer of a
traced operation goes unmeasured."""

import importlib
import json
from pathlib import Path

import numpy as np

from layeragg import aggregate, master
from layeragg.client import SchemeParams
from layeragg.erasure import sample_uniform

MAP = Path(__file__).resolve().parents[1] / "roundbench" / "map.json"


def counting_plan_layer(monkeypatch) -> list:
    calls = []
    plan_layer = aggregate.plan_layer

    def counting(*args, **kwargs):
        calls.append(args[0])
        return plan_layer(*args, **kwargs)

    monkeypatch.setattr(aggregate, "plan_layer", counting)
    return calls


def test_a_round_plan_plans_each_layer_once(monkeypatch):
    calls = counting_plan_layer(monkeypatch)
    params = SchemeParams(p=53760, n_e=50, n_h=10, s=2, nu=4)
    plan = aggregate.RoundPlan(sample_uniform(50, 10, 2, 7), params)
    plan.helper_index, plan.decode_patterns, plan.m_j
    assert calls == list(range(params.layers))


def test_monte_carlo_plans_each_layer_once_per_trial(monkeypatch):
    calls = counting_plan_layer(monkeypatch)
    params = SchemeParams(p=120, n_e=7, n_h=6, s=2, nu=2)
    master.cost_average(params, mode="monte_carlo", trials=3, seed=np.random.default_rng(1))
    assert calls == list(range(params.layers)) * 3


def test_every_map_target_resolves_to_a_callable():
    layers = json.loads(MAP.read_text())["layers"]
    assert layers
    for layer in layers:
        module, _, path = layer["target"].partition(":")
        assert module.split(".")[0] == "layeragg", layer["name"]
        target = importlib.import_module(module)
        for name in path.split("."):
            target = getattr(target, name)
        assert callable(target), layer["name"]
