"""Self-test of the round benchmark.

    python3 -m pytest roundbench -q

Short runs at a fixed seed must print every metric named in
BENCHMARK.json and fail no check, and the oracle must agree with the
program's link counts. Call counts that a performance change is meant
to move (such as plan_layer calls per round) are deliberately not pinned.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layeragg  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MAP = json.loads((HERE / "map.json").read_text())
SEED = 7


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "roundbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_matches_map():
    assert [w["name"] for w in BENCH["workloads"]] == list(MAP["workloads"])
    layer_metrics = [
        f"{layer['name']}.{metric}" for layer in MAP["layers"] for metric in layer["metrics"]
    ]
    derived = [d["name"] for d in MAP["derived"]]
    assert [m["name"] for m in BENCH["per_layer"]] == layer_metrics + derived
    assert set(MAP["end_to_end"]) - {"fail_frac"} == {m["name"] for m in BENCH["end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(MAP["workloads"]))
def test_run_prints_every_metric_and_fails_nothing(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert m["name"] in printed
    assert "fail_frac" in printed
    values = [m["value"] for m in result["metrics"].values()]
    if trace:
        assert None not in values, "a layer expected on this workload is unmeasured"
    else:
        assert all(v > 0 for v in values)


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "roundbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("cost_mc", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", ["layers_gf16", "long_gf8"])
def test_oracle_matches_program_link_counts(workload):
    wl = worker.RoundWorkload(workload, MAP["workloads"][workload], SEED)
    inputs = wl.inputs(1)
    _, eps = inputs
    result = wl.call(inputs)
    assert wl.check(inputs, result).ok
    sh = wl.shape
    helpers = layeragg.LayerMap(sh.n_h, sh.nu + sh.s)
    planned = [layeragg.plan_layer(l, h, eps, sh.s).beta for l, h in enumerate(helpers)]
    assert oracle.layer_betas(eps, sh) == planned
    assert result.hm_symbols == sh.hm_symbols(planned)
    # One group more than the oracle counts is a failed round.
    extra = dataclasses.replace(result, hm_symbols=result.hm_symbols + sh.nu * sh.d)
    assert not wl.check(inputs, extra).ok


def test_lax_inputs_include_rows_below_s():
    wl = worker.RoundWorkload("long_gf8", MAP["workloads"]["long_gf8"], SEED)
    weights = [wl.inputs(r)[1].sum(axis=1) for r in range(4)]
    assert any((w < wl.shape.s).any() for w in weights)
    assert all((w <= wl.shape.s).all() for w in weights)


def test_cost_oracle_replays_the_sampler_stream():
    wl = worker.CostWorkload("cost_mc", MAP["workloads"]["cost_mc"], SEED)
    call_seed = wl.inputs(0)
    result = wl.call(call_seed)
    assert wl.check(call_seed, result).ok
    nudged = dataclasses.replace(result, value=result.value * (1 + 1e-9))
    assert not wl.check(call_seed, nudged).ok


def test_tracer_wraps_every_binding_site_and_restores_them():
    original = layeragg.mds.invert_matrix
    tracer = Tracer("layeragg", MAP["layers"])
    tracer.install()
    start = time.perf_counter()
    try:
        assert layeragg.master.invert_matrix is layeragg.mds.invert_matrix
        assert layeragg.master.invert_matrix is not original
        code = layeragg.make_generator(layeragg.GF(8), 3, 2)
        layeragg.mds.decode_from(code, [0, 1, 2], code.generator.T[:3])
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - start
    assert layeragg.master.invert_matrix is original
    summary = tracer.summary()
    assert summary["mds.invert_matrix"]["calls"] == 2
    assert summary["mds.make_generator"]["calls"] == 1
    # (3, 3) x (3, 3) in decode_from and (3, 3) x (3, 5) in make_generator.
    assert summary["gf.matmul"]["counts"]["mults"] == 27 + 45
    # Self times partition the traced time, so they cannot add up to more.
    self_times = [s["self_s"] for s in summary.values()]
    assert min(self_times) >= 0 and sum(self_times) <= wall
