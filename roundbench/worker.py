"""Run one roundbench workload in a fresh interpreter.

run.py starts this script once per set-up sample. It prints READY after
`import layeragg` and the first untimed operation; with --mode setup it
then exits. With --mode run it goes on to the closed loop, checks every
operation against the oracle and prints one JSON object of measurements.

With --trace 1 operations alternate between untraced and traced (the
span recorder installed), so the two sets give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import isclose
from pathlib import Path

import numpy as np

import layeragg
from layeragg import erasure

import calib
import oracle
from tracer import Tracer

HERE = Path(__file__).resolve().parent
MAP_PATH = HERE / "map.json"
MIN_OPS = 3

# Bound before any wrapper is installed, so the cost oracle's replay of
# the program's sampler never records spans.
_replay_sample = erasure.sample_uniform


@dataclass(frozen=True)
class Outcome:
    """What one checked operation sent, per unit of work (a round or a trial)."""

    ok: bool
    c_hm: float
    hm_symbols: float
    eh_symbols: int


class Workload:
    """One workload of map.json: subclasses give its inputs, its timed call and the check."""

    def __init__(self, name: str, spec: dict, seed: int):
        self.name = name
        self.shape = oracle.Shape(**spec["params"])
        self.element_bytes = -(-spec["field_bits"] // 8)
        self.calibration = spec["calibration"]
        self.key = [seed, zlib.crc32(name.encode())]


class RoundWorkload(Workload):
    """sim.run_round on erasure matrices generated from the workload seed."""

    def __init__(self, name: str, spec: dict, seed: int):
        super().__init__(name, spec, seed)
        self.lax = spec["erasures"] == "lax"
        scenario_seed = int(np.random.SeedSequence(self.key).generate_state(1)[0])
        self.scenario = layeragg.Scenario(
            **spec["params"], field_bits=spec["field_bits"], seed=scenario_seed
        )
        self.units_per_op = 1

    def inputs(self, r: int):
        sh = self.shape
        rng = np.random.default_rng(self.key + [r])
        eps = np.zeros((sh.n_e, sh.n_h), dtype=np.uint8)
        for row in eps:
            weight = int(rng.integers(0, sh.s + 1)) if self.lax else sh.s
            row[rng.choice(sh.n_h, size=weight, replace=False)] = 1
        return r, eps

    def call(self, inputs):
        r, eps = inputs
        return layeragg.run_round(self.scenario, r, eps=eps)

    def check(self, inputs, result) -> Outcome:
        _, eps = inputs
        sh = self.shape
        hm = sh.hm_symbols(oracle.layer_betas(eps, sh))
        ok = (
            result.passed
            and result.hm_symbols == hm
            and result.eh_symbols_per_edge == sh.eh_symbols_per_edge
            and result.report.c_hm_realized == Fraction(hm, sh.p_padded)
        )
        return Outcome(
            ok,
            float(result.report.c_hm_realized),
            result.hm_symbols,
            sh.n_e * result.eh_symbols_per_edge,
        )


class CostWorkload(Workload):
    """Monte Carlo cost_average, a fixed number of trials per call."""

    def __init__(self, name: str, spec: dict, seed: int):
        super().__init__(name, spec, seed)
        self.params = layeragg.SchemeParams(**spec["params"])
        self.units_per_op = spec["trials_per_call"]

    def inputs(self, k: int) -> int:
        return int(np.random.default_rng(self.key + [k]).integers(2**63))

    def call(self, call_seed: int):
        return layeragg.cost_average(
            self.params, mode="monte_carlo", trials=self.units_per_op, seed=call_seed
        )

    def check(self, call_seed: int, result) -> Outcome:
        """Replay the seeded sampler stream and average the oracle's costs."""
        sh = self.shape
        rng = np.random.default_rng(call_seed)
        costs = []
        ok = result.trials == self.units_per_op
        for _ in range(self.units_per_op):
            eps = _replay_sample(sh.n_e, sh.n_h, sh.s, rng)
            ok = ok and eps.shape == (sh.n_e, sh.n_h) and bool(np.all(eps.sum(axis=1) == sh.s))
            hm = sh.hm_symbols(oracle.layer_betas(eps, sh))
            costs.append(float(Fraction(hm, sh.p_padded)))
        value = float(result.value)
        ok = ok and isclose(value, float(np.mean(costs)), rel_tol=1e-12)
        return Outcome(ok, value, value * sh.p_padded, sh.n_e * sh.eh_symbols_per_edge)


@dataclass
class Loop:
    """Operations of one closed loop that returned, timed per unit of work.

    wall holds raw wall times; times holds them scaled by the calibration
    kernel timed just before and just after each operation.
    """

    times: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    kernel: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_op(wl: Workload, k: int, loop: Loop, tracer: Tracer | None = None) -> float | None:
    """One operation: generate inputs, time the call, check it.

    Returns the wall time per unit of work, or None when the call raised.
    """
    inputs = wl.inputs(k)
    if tracer is not None:
        tracer.op = k
    start = time.perf_counter()
    try:
        result = wl.call(inputs)
    except Exception:
        traceback.print_exc()
        result = None
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op = -1
    loop.attempted += 1
    outcome = None if result is None else wl.check(inputs, result)
    if outcome is None or not outcome.ok:
        loop.failed += 1
        print(f"roundbench: operation {k} failed its check", file=sys.stderr)
    if outcome is None:
        return None
    loop.outcomes.append(outcome)
    return elapsed / wl.units_per_op


def closed_loop(wl: Workload, seconds: float, tracer: Tracer | None = None) -> tuple[Loop, Loop]:
    """Run operations back to back, each starting when the last returned.

    With a tracer, every second operation runs traced, so the untraced and
    traced loops see the same drift of the machine. Returns both loops.
    """
    loops = (Loop(), Loop())
    need = (MIN_OPS, MIN_OPS if tracer else 0)
    reference = calib.reference_s(wl.calibration)
    deadline = time.perf_counter() + seconds
    before = calib.kernel_s(wl.calibration)
    k = 1
    while any(l.attempted < n for l, n in zip(loops, need)) or time.perf_counter() < deadline:
        traced = tracer is not None and k % 2 == 0
        loop = loops[traced]
        if traced:
            tracer.install()
            try:
                elapsed = run_op(wl, k, loop, tracer)
            finally:
                tracer.uninstall()
        else:
            elapsed = run_op(wl, k, loop)
        after = calib.kernel_s(wl.calibration)
        if elapsed is not None:
            loop.wall.append(elapsed)
            loop.kernel.append((before + after) / 2)
            loop.times.append(elapsed * reference / loop.kernel[-1])
        before = after
        k += 1
    if not all(l.times for l, n in zip(loops, need) if n):
        raise RuntimeError("no operation returned")
    return loops


def end_to_end(loop: Loop) -> dict:
    return {
        "op_ms_p50": statistics.median(loop.times) * 1e3,
        "ops_per_s": len(loop.times) / sum(loop.times),
        "c_hm_mean": statistics.fmean(o.c_hm for o in loop.outcomes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(wl: Workload, layers: list[dict], summary: dict, traced: Loop, plain: Loop) -> tuple[dict, list]:
    """Per-layer values per unit of work; None marks a layer left unmeasured.

    Self times are scaled by the traced loop's median calibration kernel
    time, like the end-to-end times.
    """
    units = traced.attempted * wl.units_per_op
    speed = calib.reference_s(wl.calibration) / statistics.median(traced.kernel)
    values, unmeasured = {}, []
    for layer in layers:
        s = summary[layer["name"]]
        expected = wl.name in layer["expected_on"]
        missing = not s["measured"] or (expected and s["calls"] == 0)
        if missing:
            unmeasured.append(layer["name"])
        raw = {"calls": s["calls"], "self_s": s["self_s"] * speed, **s["counts"]}
        for metric in layer["metrics"]:
            values[f"{layer['name']}.{metric}"] = None if missing else raw[metric] / units
    sh = wl.shape
    plan_calls = values["aggregate.plan_layer.calls"]
    values["aggregate.plan_useful_ratio"] = sh.layers / plan_calls if plan_calls else None
    hm = statistics.fmean(o.hm_symbols for o in traced.outcomes)
    values["link.eh_symbols"] = statistics.fmean(o.eh_symbols for o in traced.outcomes)
    values["link.hm_symbols"] = hm
    values["link.hm_bytes"] = hm * wl.element_bytes
    values["aggregate.beta_mean"] = hm / (sh.nu * sh.d * sh.layers)
    values["trace.overhead"] = statistics.median(traced.times) / statistics.median(plain.times)
    return values, unmeasured


def main(argv=None) -> int:
    spec_map = json.loads(MAP_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec_map["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    args = parser.parse_args(argv)

    src = (HERE.parent / "src").resolve()
    if src not in Path(layeragg.__file__).resolve().parents:
        print(f"roundbench: imported layeragg from {layeragg.__file__}, not {src}", file=sys.stderr)
        return 2

    spec = spec_map["workloads"][args.workload]
    kind = RoundWorkload if spec["kind"] == "round" else CostWorkload
    wl = kind(args.workload, spec, args.seed)
    warm_inputs = wl.inputs(0)
    warm_result = wl.call(warm_inputs)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    warm = Loop(attempted=1, failed=int(not wl.check(warm_inputs, warm_result).ok))

    out = {
        "env": {
            "backend": getattr(layeragg, "BACKEND", "unknown"),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "units_per_op": wl.units_per_op,
        "kernel_reference_ms": calib.reference_s(wl.calibration) * 1e3,
    }
    if args.trace:
        tracer = Tracer("layeragg", spec_map["layers"])
        plain, traced = closed_loop(wl, args.seconds, tracer)
        tracer.dump(HERE / "out" / f"spans_{args.workload}.npz")
        out["metrics"], out["unmeasured"] = per_layer(
            wl, spec_map["layers"], tracer.summary(), traced, plain
        )
        out["sites"] = tracer.sites
        out["samples"] = {"untraced": len(plain.times), "traced": len(traced.times)}
        loops = [warm, plain, traced]
    else:
        plain, _ = closed_loop(wl, args.seconds)
        out["metrics"] = end_to_end(plain)
        out["samples"] = {"timed": len(plain.times)}
        out["wall_ms_p50"] = statistics.median(plain.wall) * 1e3
        out["kernel_ms_p50"] = statistics.median(plain.kernel) * 1e3
        if len(plain.times) > 1:
            out["op_ms_quartiles"] = [q * 1e3 for q in statistics.quantiles(plain.times, n=4)]
        loops = [warm, plain]
    out["attempted"] = sum(loop.attempted for loop in loops)
    out["failed"] = sum(loop.failed for loop in loops)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
