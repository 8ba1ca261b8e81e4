"""Round benchmark for layeragg: one command, every metric by name and unit.

    python3 roundbench/run.py --workload layers_gf16 --seed 1 --seconds 20 --trace 0

Run it from the root of a layeragg checkout; it imports the package from
src/ and builds nothing. Workloads, metrics and bounds are listed in
BENCHMARK.json; roundbench/map.json says what each workload and metric
means and which layer should move which end-to-end metric on which
workload.

Each workload runs in fresh interpreters (worker.py). With --trace 0,
SETUPS interpreters are started one after another and timed from
process start through `import layeragg` and the first untimed operation;
the last one goes on to the timed closed loop. setup_s is the median of
those set-up times. With --trace 1 a single interpreter reports the
per-layer metrics of traced operations, alternating with untraced ones.

Every time is scaled by a calibration kernel (calib.py) timed next to it,
which cancels the drift of a shared host's speed; the uncalibrated
median is printed as well.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines above it repeat every
metric with its unit, the sample counts, fail_frac and the environment.
Spans of a traced run are written to roundbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # One caller on one thread: keep numpy's native thread pools at one.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _wait_line(proc: subprocess.Popen, deadline: float) -> bytes:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=max(deadline - time.monotonic(), 0.0)):
            raise WorkerError("worker did not finish set-up in time")
    return proc.stdout.readline()


def run_worker(args, parts: list[str], mode: str, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its calibrated set-up time and, in run mode, its payload."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
    ]
    kernel = calib.kernel_s(parts)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, bufsize=0)
    try:
        ready = _wait_line(proc, deadline)
        setup = (time.perf_counter() - start) * calib.reference_s(parts) / kernel
        if ready.strip() != b"READY":
            raise WorkerError(f"worker stopped before set-up ended (exit {proc.wait()})")
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker did not finish in time") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    if mode == "setup":
        return setup, None
    lines = rest.decode().strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return setup, json.loads(lines[-1])


def _fmt(value) -> str:
    return "unmeasured" if value is None else f"{value:.6g}"


def report(args, bench: dict, workload: dict, payload: dict, setups: list[float]) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = dict(payload["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    metrics = {}
    for m in spec:
        if m["name"] not in values:
            raise WorkerError(f"worker did not report {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    env = " ".join(f"{k}={v}" for k, v in payload["env"].items())
    print(f"roundbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env {env}")
    samples = " ".join(f"{k}={v}" for k, v in payload["samples"].items())
    print(f"samples {samples} units_per_op={payload['units_per_op']} setups={len(setups)}")
    for name, m in metrics.items():
        print(f"  {name:<36} {_fmt(m['value']):>14} {m['unit']}")
    if not args.trace:
        ops = values["ops_per_s"]
        if workload["kind"] == "round":
            p = workload["params"]
            print(f"  {'round_s_p50':<36} {_fmt(values['op_ms_p50'] / 1e3):>14} s")
            print(f"  {'agg_msym_per_s':<36} {_fmt(ops * p['n_e'] * p['p'] / 1e6):>14} Msym/s")
        else:
            print(f"  {'mc_trials_per_s':<36} {_fmt(ops):>14} 1/s")
        if "op_ms_quartiles" in payload:
            q1, _, q3 = payload["op_ms_quartiles"]
            print(f"  {'op_ms_q1..q3':<36} {_fmt(q1):>14} .. {_fmt(q3)} ms")
        print(f"  {'op_ms_p50 uncalibrated':<36} {_fmt(payload['wall_ms_p50']):>14} ms")
        print(f"  {'calibration kernel p50':<36} {_fmt(payload['kernel_ms_p50']):>14} ms"
              f" (reference {payload['kernel_reference_ms']:g} ms)")
        print(f"  {'setup_s samples':<36} {' '.join(_fmt(s) for s in setups)} s")
    else:
        for layer in payload.get("unmeasured", []):
            print(f"  unmeasured layer: {layer}")
        for layer, sites in payload.get("sites", {}).items():
            print(f"  wrapped {layer} at {', '.join(sites)}")
    fail_frac = payload["failed"] / payload["attempted"]
    print(f"  {'fail_frac':<36} {_fmt(fail_frac):>14} ({payload['failed']}/{payload['attempted']})")
    return {
        "correct": payload["failed"] == 0,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "layeragg" / "__init__.py").is_file():
        print(f"roundbench: no layeragg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = json.loads((HERE / "map.json").read_text())["workloads"][args.workload]
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    modes = ["setup"] * (SETUPS - 1) + ["run"] if not args.trace else ["run"]
    try:
        for mode in modes:
            setup, payload = run_worker(args, workload["calibration"], mode, deadline)
            setups.append(setup)
        result = report(args, bench, workload, payload, setups)
    except WorkerError as exc:
        print(f"roundbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
