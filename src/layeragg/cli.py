"""Command-line interface: encode, simulate, sweep, verify.

Exit codes: 0 success, 1 verification or decode failure, 2 usage or
configuration error, 3 refusal (enumeration or estimated memory above
its cap).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import erasure, master, mds, sim
from .client import (
    SchemeParams,
    check_memory,
    encode_client,
    format_layer_grid,
    load_gradient,
    random_gradient,
)
from .errors import CapExceededError, ConfigurationError
from .gf import GF, check_count, check_non_negative

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--field-bits", type=int, default=8, choices=(4, 8, 16))
    parser.add_argument("--output", type=Path, default=None, help="write here instead of stdout")
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default=None,
        help="each command honours only some values: encode prints JSON for json, else "
        "text; simulate adds its JSON report for json; sweep prints JSON for json, else "
        "CSV; verify always prints JSON",
    )


def _non_negative(value, source: str) -> int:
    """value, an int or a decimal string, as a non-negative integer, else a
    ConfigurationError naming source."""
    text = str(value).strip()
    return check_non_negative(int(text) if text.isdecimal() else value, source)


def _default_seed(args) -> int:
    if args.seed is not None:
        return _non_negative(args.seed, "--seed")
    return _non_negative(os.environ.get("LAYERAGG_SEED", "0"), "LAYERAGG_SEED")


def _emit(args, text: str) -> None:
    if args.output is not None:
        path = args.output
        if not path.is_absolute():
            path = Path(os.environ.get("LAYERAGG_OUTDIR", ".")) / path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_encode(args) -> int:
    _non_negative(args.edge_index, "--edge-index")
    params = SchemeParams(p=args.p, n_e=args.n_e, n_h=args.n_h, s=args.s, nu=args.nu)
    fld = GF(m=args.field_bits)
    check_memory(params, fld, grid=True)
    code = mds.make_generator(fld, params.nu, params.s)
    if args.gradient == "random":
        rng = np.random.default_rng(np.random.SeedSequence([_default_seed(args), args.edge_index]))
        g = random_gradient(rng, fld, params.p)
    elif args.gradient == "zero":
        g = np.zeros(params.p, dtype=fld.dtype)
    else:
        g = load_gradient(args.gradient, fld, p=params.p)
    arr = encode_client(g, params, code)
    grid = format_layer_grid(params)
    layers = params.layer_map
    payload = {
        "params": {"p": params.p, "n_h": params.n_h, "s": params.s, "nu": params.nu,
                   "L": params.layers, "b": params.b, "d": params.d},
        "edge_index": args.edge_index,
        "grid": grid,
        "columns": [arr.column(j).tolist() for j in range(params.n_h)],
        "column_layers": [list(layers.column_layers(j)) for j in range(params.n_h)],
    }
    if args.format == "json" or args.output is not None:
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        print(grid)
        print()
        for j in range(params.n_h):
            col = arr.column(j)
            print(f"column {j} (layers {list(layers.column_layers(j))}): "
                  + " ".join("".join(f"{v:0{fld.element_bytes * 2}x}" for v in row) for row in col))
    return EXIT_OK


def _scenario_from_args(args) -> sim.Scenario:
    if args.scenario is not None:
        scenario = sim.load_scenario(args.scenario)
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=_non_negative(args.seed, "--seed"))
        return scenario
    for name in ("p", "n_e", "n_h", "s", "nu"):
        if getattr(args, name) is None:
            raise ConfigurationError(f"--{name.replace('_', '-')} is required without --scenario")
    return sim.Scenario(
        p=args.p,
        n_e=args.n_e,
        n_h=args.n_h,
        s=args.s,
        nu=args.nu,
        field_bits=args.field_bits,
        erasures={"kind": args.erasures},
        gradients={"kind": "random"},
        seed=_default_seed(args),
    )


def _cmd_simulate(args) -> int:
    check_count(args.rounds, "--rounds")
    scenario = _scenario_from_args(args)
    results = sim.run_scenario(scenario, rounds=args.rounds)
    records = []
    failed = 0
    for r in results:
        chm = r.report.c_hm_realized
        line = (
            f"round {r.round_index}: {'pass' if r.passed else 'FAIL'}  "
            f"C_EH={r.report.c_eh.numerator}/{r.report.c_eh.denominator}  "
            f"C_HM(eps)={chm.numerator}/{chm.denominator}"
        )
        print(line)
        records.append(
            {
                "round": r.round_index,
                "passed": r.passed,
                "erasures": erasure.erased_sets(r.eps),
                "cost": r.report.to_dict(),
            }
        )
        failed += 0 if r.passed else 1
    if args.output is not None or args.format == "json":
        _emit(args, json.dumps({"scenario": scenario.to_dict(), "rounds": records}, indent=2) + "\n")
    if failed:
        print(
            f"{failed}/{len(results)} rounds failed; replay with seed {scenario.seed}",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_sweep(args) -> int:
    nu_range = None
    if args.nu_min is not None or args.nu_max is not None:
        lo = args.nu_min if args.nu_min is not None else 1
        hi = args.nu_max if args.nu_max is not None else args.n_h - args.s
        nu_range = range(lo, hi + 1)
    table = sim.sweep_nu(
        args.n_e,
        args.n_h,
        args.s,
        nu_range=nu_range,
        measure=args.measure,
        field_bits=args.field_bits,
        seed=_default_seed(args),
    )
    if args.format == "json":
        _emit(args, json.dumps(table.to_dict(), indent=2) + "\n")
    else:
        _emit(args, table.to_csv())
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = sim.verify_scheme(
        args.n_e,
        args.n_h,
        args.s,
        nu=args.nu,
        trials=args.trials,
        seed=_default_seed(args),
        field_bits=args.field_bits,
    )
    payload = report.to_dict()
    if args.brute_force:
        for v in ([args.nu] if args.nu else range(1, args.n_h - args.s + 1)):
            params = SchemeParams(
                p=max(args.n_e, 1), n_e=args.n_e, n_h=args.n_h, s=args.s, nu=v
            )
            found = master.cost_worst_case(params, mode="brute_force")
            theorem = master.cost_worst_case(params, mode="theorem")
            bound = theorem.value  # min(n_e, alpha) in both of the theorem's branches
            ok = found.value <= bound and (not theorem.tight or found.value == bound)
            payload.setdefault("brute_force", {})[str(v)] = {
                "worst": found.to_dict(),
                "theorem": theorem.to_dict(),
                "bound": int(bound),
                "consistent": ok,
            }
            if not ok:
                payload["passed"] = False
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if payload["passed"] else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layeragg",
        description="Layered MDS coded gradient aggregation: encoder, simulator, cost sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode one edge's gradient and dump the array")
    enc.add_argument("--p", type=int, required=True, help="gradient length in field symbols")
    enc.add_argument("--n-h", dest="n_h", type=int, required=True)
    enc.add_argument("--s", type=int, required=True)
    enc.add_argument("--nu", type=int, required=True)
    enc.add_argument("--n-e", dest="n_e", type=int, default=1)
    enc.add_argument("--gradient", default="random",
                     help="'random', 'zero', or a path (.json array / raw little-endian)")
    enc.add_argument("--edge-index", type=int, default=0)
    _common_flags(enc)
    enc.set_defaults(fn=_cmd_encode)

    simp = sub.add_parser("simulate", help="run full rounds and report pass/fail plus costs")
    simp.add_argument("--scenario", type=Path, default=None, help="scenario JSON file")
    simp.add_argument("--rounds", type=int, default=1)
    simp.add_argument("--p", type=int, default=None)
    simp.add_argument("--n-e", dest="n_e", type=int, default=None)
    simp.add_argument("--n-h", dest="n_h", type=int, default=None)
    simp.add_argument("--s", type=int, default=None)
    simp.add_argument("--nu", type=int, default=None)
    simp.add_argument("--erasures", choices=("uniform", "worst_case"), default="uniform")
    _common_flags(simp)
    simp.set_defaults(fn=_cmd_simulate)

    swp = sub.add_parser("sweep", help="emit the per-nu cost tradeoff table")
    swp.add_argument("--n-e", dest="n_e", type=int, required=True)
    swp.add_argument("--n-h", dest="n_h", type=int, required=True)
    swp.add_argument("--s", type=int, required=True)
    swp.add_argument("--nu-min", type=int, default=None)
    swp.add_argument("--nu-max", type=int, default=None)
    swp.add_argument("--measure", action="store_true",
                     help="also simulate each nu under the adversarial pattern")
    _common_flags(swp)
    swp.set_defaults(fn=_cmd_sweep)

    ver = sub.add_parser("verify", help="run the structural property suite")
    ver.add_argument("--n-e", dest="n_e", type=int, default=5)
    ver.add_argument("--n-h", dest="n_h", type=int, default=4)
    ver.add_argument("--s", type=int, default=1)
    ver.add_argument("--nu", type=int, default=None)
    ver.add_argument("--trials", type=int, default=50)
    ver.add_argument("--brute-force", action="store_true",
                     help="cross-check the worst case by exhaustive enumeration")
    _common_flags(ver)
    ver.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except sim.StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
