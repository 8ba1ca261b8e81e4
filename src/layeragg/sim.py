"""Scenario orchestration: full encode/erase/aggregate/decode rounds, the
nu sweep producing the cost tradeoff table, and the scheme verifier.

Links are modeled purely by the erasure matrix; there is no transport.
All randomness flows from the scenario seed through named sub-streams,
so any failing round is replayable from the scenario file alone.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field as dc_field, fields
from fractions import Fraction
from itertools import repeat
from math import comb
from pathlib import Path
from typing import Iterator

import numpy as np

from . import aggregate, erasure, master, mds
from .client import (
    SchemeParams,
    check_memory,
    edges_per_batch,
    encode_client,
    load_gradient,
    random_gradient,
)
from .errors import ConfigurationError, ProtocolError
from .gf import GF, check_count, check_non_negative, is_integer

_GRADIENT_STREAM = 0
_ERASURE_STREAM = 1
# verify_scheme decodes each layer from every nu-subset of slots, or from
# this many drawn ones when there are more (mds.slot_subsets)
DECODABILITY_SUBSETS = 256


class StageFailure(RuntimeError):
    """A pipeline stage failed; .stage names it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage


def _must(ok: bool, name: str, what: str) -> None:
    """ConfigurationError, naming the field, unless ok."""
    if not ok:
        raise ConfigurationError(f"{name} must be {what}")


_REQUIRED = ("p", "n_e", "n_h", "s", "nu")
# One rule per key of a scenario or of its erasures or gradients. The ranges
# of the integers are SchemeParams' and GF's, and _check_rows reads a
# matrix's rows against the params.
_RULES = {
    **dict.fromkeys(_REQUIRED, lambda v, name: _must(is_integer(v), name, "an integer")),
    "seed": lambda v, name: _must(is_integer(v) and v >= 0, name, "a non-negative integer"),
    "field_bits": lambda v, name: _must(is_integer(v), name, "an integer"),
    "field_poly": lambda v, name: _must(v is None or is_integer(v), name, "an integer or null"),
    "rounds": check_count,
    "path": lambda v, name: _must(isinstance(v, str), name, "a string"),
}
# The keys each kind of erasures and gradients takes besides "kind", in the
# order they are checked, and those it requires, as Scenario's docstring lists.
_KINDS = {
    "erasures": {
        "matrix": (("rows", "rounds"), {"rows"}),
        "uniform": (("seed", "rounds"), set()),
        "worst_case": (("rounds",), set()),
        "exhaustive": ((), set()),
    },
    "gradients": {
        "random": (("seed",), set()),
        "file": (("path",), {"path"}),
        "zero": ((), set()),
    },
}


def _check_spec(spec, name: str) -> None:
    """Check erasures or gradients: a dict of a known kind, with the keys
    that kind requires and none it does not take, each passing its rule."""
    kinds = _KINDS[name]
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError(f"scenario field '{name}' needs a 'kind'")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigurationError(
            f"scenario field '{name}.kind' must be one of {sorted(kinds)}, got {kind!r}"
        )
    takes, required = kinds[kind]
    for key in spec:
        if key != "kind" and key not in takes:
            raise ConfigurationError(
                f"scenario field {f'{name}.{key}'!r} is not taken by the {kind!r} kind"
            )
    for key in takes:
        if key not in spec:
            if key in required:
                raise ConfigurationError(f"scenario field '{name}.{key}' is missing")
        elif key in _RULES:
            _RULES[key](spec[key], f"scenario field '{name}.{key}'")


@dataclass(frozen=True)
class Scenario:
    """A self-contained experiment description (JSON round-trippable).

    erasures: {"kind": "matrix", "rows": [[...], ...]} | {"kind": "uniform"[, "seed": n]}
              | {"kind": "worst_case"} | {"kind": "exhaustive"}
              (all but exhaustive take an optional "rounds": n >= 1)
    gradients: {"kind": "random"[, "seed": n]} | {"kind": "file", "path": p}
               | {"kind": "zero"}

    Every field is checked when the scenario is built, and a fault raises
    ConfigurationError naming it. A scenario is frozen: change one with
    dataclasses.replace, which checks again. Mutating its erasures or
    gradients dict after construction is unsupported.
    """

    p: int
    n_e: int
    n_h: int
    s: int
    nu: int
    field_bits: int = 8
    erasures: dict = dc_field(default_factory=lambda: {"kind": "uniform"})
    gradients: dict = dc_field(default_factory=lambda: {"kind": "random"})
    seed: int = 0
    field_poly: int | None = None

    def __post_init__(self):
        for name in (*_REQUIRED, "seed", "field_bits", "field_poly"):
            _RULES[name](getattr(self, name), f"scenario field '{name}'")
        for name in _KINDS:
            _check_spec(getattr(self, name), name)
        self.params()
        self.field()
        if self.erasures["kind"] == "matrix":
            _check_rows(self.erasures["rows"], self)

    def params(self) -> SchemeParams:
        return SchemeParams(p=self.p, n_e=self.n_e, n_h=self.n_h, s=self.s, nu=self.nu)

    def field(self) -> GF:
        return GF(m=self.field_bits, poly=self.field_poly)

    def to_dict(self) -> dict:
        out = asdict(self)  # copies the spec dicts, which the scenario keeps checked
        if self.field_poly is None:
            del out["field_poly"]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Checks what only JSON gets wrong (not an object, a missing or
        unknown field); the constructor checks the rest."""
        if not isinstance(data, dict):
            raise ConfigurationError("scenario must be a JSON object")
        for name in _REQUIRED:
            if name not in data:
                raise ConfigurationError(f"scenario field '{name}' is missing")
        known = {f.name for f in fields(cls)}
        for name in data:
            if name not in known:
                raise ConfigurationError(f"scenario field {name!r} is not recognized")
        return cls(**data)


def _check_rows(rows, scenario: Scenario) -> None:
    """Check a matrix kind's rows: n_e lists of helper indices in
    [0, n_h), each erasing at most s helpers."""
    name = "scenario field 'erasures.rows'"
    if not isinstance(rows, list) or len(rows) != scenario.n_e:
        got = f"{len(rows)} rows" if isinstance(rows, list) else repr(rows)
        raise ConfigurationError(f"{name} must be a list of n_e = {scenario.n_e} rows, got {got}")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ConfigurationError(f"{name}: row {i} must be a list of helper indices, got {row!r}")
    try:
        eps = erasure.from_erased_sets(rows, scenario.n_h)
        erasure.validate(eps, scenario.n_e, scenario.n_h, scenario.s)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{name}: {exc}") from None


def load_scenario(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    return Scenario.from_dict(data)


def _stream_rng(seed: int, stream: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, round_index]))


def _file_gradient(scenario: Scenario) -> np.ndarray | None:
    """The file kind's gradient, read and checked; None for the other kinds."""
    spec = scenario.gradients
    if spec["kind"] != "file":
        return None
    return load_gradient(spec["path"], scenario.field(), p=scenario.p)


def _round_gradients(
    scenario: Scenario, field: GF, round_index: int, loaded: np.ndarray | None
) -> Iterator[np.ndarray]:
    """One length-p gradient per edge, each drawn when it is asked for (the
    zero and file kinds give one array every time)."""
    spec = scenario.gradients
    if spec["kind"] == "zero":
        return repeat(np.zeros(scenario.p, dtype=field.dtype), scenario.n_e)
    if spec["kind"] == "file":
        if loaded is None:
            loaded = _file_gradient(scenario)
        return repeat(loaded, scenario.n_e)
    rng = _stream_rng(spec.get("seed", scenario.seed), _GRADIENT_STREAM, round_index)
    return (random_gradient(rng, field, scenario.p) for _ in range(scenario.n_e))


def _round_erasure(scenario: Scenario, round_index: int) -> np.ndarray:
    spec = scenario.erasures
    if spec["kind"] == "matrix":
        return erasure.from_erased_sets(spec["rows"], scenario.n_h)
    if spec["kind"] == "worst_case":
        return erasure.worst_case_pattern(scenario.n_e, scenario.n_h, scenario.s)
    rng = _stream_rng(spec.get("seed", scenario.seed), _ERASURE_STREAM, round_index)
    return erasure.sample_uniform(scenario.n_e, scenario.n_h, scenario.s, rng)


@dataclass
class RoundResult:
    round_index: int
    passed: bool
    decoded: np.ndarray
    reference: np.ndarray
    report: master.CostReport
    eps: np.ndarray
    eh_symbols_per_edge: int
    hm_symbols: int


def run_round(
    scenario: Scenario,
    round_index: int = 0,
    eps: np.ndarray | None = None,
    gradient: np.ndarray | None = None,
) -> RoundResult:
    """One full pipeline pass: the decode is compared with the direct sum,
    and the symbol counts are the account stage's cost_realized report.

    eps, when given, is any array-like (n_e, n_h) 0/1 matrix; it is checked
    in the validate stage instead of the scenario's own erasures. gradient,
    when given, is the file kind's gradient already read; otherwise the
    gradients stage reads the file.
    """

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StageFailure:
            raise  # a draw inside the encode stage names its own stage
        except Exception as exc:
            raise StageFailure(name, exc) from exc

    params = scenario.params()
    fld = scenario.field()
    code = stage("setup", mds.make_generator, fld, params.nu, params.s)

    if eps is None:
        eps = stage("setup", _round_erasure, scenario, round_index)

    eps = stage("validate", erasure.validate, eps, params.n_e, params.n_h, params.s)

    plan = stage("plan", aggregate.RoundPlan, eps, params)

    # The edges go in batches of edges_per_batch. A batch's gradients are
    # drawn one at a time, each added to the reference and placed in one
    # reused buffer, where one parity product encodes them all; then each
    # edge's codeword, a view of the buffer, is folded into the helpers'
    # sums. Every edge sends every cell, links to erased helpers included.
    draws = stage("gradients", _round_gradients, scenario, fld, round_index, gradient)
    reference = np.zeros(params.p, dtype=fld.dtype)

    def drawn(count):
        for _ in range(count):
            g = stage("gradients", next, draws)
            np.bitwise_xor(reference, g, out=reference)
            yield g
            del g  # before the next draw, so one gradient is alive

    sums = stage("aggregate", aggregate.GroupSums, plan, fld)
    batch, size = edges_per_batch(params, fld), (params.nu + params.s) * params.layers * params.d
    buffer = np.empty(min(batch, params.n_e) * size, dtype=fld.dtype)
    for start in range(0, params.n_e, batch):
        count = min(batch, params.n_e - start)
        out = buffer[: count * size].reshape(params.nu + params.s, -1)
        arrays = stage("encode", encode_client, drawn(count), params, code, out=out)
        for i, array in enumerate(arrays, start):
            stage("deliver", sums.fold, i, array.codeword)

    emitted = (aggregate.aggregate_helper(j, sums, plan, fld) for j in range(params.n_h))
    messages = stage("aggregate", list, emitted)

    decoded = stage("decode", master.decode_global, messages, plan, code)

    report = stage("account", master.cost_realized, plan)

    return RoundResult(
        round_index=round_index,
        passed=bool(np.array_equal(decoded, reference)),
        decoded=decoded,
        reference=reference,
        report=report,
        eps=eps,
        eh_symbols_per_edge=report.eh_symbols_per_edge,
        hm_symbols=report.hm_symbols,
    )


def run_scenario(scenario: Scenario, rounds: int = 1) -> list[RoundResult]:
    """Run the requested number of rounds (or every matrix when exhaustive).

    A rounds count inside the erasure spec overrides the argument. A
    scenario whose arrays client.check_memory estimates above its cap
    raises CapExceededError before anything is allocated. The code is
    built and a gradient file is read once, before round 0, so a code
    the field cannot hold, or a bad or missing file, raises
    ConfigurationError or OSError rather than failing a round.
    """
    check_count(rounds, "rounds")
    rounds = scenario.erasures.get("rounds", rounds)
    check_memory(scenario.params(), scenario.field())
    mds.make_generator(scenario.field(), scenario.nu, scenario.s)
    gradient = _file_gradient(scenario)
    if scenario.erasures["kind"] == "exhaustive":
        matrices = enumerate(erasure.enumerate_all(scenario.n_e, scenario.n_h, scenario.s))
    else:
        matrices = zip(range(rounds), repeat(None))
    return [run_round(scenario, round_index=r, eps=eps, gradient=gradient) for r, eps in matrices]


# -- tradeoff sweep ----------------------------------------------------------


@dataclass
class TradeoffRow:
    """One nu of a sweep. A field declared Fraction prints exactly, as
    {"num", "den"}; the measured cost, a Fraction too, prints as a float."""

    nu: int
    c_eh: Fraction
    c_hm: Fraction
    tight: bool
    measured: Fraction | None = None

    def to_dict(self) -> dict:
        return {
            f.name: {"num": v.numerator, "den": v.denominator} if f.type == "Fraction"
            else float(v) if isinstance(v, Fraction) else v
            for f in fields(self)
            for v in [getattr(self, f.name)]
        }


@dataclass
class TradeoffTable:
    n_e: int
    n_h: int
    s: int
    rows: list[TradeoffRow]

    def to_csv(self) -> str:
        """to_dict's rows, one line each: a {"num", "den"} field as its _num
        and _den columns, a bool in lower case, None as an empty cell."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            f.name + part
            for f in fields(TradeoffRow)
            for part in (("_num", "_den") if f.type == "Fraction" else ("",))
        )
        for row in self.rows:
            cells = []
            for v in row.to_dict().values():
                v = str(v).lower() if isinstance(v, bool) else v
                cells += v.values() if isinstance(v, dict) else [v]
            writer.writerow(cells)
        return buf.getvalue()

    def to_dict(self) -> dict:
        return dict(vars(self), rows=[row.to_dict() for row in self.rows])


def _nu_range(n_e: int, n_h: int, s: int, nu_range=None) -> list:
    """The nu of nu_range, or every nu in [1, n_h-s] when None, listed as
    each passes SchemeParams' checks with n_e, n_h and s, before any work.
    A parameter a SchemeParams rejects, or no nu at all, raises ConfigurationError."""
    if nu_range is None:
        nu_range = range(1, n_h - s + 1)
    nus = [SchemeParams(p=1, n_e=n_e, n_h=n_h, s=s, nu=nu).nu for nu in nu_range]
    if not nus:
        raise ConfigurationError(f"nu range {nu_range!r} is empty; n_h-s = {n_h - s}")
    return nus


def sweep_nu(
    n_e: int,
    n_h: int,
    s: int,
    nu_range=None,
    measure: bool = False,
    field_bits: int = 8,
    seed: int = 0,
) -> TradeoffTable:
    """Theoretical cost tradeoff per nu; optionally run_scenario one round
    under the adversarial pattern and record the measured helper-to-master cost."""
    check_non_negative(seed, "seed")
    rows = []
    for nu in _nu_range(n_e, n_h, s, nu_range):
        scenario = Scenario(
            p=comb(n_h, nu + s) * nu, n_e=n_e, n_h=n_h, s=s, nu=nu, field_bits=field_bits,
            erasures={"kind": "worst_case"}, seed=seed,
        )
        worst = master.cost_worst_case(scenario.params(), mode="theorem")
        measured = None
        if measure:
            (result,) = run_scenario(scenario)
            if not result.passed:
                raise StageFailure("sweep", AssertionError(f"decode failed at nu={nu}"))
            measured = result.report.c_hm_realized
        rows.append(
            TradeoffRow(
                nu=nu,
                c_eh=Fraction(nu + s, nu),
                c_hm=worst.value,
                tight=worst.tight,
                measured=measured,
            )
        )
    return TradeoffTable(n_e=n_e, n_h=n_h, s=s, rows=rows)


# -- verification suite -------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str | None = None

    to_dict = asdict


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}


def _check_layer_decodability(
    code: mds.MdsCode, params: SchemeParams, rng, tag: str
) -> CheckResult:
    d = 4
    message = rng.integers(0, code.field.order, size=(params.nu, d), dtype=code.field.dtype)
    codeword = mds.encode(code, message)
    for subset in mds.slot_subsets(params.nu + params.s, params.nu, DECODABILITY_SUBSETS, rng):
        got = mds.decode_from(code, list(subset), codeword[list(subset)])
        if not np.array_equal(got, message):
            return CheckResult(
                tag + "layer_decodability",
                False,
                f"slots {subset} fail to recover the message",
            )
    return CheckResult(tag + "layer_decodability", True)


def verify_scheme(
    n_e: int,
    n_h: int,
    s: int,
    nu: int | None = None,
    trials: int = 50,
    seed: int = 0,
    field_bits: int = 8,
) -> VerificationReport:
    """Run the structural property suite and return per-check results.

    Covers: MDS minors, any-nu per-layer decodability, the availability
    invariant (no emitted sum touches an erased edge), the double-count
    identities between per-helper, per-layer and per-cell emission counts, and
    end-to-end decoding against the direct gradient sum (a round that fails
    in a stage fails it too, naming the stage). Each check names its first
    failing trial or round. Every nu in
    [1, n_h-s] is checked when nu is None; a nu outside it, or an empty
    range, raises ConfigurationError before any check runs.
    """
    check_count(trials, "trials")
    check_non_negative(seed, "seed")
    checks: list[CheckResult] = []
    for v in _nu_range(n_e, n_h, s, None if nu is None else [nu]):
        tag = f"[nu={v}] "
        scenario = Scenario(
            p=comb(n_h, v + s) * v * 2, n_e=n_e, n_h=n_h, s=s, nu=v, field_bits=field_bits, seed=seed
        )
        params = scenario.params()
        code = mds.make_generator(scenario.field(), v, s)
        rng = np.random.default_rng(np.random.SeedSequence([seed, v]))

        bad = mds.singular_minors(code)
        checks.append(
            CheckResult(
                tag + "mds_minors",
                not bad,
                None if not bad else f"singular column sets: {bad[:5]}",
            )
        )
        checks.append(_check_layer_decodability(code, params, rng, tag))

        avail = CheckResult(tag + "availability", True)
        double = CheckResult(tag + "double_count", True)
        for t in range(trials):
            eps = erasure.sample_uniform(n_e, n_h, s, rng)
            plan = aggregate.RoundPlan(eps, params)
            # (L, n_e, nu+s): the emitters of each edge's group in each layer
            group_of = plan.group_of
            emitters = plan.emitters[group_of]
            erased = (emitters >= 0) & (eps[np.arange(n_e)[:, None], emitters] != 0)
            if avail.passed and erased.any():
                layer, i, slot = np.argwhere(erased)[0].tolist()
                g = group_of[layer, i]
                images = [image for lp in plan.layer_plans for image in lp.images]
                avail = CheckResult(
                    tag + "availability",
                    False,
                    f"trial {t}: layer {layer} group {images[g]} "
                    f"uses an erased link to helper {emitters[layer, i, slot]}",
                )
            try:
                plan.feeds
                master.cost_realized(plan)
            except ProtocolError as exc:
                if double.passed:
                    double = CheckResult(tag + "double_count", False, f"trial {t}: {exc}")
        checks.append(avail)
        checks.append(double)

        e2e = CheckResult(tag + "end_to_end", True)
        for t in range(trials):
            try:
                result = run_round(scenario, round_index=t)
            except StageFailure as exc:
                detail, eps = f"stage {exc}", _round_erasure(scenario, t)
            else:
                if result.passed:
                    continue
                detail, eps = "decoded sum disagrees with the direct sum", result.eps
            e2e = CheckResult(
                tag + "end_to_end", False, f"round {t}: {detail} (erasures {erasure.erased_sets(eps)})"
            )
            break
        checks.append(e2e)
    return VerificationReport(checks=checks)
