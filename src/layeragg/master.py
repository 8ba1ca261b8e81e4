"""Master-side reconstruction of the gradient sum and exact cost accounting.

The master derives every helper's emission order from the erasure
matrix, through the same RoundPlan the helpers use, so the aggregated
messages need no tags. The plan's decode_patterns hold, per emitter-slot
pattern, the rows of the concatenated messages that carry each group's
nu entries; the master gathers those rows once per pattern and
MDS-decodes them at the coordinates of the emitting helpers (one solve
per pattern, shared by every group with that pattern), sums the group
messages into per-layer totals, and inverts the partition layout.

Costs are exact rationals. The primary c_eh / c_hm_realized fields are
normalized by the padded gradient length, which makes the closed forms
(nu+s)/nu and mean(beta) hold identically; the *_declared variants
divide by the declared p instead and differ only when padding occurred.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .aggregate import RoundPlan
from .client import SchemeParams, reassemble_gradient
from .erasure import enumerate_all, omega_size, sample_uniform, worst_case_pattern
from .errors import ProtocolError
from .gf import is_integer
from .mds import MdsCode, invert_matrix


def _rational_dict(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator, "float": float(x)}


@dataclass(frozen=True)
class CostReport:
    """Exact communication costs for one erasure realization."""

    p: int
    p_padded: int
    eh_symbols_per_edge: int  # field symbols each edge sends across all helpers
    hm_symbols: int           # field symbols all helpers send the master
    c_eh: Fraction
    c_hm_realized: Fraction
    c_eh_declared: Fraction
    c_hm_realized_declared: Fraction

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "p_padded": self.p_padded,
            "eh_symbols_per_edge": self.eh_symbols_per_edge,
            "hm_symbols": self.hm_symbols,
            "c_eh": _rational_dict(self.c_eh),
            "c_hm_realized": _rational_dict(self.c_hm_realized),
            "c_eh_declared": _rational_dict(self.c_eh_declared),
            "c_hm_realized_declared": _rational_dict(self.c_hm_realized_declared),
        }


@dataclass(frozen=True)
class WorstCaseCost:
    """Worst-case helper-to-master cost.

    value bounds the cost of every matrix in Omega(s). lower_bound is the
    cost of a matrix that the mode evaluated, and tight means that matrix
    attains the bound (lower_bound == value). In theorem mode that matrix
    is the adversarial pattern, so tight=False leaves open whether some
    other matrix attains value; brute_force mode is always tight.
    """

    value: Fraction
    tight: bool
    lower_bound: Fraction
    mode: str

    def to_dict(self) -> dict:
        return {
            "value": _rational_dict(self.value),
            "tight": self.tight,
            "lower_bound": _rational_dict(self.lower_bound),
            "mode": self.mode,
        }


@dataclass(frozen=True)
class AverageCost:
    """Mean helper-to-master cost over Omega(s), exact or estimated."""

    value: Fraction | float
    stderr: float | None
    mode: str
    trials: int | None

    def to_dict(self) -> dict:
        value = (
            _rational_dict(self.value)
            if isinstance(self.value, Fraction)
            else float(self.value)
        )
        return {
            "value": value,
            "stderr": self.stderr,
            "mode": self.mode,
            "trials": self.trials,
        }


def decode_global(messages, plan: RoundPlan, code: MdsCode) -> np.ndarray:
    """Recover the sum of all edge gradients from the helper messages.

    messages is a sequence of AggregatedMessage indexed by helper. Every
    (layer, group) is an MDS erasure decode at the layer slots of its nu
    emitters. Groups that share those slots share one solve: their rows
    are gathered side by side and decoded with one field matmul.

    The rows to gather come from plan.decode_patterns. A message whose
    sender slot, symbol width or length (against its schedule) is wrong
    raises ProtocolError. Each group has exactly nu emitters, so there is
    no redundancy: a corrupted symbol *value* cannot be detected and
    decodes into a wrong sum.
    """
    params = plan.params
    if len(messages) != params.n_h:
        raise ProtocolError(f"need {params.n_h} helper messages, got {len(messages)}")
    for j, (msg, schedule) in enumerate(zip(messages, plan.schedules)):
        if msg.helper != j:
            raise ProtocolError(f"slot {j} holds the message of helper {msg.helper}")
        if msg.entries.ndim != 2 or msg.entries.shape[1] != params.d:
            raise ProtocolError(
                f"helper {j} sent entries of shape {msg.entries.shape}, "
                f"expected ({len(schedule)}, {params.d})"
            )
        if len(msg) != len(schedule):
            raise ProtocolError(
                f"helper {j} sent {len(msg)} entries, schedule has {len(schedule)}"
            )

    field = code.field
    stacked = np.concatenate([m.entries for m in messages]).astype(
        field.dtype, copy=False
    )
    layer_sums = np.zeros((params.layers, params.nu, params.d), dtype=field.dtype)
    for slots, (layers, rows) in plan.decode_patterns.items():
        solver = invert_matrix(field, code.generator[:, list(slots)].T)
        decoded = field.matmul(solver, stacked[rows].reshape(params.nu, -1))
        layer_sums[layers] ^= decoded.reshape(
            params.nu, len(layers), params.d
        ).transpose(1, 0, 2)
    return reassemble_gradient(layer_sums, params)


def cost_realized(plan: RoundPlan) -> CostReport:
    """Exact costs for one erasure matrix, counted from its round plan.

    The helper-to-master count is derived per helper (sum of m_j) and
    cross-checked against the per-layer identity sum(m_j) = nu * sum(beta).
    """
    params = plan.params
    m_total = sum(len(schedule) for schedule in plan.schedules)
    beta_total = sum(lp.beta for lp in plan.layer_plans)
    if m_total != params.nu * beta_total:
        raise ProtocolError(
            f"plan double count broken: sum m_j = {m_total} != "
            f"nu * sum beta = {params.nu * beta_total}"
        )
    eh_symbols = params.n_h * params.b * params.d
    hm_symbols = m_total * params.d
    return CostReport(
        p=params.p,
        p_padded=params.p_padded,
        eh_symbols_per_edge=eh_symbols,
        hm_symbols=hm_symbols,
        c_eh=Fraction(eh_symbols, params.p_padded),
        c_hm_realized=Fraction(hm_symbols, params.p_padded),
        c_eh_declared=Fraction(eh_symbols, params.p),
        c_hm_realized_declared=Fraction(hm_symbols, params.p),
    )


def cost_worst_case(params: SchemeParams, mode: str = "theorem") -> WorstCaseCost:
    """max over Omega(s) of the realized helper-to-master cost.

    theorem mode is closed-form: C(nu+s, s) when n_e >= C(n_h, s), which
    the adversarial pattern attains (tight); otherwise the bound
    min(n_e, alpha), with the adversarial pattern's cost as lower_bound,
    and tight only when the adversarial pattern attains the bound. Another
    matrix may attain it when tight is False. brute_force enumerates
    Omega(s) and returns the exact maximum.
    """
    if mode == "theorem":
        bound = Fraction(min(params.n_e, params.alpha))
        star = cost_realized(
            RoundPlan(worst_case_pattern(params.n_e, params.n_h, params.s), params)
        ).c_hm_realized
        if params.n_e >= comb(params.n_h, params.s):
            if star != params.alpha:
                raise ProtocolError(
                    f"adversarial pattern costs {star}, the theorem says "
                    f"C(nu+s, s) = {params.alpha}"
                )
            return WorstCaseCost(
                value=Fraction(params.alpha), tight=True, lower_bound=star, mode=mode
            )
        return WorstCaseCost(
            value=bound, tight=star == bound, lower_bound=star, mode=mode
        )
    if mode == "brute_force":
        best = max(
            cost_realized(RoundPlan(eps, params)).c_hm_realized
            for eps in enumerate_all(params.n_e, params.n_h, params.s)
        )
        return WorstCaseCost(value=best, tight=True, lower_bound=best, mode=mode)
    raise ValueError(f"unknown mode {mode!r}; use theorem or brute_force")


def cost_average(
    params: SchemeParams,
    mode: str = "exhaustive",
    trials: int = 1000,
    seed=0,
) -> AverageCost:
    """Mean realized cost over Omega(s): exact enumeration or Monte Carlo."""
    if mode == "exhaustive":
        total = Fraction(0)
        for eps in enumerate_all(params.n_e, params.n_h, params.s):
            total += cost_realized(RoundPlan(eps, params)).c_hm_realized
        count = omega_size(params.n_e, params.n_h, params.s)
        return AverageCost(value=total / count, stderr=None, mode=mode, trials=None)
    if mode == "monte_carlo":
        if not is_integer(trials) or trials < 1:
            raise ValueError(f"trials must be a positive integer, got {trials!r}")
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        samples = np.empty(trials)
        for t in range(trials):
            eps = sample_uniform(params.n_e, params.n_h, params.s, rng)
            samples[t] = float(cost_realized(RoundPlan(eps, params)).c_hm_realized)
        stderr = float(samples.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        return AverageCost(
            value=float(samples.mean()), stderr=stderr, mode=mode, trials=trials
        )
    raise ValueError(f"unknown mode {mode!r}; use exhaustive or monte_carlo")
