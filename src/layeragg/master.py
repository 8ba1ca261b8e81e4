"""Master-side reconstruction of the gradient sum and exact cost accounting.

The master derives every helper's emission order from the erasure
matrix, through the same RoundPlan the helpers use, so the aggregated
messages need no tags. The plan's decode_patterns hold, per emitter-slot
pattern, the rows of the concatenated messages that carry each group's
nu entries. The code is systematic, G = [I | A], so a group's entry at a
message slot is already its message symbol: the master XORs those rows
straight into the per-layer totals, and solves only for the r <= s
message slots that the pattern's cover holds, from its r parity entries
(one r x r solve per pattern, shared by every group with that pattern).
Then it inverts the partition layout.

Costs are exact rationals. The primary c_eh / c_hm_realized fields are
normalized by the padded gradient length, which makes the closed forms
(nu+s)/nu and mean(beta) hold identically; the *_declared variants
divide by the declared p instead and differ only when padding occurred.
Cost analysis plans a chunk of matrices at a time, stacked into one
block of rows, every layer of them in one plan_layer call
(aggregate.cover_ids), counts them together by RoundPlan's own rule
(aggregate.count_groups), and costs each matrix's counts. Monte Carlo
draws each chunk's block with one sample_uniform call, which is exact
because sample_uniform draws row after row. It plans each distinct row
of a chunk once, since a row's cover ids depend on that row alone.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import islice
from math import comb
from typing import Iterable, Iterator

import numpy as np

from . import aggregate
from .aggregate import GroupCounts, RoundPlan
from .client import SchemeParams, check_code, reassemble_gradient
from .erasure import (
    enumerate_all,
    enumerate_row_sets,
    omega_size,
    sample_uniform,
    seeded_rng,
    worst_case_pattern,
)
from .errors import ConfigurationError, ProtocolError
from .gf import check_count
from .mds import MdsCode, invert_matrix


def _fields_json(result) -> dict:
    """A cost result's fields, in declaration order, each Fraction as
    {"num", "den", "float"}: the to_dict of every cost result."""
    return {
        f.name: {"num": v.numerator, "den": v.denominator, "float": float(v)}
        if isinstance(v := getattr(result, f.name), Fraction) else v
        for f in fields(result)
    }


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

    to_dict = _fields_json


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

    to_dict = _fields_json


@dataclass(frozen=True)
class AverageCost:
    """Mean helper-to-master cost over Omega(s), exact or estimated."""

    value: Fraction | float
    stderr: float | None
    mode: str
    trials: int | None

    to_dict = _fields_json


def _stacked(entries: list[np.ndarray]) -> np.ndarray:
    """The rows of entries, concatenated. A round's messages are already
    consecutive C-contiguous row slices of one array, GroupSums.rows, in
    helper order; that array is then read in place instead of copied."""
    rows = entries[0].base
    if not (
        isinstance(rows, np.ndarray) and rows.flags.c_contiguous
        and rows.dtype == entries[0].dtype
        and rows.shape == (sum(map(len, entries)), entries[0].shape[1])
    ):
        return np.concatenate(entries)
    address = rows.__array_interface__["data"][0]
    for part in entries:
        if (part.base is not rows or not part.flags.c_contiguous
                or part.__array_interface__["data"][0] != address):
            return np.concatenate(entries)
        address += part.nbytes
    return rows


def decode_global(messages, plan: RoundPlan, code: MdsCode) -> np.ndarray:
    """Recover the sum of all edge gradients from the helper messages.

    messages is a sequence of AggregatedMessage indexed by helper. Every
    (layer, group) is an MDS erasure decode at the layer slots of its nu
    emitters, and groups that share those slots are decoded side by side.
    The generator is systematic, G = [I | A], so of a pattern's slots the
    k message slots K carry the message symbols y_K = m_K, which are XORed
    straight into the layer sums. Its r = nu - k parity slots Q carry
    y_Q = A[K, Q]^T m_K + A[M, Q]^T m_M, where M are the r message slots
    of its cover, so m_M = (A[M, Q]^T)^-1 (y_Q + A[K, Q]^T y_K). The
    re-encode A[K, Q]^T y_K is one GF.matmul_fixed by all s rows of A^T's
    columns K: each of its words of coefficients is one the encoder's
    fill_parity reads, so its tables are already cached. The solve is one
    r x r invert_matrix and one GF.matmul; a pattern with r = 0 needs
    neither. A[M, Q] is a square submatrix of A, so it is nonsingular
    (see mds).

    The rows to gather come from plan.decode_patterns. A message whose
    sender slot, symbol width, dtype or length (against the plan's m_j) is
    wrong raises ProtocolError; a code whose (nu, s) is not the plan's
    raises ConfigurationError. Each group has exactly nu emitters, so
    there is no redundancy: a corrupted symbol *value* cannot be detected
    and decodes into a wrong sum.
    """
    params = plan.params
    field = code.field
    check_code(code, params)
    if len(messages) != params.n_h:
        raise ProtocolError(f"need {params.n_h} helper messages, got {len(messages)}")
    for j, (msg, m_j) in enumerate(zip(messages, plan.m_j.tolist())):
        if msg.helper != j:
            raise ProtocolError(f"slot {j} holds the message of helper {msg.helper}")
        if msg.entries.ndim != 2 or msg.entries.shape[1] != params.d:
            raise ProtocolError(
                f"helper {j} sent entries of shape {msg.entries.shape}, "
                f"expected ({m_j}, {params.d})"
            )
        if msg.entries.dtype != field.dtype:
            raise ProtocolError(
                f"helper {j} sent entries of dtype {msg.entries.dtype}, "
                f"expected {field.dtype}"
            )
        if len(msg) != m_j:
            raise ProtocolError(f"helper {j} sent {len(msg)} entries, schedule has {m_j}")

    nu = params.nu
    parity = code.generator[:, nu:].T  # (s, nu): A^T, the encoder's coefficients
    stacked = _stacked([m.entries for m in messages])
    layer_sums = np.zeros((params.layers, nu, params.d), dtype=field.dtype)
    by_slot = layer_sums.transpose(1, 0, 2)
    for slots, (layers, rows) in plan.decode_patterns.items():
        k = bisect_left(slots, nu)  # slots ascend: K = slots[:k], Q = slots[k:]
        kept, parities = list(slots[:k]), [q - nu for q in slots[k:]]
        if k:
            message = stacked[rows[:k]]
            by_slot[np.ix_(kept, layers)] ^= message
        if not parities:
            continue
        residue = stacked[rows[k:]].reshape(len(parities), -1)
        if k:
            product = field.matmul_fixed(parity[:, kept], message.reshape(k, -1))
            for row, q in zip(residue, parities):
                row ^= product[q]
            del product  # freed before the solve allocates its output
        solved = [t for t in range(nu) if t not in kept]
        solver = invert_matrix(field, parity[np.ix_(parities, solved)])
        decoded = field.matmul(solver, residue)
        by_slot[np.ix_(solved, layers)] ^= decoded.reshape(len(solved), -1, params.d)
    return reassemble_gradient(layer_sums, params)


def cost_realized(plan: RoundPlan | GroupCounts) -> CostReport:
    """Exact costs for one erasure matrix, counted from its round plan or
    from its GroupCounts: anything with params, (L,) beta and (n_h,) m_j.

    The helper-to-master count is derived per helper (sum of m_j) and
    cross-checked against the per-layer identity sum(m_j) = nu * sum(beta).
    """
    params = plan.params
    m_total = int(plan.m_j.sum())
    beta_total = int(plan.beta.sum())
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


def _chunk(params: SchemeParams) -> int:
    """Matrices per cost chunk: as many as fit in aggregate.COUNT_CELLS
    (edge, layer, slot) cells, and at least one, which bounds the memory
    of a count whatever the number of matrices."""
    cells = params.n_e * params.layers * (params.nu + params.s)
    return max(1, aggregate.COUNT_CELLS // cells)


def _blocks(matrices: Iterable[np.ndarray], params: SchemeParams) -> Iterator[np.ndarray]:
    """The matrices, in order, stacked into blocks of _chunk(params)."""
    matrices = iter(matrices)
    while batch := list(islice(matrices, _chunk(params))):
        yield np.concatenate(batch)


def _costs(blocks: Iterable[np.ndarray], params: SchemeParams) -> Iterator[CostReport]:
    """cost_realized of each matrix, in order, from (k * n_e, n_h) blocks
    of k <= _chunk(params) stacked matrices.

    Cover ids are row-wise, so one cover_ids call plans every layer of
    every matrix of a block, with one plan_layer call. It plans only the
    block's distinct rows, keyed by their packed bits (any n_h), and
    each stacked row reads its ids back through the unique inverse: a
    block of strict rows holds at most C(n_h, s) distinct ones. A row
    heavier than s would be reported by its number among the distinct
    rows; no caller passes one, since every matrix here is enumerated
    or sampled from Omega(s). cover_ids plans a matrix of more than
    aggregate.COUNT_CELLS cells a slice of layers at a time.
    """
    for stacked in blocks:
        keys = np.packbits(stacked != 0, axis=1)
        _, first, inverse = np.unique(
            keys.view(np.dtype((np.void, keys.shape[1]))).ravel(),
            return_index=True,
            return_inverse=True,
        )
        cover = aggregate.cover_ids(stacked[first], params)[inverse]
        counts = aggregate.count_groups(cover.reshape(-1, params.n_e, cover.shape[1]), params)
        for beta, m_j in zip(counts.beta, counts.m_j):
            yield cost_realized(GroupCounts(params, beta, m_j))


def cost_worst_case(params: SchemeParams, mode: str = "theorem") -> WorstCaseCost:
    """max over Omega(s) of the realized helper-to-master cost.

    theorem mode is closed-form: C(nu+s, s) when n_e >= C(n_h, s), which
    the adversarial pattern attains (tight); otherwise the bound
    min(n_e, alpha), with the adversarial pattern's cost as lower_bound,
    and tight only when the adversarial pattern attains the bound. Another
    matrix may attain it when tight is False.

    brute_force returns the exact maximum, taken over one matrix per set
    of k = min(n_e, C(n_h, s)) distinct rows (erasure.enumerate_row_sets).
    That is exact for two reasons. A layer's groups are the distinct
    covers of its rows' footprints, so beta_l, and the cost, depend only
    on the set of distinct rows. Adding a row never removes a cover, so
    the cost never falls when the set grows. Every matrix of Omega(s) has
    at most k distinct rows, a set that grows to a set of exactly k rows
    costing at least as much, and each such set is the row set of some
    matrix of Omega(s), since k <= n_e. Refuses, as enumerate_all does,
    when |Omega(s)| is above the enumeration cap.
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
        blocks = _blocks(enumerate_row_sets(params.n_e, params.n_h, params.s), params)
        best = max(report.c_hm_realized for report in _costs(blocks, params))
        return WorstCaseCost(value=best, tight=True, lower_bound=best, mode=mode)
    raise ConfigurationError(f"unknown mode {mode!r}; use theorem or brute_force")


def cost_average(
    params: SchemeParams,
    mode: str = "exhaustive",
    trials: int = 1000,
    seed=0,
) -> AverageCost:
    """Mean realized cost over Omega(s): exact enumeration or Monte Carlo.

    Monte Carlo draws trials matrices from seed, a numpy Generator or a
    non-negative integer, a cost chunk of k matrices at a time: one
    sample_uniform call of k * n_e rows, costed as drawn. That block is
    exactly the k matrices that k calls of n_e rows would draw one after
    another, and leaves the generator in the same state, since
    sample_uniform's matrix is bit for bit one rng.choice per row.
    """
    if mode == "exhaustive":
        blocks = _blocks(enumerate_all(params.n_e, params.n_h, params.s), params)
        total = sum((report.c_hm_realized for report in _costs(blocks, params)), Fraction(0))
        count = omega_size(params.n_e, params.n_h, params.s)
        return AverageCost(value=total / count, stderr=None, mode=mode, trials=None)
    if mode == "monte_carlo":
        check_count(trials, "trials")
        rng = seeded_rng(seed)
        chunk = _chunk(params)
        blocks = (
            sample_uniform(params.n_e * min(chunk, trials - done), params.n_h, params.s, rng)
            for done in range(0, trials, chunk)
        )
        samples = np.fromiter(
            (float(report.c_hm_realized) for report in _costs(blocks, params)),
            dtype=float,
            count=trials,
        )
        stderr = float(samples.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        return AverageCost(
            value=float(samples.mean()), stderr=stderr, mode=mode, trials=trials
        )
    raise ConfigurationError(f"unknown mode {mode!r}; use exhaustive or monte_carlo")
