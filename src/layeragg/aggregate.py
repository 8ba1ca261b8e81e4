"""Helper-side aggregation: per-layer cover ids, group sums, emitted messages.

Within a layer, an edge's footprint is the set of the layer's helpers
whose links from that edge failed. Each edge is covered by the
lexicographically smallest s-subset of the layer's helpers that contains
its footprint; edges sharing a cover form one group, and every helper
outside the cover emits that group's symbol sum. Covers are numbered in
lexicographic order, so a layer's plan is one cover id per edge and a
round's plan is one (n_e, L) array of them, looked up for every layer
at once (cover_ids), from which everything else is derived with array
operations. Helpers and the master derive
identical plans from the erasure matrix alone, so a message is its group
sums with no per-entry metadata; RoundPlan builds that plan once per
matrix for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from operator import lt
from typing import Mapping, NamedTuple

import numpy as np

from . import erasure
from .client import SchemeParams
from .errors import ConfigurationError, ProtocolError
from .gf import GF, is_integer

# Layers of at most this many slots read cover ids from one table over
# all 2^k footprint masks and cover slots from one over all C(k, s) ids;
# wider layers run the arithmetic that fills those tables on each lookup.
# A table lookup ORs the footprints' slot planes into masks, with no BLAS
# call. On a 2-vCPU x86 host the 10,500 footprints of one layers_gf16
# round (210 layers of 6 slots, one lookup) take ~60 us from the table
# (~100 us at k = 12) and 2-4.5 ms by rank, ~0.3 us a footprint at every
# k; building the table takes 2-3 ms and 1.7 MiB of transient memory at
# k = 12, and doubles with each slot beyond (54 ms and 36 MiB at k = 16),
# so up to 12 slots it is repaid within ~10,000 footprints, about one such
# round. Its ids fit int16 (C(12, 6) = 924), which makes stable sorts of
# them radix sorts.
TABLE_SLOTS = 12

# cover_ids looks up at most this many (row, layer slot) cells in one
# plan_layer call, and cost analysis counts chunks of at most this many
# (edge, layer, slot) cells: 2^20 bounds a call's footprints, cover ids
# and cover members, and the int64 temporaries of ranking layers wider
# than TABLE_SLOTS, to a few MiB, and holds 16 matrices of the cost_mc
# shape (50 edges, 210 layers of 6 slots).
COUNT_CELLS = 1 << 20

# GroupSums.fold sums an edge's fed cells in slices of at most this many
# bytes of cells, and at least one cell: a slice's cells, its rows and
# their sum then take at most 384 KiB, which stay in L2 from the gathers
# through the XOR to the scatter. On a 2-vCPU x86 host (2 MiB L2 a core),
# medians of interleaved whole long_gf8 rounds (168 cells of 6242 bytes an
# edge): over 80, one slice of ~1 MiB 38.4 ms, 2^16 36.1, 2^17 35.5 and
# 2^18 36.0 ms; over 60, 2^17 34.9 and 2^19 36.5 ms. 2^17 also keeps
# layers_gf16's 105 KiB of fed cells in one slice.
FOLD_BYTES = 1 << 17


class _Covers:
    """The s-subsets of a layer's k slots, numbered in lexicographic order.

    ids() maps (n, k) bool footprints to the id of each one's lexmin
    cover, the smallest s-subset containing it, or -1 for a footprint of
    more than s slots. members() maps ids back to (n, k) bool slot rows.
    slot_masks[t], while C(k, s) <= 64 (else None), sets bit c when cover
    c takes t, in the narrowest unsigned dtype of C(k, s) bits (count_groups).
    """

    def __init__(self, k: int, s: int):
        self.k, self.s = k, s
        # below[t, i]: the number of s-subsets that take slot t as member
        # i+1 after i smaller members, C(k-1-t, s-1-i); 0 once all s are in.
        # Ids past int64 are Python integers.
        wide = comb(k, s) > np.iinfo(np.int64).max
        self._below = np.array(
            [[comb(k - 1 - t, s - 1 - i) for i in range(s)] + [0] for t in range(k)],
            dtype=object if wide else np.int64,
        )
        self._ids = self._members = self.slot_masks = None
        if k <= TABLE_SLOTS:
            masks = np.arange(1 << k)[:, None] >> np.arange(k) & 1
            self._ids = self._rank(masks.astype(bool)).astype(np.int16)
            self._members = self._unrank(np.arange(comb(k, s)))
        if comb(k, s) <= 64:
            bits = np.left_shift(1, np.arange(comb(k, s), dtype=np.uint64))
            words = np.where(self.members(np.arange(len(bits))), bits[:, None], 0).sum(axis=0)
            self.slot_masks = words.astype(np.min_scalar_type(bits[-1]))

    def _rank(self, footprints: np.ndarray) -> np.ndarray:
        weight = footprints.sum(axis=1)
        free = ~footprints
        # the lexmin cover adds the s - weight smallest free slots
        cover = footprints | free & (np.cumsum(free, axis=1) <= (self.s - weight)[:, None])
        # a slot the cover skips, with i < s members before it, passes over
        # the below[t, i] subsets that take it next
        taken = np.minimum(np.cumsum(cover, axis=1) - cover, self.s)
        ids = np.where(cover, 0, self._below[np.arange(self.k), taken]).sum(axis=1)
        ids[weight > self.s] = -1
        return ids

    def _unrank(self, ids) -> np.ndarray:
        rest = np.array(ids, dtype=self._below.dtype)
        taken = np.zeros(len(rest), dtype=np.intp)
        member = np.empty((len(rest), self.k), dtype=bool)
        for t in range(self.k):
            below = self._below[t, taken]
            member[:, t] = inside = rest < below
            rest -= np.where(inside, 0, below)
            taken += inside
        return member

    def ids(self, footprints: np.ndarray) -> np.ndarray:
        if self._ids is None:
            return self._rank(footprints)
        # each footprint's mask, one slot's column at a time: the columns
        # of plan_layer's footprints are contiguous planes
        mask = np.zeros(len(footprints), dtype=np.uint16)
        plane = np.empty_like(mask)
        for t in range(self.k):
            mask |= np.multiply(footprints[:, t], np.uint16(1 << t), out=plane)
        return self._ids.take(mask)

    def members(self, ids) -> np.ndarray:
        if self._members is None:
            return self._unrank(ids)
        return self._members.take(ids, axis=0)


@lru_cache(maxsize=None)
def _cover_table(k: int, s: int) -> _Covers:
    """The covers of every layer with k = nu+s slots, one per (k, s)."""
    return _Covers(k, s)


@dataclass(frozen=True, eq=False)
class LayerAggregationPlan:
    """Who aggregates what for one layer, for a fixed erasure matrix.

    footprints  (n_e, nu+s) bool: which of the layer's helpers each edge erases
    cover       (n_e,) each edge's cover id, covers numbered in
                lexicographic order over the layer's slots

    Views read off those two on first use:
    classes     partition of the edges by footprint, ordered by smallest member
    phi         per-class cover subset (parallel to classes)
    images      the distinct covers, in lexicographic order
    groups      edge set per image (parallel to images)
    """

    layer: int
    helpers: tuple[int, ...]
    s: int
    footprints: np.ndarray
    cover: np.ndarray

    @cached_property
    def _image_ids(self) -> list[int]:
        return np.unique(self.cover).tolist()

    @property
    def beta(self) -> int:
        return len(self._image_ids)

    def _cover_helpers(self, ids) -> tuple[tuple[int, ...], ...]:
        helpers = np.array(self.helpers)
        slots = _cover_table(len(self.helpers), self.s).members(ids)
        return tuple(tuple(helpers[row].tolist()) for row in slots)

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        by_footprint: dict[bytes, list[int]] = {}
        for i, row in enumerate(self.footprints):
            by_footprint.setdefault(row.tobytes(), []).append(i)
        return tuple(map(tuple, by_footprint.values()))

    @cached_property
    def phi(self) -> tuple[tuple[int, ...], ...]:
        return self._cover_helpers(self.cover[[edges[0] for edges in self.classes]])

    @cached_property
    def images(self) -> tuple[tuple[int, ...], ...]:
        return self._cover_helpers(self._image_ids)

    @cached_property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(np.flatnonzero(self.cover == c).tolist()) for c in self._image_ids
        )


def plan_layer(
    layer: int, helpers: tuple[int, ...], eps: np.ndarray, s: int
) -> LayerAggregationPlan:
    """Build the aggregation plan for one layer from the erasure matrix.

    helpers must be more than s strictly increasing columns of eps; any
    other tuple raises ConfigurationError. Each edge's footprint (any nonzero
    entry counts as erased) is looked up in the cover table shared by
    every layer of this shape. An edge's cover id depends on its own row
    alone, so eps may stack the rows of several matrices, or the
    footprint rows of many layers (cover_ids plans every layer of a
    matrix in one call so), and each row gets the id it would get planned
    alone; "edge" in an error then counts rows of the stack. Footprints
    are gathered a helper's column at a time into contiguous planes, so
    an eps that is the transpose of a C-ordered array reads fastest.
    Raises ConfigurationError for an edge that erases more than s of the
    layer's helpers.
    """
    if not (
        s < len(helpers)
        and -1 < helpers[0]
        and helpers[-1] < eps.shape[1]
        and all(map(lt, helpers, helpers[1:]))
    ):
        raise ConfigurationError(
            f"layer {layer}: helpers {tuple(helpers)} are not strictly increasing "
            f"within [0, {eps.shape[1]}), or number s={s} or fewer"
        )
    footprints = (eps.T.take(helpers, axis=0) != 0).T
    cover = _cover_table(len(helpers), s).ids(footprints)
    if cover.min(initial=0) < 0:
        edge = int(np.argmax(cover < 0))
        footprint = [helpers[t] for t in np.flatnonzero(footprints[edge])]
        raise ConfigurationError(
            f"layer {layer}: edge {edge} erases helpers {footprint} "
            f"of {tuple(helpers)}, more than s={s}"
        )
    return LayerAggregationPlan(layer, tuple(helpers), s, footprints, cover)


def cover_ids(eps: np.ndarray, params: SchemeParams) -> np.ndarray:
    """(n, L): the cover id of each of eps's n rows in every layer.

    eps stacks the rows of one or more erasure matrices of params, each
    of weight at most s (a heavier row raises plan_layer's error, which
    counts rows of the call's stack). A row's cover id in a layer depends on its
    footprint alone, so one plan_layer call plans many layers: its rows
    are every (layer, row) footprint, layer-major, and its helpers the
    nu+s slots. Slot t's plane is the eps column of each layer's t-th
    helper (LayerMap.slot_helpers), gathered contiguously. A call takes
    as many layers as fit in COUNT_CELLS (row, slot) cells, and at least
    one.
    """
    n, k = len(eps), params.nu + params.s
    columns = np.ascontiguousarray(eps.T)
    slot_helpers = params.layer_map.slot_helpers
    step = max(1, COUNT_CELLS // (n * k))
    cover = [
        plan_layer(
            start,
            tuple(range(k)),
            columns.take(slot_helpers[start : start + step].T, axis=0).reshape(k, -1).T,
            params.s,
        ).cover
        for start in range(0, params.layers, step)
    ]
    return np.concatenate(cover).reshape(-1, n).T


def _run_starts(ranked: np.ndarray) -> np.ndarray:
    """Rows of sorted ids -> a mask of the first position of every run of
    equal ids in a row."""
    new = np.ones(ranked.shape, dtype=bool)
    new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    return new


class GroupCounts(NamedTuple):
    """The group counts of T erasure matrices.

    params  the scheme they were counted for
    beta    (T, L) groups per layer
    m_j     (T, n_h) each helper's message length

    GroupCounts(params, beta[t], m_j[t]) holds matrix t's counts alone,
    which cost_realized reads as it reads a RoundPlan.
    """

    params: SchemeParams
    beta: np.ndarray
    m_j: np.ndarray


def count_groups(cover: np.ndarray, params: SchemeParams) -> GroupCounts:
    """Count the groups of T matrices from their (T, n_e, L) cover ids.

    A layer's groups are its distinct cover ids. Every group is emitted
    by the layer's helpers outside its cover: slot t of layer l emits
    beta_l minus the number of distinct covers holding t, and m_j sums
    that over helper j's (layer, slot) cells, LayerMap.positions[j].
    While alpha = C(nu+s, s) <= 64, a (matrix, layer)'s distinct covers
    are the bits set in one presence word of the narrowest unsigned dtype
    of alpha bits, with no per-id temporary wider (_count_present); above,
    they are the runs of its sorted ids (_count_sorted).
    """
    rule = _count_present if params.alpha <= 64 else _count_sorted
    beta, covered = rule(cover, params)
    emitted = (beta[:, None] - covered).reshape(len(cover), -1)
    m_j = emitted[:, params.layer_map.positions].sum(axis=2)
    return GroupCounts(params, beta.reshape(len(cover), -1), m_j)


def _count_present(cover: np.ndarray, params: SchemeParams) -> tuple[np.ndarray, np.ndarray]:
    """(T*L,) beta and (T*L, nu+s) distinct covers holding each slot: the
    popcounts of one word per (matrix, layer), the OR of 1 << id over its
    n_e ids, alone and under each slot's mask. The shifted ids stay in the
    word's dtype: wide words or intp indices cost more in fresh pages."""
    masks = _cover_table(params.nu + params.s, params.s).slot_masks
    bits = np.left_shift(masks.dtype.type(1), cover, dtype=masks.dtype, casting="unsafe")
    word = np.bitwise_or.reduce(bits, axis=1).ravel()
    return np.bitwise_count(word).astype(np.intp), np.bitwise_count(word[:, None] & masks)


def _count_sorted(cover: np.ndarray, params: SchemeParams) -> tuple[np.ndarray, np.ndarray]:
    """_count_present's counts for any alpha, from each (matrix, layer)'s
    sorted ids: a group per run, its cover's members summed per slot."""
    # a C-order copy: the sort runs on contiguous rows and leaves cover alone
    ranked = np.array(cover.transpose(0, 2, 1), order="C").reshape(-1, params.n_e)
    ranked.sort(axis=1)
    first = np.flatnonzero(_run_starts(ranked))
    beta = np.bincount(first // params.n_e, minlength=len(ranked))
    members = _cover_table(params.nu + params.s, params.s).members(ranked.ravel()[first])
    return beta, np.add.reduceat(members, np.cumsum(beta) - beta, axis=0)


class RoundPlan:
    """The aggregation plan of one erasure matrix, built once and shared by
    every helper, the master and the cost accounting.

    cover            (n_e, L) every edge's cover id in every layer, from
                     one cover_ids call; the rest is derived from it
    layer_plans      one LayerAggregationPlan per layer, in layer order,
                     planned one plan_layer call per layer on first read;
                     a view for checks and tests that no round reads
    group_of         (L, n_e) each edge's group in each layer; the groups
                     are the runs of each layer's sorted ids, layer-major
    emitters         (groups, nu+s) per group and layer slot, the helper
                     that emits it, -1 in the slots of its cover
    beta             (L,) groups per layer, by count_groups
    m_j              (n_h,) each helper's message length, by count_groups;
                     the message rows are built only where it agrees
                     with each helper's cells in emitters
    schedules        per helper, the (layer, image index) pairs it emits;
                     a tuple view for checks and tests
    feeds            (n_e, (nu+s)*L) per edge and codeword cell
                     slot*L + layer (LayerMap.cells' numbering), the message
                     row the cell feeds, -1 in the slots of the edge's cover
    decode_patterns  per emitter-slot pattern, the layers and message rows
                     the master decodes with one solve

    A helper emits its groups in group order: layers ascending, image
    index ascending. All but cover are built on first use: the groups
    from one sort of each layer's ids, the message rows from one sort of
    the emitting cells by helper, so callers that only count never build
    group_of or feeds. eps is any array-like; one that erasure.validate
    rejects (a shape other than (n_e, n_h), an entry other than 0 or 1, a
    row heavier than s) raises its ConfigurationError.
    """

    def __init__(self, eps: np.ndarray, params: SchemeParams):
        self.eps = eps = erasure.validate(eps, params.n_e, params.n_h, params.s)
        self.params = params
        self.cover = cover_ids(eps, params)

    @cached_property
    def layer_plans(self) -> tuple[LayerAggregationPlan, ...]:
        return tuple(
            plan_layer(layer, subset, self.eps, self.params.s)
            for layer, subset in enumerate(self.params.layer_map)
        )

    @cached_property
    def _ranked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one sort of the (L, n_e) cover ids, whose runs in each layer
        are its groups: group_of, and each group's layer and cover id."""
        ids = self.cover.T
        order = np.argsort(ids, axis=1, kind="stable")
        ranked = np.take_along_axis(ids, order, axis=1)
        new = _run_starts(ranked)
        group_of = np.empty_like(order)
        np.put_along_axis(group_of, order, np.cumsum(new).reshape(new.shape) - 1, axis=1)
        starts = np.flatnonzero(new)
        return group_of, starts // self.params.n_e, ranked.ravel()[starts]

    @property
    def group_of(self) -> np.ndarray:
        return self._ranked[0]

    @cached_property
    def emitters(self) -> np.ndarray:
        params = self.params
        _, layer, cover = self._ranked
        inside = _cover_table(params.nu + params.s, params.s).members(cover)
        return np.where(inside, -1, params.layer_map.slot_helpers[layer])

    @cached_property
    def _counts(self) -> GroupCounts:
        return count_groups(self.cover[None], self.params)

    @property
    def beta(self) -> np.ndarray:
        return self._counts.beta[0]

    @property
    def m_j(self) -> np.ndarray:
        return self._counts.m_j[0]

    @cached_property
    def _message_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(groups, nu+s): the row of each group's entry in the messages
        concatenated in helper order, at its emitter's slot, -1 in the
        slots of its cover; and (sum m_j,) the group of each row.

        emitters and count_groups count each helper's entries by two
        rules; a row past sum m_j would escape GroupSums.fold's clipped
        gathers, so a disagreement raises ProtocolError."""
        emitters = self.emitters
        g, slot = np.nonzero(emitters >= 0)
        # helper ids in the narrowest dtype, so the stable sort is a radix sort
        helper = emitters[g, slot].astype(np.min_scalar_type(self.params.n_h))
        emitted = np.bincount(helper, minlength=self.params.n_h)
        if not np.array_equal(emitted, self.m_j):
            j = int(np.argmax(emitted != self.m_j))
            raise ProtocolError(
                f"plan emission count broken: helper {j} emits {emitted[j]} entries, "
                f"count_groups counts m_j = {self.m_j[j]}"
            )
        by_helper = np.argsort(helper, kind="stable")
        rows = np.full(emitters.shape, -1, dtype=np.intp)
        rows[g[by_helper], slot[by_helper]] = np.arange(len(g))
        return rows, g[by_helper]

    @cached_property
    def feeds(self) -> np.ndarray:
        rows = self._message_rows[0][self.group_of]
        return rows.transpose(1, 2, 0).reshape(self.params.n_e, -1)

    @cached_property
    def schedules(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        _, g = self._message_rows
        layer = self._ranked[1][g]
        image = g - (np.cumsum(self.beta) - self.beta)[layer]
        pairs = list(zip(layer.tolist(), image.tolist()))
        ends = np.cumsum(self.m_j).tolist()
        return tuple(tuple(pairs[a:b]) for a, b in zip([0] + ends, ends))

    @cached_property
    def decode_patterns(self) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]:
        """Emitter-slot pattern -> (layer ids, (nu, groups) message rows),
        patterns in ascending order of their cover ids.

        Column g of the rows holds the nu entries of the pattern's g-th
        group, emitter slots ascending, as rows of the messages concatenated
        in helper order. A group's pattern is the complement of its cover,
        so groups with one cover id share it; covers inside a layer are
        distinct, so a pattern holds at most one group per layer.
        """
        rows, _ = self._message_rows
        _, layer, cover = self._ranked
        by_cover = np.argsort(cover, kind="stable")
        ranked = cover[by_cover]
        patterns = {}
        for groups in np.split(by_cover, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1):
            slots = np.flatnonzero(rows[groups[0]] >= 0)
            patterns[tuple(slots.tolist())] = (layer[groups], rows[groups][:, slots].T)
        return patterns


@dataclass(frozen=True)
class AggregatedMessage:
    """What one helper sends the master: m_j group sums of d symbols each."""

    helper: int
    entries: np.ndarray  # (m_j, d)

    def __len__(self) -> int:
        return self.entries.shape[0]


class GroupSums:
    """Every helper's group sums of one round, folded one edge at a time:
    rows (sum m_j, d) holds the messages concatenated in helper order, and
    folded (n_e, n_h) the links folded so far.

    An edge feeds each row at most once (plan.feeds), so a fold takes the
    fed cells a slice of FOLD_BYTES at a time: it gathers the slice's k
    cells and their rows into one reused (2, k, d) buffer, sums the two
    with one xor_sum and scatters the sums back. The rows lie in [0, sum
    m_j), so the gathers skip the bounds check that buffers their output.
    """

    def __init__(self, plan: RoundPlan, field: GF):
        params = plan.params
        self.plan, self.field = plan, field
        self.rows = np.zeros((int(plan.m_j.sum()), params.d), dtype=field.dtype)
        self.folded = np.zeros((params.n_e, params.n_h), dtype=bool)
        # an edge feeds nu of the nu+s slots of every layer, _step cells a slice
        self._step = max(1, FOLD_BYTES // (params.d * field.dtype.itemsize))
        slice_cells = min(self._step, params.nu * params.layers)
        self._pair = np.empty(2 * slice_cells * params.d, dtype=field.dtype)

    def fold(self, i: int, symbols: np.ndarray, helper: int | None = None) -> None:
        """Add edge i's (nu+s, L*d) codeword into the sums it feeds, or with
        helper j given, the (b, d) column it sent j. A codeword whose rows
        are strided, one edge's view of a batch (client.encode_client), is
        copied as it is reshaped to cells. On a 2-vCPU x86 host that added
        6-8 us to a 40-43 us fold of layers_gf16's shape; gathering the
        cells from the strided view took as long, and whole rounds ran no
        faster for it. An i that is not an
        edge of the round, a j that is not a helper of it, or a codeword or
        column of another shape or of a dtype other than the field's, raises
        ProtocolError."""
        params, d = self.plan.params, self.plan.params.d
        if helper is not None and not (is_integer(helper) and 0 <= helper < params.n_h):
            raise ProtocolError(f"fold got {helper!r}, not a helper of the round")
        if not is_integer(i) or not 0 <= i < params.n_e:
            sender = "fold got" if helper is None else f"helper {helper} got a column from"
            raise ProtocolError(f"{sender} {i!r}, not an edge of the round")
        if helper is None:
            shape, dtype = (params.nu + params.s, params.layers * d), self.field.dtype
            if np.shape(symbols) != shape or getattr(symbols, "dtype", None) != dtype:
                raise ProtocolError(f"edge {i} sent a codeword that is not a {shape} {dtype} array")
            feeds = self.plan.feeds[i]
            self.folded[i] = self.plan.eps[i] == 0
        else:
            if np.shape(symbols) != (params.b, d):
                raise ProtocolError(
                    f"helper {helper} got a column of shape {np.shape(symbols)} from edge {i}, "
                    f"expected ({params.b}, {d})"
                )
            dtype = getattr(symbols, "dtype", type(symbols).__name__)
            if dtype != self.field.dtype:
                raise ProtocolError(
                    f"helper {helper} got a column of dtype {dtype} from edge {i}, "
                    f"expected {self.field.dtype}"
                )
            feeds = self.plan.feeds[i, params.layer_map.cells[helper]]
            self.folded[i, helper] = True
        fed, cells = np.flatnonzero(feeds >= 0), np.reshape(symbols, (-1, d))
        for start in range(0, len(fed), self._step):
            part = fed[start : start + self._step]
            rows, pair = feeds[part], self._pair[: 2 * len(part) * d].reshape(2, -1, d)
            self.rows.take(rows, axis=0, out=pair[0], mode="clip")
            cells.take(part, axis=0, out=pair[1], mode="clip")
            self.rows[rows] = self.field.xor_sum(pair.reshape(2, -1)).reshape(-1, d)


def aggregate_helper(
    j: int, received: Mapping[int, np.ndarray] | GroupSums, plan: RoundPlan, field: GF
) -> AggregatedMessage:
    """Emit helper j's message: its group sums, in the order of its schedule.

    received is the round's GroupSums, or a mapping of edge index -> that
    edge's (b, d) column, present only for surviving links, folded here
    into a fresh GroupSums. The entries are a view of the round's rows, or
    a copy of j's rows on the mapping path. A key that is not an edge of
    the round, or a column of another shape or of a dtype other than the
    field's, raises GroupSums.fold's ProtocolError. The GroupSums of
    another plan or field raises ProtocolError, as does a cell feeding
    j's message over a link that was not folded: every group sum only
    touches edges whose link to j survived. So does a j that is not a
    helper of the round.
    """
    params, sums = plan.params, received
    if not is_integer(j) or not 0 <= j < params.n_h:
        raise ProtocolError(f"aggregate_helper got {j!r}, not a helper of the round")
    if not isinstance(received, GroupSums):
        sums = GroupSums(plan, field)
        for i, column in received.items():
            sums.fold(i, column, helper=j)
    elif received.plan is not plan or received.field != field:
        raise ProtocolError(f"helper {j} got the group sums of another round or field")
    # the row each (edge, row of j's column) feeds, -1 on the cover; the least
    # unfolded one is the first missing symbol in schedule order, smallest edge
    feeds = plan.feeds[:, params.layer_map.cells[j]]
    lost = np.where((feeds >= 0) & ~sums.folded[:, j, None], feeds, np.iinfo(feeds.dtype).max)
    i, r = divmod(int(np.argmin(lost)), params.b)
    if lost[i, r] < len(sums.rows):
        raise ProtocolError(
            f"helper {j} needs the layer-{params.layer_map.cells[j, r] % params.layers} "
            f"symbol of edge {i} but that link is erased"
        )
    start = int(plan.m_j[:j].sum())
    entries = sums.rows[start : start + int(plan.m_j[j])]
    # a view of the fresh sums would pin every helper's rows
    return AggregatedMessage(helper=j, entries=entries if sums is received else entries.copy())
