"""Helper-side aggregation: per-layer edge classes, group sums, emitted messages.

Within a layer, edges whose erasures hit the layer's helper set in the
same way are interchangeable; each such class is covered by the
lexicographically smallest s-subset of the layer's helpers that contains
its erasure footprint. Classes sharing a cover are merged into one
group, and every helper outside the cover emits that group's symbol sum.
Helpers and the master derive identical plans from the erasure matrix
alone, so the wire format needs no per-entry metadata; RoundPlan builds
that plan once per matrix for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from typing import Mapping, NamedTuple

import numpy as np

from .client import SchemeParams
from .errors import ProtocolError
from .gf import GF


@dataclass(frozen=True)
class LayerAggregationPlan:
    """Who aggregates what for one layer, for a fixed erasure matrix.

    classes     partition of the edges, ordered by smallest member
    phi         per-class cover subset (parallel to classes)
    images      the distinct covers, in lexicographic order
    groups      merged edge set per image (parallel to images)
    """

    layer: int
    helpers: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    phi: tuple[tuple[int, ...], ...]
    images: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[int, ...], ...]

    @property
    def beta(self) -> int:
        return len(self.images)


def lexmin_cover(helpers: tuple[int, ...], trapped, s: int) -> tuple[int, ...]:
    """Lexicographically smallest s-subset of helpers containing trapped.

    helpers must be sorted ascending; filling the free slots with the
    smallest remaining helpers is exactly the lexicographic minimum.
    """
    trapped = set(trapped)
    free = s - len(trapped)
    fill = [h for h in helpers if h not in trapped][:free]
    return tuple(sorted(trapped | set(fill)))


class _CoverTable(dict):
    """Footprint bitmask over a layer's k slots -> the slots of its lexmin
    s-cover, or None for a footprint of more than s slots.

    Entries are filled on first lookup, so the table holds only the
    footprints seen rather than all 2^k masks; masks with the same cover
    share one tuple. weights turns a (n_e, k) 0/1 matrix into masks.
    """

    def __init__(self, k: int, s: int):
        self.k, self.s = k, s
        # int64 holds the bits of 64 slots; wider layers use Python integers
        self.weights = 1 << np.arange(k, dtype=np.int64 if k <= 64 else object)
        self._covers: dict[tuple[int, ...], tuple[int, ...]] = {}

    def __missing__(self, mask: int) -> tuple[int, ...] | None:
        footprint = [t for t in range(self.k) if mask >> t & 1]
        if len(footprint) > self.s:
            return None
        cover = lexmin_cover(tuple(range(self.k)), footprint, self.s)
        cover = self[mask] = self._covers.setdefault(cover, cover)
        return cover


@lru_cache(maxsize=None)
def _cover_table(k: int, s: int) -> _CoverTable:
    """The cover table of every layer with k = nu+s slots, one per (k, s)."""
    return _CoverTable(k, s)


def plan_layer(
    layer: int, helpers: tuple[int, ...], eps: np.ndarray, s: int
) -> LayerAggregationPlan:
    """Build the aggregation plan for one layer from the erasure matrix.

    helpers must be sorted ascending. Each edge's erasures inside the layer
    become a bitmask over the layer's slots (any nonzero entry counts as
    erased); edges with equal masks form a class, whose cover is read from
    the table shared by every layer of this shape. Raises ValueError for an
    edge that erases more than s of the layer's helpers.
    """
    table = _cover_table(len(helpers), s)
    masks = (eps[:, helpers] != 0) @ table.weights
    by_mask: dict[int, list[int]] = {}
    for i, mask in enumerate(masks.tolist()):
        by_mask.setdefault(mask, []).append(i)
    # insertion order == order of each class's smallest member
    classes = tuple(map(tuple, by_mask.values()))
    to_helpers: dict[tuple[int, ...], tuple[int, ...]] = {}
    parts: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    phi = []
    for mask, edges in zip(by_mask, classes):
        slots = table[mask]
        if slots is None:
            footprint = [helpers[t] for t in range(len(helpers)) if mask >> t & 1]
            raise ValueError(
                f"layer {layer}: edge {edges[0]} erases helpers {footprint} "
                f"of {tuple(helpers)}, more than s={s}"
            )
        cover = to_helpers.get(slots)
        if cover is None:
            cover = to_helpers[slots] = tuple([helpers[t] for t in slots])
            parts[slots] = [edges]
        else:
            parts[slots].append(edges)
        phi.append(cover)
    # helpers ascend, so covers sort like their slot tuples
    order = sorted(to_helpers)
    return LayerAggregationPlan(
        layer=layer,
        helpers=tuple(helpers),
        classes=classes,
        phi=tuple(phi),
        images=tuple([to_helpers[slots] for slots in order]),
        # a cover of one class reuses that class's tuple as its group
        groups=tuple([
            group[0] if len(group) == 1 else tuple(sorted(chain.from_iterable(group)))
            for group in map(parts.__getitem__, order)
        ]),
    )


class HelperIndex(NamedTuple):
    """Where helper j's received symbols go in its fold buffer.

    The buffer holds one (r, n) block of symbol rows per distinct group
    size r, row-major: row t of a block holds the t-th edge of each of its
    n entries, so one XOR down the block folds all n.

    entries  the helper's message length m_j
    rows     buffer rows, the summed size of its groups
    edges    per edge it reads: (edge, layer of the first entry that
             reads it, buffer positions, rows of the edge's column),
             ordered by that first entry, then by edge
    blocks   per group size: (entry ids, buffer offset, r, n)
    """

    entries: int
    rows: int
    edges: tuple[tuple[int, int, np.ndarray, np.ndarray], ...]
    blocks: tuple[tuple[np.ndarray, int, int, int], ...]


class RoundPlan:
    """The aggregation plan of one erasure matrix, built once and shared by
    every helper, the master and the cost accounting.

    layer_plans      one LayerAggregationPlan per layer, in layer order
    schedules        per helper, the ordered (layer, image index) pairs it
                     emits: layers ascending, image index ascending, only
                     where the helper sits outside the cover
    helper_index     per helper, the HelperIndex of its fold
    decode_patterns  per emitter-slot pattern, the groups the master
                     decodes with one solve

    The index tables are built on first use, so callers that only count
    never pay for them.
    """

    def __init__(self, eps: np.ndarray, params: SchemeParams):
        self.eps = eps
        self.params = params
        self.layer_plans = tuple(
            plan_layer(layer, subset, eps, params.s)
            for layer, subset in enumerate(params.layer_map)
        )
        # layers ascending, then image index ascending: each helper's
        # schedule comes out in emission order
        schedules: list[list[tuple[int, int]]] = [[] for _ in range(params.n_h)]
        for lp in self.layer_plans:
            for a, cover in enumerate(lp.images):
                pair = (lp.layer, a)
                for j in lp.helpers:
                    if j not in cover:
                        schedules[j].append(pair)
        self.schedules = tuple(map(tuple, schedules))

    @cached_property
    def _emitters(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every group of the round, numbered layer-major so that numbers
        order like (layer, image index) pairs: its layer, the first number
        of each layer, and a (groups, nu+s) array of its layer's helpers,
        with -1 in the slots of its cover (the helpers that do not emit it).
        """
        params = self.params
        betas = [lp.beta for lp in self.layer_plans]
        layer = np.repeat(np.arange(params.layers), betas)
        covers = [cover for lp in self.layer_plans for cover in lp.images]
        lens = np.fromiter(map(len, covers), dtype=np.intp, count=len(covers))
        in_cover = np.zeros((len(covers), params.n_h), dtype=bool)
        in_cover[
            np.repeat(np.arange(len(covers)), lens),
            np.fromiter(chain.from_iterable(covers), dtype=np.intp, count=lens.sum()),
        ] = True
        helpers = np.array(params.layer_map.subsets, dtype=np.intp)[layer]
        emitters = np.where(np.take_along_axis(in_cover, helpers, axis=1), -1, helpers)
        return layer, np.cumsum(betas) - betas, emitters

    @cached_property
    def helper_index(self) -> tuple[HelperIndex, ...]:
        """One HelperIndex per helper."""
        params = self.params
        layer, _, emitters = self._emitters
        groups = [g for lp in self.layer_plans for g in lp.groups]
        sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
        members = np.fromiter(
            chain.from_iterable(groups), dtype=np.intp, count=params.layers * params.n_e
        )
        # per (layer, edge): the edge's group, and its place t inside it
        member_group = np.repeat(np.arange(len(groups)), sizes)
        group_of = np.empty((params.layers, params.n_e), dtype=np.intp)
        place = np.empty_like(group_of)
        group_of[layer[member_group], members] = member_group
        place[layer[member_group], members] = (
            np.arange(len(members)) - (np.cumsum(sizes) - sizes)[member_group]
        )
        index = []
        for j in range(params.n_h):
            # j's entries are the groups it emits, in schedule order
            emitted = (emitters == j).any(axis=1)
            entry_of = np.where(emitted, np.cumsum(emitted) - 1, -1)
            r = sizes[emitted]
            m = len(r)
            # entries by size, schedule order within a size: one block each
            by_size = np.argsort(r, kind="stable")
            count = np.bincount(r)
            block_r = np.flatnonzero(count)
            block_n = count[block_r]
            block_first = np.cumsum(block_n) - block_n
            block_offset = np.cumsum(block_r * block_n) - block_r * block_n
            block = np.empty(m, dtype=np.intp)
            block[by_size] = np.repeat(np.arange(len(block_r)), block_n)
            rank = np.empty(m, dtype=np.intp)
            rank[by_size] = np.arange(m) - np.repeat(block_first, block_n)

            # the entry each (edge, row of j's column) feeds, edge-major
            layers = params.layer_map.column_index(j)[0]
            reads = entry_of[group_of[layers]].T
            edge, row = np.nonzero(reads >= 0)
            entry = reads[edge, row]
            b = block[entry]
            pos = block_offset[b] + place[layers[row], edge] * block_n[b] + rank[entry]
            starts = np.flatnonzero(np.diff(edge, prepend=-1))
            bounds = np.append(starts, len(edge)).tolist()
            first_layer = layers[row[starts]].tolist()
            # edges in the order a walk of the schedule first reads them, so
            # a missing one is reported at its first entry
            edges = tuple(
                (int(edge[bounds[k]]), first_layer[k],
                 pos[bounds[k] : bounds[k + 1]], row[bounds[k] : bounds[k + 1]])
                for k in np.lexsort((edge[starts], entry[starts])).tolist()
            )
            blocks = tuple(
                (by_size[first : first + n], offset, size, n)
                for first, offset, size, n in zip(
                    block_first.tolist(), block_offset.tolist(),
                    block_r.tolist(), block_n.tolist(),
                )
            )
            index.append(HelperIndex(m, len(edge), edges, blocks))
        return tuple(index)

    @cached_property
    def decode_patterns(
        self,
    ) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Emitter-slot pattern -> (layer ids, image ids, (nu, groups) emitters),
        patterns in order of first appearance.

        Images inside a layer are distinct, so a pattern holds at most one
        group per layer.
        """
        layer, first_group, emitters = self._emitters
        emits = emitters >= 0
        # the cover table's slot weights: Python integers past 64 slots, so
        # no two patterns share a code
        code = emits @ _cover_table(emits.shape[1], self.params.s).weights
        _, first, pattern = np.unique(code, return_index=True, return_inverse=True)
        by_pattern = np.argsort(pattern, kind="stable")
        bounds = np.append(0, np.cumsum(np.bincount(pattern))).tolist()
        patterns = {}
        for p in np.argsort(first).tolist():
            groups = by_pattern[bounds[p] : bounds[p + 1]]
            slots = np.flatnonzero(emits[groups[0]])
            layers = layer[groups]
            patterns[tuple(slots.tolist())] = (
                layers, groups - first_group[layers], emitters[groups][:, slots].T
            )
        return patterns


@dataclass(frozen=True)
class AggregatedMessage:
    """What one helper sends the master: m_j group sums of d symbols each."""

    helper: int
    entries: np.ndarray  # (m_j, d)

    def __len__(self) -> int:
        return self.entries.shape[0]


def aggregate_helper(
    j: int, received: Mapping[int, np.ndarray], plan: RoundPlan, field: GF
) -> AggregatedMessage:
    """Run the aggregation strategy at helper j, in the order of its schedule.

    received maps edge index -> that edge's (b, d) column, present only
    for surviving links. Every group sum only touches edges whose link
    to j survived; a gap means the erasure bookkeeping is broken. The
    symbols are copied once into a buffer laid out by plan.helper_index,
    and each block of equal-size groups is folded with one xor_sum.
    """
    index = plan.helper_index[j]
    d = plan.params.d
    buffer = np.empty((index.rows, d), dtype=field.dtype)
    for i, layer, pos, rows in index.edges:
        if plan.eps[i, j] or i not in received:
            raise ProtocolError(
                f"helper {j} needs the layer-{layer} symbol of edge {i} "
                f"but that link is erased"
            )
        buffer[pos] = received[i][rows]
    entries = np.empty((index.entries, d), dtype=field.dtype)
    for ids, offset, r, n in index.blocks:
        block = buffer[offset : offset + r * n].reshape(r, n * d)
        entries[ids] = field.xor_sum(block).reshape(n, d)
    return AggregatedMessage(helper=j, entries=entries)


def message_to_bytes(message: AggregatedMessage, field: GF) -> bytes:
    """Flat wire form: entries in emission order, each field element as
    ceil(m/8) little-endian bytes. No per-entry metadata."""
    return np.ascontiguousarray(
        message.entries, dtype=f"<u{field.element_bytes}"
    ).tobytes()


def message_from_bytes(
    helper: int, payload: bytes, field: GF, count: int, d: int
) -> AggregatedMessage:
    """Parse a wire payload given the (count, d) shape the master re-derives."""
    expected = count * d * field.element_bytes
    if len(payload) != expected:
        raise ProtocolError(
            f"helper {helper}: payload is {len(payload)} bytes, expected {expected}"
        )
    flat = np.frombuffer(payload, dtype=f"<u{field.element_bytes}")
    return AggregatedMessage(
        helper=helper, entries=flat.astype(field.dtype).reshape(count, d)
    )
