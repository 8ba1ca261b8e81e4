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
from typing import Mapping

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


def plan_layer(
    layer: int, helpers: tuple[int, ...], eps: np.ndarray, s: int
) -> LayerAggregationPlan:
    """Build the aggregation plan for one layer from the erasure matrix."""
    by_key: dict[tuple[int, ...], list[int]] = {}
    for i in range(eps.shape[0]):
        key = tuple(j for j in helpers if eps[i, j])
        by_key.setdefault(key, []).append(i)
    # insertion order == order of each class's smallest member
    classes = tuple(tuple(edges) for edges in by_key.values())
    phi = tuple(lexmin_cover(helpers, key, s) for key in by_key)
    images = tuple(sorted(set(phi)))
    grouped: dict[tuple[int, ...], list[int]] = {im: [] for im in images}
    for cover, edges in zip(phi, classes):
        grouped[cover].extend(edges)
    groups = tuple(tuple(sorted(grouped[im])) for im in images)
    return LayerAggregationPlan(
        layer=layer,
        helpers=tuple(helpers),
        classes=classes,
        phi=phi,
        images=images,
        groups=groups,
    )


class RoundPlan:
    """The aggregation plan of one erasure matrix, built once and shared by
    every helper, the master and the cost accounting.

    layer_plans  one LayerAggregationPlan per layer, in layer order
    schedules    per helper, the ordered (layer, image index) pairs it
                 emits: layers ascending, image index ascending, only
                 where the helper sits outside the cover
    """

    def __init__(self, eps: np.ndarray, params: SchemeParams):
        self.eps = eps
        self.params = params
        self.layer_plans = tuple(
            plan_layer(layer, subset, eps, params.s)
            for layer, subset in enumerate(params.layer_map)
        )
        schedules = []
        for j in range(params.n_h):
            schedule = []
            for layer, _ in params.layer_map.column_slots(j):
                for a, cover in enumerate(self.layer_plans[layer].images):
                    if j not in cover:
                        schedule.append((layer, a))
            schedules.append(tuple(schedule))
        self.schedules = tuple(schedules)


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
    to j survived; a gap means the erasure bookkeeping is broken.
    """
    eps, layers = plan.eps, plan.params.layer_map
    entries = []
    for layer, a in plan.schedules[j]:
        row = layers.row_in_column(j, layer)
        rows = []
        for i in plan.layer_plans[layer].groups[a]:
            if eps[i, j] or i not in received:
                raise ProtocolError(
                    f"helper {j} needs the layer-{layer} symbol of edge {i} "
                    f"but that link is erased"
                )
            rows.append(received[i][row])
        entries.append(field.xor_sum(np.stack(rows)))
    if entries:
        stacked = np.stack(entries)
    else:
        stacked = np.zeros((0, plan.params.d), dtype=field.dtype)
    return AggregatedMessage(helper=j, entries=stacked)


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
