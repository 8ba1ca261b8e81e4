"""Readable reference planners that the fast ones in layeragg.aggregate are
diffed against: one tuple key per edge per layer, covers filled by set
arithmetic, and a per-helper scan of its column's layers for the
schedules."""

from typing import NamedTuple


class ReferencePlan(NamedTuple):
    """The six views of one layer's plan, as LayerAggregationPlan exposes them."""

    layer: int
    helpers: tuple
    classes: tuple
    phi: tuple
    images: tuple
    groups: tuple


def views(plan) -> ReferencePlan:
    """A LayerAggregationPlan's six views, comparable with a ReferencePlan."""
    return ReferencePlan(*(getattr(plan, name) for name in ReferencePlan._fields))


def lexmin_cover(helpers, trapped, s):
    """Lexicographically smallest s-subset of helpers containing trapped.

    helpers must be sorted ascending; filling the free slots with the
    smallest remaining helpers is exactly the lexicographic minimum.
    """
    trapped = set(trapped)
    free = s - len(trapped)
    fill = [h for h in helpers if h not in trapped][:free]
    return tuple(sorted(trapped | set(fill)))


def reference_plan_layer(layer, helpers, eps, s):
    """The aggregation plan of one layer, built edge by edge."""
    by_key = {}
    for i in range(eps.shape[0]):
        key = tuple(j for j in helpers if eps[i, j])
        by_key.setdefault(key, []).append(i)
    # insertion order == order of each class's smallest member
    classes = tuple(tuple(edges) for edges in by_key.values())
    phi = tuple(lexmin_cover(helpers, key, s) for key in by_key)
    images = tuple(sorted(set(phi)))
    grouped = {im: [] for im in images}
    for cover, edges in zip(phi, classes):
        grouped[cover].extend(edges)
    groups = tuple(tuple(sorted(grouped[im])) for im in images)
    return ReferencePlan(
        layer=layer,
        helpers=tuple(helpers),
        classes=classes,
        phi=phi,
        images=images,
        groups=groups,
    )


def reference_schedules(params, layer_plans):
    """Per helper, the (layer, image index) pairs it emits: a scan over the
    helpers, the layers of each helper's column and each layer's images."""
    schedules = []
    for j in range(params.n_h):
        schedule = []
        for layer in params.layer_map.column_layers(j):
            for a, cover in enumerate(layer_plans[layer].images):
                if j not in cover:
                    schedule.append((layer, a))
        schedules.append(tuple(schedule))
    return tuple(schedules)
