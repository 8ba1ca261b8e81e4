"""Readable reference planners that the fast ones in layeragg.aggregate are
diffed against: one tuple key per edge per layer, covers filled by set
arithmetic, a per-helper scan of its column's layers for the schedules,
and the feeds and decode rows read off the schedules entry by entry."""

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


def schedule_entries(schedules):
    """The (helper, layer, image index) of each row of the messages
    concatenated in helper order."""
    return [(j, layer, a) for j, schedule in enumerate(schedules) for layer, a in schedule]


def reference_feeds(params, layer_plans, schedules):
    """Per edge and codeword cell slot*L + layer, the message row the cell
    feeds, -1 where it feeds none: row r of the concatenated schedules is
    helper j's entry (layer, a), and every edge of that layer's group a
    feeds r at j's slot of the layer."""
    L = params.layers
    feeds = [[-1] * ((params.nu + params.s) * L) for _ in range(params.n_e)]
    for r, (j, layer, a) in enumerate(schedule_entries(schedules)):
        cell = params.layer_map[layer].index(j) * L + layer
        for i in layer_plans[layer].groups[a]:
            feeds[i][cell] = r
    return feeds


def check_decode_patterns(params, plan, schedules):
    """Each decode row is the position of its (layer, image) entry in the
    concatenated reference schedules, at the emitter of its slot, and the
    patterns hold every row once."""
    entries = schedule_entries(schedules)
    seen = []
    for slots, (layers, rows) in plan.decode_patterns.items():
        assert rows.shape == (params.nu, len(layers))
        for layer, column in zip(layers.tolist(), rows.T.tolist()):
            helpers = params.layer_map[layer]
            got = [entries[r] for r in column]
            assert [(j, lay) for j, lay, _ in got] == [(helpers[t], layer) for t in slots]
            assert len({a for *_, a in got}) == 1
            seen += column
    assert sorted(seen) == list(range(len(entries)))
