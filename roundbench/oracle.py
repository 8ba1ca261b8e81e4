"""Reference link counts for one erasure matrix, computed without layeragg.

Layer l places its nu+s fragments on H_l, the l-th (nu+s)-subset of the
helpers in lexicographic order. Inside a layer, an edge's footprint is
the set of its erased helpers that lie in H_l; its cover is that
footprint filled up to s helpers with the smallest free helpers of H_l.
beta_l is the number of distinct covers, and every cover is a group
whose sum nu helpers send to the master, d symbols each.

Nothing here calls layeragg, so a planner defect cannot cancel out.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np


@dataclass(frozen=True)
class Shape:
    """The layered code's sizes for one parameter set."""

    p: int
    n_e: int
    n_h: int
    s: int
    nu: int

    @property
    def layers(self) -> int:
        return comb(self.n_h, self.nu + self.s)

    @property
    def d(self) -> int:
        return -(-self.p // (self.layers * self.nu))

    @property
    def b(self) -> int:
        return comb(self.n_h - 1, self.nu + self.s - 1)

    @property
    def p_padded(self) -> int:
        return self.d * self.layers * self.nu

    @property
    def eh_symbols_per_edge(self) -> int:
        return self.n_h * self.b * self.d

    def hm_symbols(self, betas: list[int]) -> int:
        return self.nu * self.d * sum(betas)


def layer_betas(eps: np.ndarray, shape: Shape) -> list[int]:
    """beta_l for every layer, in layer order."""
    # Each edge's erased helpers as a bitmask: bit j is set when link i->j failed.
    masks = {sum(1 << int(j) for j in np.flatnonzero(row)) for row in np.asarray(eps)}
    betas = []
    for helpers in combinations(range(shape.n_h), shape.nu + shape.s):
        layer_mask = sum(1 << h for h in helpers)
        covers = set()
        for footprint in {m & layer_mask for m in masks}:
            free = [h for h in helpers if not footprint >> h & 1]
            fill = free[: shape.s - bin(footprint).count("1")]
            covers.add(footprint | sum(1 << h for h in fill))
        betas.append(len(covers))
    return betas
