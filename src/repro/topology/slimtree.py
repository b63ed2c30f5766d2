"""Slimmed k-ary n-tree (§2.2.2 related work; §4.8.5 / §5.1 claim).

Full fat-trees provision full bisection bandwidth, which real
applications under-use (§2.3: they "generally under-utilize the bisection
bandwidth of fully-connected networks").  A *slimmed* tree removes a
fraction of the upper-level switches — fewer components, less bisection —
and relies on the routing policy to use what remains efficiently.  The
thesis' cost argument (§5.1: PR-DRB "allows using less network
components, because they are more efficiently handled") is evaluated on
exactly this trade in the `ext_slimtree` experiment.

Construction: take a k-ary n-tree and keep only the top-level switches
whose word's *last* digit is below ``ceil(k * keep_fraction)``.  Upward
digit choices at the root level are folded into the surviving switches,
so minimal up/down routing still works — with proportionally fewer root
paths.
"""

from __future__ import annotations

import math

from repro.topology.base import Path
from repro.topology.fattree import KaryNTree


class SlimmedKaryNTree(KaryNTree):
    """k-ary n-tree with only a fraction of its root switches."""

    kind = "slimtree"

    def __init__(self, k: int, n: int, keep_fraction: float = 0.5) -> None:
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        if n < 2:
            raise ValueError("slimming needs at least 2 levels")
        super().__init__(k, n)
        #: surviving root-word digit values (digit index n-2 at level 0).
        self.kept_digits = max(1, math.ceil(k * keep_fraction))
        self.keep_fraction = keep_fraction

    def shape_key(self) -> tuple:
        return (self.kind, self.k, self.n, self.keep_fraction)

    # -- helpers -----------------------------------------------------------
    def _fold(self, digit: int) -> int:
        """Map any root digit choice onto a surviving switch."""
        return digit % self.kept_digits

    def _is_root(self, level: int) -> bool:
        return level == 0

    def router_alive(self, router: int) -> bool:
        """Root switches beyond the kept set do not exist."""
        level, w = self.switch_coords(router)
        if not self._is_root(level):
            return True
        # Ascending to level 0 frees digit index 0: slim by that digit.
        return w[0] < self.kept_digits

    @property
    def num_live_routers(self) -> int:
        """Routers actually present in the slimmed network."""
        per_level = self.num_routers // self.n
        removed = per_level - (per_level // self.k) * self.kept_digits
        return self.num_routers - removed

    def router_neighbors(self, router: int) -> tuple[int, ...]:
        """Adjacency excludes removed root switches entirely."""
        if not self.router_alive(router):
            return ()
        return tuple(
            nb for nb in super().router_neighbors(router) if self.router_alive(nb)
        )

    # -- routing: fold freed root digits into the kept range ---------------
    def _path_via_ancestor(self, src_host, dst_host, freed):
        nca = self.nca_level(src_host, dst_host)
        if nca == 0 and freed:
            # The digit freed last (index 0, chosen when entering level 0)
            # must land on a surviving root switch.
            freed = tuple(freed[:-1]) + (self._fold(freed[-1]),)
        return super()._path_via_ancestor(src_host, dst_host, freed)

    def host_minimal_route(self, src_host: int, dst_host: int) -> Path:
        path = super().host_minimal_route(src_host, dst_host)
        if all(self.router_alive(r) for r in path):
            return path
        # Deterministic route hit a removed root: re-route via fold.
        nca = self.nca_level(src_host, dst_host)
        b = self.host_digits(dst_host)
        freed_count = (self.n - 1) - nca
        freed = tuple(
            b[nca + i] if nca + i < self.n else 0 for i in range(freed_count)
        )
        return self._path_via_ancestor(src_host, dst_host, freed)

    def alternative_paths(self, src_host: int, dst_host: int, max_paths: int):
        paths = super().alternative_paths(src_host, dst_host, max_paths * 2)
        live = [p for p in paths if all(self.router_alive(r) for r in p)]
        seen: set[Path] = set()
        out: list[Path] = []
        for p in live:
            if p not in seen:
                seen.add(p)
                out.append(p)
            if len(out) >= max_paths:
                break
        return out or [self.host_minimal_route(src_host, dst_host)]
