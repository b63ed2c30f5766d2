"""Hypercube topology (§2.1.1: k-ary n-cube with k = 2).

One host per router; e-cube (dimension-order, lowest differing bit first)
deterministic routing.  Alternative paths come from the generic
intermediate-node machinery in :class:`repro.topology.base.Topology`.
"""

from __future__ import annotations

from repro.topology.base import Path, Topology


class Hypercube(Topology):
    """n-dimensional binary hypercube with e-cube routing."""

    kind = "hypercube"

    def __init__(self, dimensions: int) -> None:
        if dimensions < 1:
            raise ValueError("need at least one dimension")
        self.dimensions = dimensions

    def shape_key(self) -> tuple:
        return (self.kind, self.dimensions)

    @property
    def num_hosts(self) -> int:
        return 1 << self.dimensions

    @property
    def num_routers(self) -> int:
        return 1 << self.dimensions

    def host_router(self, host: int) -> int:
        return host

    def router_hosts(self, router: int) -> tuple[int, ...]:
        return (router,)

    def router_neighbors(self, router: int) -> tuple[int, ...]:
        return tuple(router ^ (1 << d) for d in range(self.dimensions))

    def minimal_route(self, src_router: int, dst_router: int) -> Path:
        path = [src_router]
        current = src_router
        diff = src_router ^ dst_router
        for d in range(self.dimensions):
            if diff & (1 << d):
                current ^= 1 << d
                path.append(current)
        return tuple(path)

    def distance(self, src_router: int, dst_router: int) -> int:
        return (src_router ^ dst_router).bit_count()
