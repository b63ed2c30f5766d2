"""k-ary n-cube topology (§2.1.1).

The general closed-mesh family: ``n`` dimensions of ``k`` nodes each with
wrap-around links.  ``k=2`` degenerates to the hypercube, ``n=2`` to the
2-D torus; this class covers 3-D tori and beyond, with shortest-direction
dimension-order routing.
"""

from __future__ import annotations

from repro.topology.base import Path, Topology


class KaryNCube(Topology):
    """n-dimensional radix-k torus, one host per router."""

    kind = "karyncube"

    def __init__(self, k: int, n: int) -> None:
        if k < 2 or n < 1:
            raise ValueError("need k >= 2 and n >= 1")
        self.k = k
        self.n = n
        self._size = k**n

    # -- coordinate helpers ------------------------------------------------
    def coords(self, router: int) -> tuple[int, ...]:
        """Router id -> digits, dimension 0 first."""
        out = []
        for _ in range(self.n):
            out.append(router % self.k)
            router //= self.k
        return tuple(out)

    def router_id(self, coords: tuple[int, ...]) -> int:
        value = 0
        for d in reversed(coords):
            if not 0 <= d < self.k:
                raise ValueError(f"digit {d} out of range")
            value = value * self.k + d
        return value

    # -- Topology API --------------------------------------------------------
    def shape_key(self) -> tuple:
        return (self.kind, self.k, self.n)

    @property
    def num_hosts(self) -> int:
        return self._size

    @property
    def num_routers(self) -> int:
        return self._size

    def host_router(self, host: int) -> int:
        return host

    def router_hosts(self, router: int) -> tuple[int, ...]:
        return (router,)

    def router_neighbors(self, router: int) -> tuple[int, ...]:
        coords = self.coords(router)
        out = []
        for dim in range(self.n):
            for step in (1, -1):
                nb = list(coords)
                nb[dim] = (nb[dim] + step) % self.k
                out.append(self.router_id(tuple(nb)))
        # k == 2 collapses +1/-1 to the same neighbour.
        return tuple(dict.fromkeys(n for n in out if n != router))

    def _axis_step(self, pos: int, target: int) -> int:
        forward = (target - pos) % self.k
        backward = (pos - target) % self.k
        if forward == 0:
            return pos
        return (pos + 1) % self.k if forward <= backward else (pos - 1) % self.k

    def minimal_route(self, src_router: int, dst_router: int) -> Path:
        coords = list(self.coords(src_router))
        target = self.coords(dst_router)
        path = [src_router]
        for dim in range(self.n):
            while coords[dim] != target[dim]:
                coords[dim] = self._axis_step(coords[dim], target[dim])
                path.append(self.router_id(tuple(coords)))
        return tuple(path)

    def distance(self, src_router: int, dst_router: int) -> int:
        a = self.coords(src_router)
        b = self.coords(dst_router)
        total = 0
        for x, y in zip(a, b):
            total += min((y - x) % self.k, (x - y) % self.k)
        return total
