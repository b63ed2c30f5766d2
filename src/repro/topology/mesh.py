"""2-D mesh and torus topologies (§2.1.1, Fig. 2.2).

The paper's hot-spot experiments (Table 4.2) use an 8x8 mesh with one host
per router and dimension-order (X then Y) deterministic routing.  The torus
is the closed variant (k-ary 2-cube) with wrap-around links and
shortest-direction dimension-order routing.
"""

from __future__ import annotations

from repro.topology.base import Path, Topology


class Mesh2D(Topology):
    """``width x height`` mesh, one host per router, DOR minimal routing."""

    kind = "mesh2d"

    def __init__(self, width: int, height: int | None = None) -> None:
        if height is None:
            height = width
        if width < 2 or height < 2:
            raise ValueError("mesh dimensions must be >= 2")
        self.width = width
        self.height = height

    # -- id helpers ----------------------------------------------------
    def coords(self, router: int) -> tuple[int, int]:
        """Router id -> (x, y)."""
        return router % self.width, router // self.width

    def router_id(self, x: int, y: int) -> int:
        """(x, y) -> router id."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinates ({x},{y}) out of range")
        return y * self.width + x

    # -- Topology API ----------------------------------------------------
    def shape_key(self) -> tuple:
        return (self.kind, self.width, self.height)

    @property
    def num_hosts(self) -> int:
        return self.width * self.height

    @property
    def num_routers(self) -> int:
        return self.width * self.height

    def host_router(self, host: int) -> int:
        return host

    def router_hosts(self, router: int) -> tuple[int, ...]:
        return (router,)

    def router_neighbors(self, router: int) -> tuple[int, ...]:
        x, y = self.coords(router)
        out = []
        if x > 0:
            out.append(self.router_id(x - 1, y))
        if x < self.width - 1:
            out.append(self.router_id(x + 1, y))
        if y > 0:
            out.append(self.router_id(x, y - 1))
        if y < self.height - 1:
            out.append(self.router_id(x, y + 1))
        return tuple(out)

    def minimal_route(self, src_router: int, dst_router: int) -> Path:
        x, y = self.coords(src_router)
        dx, dy = self.coords(dst_router)
        path = [src_router]
        while x != dx:
            x += 1 if dx > x else -1
            path.append(self.router_id(x, y))
        while y != dy:
            y += 1 if dy > y else -1
            path.append(self.router_id(x, y))
        return tuple(path)

    def distance(self, src_router: int, dst_router: int) -> int:
        x, y = self.coords(src_router)
        dx, dy = self.coords(dst_router)
        return abs(dx - x) + abs(dy - y)


class Torus2D(Mesh2D):
    """k-ary 2-cube: mesh with wrap-around links (§2.1.1)."""

    kind = "torus2d"

    def router_neighbors(self, router: int) -> tuple[int, ...]:
        x, y = self.coords(router)
        out = {
            self.router_id((x - 1) % self.width, y),
            self.router_id((x + 1) % self.width, y),
            self.router_id(x, (y - 1) % self.height),
            self.router_id(x, (y + 1) % self.height),
        }
        out.discard(router)
        return tuple(sorted(out))

    def _axis_step(self, pos: int, target: int, size: int) -> int:
        """Step one hop along the shorter wrap-aware direction."""
        forward = (target - pos) % size
        backward = (pos - target) % size
        if forward == 0:
            return pos
        if forward <= backward:
            return (pos + 1) % size
        return (pos - 1) % size

    def minimal_route(self, src_router: int, dst_router: int) -> Path:
        x, y = self.coords(src_router)
        dx, dy = self.coords(dst_router)
        path = [src_router]
        while x != dx:
            x = self._axis_step(x, dx, self.width)
            path.append(self.router_id(x, y))
        while y != dy:
            y = self._axis_step(y, dy, self.height)
            path.append(self.router_id(x, y))
        return tuple(path)

    def distance(self, src_router: int, dst_router: int) -> int:
        x, y = self.coords(src_router)
        dx, dy = self.coords(dst_router)
        ddx = min((dx - x) % self.width, (x - dx) % self.width)
        ddy = min((dy - y) % self.height, (y - dy) % self.height)
        return ddx + ddy
