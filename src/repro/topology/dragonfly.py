"""Canonical dragonfly topology (Kim et al., ISCA'08; arXiv:2502.00616 §II).

A dragonfly(a, p, h) groups ``a`` routers into a fully connected local
cluster; every router attaches ``p`` hosts and drives ``h`` global links.
The canonical (balanced, maximum-size) arrangement has ``g = a*h + 1``
groups, so every ordered group pair is joined by *exactly one* global
link — which is what makes the topology interesting for adaptive
routing: minimal (l-g-l) traffic between two groups funnels through a
single global link, while Valiant routing through a random intermediate
group can spread the same traffic over all ``a*h`` of a group's global
links.  The notified policy family (:mod:`repro.routing.notified`)
exploits exactly that redundancy.

Id spaces: router ``r`` lives in group ``r // a`` with local index
``r % a``; host ``n`` attaches to router ``n // p``.  Global link ``m``
(``0 <= m < a*h``) of group ``G`` is driven by the router with local
index ``m // h`` and lands in group ``(G + m + 1) mod g`` — the
"consecutive" arrangement, whose inverse link index is ``g - m - 2``.
"""

from __future__ import annotations

from repro.topology.base import Path, Topology


class Dragonfly(Topology):
    """Canonical dragonfly(a, p, h) with ``a*h + 1`` fully linked groups."""

    kind = "dragonfly"

    def __init__(self, a: int, p: int, h: int) -> None:
        if a < 2:
            raise ValueError(
                f"dragonfly needs a >= 2 routers per group (got a={a}); "
                "a single-router group has no intra-group links"
            )
        if p < 1:
            raise ValueError(f"dragonfly needs p >= 1 hosts per router (got p={p})")
        if h < 1:
            raise ValueError(
                f"dragonfly needs h >= 1 global links per router (got h={h}); "
                "without global links the groups are disconnected"
            )
        self.a = a
        self.p = p
        self.h = h
        #: canonical group count: every group pair shares one global link.
        self.num_groups = a * h + 1

    # -- id helpers ----------------------------------------------------
    def group_of(self, router: int) -> int:
        """Group containing ``router``."""
        return router // self.a

    def group_routers(self, group: int) -> tuple[int, ...]:
        """Routers of ``group`` in local-index order."""
        base = group * self.a
        return tuple(range(base, base + self.a))

    def group_hosts(self, group: int) -> tuple[int, ...]:
        """Hosts attached to ``group``'s routers."""
        base = group * self.a * self.p
        return tuple(range(base, base + self.a * self.p))

    def host_group(self, host: int) -> int:
        """Group containing ``host``'s router."""
        return self.group_of(self.host_router(host))

    def global_gateway(self, src_group: int, dst_group: int) -> tuple[int, int]:
        """The router pair carrying the single src->dst global link."""
        if src_group == dst_group:
            raise ValueError("no global link inside a group")
        g = self.num_groups
        m_out = (dst_group - src_group - 1) % g
        m_back = (src_group - dst_group - 1) % g
        return (
            src_group * self.a + m_out // self.h,
            dst_group * self.a + m_back // self.h,
        )

    def global_peers(self, router: int) -> tuple[int, ...]:
        """Remote endpoints of ``router``'s ``h`` global links."""
        group = self.group_of(router)
        local = router % self.a
        out = []
        for k in range(self.h):
            m = local * self.h + k
            peer_group = (group + m + 1) % self.num_groups
            m_back = (group - peer_group - 1) % self.num_groups
            out.append(peer_group * self.a + m_back // self.h)
        return tuple(out)

    # -- Topology API --------------------------------------------------
    def shape_key(self) -> tuple:
        return (self.kind, self.a, self.p, self.h)

    @property
    def num_hosts(self) -> int:
        return self.num_groups * self.a * self.p

    @property
    def num_routers(self) -> int:
        return self.num_groups * self.a

    def host_router(self, host: int) -> int:
        return host // self.p

    def router_hosts(self, router: int) -> tuple[int, ...]:
        return tuple(range(router * self.p, (router + 1) * self.p))

    def router_neighbors(self, router: int) -> tuple[int, ...]:
        group = self.group_of(router)
        local = tuple(r for r in self.group_routers(group) if r != router)
        return tuple(sorted(local + self.global_peers(router)))

    def minimal_route(self, src_router: int, dst_router: int) -> Path:
        if src_router == dst_router:
            return (src_router,)
        src_group = self.group_of(src_router)
        dst_group = self.group_of(dst_router)
        if src_group == dst_group:
            return (src_router, dst_router)
        # l-g-l: hop to the gateway, cross the global link, hop to the
        # destination router — at most four routers end to end.
        gw_src, gw_dst = self.global_gateway(src_group, dst_group)
        path = [src_router]
        if gw_src != src_router:
            path.append(gw_src)
        path.append(gw_dst)
        if dst_router != gw_dst:
            path.append(dst_router)
        return tuple(path)

    def distance(self, src_router: int, dst_router: int) -> int:
        return len(self.minimal_route(src_router, dst_router)) - 1

    # -- Valiant path enumeration --------------------------------------
    def valiant_route(self, src_router: int, dst_router: int, mid_group: int) -> Path | None:
        """Valiant path: minimal to ``mid_group``'s entry router, then
        minimal to the destination.  None when ``mid_group`` is an
        endpoint group or the concatenation would revisit a router."""
        src_group = self.group_of(src_router)
        dst_group = self.group_of(dst_router)
        if mid_group == src_group or mid_group == dst_group:
            return None
        _, entry = self.global_gateway(src_group, mid_group)
        return self._concat_segments(src_router, entry, dst_router)

    def alternative_paths(self, src_host: int, dst_host: int, max_paths: int) -> list[Path]:
        """Minimal path first, then Valiant paths through distinct
        intermediate groups (or detours through local routers for
        intra-group pairs).  The intermediate ordering rotates with a
        per-flow offset so concurrent flows decorrelate their detours."""
        src_r = self.host_router(src_host)
        dst_r = self.host_router(dst_host)
        original = self.minimal_route(src_r, dst_r)
        paths: list[Path] = [original]
        if src_r == dst_r or max_paths <= 1:
            return paths
        seen: set[Path] = {original}
        src_group = self.group_of(src_r)
        dst_group = self.group_of(dst_r)
        if src_group == dst_group:
            # Intra-group detours: the all-to-all cluster offers a 2-hop
            # path through every other local router.
            waypoints = [r for r in self.group_routers(src_group) if r not in original]
        else:
            waypoints = [
                mid for mid in range(self.num_groups)
                if mid != src_group and mid != dst_group
            ]
        if not waypoints:
            return paths
        offset = (src_host * 31 + dst_host * 17) % len(waypoints)
        for i in range(len(waypoints)):
            if len(paths) >= max_paths:
                break
            w = waypoints[(offset + i) % len(waypoints)]
            if src_group == dst_group:
                candidate: Path | None = (src_r, w, dst_r)
            else:
                candidate = self.valiant_route(src_r, dst_r, w)
            if candidate is not None and candidate not in seen:
                seen.add(candidate)
                paths.append(candidate)
        return paths

    def describe(self) -> str:
        return (
            f"{self.kind}(a={self.a}, p={self.p}, h={self.h}): "
            f"{self.num_groups} groups, {self.num_routers} routers, "
            f"{self.num_hosts} hosts"
        )
