"""The fused plain hop in ``Fabric._arrive`` against ``Router.forward``.

``Fabric._arrive`` inlines ``Router.occupy`` + ``Router.account`` for a
plain hop (store-and-forward, no VC, no On/Off, no failed or degraded
link); every other hop goes through ``Router.forward``.  The two copies
must leave the same state.  Each test runs one seeded scenario twice:
once as built (fused), once with the fabric forced onto the
``Router.forward`` path, and compares every port, router and delivered
packet field the forwarding logic writes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.network.nic import ProcessingNode
from repro.network.router import Router
from repro.scenario import Scenario, build
from repro.traffic.bursty import BurstSchedule

#: a small buffer and a low CFD threshold, so the seeded hot spot hits
#: buffer overflow, queue purges and contending-flow detection.
SPEC = Scenario(
    "mesh:4", "pr-drb", seed=5,
    config={"buffer_size_bytes": 4096, "router_threshold_s": 1e-6},
    schedule=BurstSchedule(on_s=1e-4, off_s=5e-5, repetitions=2),
    rate_bps=1.6e9, noise_rate_bps=2e8,
)


def _port_state(port):
    return (
        port.busy_until, tuple(port.queue), dict(port.flow_bytes),
        port.occupancy_bytes, port.overflows, port.total_wait_s,
        port.packets, port.bytes, port.cfd_quiet_until,
    )


def _run(notification, fused, monkeypatch):
    """Run SPEC; return (state, forward calls, the context)."""
    delivered = []
    real_receive = ProcessingNode.receive
    real_forward = Router.forward
    calls = [0]

    def receive(node, packet, now):
        delivered.append((
            packet.src, packet.dst, packet.created_at, packet.path,
            packet.path_latency, packet.contending, packet.reporting_router,
            packet.predictive_bit,
        ))
        real_receive(node, packet, now)

    def forward(router, packet, port, now):
        calls[0] += 1
        return real_forward(router, packet, port, now)

    monkeypatch.setattr(ProcessingNode, "receive", receive)
    monkeypatch.setattr(Router, "forward", forward)
    context = build(replace(SPEC, notification=notification))
    assert context.fabric._plain
    if not fused:
        context.fabric._plain = False
    context.run()
    monkeypatch.undo()
    state = {
        "ports": [
            {key: _port_state(port) for key, port in sorted(r.ports.items())}
            for r in context.fabric.routers
        ],
        "routers": [
            (r.total_wait_s, r.packets_forwarded, r.bytes_forwarded)
            for r in context.fabric.routers
        ],
        "delivered": delivered,
    }
    return state, calls[0], context


@pytest.mark.parametrize("notification", ["destination", "router"])
def test_fused_hop_leaves_router_forward_state(notification, monkeypatch):
    fused, fused_calls, fused_ctx = _run(notification, True, monkeypatch)
    slow, slow_calls, slow_ctx = _run(notification, False, monkeypatch)

    # The fused run served every hop inline; the other one called
    # Router.forward once per hop.
    assert fused_calls == 0
    assert slow_calls == sum(r[1] for r in slow["routers"]) > 0

    # The run exercised the paths whose bookkeeping the copies share.
    ports = [p for router in fused["ports"] for p in router.values()]
    assert sum(p[4] for p in ports) > 0, "no buffer overflow"
    assert any(p[6] > len(p[1]) for p in ports), "no queue purge"
    if notification == "destination":
        assert any(d[5] for d in fused["delivered"]), "no CFD capture"
    else:
        assert any(d[7] for d in fused["delivered"]), "no predictive ACK"

    assert fused == slow
    assert fused_ctx.trace.hexdigest() == slow_ctx.trace.hexdigest()


def test_plain_flag_follows_the_config():
    assert build(SPEC).fabric._plain
    for override in (
        {"cut_through": True}, {"flow_control": "onoff"}, {"virtual_channels": 2},
    ):
        assert not build(replace(SPEC, config=override)).fabric._plain, override
    assert not build(replace(SPEC, policy="adaptive-hop")).fabric._plain
