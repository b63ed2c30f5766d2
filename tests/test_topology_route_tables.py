"""Process-wide route tables, one per topology shape.

``Topology.enable_route_cache`` attaches an instance's routing memos to
the table of its class and ``shape_key()``, so every build of one shape
in a process computes each path once.  The tables are capped at
``ROUTE_TABLE_SHAPES`` shapes, least recently attached out first.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.perf import PINNED_MESH8
from repro.scenario import build
from repro.topology import Mesh2D, SlimmedKaryNTree, Torus2D, base

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty table registry for the test (restored afterwards)."""
    tables: dict = {}
    monkeypatch.setattr(base, "_ROUTE_TABLES", tables)
    return tables


def _cached(topology):
    topology.enable_route_cache()
    return topology


def test_same_shape_instances_share_one_table(fresh_tables):
    a = _cached(Mesh2D(4))
    b = _cached(Mesh2D(4))
    assert list(fresh_tables) == [(Mesh2D, ("mesh2d", 4, 4))]
    route = a.minimal_route(0, 15)
    paths = a.alternative_paths(0, 15, 4)
    # b answers from what a computed: the very same tuples.
    assert b.minimal_route(0, 15) is route
    assert all(p is q for p, q in zip(b.alternative_paths(0, 15, 4), paths))
    table = fresh_tables[(Mesh2D, ("mesh2d", 4, 4))]
    assert set(table) == set(base.Topology._ROUTE_MEMO_NAMES)
    assert (0, 15) in table["minimal_route"]
    assert (0, 15, 4) in table["alternative_paths"]


def test_different_shapes_do_not_share(fresh_tables):
    for topology in (
        Mesh2D(4), Mesh2D(5), Torus2D(4),
        SlimmedKaryNTree(4, 3, 0.5), SlimmedKaryNTree(4, 3, 0.75),
    ):
        _cached(topology)
    assert list(fresh_tables) == [
        (Mesh2D, ("mesh2d", 4, 4)),
        (Mesh2D, ("mesh2d", 5, 5)),
        (Torus2D, ("torus2d", 4, 4)),
        (SlimmedKaryNTree, ("slimtree", 4, 3, 0.5)),
        (SlimmedKaryNTree, ("slimtree", 4, 3, 0.75)),
    ]
    half = _cached(SlimmedKaryNTree(4, 3, 0.5))
    most = _cached(SlimmedKaryNTree(4, 3, 0.75))
    # Different root sets, different answers: sharing would mix them up.
    assert half.alternative_paths(0, 63, 8) != most.alternative_paths(0, 63, 8)
    assert half.alternative_paths(0, 63, 8) == SlimmedKaryNTree(4, 3, 0.5).alternative_paths(0, 63, 8)


def test_cap_evicts_the_least_recently_attached_shape(fresh_tables):
    cap = base.ROUTE_TABLE_SHAPES
    for side in range(2, 2 + cap):
        _cached(Mesh2D(side))
    assert len(fresh_tables) == cap
    _cached(Mesh2D(2))  # re-attaching refreshes mesh2 ...
    _cached(Mesh2D(2 + cap))  # ... so the new shape evicts mesh3 instead
    assert len(fresh_tables) == cap
    sides = [key[1][1] for key in fresh_tables]
    assert 3 not in sides and 2 in sides and 2 + cap in sides


def test_pickle_drops_memos_and_reattaches(fresh_tables):
    mesh = _cached(Mesh2D(4))
    route = mesh.minimal_route(0, 15)
    state = mesh.__getstate__()
    assert not set(base.Topology._ROUTE_MEMO_NAMES) & set(state)
    restored = pickle.loads(pickle.dumps(mesh))
    assert restored.minimal_route(0, 15) is route
    assert len(fresh_tables) == 1


_PINNED = """
import json
from dataclasses import replace
from repro.perf import PINNED_MESH8
from repro.scenario import build
from repro.topology import base

def once():
    context = build(replace(PINNED_MESH8, policy="pr-drb"))
    context.run(max_events=20_000)
    return [context.trace.hexdigest(), context.sim.events_executed,
            repr(sorted(context.policy.stats().items()))]

cold = len(base._ROUTE_TABLES)
print(json.dumps({"cold_tables": cold, "runs": [once(), once()]}))
"""


def test_cold_and_warm_tables_give_the_same_digests():
    """The first build of a fresh process (empty tables) and a build on a
    warm table run the pinned workload (``PINNED_MESH8``, as
    ``run_pinned_workload`` builds it, with its trace digest on)
    identically."""
    proc = subprocess.run(
        [sys.executable, "-c", _PINNED], capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}, check=True,
    )
    out = json.loads(proc.stdout)
    assert out["cold_tables"] == 0
    cold, warm = out["runs"]
    assert cold == warm
    context = build(replace(PINNED_MESH8, policy="pr-drb"))
    context.run(max_events=20_000)
    assert cold == [
        context.trace.hexdigest(), context.sim.events_executed,
        repr(sorted(context.policy.stats().items())),
    ]
