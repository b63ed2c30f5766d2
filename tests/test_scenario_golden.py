"""Recorded digests of every scenario entry point the perf baseline skips.

``src/repro/perf/baseline.json`` pins the replay scenario for the four
default policies.  The other entry points — the fault campaign, the
``hotspot``/``pattern`` worker cells, and the pinned mesh8 and
dragonfly workloads — are pinned here, so a change to how scenarios are
built must reproduce every one of them bit for bit.  Entry points without a built-in event digest get one through
:func:`_traced`, which installs an :class:`EventTraceDigest` on every
simulator constructed while it is active.
"""

import hashlib

import pytest

from repro.analysis.replay import EventTraceDigest
from repro.parallel.tasks import SimTask, canonical_json
from repro.sim.engine import Simulator


def _sha(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@pytest.fixture
def traced(monkeypatch):
    """Every Simulator built while active gets an event digest (in order)."""
    digests = []
    original = Simulator.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        digests.append(EventTraceDigest().install(self))

    monkeypatch.setattr(Simulator, "__init__", init)
    return digests


#: policy -> (events digest, metrics digest, events executed, report sha)
FAULT_GOLDEN = {
    "deterministic": (
        "577c38f5b5cd87b517edabfba82b3ad9c95b738be6c37608f15aeefdf0464451",
        "fb27d587a21f684d1fc9d936df47a60197ce44aff4e3873123bef55329bde113",
        4674,
        "2a36533f76bfc022c759f95f08e8605a988bb63b869ff96087ebe6538a42da43",
    ),
    "drb": (
        "34fb9f75965741f8413324bf9ecfa7bb1d518744d869d78ec232bd7f999ab2bf",
        "b4db06f3e5596c601f5f6ec825406ce0e9eeedba727a18348b0af0bc20c7e649",
        6094,
        "6bb806dc83448e5e74f44e14c6b10a5a2d6d87808d11b51e01c07119ebff6fdf",
    ),
    "pr-drb": (
        "753f44f90f66ca364b1fe2ea7381b2bb830b005f04c677bb0089fce5ae4c12bf",
        "692db11a21a2e95f6ea0cd090206e5dc5e29c6ea9446db7bc542e0c911dee2b8",
        5576,
        "2010281a2a899bfb8a052b00828cacd7d984cc2f7357fd499f9761d13b523308",
    ),
    "fr-drb": (
        "27eb12b744a33ff3c5039fe7ac19c23edcff135f2e22bc671425d2ad56cf6f4c",
        "2132e5716d6a7eced3d4fe5531733d64fd88d0d96257ccc63cd6a3f7fcb29896",
        5943,
        "6ce5bd469c675b0c69c248949faa4e3cdc14ffc53f5b2d81a510f8dcc8eb4c90",
    ),
}


@pytest.mark.parametrize("policy", sorted(FAULT_GOLDEN))
def test_fault_scenario_digests(policy):
    from repro.faults.campaign import run_fault_scenario

    result = run_fault_scenario(policy)
    events, metrics, executed, report = FAULT_GOLDEN[policy]
    assert result.events_digest == events
    assert result.metrics_digest == metrics
    assert result.events_executed == executed
    assert _sha(result.report.to_dict()) == report


#: one cell per experiment task kind on mesh:4: (params, result sha,
#: event digest, events executed).
CELL_GOLDEN = {
    "hotspot": (
        {
            "topology": "mesh:4", "policy": "pr-drb", "flows": [[0, 15], [3, 11]],
            "rate_mbps": 1500,
            "schedule": {"on_s": 2e-4, "off_s": 1e-4, "start_s": 0.0, "repetitions": 2},
            "noise_rate_mbps": 50, "idle_rate_mbps": 100, "drain_s": 5e-4, "seed": 1,
            "notification": "router", "window_s": 5e-5, "track_routers": True,
        },
        "10a0aab973b1d04beb5fa6a431c32e9fcf7a9f3ac50004d2bb197a0a7fda0231",
        "3988ec29e1b43b0c815938d5fa7a6769b81a7558149b93bfb63ea77f384ea4b7",
        2749,
    ),
    "pattern": (
        {
            "topology": "mesh:4", "policy": "drb", "pattern": "uniform",
            "rate_mbps": 400,
            "schedule": {"on_s": 1e-4, "off_s": 1e-4, "start_s": 0.0, "repetitions": 2},
            "drain_s": 5e-4, "seed": 2, "idle_rate_mbps": 50,
            "config": {"cut_through": True},
        },
        "505b324bd8eb8397299e88c568800ecb1fb79f9ccf3bc047bf3d73243b6dd27e",
        "7c929dd80bd4a84750d59150919826e34afd375f743fe6af0720cafaa56ffa4b",
        1799,
    ),
}


@pytest.mark.parametrize("kind", sorted(CELL_GOLDEN))
def test_worker_cell_digests(kind, traced):
    from repro.parallel.worker import execute_task

    params, result_sha, events, executed = CELL_GOLDEN[kind]
    result = execute_task(SimTask(kind=kind, params=params))
    assert _sha(result) == result_sha
    assert traced[-1].hexdigest() == events
    assert traced[-1].events == executed


def test_pinned_mesh8_workload_digest(traced):
    from repro.perf import run_pinned_workload

    assert run_pinned_workload("pr-drb", 60_000) == 60_000
    assert traced[-1].hexdigest() == (
        "daf47e202880a21280f06ad84d54e13ccde7c7b6aff86bb083defdc5c69e73b8"
    )


def test_pinned_dragonfly_workload_digest():
    from repro.perf import run_pinned_dragonfly_workload

    run = run_pinned_dragonfly_workload("notified-adaptive")
    assert run["events_executed"] == 19382
    assert run["packets_injected"] == 1407
    assert run["packets_delivered"] == 1407
    assert run["digest"] == (
        "98f235dd5211b8669bd4bc2c453f9e1a9c54f7fc2440625621363008f1ea46f8"
    )
    assert _sha(run["policy_stats"]) == (
        "801988f77c55491c85bb6d0e828992f1d382c0cc6e4820f73301906a98aff7a4"
    )
