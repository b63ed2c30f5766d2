"""Space-parallel sharded simulation (ROADMAP item 3, docs/sharding.md).

One large simulation is partitioned across K spawn-context worker
processes: :func:`repro.topology.partition.partition_topology` assigns
routers (and their hosts) to shards, each worker runs a
:class:`~repro.shard.engine.ShardSimulator` over its sub-fabric, and a
coordinator synchronizes them conservatively with a barrier-window
(YAWNS-style) protocol whose lookahead is derived from the minimum
latency of any cut link.  Cross-shard packet arrivals are handed off
through the Snapshottable pickling protocol at window barriers.

The correctness oracle is the PR-1/PR-4 digest gate:
``python -m repro.shard verify`` runs the same pinned scenario serially
and sharded and fails unless the event-trace and metric digests are
bit-identical (the offline merge in :mod:`repro.shard.merge`
reconstructs the serial calendar's global sequence numbers from the
per-shard execution logs).
"""

from repro.shard.rank import SETUP_ORIGIN, AmbiguousTieError, Rank
from repro.shard.engine import ShardSimulator
from repro.shard.fabric import LookaheadViolation, ShardFabric, ShardConfigError, min_lookahead_s
from repro.shard.protocol import HANDOFF_PAYLOAD_TYPES, Handoff
from repro.shard.scenarios import SCENARIOS, build_shard
from repro.shard.merge import MergeError, MergedRun, ShardResult, collect_result, merge_results
from repro.shard.runtime import ShardRunReport, run_sharded

__all__ = [
    "AmbiguousTieError",
    "HANDOFF_PAYLOAD_TYPES",
    "Handoff",
    "LookaheadViolation",
    "MergeError",
    "MergedRun",
    "Rank",
    "SCENARIOS",
    "SETUP_ORIGIN",
    "ShardConfigError",
    "ShardFabric",
    "ShardRunReport",
    "ShardResult",
    "ShardSimulator",
    "build_shard",
    "collect_result",
    "merge_results",
    "min_lookahead_s",
    "run_sharded",
]
