"""Crash-safe checkpoint/restore with digest-proven deterministic resume.

Three layers:

* :mod:`repro.checkpoint.state` — the :class:`Snapshottable` protocol:
  every stateful simulation class declares exactly which attributes a
  checkpoint carries (statically cross-checked by the
  ``snapshot-coverage`` pass of ``python -m repro.analysis check``);
* :mod:`repro.checkpoint.format` — the versioned, checksummed on-disk
  envelope (atomic writes; corrupt files detected, never resurrected);
* :mod:`repro.checkpoint.runner` — scenario-level save/restore for the
  replay harness and the fault campaign.

CLI: ``python -m repro.checkpoint save|restore|verify|info`` — see
docs/checkpoint.md.  The correctness bar is *interrupt-anywhere*:
run-to-T → snapshot → restore in a fresh process → run-to-end yields
event and metric digests bit-identical to the uninterrupted run.
"""

from repro.checkpoint.format import (
    CheckpointCorrupt,
    CheckpointHeader,
    FORMAT_VERSION,
    MAGIC,
    find_latest,
    read_header,
    read_payload,
    write_checkpoint,
)
from repro.checkpoint.state import (
    SnapshotError,
    Snapshottable,
    snapshot_excluded_names,
    snapshot_field_names,
)

#: runner symbols resolved lazily — the runner reaches into the network
#: and scenario layers, whose modules themselves import
#: ``repro.checkpoint.state`` at class-definition time; importing it
#: eagerly here would close that loop into a circular import.
_RUNNER_EXPORTS = (
    "code_version",
    "load_scenario_checkpoint",
    "save_scenario_checkpoint",
)


def __getattr__(name: str):
    if name in _RUNNER_EXPORTS:
        from repro.checkpoint import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CheckpointCorrupt",
    "CheckpointHeader",
    "FORMAT_VERSION",
    "MAGIC",
    "SnapshotError",
    "Snapshottable",
    "code_version",
    "find_latest",
    "load_scenario_checkpoint",
    "read_header",
    "read_payload",
    "save_scenario_checkpoint",
    "snapshot_excluded_names",
    "snapshot_field_names",
    "write_checkpoint",
]
