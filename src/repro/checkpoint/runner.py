"""Scenario-level checkpoint orchestration.

Glue between the envelope (:mod:`repro.checkpoint.format`) and
:class:`repro.scenario.Context`, which enumerates its stateful roots the
same way for every simulation task kind (``replay``, ``fault``,
``hotspot``, ``pattern``).

A checkpoint is **one** pickle image of the context's named roots plus
the process-global packet-id counter, so every shared identity in the
live graph (retx timers ≡ heap entries, freelist recycling, memo caches)
survives the round trip and resume is bit-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.checkpoint.format import (
    CheckpointHeader,
    read_payload,
    write_checkpoint,
)
from repro.checkpoint.state import SnapshotError
from repro.network.packet import pid_counter_value, set_pid_counter

__all__ = [
    "code_version",
    "load_scenario_checkpoint",
    "save_scenario_checkpoint",
]


def code_version() -> str:
    """Version stamp refusing cross-version restores (repro release)."""
    import repro

    return repro.__version__


def save_scenario_checkpoint(
    context,
    path: Union[str, Path],
    *,
    meta: Optional[dict] = None,
) -> CheckpointHeader:
    """Snapshot a (possibly mid-run) context into an envelope at ``path``."""
    roots = context.checkpoint_roots()
    # itertools.count cannot be introspected destructively mid-run, so the
    # global packet-id counter rides beside the graph (read via repr).
    roots["pid_counter"] = pid_counter_value()
    return write_checkpoint(
        path,
        roots,
        kind=roots["kind"],
        code_version=code_version(),
        sim_now=context.sim.now,
        events_executed=context.sim.events_executed,
        meta=meta,
    )


def load_scenario_checkpoint(
    path: Union[str, Path],
    *,
    expect_code_version: Optional[str] = "current",
):
    """Verify, unpickle and rebuild the context; returns (header, context).

    ``expect_code_version`` defaults to the running tree's version (the
    sentinel ``"current"``); pass ``None`` to skip the cross-version guard.
    """
    if expect_code_version == "current":
        expect_code_version = code_version()
    header, roots = read_payload(path, expect_code_version=expect_code_version)
    if not isinstance(roots, dict) or "context" not in roots:
        raise SnapshotError(f"{path}: payload is not a scenario checkpoint")
    set_pid_counter(roots["pid_counter"])
    return header, roots["context"]
