"""Declarative simulation tasks and content-addressed task keys.

A sweep cell — one (policy, seed, scenario) simulation — is described by
a :class:`SimTask`: a registered *kind* plus a JSON-serializable params
dict.  Declarative specs (not callables) are what lets the orchestrator
ship tasks to spawn-context worker processes and key the on-disk result
cache: the cache key is a SHA-256 over the canonical JSON of
``(kind, params, code_version)``, so *any* field change (threshold,
topology size, fault schedule, seed) produces a different key, and any
change to the simulator's source invalidates every cached cell.

The code-version token is itself content-addressed: a SHA-256 over the
sorted source bytes of the ``repro`` package (overridable through the
``REPRO_CODE_VERSION`` environment variable or per-sweep config, which
is how tests pin it).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

__all__ = [
    "SimTask",
    "canonical_json",
    "code_version",
    "json_safe",
    "make_topology",
    "task_key",
]


# ----------------------------------------------------------------------
# Canonical serialization
# ----------------------------------------------------------------------
def json_safe(value: Any) -> Any:
    """Coerce numpy scalars/arrays and tuples into plain JSON types."""
    import numpy as np

    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, exact floats."""
    return json.dumps(json_safe(obj), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Code-version token
# ----------------------------------------------------------------------
_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Content hash of the ``repro`` package's source (16 hex chars).

    Cached per process; honours ``REPRO_CODE_VERSION`` so CI and tests
    can pin or bump the token without touching source files.
    """
    global _code_version_cache
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _code_version_cache is None:
        import repro

        root = Path(repro.__file__).parent
        sha = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            sha.update(str(path.relative_to(root)).encode("utf-8"))
            sha.update(b"\0")
            sha.update(path.read_bytes())
        _code_version_cache = sha.hexdigest()[:16]
    return _code_version_cache


# ----------------------------------------------------------------------
# Tasks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SimTask:
    """One sweep cell: a registered task kind plus its parameters.

    ``params`` must contain only JSON-basic values (numbers, strings,
    bools, None, lists, dicts) — that is what makes tasks shippable to
    spawn-context workers and hashable into cache keys.
    """

    kind: str
    params: dict = field(default_factory=dict)
    #: display label for progress lines and the failure ledger.
    label: str = ""

    def __post_init__(self) -> None:
        # Fail fast on non-serializable params: a spec that cannot round-
        # trip through JSON cannot be cached or sent to a worker.
        canonical_json(self.params)

    def display(self) -> str:
        return self.label or f"{self.kind}:{canonical_json(self.params)[:60]}"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": json_safe(self.params), "label": self.label}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimTask":
        return cls(
            kind=str(data["kind"]),
            params=dict(data.get("params", {})),
            label=str(data.get("label", "")),
        )


def task_key(task: SimTask, version: Optional[str] = None) -> str:
    """Content-addressed cache key of ``task`` under a code version."""
    payload = canonical_json(
        {
            "kind": task.kind,
            "params": task.params,
            "code_version": version if version is not None else code_version(),
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Topology specs
# ----------------------------------------------------------------------
def _mesh(args: list):
    from repro.topology.mesh import Mesh2D

    return Mesh2D(int(args[0]))


def _torus(args: list):
    from repro.topology.mesh import Torus2D

    return Torus2D(int(args[0]))


def _fattree(args: list):
    from repro.topology.fattree import KaryNTree

    return KaryNTree(int(args[0]), int(args[1]))


def _karyncube(args: list):
    from repro.topology.karycube import KaryNCube

    return KaryNCube(int(args[0]), int(args[1]))


def _slimtree(args: list):
    from repro.topology.slimtree import SlimmedKaryNTree

    return SlimmedKaryNTree(int(args[0]), int(args[1]), float(args[2]))


def _hypercube(args: list):
    from repro.topology.hypercube import Hypercube

    return Hypercube(int(args[0]))


def _dragonfly(args: list):
    from repro.topology.dragonfly import Dragonfly

    if len(args) != 3:
        raise ValueError(
            f"dragonfly takes exactly 3 arguments a,p,h (got {len(args)})"
        )
    a, p, h = args
    if not all(isinstance(v, int) for v in (a, p, h)):
        raise ValueError(f"dragonfly arguments must be integers (got {args!r})")
    return Dragonfly(a, p, h)


_TOPOLOGY_BUILDERS: dict[str, Callable[[list], Any]] = {
    "mesh": _mesh,
    "torus": _torus,
    "fattree": _fattree,
    "karyncube": _karyncube,
    "slimtree": _slimtree,
    "hypercube": _hypercube,
    "dragonfly": _dragonfly,
}


def _coerce_arg(text: str):
    """``"4"`` -> int 4, ``"0.5"`` -> float 0.5.

    Spec arguments used to be coerced through ``float`` wholesale, which
    silently turned integer builder params (k, n, dims) into floats;
    builders that validate types (dragonfly) need the distinction kept.
    """
    try:
        return int(text)
    except ValueError:
        return float(text)


def make_topology(spec: str):
    """Build a topology from a declarative spec string.

    Specs: ``mesh:8``, ``torus:8``, ``fattree:4,3``, ``karyncube:4,3``,
    ``slimtree:4,3,0.5``, ``hypercube:6``, ``dragonfly:4,2,2``.  Each call
    returns a fresh instance.  The instance comes with its route cache
    pre-enabled (see ``Topology.enable_route_cache``): workers answer the
    same minimal-route queries for every packet of a cell.
    """
    name, _, arg_text = spec.partition(":")
    builder = _TOPOLOGY_BUILDERS.get(name.strip())
    if builder is None:
        raise ValueError(
            f"unknown topology spec {spec!r}; expected one of "
            f"{sorted(_TOPOLOGY_BUILDERS)} with ':'-separated arguments"
        )
    try:
        args = [_coerce_arg(part.strip()) for part in arg_text.split(",") if part.strip()]
        topology = builder(args)
    except (ValueError, IndexError, TypeError) as exc:
        raise ValueError(f"bad topology spec {spec!r}: {exc}") from exc
    topology.enable_route_cache()
    return topology
