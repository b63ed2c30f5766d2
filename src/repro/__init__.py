"""repro — Predictive and Distributed Routing Balancing (PR-DRB).

A from-scratch reproduction of Núñez Castillo et al., *Predictive and
Distributed Routing Balancing for High Speed Interconnection Networks*
(IEEE CLUSTER 2011 / UAB PhD thesis 2013): a discrete-event
interconnection-network simulator, the DRB / PR-DRB / FR-DRB routing
family, synthetic and application-trace workloads, and the evaluation
harness regenerating the paper's tables and figures.

Every run is one :class:`repro.scenario.Scenario` built by
:func:`repro.scenario.build`.  Quickstart::

    from repro import BurstSchedule
    from repro.scenario import Scenario, build

    context = build(Scenario(
        "fattree:4,3", "pr-drb", pattern="perfect-shuffle", rate_bps=400e6,
        schedule=BurstSchedule(on_s=2e-3, off_s=0.0), stop_s=2e-3,
    ))
    context.run()
    print(context.recorder.summary())
"""

from repro.sim import Simulator, RandomStreams
from repro.topology import Mesh2D, Torus2D, KaryNTree, Hypercube
from repro.network import Fabric, NetworkConfig
from repro.routing import (
    DeterministicPolicy,
    RandomPolicy,
    CyclicPolicy,
    SourceAdaptivePolicy,
    DRBPolicy,
    PRDRBPolicy,
    FRDRBPolicy,
    make_policy,
)
from repro.metrics import StatsRecorder
from repro.traffic import BurstSchedule, make_pattern

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "RandomStreams",
    "Mesh2D",
    "Torus2D",
    "KaryNTree",
    "Hypercube",
    "Fabric",
    "NetworkConfig",
    "DeterministicPolicy",
    "RandomPolicy",
    "CyclicPolicy",
    "SourceAdaptivePolicy",
    "DRBPolicy",
    "PRDRBPolicy",
    "FRDRBPolicy",
    "make_policy",
    "StatsRecorder",
    "BurstSchedule",
    "make_pattern",
    "__version__",
]
