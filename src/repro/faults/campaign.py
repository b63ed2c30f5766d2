"""Fault-injection campaign runner.

A *campaign* replays the reference small-mesh hot-spot workload (the
same one the seeded-replay harness digests) under a fault schedule —
transient link flaps on the primary route of the hottest flow plus
Bernoulli ACK loss — with the reliable transport installed, once per
routing policy.  Everything is driven from one root seed through named
:class:`~repro.sim.rng.RandomStreams`, and every run is digested with
the replay harness's event/metric SHA-256s, so campaigns are
bit-replayable and comparable across policies.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.network.config import ReliabilityConfig
from repro.scenario import Faults, Scenario, build
from repro.traffic.bursty import BurstSchedule

__all__ = [
    "FaultCampaignSpec",
    "FaultRunResult",
    "fault_models",
    "run_fault_scenario",
    "run_fault_campaign",
    "sweep_ack_loss",
]

#: the policies the acceptance campaign compares.
DEFAULT_POLICIES = ("deterministic", "drb", "pr-drb", "fr-drb")


@dataclass(frozen=True)
class FaultCampaignSpec(Faults):
    """Everything that defines one campaign (fully seeded): the fault
    schedule plus the reference hot-spot scenario it is applied to."""

    seed: int = 0
    mesh_side: int = 4
    repetitions: int = 3
    notification: str = "router"

    def to_dict(self) -> dict:
        """JSON form matching the ``fault`` task kind of repro.parallel;
        :meth:`from_dict` reconstructs it exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultCampaignSpec":
        reliability = data.get("reliability")
        if isinstance(reliability, dict):
            data = {**data, "reliability": ReliabilityConfig(**reliability)}
        return cls(**data)

    def scenario(self, policy: str) -> Scenario:
        """One policy's run of the campaign.  The drain window outlasts
        the last flap's repair plus the full (capped) backoff ladder, so
        every pending packet either delivers or is abandoned before the
        books are read."""
        return Scenario(
            f"mesh:{self.mesh_side}", policy, self.seed, notification=self.notification,
            schedule=BurstSchedule(on_s=1.5e-4, off_s=1.5e-4, repetitions=self.repetitions),
            drain_s=2e-3,
            faults=Faults(**{f.name: getattr(self, f.name) for f in fields(Faults)}),
        )


@dataclass(frozen=True)
class FaultRunResult:
    """One policy's run: digests + resilience report."""

    policy: str
    seed: int
    events_digest: str
    metrics_digest: str
    events_executed: int
    report: object  # ResilienceReport

    @classmethod
    def from_context(cls, context) -> "FaultRunResult":
        """Digest and report a :class:`repro.scenario.Context` whose run
        completed."""
        from repro.analysis.replay import digest_metrics
        from repro.faults.metrics import resilience_report

        return cls(
            policy=context.spec.policy,
            seed=context.spec.seed,
            events_digest=context.trace.hexdigest(),
            metrics_digest=digest_metrics(context.fabric, context.recorder, context.policy),
            events_executed=context.sim.events_executed,
            report=resilience_report(context.fabric, context.transport, context.injector),
        )

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "seed": self.seed,
            "events_digest": self.events_digest,
            "metrics_digest": self.metrics_digest,
            "events_executed": self.events_executed,
            "report": self.report.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRunResult":
        from repro.faults.metrics import ResilienceReport

        return cls(
            policy=str(data["policy"]),
            seed=int(data["seed"]),
            events_digest=str(data["events_digest"]),
            metrics_digest=str(data["metrics_digest"]),
            events_executed=int(data["events_executed"]),
            report=ResilienceReport.from_dict(data["report"]),
        )


def fault_models(faults: Faults, fabric, hot_flow: tuple[int, int], schedule) -> list:
    """A fault schedule's models against a concrete fabric."""
    from repro.faults.models import AckLoss, LinkFlap, StochasticLinkFlaps
    from repro.routing.deterministic import host_path

    models = []
    if faults.stochastic:
        models.append(
            StochasticLinkFlaps(
                mtbf_s=faults.mtbf_s,
                mttr_s=faults.mttr_s,
                end_s=schedule.end_time(),
            )
        )
    elif faults.flap_duration_s > 0:
        # Flap the first router hop of the hottest flow's minimal route:
        # it is both the deterministic path and every metapath's MSP 0,
        # so all policies face the same fault and must recover from it.
        primary = host_path(fabric.topology, *hot_flow)
        period = schedule.on_s + schedule.off_s
        for burst in range(1, min(3, schedule.repetitions)):
            models.append(
                LinkFlap(
                    primary[0],
                    primary[1],
                    at_s=burst * period + faults.flap_offset_s,
                    duration_s=faults.flap_duration_s,
                )
            )
    if faults.ack_loss > 0:
        models.append(AckLoss(drop_probability=faults.ack_loss))
    return models


def run_fault_scenario(
    policy: str = "pr-drb",
    spec: FaultCampaignSpec | None = None,
    with_invariants: bool = False,
) -> FaultRunResult:
    """One policy's seeded run under the campaign's fault schedule."""
    context = build((spec or FaultCampaignSpec()).scenario(policy), with_invariants=with_invariants)
    context.run()
    return FaultRunResult.from_context(context)


def _fault_task(policy: str, spec: FaultCampaignSpec):
    from repro.parallel.tasks import SimTask

    return SimTask(
        kind="fault",
        params={"policy": policy, "spec": spec.to_dict()},
        label=f"fault:{policy}/seed{spec.seed}/loss{spec.ack_loss:g}",
    )


def run_fault_campaign(
    policies=DEFAULT_POLICIES,
    spec: FaultCampaignSpec | None = None,
    executor=None,
) -> dict[str, FaultRunResult]:
    """Run the campaign once per policy; same seed and fault schedule.

    ``executor`` (a :class:`repro.parallel.SweepExecutor`) runs the
    policies in worker processes; each cell rebuilds the campaign from
    its seeded spec, so results (including the event/metric digests) are
    bit-identical to the serial loop.
    """
    spec = spec or FaultCampaignSpec()
    if executor is not None and len(policies) > 1:
        payloads = executor.run_strict([_fault_task(p, spec) for p in policies])
        return {
            policy: FaultRunResult.from_dict(payload)
            for policy, payload in zip(policies, payloads)
        }
    return {policy: run_fault_scenario(policy, spec) for policy in policies}


def sweep_ack_loss(
    rates,
    policies=DEFAULT_POLICIES,
    spec: FaultCampaignSpec | None = None,
    executor=None,
) -> dict[float, dict[str, FaultRunResult]]:
    """Fault-rate sweep: one campaign per ACK-loss probability.

    With an ``executor`` the full rate x policy grid is submitted as one
    sweep, so all cells share the worker pool (and the result cache)
    instead of parallelizing only within each rate.
    """
    from dataclasses import replace

    spec = spec or FaultCampaignSpec()
    specs = {rate: replace(spec, ack_loss=rate) for rate in rates}
    if executor is not None and len(rates) * len(policies) > 1:
        grid = [(rate, policy) for rate in rates for policy in policies]
        payloads = executor.run_strict(
            [_fault_task(policy, specs[rate]) for rate, policy in grid]
        )
        results: dict[float, dict[str, FaultRunResult]] = {rate: {} for rate in rates}
        for (rate, policy), payload in zip(grid, payloads):
            results[rate][policy] = FaultRunResult.from_dict(payload)
        return results
    return {
        rate: run_fault_campaign(policies, specs[rate])
        for rate in rates
    }
