"""Per-layer time ledger, measured from outside the program.

The benchmark never edits ``src/``.  It times a layer by wrapping that
layer's public entry points (class attributes or module-level names) for
the duration of a traced operation, and counts simulator events with the
public ``Simulator.add_observer`` hook.  Every wrapped call is a span on
a per-thread stack; a span's *self time* is its duration minus the spans
it encloses, so the self times of all keys never double-count and the
time left over (``unattributed``) is what no span covers.

Wrappers copy ``__qualname__`` (``functools.wraps``), so the event-trace
digest, which labels events by callback qualname, is the same with and
without them: the traced run checks exactly that.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict

#: (owner path, attribute, ledger key).  The owner is a module path or
#: ``module:Class``.  Keys are ``<layer>.<part>``; the layer is a
#: ``repro.*`` sub-package name.  Callbacks the engine dispatches
#: (``Fabric._arrive`` ...) are wrapped too, so the engine's own loop
#: shows as ``sim.dispatch``: the ``Simulator.run`` span minus them.
SIM_SPANS = (
    ("repro.sim.engine:Simulator", "run", "sim.dispatch"),
    ("repro.sim.engine:Simulator", "schedule", "sim.schedule"),
    ("repro.sim.engine:Simulator", "schedule_at", "sim.schedule"),
    ("repro.network.fabric:Fabric", "_arrive", "network.hop"),
    ("repro.network.fabric:Fabric", "_deliver", "network.deliver"),
    ("repro.network.fabric:Fabric", "send", "network.inject"),
    ("repro.network.fabric:Fabric", "inject", "network.inject"),
    ("repro.network.fabric:Fabric", "_router_congestion", "network.notify"),
    ("repro.network.router:Router", "forward", "network.forward"),
    ("repro.network.nic:ProcessingNode", "receive", "network.nic"),
    ("repro.routing.drb:DRBPolicy", "select_path", "routing.select_path"),
    ("repro.routing.deterministic:DeterministicPolicy", "select_path",
     "routing.select_path"),
    ("repro.routing.drb:DRBPolicy", "on_ack", "routing.on_ack"),
    ("repro.routing.prdrb:PRDRBPolicy", "on_ack", "routing.on_ack"),
    ("repro.routing.prdrb:PRDRBPolicy", "on_predictive_ack", "routing.on_ack"),
    ("repro.routing.drb", "select_msp", "core.select_msp"),
    ("repro.core.metapath:Metapath", "expand", "core.metapath"),
    ("repro.core.metapath:Metapath", "shrink", "core.metapath"),
    ("repro.core.metapath:Metapath", "apply_solution", "core.metapath"),
    ("repro.core.metapath:Metapath", "record_ack", "core.metapath"),
    ("repro.core.metapath:Metapath", "path_for", "core.metapath"),
    ("repro.core.solutions:SolutionDatabase", "lookup", "core.lookup"),
    ("repro.core.solutions:SolutionDatabase", "save", "core.save"),
    ("repro.traffic.generators:HotSpotWorkload", "_inject_flow", "traffic.inject"),
    ("repro.traffic.generators:HotSpotWorkload", "_inject_noise", "traffic.inject"),
    ("repro.mpi.runtime:TraceRuntime", "_advance", "mpi.rank"),
    ("repro.mpi.runtime:TraceRuntime", "_resume", "mpi.rank"),
    ("repro.mpi.runtime:TraceRuntime", "_advance_past_block", "mpi.rank"),
    ("repro.mpi.runtime:TraceRuntime", "_maybe_wake", "mpi.rank"),
    ("repro.mpi.runtime", "lower_collectives", "mpi.lower"),
    ("repro.metrics.recorder:StatsRecorder", "on_data_injected", "metrics.recorder"),
    ("repro.metrics.recorder:StatsRecorder", "on_data_delivered", "metrics.recorder"),
    ("repro.analysis.replay:EventTraceDigest", "update", "analysis.digest"),
)

#: The harness layers of the served workload.
SERVE_SPANS = (
    ("repro.obs.metrics:MetricsRegistry", "snapshot", "obs.snapshot"),
    ("repro.obs.bus:MetricsBus", "publish", "obs.publish"),
    ("repro.parallel.cache:ResultCache", "get", "parallel.cache_get"),
    ("repro.parallel.cache:ResultCache", "put", "parallel.cache_put"),
    ("repro.parallel.cache:ResultCache", "write_manifest", "parallel.manifest"),
    ("repro.serve.service", "run_sweep", "parallel.run_sweep"),
    ("repro.parallel.orchestrator", "execute_task", "parallel.execute_task"),
    ("repro.serve.service", "expand_grid", "serve.expand"),
    ("repro.serve.jobs:JobStore", "_journal", "serve.journal"),
    ("repro.serve.service:SimulationService", "_run_job", "serve.job"),
    ("repro.serve.service:SimulationService", "submit", "serve.submit"),
    ("repro.serve.http:ServeHTTPServer", "process_request", "serve.http"),
    ("repro.serve.http:ServeHTTPServer", "process_request_thread", "serve.http"),
    ("repro.serve.http:_Handler", "_write_frame", "serve.http"),
    # The benchmark's own client, so its work is not left unattributed.
    ("perfbench.served:Client", "job", "harness.client"),
    ("perfbench.served:Firehose", "on_job_frame", "harness.client"),
)


def _thread_cpu(thread: threading.Thread) -> float:
    """CPU seconds ``thread`` has used so far."""
    return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))


def _resolve(owner: str):
    import importlib

    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tally:
    """One thread's span stack and sums; only that thread writes them."""

    def __init__(self) -> None:
        #: frames are ``[key, time in child spans]``; the root frame's
        #: child time is the thread's time inside top-level spans.
        self.stack: list[list] = [[None, 0.0]]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: events per callback qualname, and the time between consecutive
        #: observer calls charged to the callback that ran in between.
        self.events: Counter = Counter()
        self.event_s: dict[str, float] = defaultdict(float)
        #: lookups that found a saved solution (core.prediction_hit_ratio).
        self.solution_hits = 0

    def add(self, other: "Tally") -> None:
        for mine, theirs in (
            (self.self_s, other.self_s), (self.total_s, other.total_s),
            (self.event_s, other.event_s),
        ):
            for key, value in theirs.items():
                mine[key] += value
        self.calls.update(other.calls)
        self.events.update(other.events)
        self.solution_hits += other.solution_hits


class Ledger:
    """Spans and counts of one traced operation stream, kept in memory.

    ``clock`` times the spans.  Wall time suits one thread; where
    threads wait on each other (the served workload), pass
    ``time.thread_time`` so a span counts only the time its own thread
    was busy, and spans of different threads never overlap.  Each
    thread sums into its own tally; :meth:`totals` adds them up.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: every thread's tally, and the live one per thread id (ids of
        #: finished threads are reused by new ones).
        self._tallies: list[Tally] = []
        self._by_ident: dict[int, Tally] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._window: dict[int, tuple[threading.Thread, float]] = {}
        self._window_start = (0.0, 0.0)

    def _mine(self) -> Tally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = Tally()
            with self._lock:
                self._tallies.append(tally)
                self._by_ident[threading.get_ident()] = tally
        return tally

    def totals(self) -> Tally:
        """The sums over every thread."""
        total = Tally()
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            total.add(tally)
        return total

    def reset(self) -> dict[str, float]:
        """Forget the sums so far; returns their self times.

        Called between building a scenario and running it, so set-up
        work done under the wrappers stays out of the run's ledger.
        """
        spans = dict(self.totals().self_s)
        with self._lock:
            for tally in self._tallies:
                tally.__init__()
        return spans

    # ------------------------------------------------------------------
    # Whole-thread accounting (served workload)
    # ------------------------------------------------------------------
    def open_window(self) -> None:
        """Note every live thread's CPU clock; see :meth:`close_window`."""
        with self._lock:
            for tally in self._tallies:
                tally.stack[0][1] = 0.0
        self._window = {
            thread.ident: (thread, _thread_cpu(thread))
            for thread in threading.enumerate()
        }
        self._window_start = (time.perf_counter(), time.process_time())

    def close_window(self, key_of) -> None:
        """Charge each long-lived thread's CPU outside any span.

        A thread that was alive across the whole window and busy outside
        the wrapped entry points (an SSE loop, the accept loop, the
        client) has that remainder charged to ``key_of(thread)``.  Wall
        time in which the process used no CPU at all (thread hand-offs,
        loopback I/O, time the host did not run it) is measured as
        ``harness.off_cpu``.
        """
        mine = self._mine()
        wall0, cpu0 = self._window_start
        off_cpu = (time.perf_counter() - wall0) - (time.process_time() - cpu0)
        if off_cpu > 0:
            mine.self_s["harness.off_cpu"] += off_cpu
        for ident, (thread, start) in self._window.items():
            if not thread.is_alive():
                continue
            busy = _thread_cpu(thread) - start
            tally = self._by_ident.get(ident)
            inside = tally.stack[0][1] if tally is not None else 0.0
            if busy > inside:
                mine.self_s[key_of(thread)] += busy - inside

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn, key: str):
        ledger = self
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tally = ledger._mine()
            stack = tally.stack
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                tally.self_s[key] += elapsed - frame[1]
                parent = stack[-1]
                parent[1] += elapsed
                # A re-entered key (an override calling super(), a
                # callback calling itself) is one call, not two.
                if parent[0] != key:
                    tally.calls[key] += 1
                    tally.total_s[key] += elapsed

        return span

    def install(self, spans) -> None:
        """Wrap every ``(owner, attribute, key)`` entry point."""
        for owner_path, name, key in spans:
            owner = _resolve(owner_path)
            # An inherited method is shadowed on ``owner``, and the
            # shadow deleted again on uninstall (None marks that case).
            own = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name)
            wrapped = self._wrap(own or getattr(owner, name), key)
            if key == "core.lookup":
                wrapped = self._count_hits(wrapped)
            setattr(owner, name, wrapped)
            self._patches.append((owner, name, own))
        self._install_run_observer()

    def uninstall(self) -> None:
        """Put every original entry point back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _count_hits(self, lookup):
        ledger = self

        @functools.wraps(lookup)
        def counted(*args, **kwargs):
            found = lookup(*args, **kwargs)
            if found is not None:
                ledger._mine().solution_hits += 1
            return found

        return counted

    def _install_run_observer(self) -> None:
        """Count events per callback on every simulator while it runs."""
        from repro.sim.engine import Simulator

        ledger = self
        run = Simulator.__dict__["run"]
        clock = self.clock

        @functools.wraps(run)
        def observed_run(sim, *args, **kwargs):
            tally = ledger._mine()
            events, event_s = tally.events, tally.event_s
            # [callback running, its start, time spent in this observer]
            last = [None, 0.0, 0.0]

            def observe(event) -> None:
                now = clock()
                if last[0] is not None:
                    event_s[last[0]] += now - last[1]
                name = event[3].__qualname__
                events[name] += 1
                last[0] = name
                last[1] = now
                last[2] += clock() - now

            sim.add_observer(observe)
            try:
                return run(sim, *args, **kwargs)
            finally:
                if last[0] is not None:
                    event_s[last[0]] += clock() - last[1]
                sim.remove_observer(observe)
                # The observer ran inside the engine's span; its body is
                # tracing cost, not dispatch.
                tally.self_s["sim.dispatch"] -= last[2]
                tally.self_s["harness.observe"] += last[2]

        Simulator.run = observed_run
        self._patches.append((Simulator, "run", run))


def layer_self_s(self_s: dict[str, float]) -> dict[str, float]:
    """Self seconds per layer (the key's prefix)."""
    layers: dict[str, float] = defaultdict(float)
    for key, seconds in self_s.items():
        layers[key.split(".", 1)[0]] += seconds
    return dict(layers)


def table(tally: Tally, wall_s: float, title: str) -> str:
    """Human-readable ledger: calls, self time and share per key."""
    lines = [
        f"layer ledger: {title} (traced wall {wall_s:.4f} s)",
        f"  {'key':<24} {'calls':>10} {'self_s':>10} {'share':>7}",
    ]
    rows = [(k, v) for k, v in tally.self_s.items() if v or tally.calls[k]]
    rows.append(("harness.unattributed", wall_s - sum(tally.self_s.values())))
    for key, seconds in sorted(rows, key=lambda row: -row[1]):
        share = seconds / wall_s if wall_s > 0 else 0.0
        calls = tally.calls.get(key, "")
        lines.append(f"  {key:<24} {calls:>10} {seconds:>10.4f} {share:>7.1%}")
    return "\n".join(lines)
