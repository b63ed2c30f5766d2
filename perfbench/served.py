"""The served workload: ``served-sweep``.

An in-process :class:`repro.serve.service.SimulationService` with its
defaults (inline ``workers=1``, 1e-4 s metrics cadence) serves HTTP on
loopback through :func:`repro.serve.http.make_server`, with a fresh
result cache and job journal per run.  One closed-loop client submits a
seeded stream of ``replay`` grids (``mesh_side=4``, policies
``deterministic`` and ``pr-drb``, one seed per grid) and waits for each
job before sending the next.  A job's completion is the arrival of its
terminal ``job`` frame on the ``/events`` firehose, which the client
opens before its first POST; nothing is polled.

The load is at most two connections on two client threads: the SSE
reader's, and one request connection at a time on the main thread.

Every second job repeats an earlier grid, drawn by the seed; the others
ask for a new grid seed.  The mix is fixed, not drawn: the miss share
sets both the stream's cost and the size of the cache that later jobs
read.  The operation is a *miss* job (one that computes at least one
cell); repeats still run and count in ``work_per_ref``.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import socket
import threading
import time
from pathlib import Path
from statistics import median
from typing import Optional

from perfbench.gauge import Gauge
from perfbench.ledger import SERVE_SPANS, SIM_SPANS, Ledger

POLICIES = ["deterministic", "pr-drb"]
REPETITIONS = 2
#: service start-ups per run; setup_s is their median.
SETUP_STARTS = 5
#: a job whose terminal frame takes longer than this is a failed job.
JOB_TIMEOUT_S = 30.0
#: jobs per second of ``--seconds``.  A stream is a fixed number of jobs,
#: not a time window: the job table, the journal and the cache manifest
#: grow with every job, so a time window would let a faster program do
#: more jobs and pay for it in memory and in manifest size.  At this
#: rate a stream takes about ``--seconds`` on a 2-core VM.
JOBS_PER_S = 16
#: the gauge is sampled before the first job and then before the first
#: job after each such interval; a job's time is divided by the median
#: of the samples within GAUGE_WIDTH of the last one before it.
GAUGE_EVERY_S = 1.0
GAUGE_WIDTH = 2


def grid(seed: int) -> dict:
    return {
        "kind": "replay", "policies": POLICIES, "seeds": [seed],
        "mesh_side": 4, "repetitions": REPETITIONS,
    }


class Served:
    """A running service plus its HTTP server, built in a scratch dir."""

    def __init__(self, scratch: Path) -> None:
        import repro.parallel.tasks as tasks
        from repro.serve.http import make_server
        from repro.serve.service import SimulationService

        scratch.mkdir(parents=True)
        self.scratch = scratch
        start = time.perf_counter()
        # Service start-up hashes the package source once per process;
        # forget that hash so every start-up pays it, as a fresh one does.
        tasks._code_version_cache = None
        self.service = SimulationService(
            cache_dir=str(scratch / "cache"), journal_path=scratch / "jobs.jsonl",
        )
        self.server = make_server(self.service, host="127.0.0.1", port=0)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-server", daemon=True,
        )
        self.thread.start()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            healthy = json.loads(conn.getresponse().read()).get("ok") is True
        finally:
            conn.close()
        self.setup_s = time.perf_counter() - start
        if not healthy:
            raise RuntimeError("service did not report healthy")

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.service.stop()
        shutil.rmtree(self.scratch, ignore_errors=True)


class Firehose(threading.Thread):
    """Reads ``/events`` and timestamps each job's state frames."""

    def __init__(self, port: int) -> None:
        super().__init__(name="perfbench-sse", daemon=True)
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=JOB_TIMEOUT_S)
        self.conn.request("GET", "/events")
        # The response takes the socket over; keep it to end the read.
        self.sock = self.conn.sock
        self.response = self.conn.getresponse()
        self.cond = threading.Condition()
        #: job id -> {state: (perf_counter, job record)}
        self.frames: dict[str, dict] = {}
        self.closed = False

    def run(self) -> None:
        clock = time.perf_counter
        readline = self.response.fp.readline
        event = None
        try:
            while True:
                line = readline()
                if not line:
                    break
                if line.startswith(b"event: "):
                    event = line[7:].strip()
                elif line.startswith(b"data: ") and event == b"job":
                    self.on_job_frame(clock(), line[6:])
        except (OSError, ValueError):
            pass
        finally:
            with self.cond:
                self.closed = True
                self.cond.notify_all()

    def on_job_frame(self, stamp: float, data: bytes) -> None:
        event = json.loads(data)["data"]
        job = event["job"]
        with self.cond:
            self.frames.setdefault(job["id"], {})[event["state"]] = (stamp, job)
            self.cond.notify_all()

    def wait_terminal(self, job_id: str) -> Optional[tuple[float, dict, dict]]:
        """(arrival time, terminal job record, all frames) or None."""
        deadline = time.perf_counter() + JOB_TIMEOUT_S
        with self.cond:
            while True:
                frames = self.frames.get(job_id, {})
                for state in ("done", "failed"):
                    if state in frames:
                        stamp, job = frames[state]
                        return stamp, job, frames
                left = deadline - time.perf_counter()
                if self.closed or left <= 0:
                    return None
                self.cond.wait(left)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the server already closed the stream
        self.join(timeout=10)
        self.response.close()
        self.conn.close()


class Client:
    """The closed-loop client: one SSE reader, one request at a time.

    Each request opens its own connection, as the service's own
    selftest client (``urllib``) does.  On a kept-alive connection the
    POST reply stalls about 40 ms: the server writes its headers and
    body in two sends, which meet the client's delayed ACK.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.firehose = Firehose(port)
        self.firehose.start()

    def _request(self, method: str, path: str, body: Optional[str] = None) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body, headers)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def job(self, spec: dict) -> dict:
        """Submit ``spec``; done when both the reply and the terminal
        frame are in."""
        body = json.dumps(spec)
        start = time.perf_counter()
        reply = self._request("POST", "/jobs", body)
        posted = time.perf_counter()
        job_id = reply["job"]["id"]
        terminal = self.firehose.wait_terminal(job_id)
        if terminal is None:
            return {"id": job_id, "ok": False, "error": "no terminal frame"}
        stamp, job, frames = terminal
        running = frames.get("running", (stamp, None))[0]
        return {
            "id": job_id, "ok": True, "job": job,
            "latency_s": max(stamp, posted) - start,
            "post_rtt_s": posted - start,
            "queue_wait_s": running - start,
        }

    def results(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}/results")

    def close(self) -> None:
        self.firehose.close()


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
class Stream:
    """Drives one client through a seeded job stream and checks each job."""

    def __init__(self, seed: int, client: Client) -> None:
        self.rng = random.Random(seed)
        self.next_seed = seed * 1_000_003 % 2**31
        self.seen: list[int] = []
        self.client = client
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.done: list[dict] = []
        self.first_miss: Optional[tuple[str, int]] = None

    def fresh(self) -> int:
        grid_seed = self.next_seed
        self.next_seed += 1
        return grid_seed

    def pick(self) -> int:
        if self.seen and self.attempted % 2:
            return self.rng.choice(self.seen)
        return self.fresh()

    def submit(self, grid_seed: int) -> Optional[dict]:
        repeat = grid_seed in self.seen
        self.attempted += 1
        try:
            reply = self.client.job(grid(grid_seed))
        except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
            reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        problem = self._problem(reply, repeat)
        if problem:
            self.failed += 1
            self.messages.append(f"grid seed {grid_seed}: {problem}")
            return None
        if not repeat:
            self.seen.append(grid_seed)
            if self.first_miss is None:
                self.first_miss = (reply["id"], grid_seed)
        reply["miss"] = not repeat
        self.done.append(reply)
        return reply

    @staticmethod
    def _problem(reply: dict, repeat: bool) -> str:
        if not reply["ok"]:
            return reply["error"]
        job = reply["job"]
        cells = len(POLICIES)
        if job["state"] != "done" or job["failed_cells"]:
            return f"state {job['state']}, {job['failed_cells']} failed cells"
        if job["total"] != cells or job["executed"] + job["cache_hits"] != cells:
            return f"{job['executed']}+{job['cache_hits']} of {job['total']} cells"
        if repeat and job["cache_hits"] != cells:
            return f"repeat job computed {job['executed']} cells"
        if not repeat and job["executed"] != cells:
            return f"new grid answered {job['cache_hits']} cells from the cache"
        return ""

    def check_direct(self) -> None:
        """One computed cell must equal a direct ``run_scenario``."""
        from repro.analysis.replay import run_scenario

        if self.first_miss is None:
            return
        job_id, grid_seed = self.first_miss
        self.attempted += 1
        label = f"replay:pr-drb/seed{grid_seed}"
        try:
            cells = {c["label"]: c["result"] for c in self.client.results(job_id)["cells"]}
        except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
            cells = {}
            self.messages.append(f"results of {job_id}: {type(exc).__name__}: {exc}")
        direct = run_scenario(
            seed=grid_seed, policy="pr-drb", mesh_side=4, repetitions=REPETITIONS,
        ).to_dict()
        served = cells.get(label) or {}
        if served.get("events") != direct["events"] or served.get("metrics") != direct["metrics"]:
            self.failed += 1
            self.messages.append(f"{label}: served digests differ from a direct run")


def _run_stream(seed: int, seconds: float, tiny: bool,
                service: Served, ledger: Optional[Ledger] = None,
                gauge: Optional[Gauge] = None) -> dict:
    """Run one stream; with ``gauge``, sample it about once a second and
    note in each job's reply the index of the last sample before it."""
    client = Client(service.port)
    stream = Stream(seed, client)
    try:
        if ledger is not None:
            ledger.install(SERVE_SPANS + SIM_SPANS)
            ledger.open_window()
        ops = []
        count = max(1, round(seconds * JOBS_PER_S))
        start = next_sample = time.perf_counter()
        first = len(stream.done)
        try:
            for _ in range(count):
                if gauge is not None and time.perf_counter() >= next_sample:
                    gauge.sample()
                    next_sample = time.perf_counter() + GAUGE_EVERY_S
                reply = stream.submit(stream.pick())
                if reply is not None and gauge is not None:
                    reply["gauge_index"] = len(gauge.samples) - 1
                if reply is not None and reply["miss"]:
                    ops.append(reply)
                if tiny and ops:
                    break
            wall_s = time.perf_counter() - start
        finally:
            if ledger is not None:
                ledger.close_window(_thread_key)
                ledger.uninstall()
        jobs = stream.done[first:]
        stream.check_direct()
    finally:
        client.close()
    return {"stream": stream, "ops": ops, "jobs": jobs, "wall_s": wall_s}


def _thread_key(thread: threading.Thread) -> str:
    """The layer a long-lived thread's unwrapped work belongs to."""
    if thread is threading.main_thread() or thread.name == "perfbench-sse":
        return "harness.client"
    if thread.name == "repro-serve-worker":
        return "serve.job"
    return "serve.http"  # the accept loop and the /events handler


def measure(seed: int, seconds: float, tiny: bool, root: Path) -> dict:
    setups = []
    for i in range(1 if tiny else SETUP_STARTS - 1):
        started = Served(root / f"setup{i}")
        setups.append(started.setup_s)
        started.close()
    gauge = Gauge()
    service = Served(root / "run")
    setups.append(service.setup_s)
    try:
        run = _run_stream(seed, seconds, tiny, service, gauge=gauge)
    finally:
        service.close()
    stream, ops, jobs = run["stream"], run["ops"], run["jobs"]
    if not ops:
        # No operation passed its checks: the run reports failure, and 0
        # keeps the result line valid JSON.
        return {"checker": stream, "absolute": {}, "metrics": dict.fromkeys(
            ("setup_s", "latency_p50_ref", "work_per_ref"), 0.0)}

    def ratio(job: dict) -> float:
        return job["latency_s"] / gauge.around(job["gauge_index"], GAUGE_WIDTH)

    cells = sum(job["job"]["total"] for job in jobs)
    latencies = [op["latency_s"] for op in ops]
    return {
        "checker": stream,
        "absolute": {
            "operations": len(ops),
            "latency_p50_ms": 1e3 * median(latencies),
            "work_per_s": cells / sum(job["latency_s"] for job in jobs),
            "gauge_ref_ms": gauge.median_ms(),
        },
        "metrics": {
            "setup_s": median(setups),
            "latency_p50_ref": median(ratio(op) for op in ops),
            "work_per_ref": cells / sum(ratio(job) for job in jobs),
        },
    }


def measure_traced(seed: int, seconds: float, tiny: bool, root: Path) -> dict:
    """A plain stream, then a traced one, each on a fresh service."""
    half = seconds / 2
    service = Served(root / "plain")
    try:
        plain = _run_stream(seed, half, tiny, service)
    finally:
        service.close()
    ledger = Ledger(clock=time.thread_time)
    service = Served(root / "traced")
    try:
        traced = _run_stream(seed, half, tiny, service, ledger=ledger)
        bus = service.service.bus.stats()
    finally:
        service.close()
    return {"plain": plain, "traced": traced, "ledger": ledger, "bus": bus}
