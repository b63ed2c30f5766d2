"""End-to-end service smoke over real HTTP: jobs, SSE, dedup, digests.

One server fixture serves the whole module (each test run simulates only
a handful of mesh:4 cells).  Everything talks to it over loopback HTTP
exactly like an external client would.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import SimulationService, make_server

SPEC = {
    "kind": "replay",
    "policies": ["pr-drb", "deterministic"],
    "seeds": [0],
    "mesh_side": 4,
    "repetitions": 2,
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    service = SimulationService(
        cache_dir=str(tmp / "cache"), journal_path=str(tmp / "jobs.jsonl")
    )
    httpd = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield base, service
    httpd.shutdown()
    httpd.server_close()
    service.stop()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _read_sse(base, path, max_s=30.0):
    frames = []
    with urllib.request.urlopen(base + path, timeout=max_s) as response:
        event_type = data = None
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith(":"):
                continue
            if line.startswith("event: "):
                event_type = line[7:]
            elif line.startswith("data: "):
                data = line[6:]
            elif line == "" and event_type is not None:
                frames.append((event_type, json.loads(data)))
                event_type = data = None
    return frames


def _wait_terminal(base, job_id):
    """The job as of its terminal frame.

    A job stream closes after the frame in which the job reaches
    ``done``/``failed`` (or right after the opening ``state`` frame when
    the job is already terminal and its backlog was evicted), so reading
    it to the end is the wait.
    """
    kind, data = _read_sse(base, f"/jobs/{job_id}/events")[-1]
    job = data["job"] if kind == "state" else data["data"]["job"]
    assert job["state"] in ("done", "failed"), f"job {job_id} stream ended at {kind!r}"
    return job


class TestEndToEnd:
    def test_health_and_dashboard(self, server):
        base, _service = server
        assert _get(base, "/healthz") == {"ok": True}
        with urllib.request.urlopen(base + "/", timeout=10) as response:
            html = response.read().decode("utf-8")
        assert response.headers["Content-Type"].startswith("text/html")
        assert "EventSource" in html and "/events" in html

    def test_submit_stream_and_terminal_state(self, server):
        base, _service = server
        submitted = _post(base, "/jobs", SPEC)
        assert submitted["created"] is True
        job_id = submitted["job"]["id"]

        frames = _read_sse(base, f"/jobs/{job_id}/events?idle=3")
        kinds = [k for k, _ in frames]
        assert kinds[0] == "state"
        assert "progress" in kinds
        assert "cell.metrics" in kinds
        job = _wait_terminal(base, job_id)
        assert job["state"] == "done"
        assert job["executed"] == 2
        assert job["completed"] == job["total"] == 2
        assert {c["status"] for c in job["cells"]} == {"ok"}

    def test_repost_answers_entirely_from_cache(self, server):
        base, _service = server
        job = _wait_terminal(base, _post(base, "/jobs", SPEC)["job"]["id"])
        assert job["state"] == "done"
        assert job["executed"] == 0
        assert job["cache_hits"] == 2

    def test_served_digests_match_direct_run(self, server):
        from repro.analysis.replay import run_scenario

        base, _service = server
        job = _wait_terminal(base, _post(base, "/jobs", SPEC)["job"]["id"])
        results = _get(base, f"/jobs/{job['id']}/results")
        by_label = {c["label"]: c["result"] for c in results["cells"]}
        for policy in SPEC["policies"]:
            direct = run_scenario(
                seed=0, policy=policy, mesh_side=4, repetitions=2
            ).to_dict()
            served = by_label[f"replay:{policy}/seed0"]
            assert served["events"] == direct["events"]
            assert served["metrics"] == direct["metrics"]

    def test_metrics_prometheus_grammar(self, server):
        import re

        base, _service = server
        with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
            text = response.read().decode("utf-8")
            content_type = response.headers["Content-Type"]
        assert content_type.startswith("text/plain")
        line_re = re.compile(
            r"^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)"
            r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? "
            r"[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$"
        )
        bad = [ln for ln in text.splitlines() if ln and not line_re.match(ln)]
        assert bad == []
        assert "repro_serve_jobs_submitted_total" in text
        assert "repro_bus_published" in text

    def test_slow_subscriber_drops_without_stalling(self, server):
        base, service = server
        stalled = service.bus.subscribe(maxsize=1)
        try:
            spec = dict(SPEC, seeds=[2])
            job = _wait_terminal(base, _post(base, "/jobs", spec)["job"]["id"])
            assert job["state"] == "done"  # simulation finished regardless
            assert stalled.dropped > 0  # the only symptom is the counter
        finally:
            service.bus.unsubscribe(stalled)

    def test_job_stream_closes_on_terminal_frame(self, server):
        # No idle/limit: the stream ends by itself.  The read timeout sits
        # below the 5 s heartbeat, so a stream left open fails the test
        # instead of hanging it.
        base, service = server
        job_id = _post(base, "/jobs", dict(SPEC, seeds=[4]))["job"]["id"]
        frames = _read_sse(base, f"/jobs/{job_id}/events", max_s=4.0)
        assert frames[0][0] == "state"
        kind, last = frames[-1]
        assert kind == "job" and last["data"]["state"] == "done"
        # Finished: the backlog replays and the stream ends on the same frame.
        assert _read_sse(base, f"/jobs/{job_id}/events", max_s=4.0)[-1] == frames[-1]
        # Finished with its backlog evicted: only the opening state frame.
        with service.bus._lock:
            del service.bus._backlogs[job_id]
        frames = _read_sse(base, f"/jobs/{job_id}/events", max_s=4.0)
        assert [k for k, _ in frames] == ["state"]
        assert frames[0][1]["job"]["state"] == "done"

    def test_sse_limit_closes_stream(self, server):
        base, _service = server
        _post(base, "/jobs", dict(SPEC, seeds=[3]))
        frames = _read_sse(base, "/events?limit=2&idle=5")
        # opening state frame + exactly `limit` bus events
        assert len(frames) == 3
        assert frames[0][0] == "state"

    def test_errors(self, server):
        base, _service = server
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/jobs/job-does-not-exist")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/jobs", {"kind": "nope"})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/definitely/not/a/route")
        assert err.value.code == 404

    def test_journal_survives_restart(self, server, tmp_path):
        # A fresh service over the same journal sees completed jobs.
        base, service = server
        done_ids = {j.id for j in service.store.list() if j.state == "done"}
        assert done_ids
        from repro.serve.jobs import JobStore

        reloaded = JobStore(service.store._journal_path)
        assert done_ids <= {j.id for j in reloaded.list()}
        reloaded.close()


def test_accepted_sockets_have_tcp_nodelay(monkeypatch, tmp_path):
    import socket

    from repro.serve.http import _Handler

    seen = []
    original_handle = _Handler.handle

    def handle(self):
        seen.append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )
        original_handle(self)

    monkeypatch.setattr(_Handler, "handle", handle)
    service = SimulationService(journal_path=str(tmp_path / "jobs.jsonl"))
    httpd = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        assert _get(f"http://127.0.0.1:{httpd.server_address[1]}", "/healthz") == {
            "ok": True
        }
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.stop()
    assert _Handler.disable_nagle_algorithm is True
    assert len(seen) == 1 and seen[0] != 0
