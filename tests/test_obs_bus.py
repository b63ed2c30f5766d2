"""MetricsBus: fan-out, filtering, bounded lossy queues, thread safety."""

import sys
import threading

from repro.obs import BusSubscription, MetricsBus
from repro.obs.bus import KEEP_FINISHED


class TestSubscription:
    def test_offer_and_get(self):
        sub = BusSubscription()
        assert sub.offer({"seq": 1, "type": "x", "job": None, "data": {}})
        event = sub.get(timeout=0.1)
        assert event["seq"] == 1
        assert sub.get(timeout=0.01) is None

    def test_full_queue_drops_and_counts(self):
        sub = BusSubscription(maxsize=2)
        for seq in range(5):
            sub.offer({"seq": seq, "type": "x", "job": None, "data": {}})
        assert sub.dropped == 3
        assert sub.delivered == 2
        assert [e["seq"] for e in sub.drain()] == [0, 1]

    def test_type_filter(self):
        sub = BusSubscription(types=("progress",))
        assert sub.wants({"type": "progress", "job": None})
        assert not sub.wants({"type": "cell.metrics", "job": None})

    def test_job_filter_passes_broadcasts(self):
        sub = BusSubscription(job="job-1")
        assert sub.wants({"type": "x", "job": "job-1"})
        assert not sub.wants({"type": "x", "job": "job-2"})
        # job-less events are broadcasts and reach every subscriber
        assert sub.wants({"type": "x", "job": None})


class TestBus:
    def test_publish_assigns_monotonic_seq(self):
        bus = MetricsBus()
        first = bus.publish("a", {})
        second = bus.publish("b", {})
        assert second["seq"] == first["seq"] + 1

    def test_fanout_to_matching_subscribers(self):
        bus = MetricsBus()
        everyone = bus.subscribe()
        only_one = bus.subscribe(job="job-1")
        bus.publish("progress", {"n": 1}, job="job-1")
        bus.publish("progress", {"n": 2}, job="job-2")
        assert len(everyone.drain()) == 2
        assert [e["data"]["n"] for e in only_one.drain()] == [1]

    def test_unsubscribe_stops_delivery(self):
        bus = MetricsBus()
        sub = bus.subscribe()
        bus.unsubscribe(sub)
        bus.publish("x", {})
        assert bus.subscriber_count == 0
        assert sub.drain() == []
        assert sub.closed

    def test_slow_subscriber_never_blocks_publish(self):
        bus = MetricsBus()
        stalled = bus.subscribe(maxsize=1)
        healthy = bus.subscribe()
        for _ in range(100):
            bus.publish("x", {})
        # publish returned 100 times without blocking; the stalled queue
        # kept exactly one event and counted the rest as drops.
        assert stalled.dropped == 99
        assert len(healthy.drain()) == 100
        assert bus.dropped_total() == 99

    def test_stats_shape(self):
        bus = MetricsBus()
        bus.subscribe()
        bus.publish("x", {})
        stats = bus.stats()
        assert stats["published"] == 1
        assert stats["subscribers"] == 1
        assert stats["delivered"] == 1
        assert stats["dropped"] == 0

    def test_concurrent_publish_is_gapless(self):
        bus = MetricsBus()
        sub = bus.subscribe(maxsize=4096)
        threads = [
            threading.Thread(
                target=lambda: [bus.publish("x", {}) for _ in range(200)]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = sub.drain()
        assert len(events) == 800
        # every sequence number 1..800 assigned exactly once
        assert sorted(e["seq"] for e in events) == list(range(1, 801))


def _finish(bus, job):
    return bus.publish("job", {"state": "done"}, job=job)


class TestBacklog:
    """A job subscriber that joins late still sees every job frame once."""

    def test_publish_before_subscribe_is_replayed_in_order(self):
        bus = MetricsBus()
        bus.publish("job", {"state": "queued"}, job="job-1")
        bus.publish("progress", {"n": 1}, job="job-1")
        bus.publish("progress", {"n": 1}, job="job-2")
        bus.publish("tick", {})  # job-less broadcasts are not kept
        sub = bus.subscribe(job="job-1")
        bus.publish("progress", {"n": 2}, job="job-1")
        _finish(bus, "job-1")
        events = sub.drain()
        assert [e["type"] for e in events] == ["job", "progress", "progress", "job"]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(set(seqs))  # ordered, no duplicates
        assert sub.dropped == 0

    def test_replay_honours_the_type_filter(self):
        bus = MetricsBus()
        bus.publish("job", {"state": "queued"}, job="job-1")
        bus.publish("progress", {"n": 1}, job="job-1")
        sub = bus.subscribe(job="job-1", types=("progress",))
        assert [e["type"] for e in sub.drain()] == ["progress"]

    def test_firehose_gets_no_replay(self):
        bus = MetricsBus()
        bus.publish("progress", {"n": 1}, job="job-1")
        assert bus.subscribe().drain() == []

    def test_backlog_is_capped_at_the_queue_size_keeping_the_newest(self):
        bus = MetricsBus(maxsize=4)
        for n in range(10):
            bus.publish("progress", {"n": n}, job="job-1")
        _finish(bus, "job-1")
        events = bus.subscribe(job="job-1").drain()
        assert [e["data"].get("n") for e in events] == [7, 8, 9, None]
        assert events[-1]["data"]["state"] == "done"

    def test_only_the_newest_finished_backlogs_are_kept(self):
        bus = MetricsBus()
        jobs = [f"job-{n}" for n in range(KEEP_FINISHED + 1)]
        for job in jobs:
            bus.publish("progress", {}, job=job)
        bus.publish("progress", {}, job="job-active")
        for job in jobs:
            _finish(bus, job)
        assert bus.subscribe(job=jobs[0]).drain() == []
        for job in jobs[1:]:
            assert len(bus.subscribe(job=job).drain()) == 2
        # an active job's backlog is never evicted
        assert len(bus.subscribe(job="job-active").drain()) == 1

    def test_a_failed_job_counts_as_finished(self):
        bus = MetricsBus()
        bus.publish("job", {"state": "failed"}, job="job-failed")
        for n in range(KEEP_FINISHED):
            _finish(bus, f"job-{n}")
        assert bus.subscribe(job="job-failed").drain() == []
        assert len(bus.subscribe(job="job-0").drain()) == 1

    def test_replay_into_a_small_queue_drops_and_counts(self):
        bus = MetricsBus()
        for n in range(3):
            bus.publish("progress", {"n": n}, job="job-1")
        sub = bus.subscribe(job="job-1", maxsize=1)
        assert [e["data"]["n"] for e in sub.drain()] == [0]
        assert sub.dropped == 2

    def test_subscribes_racing_publishes_lose_and_duplicate_nothing(self):
        bus = MetricsBus()
        for _ in range(100):
            bus.publish("progress", {}, job="job-1")
        start = threading.Barrier(7)
        subs = []

        def publisher():
            start.wait()
            for _ in range(100):
                bus.publish("progress", {}, job="job-1")
                bus.publish("progress", {}, job="job-2")

        def subscriber():
            start.wait()
            subs.append(bus.subscribe(job="job-1"))

        threads = [threading.Thread(target=publisher) for _ in range(4)]
        threads += [threading.Thread(target=subscriber) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(subs) == 3
        for sub in subs:
            events = sub.drain()
            assert len(events) == 500 and sub.dropped == 0
            assert len({e["seq"] for e in events}) == 500
            assert {e["job"] for e in events} == {"job-1"}
