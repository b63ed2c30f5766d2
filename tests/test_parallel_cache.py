"""Content-addressed result cache: hits, corruption eviction, purge."""

import json

import pytest

from repro.parallel.cache import ResultCache
from repro.parallel.tasks import SimTask, task_key

TASK = SimTask(kind="selftest", params={"mode": "ok", "value": 7}, label="cell")
VERSION = "testver0000000000"
RESULT = {"value": 7, "nested": {"pi": 3.141592653589793}}


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def put_one(cache):
    key = task_key(TASK, VERSION)
    cache.put(key, TASK, VERSION, RESULT)
    return key


class TestPutGet:
    def test_miss_on_empty(self, cache):
        assert cache.get("0" * 64) is None
        assert cache.stats.misses == 1

    def test_round_trip(self, cache):
        key = put_one(cache)
        assert cache.get(key) == RESULT
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1

    def test_float_bit_exact(self, cache):
        key = put_one(cache)
        assert cache.get(key)["nested"]["pi"] == 3.141592653589793

    def test_sharded_layout(self, cache):
        key = put_one(cache)
        path = cache.path_for(key)
        assert path.parent.name == key[:2]
        assert path.exists()

    def test_no_tmp_left_behind(self, cache):
        put_one(cache)
        assert not list(cache.root.rglob("*.tmp"))


class TestCorruption:
    def test_truncated_entry_evicted(self, cache):
        key = put_one(cache)
        path = cache.path_for(key)
        path.write_text(path.read_text()[: 40], encoding="utf-8")
        assert cache.get(key) is None
        assert cache.stats.corrupt_evicted == 1
        assert not path.exists()  # evicted, next sweep recomputes

    def test_tampered_result_fails_checksum(self, cache):
        key = put_one(cache)
        path = cache.path_for(key)
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["result"]["value"] = 999  # bit-flip the payload
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.stats.corrupt_evicted == 1

    def test_wrong_key_slot_rejected(self, cache):
        key = put_one(cache)
        raw = cache.path_for(key).read_text(encoding="utf-8")
        other = "f" * 64
        other_path = cache.path_for(other)
        other_path.parent.mkdir(parents=True, exist_ok=True)
        other_path.write_text(raw, encoding="utf-8")
        assert cache.get(other) is None

    def test_recompute_after_eviction(self, cache):
        key = put_one(cache)
        cache.path_for(key).write_text("{", encoding="utf-8")
        assert cache.get(key) is None
        cache.put(key, TASK, VERSION, RESULT)  # the orchestrator's recompute
        assert cache.get(key) == RESULT


class TestInspection:
    def test_entries_lists_valid_only(self, cache):
        key = put_one(cache)
        bad = cache.path_for("e" * 64)
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("not json", encoding="utf-8")
        entries = list(cache.entries())
        assert [e.key for e in entries] == [key]
        assert entries[0].kind == "selftest"
        assert entries[0].label == "cell"
        assert entries[0].code_version == VERSION

    def test_purge_removes_everything(self, cache):
        key = put_one(cache)
        profile = cache.profile_path_for(key)
        profile.write_bytes(b"profdata")
        assert cache.purge() == 1
        assert cache.get(key) is None
        assert not profile.exists()

    def test_manifest_round_trip(self, cache):
        assert cache.read_manifest() is None
        cache.write_manifest({"executed": 3, "failures": []})
        assert cache.read_manifest() == {"executed": 3, "failures": []}


class TestManifestFormat:
    """The manifest is written compact; older indented ones still merge."""

    OLD = {
        "executed": 1, "cache_hits": 0, "all_ok": True,
        "outcomes": [{"key": "a", "status": "ok"}],
        "failures": [],
    }
    NEW = {
        "executed": 1, "cache_hits": 0, "all_ok": True,
        "outcomes": [{"key": "b", "status": "ok"}],
        "failures": [],
    }

    def test_compact_write_round_trips(self, cache):
        cache.write_manifest(self.NEW)
        raw = cache.manifest_path.read_text(encoding="utf-8")
        assert "\n" not in raw and ": " not in raw and ", " not in raw
        assert cache.read_manifest() == self.NEW

    def test_indented_manifest_on_disk_reads_and_merges(self, cache):
        cache.root.mkdir(parents=True)
        cache.manifest_path.write_text(
            json.dumps(self.OLD, indent=2, sort_keys=True), encoding="utf-8"
        )
        assert cache.read_manifest() == self.OLD
        cache.write_manifest(self.NEW)
        merged = cache.read_manifest()
        assert [o["key"] for o in merged["outcomes"]] == ["a", "b"]
        assert merged["executed"] == 2
        assert merged["all_ok"] is True
