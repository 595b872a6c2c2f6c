"""Plan cache: fingerprints, hit/miss metrics, shared-manifest views."""

from repro.costmodel.model import PhaseCost
from repro.serve.cache import (
    PlanCache,
    PlanCacheEntry,
    workload_fingerprint,
)


def _entry(fingerprint="join-b@ibm-ac922", seconds=1.0):
    return PlanCacheEntry(
        fingerprint=fingerprint,
        phases=[
            PhaseCost(
                seconds=seconds,
                bottleneck="mem:cpu0-mem",
                occupancy={"mem:cpu0-mem": seconds},
                label="probe",
            )
        ],
        solo_seconds=seconds,
        modeled_bytes=1024.0,
        manifest={
            "kind": f"serve[{fingerprint}]",
            "results": {"a": 1},
            "serving": None,
        },
    )


class TestCacheCounters:
    def test_miss_then_hit(self):
        cache = PlanCache()
        assert cache.get("join-b@ibm-ac922") is None
        cache.put(_entry())
        assert cache.get("join-b@ibm-ac922") is not None
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_empty_cache_hit_rate_is_zero(self):
        assert PlanCache().hit_rate == 0.0

    def test_stats_shape(self):
        cache = PlanCache()
        cache.put(_entry())
        cache.get("join-b@ibm-ac922")
        stats = cache.stats()
        assert stats == {
            "entries": 1,
            "hits": 1,
            "misses": 0,
            "hit_rate": 1.0,
        }

    def test_contains_does_not_touch_counters(self):
        cache = PlanCache()
        cache.put(_entry())
        assert "join-b@ibm-ac922" in cache
        assert "other" not in cache
        assert cache.hits == 0
        assert cache.misses == 0


class TestCapacity:
    def test_eviction_at_capacity_drops_oldest(self):
        cache = PlanCache(capacity=2)
        cache.put(_entry("a@m"))
        cache.put(_entry("b@m"))
        cache.put(_entry("c@m"))
        assert len(cache) == 2
        assert "a@m" not in cache
        assert "b@m" in cache and "c@m" in cache

    def test_replacing_an_entry_does_not_evict(self):
        cache = PlanCache(capacity=2)
        cache.put(_entry("a@m"))
        cache.put(_entry("b@m"))
        cache.put(_entry("a@m", seconds=2.0))
        assert len(cache) == 2
        assert cache.get("a@m").solo_seconds == 2.0


class TestIsolation:
    def test_manifest_copy_is_independent(self):
        """Top-level dicts are per call; nested sections are shared."""
        cache = PlanCache()
        cache.put(_entry())
        entry = cache.get("join-b@ibm-ac922")
        first = entry.manifest_copy({"request_id": 0})
        second = entry.manifest_copy({"request_id": 1})
        assert first is not second and first is not entry.manifest
        assert first["serving"] == {"request_id": 0}
        assert second["serving"] == {"request_id": 1}
        first["kind"] = "mutated"
        first["results"] = {"a": 999}
        assert second["kind"] == entry.manifest["kind"]
        assert entry.manifest["results"] == {"a": 1}
        assert entry.manifest["serving"] is None
        # Nested sections are the entry's own (read-only by contract).
        assert second["results"] is entry.manifest["results"]

    def test_manifest_copy_keeps_key_order(self):
        entry = _entry()
        merged = entry.manifest_copy({"request_id": 0})
        assert list(merged) == list(entry.manifest)

    def test_fingerprint_format(self):
        assert workload_fingerprint("q6", "ibm-ac922") == "q6@ibm-ac922"
