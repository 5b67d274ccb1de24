"""Tests for the content-addressed result cache."""

import json

import pytest

from repro.obs.events import check_schema
from repro.obs.sinks import MemoryTraceSink
from repro.service.cache import ResultCache
from repro.service.fingerprint import fingerprint_request
from repro.synthesis.io import design_to_document
from repro.synthesis.synthesizer import Synthesizer


def doc(tag: str, pad: int = 0) -> dict:
    return {"tag": tag, "pad": "x" * pad}


class TestRawStore:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, "design", doc("a"))
        stored = cache.get("k" * 64)
        assert stored == {"kind": "design", "fingerprint": "k" * 64,
                          "payload": doc("a")}
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["stores"] == 1

    def test_contains_and_len(self):
        cache = ResultCache()
        cache.put("a" * 64, "design", doc("a"))
        assert ("a" * 64) in cache
        assert ("b" * 64) not in cache
        assert len(cache) == 1

    def test_lru_eviction_respects_byte_budget(self):
        entries = {name: doc(name, pad=300) for name in ("aa", "bb", "cc")}
        one_entry = len(json.dumps(
            {"kind": "design", "fingerprint": "aa" * 32, "payload": entries["aa"]}
        ).encode())
        cache = ResultCache(byte_budget=2 * one_entry + 10)
        for name, payload in entries.items():
            cache.put(name * 32, "design", payload)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["bytes"] <= cache.byte_budget
        assert ("aa" * 32) not in cache  # oldest evicted
        assert cache.get("cc" * 32) is not None

    def test_get_refreshes_lru_position(self):
        payload = doc("x", pad=300)
        one_entry = len(json.dumps(
            {"kind": "design", "fingerprint": "aa" * 32, "payload": payload}
        ).encode())
        cache = ResultCache(byte_budget=2 * one_entry + 10)
        cache.put("aa" * 32, "design", payload)
        cache.put("bb" * 32, "design", doc("x", pad=300))
        cache.get("aa" * 32)  # refresh: aa becomes most-recent
        cache.put("cc" * 32, "design", doc("x", pad=300))
        assert ("bb" * 32) not in cache
        assert ("aa" * 32) in cache

    def test_oversized_entry_skips_memory_tier(self, tmp_path):
        cache = ResultCache(byte_budget=64, directory=tmp_path)
        cache.put("aa" * 32, "design", doc("big", pad=500))
        assert len(cache) == 0           # never admitted to memory
        assert cache.get("aa" * 32) is not None  # served from disk
        assert cache.stats()["evictions"] == 0

    def test_clear_keeps_counters(self):
        cache = ResultCache()
        cache.put("aa" * 32, "design", doc("a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["stores"] == 1


class TestDiskTier:
    def test_layout_and_restart_survival(self, tmp_path):
        key = "ab" + "c" * 62
        cache = ResultCache(directory=tmp_path)
        cache.put(key, "design", doc("persisted"))
        assert (tmp_path / "ab" / f"{key}.json").is_file()

        reborn = ResultCache(directory=tmp_path)
        stored = reborn.get(key)
        assert stored is not None
        assert stored["payload"] == doc("persisted")
        assert reborn.stats()["hits"] == 1
        assert len(reborn) == 1  # disk hit re-admitted to memory

    def test_no_disk_without_directory(self):
        cache = ResultCache()
        cache.put("aa" * 32, "design", doc("a"))
        assert cache.stats()["directory"] is None


class TestTraceEvents:
    def test_events_emitted_and_schema_valid(self, tmp_path):
        sink = MemoryTraceSink()
        payload = doc("x", pad=300)
        one_entry = len(json.dumps(
            {"kind": "design", "fingerprint": "aa" * 32, "payload": payload}
        ).encode())
        cache = ResultCache(
            byte_budget=one_entry + 10, directory=tmp_path, trace=sink
        )
        cache.get("aa" * 32)                      # miss
        cache.put("aa" * 32, "design", payload)   # store
        cache.get("aa" * 32)                      # hit
        cache.put("bb" * 32, "front", doc("y", pad=300))  # store + evict
        types = [event.type for event in sink.events]
        # Events are emitted after the lock is released: the second put's
        # store event first, then the eviction its admission caused.
        assert types == [
            "cache_miss", "cache_store", "cache_hit", "cache_store",
            "cache_evict",
        ]
        assert check_schema(sink.events) == []
        hit = next(e for e in sink.events if e.type == "cache_hit")
        assert hit.data["kind"] == "design"


class TestTypedHelpers:
    @pytest.fixture(scope="class")
    def solved(self, request):
        from repro.system.examples import example1_library
        from repro.taskgraph.examples import example1

        graph, library = example1(), example1_library()
        design = Synthesizer(graph, library, solver="highs").synthesize()
        return graph, library, design

    def test_design_round_trip_is_byte_identical(self, solved):
        graph, library, design = solved
        cache = ResultCache()
        key = fingerprint_request("synthesize", graph, library)
        cache.put_design(key, design)
        restored = cache.get_design(key, graph, library)
        assert json.dumps(design_to_document(restored), sort_keys=True) == \
            json.dumps(design_to_document(design), sort_keys=True)

    def test_kind_mismatch_returns_none(self, solved):
        graph, library, design = solved
        cache = ResultCache()
        cache.put_design("aa" * 32, design)
        assert cache.get_front("aa" * 32, graph, library) is None

    def test_front_round_trip_via_sweep_cache(self, solved):
        """Acceptance: cached and fresh Table II fronts are byte-identical."""
        graph, library, _ = solved
        cache = ResultCache()
        fresh = Synthesizer(graph, library, solver="highs").pareto_sweep(cache=cache)
        cached = Synthesizer(graph, library, solver="highs").pareto_sweep(cache=cache)
        assert cache.stats()["hits"] == 1
        assert cached.to_json() == fresh.to_json()
        assert [d.cost for d in cached] == [d.cost for d in fresh]


class TestCacheBackends:
    """The pluggable CacheBackend tier implementations."""

    def test_memory_backend_reports_evictions_via_callback(self):
        from repro.service.cache import MemoryCacheBackend

        evicted = []
        backend = MemoryCacheBackend(
            byte_budget=64, on_evict=lambda key, size: evicted.append(key)
        )
        backend.put("a", b"x" * 40)
        backend.put("b", b"y" * 40)  # over budget: "a" must go
        assert backend.get("a") is None
        assert backend.get("b") == b"y" * 40
        assert evicted == ["a"]
        assert backend.stats()["evictions"] == 1

    def test_sharded_disk_layout_and_atomic_survival(self, tmp_path):
        from repro.service.cache import ShardedDiskBackend

        backend = ShardedDiskBackend(tmp_path)
        backend.put("abcdef", b"{}")
        assert (tmp_path / "ab" / "abcdef.json").is_file()
        assert not list(tmp_path.glob("**/.*tmp"))  # no temp litter
        # A fresh backend over the same directory sees the entry.
        assert ShardedDiskBackend(tmp_path).get("abcdef") == b"{}"
        backend.clear()  # persistent tier: clear is a no-op by contract
        assert backend.contains("abcdef")

    def test_tiered_readthrough_promotes_deep_hits(self, tmp_path):
        from repro.service.cache import (
            MemoryCacheBackend,
            ShardedDiskBackend,
            TieredCacheBackend,
        )

        memory = MemoryCacheBackend(byte_budget=1 << 20)
        disk = ShardedDiskBackend(tmp_path)
        tiered = TieredCacheBackend(memory, disk)
        disk.put("deep", b'{"k": 1}')  # only on disk, as after a restart
        assert memory.get("deep") is None
        assert tiered.get("deep") == b'{"k": 1}'
        # The hit was re-admitted into the faster tier.
        assert memory.get("deep") == b'{"k": 1}'
        tiered.put("both", b"{}")
        assert memory.contains("both") and disk.contains("both")
        stats = tiered.stats()
        assert [t["backend"] for t in stats["tiers"]] == ["memory", "disk"]

    def test_oversized_entries_skip_memory_but_reach_disk(self, tmp_path):
        from repro.service.cache import (
            MemoryCacheBackend,
            ShardedDiskBackend,
            TieredCacheBackend,
        )

        memory = MemoryCacheBackend(byte_budget=16)
        tiered = TieredCacheBackend(memory, ShardedDiskBackend(tmp_path))
        big = b"z" * 64
        tiered.put("big", big)
        assert len(memory) == 0
        assert tiered.get("big") == big  # served by the disk tier

    def test_result_cache_accepts_custom_backend(self, tmp_path):
        from repro.service.cache import (
            MemoryCacheBackend,
            ResultCache,
            ShardedDiskBackend,
            TieredCacheBackend,
        )

        backend = TieredCacheBackend(
            MemoryCacheBackend(byte_budget=1 << 20),
            ShardedDiskBackend(tmp_path),
        )
        cache = ResultCache(backend=backend)
        cache.put("k1", "design", doc("one"))
        assert cache.get("k1")["payload"] == doc("one")
        assert cache.directory == tmp_path
        assert cache.stats()["backend"]["backend"] == "tiered"
        # A second cache over the same disk tier sees the entry cold.
        other = ResultCache(
            backend=ShardedDiskBackend(tmp_path)
        )
        assert other.get("k1")["payload"] == doc("one")
        cache.close()
        other.close()
