"""Tests for the content-addressed result cache."""

import errno
import json
import sys
import threading
from pathlib import Path

import pytest

from repro.obs.events import check_schema
from repro.obs.sinks import MemoryTraceSink
from repro.service.cache import CacheEntryError, ResultCache
from repro.service.fingerprint import fingerprint_request
from repro.service.jobs import DONE, JobManager, SynthesizeRequest
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

    def test_kind_mismatch_raises(self, solved):
        graph, library, design = solved
        cache = ResultCache()
        cache.put_design("aa" * 32, design)
        with pytest.raises(CacheEntryError):
            cache.get_front("aa" * 32, graph, library)
        assert cache.stats()["stores"] == 1  # never re-solved or overwritten

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
    """The memory LRU and the disk directory behind the one ResultCache
    (the ``backend`` block of its stats)."""

    def test_tiered_readthrough_promotes_deep_hits(self, tmp_path):
        ResultCache(directory=tmp_path).put("deep", "design", doc("k"))
        reborn = ResultCache(directory=tmp_path)
        assert len(reborn) == 0 and "deep" in reborn
        assert reborn.get("deep")["payload"] == doc("k")
        assert len(reborn) == 1
        (tmp_path / "de" / "deep.json").unlink()
        assert reborn.get("deep")["payload"] == doc("k")  # from memory now

    def test_oversized_entries_skip_memory_but_reach_disk(self, tmp_path):
        cache = ResultCache(byte_budget=16, directory=tmp_path)
        cache.put("big", "design", doc("z", pad=64))
        assert len(cache) == 0 and cache.stats()["bytes"] == 0
        assert (tmp_path / "bi" / "big.json").is_file()
        assert cache.get("big")["payload"] == doc("z", pad=64)
        assert len(cache) == 0  # a disk hit too big for memory stays out

    def test_sharded_disk_layout_and_atomic_survival(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        for key in ("abcdef", "abcdef", "ab1234"):
            cache.put(key, "design", doc(key))
        # No temp file is left behind.
        assert sorted(p.name for p in tmp_path.rglob("*")) == \
            ["ab", "ab1234.json", "abcdef.json"]

    def test_second_cache_on_the_directory_reads_cold(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k1", "design", doc("one"))
        other = ResultCache(directory=tmp_path)
        assert other.get("k1")["payload"] == doc("one")
        assert other.stats()["hits"] == 1 and other.stats()["stores"] == 0

    def test_clear_empties_memory_only(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put("k1", "design", doc("one"))
        cache.clear()
        assert len(cache) == 0 and "k1" in cache
        assert cache.get("k1")["payload"] == doc("one")

    def test_accounting_holds_under_concurrent_use(self, tmp_path):
        cache = ResultCache(byte_budget=600, directory=tmp_path)
        keys = [f"{n:02d}" * 32 for n in range(24)]

        def hammer(offset):
            for step in range(150):
                key = keys[(offset + step) % len(keys)]
                if cache.get(key) is None:
                    cache.put(key, "design", doc(key[:2], pad=step % 90))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,))
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 6 * 150
        assert stats["stores"] == stats["misses"] and stats["store_errors"] == 0
        assert cache._bytes == sum(map(len, cache._entries.values())) <= 600
        assert not list(tmp_path.rglob("*.tmp"))

    def test_stats_backend_shape_without_directory(self):
        cache = ResultCache(byte_budget=1 << 20)
        cache.put("k1", "design", doc("one"))
        stats = cache.stats()
        assert stats["backend"] == {
            "backend": "memory", "entries": 1, "bytes": stats["bytes"],
            "byte_budget": 1 << 20, "evictions": 0,
        }
        assert list(stats) == [
            "hits", "misses", "stores", "store_errors", "evictions",
            "entries", "bytes", "byte_budget", "directory", "backend",
        ]

    def test_stats_backend_shape_with_directory(self, tmp_path):
        stats = ResultCache(byte_budget=1 << 20, directory=tmp_path).stats()
        assert stats["directory"] == str(tmp_path)
        assert stats["backend"] == {"backend": "tiered", "tiers": [
            {"backend": "memory", "entries": 0, "bytes": 0,
             "byte_budget": 1 << 20, "evictions": 0},
            {"backend": "disk", "directory": str(tmp_path)},
        ]}


def _fill_disk_halfway(monkeypatch):
    """Make every temp-file write store half its bytes, then hit ENOSPC."""
    write_bytes = Path.write_bytes

    def torn_write(path, data):
        if not path.name.endswith(".tmp"):
            return write_bytes(path, data)
        write_bytes(path, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", torn_write)


def _untimed(document: dict) -> dict:
    return {k: v for k, v in document.items() if k != "solve_seconds"}


class TestDiskWriteFault:
    def test_failed_write_keeps_the_entry_in_memory_only(self, tmp_path,
                                                        monkeypatch):
        sink = MemoryTraceSink()
        cache = ResultCache(directory=tmp_path, trace=sink)
        _fill_disk_halfway(monkeypatch)
        cache.put("ab" * 32, "design", doc("a"))
        assert list(tmp_path.rglob("*.*")) == []
        stats = cache.stats()
        assert (stats["stores"], stats["store_errors"]) == (0, 1)
        assert cache.get_payload("ab" * 32, "design") == doc("a")
        assert [e.type for e in sink.events] == ["cache_hit"]

    def test_job_finishes_and_a_later_solve_stores_normally(
            self, tmp_path, monkeypatch, ex1_graph, ex1_library):
        def request():
            return SynthesizeRequest(ex1_graph, ex1_library, solver="highs",
                                     cost_cap=7.0)

        key = request().fingerprint()
        shard = tmp_path / key[:2]
        with monkeypatch.context() as patch:
            _fill_disk_halfway(patch)
            with JobManager(workers=1,
                            cache=ResultCache(directory=tmp_path)) as manager:
                job = manager.submit(request())
                assert job.wait(60)
                cache_stats = manager.stats()["cache"]
        assert job.status == DONE, job.error
        fresh = request().document_of(request().run(None))
        assert _untimed(job.document) == _untimed(fresh)
        assert list(shard.glob("*.tmp")) == []
        assert not (shard / f"{key}.json").exists()
        assert (cache_stats["stores"], cache_stats["store_errors"]) == (0, 1)

        cache = ResultCache(directory=tmp_path)
        with JobManager(workers=1, cache=cache) as manager:
            again = manager.submit(request())
            assert again.wait(60) and again.status == DONE
        assert not again.cached
        assert _untimed(again.document) == _untimed(job.document)
        assert (cache.stats()["stores"], cache.stats()["store_errors"]) == (1, 0)
        assert json.loads((shard / f"{key}.json").read_bytes())["payload"] \
            == again.document


class TestEnvelopeOnTheLibraryPath:
    def test_wrong_fingerprint_raises_instead_of_being_served(
            self, tmp_path, ex1_graph, ex1_library):
        synthesizer = Synthesizer(ex1_graph, ex1_library, solver="highs")
        cache = ResultCache(directory=tmp_path)
        design = synthesizer.synthesize(cost_cap=7.0, cache=cache)
        key = next(tmp_path.rglob("*.json")).stem
        forged = {"kind": "design", "fingerprint": "0" * 64,
                  "payload": design_to_document(design)}
        (tmp_path / key[:2] / f"{key}.json").write_text(json.dumps(forged))
        with pytest.raises(CacheEntryError):
            synthesizer.synthesize(cost_cap=7.0,
                                   cache=ResultCache(directory=tmp_path))
