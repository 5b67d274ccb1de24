"""The cache-hit path of ``/v1``.

A hit serves the stored document as is: no rebuild of the design or
front, and the job's result object is only rebuilt when asked for.  An
exact repeat of an admitted body reuses the admitted request, so it is
neither parsed into a problem nor fingerprinted again.
"""

import contextlib
import json
import sys
import threading
from collections import Counter

import pytest

import repro.service.api as api_module
import repro.service.jobs as jobs_module
import repro.synthesis.io as io_module
from repro.service.api import RequestMemo, ServiceApi
from repro.service.cache import ResultCache
from repro.service.jobs import JobManager, SweepRequest, SynthesizeRequest
from repro.synthesis.design import Design
from repro.synthesis.front import ParetoFront
from tests.service.test_asgi import BAD_BODIES

BODIES = {
    "synthesize": {"problem": "example1", "solver": "highs", "cost_cap": 7,
                   "wait": 60},
    "sweep": {"problem": "example1", "solver": "highs", "max_designs": 2,
              "wait": 60},
}


@contextlib.contextmanager
def served(cache):
    with JobManager(workers=1, cache=cache) as manager:
        yield ServiceApi(manager)


def post(api, kind, body):
    encoded = body if isinstance(body, bytes) else json.dumps(body).encode()
    return api.handle("POST", f"/v1/{kind}", encoded)


class TestStoredDocumentServed:
    @pytest.mark.parametrize("tier", ["memory", "disk"])
    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_hit_result_is_byte_identical_to_the_miss(self, kind, tier, tmp_path):
        cache = ResultCache(directory=tmp_path if tier == "disk" else None)
        with served(cache) as api:
            miss = post(api, kind, BODIES[kind])
            assert miss.status == 200 and not miss.document["cached"]
            if tier == "disk":
                cache.clear()  # empties the memory tier: the hit reads disk
                assert len(cache) == 0
            hit = post(api, kind, BODIES[kind])
        assert hit.status == 200 and hit.document["cached"]
        assert (json.dumps(hit.document["result"]).encode()
                == json.dumps(miss.document["result"]).encode())

    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_hit_result_object_is_rebuilt_on_access(self, kind, ex1_graph,
                                                    ex1_library):
        def request():
            if kind == "sweep":
                return SweepRequest(ex1_graph, ex1_library, solver="highs",
                                    max_designs=2)
            return SynthesizeRequest(ex1_graph, ex1_library, solver="highs",
                                     cost_cap=7.0)

        with JobManager(workers=1, cache=ResultCache()) as manager:
            miss = manager.submit(request())
            assert miss.wait(60)
            hit = manager.submit(request())
        assert hit.cached and hit._result is None
        result = hit.result
        assert isinstance(result, ParetoFront if kind == "sweep" else Design)
        # What the stored document rebuilds to, and what it came from.
        assert result == request().result_from_document(miss.document)
        assert request().document_of(result) == miss.document
        assert hit.result is result  # rebuilt once

    @pytest.mark.parametrize("mismatch", ["kind", "fingerprint"])
    def test_mismatched_entry_answers_500_and_is_never_served(self, mismatch,
                                                               tmp_path):
        cache = ResultCache(directory=tmp_path)
        with served(cache) as api:
            miss = post(api, "synthesize", BODIES["synthesize"])
            key = miss.document["fingerprint"]
            entry = {"kind": "design", "fingerprint": key,
                     "payload": miss.document["result"]}
            entry[mismatch] = {"kind": "front", "fingerprint": "0" * 64}[mismatch]
            # A stale or tampered disk entry, read once memory is emptied.
            (tmp_path / key[:2] / f"{key}.json").write_text(json.dumps(entry))
            cache.clear()
            for _ in range(2):
                response = post(api, "synthesize", BODIES["synthesize"])
                assert response.status == 500
                assert response.document["error"]["code"] == "internal"
                assert "CacheEntryError" in response.document["error"]["message"]
            assert api.manager.stats()["jobs"] == {"done": 1}


def _counting(calls, name, function):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return function(*args, **kwargs)
    return wrapper


class TestExactRepeat:
    @pytest.mark.parametrize("kind", sorted(BODIES))
    def test_repeat_skips_parse_fingerprint_and_rebuild(self, kind, monkeypatch):
        calls = Counter()
        for module, name in ((api_module, "request_from_document"),
                             (jobs_module, "fingerprint_request"),
                             (io_module, "design_from_dict")):
            monkeypatch.setattr(module, name,
                                _counting(calls, name, getattr(module, name)))
        monkeypatch.setattr(ParetoFront, "from_dict", classmethod(_counting(
            calls, "ParetoFront.from_dict", ParetoFront.from_dict.__func__)))
        with served(ResultCache()) as api:
            assert post(api, kind, BODIES[kind]).status == 200
            assert calls["request_from_document"] == 1
            assert calls["fingerprint_request"] == 1
            calls.clear()
            for _ in range(3):
                hit = post(api, kind, BODIES[kind])
                assert hit.status == 200 and hit.document["cached"]
        assert calls == Counter()

    def test_memo_evicts_least_recently_used_at_its_bounds(self):
        memo = RequestMemo(max_entries=2, max_bytes=10)
        memo.put(("synthesize", b"aa"), "A")
        memo.put(("synthesize", b"bb"), "B")
        assert memo.get(("synthesize", b"aa")) == "A"  # now most recent
        memo.put(("sweep", b"aa"), "C")  # same bytes, other route: new entry
        assert len(memo) == 2
        assert memo.get(("synthesize", b"bb")) is None
        memo.put(("sweep", b"123456789"), "D")  # 2 + 9 bytes > 10
        assert len(memo) == 1 and memo.get(("sweep", b"123456789")) == "D"
        memo.put(("sweep", b"x" * 11), "E")  # larger than the whole bound
        assert memo.get(("sweep", b"x" * 11)) is None
        assert memo.get(("sweep", b"123456789")) == "D"

    def test_memo_keeps_its_accounting_under_concurrent_use(self):
        memo = RequestMemo(max_entries=8, max_bytes=64)
        keys = [("synthesize", bytes(range(n % 7 + 1)) + bytes([n]))
                for n in range(40)]

        def hammer(offset):
            for step in range(400):
                key = keys[(offset + step) % len(keys)]
                if memo.get(key) is None:
                    memo.put(key, key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(memo) <= 8
        assert memo._bytes == sum(len(body) for _, body in memo._entries) <= 64

    def test_service_memo_holds_its_entry_bound(self, monkeypatch):
        monkeypatch.setattr(api_module, "REQUEST_MEMO_ENTRIES", 2)
        calls = Counter()
        monkeypatch.setattr(api_module, "request_from_document", _counting(
            calls, "parse", api_module.request_from_document))
        bodies = [{**BODIES["synthesize"], "cost_cap": cap} for cap in (7, 8, 9)]
        with served(ResultCache()) as api:
            for body in bodies:
                assert post(api, "synthesize", body).status == 200
            assert len(api._requests) == 2
            post(api, "synthesize", bodies[2])
            assert calls["parse"] == 3  # the newest body is still held
            post(api, "synthesize", bodies[0])
            assert calls["parse"] == 4  # the oldest was evicted

    def test_invalid_bodies_never_enter_the_memo(self):
        cases = [(route, body) for route, body, _ in BAD_BODIES.values()] + [
            ("synthesize", {"problem": "example1", "priority": "high"}),
            ("synthesize", {"problem": "example1", "deadline_seconds": "soon"}),
        ]
        with served(ResultCache()) as api:
            for _ in range(2):  # a repeat of an invalid body is refused again
                for route, body in cases:
                    response = post(api, route, body)
                    assert response.status == 400, (route, body)
                    assert response.document["error"]["code"] == "bad_request"
            assert len(api._requests) == 0
            assert api.manager.stats()["jobs"] == {}
