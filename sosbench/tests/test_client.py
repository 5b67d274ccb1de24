"""The service client's failure accounting."""

import threading

from sosbench import service

EXPECTED = ((14.0, 2.5),)
REQUEST = service.Request("/v1/synthesize", {"problem": "example1"}, EXPECTED)


def done(cost=14.0, makespan=2.5, cached=False):
    return {"status": "done", "cached": cached, "submitted_at": 100.0,
            "started_at": 100.25, "finished_at": 101.0,
            "result": {"cost": cost, "makespan": makespan}}


def test_each_failure_kind_is_counted():
    cases = [
        ((200, done()), None),
        ((200, done(cost=13.0)), "answer"),
        ((429, {"error": {"code": "rate_limited"}}), "http 429"),
        ((500, None), "http 500"),
        ((202, {"status": "running"}), "http 202"),
        ((200, {"status": "failed"}), "job status 'failed'"),
        ((None, None), "transport error or timeout"),
        ((200, None), "job status None"),
    ]
    for (status, document), want in cases:
        failure = service.check_response(REQUEST, status, document)
        if want is None:
            assert failure is None
        else:
            assert failure is not None and failure.startswith(want), (status, failure)


def test_sweep_answers_compare_every_row():
    request = service.Request("/v1/sweep", {}, ((14.0, 2.5), (13.0, 3.0)))
    good = {"status": "done", "result": {"designs": [
        {"cost": 14.0, "makespan": 2.5}, {"cost": 13.0, "makespan": 3.0}]}}
    short = {"status": "done", "result": {"designs": [{"cost": 14.0, "makespan": 2.5}]}}
    assert service.check_response(request, 200, good) is None
    assert service.check_response(request, 200, short) is not None


def test_record_splits_server_time():
    exchange = service.record(REQUEST, 200, done(cached=True), latency_s=1.5)
    assert exchange.failure is None and exchange.cached
    assert exchange.server_s == 1.0
    assert exchange.queue_wait_s == 0.25
    assert exchange.run_s == 0.75


class FakeConnection:
    def __init__(self, answers):
        self.answers = answers
        self.lock = threading.Lock()

    def send(self, request):
        with self.lock:
            return self.answers.pop(0)


def test_drive_counts_failures_and_stops_when_the_list_ends():
    answers = [(200, done()), (429, None), (None, None), (200, done(cost=1.0))]
    requests = [REQUEST] * 4
    exchanges, wall = service.drive([FakeConnection(answers)], [requests], seconds=60)
    assert len(exchanges) == 4
    assert sum(1 for e in exchanges if e.failure) == 3
    counters = service.Counters(solves=1, cache_hits=0)
    layers = service.service_layers(exchanges, counters)
    assert layers["service.http_429"] == 1
    assert layers["service.solves"] == 1


def test_drive_stops_at_the_deadline():
    ticks = iter([0.0, 0.0, 0.5, 1.0, 2.0, 2.0, 2.0, 2.0])
    exchanges, _ = service.drive(
        [FakeConnection([(200, done())] * 3)], [[REQUEST] * 3], seconds=1.5,
        clock=lambda: next(ticks),
    )
    assert len(exchanges) == 1


def test_count_flags_compare_counts_with_the_list():
    miss = service.record(REQUEST, 200, done(), 0.1)
    hit = service.record(service.Request(REQUEST.path, REQUEST.body, EXPECTED, repeat=True),
                         200, done(cached=True), 0.01)
    assert service.count_flags([miss, hit], service.Counters(solves=1, cache_hits=1)) == []
    assert len(service.count_flags([miss, hit], service.Counters(solves=2, cache_hits=1))) == 1
