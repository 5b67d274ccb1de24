"""Seeded inputs: the same seed gives the same lists, answers come from the reference."""

import pytest

from sosbench import problems, service, workloads


@pytest.fixture(scope="module")
def reference():
    return problems.load_reference()


def test_design_cases_are_seed_deterministic(reference):
    first = workloads.design_cases(3, reference)
    assert first == workloads.design_cases(3, reference)
    assert first != workloads.design_cases(4, reference)
    assert len(first) == 34
    assert sorted(map(repr, first)) != sorted(map(repr, workloads.design_cases(4, reference)))


def test_design_caps_keep_the_bracket_answer(reference):
    for seed in range(20):
        for case in workloads.design_cases(seed, reference):
            if case.key == "example1" and case.style == "p2p" and case.cap is not None:
                want = {13: (13, 3), 7: (7, 4), 5: (5, 7)}[int(case.cap)]
                assert case.expected == want


def flatten(streams):
    return [(r.path, r.encoded, r.repeat) for stream in streams for r in stream]


def test_request_streams_are_seed_deterministic(reference):
    first = service.request_streams(7, reference, blocks=60)
    assert flatten(first) == flatten(service.request_streams(7, reference, blocks=60))
    assert flatten(first) != flatten(service.request_streams(8, reference, blocks=60))


def test_request_stream_shape(reference):
    streams = service.request_streams(1, reference, blocks=22)
    assert len(streams) == service.CLIENTS
    misses = [r for stream in streams for r in stream if not r.repeat]
    assert len(misses) == 22 * service.CLIENTS
    assert len({r.encoded for r in misses}) == len(misses)
    for client, stream in enumerate(streams):
        assert len(stream) == 22 * (1 + service.REPEATS_PER_MISS)
        sweeps = [r.body["max_designs"] for r in stream
                  if r.path == "/v1/sweep" and not r.repeat]
        # Sweeps ride on the first stream only, so two are never batched.
        assert sweeps == ([2, 3] if client == 0 else [])


def test_repeats_copy_misses_their_own_stream_had_answered(reference):
    # A closed-loop client has every earlier request of its stream
    # answered, so each repeat is a cache hit, never a dedup hit.
    for stream in service.request_streams(2, reference, blocks=30):
        answered = set()
        for request in stream:
            if request.repeat:
                assert request.encoded in answered
            else:
                assert request.encoded not in answered
                answered.add(request.encoded)


def test_partially_checked_front_refuses_unchecked_rows(reference):
    key = "gaussian_elimination4"
    assert problems.reference_point(reference, key, "p2p", 4.2) == (4.0, 18.0)
    with pytest.raises(ValueError):
        problems.reference_point(reference, key, "p2p", None)
