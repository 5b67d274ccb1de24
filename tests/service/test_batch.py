"""Sweeps that differ only in ``max_designs``, after sweep batching.

Sweep batching is retired: every job is dispatched solo, and the
``batch`` block of ``/v1/stats`` and ``/v1/metrics`` is a constant kept
for ``/v1`` compatibility.  These tests pin what remains: concurrent
sweeps of one problem each get exactly the solo ``pareto_sweep`` front
with one solve per job, a shallow sweep equals the prefix of a deeper
one (what batching relied on, and what replaces the removed
``pareto_sweep_prefixes``), and the retired block still answers.
"""

import json
import random
import threading
import time

import pytest

from repro.errors import CancelledError
from repro.service.api import ServiceApi
from repro.service.jobs import JobManager, SweepRequest, SynthesizeRequest
from repro.solvers.highs import HighsSolver
from repro.solvers.registry import _REGISTRY, register_solver
from repro.synthesis.synthesizer import Synthesizer
from repro.taskgraph.generators import layered_random
from tests.conftest import make_library


def random_library(seed, tasks):
    """A random small heterogeneous library (type 0 covers everything)."""
    rng = random.Random(seed)
    num_types = rng.randint(2, 3)
    spec = {}
    for index in range(num_types):
        name = f"P{index}"
        if index == 0:
            covered = list(tasks)
        else:
            covered = [t for t in tasks if rng.random() < 0.7] or [tasks[0]]
        spec[name] = (
            rng.randint(2, 9),
            {t: rng.randint(1, 5) for t in covered},
        )
    return make_library(
        spec,
        instances_per_type=2,
        remote_delay=rng.choice([0.5, 1.0]),
        local_delay=rng.choice([0.0, 0.1]),
    )


def front_key(document, take=None):
    """Canonical bytes for a front document, minus wall-clock noise.

    ``solve_seconds`` is measured wall time and the sweep ``stats`` carry
    phase timings; everything else — designs, assignments, costs,
    makespans, ordering — must match exactly.  ``take`` keeps only the
    first ``take`` designs and caps.
    """
    document = json.loads(json.dumps(document))
    document.pop("stats", None)
    if take is not None:
        document["designs"] = document["designs"][:take]
        document["caps"] = document["caps"][:take]
    for design in document["designs"]:
        design["solve_seconds"] = 0.0
    return json.dumps(document, sort_keys=True)


def serial_front_key(graph, library, max_designs):
    """Reference: a from-scratch solo sweep document."""
    front = Synthesizer(graph, library).pareto_sweep(max_designs=max_designs)
    return front_key(front.to_dict())


class GateSolver:
    """Blocks on a class-level gate, then solves for real."""

    gate = threading.Event()

    def __init__(self, options):
        self.options = options
        self._inner = HighsSolver(options)

    def solve(self, model):
        end = time.monotonic() + 30.0
        while time.monotonic() < end and not self.gate.is_set():
            if self.options.should_stop is not None and self.options.should_stop():
                raise CancelledError("stopped")
            time.sleep(0.005)
        return self._inner.solve(model)


@pytest.fixture
def gate_solver():
    GateSolver.gate.clear()
    register_solver("gate", GateSolver)
    yield GateSolver
    GateSolver.gate.set()
    _REGISTRY.pop("gate", None)


def submit_coqueued_sweeps(manager, blocker_request, sweep_requests):
    """Block the 1-worker manager, queue the sweeps together, release."""
    blocker = manager.submit(blocker_request)
    deadline = time.monotonic() + 10
    while blocker.status == "queued" and time.monotonic() < deadline:
        time.sleep(0.005)
    assert blocker.status == "running"
    jobs = [manager.submit(request) for request in sweep_requests]
    return blocker, jobs


class TestBatchedFrontsByteIdentical:
    """Sweeps that once shared a batch: each must equal its solo front."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_graphs_and_partitions(self, seed):
        rng = random.Random(1000 + seed)
        graph = layered_random(
            rng.randint(4, 6), rng.randint(2, 3), seed=seed,
            fractional_ports=(seed % 2 == 0),
        )
        library = random_library(seed, graph.subtask_names)
        targets = sorted(rng.sample([1, 2, 3, 4, 5], k=rng.randint(2, 4)))

        full = Synthesizer(graph, library).pareto_sweep(
            max_designs=max(targets)
        ).to_dict()

        for target in targets:
            front = Synthesizer(graph, library).pareto_sweep(
                max_designs=target
            )
            assert len(front) <= target
            assert front_key(front.to_dict()) == front_key(full, take=target), (
                f"seed={seed} target={target}"
            )

    def test_process_executor_batches_match_serial(
        self, ex1_graph, ex1_library
    ):
        targets = [2, 3, 4]
        with JobManager(workers=2, solve_processes=2) as manager:
            jobs = [
                manager.submit(SweepRequest(ex1_graph, ex1_library,
                                            max_designs=t))
                for t in targets
            ]
            for job in jobs:
                assert job.wait(120)
                assert job.status == "done", job.error
            assert manager.solves == len(targets)
            for target, job in zip(targets, jobs):
                assert front_key(job.result.to_dict()) == serial_front_key(
                    ex1_graph, ex1_library, target
                )

    def test_batching_disabled_runs_solo(self, gate_solver, ex1_graph,
                                         ex1_library):
        # Sweeps that differ only in max_designs queue up together behind
        # a blocked job; each still runs its own solve.
        targets = [2, 3]
        with JobManager(workers=1) as manager:
            blocker, jobs = submit_coqueued_sweeps(
                manager,
                SynthesizeRequest(ex1_graph, ex1_library, solver="gate"),
                [SweepRequest(ex1_graph, ex1_library, max_designs=t)
                 for t in targets],
            )
            gate_solver.gate.set()
            assert blocker.wait(120)
            for job in jobs:
                assert job.wait(120)
                assert job.status == "done", job.error
            assert manager.solves == 1 + len(targets)
            for target, job in zip(targets, jobs):
                assert front_key(job.result.to_dict()) == serial_front_key(
                    ex1_graph, ex1_library, target
                )


class TestRetiredBatchBlock:
    def test_stats_and_metrics_keep_a_disabled_zero_batch_block(self):
        retired = {"enabled": False, "batches": 0, "batched_jobs": 0,
                   "max_occupancy": 0}
        with JobManager(workers=1) as manager:
            api = ServiceApi(manager)
            for path in ("/v1/stats", "/v1/metrics"):
                response = api.handle("GET", path)
                assert response.status == 200
                assert response.document["batch"] == retired, path
