"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import importlib
from typing import Iterator

import pytest

from repro.system.examples import example1_library, example2_library
from repro.system.library import TechnologyLibrary
from repro.system.processors import ProcessorType
from repro.taskgraph.examples import example1, example2
from repro.taskgraph.graph import TaskGraph


@pytest.fixture
def ex1_graph() -> TaskGraph:
    return example1()


@pytest.fixture
def ex1_library() -> TechnologyLibrary:
    return example1_library()


@pytest.fixture
def ex2_graph() -> TaskGraph:
    return example2()


@pytest.fixture
def ex2_library() -> TechnologyLibrary:
    return example2_library()


@pytest.fixture
def tiny_graph() -> TaskGraph:
    """Two subtasks, one arc — the smallest interesting instance."""
    graph = TaskGraph("tiny")
    graph.add_subtask("A")
    graph.add_subtask("B")
    graph.add_external_input("A")
    graph.connect("A", "B", volume=2.0)
    graph.add_external_output("B")
    return graph


@pytest.fixture
def tiny_library() -> TechnologyLibrary:
    """Two processor types: a fast expensive one and a slow cheap one."""
    fast = ProcessorType("fast", cost=10, exec_times={"A": 1, "B": 1})
    slow = ProcessorType("slow", cost=3, exec_times={"A": 4, "B": 4})
    return TechnologyLibrary(
        types=(fast, slow), instances_per_type=2,
        link_cost=1.0, local_delay=0.0, remote_delay=1.0,
    )


def make_library(spec, **kwargs) -> TechnologyLibrary:
    """Build a library from ``{type_name: (cost, {task: time})}``."""
    types = tuple(
        ProcessorType(name, cost, times) for name, (cost, times) in spec.items()
    )
    defaults = dict(instances_per_type=1, link_cost=1.0, local_delay=0.0, remote_delay=1.0)
    defaults.update(kwargs)
    return TechnologyLibrary(types=types, **defaults)


@contextlib.contextmanager
def presolve_off() -> Iterator[None]:
    """Bozo solves inside the block skip presolve.

    Bozo always presolves; this puts an identity reduction in place of
    ``presolve`` on the ``repro.solvers.presolve`` module, so a solve sees
    the model's matrices exactly as exported.  The module is reached with
    ``import_module`` because ``repro.solvers`` re-exports a function of
    the same name.  Usable inside hypothesis tests, unlike ``monkeypatch``.
    """
    module = importlib.import_module("repro.solvers.presolve")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "presolve", lambda form: module.PresolveResult(form))
        yield
