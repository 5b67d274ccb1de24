"""Timing wrappers around the layers' public functions, installed from outside.

The traced run replaces each function in :data:`TARGETS` with a wrapper
that records a span, then restores the originals.  A module-level
function is patched in every loaded ``repro`` module that holds it,
because callers such as ``bozo.py`` import ``solve_with_fallback`` and
``separate_gomory`` by name and look them up in their own namespace.
``repro.solvers`` re-exports a ``presolve`` *function* that shadows the
module of the same name, so modules are reached through
``importlib.import_module``.

A layer's self time is its span minus the spans nested directly inside
it, so a nested call (``solve_with_fallback`` calling ``solve_revised``,
or ``left_shift`` calling ``Model.to_matrices``) is counted once, in the
innermost layer.  The operation itself is the root span ``synthesis``,
whose self time is the synthesis code no layer covers; the self times of
all layers therefore sum to the root span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

ROOT_LAYER = "synthesis"

#: (module, function or ``Class.method``, layer) for every wrapped entry.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.formulation", "SosModelBuilder.build", "formulation"),
    ("repro.milp.model", "Model.to_matrices", "milp"),
    ("repro.solvers.presolve", "presolve", "presolve"),
    ("repro.solvers.revised", "solve_with_fallback", "revised"),
    ("repro.solvers.revised", "solve_revised", "revised"),
    ("repro.solvers.cuts", "separate_gomory", "cuts"),
    ("repro.solvers.cuts", "separate_cover", "cuts"),
    ("repro.solvers.bozo", "BozoSolver.solve", "bozo"),
    ("repro.solvers.parallel", "solve_parallel", "parallel"),
    ("repro.solvers.highs", "HighsSolver.solve", "highs"),
    ("repro.core.polish", "left_shift", "polish"),
    ("repro.core.extraction", "extract_design", "extraction"),
    ("repro.synthesis.design", "Design.violations", "validate"),
)

#: Layers whose outermost return values are kept for counters (built
#: models for sizes, solutions for ``SolveStats``) until drained.
KEEP_RESULTS = frozenset({"formulation", "bozo"})


class SpanRecorder:
    """Accumulates per-layer self time, outermost inclusive time and calls.

    Args:
        clock: Monotonic clock in seconds (injectable for tests).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.results: Dict[str, List] = defaultdict(list)

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer`` (a plain call when inactive)."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        outermost = all(frame[0] != layer for frame in stack)
        frame = [layer, self.clock(), 0.0]
        stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self.clock() - frame[1]
            stack.pop()
            if stack:
                stack[-1][2] += duration
            with self._lock:
                self.self_s[layer] += duration - frame[2]
                self.calls[layer] += 1
                if outermost:
                    self.inclusive_s[layer] += duration
        if outermost and layer in KEEP_RESULTS:
            self.results[layer].append(result)
        return result


def _wrapper(recorder: SpanRecorder, layer: str, original: Callable) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return recorder.call(layer, original, *args, **kwargs)

    traced.__sosbench_original__ = original
    return traced


def _holders(original: Callable) -> List[Tuple[object, str]]:
    """Every (module, attribute) of a loaded ``repro`` module bound to ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                found.append((module, attribute))
    return found


@contextmanager
def installed(recorder: SpanRecorder):
    """Patch every target with a wrapper feeding ``recorder``; restore on exit."""
    patches: List[Tuple[object, str, object]] = []
    try:
        for module_name, qualname, layer in TARGETS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, method = qualname.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                patches.append((owner, method, original))
                setattr(owner, method, _wrapper(recorder, layer, original))
                continue
            original = getattr(module, qualname)
            wrapped = _wrapper(recorder, layer, original)
            for holder, attribute in _holders(original):
                patches.append((holder, attribute, original))
                setattr(holder, attribute, wrapped)
        yield recorder
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)


def unaccounted_share(recorder: SpanRecorder, wall_s: Optional[float] = None) -> float:
    """|op wall - sum of all self times| as a share of the op wall.

    ``wall_s`` is the traced ops' wall as timed from outside the root
    span; by default the root span itself, which the self times sum to
    exactly, so only the time around the root span is unaccounted.
    """
    wall = recorder.inclusive_s.get(ROOT_LAYER, 0.0) if wall_s is None else wall_s
    if wall <= 0.0:
        return 0.0
    return abs(wall - sum(recorder.self_s.values())) / wall
