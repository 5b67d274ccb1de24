"""The four workloads: seeded inputs, one operation each, and its check.

``sweep_ex1_bozo`` and ``sweep_ex1_bozo_w2`` run the paper's Table II
sweep and take no input from the seed.  ``designs_highs`` cycles through
a seeded list of ``repro.synthesize`` calls, and ``service_v1_mix``
replays a seeded ``/v1`` request list (see :mod:`sosbench.service`).
Every answer is checked against ``reference.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from sosbench import problems
from sosbench.problems import Point

WORKLOADS = ("sweep_ex1_bozo", "designs_highs", "service_v1_mix", "sweep_ex1_bozo_w2")

#: Table II's (cost, makespan) rows plus the documented extra cheapest
#: design (4, 17) that the reproduction's sweep also returns.
TABLE_II_ROWS: Tuple[Point, ...] = ((14, 2.5), (13, 3), (7, 4), (5, 7), (4, 17))

#: ``designs_highs`` calls besides the ``layered_random(6, 3)`` instances:
#: (catalogue key, style, base cost cap).  Each cap is jittered upward by
#: less than 0.5, which changes the request but not the answer.
DESIGN_SPECS: Tuple[Tuple[str, str, Optional[float]], ...] = tuple(
    ("example1", style, cap)
    for style in ("p2p", "bus", "ring") for cap in (None, 13.0, 7.0, 5.0)
) + (
    ("fft_butterfly4", "p2p", None), ("fft_butterfly4", "p2p", 8.0),
    ("gaussian_elimination4", "p2p", 4.0), ("gaussian_elimination4", "p2p", 2.0),
    ("fork_join3", "p2p", None), ("fork_join3", "p2p", 2.0),
    ("fork_join4", "p2p", 4.0), ("fork_join4", "p2p", 2.0),
)


@dataclass(frozen=True)
class DesignCase:
    """One ``repro.synthesize`` call and the point it must return."""

    key: str
    style: str
    cap: Optional[float]
    expected: Point


def design_cases(seed: int, reference: Dict) -> List[DesignCase]:
    """The seeded ``designs_highs`` problem list (34 calls).

    Every seed runs the same problems: :data:`DESIGN_SPECS` plus every
    ``layered_random(6, 3)`` instance with and without fractional ports,
    capped just above its costliest design.  The seed jitters the caps
    and shuffles the order, so the mix of solve times, and with it the
    median, is the same for every seed.
    """
    rng = random.Random(f"designs_highs/{seed}")
    specs = list(DESIGN_SPECS)
    for generator_seed in problems.LAYERED_SEEDS:
        for fractional in (False, True):
            key = problems.layered_key(generator_seed, fractional)
            specs.append((key, "p2p", problems.front_of(reference, key, "p2p")[0][0]))
    cases = []
    for key, style, base in specs:
        cap = None if base is None else round(base + rng.uniform(0.0, 0.5), 3)
        cases.append(DesignCase(key, style, cap,
                                problems.reference_point(reference, key, style, cap)))
    rng.shuffle(cases)
    return cases


def check_design(design, expected: Point) -> Optional[str]:
    """Failure text for a wrong or invalid design, else ``None``."""
    violations = design.violations()
    if violations:
        return f"invalid schedule: {violations[0]}"
    if not problems.same_point((design.cost, design.makespan), expected):
        return f"got {(design.cost, design.makespan)}, want {expected}"
    return None


def sweep_once(workers: int = 1):
    """One op of the sweep workloads: Table II's Pareto sweep on bozo."""
    from repro import Synthesizer, example1, example1_library
    from repro.solvers.base import SolverOptions

    options = SolverOptions(workers=workers) if workers > 1 else None
    return Synthesizer(example1(), example1_library(), solver="bozo",
                       solver_options=options).pareto_sweep()


def sweep_counts(front) -> Dict[str, int]:
    """The exact counters of one sweep.

    They repeat exactly for the same code, so a changed value is a
    changed search, not noise.  HiGHS pivots are not among them: scipy
    does not expose them.
    """
    stats = front.stats
    return {"bozo.nodes": stats.nodes, "revised.pivots": stats.lp_pivots,
            "revised.lp_solves": stats.lp_solves, "cuts.added": stats.cuts_added}


def check_rows(rows: Sequence[Point], expected: Sequence[Point]) -> Optional[str]:
    """Failure text when a front's rows differ from ``expected``."""
    rows = [tuple(row) for row in rows]
    if len(rows) != len(expected) or not all(
        problems.same_point(got, want) for got, want in zip(rows, expected)
    ):
        return f"front {rows}, want {list(expected)}"
    return None


class SweepWorkload:
    """``pareto_sweep`` of example1 on bozo, serial or on two workers."""

    def __init__(self, name: str, reference: Dict) -> None:
        self.name = name
        self.workers = 2 if name.endswith("_w2") else 1
        self.recorded_counts = reference["counts"][name]
        # On two workers, which nodes a broadcast incumbent prunes depends
        # on timing, so only the cuts (made in the serial ramp) repeat
        # exactly; the other counters are printed but not compared.
        self.exact_counts = tuple(self.recorded_counts) if self.workers == 1 else (
            "cuts.added",)

    def inputs(self) -> List[None]:
        return [None]

    def warm_up(self) -> Optional[str]:
        """One capped solve; on two workers it also starts the pool."""
        from repro import Synthesizer, example1, example1_library
        from repro.solvers.base import SolverOptions

        options = SolverOptions(workers=self.workers) if self.workers > 1 else None
        design = Synthesizer(example1(), example1_library(), solver="bozo",
                             solver_options=options).synthesize(cost_cap=5.5)
        return check_design(design, (5, 7))

    def run(self, item):
        return sweep_once(self.workers)

    def check(self, item, front) -> Optional[str]:
        return check_rows([(d.cost, d.makespan) for d in front], TABLE_II_ROWS)

    def counts(self, front) -> Dict[str, int]:
        return sweep_counts(front)


class DesignsWorkload:
    """``repro.synthesize`` with the default backend over a seeded list."""

    name = "designs_highs"
    recorded_counts = None
    exact_counts = ()

    def __init__(self, seed: int, reference: Dict) -> None:
        self.cases = design_cases(seed, reference)
        for case in self.cases:
            problems.build_problem(case.key)

    def inputs(self) -> List[DesignCase]:
        return self.cases

    def warm_up(self) -> Optional[str]:
        case = self.cases[0]
        return self.check(case, self.run(case))

    def run(self, case: DesignCase):
        import repro

        graph, library = problems.build_problem(case.key)
        return repro.synthesize(graph, library, style=problems.style_of(case.style),
                                cost_cap=case.cap)

    def check(self, case: DesignCase, design) -> Optional[str]:
        return check_design(design, case.expected)

    def counts(self, design) -> None:
        return None


def make_workload(name: str, seed: int, reference: Dict):
    """The in-process workload object for ``name`` (not the service)."""
    if name == "designs_highs":
        return DesignsWorkload(seed, reference)
    return SweepWorkload(name, reference)
