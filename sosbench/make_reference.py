"""Regenerate ``reference.json``: cross-checked fronts and recorded counts.

Run from the repository root::

    python3 sosbench/make_reference.py

Each catalogue problem is swept with HiGHS.  Bozo then solves at every
row's cost cap (no cap for the fastest row) and must return that row;
for the fronts in ``problems.CHECKED_ROWS`` only the cheapest rows are
checked.  Any disagreement aborts without writing.  The serial and
two-worker example1 bozo sweeps also record their exact search counters,
which the benchmark compares every sweep against.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from sosbench import problems  # noqa: E402
from sosbench.workloads import sweep_counts, sweep_once  # noqa: E402


def main() -> int:
    import repro

    fronts = {}
    for key, style in problems.reference_entries():
        started = time.perf_counter()
        graph, library = problems.build_problem(key)
        options = dict(style=problems.style_of(style))
        front = repro.Synthesizer(graph, library, solver="highs", **options).pareto_sweep()
        rows = [(design.cost, design.makespan) for design in front]
        checked = problems.CHECKED_ROWS.get(f"{key}@{style}", len(rows))
        for index in range(len(rows) - checked, len(rows)):
            cap = None if index == 0 else rows[index][0]
            design = repro.synthesize(graph, library, solver="bozo", cost_cap=cap, **options)
            if not problems.same_point((design.cost, design.makespan), rows[index]):
                print(f"{key}@{style}: highs row {rows[index]}, bozo "
                      f"{(design.cost, design.makespan)} at cap {cap}", file=sys.stderr)
                return 1
        print(f"{key}@{style}: {len(rows)} rows, {checked} checked by bozo "
              f"({time.perf_counter() - started:.1f}s)", flush=True)
        fronts[f"{key}@{style}"] = [list(row) for row in rows]
    counts = {}
    for workload, workers in (("sweep_ex1_bozo", 1), ("sweep_ex1_bozo_w2", 2)):
        counts[workload] = sweep_counts(sweep_once(workers))
        print(f"{workload}: {counts[workload]}", flush=True)
    document = {"fronts": fronts, "counts": counts}
    problems.REFERENCE_PATH.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
