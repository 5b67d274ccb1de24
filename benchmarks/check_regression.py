"""Perf-regression gate over the committed solver benchmark baselines.

Reads the freshly re-recorded ``BENCH_solvers.json`` (the benches rewrite
it in place) and compares the search-effort counters of ``bozo_example1``
against the *committed* copy of the same file from git.  Wall-clock times
are machine-dependent noise on shared CI runners, so the gate watches the
deterministic counters instead: LP pivots and branch-and-bound nodes.
Either regressing more than ``TOLERANCE`` (20%) over the committed
baseline fails the build.

Usage (CI runs exactly this)::

    python -m pytest benchmarks/bench_solvers.py --benchmark-only -q
    python benchmarks/check_regression.py            # compares vs git HEAD
    python benchmarks/check_regression.py --baseline old.json new.json

Exit status 0 = within tolerance, 1 = regression, 2 = baseline missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "BENCH_solvers.json"
SERVICE_RESULTS = REPO_ROOT / "BENCH_service.json"
DSE_RESULTS = REPO_ROOT / "BENCH_dse.json"

#: Counters gated per benchmark entry: deterministic measures of search
#: effort (never wall seconds).  Adding an entry here makes it load-bearing.
GATED = {
    "bozo_example1": ("nodes", "lp_pivots"),
    "bozo_example1_cold_vs_warm": ("cold_pivots", "warm_pivots"),
    "bozo_example1_cuts": ("nodes_on",),
    "market_split_3x16_cuts": ("nodes_on", "cuts_added"),
    "kernel_market_split_3x16": ("nodes",),
}

#: Same-run comparisons between two fields of one current entry: no
#: committed baseline involved, so these never drift with the machine.
#: ``(left, op, right, factor, slack)`` asserts ``left op right * factor
#: + slack``.  The strict node decrease is the cut-and-branch layer's
#: claim; the wall ceiling bounds separation overhead on a model small
#: enough that cuts cannot pay for themselves in nodes alone (the slack
#: absorbs timer noise on sub-100ms solves).
SAME_RUN = {
    "market_split_3x16_cuts": [("nodes_on", "<", "nodes_off", 1.0, 0.0)],
    "bozo_example1_cuts": [("wall_on_seconds", "<=", "wall_off_seconds", 1.5, 0.05)],
    # The PR-10 kernel claim: production bozo within 1.5x of HiGHS on
    # Example 1, measured back to back in one process (the slack absorbs
    # timer noise on ~20ms solves).
    "kernel_example1_vs_highs": [
        ("bozo_wall_seconds", "<=", "highs_wall_seconds", 1.5, 0.02)
    ],
}

#: Throughput floors expressed as a multiple of a *committed* entry's
#: derived rate: ``bench.field >= factor * (base_num / base_den)`` of the
#: committed ``base`` entry.  Wall-derived rates only compare honestly on
#: the machine that recorded the committed baseline, so the gate is
#: skipped (one line, never silently) when the machine fingerprints
#: differ.  The 3x16 entry is the second PR-10 kernel claim: node
#: throughput at least twice the pre-kernel serial baseline.  The anchor
#: is the *committed* parallel_bnb entry; if a later change re-records
#: and commits that entry with post-kernel numbers, the floor doubles in
#: kind and the factor here must be revisited alongside it.
BASELINE_RATE_FLOORS = {
    "kernel_market_split_3x16": {
        "nodes_per_second": (
            "parallel_bnb_market_split_3x16",
            "serial_nodes", "serial_wall_seconds", 2.0,
        ),
    },
}

#: Absolute kernel floors/ceilings on the current results, enforced only
#: on machines with at least FLOOR_MIN_CORES cores (underpowered runners
#: skip with a one-line reason, never silently).  The pivot
#: floor catches a kernel that has fallen back to per-iteration dense
#: algebra; the wall ceiling catches a pathological example1 solve.
KERNEL_FLOORS = {
    "kernel_example1_vs_highs": {"pivots_per_lp_second": 1000.0},
}
KERNEL_CEILINGS = {
    "kernel_example1_vs_highs": {"bozo_wall_seconds": 0.25},
}

#: Cores needed before the kernel floors are enforced.
FLOOR_MIN_CORES = 4

TOLERANCE = 0.20

#: Gates over BENCH_service.json (``--service`` mode).  Exact-value
#: requirements are correctness claims (no server-side errors, every
#: waited job finished); the p99 ceiling is deliberately loose — it only
#: catches a serving stack that has stopped overlapping work entirely
#: (every smoke request solves in well under a second on any box).
SERVICE_EXACT = {
    "service_load_smoke": {"http_5xx": 0, "unfinished_jobs": 0},
}
SERVICE_CEILINGS = {
    "service_load_smoke": {"latency_p99_seconds": 30.0},
}
#: Floors over the current service results.  The comparison entry is the
#: /v1 redesign's acceptance claim: the async + process-pool stack must
#: beat the threaded PR 4 server on the same mixed workload.
SERVICE_FLOORS = {
    "service_load_comparison": {"speedup_vs_threaded": 1.0},
}


def check_service(current: dict) -> tuple:
    """Service-load gates: ``(problems, skipped)`` over BENCH_service.json.

    Entries that were not recorded are skipped, never failed — the smoke
    job records only ``service_load_smoke``, the full local comparison
    records the ``service_load_*`` trio.
    """
    problems = []
    skipped = []
    for bench, requirements in SERVICE_EXACT.items():
        entry = current.get(bench)
        if entry is None:
            skipped.append(f"{bench}: SKIPPED (not recorded)")
            continue
        for field, expected in requirements.items():
            value = entry.get(field)
            if value is None:
                problems.append(f"{bench}.{field}: missing from results")
            elif value != expected:
                problems.append(
                    f"{bench}.{field}: {value} (required exactly {expected})"
                )
    for bench, ceilings in SERVICE_CEILINGS.items():
        entry = current.get(bench)
        if entry is None:
            continue  # absence already reported by the exact pass
        for field, ceiling in ceilings.items():
            value = entry.get(field)
            if value is None:
                problems.append(f"{bench}.{field}: missing from results")
            elif value > ceiling:
                problems.append(
                    f"{bench}.{field}: {value:g} exceeds ceiling {ceiling:g}"
                )
    for bench, floors in SERVICE_FLOORS.items():
        entry = current.get(bench)
        if entry is None:
            skipped.append(f"{bench}: SKIPPED (not recorded)")
            continue
        for field, minimum in floors.items():
            value = entry.get(field)
            if value is None:
                problems.append(f"{bench}.{field}: missing from results")
            elif value <= minimum:
                problems.append(
                    f"{bench}.{field}: {value:g} must exceed {minimum:g} "
                    f"(the pool+batching stack must beat the threaded server)"
                )
    return problems, skipped


#: Gates over BENCH_dse.json (``--dse`` mode).  The exact hit rate is a
#: correctness claim — a warm study re-solving any point means grid
#: points stopped fingerprinting deterministically; the speedup floor is
#: deliberately loose, catching only a cache that has stopped paying for
#: itself on a whole study.
DSE_EXACT = {
    "dse_cold_vs_warm": {"warm_hit_rate": 1.0},
}
DSE_FLOORS = {
    "dse_cold_vs_warm": {"warm_speedup": 2.0},
}


def check_dse(current: dict) -> tuple:
    """DSE-study gates: ``(problems, skipped)`` over BENCH_dse.json."""
    problems = []
    skipped = []
    for bench, requirements in DSE_EXACT.items():
        entry = current.get(bench)
        if entry is None:
            skipped.append(f"{bench}: SKIPPED (not recorded)")
            continue
        for field, expected in requirements.items():
            value = entry.get(field)
            if value is None:
                problems.append(f"{bench}.{field}: missing from results")
            elif value != expected:
                problems.append(
                    f"{bench}.{field}: {value} (required exactly {expected})"
                )
    for bench, floors in DSE_FLOORS.items():
        entry = current.get(bench)
        if entry is None:
            continue  # absence already reported by the exact pass
        for field, minimum in floors.items():
            value = entry.get(field)
            if value is None:
                problems.append(f"{bench}.{field}: missing from results")
            elif value < minimum:
                problems.append(
                    f"{bench}.{field}: {value:g} is below the required "
                    f"floor {minimum:g} (a warm study must beat a cold one)"
                )
    return problems, skipped


def committed_baseline() -> dict:
    """The committed BENCH_solvers.json from git HEAD."""
    proc = subprocess.run(
        ["git", "show", "HEAD:BENCH_solvers.json"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise FileNotFoundError(
            f"no committed BENCH_solvers.json at HEAD: {proc.stderr.strip()}"
        )
    return json.loads(proc.stdout)


def check(baseline: dict, current: dict) -> tuple:
    """``(problems, skipped)`` — regressions beyond tolerance and one-line
    reasons for every gate that could not be enforced on this machine."""
    problems = []
    skipped = []
    for bench, counters in GATED.items():
        base_entry = baseline.get(bench)
        entry = current.get(bench)
        if base_entry is None:
            continue  # new benchmark: nothing committed to regress against
        if entry is None:
            problems.append(f"{bench}: missing from current results")
            continue
        for counter in counters:
            base = base_entry.get(counter)
            value = entry.get(counter)
            if base is None:
                continue
            if value is None:
                problems.append(f"{bench}.{counter}: missing from current results")
                continue
            ceiling = base * (1.0 + TOLERANCE)
            if value > ceiling:
                problems.append(
                    f"{bench}.{counter}: {value} exceeds committed baseline "
                    f"{base} by more than {TOLERANCE:.0%} (ceiling {ceiling:.1f})"
                )
    for bench, comparisons in SAME_RUN.items():
        entry = current.get(bench)
        if entry is None:
            skipped.append(f"{bench}: SKIPPED (bench did not run)")
            continue
        for left, op, right, factor, slack in comparisons:
            lhs = entry.get(left)
            rhs = entry.get(right)
            if lhs is None or rhs is None:
                missing = left if lhs is None else right
                problems.append(f"{bench}.{missing}: missing from current results")
                continue
            bound = rhs * factor + slack
            ok = lhs < bound if op == "<" else lhs <= bound
            if not ok:
                problems.append(
                    f"{bench}: {left}={lhs:g} must be {op} {right}={rhs:g} "
                    f"x {factor:g} + {slack:g} (bound {bound:g})"
                )
    for bench, floors in BASELINE_RATE_FLOORS.items():
        entry = current.get(bench)
        if entry is None:
            skipped.append(f"{bench}: SKIPPED (bench did not run)")
            continue
        for field, (base_name, num, den, factor) in floors.items():
            base_entry = baseline.get(base_name)
            if base_entry is None:
                skipped.append(
                    f"{bench}.{field}: SKIPPED (no committed {base_name} "
                    f"baseline to derive a rate from)"
                )
                continue
            if base_entry.get("machine") != entry.get("machine"):
                skipped.append(
                    f"{bench}.{field}: SKIPPED (committed {base_name} was "
                    f"recorded on a different machine; wall-derived rates "
                    f"only compare on matching hardware)"
                )
                continue
            base_num = base_entry.get(num)
            base_den = base_entry.get(den)
            value = entry.get(field)
            if value is None:
                problems.append(f"{bench}.{field}: missing from current results")
                continue
            if not base_num or not base_den:
                skipped.append(
                    f"{bench}.{field}: SKIPPED (committed {base_name} lacks "
                    f"{num}/{den})"
                )
                continue
            floor = factor * (base_num / base_den)
            if value < floor:
                problems.append(
                    f"{bench}.{field}: {value:.0f} is below {factor:g}x the "
                    f"committed {base_name} rate {base_num / base_den:.0f} "
                    f"(floor {floor:.0f})"
                )
    for bench, limits in ({
        k: [("floor", f, v) for f, v in KERNEL_FLOORS.get(k, {}).items()]
           + [("ceiling", f, v) for f, v in KERNEL_CEILINGS.get(k, {}).items()]
        for k in {*KERNEL_FLOORS, *KERNEL_CEILINGS}
    }).items():
        entry = current.get(bench)
        if entry is None:
            skipped.append(f"{bench}: SKIPPED (bench did not run)")
            continue
        machine = entry.get("machine")
        cores = machine.get("cpu_count") if isinstance(machine, dict) else None
        if cores is not None and cores < FLOOR_MIN_CORES:
            skipped.append(
                f"{bench}: kernel floors SKIPPED (cpu_count={cores} below "
                f"the {FLOOR_MIN_CORES}-core threshold)"
            )
            continue
        for kind, field, limit in limits:
            value = entry.get(field)
            if value is None:
                problems.append(f"{bench}.{field}: missing from current results")
            elif kind == "floor" and value < limit:
                problems.append(
                    f"{bench}.{field}: {value:.2f} is below the required "
                    f"kernel floor {limit:.2f}"
                )
            elif kind == "ceiling" and value > limit:
                problems.append(
                    f"{bench}.{field}: {value:g} exceeds the kernel "
                    f"ceiling {limit:g}"
                )
    return problems, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", nargs=2, metavar=("OLD", "NEW"),
        help="compare two explicit JSON files instead of git HEAD vs worktree",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="gate BENCH_service.json (load-smoke / pool-vs-threaded) "
             "instead of the solver counters",
    )
    parser.add_argument(
        "--dse", action="store_true",
        help="gate BENCH_dse.json (warm-study hit rate and speedup) "
             "instead of the solver counters",
    )
    args = parser.parse_args(argv)
    if args.dse:
        path = Path(args.baseline[1]) if args.baseline else DSE_RESULTS
        try:
            current = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"check_regression: cannot load {path}: {exc}",
                  file=sys.stderr)
            return 2
        problems, skipped = check_dse(current)
        for reason in skipped:
            print(f"  {reason}")
        if problems:
            print("dse gate failed:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        gated = ", ".join(dict.fromkeys([*DSE_EXACT, *DSE_FLOORS]))
        print(f"dse gate OK ({gated})")
        return 0
    if args.service:
        path = Path(args.baseline[1]) if args.baseline else SERVICE_RESULTS
        try:
            current = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"check_regression: cannot load {path}: {exc}",
                  file=sys.stderr)
            return 2
        problems, skipped = check_service(current)
        for reason in skipped:
            print(f"  {reason}")
        if problems:
            print("service gate failed:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        gated = ", ".join(dict.fromkeys(
            [*SERVICE_EXACT, *SERVICE_CEILINGS, *SERVICE_FLOORS]
        ))
        print(f"service gate OK ({gated})")
        return 0
    try:
        if args.baseline:
            baseline = json.loads(Path(args.baseline[0]).read_text())
            current = json.loads(Path(args.baseline[1]).read_text())
        else:
            baseline = committed_baseline()
            current = json.loads(RESULTS.read_text())
    except (OSError, ValueError, FileNotFoundError) as exc:
        print(f"check_regression: cannot load baselines: {exc}", file=sys.stderr)
        return 2
    problems, skipped = check(baseline, current)
    for reason in skipped:
        print(f"  {reason}")
    if problems:
        print("perf regression beyond tolerance:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    gated = ", ".join(dict.fromkeys(
        [*GATED, *SAME_RUN, *BASELINE_RATE_FLOORS, *KERNEL_FLOORS]
    ))
    print(f"perf gate OK ({gated}; tolerance {TOLERANCE:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
