"""Tests for run_study: caching, manifest resume, and the honest ledger."""

import json

import pytest

from repro.dse import (
    SpaceSpec,
    remote_delays,
    run_study,
    scale_prices,
    subset_types,
)
from repro.dse.executor import MANIFEST_VERSION, _Manifest
from repro.service.cache import ResultCache
from repro.system.examples import example1_library
from repro.taskgraph.examples import example1


@pytest.fixture(scope="module")
def graph():
    return example1()


def small_spec() -> SpaceSpec:
    return SpaceSpec(
        example1_library(),
        [scale_prices(0.5, 1.0), remote_delays(1.0, 2.0)],
    )


def study(graph, **kwargs):
    kwargs.setdefault("solver", "highs")
    kwargs.setdefault("max_designs", 3)
    return run_study(graph, small_spec(), **kwargs)


class TestLedger:
    def test_cold_study_solves_every_point(self, graph):
        result = study(graph)
        assert result.points_total == 4
        assert result.solved == 4
        assert result.cache_hits == result.replayed == result.infeasible == 0
        assert result.warm_fraction == 0.0
        assert len(result.surface) == 4
        assert all(point.feasible for point in result.surface)

    def test_summary_mentions_the_counts(self, graph):
        result = study(graph)
        assert "4 points" in result.summary()
        assert "4 solved" in result.summary()

    def test_warm_cache_study_is_all_hits(self, graph):
        cache = ResultCache()
        study(graph, cache=cache)
        warm = study(graph, cache=cache)
        assert warm.solved == 0
        assert warm.cache_hits == 4
        assert warm.warm_fraction == 1.0
        assert all(point.from_cache for point in warm.surface)

    def test_on_point_callback_sees_every_point(self, graph):
        statuses = []
        study(graph, on_point=lambda p, s: statuses.append((p.point_id, s)))
        assert len(statuses) == 4
        assert all(status == "solved" for _, status in statuses)

    def test_seed_incumbent_keyword_is_rejected(self, graph):
        with pytest.raises(TypeError, match="seed_incumbent"):
            study(graph, seed_incumbent=True)


class TestManifestResume:
    def test_finished_study_replays_as_a_pure_noop(self, graph, tmp_path):
        manifest = tmp_path / "study.jsonl"
        cache = ResultCache()
        study(graph, cache=cache, manifest=manifest)
        rerun = study(graph, cache=cache, manifest=manifest)
        assert rerun.replayed == 4
        assert rerun.solved == 0 and rerun.cache_hits == 0
        assert rerun.warm_fraction == 1.0
        # The journal did not grow: nothing new completed.
        lines = manifest.read_text().splitlines()
        assert len(lines) == 4

    def test_mid_study_kill_resumes_without_duplicate_solves(
        self, graph, tmp_path
    ):
        manifest = tmp_path / "study.jsonl"
        cache = ResultCache()
        seen = []

        def killer(point, status):
            seen.append(status)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            study(graph, cache=cache, manifest=manifest, on_point=killer)
        assert len(manifest.read_text().splitlines()) == 2

        statuses = []
        resumed = study(
            graph, cache=cache, manifest=manifest,
            on_point=lambda p, s: statuses.append(s),
        )
        assert resumed.replayed == 2
        assert resumed.solved == 2
        assert statuses == ["replayed", "replayed", "solved", "solved"]
        # Across both runs every point solved exactly once.
        assert seen.count("solved") + statuses.count("solved") == 4
        # The journal now holds all four points, one line each.
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        assert len({entry["fingerprint"] for entry in entries}) == 4

    def test_replay_without_cache_resolves_again(self, graph, tmp_path):
        manifest = tmp_path / "study.jsonl"
        study(graph, manifest=manifest)
        # No cache: the fronts are unrecoverable, so done-points re-solve.
        rerun = study(graph, manifest=manifest)
        assert rerun.solved == 4
        assert rerun.replayed == 0

    def test_spec_change_invalidates_exactly_the_changed_points(
        self, graph, tmp_path
    ):
        manifest = tmp_path / "study.jsonl"
        cache = ResultCache()
        study(graph, cache=cache, manifest=manifest)
        changed = SpaceSpec(
            example1_library(),
            [scale_prices(0.5, 1.0), remote_delays(1.0, 3.0)],
        )
        result = run_study(
            graph, changed, solver="highs", max_designs=3,
            cache=cache, manifest=manifest,
        )
        # remote=1 column replays; the new remote=3 column solves.
        assert result.replayed == 2
        assert result.solved == 2

    def test_torn_tail_line_is_ignored(self, graph, tmp_path):
        manifest = tmp_path / "study.jsonl"
        cache = ResultCache()
        study(graph, cache=cache, manifest=manifest)
        with manifest.open("a") as handle:
            handle.write('{"version": 1, "fingerprint": "abc", "stat')
        rerun = study(graph, cache=cache, manifest=manifest)
        assert rerun.replayed == 4

    def test_wrong_version_lines_are_ignored(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            json.dumps({"version": MANIFEST_VERSION + 1, "fingerprint": "x"})
            + "\n"
            + json.dumps({"version": MANIFEST_VERSION, "fingerprint": "y"})
            + "\n"
            + "[1, 2]\n"
        )
        journal = _Manifest.load(manifest)
        assert set(journal.entries) == {"y"}

    def test_manifest_parent_directories_created(self, graph, tmp_path):
        manifest = tmp_path / "deep" / "nested" / "study.jsonl"
        result = study(graph, manifest=manifest)
        assert manifest.exists()
        assert result.manifest_path == manifest


class TestInfeasiblePoints:
    def _infeasible_spec(self) -> SpaceSpec:
        library = example1_library()
        # A single-type subset cannot cover example1 (no type runs
        # every subtask), so one variant is genuinely infeasible.
        partial = next(
            ptype.name for ptype in library.types
            if len(ptype.exec_times) < len(example1().subtask_names)
        )
        full = [ptype.name for ptype in library.types]
        return SpaceSpec(library, [subset_types([partial], full)])

    def test_infeasible_variant_is_a_recorded_point(self, graph):
        spec = self._infeasible_spec()
        result = run_study(graph, spec, solver="highs", max_designs=2)
        assert result.points_total == 2
        assert result.infeasible == 1
        assert result.solved == 1
        bad = [point for point in result.surface if not point.feasible]
        assert len(bad) == 1
        assert bad[0].front is None

    def test_infeasible_points_replay_from_the_manifest(self, graph, tmp_path):
        manifest = tmp_path / "study.jsonl"
        spec = self._infeasible_spec()
        run_study(graph, spec, solver="highs", max_designs=2,
                  manifest=manifest, cache=ResultCache())
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        assert {entry["status"] for entry in entries} == {"infeasible", "done"}
        rerun = run_study(graph, spec, solver="highs", max_designs=2,
                          manifest=manifest, cache=ResultCache())
        # The infeasible point replays even with an empty cache.
        assert rerun.infeasible == 1
        assert rerun.replayed >= 1
