"""Tests for the SOS MILP formulation builder."""

import math

import pytest

from repro.core.formulation import SosModelBuilder, build_sos_model
from repro.core.variables import arc_key
from repro.core.options import FormulationOptions, Objective
from repro.errors import SystemModelError
from repro.milp.constraint import Sense
from repro.paper.experiments import model_size_report
from repro.solvers.registry import get_solver
from repro.system.examples import example1_library
from repro.system.interconnect import InterconnectStyle
from repro.taskgraph.examples import example1
from tests.conftest import make_library


@pytest.fixture
def built(ex1_graph, ex1_library):
    return SosModelBuilder(ex1_graph, ex1_library).build()


class TestVariableCatalog:
    def test_timing_variable_count_matches_paper(self, built):
        """§4.1: 'The MILP model for the example consists of 21 timing ...
        variables' — our catalog reproduces that count exactly."""
        assert built.variables.count_timing() == 21

    def test_sigma_only_for_capable_instances(self, built):
        # p3 cannot run S1 or S4.
        assert ("p3a", "S1") not in built.variables.sigma
        assert ("p3a", "S4") not in built.variables.sigma
        assert ("p3a", "S3") in built.variables.sigma

    def test_gamma_per_arc(self, built):
        assert set(built.variables.gamma) == {("S3", 1), ("S3", 2), ("S4", 1)}

    def test_beta_per_pool_instance(self, built):
        assert len(built.variables.beta) == 6

    def test_chi_excludes_self_pairs(self, built):
        assert all(d1 != d2 for (d1, d2) in built.variables.chi)

    def test_timing_bounded_by_horizon(self, built):
        for var in built.variables.t_ss.values():
            assert var.ub == pytest.approx(built.horizon)


class TestFamilies:
    def test_all_paper_families_present(self, built):
        families = set(built.family_counts)
        for fragment in ("3.3.1", "3.4.14", "3.3.3", "3.3.4", "3.3.5", "3.3.6",
                         "3.3.7", "3.3.8", "3.4.17", "3.4.19", "3.3.11",
                         "3.3.12", "3.4.21"):
            assert any(fragment in family for family in families), fragment

    def test_selection_is_equality(self, built):
        row = next(c for c in built.model.constraints if c.name == "select[S1]")
        assert row.sense is Sense.EQ
        assert row.rhs == 1.0

    def test_bus_has_no_chi(self, ex1_graph, ex1_library):
        options = FormulationOptions(style=InterconnectStyle.BUS)
        built = SosModelBuilder(ex1_graph, ex1_library, options).build()
        assert not built.variables.chi
        assert any("bus" in family for family in built.family_counts)

    def test_pruning_shrinks_example2(self):
        from repro.system.examples import example2_library
        from repro.taskgraph.examples import example2

        pruned = build_sos_model(example2(), example2_library())
        full = build_sos_model(
            example2(), example2_library(),
            FormulationOptions(prune_ordered_pairs=False),
        )
        assert (
            pruned.model.stats().num_constraints < full.model.stats().num_constraints
        )

    def test_example1_cannot_be_pruned(self, ex1_graph, ex1_library):
        """All Example 1 ports are fractional: pruning must remove nothing."""
        pruned = build_sos_model(ex1_graph, ex1_library)
        full = build_sos_model(
            ex1_graph, ex1_library, FormulationOptions(prune_ordered_pairs=False)
        )
        unprunable = ("3.4.17", "3.4.18", "3.4.19", "3.4.20")
        for fragment in unprunable:
            pruned_count = sum(
                count for family, count in pruned.family_counts.items() if fragment in family
            )
            full_count = sum(
                count for family, count in full.family_counts.items() if fragment in family
            )
            assert pruned_count == full_count, fragment


class TestProcessorLoad:
    """``T_F >= sum D * sigma`` per instance, on with the default reductions."""

    def test_one_row_per_instance_with_a_capable_subtask(self, built):
        capable = [
            inst for inst in built.pool
            if any(inst.can_execute(name) for name in built.graph.subtask_names)
        ]
        assert built.family_counts["processor-load"] == len(capable) == 6

    def test_instances_that_run_nothing_get_no_row(self, tiny_graph):
        library = make_library({
            "fast": (10, {"A": 1, "B": 1}),
            "slow": (3, {"A": 4}),
            "idle": (1, {"Z": 1}),
        })
        built = build_sos_model(tiny_graph, library)
        loads = {
            c.name: c for c in built.model.constraints if c.name.startswith("load[")
        }
        assert sorted(loads) == ["load[fasta]", "load[slowa]"]
        assert built.family_counts["processor-load"] == 2
        row = loads["load[fasta]"]
        v = built.variables
        assert row.expr.coefficient(v.t_f) == pytest.approx(1.0)
        assert row.expr.coefficient(v.sigma[("fasta", "A")]) == pytest.approx(-1.0)
        assert row.expr.coefficient(v.sigma[("fasta", "B")]) == pytest.approx(-1.0)
        assert (row.sense, row.rhs) == (Sense.GE, 0.0)
        slow = loads["load[slowa]"]
        assert slow.expr.coefficient(v.sigma[("slowa", "A")]) == pytest.approx(-4.0)

    def test_absent_from_the_faithful_formulation(self, ex1_graph, ex1_library):
        built = build_sos_model(
            ex1_graph, ex1_library, FormulationOptions(prune_ordered_pairs=False)
        )
        assert "processor-load" not in built.family_counts
        assert not any(c.name.startswith("load[") for c in built.model.constraints)

    def test_faithful_model_sizes_are_unchanged(self):
        faithful = [
            line for line in model_size_report().splitlines() if "| faithful |" in line
        ]
        assert faithful == [
            "example1_p2p | faithful | 21     | 82     | 294         | 21/72/174  ",
            "example2_p2p | faithful | 51     | 196    | 1893        | 47/225/1081",
            "example2_bus | faithful | 51     | 166    | 663         | 47/153/416 ",
        ]

    @staticmethod
    def _root_bound(graph, library, **options):
        built = build_sos_model(graph, library, FormulationOptions(**options))
        return get_solver("highs").solve(built.model.relaxed()).objective

    def test_rows_lift_the_root_relaxation_under_a_tight_cap(
        self, ex1_graph, ex1_library
    ):
        # The optimum at this cap is 17.
        without = self._root_bound(
            ex1_graph, ex1_library, cost_cap=4.9999, prune_ordered_pairs=False
        )
        with_rows = self._root_bound(ex1_graph, ex1_library, cost_cap=4.9999)
        assert without == pytest.approx(3.0006, abs=1e-4)
        assert with_rows == pytest.approx(4.1624, abs=1e-4)

    @pytest.mark.parametrize("cost_cap, bound", [
        (13.9999, 2.5), (12.9999, 2.5), (6.9999, 2.7955),
    ])
    def test_looser_caps_keep_their_root_relaxation(
        self, ex1_graph, ex1_library, cost_cap, bound
    ):
        assert self._root_bound(
            ex1_graph, ex1_library, cost_cap=cost_cap
        ) == pytest.approx(bound, abs=1e-4)


class TestDesignerConstraints:
    def test_cost_cap_row_added(self, ex1_graph, ex1_library):
        options = FormulationOptions(cost_cap=7.0)
        built = SosModelBuilder(ex1_graph, ex1_library, options).build()
        assert "designer-cost-cap" in built.family_counts

    def test_deadline_row_added(self, ex1_graph, ex1_library):
        options = FormulationOptions(deadline=4.0)
        built = SosModelBuilder(ex1_graph, ex1_library, options).build()
        assert "designer-deadline" in built.family_counts

    def test_min_cost_objective(self, ex1_graph, ex1_library):
        options = FormulationOptions(objective=Objective.MIN_COST)
        built = SosModelBuilder(ex1_graph, ex1_library, options).build()
        # Objective references beta variables, not T_F.
        beta = next(iter(built.variables.beta.values()))
        assert built.model.objective.coefficient(built.variables.t_f) == 0.0
        assert any(
            built.model.objective.coefficient(var) > 0
            for var in built.variables.beta.values()
        )


class _ExpressionExclusionBuilder(SosModelBuilder):
    """Writes (3.4.19)/(3.4.20) with expression arithmetic (reference)."""

    def _p2p_exclusion_pair(self, arc1, arc2):
        v, tm = self._vars, self.horizon
        key1 = arc_key(arc1.consumer, arc1.dest.index)
        key2 = arc_key(arc2.consumer, arc2.dest.index)
        senders = [i for i in self._capable(arc1.producer) if i.can_execute(arc2.producer)]
        receivers = [i for i in self._capable(arc1.consumer) if i.can_execute(arc2.consumer)]
        phi = None
        for d1 in senders:
            for d2 in receivers:
                if d1.name == d2.name:
                    continue
                if phi is None:
                    phi = self._phi_for(arc1, arc2)
                sig = (
                    v.sigma[(d2.name, arc1.consumer)] + v.sigma[(d2.name, arc2.consumer)]
                    + v.sigma[(d1.name, arc1.producer)] + v.sigma[(d1.name, arc2.producer)]
                )
                tag = f"{d1.name},{d2.name},{key1[0]}{key1[1]},{key2[0]}{key2[1]}"
                self._add("link-usage-exclusion (3.4.19)",
                          v.t_cs[key2] >= v.t_ce[key1] - tm * (5 - phi - sig),
                          f"lex1[{tag}]")
                self._add("link-usage-exclusion (3.4.20)",
                          v.t_cs[key1] >= v.t_ce[key2] - tm * (4 + phi - sig),
                          f"lex2[{tag}]")


class TestExclusionRows:
    @pytest.mark.parametrize("style", [InterconnectStyle.POINT_TO_POINT, InterconnectStyle.RING])
    @pytest.mark.parametrize("horizon", [None, 0.0])
    def test_term_dicts_match_expression_arithmetic(
        self, ex1_graph, ex1_library, style, horizon
    ):
        """Same rows, terms, coefficient order, values and right-hand sides,
        including the degenerate zero horizon where terms drop out."""
        options = FormulationOptions(style=style)
        fast = SosModelBuilder(ex1_graph, ex1_library, options)
        slow = _ExpressionExclusionBuilder(ex1_graph, ex1_library, options)
        if horizon is not None:
            fast.horizon = slow.horizon = horizon
        got, want = fast.build().model.constraints, slow.build().model.constraints
        assert len(got) == len(want)
        for mine, reference in zip(got, want):
            assert mine.name == reference.name
            assert mine.sense is reference.sense
            assert repr(mine.rhs) == repr(reference.rhs)
            assert [(var.name, repr(coeff)) for var, coeff in mine.expr.coeffs.items()] == [
                (var.name, repr(coeff)) for var, coeff in reference.expr.coeffs.items()
            ]


class TestRetarget:
    """A re-targeted model exports what a fresh build for its options does."""

    @staticmethod
    def assert_same_export(got, want):
        for name in ("c", "a_ub", "b_ub", "a_eq", "b_eq", "lb", "ub"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.c0 == want.c0

    @pytest.mark.parametrize("style", list(InterconnectStyle))
    def test_every_target_matches_fresh_build(self, ex1_graph, ex1_library, style):
        targets = [
            (None, None, Objective.MIN_MAKESPAN),
            (7.0, None, Objective.MIN_MAKESPAN),
            (7.0, 4.0, Objective.MIN_COST),
            (None, 4.0, Objective.WEIGHTED),
            (13.0, None, Objective.MIN_COST),
            (None, None, Objective.MIN_MAKESPAN),
        ]
        built = SosModelBuilder(
            ex1_graph, ex1_library, FormulationOptions(style=style)
        ).build()
        for cap, deadline, objective in targets:
            options = FormulationOptions(
                style=style, cost_cap=cap, deadline=deadline, objective=objective
            )
            built.retarget(cost_cap=cap, deadline=deadline, objective=objective)
            fresh = SosModelBuilder(ex1_graph, ex1_library, options).build()
            self.assert_same_export(built.model.to_matrices(), fresh.model.to_matrices())
            assert built.options == fresh.options
            assert built.family_counts == fresh.family_counts

    def test_unset_rows_are_absent(self, ex1_graph, ex1_library):
        built = SosModelBuilder(
            ex1_graph, ex1_library, FormulationOptions(cost_cap=7.0, deadline=4.0)
        ).build()
        rows = len(built.model.constraints)
        built.retarget(cost_cap=None, deadline=None, objective=Objective.MIN_MAKESPAN)
        assert built.cost_cap_row is None and built.deadline_row is None
        assert len(built.model.constraints) == rows - 2
        assert "cost_cap" not in [c.name for c in built.model.constraints]

    def test_designer_rows_sit_after_the_families(self, ex1_graph, ex1_library):
        built = SosModelBuilder(ex1_graph, ex1_library).build()
        built.model.add(built.variables.t_f <= 100.0, name="extra")
        built.set_deadline(5.0)
        built.set_cost_cap(9.0)
        names = [c.name for c in built.model.constraints]
        assert names[built.family_rows:] == ["cost_cap", "deadline", "extra"]


class TestCorrectnessOnTinyInstance:
    """Solve tiny instances and verify the formulation's semantics directly."""

    def test_remote_vs_local_tradeoff(self, tiny_graph, tiny_library):
        # Fast costs 10 and does A,B in 1 each; slow costs 3, 4 each.
        # Remote transfer of volume 2 takes 2.
        built = build_sos_model(tiny_graph, tiny_library)
        solution = get_solver("highs").solve(built.model)
        # One fast processor serially: 1+1 = 2 (local transfer free).
        assert solution.objective == pytest.approx(2.0)

    def test_cost_cap_forces_slow_processor(self, tiny_graph, tiny_library):
        built = build_sos_model(
            tiny_graph, tiny_library, FormulationOptions(cost_cap=4.0)
        )
        solution = get_solver("highs").solve(built.model)
        assert solution.objective == pytest.approx(8.0)  # slow does both: 4+4

    def test_two_processors_pay_transfer(self, tiny_graph, tiny_library):
        # Force A and B on different processors by capping... instead check
        # min-cost under a deadline that a single slow processor misses.
        built = build_sos_model(
            tiny_graph, tiny_library,
            FormulationOptions(objective=Objective.MIN_COST, deadline=2.0),
        )
        solution = get_solver("highs").solve(built.model)
        # Only a fast processor meets deadline 2; cheapest such system is 10.
        assert solution.objective == pytest.approx(10.0)

    def test_infeasible_deadline(self, tiny_graph, tiny_library):
        built = build_sos_model(
            tiny_graph, tiny_library,
            FormulationOptions(objective=Objective.MIN_COST, deadline=0.5),
        )
        solution = get_solver("highs").solve(built.model)
        assert not solution.status.has_solution


class TestRingStyle:
    def test_small_pool_rejected(self, tiny_graph, tiny_library):
        with pytest.raises(SystemModelError, match="ring"):
            SosModelBuilder(
                tiny_graph, tiny_library.with_instances(1),
                FormulationOptions(style=InterconnectStyle.RING),
            )

    def test_adjacency_constraints_generated(self, ex1_graph, ex1_library):
        options = FormulationOptions(style=InterconnectStyle.RING)
        built = SosModelBuilder(ex1_graph, ex1_library, options).build()
        assert "ring-adjacency (§5)" in built.family_counts

    def test_chi_restricted_to_adjacent_pairs(self, ex1_graph, ex1_library):
        options = FormulationOptions(style=InterconnectStyle.RING)
        built = SosModelBuilder(ex1_graph, ex1_library, options).build()
        pool = [inst.name for inst in built.pool]
        adjacent = set()
        for position, name in enumerate(pool):
            adjacent.add((name, pool[(position + 1) % len(pool)]))
            adjacent.add((name, pool[(position - 1) % len(pool)]))
        assert set(built.variables.chi) <= adjacent


class TestSizeReport:
    def test_mentions_counts(self, built):
        report = built.size_report()
        assert "timing" in report and "binary" in report and "constraints" in report
