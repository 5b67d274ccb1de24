"""Branching priorities: set by the SOS builder, carried to every solver layer."""

import numpy as np
import pytest

from repro.core.formulation import BETA_PRIORITY, SIGMA_PRIORITY, SosModelBuilder
from repro.milp.model import Model
from repro.milp.solution import SolveStats
from repro.solvers.base import SolverOptions
from repro.solvers.bozo import _LPBackend, _TreeSearch
from repro.solvers.presolve import presolve
from repro.system.examples import example1_library
from repro.system.generators import random_library
from repro.taskgraph.examples import example1
from repro.taskgraph.generators import layered_random


@pytest.fixture(params=["example1", "layered_random"])
def sos(request):
    if request.param == "example1":
        graph, library = example1(), example1_library()
    else:
        graph = layered_random(5, 3, seed=3)
        library = random_library(graph, seed=3)
    return SosModelBuilder(graph, library).build()


class TestBuilderPriorities:
    def test_beta_sigma_and_the_rest(self, sos):
        v = sos.variables
        beta = {var.index for var in v.beta.values()}
        sigma = {var.index for var in v.sigma.values()}
        assert beta and sigma
        for var in sos.model.variables:
            expected = (
                BETA_PRIORITY if var.index in beta
                else SIGMA_PRIORITY if var.index in sigma
                else 0
            )
            assert var.branch_priority == expected, var.name
        assert (BETA_PRIORITY, SIGMA_PRIORITY) == (2, 1)

    def test_matrix_form_carries_the_classes(self, sos):
        form = sos.model.to_matrices()
        assert form.branch_priority.tolist() == [
            var.branch_priority for var in sos.model.variables
        ]


class TestPlumbing:
    def test_copy_and_relaxed_keep_priorities(self, sos):
        expected = [var.branch_priority for var in sos.model.variables]
        for derived in (sos.model.copy(), sos.model.relaxed()):
            assert [v.branch_priority for v in derived.variables] == expected
            assert derived.to_matrices().branch_priority.tolist() == expected

    def test_presolve_keeps_the_array(self, sos):
        form = sos.model.to_matrices()
        reduced = presolve(form).form
        assert reduced is not None
        assert np.array_equal(reduced.branch_priority, form.branch_priority)

    def test_hand_built_form_defaults_to_zeros(self):
        model = Model("plain")
        model.add_binary("x")
        model.add_continuous("y")
        assert model.to_matrices().branch_priority.tolist() == [0, 0]


def _two_fractional(priorities):
    """x <= 0.5 and y <= 0.2 at the LP optimum; z is integral there."""
    model = Model("pick")
    x = model.add_binary("x", priority=priorities[0])
    y = model.add_binary("y", priority=priorities[1])
    z = model.add_binary("z", priority=priorities[2])
    model.add(2 * x <= 1)
    model.add(5 * y <= 1)
    model.maximize(x + y + z)
    return model


def _first_branch(model):
    form = model.to_matrices()
    lp = _LPBackend(form, SolveStats())
    search = _TreeSearch(SolverOptions(), form, lp, start=0.0)
    result = lp.solve(form.lb, form.ub)
    fractional = [
        (j, float(result.x[j] - np.floor(result.x[j])))
        for j in search.integral
        if abs(result.x[j] - round(result.x[j])) > 1e-6
    ]
    assert [j for j, _ in fractional] == [0, 1]
    return search._pick_branch(fractional)[0]


class TestPriorityDecidesTheBranch:
    def test_scores_pick_the_most_fractional_without_priorities(self):
        assert _first_branch(_two_fractional((0, 0, 0))) == 0

    def test_higher_class_wins_over_a_better_score(self):
        # z holds the top class but is integral, so it does not compete.
        assert _first_branch(_two_fractional((0, 1, 5))) == 1
