"""HiGHS receives the arrays the dense matrix form implies, byte for byte.

``HighsSolver`` and the left-shift polish hand HiGHS one sparse matrix
per export (:meth:`repro.milp.model.MatrixForm.stacked_rows`) instead of
converting the dense blocks themselves.  These tests intercept every
call into SciPy's HiGHS wrapper and compare what it receives with what
the dense route derives from the same :class:`MatrixForm`: one
``csr_matrix`` per row block, passed to ``scipy.optimize.milp`` as two
``LinearConstraint``s, and the polish LP through ``linprog``.  Values,
dtypes, shapes and memory order must all match, and so must the polish
point and the design documents built on it.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize._milp as scipy_milp
from scipy import optimize, sparse

from repro.core import polish
from repro.synthesis.synthesizer import Synthesizer
from repro.solvers.highs import HighsSolver
from repro.system.examples import example1_library
from repro.system.generators import random_library
from repro.system.interconnect import InterconnectStyle
from repro.taskgraph.examples import example1
from repro.taskgraph.generators import layered_random

#: Positional arguments of SciPy's ``_highs_wrapper``, in call order.
WRAPPER_ARGS = ("c", "indptr", "indices", "data", "b_l", "b_u", "lb", "ub", "integrality")


class _Recorded(Exception):
    """Stops a reference ``milp`` call once its HiGHS inputs are recorded."""


def dense_route_inputs(form, options):
    """The wrapper arguments ``milp`` builds from the dense blocks."""
    constraints = []
    if form.a_ub.size:
        constraints.append(
            optimize.LinearConstraint(sparse.csr_matrix(form.a_ub), -np.inf, form.b_ub)
        )
    if form.a_eq.size:
        constraints.append(
            optimize.LinearConstraint(sparse.csr_matrix(form.a_eq), form.b_eq, form.b_eq)
        )
    recorded = []

    def record(*args):
        recorded.append(args)
        raise _Recorded

    original = scipy_milp._highs_wrapper
    scipy_milp._highs_wrapper = record
    try:
        optimize.milp(
            c=form.c, constraints=constraints or None,
            bounds=optimize.Bounds(form.lb, form.ub),
            integrality=form.integrality.astype(int), options=dict(options),
        )
    except _Recorded:
        pass
    finally:
        scipy_milp._highs_wrapper = original
    return recorded[0]


def dense_route_polish(c, form, lb, ub):
    """The polish LP through ``linprog`` on the dense blocks."""
    result = optimize.linprog(
        c,
        A_ub=form.a_ub if form.a_ub.size else None,
        b_ub=form.b_ub if form.b_ub.size else None,
        A_eq=form.a_eq if form.a_eq.size else None,
        b_eq=form.b_eq if form.b_eq.size else None,
        bounds=list(zip(lb, ub)),
        method="highs",
    )
    assert result.status == 0
    return np.asarray(result.x, dtype=float)


def assert_same_array(got, want, name):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert got.flags.c_contiguous == want.flags.c_contiguous, name
    assert got.tobytes() == want.tobytes(), name


def problems():
    for style in InterconnectStyle:
        for cap in (None, 7.0):
            yield f"example1-{style.value}-{cap}", example1(), example1_library(), style, cap
    for seed in (0, 1):
        graph = layered_random(6, 3, seed=seed)
        yield f"layered6x3-s{seed}", graph, random_library(graph, seed=seed), \
            InterconnectStyle.POINT_TO_POINT, None


@pytest.mark.parametrize(
    "graph, library, style, cap",
    [case[1:] for case in problems()],
    ids=[case[0] for case in problems()],
)
def test_highs_inputs_polish_and_design_match_the_dense_route(
    monkeypatch, graph, library, style, cap
):
    calls = []
    forms = []
    polished = []
    wrapper = scipy_milp._highs_wrapper

    def recording_wrapper(*args):
        calls.append(args)
        return wrapper(*args)

    solve = HighsSolver.solve

    def recording_solve(solver, model):
        forms.append(model.to_matrices())
        return solve(solver, model)

    solve_polish_lp = polish._solve_polish_lp

    def recording_polish(c, form, lb, ub):
        x = solve_polish_lp(c, form, lb, ub)
        polished.append((c, form, lb, ub, x))
        return x

    monkeypatch.setattr(scipy_milp, "_highs_wrapper", recording_wrapper)
    monkeypatch.setattr(HighsSolver, "solve", recording_solve)
    monkeypatch.setattr(polish, "_solve_polish_lp", recording_polish)
    design = Synthesizer(graph, library, style=style, solver="highs").synthesize(
        cost_cap=cap
    )

    # Two MILP solves (primary and follow-up), then the polish LP.
    assert len(forms) == 2 and len(polished) == 1 and len(calls) == 3
    options = {"mip_rel_gap": HighsSolver().options.gap_tolerance}
    for form, args in zip(forms, calls[:2]):
        want = dense_route_inputs(form, options)
        for name, got, expected in zip(WRAPPER_ARGS, args[:9], want[:9]):
            assert_same_array(got, expected, name)
        assert args[9] == want[9]
    c, form, lb, ub, x = polished[0]
    assert form is forms[1]  # the polish reuses the follow-up's export
    assert_same_array(x, dense_route_polish(c, form, lb, ub), "polish x")

    # The whole design, built on the dense-route polish.
    monkeypatch.setattr(polish, "_solve_polish_lp", dense_route_polish)
    reference = Synthesizer(graph, library, style=style, solver="highs").synthesize(
        cost_cap=cap
    )
    got, want = design.to_dict(), reference.to_dict()
    got.pop("solve_seconds")
    want.pop("solve_seconds")
    assert got == want


def test_hand_built_form_stacks_its_dense_blocks():
    """A form built without a model derives its sparse rows from the
    dense blocks, with the arrays the dense route gives."""
    from repro.milp.model import MatrixForm

    a_ub = np.array([[1.0, -0.0, 2.0], [0.0, 3.0, 0.0]])
    a_eq = np.array([[0.0, 4.0, 5.0]])
    form = MatrixForm(
        c=np.ones(3), c0=0.0, a_ub=a_ub, b_ub=np.array([1.0, 2.0]),
        a_eq=a_eq, b_eq=np.array([3.0]), lb=np.zeros(3), ub=np.ones(3),
        integrality=np.array([True, False, True]), variables=(),
    )
    matrix, lower, upper = form.stacked_rows()
    want = sparse.vstack(
        [sparse.csc_array(sparse.csr_matrix(a_ub)), sparse.csc_array(sparse.csr_matrix(a_eq))],
        format="csc",
    )
    for name in ("indptr", "indices", "data"):
        assert_same_array(getattr(matrix, name), getattr(want, name), name)
    assert lower.tolist() == [-np.inf, -np.inf, 3.0]
    assert upper.tolist() == [1.0, 2.0, 3.0]
    assert form.stacked_rows()[0] is matrix
