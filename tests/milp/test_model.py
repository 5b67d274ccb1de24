"""Tests for the MILP model container."""

import math

import numpy as np
import pytest

from repro.errors import ModelError
from repro.milp.expr import Var, VarType
from repro.milp.model import Model


@pytest.fixture
def simple_model():
    model = Model("simple")
    x = model.add_continuous("x", ub=4)
    y = model.add_binary("y")
    model.add(x + 2 * y <= 5, name="cap")
    model.add(x - y >= 0)
    model.minimize(-x - 3 * y)
    return model, x, y


class TestVariables:
    def test_duplicate_name_rejected(self):
        model = Model()
        model.add_var("x")
        with pytest.raises(ModelError, match="duplicate"):
            model.add_var("x")

    def test_lookup_by_name(self, simple_model):
        model, x, _ = simple_model
        assert model.var_by_name("x") is x

    def test_lookup_unknown_name(self):
        with pytest.raises(ModelError, match="no variable"):
            Model().var_by_name("ghost")

    def test_indices_sequential(self):
        model = Model()
        created = [model.add_var(f"v{i}") for i in range(5)]
        assert [v.index for v in created] == list(range(5))

    def test_add_binary_shorthand(self):
        model = Model()
        b = model.add_binary("b")
        assert b.vtype is VarType.BINARY


class TestConstraints:
    def test_foreign_variable_rejected(self):
        model_a, model_b = Model("a"), Model("b")
        x = model_a.add_var("x")
        with pytest.raises(ModelError, match="does not belong"):
            model_b.add(x <= 1)

    def test_auto_naming(self):
        model = Model()
        x = model.add_var("x")
        first = model.add(x <= 1)
        second = model.add(x <= 2)
        assert first.name != second.name

    def test_add_all_with_prefix(self):
        model = Model()
        x = model.add_var("x")
        added = model.add_all([x <= 1, x <= 2], prefix="lim")
        assert [c.name for c in added] == ["lim0", "lim1"]

    def test_chained_comparison_rejected(self):
        model = Model()
        x = model.add_var("x")
        with pytest.raises(ModelError):
            model.add(0 <= x <= 1)  # type: ignore[arg-type]


class TestObjective:
    def test_maximize_negates(self, simple_model):
        model, x, y = simple_model
        model.maximize(x + y)
        assert model.objective.coefficient(x) == -1.0

    def test_objective_value(self, simple_model):
        model, x, y = simple_model
        assert model.objective_value({x: 4, y: 0}) == pytest.approx(-4.0)


class TestFeasibility:
    def test_feasible_assignment(self, simple_model):
        model, x, y = simple_model
        assert model.is_feasible({x: 3, y: 1})

    def test_bound_violation_reported(self, simple_model):
        model, x, y = simple_model
        problems = model.infeasibilities({x: 9, y: 0})
        assert any("outside" in p for p in problems)

    def test_integrality_violation_reported(self, simple_model):
        model, x, y = simple_model
        problems = model.infeasibilities({x: 1, y: 0.5})
        assert any("not integral" in p for p in problems)

    def test_constraint_violation_reported(self, simple_model):
        model, x, y = simple_model
        problems = model.infeasibilities({x: 4, y: 1})
        assert any("cap" in p for p in problems)

    def test_missing_value_reported(self, simple_model):
        model, x, _ = simple_model
        problems = model.infeasibilities({x: 1})
        assert any("no value" in p for p in problems)


class TestStats:
    def test_counts(self, simple_model):
        model, _, _ = simple_model
        stats = model.stats()
        assert stats.num_variables == 2
        assert stats.num_binary == 1
        assert stats.num_continuous == 1
        assert stats.num_constraints == 2
        assert stats.num_nonzeros == 4

    def test_str_mentions_counts(self, simple_model):
        model, _, _ = simple_model
        assert "2 variables" in str(model.stats())


class TestMatrices:
    def test_shapes_and_senses(self, simple_model):
        model, x, y = simple_model
        form = model.to_matrices()
        assert form.a_ub.shape == (2, 2)  # GE row negated into UB block
        assert form.a_eq.shape[0] == 0
        np.testing.assert_allclose(form.c, [-1, -3])
        assert form.integrality.tolist() == [False, True]

    def test_ge_row_negated(self, simple_model):
        model, x, y = simple_model
        form = model.to_matrices()
        # x - y >= 0 becomes -x + y <= 0.
        np.testing.assert_allclose(form.a_ub[1], [-1, 1])
        assert form.b_ub[1] == 0.0

    def test_eq_block(self):
        model = Model()
        x = model.add_var("x")
        model.add(2 * x == 3)
        form = model.to_matrices()
        assert form.a_eq.shape == (1, 1)
        assert form.b_eq[0] == 3.0

    def test_objective_constant_preserved(self):
        model = Model()
        x = model.add_var("x")
        model.minimize(x + 10)
        assert model.to_matrices().c0 == 10.0

    def test_objective_with_foreign_variable_rejected(self):
        model = Model()
        model.add_var("x")
        model.minimize(Var("stray", index=0) + 1)
        with pytest.raises(ModelError, match="does not belong"):
            model.to_matrices()


def row_by_row_export(model):
    """The dense per-row export ``to_matrices`` replaced (reference)."""
    from repro.milp.constraint import Sense

    n = len(model.variables)
    index_of = {var: j for j, var in enumerate(model.variables)}
    c = np.zeros(n)
    for var, coeff in model.objective.coeffs.items():
        c[index_of[var]] = coeff
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for constraint in model.constraints:
        row = np.zeros(n)
        for var, coeff in constraint.expr.coeffs.items():
            row[index_of[var]] = coeff
        if constraint.sense is Sense.LE:
            ub_rows.append(row)
            ub_rhs.append(constraint.rhs)
        elif constraint.sense is Sense.GE:
            ub_rows.append(-row)
            ub_rhs.append(-constraint.rhs)
        else:
            eq_rows.append(row)
            eq_rhs.append(constraint.rhs)

    def stack(rows):
        return np.vstack(rows) if rows else np.zeros((0, n))

    return {
        "c": c, "a_ub": stack(ub_rows), "b_ub": np.asarray(ub_rhs, dtype=float),
        "a_eq": stack(eq_rows), "b_eq": np.asarray(eq_rhs, dtype=float),
    }


class TestScatterExport:
    @pytest.mark.parametrize("style", ["point_to_point", "bus", "ring"])
    @pytest.mark.parametrize("variant", [{}, {"io_overlap": False}, {"memory_model": True}])
    def test_sos_models_match_row_by_row_export(self, style, variant):
        from repro.core.formulation import SosModelBuilder
        from repro.core.options import FormulationOptions, Objective
        from repro.system.examples import example1_library
        from repro.system.interconnect import InterconnectStyle
        from repro.taskgraph.examples import example1

        options = FormulationOptions(
            style=InterconnectStyle(style), cost_cap=9.0, deadline=6.0,
            objective=Objective.WEIGHTED, **variant,
        )
        model = SosModelBuilder(example1(), example1_library(), options).build().model
        form = model.to_matrices()
        for name, want in row_by_row_export(model).items():
            got = getattr(form, name)
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name  # -0.0 included

    def test_simple_model_matches_row_by_row_export(self, simple_model):
        model, _, _ = simple_model
        model.add(model.variables[0] == 2)
        form = model.to_matrices()
        for name, want in row_by_row_export(model).items():
            assert getattr(form, name).tobytes() == want.tobytes(), name


class TestExportReuse:
    def test_unchanged_model_returns_the_same_form(self, simple_model):
        model, _, _ = simple_model
        form = model.to_matrices()
        assert model.to_matrices() is form

    def test_form_arrays_are_read_only(self, simple_model):
        model, _, _ = simple_model
        form = model.to_matrices()
        with pytest.raises(ValueError):
            form.ub[0] = 1.0
        with pytest.raises(ValueError):
            form.a_ub[0, 0] = 1.0

    def test_every_change_drops_the_export(self, simple_model):
        model, x, y = simple_model
        first = model.to_matrices()
        row = model.add(x <= 3, name="x_cap")
        second = model.to_matrices()
        assert second is not first
        assert second.a_ub.shape == (3, 2)
        model.remove(row)
        third = model.to_matrices()
        assert third is not second
        assert third.a_ub.tobytes() == first.a_ub.tobytes()
        model.minimize(x)
        assert model.to_matrices().c.tolist() == [1.0, 0.0]
        model.add_var("z")
        assert model.to_matrices().c.shape == (3,)

    def test_earlier_export_is_not_mutated(self, simple_model):
        model, x, _ = simple_model
        first = model.to_matrices()
        before = first.a_ub.copy()
        model.add(x <= 3, position=0)
        assert np.array_equal(first.a_ub, before)
        assert model.to_matrices().a_ub[0].tolist() == [1.0, 0.0]


class TestRowEditing:
    def test_insert_at_position(self, simple_model):
        model, x, y = simple_model
        model.add(y <= 1, name="first", position=0)
        assert [c.name for c in model.constraints][:2] == ["first", "cap"]

    def test_remove_by_identity(self, simple_model):
        model, x, _ = simple_model
        cap = model.constraints[0]
        model.remove(cap)
        assert [c.name for c in model.constraints] == ["c1"]
        with pytest.raises(ModelError, match="not in model"):
            model.remove(cap)


def fresh_export(model):
    """The export of a copy of ``model`` that was never exported before."""
    return model.copy().to_matrices()


FORM_ARRAYS = ("c", "a_ub", "b_ub", "a_eq", "b_eq", "lb", "ub", "integrality",
               "branch_priority")


def assert_same_export(got, want):
    for name in FORM_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.c0 == want.c0
    for a, b in zip(got.stacked_rows(), want.stacked_rows()):
        if hasattr(a, "indptr"):
            for name in ("indptr", "indices", "data"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        else:
            assert a.tobytes() == b.tobytes()


class TestSplicedExport:
    """An export after row and objective edits re-reads only the edited
    rows, and gives the bytes a never-exported copy gives."""

    def test_random_edit_sequences_match_a_fresh_export(self):
        rng = np.random.default_rng(5)
        model = Model()
        xs = [model.add_var(f"x{j}", vtype=VarType.BINARY if j % 3 == 0 else
                            VarType.CONTINUOUS, ub=5.0) for j in range(6)]

        def random_row():
            terms = rng.choice(6, size=int(rng.integers(1, 4)), replace=False)
            expr = sum(float(rng.integers(-3, 4) or 1) * xs[int(j)] for j in terms)
            rhs = float(rng.integers(-2, 6))
            return [expr <= rhs, expr >= rhs, expr == rhs][int(rng.integers(0, 3))]

        for _ in range(8):
            model.add(random_row())
        model.minimize(xs[0] + 2 * xs[1])
        model.to_matrices()
        for step in range(60):
            for _ in range(int(rng.integers(1, 4))):
                draw = rng.random()
                rows = model.constraints
                if draw < 0.4 and rows:
                    model.remove(rows[int(rng.integers(0, len(rows)))])
                elif draw < 0.8:
                    model.add(random_row(), position=int(rng.integers(0, len(rows) + 1)))
                else:
                    model.minimize(float(rng.integers(-2, 3)) * xs[int(rng.integers(0, 6))] + step)
            assert_same_export(model.to_matrices(), fresh_export(model))

    def test_many_edits_reread_every_row(self, simple_model, monkeypatch):
        from repro.milp import model as model_module

        model, x, _ = simple_model
        model.to_matrices()
        for bound in range(model_module._MAX_ROW_EDITS + 1):
            model.add(x <= 10.0 + bound)
        encoded = []
        of = model_module._Rows.of
        monkeypatch.setattr(model_module._Rows, "of", classmethod(
            lambda cls, constraints: encoded.append(len(constraints)) or of(constraints)
        ))
        assert_same_export(model.to_matrices(), fresh_export(model))
        assert encoded[0] == len(model.constraints)

    def test_new_variable_rereads_every_row(self, simple_model):
        model, x, _ = simple_model
        model.to_matrices()
        z = model.add_var("z", ub=2.0)
        model.add(x + z <= 3.0)
        form = model.to_matrices()
        assert form.a_ub.shape == (3, 3) and form.ub.tolist() == [4.0, 1.0, 2.0]
        assert_same_export(form, fresh_export(model))

    def test_objective_change_shares_the_rows(self, simple_model):
        model, x, _ = simple_model
        first = model.to_matrices()
        model.minimize(x)
        second = model.to_matrices()
        assert second.c.tolist() == [1.0, 0.0]
        assert second.a_ub is first.a_ub
        assert second.stacked_rows()[0] is first.stacked_rows()[0]

    def test_retargeted_follow_up_reads_only_the_designer_row(self, monkeypatch):
        """The two solves of a design differ in the designer rows and the
        objective only, so the second export encodes just the new row."""
        from repro.core.formulation import SosModelBuilder
        from repro.core.options import FormulationOptions, Objective
        from repro.milp import model as model_module
        from repro.system.examples import example1_library
        from repro.taskgraph.examples import example1

        built = SosModelBuilder(
            example1(), example1_library(), FormulationOptions(cost_cap=7.0)
        ).build()
        built.model.to_matrices()
        encoded = []
        of = model_module._Rows.of
        monkeypatch.setattr(model_module._Rows, "of", classmethod(
            lambda cls, constraints: encoded.append(len(constraints)) or of(constraints)
        ))
        built.retarget(cost_cap=7.0, deadline=4.0, objective=Objective.MIN_COST)
        follow_up = built.model.to_matrices()
        assert encoded == [1]
        fresh = SosModelBuilder(
            example1(), example1_library(),
            FormulationOptions(cost_cap=7.0, deadline=4.0, objective=Objective.MIN_COST),
        ).build()
        assert_same_export(follow_up, fresh.model.to_matrices())
