"""Tests for the MPS codec, including write->read round trips and the
cut-augmented root-relaxation cross-check against HiGHS."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.milp.expr import VarType
from repro.milp.model import Model
from repro.milp.mps import mps_string, read_mps
from repro.solvers.registry import get_solver

SAMPLE = """\
NAME          sample
ROWS
 N  obj
 L  cap
 G  low
 E  fix
COLUMNS
    x  obj  2  cap  1
    x  low  1
    MARKER    'MARKER'    'INTORG'
    y  obj  3  cap  1
    y  low  -1
    MARKER    'MARKER'    'INTEND'
    z  obj  -1  fix  2
RHS
    RHS  cap  10  low  -2
    RHS  fix  4
BOUNDS
 UP BND  x  8
 LO BND  y  0
 UP BND  y  1
 LO BND  z  1
 UP BND  z  9
ENDATA
"""


@pytest.fixture
def model():
    m = Model("writer")
    x = m.add_continuous("x", ub=4)
    y = m.add_binary("y[p1a,S1]")
    z = m.add_var("z", vtype=VarType.INTEGER, lb=1, ub=9)
    m.add(x + 2 * y - z <= 5, name="cap")
    m.add(x - y >= 0, name="order")
    m.add(2 * z == 4, name="fix")
    m.minimize(x + y + 1.5)
    return m


class TestWriting:
    def test_sections_present(self, model):
        text = mps_string(model)
        for section in ("NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text

    def test_integrality_markers_bracket_integer_columns(self, model):
        text = mps_string(model)
        assert text.count("'INTORG'") == text.count("'INTEND'") == 1
        intorg = text.index("'INTORG'")
        intend = text.index("'INTEND'")
        integral_block = text[intorg:intend]
        assert "y_p1a_S1_" in integral_block and "\n    z  " in integral_block
        assert "\n    x  " not in integral_block

    def test_row_senses(self, model):
        text = mps_string(model)
        assert " L  cap" in text
        assert " G  order" in text
        assert " E  fix" in text

    def test_objective_constant_negated_on_rhs(self, model):
        text = mps_string(model)
        assert "RHS  obj  -1.5" in text

    def test_names_sanitized(self, model):
        text = mps_string(model)
        assert "y[p1a,S1]" not in text
        assert "y_p1a_S1_" in text

    def test_sanitize_collision_disambiguated(self):
        m = Model()
        m.add_var("a,b", ub=1)
        m.add_var("a;b", ub=1)  # both sanitize to a_b
        text = mps_string(m)
        assert "a_b_0" in text and "a_b_1" in text

    def test_leading_digit_prefixed(self):
        m = Model()
        m.add_var("3x", ub=1)
        assert "v_3x" in mps_string(m)

    def test_infinite_and_free_bounds(self):
        m = Model()
        m.add_var("up_free")  # [0, inf): LO only
        m.add_var("low_free", lb=-math.inf, ub=2)
        m.add_var("free", lb=-math.inf)
        text = mps_string(m)
        assert " LO BND  up_free  0\n" in text and "UP BND  up_free" not in text
        assert " MI BND  low_free\n UP BND  low_free  2\n" in text
        assert " FR BND  free\n" in text
        restored = read_mps(text)
        assert restored.var_by_name("up_free").ub == math.inf
        assert restored.var_by_name("low_free").lb == -math.inf
        free = restored.var_by_name("free")
        assert (free.lb, free.ub) == (-math.inf, math.inf)

    def test_unreferenced_variable_still_written(self):
        m = Model()
        m.add_var("orphan", ub=3)
        m.minimize(0.0 * m.var_by_name("orphan"))
        restored = read_mps(mps_string(m))
        assert restored.var_by_name("orphan").ub == 3


class TestParsing:
    def test_sample_parses(self):
        m = read_mps(SAMPLE)
        stats = m.stats()
        assert stats.num_variables == 3
        assert stats.num_constraints == 3
        assert stats.num_binary == 1  # integer y on [0, 1] reads as binary
        x, y, z = (m.var_by_name(n) for n in ("x", "y", "z"))
        assert m.objective.coefficient(x) == 2.0
        assert m.objective.coefficient(z) == -1.0
        assert x.ub == 8 and z.lb == 1 and z.ub == 9

    def test_negative_rhs(self):
        row = next(c for c in read_mps(SAMPLE).constraints if c.name == "low")
        assert row.rhs == -2.0

    def test_binary_bound_makes_binary(self):
        text = (
            "ROWS\n N  obj\nCOLUMNS\n    y  obj  1\n"
            "BOUNDS\n UP BND  y  7\n BV BND  y\nENDATA\n"
        )
        y = read_mps(text).var_by_name("y")
        assert y.vtype is VarType.BINARY and (y.lb, y.ub) == (0.0, 1.0)

    def test_unsupported_bound_rejected(self):
        text = "ROWS\n N  obj\nCOLUMNS\n    x  obj  1\nBOUNDS\n SC BND  x  3\nENDATA\n"
        with pytest.raises(ModelError, match="bound"):
            read_mps(text)

    def test_ranges_rejected(self):
        with pytest.raises(ModelError, match="RANGES"):
            read_mps("ROWS\n N  obj\nRANGES\n    RNG  cap  1\nENDATA\n")

    def test_missing_objective_rejected(self):
        with pytest.raises(ModelError, match="no objective"):
            read_mps("ROWS\n L  cap\nCOLUMNS\n    x  cap  1\nENDATA\n")

    def test_unknown_row_rejected(self):
        text = "ROWS\n N  obj\nCOLUMNS\n    x  ghost  1\nENDATA\n"
        with pytest.raises(ModelError, match="unknown row"):
            read_mps(text)

    def test_unknown_bound_column_rejected(self):
        text = (
            "ROWS\n N  obj\nCOLUMNS\n    x  obj  1\n"
            "BOUNDS\n UP BND  ghost  1\nENDATA\n"
        )
        with pytest.raises(ModelError, match="unknown column"):
            read_mps(text)

    def test_data_before_section_rejected(self):
        with pytest.raises(ModelError, match="before any section"):
            read_mps("    x  obj  1\nROWS\n N  obj\nENDATA\n")

    def test_free_and_fixed_bounds(self):
        text = (
            "ROWS\n N  obj\n L  cap\n"
            "COLUMNS\n    a  obj  1  cap  1\n    b  cap  1\n"
            "RHS\n    RHS  cap  4\n"
            "BOUNDS\n FR BND  a\n FX BND  b  2.5\nENDATA\n"
        )
        m = read_mps(text)
        a, b = m.var_by_name("a"), m.var_by_name("b")
        assert math.isinf(a.lb) and math.isinf(a.ub)
        assert b.lb == b.ub == 2.5


class TestRoundTrip:
    def assert_equivalent(self, original: Model) -> None:
        restored = read_mps(mps_string(original))
        solver = get_solver("highs")
        first = solver.solve(original)
        second = solver.solve(restored)
        assert first.status == second.status
        if first.status.has_solution:
            assert first.objective == pytest.approx(second.objective, abs=1e-5)

    def test_simple_milp(self, model):
        self.assert_equivalent(model)

    def test_mps_text_is_a_fixpoint(self, model):
        once = read_mps(mps_string(model))
        assert mps_string(once) == mps_string(read_mps(mps_string(once)))

    def test_sos_example1_model_round_trips(self, ex1_graph, ex1_library):
        from repro.core.formulation import build_sos_model

        built = build_sos_model(ex1_graph, ex1_library)
        self.assert_equivalent(built.model)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_random_models_round_trip(self, seed):
        rng = random.Random(seed)
        model = Model()
        variables = []
        for index in range(rng.randint(2, 6)):
            kind = rng.choice(["c", "b", "i"])
            if kind == "b":
                variables.append(model.add_binary(f"v{index}"))
            elif kind == "i":
                variables.append(
                    model.add_var(f"v{index}", vtype=VarType.INTEGER, ub=rng.randint(1, 9))
                )
            else:
                variables.append(model.add_continuous(f"v{index}", ub=rng.uniform(1, 9)))
        for _ in range(rng.randint(1, 5)):
            expr = sum(rng.randint(-4, 4) * var for var in variables)
            if hasattr(expr, "coeffs") and expr.coeffs:
                sense = rng.choice(["le", "ge", "eq"])
                rhs = rng.randint(-5, 10)
                if sense == "le":
                    model.add(expr <= rhs)
                elif sense == "ge":
                    model.add(expr >= rhs)
                else:
                    model.add(expr == rhs)
        model.minimize(sum(rng.randint(-3, 3) * var for var in variables))
        self.assert_equivalent(model)


class TestCutAugmentedRootCrossCheck:
    """The bozo root cut loop's bound, checked end to end through MPS.

    Solve the paper model with root cuts (node budget 1, no presolve so
    the solver's relaxation equals ``model.relaxed()`` column for
    column), rebuild the cut-augmented relaxation as a plain LP model,
    round-trip it through the MPS codec, and have HiGHS solve the result:
    its optimum must match the post-cut root bound bozo reported in its
    ``cut_round`` events, and must be no looser than the uncut root LP —
    cuts tighten relaxations, never solutions.
    """

    def cross_check(self, model, cut_rounds: int, monkeypatch) -> None:
        from repro.obs.sinks import MemoryTraceSink
        from repro.solvers import bozo
        from repro.solvers.base import SolverOptions
        from tests.conftest import presolve_off

        monkeypatch.setattr(bozo, "CUT_ROUNDS", cut_rounds)
        monkeypatch.setattr(bozo, "STRONG_BRANCH_CANDIDATES", 0)
        sink = MemoryTraceSink()
        solver = bozo.BozoSolver(SolverOptions(node_limit=1, trace=sink))
        with presolve_off():
            solver.solve(model)
        rounds = [e for e in sink.events if e.type == "cut_round"]
        assert rounds, "no cuts separated: the cross-check exercised nothing"
        assert len(solver.last_root_cuts) == sum(
            e.data["added"] for e in rounds
        )

        relaxed = model.relaxed()
        variables = relaxed.variables
        for index, (coeffs, rhs) in enumerate(solver.last_root_cuts):
            assert len(coeffs) == len(variables)
            expr = sum(
                float(c) * var for c, var in zip(coeffs, variables) if c
            )
            relaxed.add(expr <= rhs, name=f"cut{index}")

        restored = read_mps(mps_string(relaxed))
        highs = get_solver("highs")
        augmented = highs.solve(restored)
        uncut = highs.solve(model.relaxed())
        assert augmented.status.has_solution
        assert augmented.objective == pytest.approx(
            rounds[-1].data["bound_after"], abs=1e-6
        )
        assert augmented.objective >= uncut.objective - 1e-6

    def test_example1(self, ex1_graph, ex1_library, monkeypatch):
        from repro.core.formulation import build_sos_model

        built = build_sos_model(ex1_graph, ex1_library)
        self.cross_check(built.model, cut_rounds=5, monkeypatch=monkeypatch)

    def test_example2(self, ex2_graph, ex2_library, monkeypatch):
        # One separation round: Example 2's root LP alone takes tens of
        # seconds cold, and one round already exercises the whole
        # separate -> append -> re-solve -> export pipeline.
        from repro.core.formulation import build_sos_model

        built = build_sos_model(ex2_graph, ex2_library)
        self.cross_check(built.model, cut_rounds=1, monkeypatch=monkeypatch)
