"""Self-time subtraction and wrapper installation."""

import importlib

from sosbench import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    recorder = tracing.SpanRecorder(clock)
    recorder.active = True

    def leaf():
        clock.spend(2.0)

    def middle():
        clock.spend(1.0)
        recorder.call("milp", leaf)
        clock.spend(0.5)

    def root():
        clock.spend(0.25)
        recorder.call("highs", middle)
        recorder.call("milp", leaf)

    recorder.call(tracing.ROOT_LAYER, root)
    assert recorder.self_s["milp"] == 4.0
    assert recorder.self_s["highs"] == 1.5
    assert recorder.self_s[tracing.ROOT_LAYER] == 0.25
    assert recorder.inclusive_s[tracing.ROOT_LAYER] == 5.75
    assert sum(recorder.self_s.values()) == recorder.inclusive_s[tracing.ROOT_LAYER]
    assert tracing.unaccounted_share(recorder) == 0.0


def test_same_layer_nesting_is_counted_once():
    # solve_with_fallback calling solve_revised: both are "revised".
    clock = FakeClock()
    recorder = tracing.SpanRecorder(clock)
    recorder.active = True

    def inner():
        clock.spend(3.0)
        return "basis"

    def outer():
        clock.spend(1.0)
        return recorder.call("revised", inner)

    assert recorder.call("revised", outer) == "basis"
    assert recorder.self_s["revised"] == 4.0
    assert recorder.inclusive_s["revised"] == 4.0
    assert recorder.calls["revised"] == 2


def test_inactive_recorder_records_nothing():
    recorder = tracing.SpanRecorder(FakeClock())
    assert recorder.call("highs", lambda: 7) == 7
    assert not recorder.calls


def test_wrappers_reach_every_caller_and_are_restored():
    bozo = importlib.import_module("repro.solvers.bozo")
    revised = importlib.import_module("repro.solvers.revised")
    presolve = importlib.import_module("repro.solvers.presolve")
    solvers = importlib.import_module("repro.solvers")
    original_fallback = revised.solve_with_fallback
    original_presolve = presolve.presolve
    original_build = importlib.import_module("repro.core.formulation").SosModelBuilder.build
    with tracing.installed(tracing.SpanRecorder()):
        # bozo imported the name: its own binding must be the wrapper too.
        assert bozo.solve_with_fallback is revised.solve_with_fallback
        assert bozo.solve_with_fallback is not original_fallback
        assert bozo.separate_gomory.__sosbench_original__ is not None
        assert presolve.presolve.__sosbench_original__ is original_presolve
        assert solvers.presolve is presolve.presolve
    assert revised.solve_with_fallback is original_fallback
    assert bozo.solve_with_fallback is original_fallback
    assert presolve.presolve is original_presolve
    assert importlib.import_module(
        "repro.core.formulation").SosModelBuilder.build is original_build


def test_traced_solve_accounts_for_the_op():
    import repro

    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        recorder.active = True
        design = recorder.call(
            tracing.ROOT_LAYER, repro.synthesize, repro.example1(),
            repro.example1_library(), solver="bozo", cost_cap=5.5,
        )
        recorder.active = False
    assert (design.cost, design.makespan) == (5.0, 7.0)
    for layer in ("formulation", "milp", "presolve", "revised", "bozo",
                  "polish", "extraction", "validate"):
        assert recorder.calls[layer] > 0, layer
    assert recorder.calls["highs"] == 0
    assert tracing.unaccounted_share(recorder) < 1e-9
    assert len(recorder.results["bozo"]) == 2  # primary and secondary solve
    assert "highs" not in recorder.results
