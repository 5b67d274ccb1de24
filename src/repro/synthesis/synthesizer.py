"""High-level synthesis driver.

:class:`Synthesizer` wraps the whole SOS flow — build the §3.3 MILP, solve
it, extract and validate the design — and implements the paper's
experimental methodology: sweeping a designer cost cap while minimizing
completion time to enumerate the non-inferior (Pareto) designs of §4.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional

from repro.core.formulation import SosModel, SosModelBuilder
from repro.core.options import FormulationOptions, Objective
from repro.errors import InfeasibleError, SynthesisError
from repro.milp.solution import SolveStats, SolveStatus
from repro.obs.sinks import make_tracer
from repro.solvers.base import SolverOptions
from repro.solvers.registry import get_solver
from repro.synthesis.design import Design
from repro.synthesis.front import ParetoFront
from repro.system.interconnect import InterconnectStyle
from repro.system.library import TechnologyLibrary
from repro.taskgraph.graph import TaskGraph


class Synthesizer:
    """Synthesizes optimal application-specific multiprocessor systems.

    A synthesizer builds the §3.3 MILP once, at its first solve, and
    re-targets that one model for every later solve: it sets the designer
    cost cap and deadline rows and swaps the objective, which is all that
    differs between the two solves of a design and between the steps of
    a sweep.  Every solve exports exactly the matrices a fresh build with
    that solve's options would give, so answers do not depend on what the
    synthesizer solved before.

    A synthesizer owns that mutable model, so it is not thread-safe: use
    one per thread, request or study point.

    Example:
        >>> from repro.taskgraph import example1
        >>> from repro.system import example1_library
        >>> synth = Synthesizer(example1(), example1_library())
        >>> design = synth.synthesize()          # fastest system, any cost
        >>> front = synth.pareto_sweep()         # all non-inferior systems
        >>> design.makespan <= front[-1].makespan  # fronts are fastest-first
        True
        >>> len(front) == len(front.designs) == len(front.caps)
        True

    Args:
        graph: Application task data-flow graph.
        library: Technology library (processor types, delays, link cost).
        style: Interconnect style to synthesize for.
        solver: Backend name (``"auto"``, ``"highs"``, ``"bozo"``).
        solver_options: Options forwarded to the backend.
        options: Base formulation options; per-call arguments override the
            ``cost_cap``/``deadline``/``objective`` fields.
        constraints: Arbitrary designer constraints (§3.3.2), applied
            once, to the model this synthesizer builds at its first solve.
    """

    def __init__(
        self,
        graph: TaskGraph,
        library: TechnologyLibrary,
        style: InterconnectStyle = InterconnectStyle.POINT_TO_POINT,
        solver: str = "auto",
        solver_options: Optional[SolverOptions] = None,
        options: Optional[FormulationOptions] = None,
        constraints: Optional["DesignerConstraints"] = None,
    ) -> None:
        self.graph = graph
        self.library = library
        base = options or FormulationOptions()
        self.base_options = dataclasses.replace(base, style=style)
        self.solver_name = solver
        self.solver_options = solver_options
        self.constraints = constraints
        #: Total solver wall-clock seconds spent by this synthesizer.
        self.total_solve_seconds = 0.0
        #: The model, built at the first solve and re-targeted since.
        self.last_model: Optional[SosModel] = None
        #: Merged solver telemetry of the most recent ``synthesize`` call.
        self.last_stats: Optional[SolveStats] = None
        #: Solver telemetry accumulated over this synthesizer's lifetime.
        self.total_stats = SolveStats()

    # -- single designs ---------------------------------------------------------
    def synthesize(
        self,
        *,
        cost_cap: Optional[float] = None,
        deadline: Optional[float] = None,
        objective: Objective = Objective.MIN_MAKESPAN,
        minimize_secondary: bool = True,
        validate: bool = True,
        cache: Optional["ResultCache"] = None,
    ) -> Design:
        """Produce one optimal design.

        All arguments are keyword-only: the stable public API (see
        ``docs/api.md``) reserves the right to add parameters without
        breaking positional callers.

        Args:
            cost_cap: Designer constraint ``total cost <= cost_cap``.
            deadline: Designer constraint ``T_F <= deadline``.
            objective: Primary goal (min makespan or min cost).
            minimize_secondary: After optimizing the primary goal, run a
                second solve that optimizes the other axis subject to the
                primary optimum — so a min-makespan design is also the
                *cheapest* system achieving that makespan (this is the
                design the paper's tables report).
            validate: Re-check the design with the independent validator.
            cache: Optional :class:`~repro.service.cache.ResultCache`.
                The request is content-fingerprinted
                (:mod:`repro.service.fingerprint`); a hit returns the
                stored design without building or solving any model, a
                miss solves normally and stores the result.  The same
                keys are used by the job service, so entries are shared.

        Raises:
            InfeasibleError: When no system satisfies the constraints.
            SynthesisError: On extraction/validation failures.
        """
        cache_key: Optional[str] = None
        if cache is not None:
            cache_key = self._fingerprint(
                "synthesize", cost_cap=cost_cap, deadline=deadline,
                objective=objective, minimize_secondary=minimize_secondary,
            )
            hit = cache.get_design(cache_key, self.graph, self.library)
            if hit is not None:
                return hit
        options = dataclasses.replace(
            self.base_options,
            cost_cap=cost_cap,
            deadline=deadline,
            objective=objective,
        )
        built, solution = self._solve(options)
        primary_seconds = solution.solve_seconds
        primary_stats = solution.stats

        if minimize_secondary and objective is not Objective.WEIGHTED:
            # A weighted optimum already encodes its tradeoff; refining it
            # along either single axis would change the chosen point.
            if objective is Objective.MIN_MAKESPAN:
                refined = dataclasses.replace(
                    options,
                    objective=Objective.MIN_COST,
                    deadline=self._tightened(solution.objective),
                )
            else:
                cost_now = built.cost_expr.evaluate(solution.values)
                refined = dataclasses.replace(
                    options,
                    objective=Objective.MIN_MAKESPAN,
                    cost_cap=self._tightened(cost_now),
                )
            built, solution = self._solve(refined)
            # Account for both solves without mutating the Solution the
            # backend returned (callers may hold a reference to it).
            merged = SolveStats()
            if primary_stats is not None:
                merged.merge(primary_stats)
            if solution.stats is not None:
                merged.merge(solution.stats)
            solution = dataclasses.replace(
                solution,
                solve_seconds=solution.solve_seconds + primary_seconds,
                stats=merged,
            )
        self.last_stats = solution.stats

        # Imported here: repro.core.extraction needs the Design class, so a
        # module-level import would be circular through the package inits.
        from repro.core.extraction import extract_design
        from repro.core.polish import left_shift

        solution = left_shift(built, solution)
        design = extract_design(built, solution)
        if validate:
            problems = design.violations()
            if problems:
                raise SynthesisError(
                    "internal error: synthesized design fails independent "
                    "validation:\n  " + "\n  ".join(problems)
                )
        if cache is not None and cache_key is not None:
            cache.put_design(cache_key, design)
        return design

    def _fingerprint(self, kind: str, **params) -> str:
        """Content address of a request against this synthesizer's config.

        Shares the key space with :mod:`repro.service.jobs`, so designs
        solved through the HTTP service and through this API hit each
        other's cache entries.  Imported lazily: the service layer sits
        above synthesis and must not be a hard dependency of it.
        """
        from repro.service.fingerprint import fingerprint_request

        return fingerprint_request(
            kind, self.graph, self.library,
            solver=self.solver_name, solver_options=self.solver_options,
            formulation=self.base_options, constraints=self.constraints,
            **params,
        )

    def sweep_fingerprint(
        self, *, max_designs: int = 64, cost_step: float = 1e-4
    ) -> str:
        """The content address :meth:`pareto_sweep` caches under.

        Exactly the key a ``pareto_sweep(max_designs=..., cost_step=...,
        cache=...)`` call on this synthesizer would use — exposed so
        orchestration layers (the job service, :mod:`repro.dse`) can ask
        "is this sweep already solved?" without running it.
        """
        return self._fingerprint(
            "sweep", max_designs=max_designs, cost_step=cost_step
        )

    @staticmethod
    def _tightened(value: float) -> float:
        """A bound equal to an achieved optimum, padded for solver tolerance."""
        return value + 1e-6 * max(1.0, abs(value))

    def _model_for(self, options: FormulationOptions) -> SosModel:
        """The model for one solve: built on first use, re-targeted after."""
        built = self.last_model
        if built is None:
            built = SosModelBuilder(self.graph, self.library, options).build()
            if self.constraints is not None and not self.constraints.is_empty():
                self.constraints.apply(built)
            self.last_model = built
        else:
            built.retarget(
                cost_cap=options.cost_cap,
                deadline=options.deadline,
                objective=options.objective,
            )
        return built

    def _solve(self, options: FormulationOptions):
        built = self._model_for(options)
        backend = get_solver(self.solver_name, self.solver_options)
        solution = backend.solve(built.model)
        self.total_solve_seconds += solution.solve_seconds
        if solution.stats is not None:
            self.total_stats.merge(solution.stats)
        if solution.status is SolveStatus.INFEASIBLE:
            raise InfeasibleError(
                f"no feasible system exists (cost_cap={options.cost_cap}, "
                f"deadline={options.deadline}, style={options.style.value})"
            )
        if not solution.status.has_solution:
            raise SynthesisError(
                f"solver {solution.solver_name!r} returned {solution.status.value} "
                f"without a usable solution (try a larger time limit)"
            )
        return built, solution

    def _sweep_tracer(self):
        """Tracer over the configured trace sink (``None`` when untraced)."""
        sink = self.solver_options.trace if self.solver_options else None
        return make_tracer(sink)

    # -- the paper's methodology: sweep the cost cap ------------------------------
    def pareto_sweep(
        self,
        *,
        max_designs: int = 64,
        cost_step: float = 1e-4,
        validate: bool = True,
        cache: Optional["ResultCache"] = None,
    ) -> ParetoFront:
        """Enumerate all non-inferior designs, fastest first.

        This reproduces §4's procedure ("generated by changing the
        constraint value for the total cost of the system, and optimizing
        the overall performance"): first synthesize the fastest system at
        any cost, then repeatedly cap the cost just below the previous
        design's and re-optimize, until the cap is infeasible.

        Every returned design is non-inferior: each solve minimizes
        makespan under the cap and then minimizes cost at that makespan, so
        successive designs are strictly cheaper and strictly slower.  Each
        step depends only on the previous design's cost, so the front for
        ``max_designs=k`` is the first ``k`` designs of any deeper sweep.

        The whole sweep solves one model: each step re-targets the
        synthesizer's model (new cap, deadline row and objective) rather
        than building another, and gets the same matrices a fresh build
        would.

        Args:
            max_designs: Safety bound on the front size.
            cost_step: How far below the previous cost the next cap sits
                (any value smaller than the cost granularity is exact).
                Must be finite and positive.
            validate: Independently validate every design.
            cache: Optional :class:`~repro.service.cache.ResultCache`.
                A hit returns the stored front without solving anything; a
                miss sweeps normally and stores the whole front under the
                request's content fingerprint (shared with the service).

        Returns:
            A :class:`~repro.synthesis.front.ParetoFront` — iterates and
            indexes exactly like the ``List[Design]`` this method used to
            return, and additionally carries the per-design cost caps and
            the sweep's merged solver telemetry.

        Raises:
            ValueError: When ``cost_step`` is not finite and positive.
            SynthesisError: When the first step is already infeasible.
        """
        _check_step("cost_step", cost_step)
        cache_key: Optional[str] = None
        if cache is not None:
            cache_key = self._fingerprint(
                "sweep", max_designs=max_designs, cost_step=cost_step
            )
            hit = cache.get_front(cache_key, self.graph, self.library)
            if hit is not None:
                return hit
        tracer = self._sweep_tracer()
        sweep_stats = SolveStats()
        front: List[Design] = []
        caps: List[Optional[float]] = []
        cap: Optional[float] = None
        while len(front) < max_designs:
            try:
                design = self.synthesize(cost_cap=cap, validate=validate)
            except InfeasibleError:
                if tracer is not None:
                    tracer.emit(
                        "sweep_step", index=len(front), kind="canonical",
                        feasible=False,
                    )
                break
            front.append(design)
            caps.append(cap)
            if self.last_stats is not None:
                sweep_stats.merge(self.last_stats)
            if tracer is not None:
                tracer.emit(
                    "sweep_step", index=len(front) - 1, kind="canonical",
                    feasible=True,
                )
            cap = design.cost - cost_step
            if cap < 0:
                break
        if not front:
            raise SynthesisError(
                "pareto sweep produced no designs (infeasible instance?)"
            )
        result = ParetoFront(front, caps=caps, stats=sweep_stats)
        if cache is not None and cache_key is not None:
            cache.put_front(cache_key, result)
        return result

    def pareto_sweep_by_deadline(
        self,
        *,
        max_designs: int = 64,
        time_step: float = 1e-4,
        validate: bool = True,
    ) -> ParetoFront:
        """Enumerate the non-inferior designs from the other axis.

        The dual of :meth:`pareto_sweep`: start from the cheapest system at
        any speed, then repeatedly demand completion strictly faster than
        the previous design and re-minimize cost, until no system is fast
        enough.  Returns the front cheapest-first (the reverse order of
        :meth:`pareto_sweep`); the two sweeps find the same front, which
        the test suite asserts.  Like :meth:`pareto_sweep`, every step
        re-targets the synthesizer's one model.

        Args:
            max_designs: Safety bound on the front size.
            time_step: How far below the previous makespan the next
                deadline sits.  Must be finite and positive.
            validate: Independently validate every design.

        Returns:
            A :class:`~repro.synthesis.front.ParetoFront` whose ``caps``
            hold the deadline used for each design (``None`` for the
            unconstrained first solve).

        Raises:
            ValueError: When ``time_step`` is not finite and positive.
            SynthesisError: When the first step is already infeasible.
        """
        _check_step("time_step", time_step)
        tracer = self._sweep_tracer()
        sweep_stats = SolveStats()
        front: List[Design] = []
        caps: List[Optional[float]] = []
        deadline: Optional[float] = None
        while len(front) < max_designs:
            try:
                design = self.synthesize(
                    deadline=deadline, objective=Objective.MIN_COST,
                    validate=validate,
                )
            except InfeasibleError:
                if tracer is not None:
                    tracer.emit(
                        "sweep_step", index=len(front), kind="canonical",
                        feasible=False,
                    )
                break
            front.append(design)
            caps.append(deadline)
            if self.last_stats is not None:
                sweep_stats.merge(self.last_stats)
            if tracer is not None:
                tracer.emit(
                    "sweep_step", index=len(front) - 1, kind="canonical",
                    feasible=True,
                )
            deadline = design.makespan - time_step
            if deadline <= 0:
                break
        if not front:
            raise SynthesisError(
                "deadline sweep produced no designs (infeasible instance?)"
            )
        return ParetoFront(front, caps=caps, stats=sweep_stats)


def _check_step(name: str, step: float) -> None:
    """A sweep step must move the bound: finite and strictly positive.

    Zero would re-solve the same cap until ``max_designs`` copies pile up,
    and NaN would end the sweep after one design as if the front were
    complete.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"{name} must be finite and positive, got {step!r}")


#: Keyword arguments of :func:`synthesize` that configure the
#: :class:`Synthesizer` itself rather than the single solve.
_CONSTRUCTOR_KEYS = frozenset(
    {"style", "solver", "solver_options", "options", "constraints"}
)


def synthesize(graph: TaskGraph, library: TechnologyLibrary, **opts) -> Design:
    """Synthesize one optimal design in a single call.

    The convenience entrypoint (also exported as ``repro.synthesize``)
    for callers who do not need to hold a :class:`Synthesizer` across
    several solves.  Keyword arguments are split automatically:
    configuration keys (``style``, ``solver``, ``solver_options``,
    ``options``, ``constraints``) go to the
    :class:`Synthesizer` constructor, everything else (``cost_cap``,
    ``deadline``, ``objective``, ``minimize_secondary``, ``validate``,
    ``cache``) to :meth:`Synthesizer.synthesize`.

    Example::

        import repro
        design = repro.synthesize(graph, library, cost_cap=10.0, solver="bozo")

    Returns:
        The optimal :class:`~repro.synthesis.design.Design`.
    """
    constructor = {k: v for k, v in opts.items() if k in _CONSTRUCTOR_KEYS}
    call = {k: v for k, v in opts.items() if k not in _CONSTRUCTOR_KEYS}
    return Synthesizer(graph, library, **constructor).synthesize(**call)
