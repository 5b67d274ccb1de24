"""Bounded-variable revised simplex with warm starts.

This is the LP engine underneath :mod:`repro.solvers.bozo`, and its only
one: every relaxation branch and bound solves goes through
:func:`solve_revised`.  Branch and bound solves hundreds of LP
relaxations that differ from their parent in exactly one variable bound,
and the Pareto sweep re-solves near-identical LPs with only one
right-hand side moving.  Instead of rebuilding anything per solve, this
module keeps one :class:`StandardFormLP` per MILP and re-solves after
in-place mutations:

* **Standard form** — rows ``A x = b`` with one logical column per row
  (a slack in ``[0, inf)`` for every ``<=`` row, a fixed artificial in
  ``[0, 0]`` for every ``=`` row), structural variables keeping their
  ``lb <= x <= ub`` boxes.
* **Warm starts** — a solve accepts the final :class:`Basis` of a previous
  solve.  After a *bound* change the old basis stays dual feasible, so a
  handful of dual-simplex pivots restore optimality; after an *objective*
  change it stays primal feasible, so primal simplex finishes the job.
* **Cold starts** — the all-logical basis with each structural variable
  parked on a finite bound, driven to feasibility by a bounded-variable
  primal phase 1 (minimize total infeasibility), then phase 2.  The dual
  simplex is reserved for starts with only a few violated basics — the
  warm-start regime where it shines; deeply infeasible starts crawl under
  dual pivoting, so they take the phase-1 route instead.  An LP with no
  rows is answered from the logical basis itself.
* **Verdicts** — the engine certifies OPTIMAL, INFEASIBLE and UNBOUNDED
  on its own.  Infeasibility comes from the dual ratio test (no entering
  column, or an unbounded dual ray) or from a phase-1 optimum with
  residual infeasibility that a fresh factorization confirms; the phase-1
  duals ``y = B^-T w`` are then the Farkas certificate.  What it cannot
  finish reliably (pivot budget, singular basis, residual drift) returns
  :attr:`RevisedStatus.NEEDS_FALLBACK`, and :mod:`repro.solvers.bozo`
  turns that into a loud :class:`~repro.errors.SolverError`.  The dense
  tableau :func:`repro.solvers.simplex.solve_lp` is not a runtime path;
  it stays as the oracle the engine is tested against.
* **Two basis kernels** — bases above :data:`DENSE_KERNEL_MAX` rows are
  factorized by SuperLU, called as ``scipy.sparse.linalg.splu`` calls it,
  on columns gathered from the CSC arrays of the constraint matrix, and
  kept current between refactorizations by an eta file of pivot updates
  whose vectors are stored on their nonzero support
  (:class:`_SparseLUFactor`).  Small bases — the few-row LPs that
  dominate branch-and-bound node throughput — use the explicit dense
  inverse (:class:`_DenseFactor`), which both factorizes and solves
  several times faster below roughly a hundred rows and answers BTRANs of
  unit vectors by a plain row read.
* **Refactorization policy** — instead of a fixed pivot cadence, the
  sparse kernel refactorizes when the eta file's accumulated fill
  (:data:`ETA_FILL_FACTOR` nonzeros per row) or length
  (:data:`ETA_MAX_UPDATES`) makes applying it costlier than a fresh
  factorization, and either kernel refactorizes immediately when the
  pivot element seen from the row (BTRAN) and column (FTRAN) sides
  drifts — a direct numerical-error signal.  A sparse refactorization
  of an ordered basis the form has factorized recently reuses that
  verified factor (:data:`FACTOR_CACHE_SIZE`), bit for bit.
* **Bit-identical shortcuts** — branch and bound on the SOS models
  changes its tree under any last-bit change in an LP answer, so every
  shortcut here reproduces the arithmetic of the plain call it replaces:
  the direct SuperLU call (:func:`_splu`), the CSC arrays taken straight
  from the dense matrix (:meth:`StandardFormLP.csc_arrays`), tableau rows
  over the structural block only (:meth:`StandardFormLP.row_product`),
  and ratio-test signs and basic bounds kept up to date per pivot
  instead of gathered again (:class:`_Engine`).
* **Pricing** — devex reference-framework pricing: the dual loop picks
  the leaving row by weighted violation and the primal loop maintains
  the full reduced-cost vector incrementally, choosing the entering
  column by ``d^2 / weight`` with deterministic (lowest-index)
  tie-breaks.  Weight updates use only quantities the pivot already
  computes.  Primal phase 1, whose gradient changes every pivot,
  reprices from scratch over fixed, index-ordered column blocks scanned
  from a rotating block pointer (models at or below
  :data:`PRICING_SINGLE_BLOCK` columns use one block).  Every rule is
  deterministic, so reruns are byte-identical.
* **Bound-flipping dual ratio test** — the dual loop walks the sorted
  ratio-test breakpoints and *flips* every boxed candidate whose flip
  keeps the dual slope positive, entering only at the blocking
  breakpoint.  On 0/1 scheduling MILPs most candidates sit on a bound,
  so a single dual pivot absorbs what would otherwise be a chain of
  degenerate pivots; flipped columns are folded into one aggregated
  FTRAN.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import warnings
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from scipy.sparse import csc_matrix as _csc_matrix
from scipy.sparse.linalg import splu as _public_splu

from repro.milp.model import MatrixForm

#: Primal feasibility tolerance on variable bounds.
FEAS_TOL = 1e-7
#: Dual feasibility tolerance on reduced costs.
DUAL_TOL = 1e-7
#: Smallest pivot magnitude accepted without refactorizing first.
PIVOT_TOL = 1e-8
#: Dense-kernel pivot cadence (the explicit inverse accumulates rank-one
#: update error, so it refactorizes on a fixed schedule).
REFACTOR_EVERY = 64
#: Consecutive non-improving pivots before switching to Bland's rule.
STALL_LIMIT = 64
#: Column counts up to this threshold are priced as one block by the
#: phase-1 pricer; larger models are priced in blocks of
#: :data:`PRICING_BLOCK` columns.
PRICING_SINGLE_BLOCK = 512
#: Phase-1 pricing block width for models above the single-block cutoff.
PRICING_BLOCK = 256
#: Bases at or below this many rows use the explicit dense inverse; the
#: crossover where ``splu`` beats ``np.linalg.inv`` (and LU solves beat
#: dense matvecs) sits near one hundred rows on SOS-shaped bases.
DENSE_KERNEL_MAX = 96
#: Sparse kernel: refactorize when the eta file holds this many updates.
ETA_MAX_UPDATES = 128
#: Sparse kernel: verified LU factors each form keeps, keyed by the ordered
#: basic columns, so a basis factorized before is not factorized again.
#: Both children of a node start from the parent's final basis, which is
#: where most repeats come from, and two entries catch most of them; each
#: SuperLU object holds ~0.2 MB, so a larger cache costs peak memory.
FACTOR_CACHE_SIZE = 2
#: Sparse kernel: refactorize when accumulated eta nonzeros exceed this
#: many multiples of the row count — the point where applying the eta
#: file rivals the cost of a fresh factorization.
ETA_FILL_FACTOR = 6
#: Relative row-vs-column pivot disagreement that forces a refactorization.
DRIFT_TOL = 1e-7
#: Devex weights above this trigger a reference-framework reset.
DEVEX_RESET_LIMIT = 1e8

#: ``scipy.sparse.linalg.splu``'s own defaults, as it hands them to SuperLU.
_SPLU_OPTIONS = {
    "DiagPivotThresh": None, "ColPerm": None, "PanelSize": None, "Relax": None,
}


def _private_gstrf():
    """SuperLU's ``gstrf`` from SciPy's private module, or ``None`` when
    this SciPy does not accept the call ``splu`` makes (the module moved
    or the signature changed): :func:`_splu` then calls ``splu`` itself."""
    try:
        from scipy.sparse.linalg._dsolve._superlu import gstrf

        one = np.ones(1)
        gstrf(
            1, 1, one, np.zeros(1, dtype=np.intc), np.arange(2, dtype=np.intc),
            csc_construct_func=_csc_matrix, ilu=False, options=_SPLU_OPTIONS,
        ).solve(one)
    except Exception:  # any failure of the probe means "do not use it"
        return None
    return gstrf


#: The ``gstrf`` :func:`_splu` calls, ``None`` to go through ``splu``.
_GSTRF = _private_gstrf()

#: Nonbasic at lower bound.
AT_LB = 0
#: Nonbasic at upper bound.
AT_UB = 1
#: Basic.
BASIC = 2
#: Nonbasic free variable held at zero (only dual feasible when its
#: reduced cost is zero).
AT_FREE = 3


class RevisedStatus(enum.Enum):
    """Outcome of a revised-simplex solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    #: The engine gave up (pivot budget, singular basis or residual
    #: drift).  The name stays because traces carry its value; it is
    #: renamed in 3.0.0.
    NEEDS_FALLBACK = "needs_fallback"


@dataclasses.dataclass
class Basis:
    """A simplex basis: basic column per row plus every column's status.

    Attributes:
        basic: Shape ``(m,)`` — the column index basic in each row.
        status: Shape ``(N,)`` — one of :data:`AT_LB`, :data:`AT_UB`,
            :data:`BASIC`, :data:`AT_FREE` per column.
    """

    basic: np.ndarray
    status: np.ndarray

    def copy(self) -> "Basis":
        """An independent copy (solves mutate their working basis)."""
        return Basis(self.basic.copy(), self.status.copy())


@dataclasses.dataclass
class PivotCounters:
    """Fine-grained work profile of one revised-simplex solve.

    ``iterations`` on :class:`RevisedResult` is the pivot *total*; these
    counters attribute it to the engine's loops, which is what the
    ``lp_solved`` trace event exposes so per-node LP behavior (dual
    repair vs phase-1 restart vs primal optimization) can be profiled
    from a trace alone.

    Attributes:
        dual_pivots: Pivots spent in the warm-start dual repair loop.
        phase1_pivots: Pivots spent restoring primal feasibility.
        primal_pivots: Pivots spent in the optimizing primal loop.
        refactorizations: Times the basis inverse was rebuilt from scratch.
        bound_flips: Nonbasic bound-to-bound moves (dual ratio-test flips
            plus primal/phase-1 full-box steps) that avoided a pivot.
        devex_resets: Devex reference-framework resets, counting the
            initialization of each loop's weights.
        ftran_sparsity: Entering-column FTRAN results whose nonzero count
            stayed at or below half the row count — the hypersparse
            regime where eta updates touch only a slice of the basis.
    """

    dual_pivots: int = 0
    phase1_pivots: int = 0
    primal_pivots: int = 0
    refactorizations: int = 0
    bound_flips: int = 0
    devex_resets: int = 0
    ftran_sparsity: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain mapping form (what the trace event embeds)."""
        return {
            "dual_pivots": self.dual_pivots,
            "phase1_pivots": self.phase1_pivots,
            "primal_pivots": self.primal_pivots,
            "refactorizations": self.refactorizations,
            "bound_flips": self.bound_flips,
            "devex_resets": self.devex_resets,
            "ftran_sparsity": self.ftran_sparsity,
        }


@dataclasses.dataclass
class RevisedResult:
    """Result of :func:`solve_revised`.

    Attributes:
        status: Solve outcome.
        x: Structural-variable values (``None`` unless OPTIMAL).
        objective: ``c @ x + c0`` at the solution (``nan`` otherwise).
        iterations: Simplex pivots performed.
        basis: Final basis for warm-starting the next solve (``None``
            unless OPTIMAL).
        counters: Per-loop pivot attribution (``None`` for results built
            before the engine ran, e.g. trivial infeasibility).
    """

    status: RevisedStatus
    x: Optional[np.ndarray]
    objective: float
    iterations: int
    basis: Optional[Basis]
    counters: Optional[PivotCounters] = None


class _CSCArrays(NamedTuple):
    """A matrix as the canonical CSC arrays SuperLU factorizes."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: Tuple[int, int]


class StandardFormLP:
    """A computational standard form built once per MILP.

    The form is ``minimize c @ x + c0`` over ``A x = b`` with per-column
    boxes ``lo <= x <= up``.  Columns ``0..n-1`` are the caller's
    structural variables; each ``<=`` row then owns a slack column in
    ``[0, inf)`` and each ``=`` row a fixed artificial column in
    ``[0, 0]``, so the logical block is the identity and any basis drawn
    from it is trivially nonsingular.

    Branch and bound mutates only the structural bounds between solves
    (:meth:`set_bounds`); the Pareto machinery may also retarget the
    objective (:meth:`set_objective`).  The matrix itself never changes.
    """

    def __init__(
        self,
        c: np.ndarray,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        a_eq: np.ndarray,
        b_eq: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        c0: float = 0.0,
    ) -> None:
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n) if np.size(a_ub) else np.zeros((0, n))
        a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n) if np.size(a_eq) else np.zeros((0, n))
        b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
        b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
        m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
        m = m_ub + m_eq

        self.n = n
        self.m = m
        self.ncols = n + m
        logical = np.eye(m)
        self.a = np.hstack([np.vstack([a_ub, a_eq]), logical]) if m else np.zeros((0, n))
        self.b = np.concatenate([b_ub, b_eq])
        self.lo = np.concatenate([np.asarray(lb, dtype=float), np.zeros(m)])
        self.up = np.concatenate(
            [np.asarray(ub, dtype=float), np.full(m_ub, np.inf), np.zeros(m_eq)]
        )
        self.cost = np.concatenate([c, np.zeros(m)])
        self.c0 = float(c0)
        self._matrix_changed()

    def _matrix_changed(self) -> None:
        """Drop everything derived from ``a``: its CSC arrays, the factor
        cache and the structural width of :meth:`row_product`.

        The cache of verified basis factors (see :class:`_SparseLUFactor`)
        lives and dies with the matrix it factorized: every change of
        ``a`` goes through here, so no factor outlives its matrix.
        """
        self._csc: Optional[_CSCArrays] = None
        self._factors: Dict[bytes, object] = {}
        width = -(-self.n // 48) * 48
        self._block_width = (
            width if self.m >= self.n + 8 and width <= self.ncols else 0
        )

    def csc_arrays(self) -> _CSCArrays:
        """The CSC arrays of the full constraint matrix, built once.

        They are the arrays ``scipy.sparse.csc_matrix(a)`` holds (column
        by column, rows ascending, zeros dropped, ``intc`` indices), taken
        with two NumPy passes instead of scipy's COO round trip.  The
        sparse LU kernel assembles basis columns from them; everything
        row-oriented (pricing products) stays on the dense ``a``, which
        profiling shows is faster at SOS model sizes.
        """
        if self._csc is None:
            cols, rows = np.nonzero(self.a.T)
            indptr = np.zeros(self.ncols + 1, dtype=np.intc)
            np.cumsum(np.bincount(cols, minlength=self.ncols), out=indptr[1:])
            self._csc = _CSCArrays(
                self.a[rows, cols], rows.astype(np.intc), indptr, self.a.shape
            )
        return self._csc

    def a_csc(self):
        """The constraint matrix as a ``scipy.sparse.csc_matrix`` over
        :meth:`csc_arrays`."""
        csc = self.csc_arrays()
        return _csc_matrix((csc.data, csc.indices, csc.indptr), shape=csc.shape)

    def row_product(self, y: np.ndarray, sparse: bool = True) -> np.ndarray:
        """``y @ a`` over every column, bit for bit as the full product.

        The logical block of ``a`` is the identity, so the product's
        logical part is ``y`` itself and only the structural block needs
        a matrix product: on SOS bases that is under half of the multiply.
        ``sparse`` selects :func:`_row_times_matrix`'s nonzero-rows
        product, otherwise the dense one.

        The structural entries must match the full product's to the last
        bit.  BLAS ``gemv`` sums every output in one order, except the
        last ``width mod 4`` outputs of each thread's share of the output,
        which take a scalar loop with another association.  The product
        therefore runs over the first ``n`` columns rounded up to a
        multiple of 48, which leaves no such tail among them for up to
        four threads (and six), and only while the logical block is wide
        enough (``m >= n + 8``) that the full product's tails fall on
        logical columns too, single threaded or split in two; otherwise
        this is the full product.  The logical columns the rounding takes
        in are overwritten by ``y``.  Only the sign of a zero in the
        logical part can differ, and no comparison or ratio the engine
        takes can see that.
        """
        width = self._block_width
        if not width:
            return _row_times_matrix(y, self.a) if sparse else y @ self.a
        out = np.empty(self.ncols)
        head = out[:width]
        nz = y.nonzero()[0] if sparse else None
        if nz is not None and nz.size * 4 <= y.shape[0]:
            np.matmul(y[nz], self.a[nz, :width], out=head)
        else:
            np.matmul(y, self.a[:, :width], out=head)
        out[self.n:] = y
        return out

    @classmethod
    def from_matrix_form(cls, form: MatrixForm) -> "StandardFormLP":
        """Build the standard form of a model's :class:`MatrixForm`."""
        return cls(form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
                   form.lb, form.ub, c0=form.c0)

    def set_bounds(self, lb: np.ndarray, ub: np.ndarray) -> None:
        """Replace the structural variable boxes in place (O(n), no rebuild)."""
        self.lo[: self.n] = lb
        self.up[: self.n] = ub

    def append_ub_rows(self, rows: np.ndarray, rhs: np.ndarray) -> None:
        """Append ``<=`` rows over the structural columns (cut rows).

        Each new row gets its own slack column in ``[0, inf)`` appended
        after the existing logical block, so the invariant "row ``r``'s
        logical column is ``n + r``" survives: old rows keep their old
        logical indices and new row ``m + i`` owns column ``n + m + i``.
        The cached CSC form (with its factor cache) is invalidated — the
        matrix genuinely changed.  Rows must be
        expressed purely in structural variables (callers substitute
        slacks out first).
        """
        rows = np.asarray(rows, dtype=float).reshape(-1, self.n)
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        k = rows.shape[0]
        if k == 0:
            return
        old_cols = self.ncols
        upper = np.hstack([self.a, np.zeros((self.m, k))])
        lower = np.hstack([rows, np.zeros((k, self.m)), np.eye(k)])
        self.a = np.vstack([upper, lower])
        self.b = np.concatenate([self.b, rhs])
        self.lo = np.concatenate([self.lo, np.zeros(k)])
        self.up = np.concatenate([self.up, np.full(k, np.inf)])
        self.cost = np.concatenate([self.cost, np.zeros(k)])
        self.m += k
        self.ncols = old_cols + k
        self._matrix_changed()

    def set_objective(self, c: np.ndarray, c0: float = 0.0) -> None:
        """Replace the structural objective in place (logicals stay at 0)."""
        self.cost[: self.n] = c
        self.c0 = float(c0)

    def logical_basis(self) -> Basis:
        """The all-logical cold-start basis (trivially nonsingular).

        Every row's logical column is basic.  Each structural column parks
        on the bound matching the sign of its cost when that bound is
        finite (positive cost at the lower bound, negative at the upper) —
        the dual-feasible side — and otherwise on whichever bound exists;
        doubly-unbounded columns start free at zero.  The engine's primal
        phase 1 makes the start usable even when no dual-feasible parking
        exists.
        """
        status = np.empty(self.ncols, dtype=np.int8)
        status[self.n:] = BASIC
        for j in range(self.n):
            cj = self.cost[j]
            lo_ok = math.isfinite(self.lo[j])
            up_ok = math.isfinite(self.up[j])
            if cj > DUAL_TOL:
                status[j] = AT_LB if lo_ok else (AT_UB if up_ok else AT_FREE)
            elif cj < -DUAL_TOL:
                status[j] = AT_UB if up_ok else (AT_LB if lo_ok else AT_FREE)
            elif lo_ok:
                status[j] = AT_LB
            elif up_ok:
                status[j] = AT_UB
            else:
                status[j] = AT_FREE
        basic = self.n + np.arange(self.m, dtype=int)
        return Basis(basic, status)


def extend_basis(basis: Basis, sf: StandardFormLP, added: int) -> Basis:
    """Extend an optimal basis of the pre-append form after ``append_ub_rows``.

    The ``added`` new slack columns become basic in their own rows.  The
    extended basis matrix is block triangular (old basis, identity block),
    so it is nonsingular, and with zero-cost slacks the old reduced costs
    are unchanged — the start stays *dual* feasible and a short dual-simplex
    repair drives the violated cut rows back into their boxes.
    """
    new_rows = sf.m - added + np.arange(added, dtype=int)
    basic = np.concatenate([basis.basic, sf.n + new_rows])
    status = np.concatenate(
        [basis.status, np.full(added, BASIC, dtype=basis.status.dtype)]
    )
    return Basis(basic, status)


def _pick_factor(sf: StandardFormLP):
    """Kernel selection: dense inverse for small bases, sparse LU above."""
    if sf.m > DENSE_KERNEL_MAX:
        return _SparseLUFactor(sf)
    return _DenseFactor(sf)


def _row_times_matrix(y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``y @ a`` exploiting a sparse ``y``: sum only its nonzero rows.

    BTRANs of unit vectors are frequently hypersparse; when fewer than a
    quarter of the entries are nonzero, restricting the product to those
    rows beats the full dense GEMV.
    """
    nz = y.nonzero()[0]
    if nz.size * 4 <= y.shape[0]:
        return y[nz] @ a[nz]
    return y @ a


class _DenseFactor:
    """Explicit-inverse basis kernel for small bases.

    Keeps ``B^{-1}`` as a dense matrix and applies the classic
    product-form update after each pivot.  Below roughly a hundred rows
    this both refactorizes and solves faster than the sparse LU — and a
    BTRAN of a unit vector is a plain row read of the inverse, which the
    dual loop and the cut separator lean on heavily.
    """

    def __init__(self, sf: StandardFormLP) -> None:
        self.sf = sf
        self.b_inv: Optional[np.ndarray] = None
        self.updates = 0

    def refactor(self, basic: np.ndarray) -> bool:
        """Rebuild the inverse from scratch; ``False`` if singular."""
        self.updates = 0
        try:
            self.b_inv = np.linalg.inv(self.sf.a[:, basic])
        except np.linalg.LinAlgError:
            return False
        return bool(np.all(np.isfinite(self.b_inv)))

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``B x = rhs``."""
        return self.b_inv @ rhs

    def ftran_column(self, j: int) -> np.ndarray:
        """Solve ``B x = A[:, j]`` (the entering-column FTRAN)."""
        return self.b_inv @ self.sf.a[:, j]

    def btran(self, u: np.ndarray) -> np.ndarray:
        """Solve ``y B = u`` (equivalently ``B^T y^T = u^T``)."""
        return u @ self.b_inv

    def btran_unit(self, i: int) -> np.ndarray:
        """Solve ``y B = e_i`` — row ``i`` of the explicit inverse."""
        return self.b_inv[i]

    def update(self, row: int, w: np.ndarray) -> None:
        """Product-form update after ``w = ftran(entering column)`` pivots
        into ``row``."""
        pivot = w[row]
        self.b_inv[row] /= pivot
        others = w.copy()
        others[row] = 0.0
        self.b_inv -= np.outer(others, self.b_inv[row])
        self.updates += 1

    def should_refactor(self) -> bool:
        """Fixed cadence: rank-one updates accumulate error linearly."""
        return self.updates >= REFACTOR_EVERY


def _basis_csc(csc, basic: np.ndarray) -> _CSCArrays:
    """The basis matrix ``A[:, basic]`` gathered straight from CSC arrays.

    Yields the same ``indptr``/``indices``/``data`` as scipy's column
    fancy indexing (hence the same LU) without its ``__getitem__``
    overhead or a ``csc_matrix`` to validate.
    """
    starts = csc.indptr[basic]
    lengths = csc.indptr[basic + 1] - starts
    indptr = np.zeros(basic.size + 1, dtype=csc.indptr.dtype)
    np.cumsum(lengths, out=indptr[1:])
    take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
    return _CSCArrays(
        csc.data[take], csc.indices[take], indptr, (csc.shape[0], basic.size)
    )


def _splu(basis: _CSCArrays):
    """``scipy.sparse.linalg.splu`` of a gathered basis, minus its wrapper.

    Calls SuperLU's ``gstrf`` exactly as ``splu`` does with its default
    options.  ``splu`` would first validate a ``csc_matrix``, sum
    duplicates and cast the indices to ``intc``; the gathered arrays are
    canonical with ``intc`` indices already, so the factor is the one
    ``splu`` returns, bit for bit.  Where SciPy does not expose ``gstrf``
    that way (:func:`_private_gstrf`) this is ``splu`` itself.  Raises
    ``RuntimeError`` on an exactly singular basis, as ``splu`` does.
    """
    if _GSTRF is None:
        return _public_splu(
            _csc_matrix((basis.data, basis.indices, basis.indptr), shape=basis.shape)
        )
    return _GSTRF(
        basis.shape[1], basis.data.size, basis.data, basis.indices,
        basis.indptr, csc_construct_func=_csc_matrix, ilu=False,
        options=_SPLU_OPTIONS,
    )


class _SparseLUFactor:
    """Sparse-LU basis kernel: SuperLU of the CSC basis plus an eta file.

    A refactorization gathers the basic columns from the form's cached
    CSC arrays and LU-factorizes them (:func:`_splu`), unless the form's
    factor cache already holds a verified factor of the same ordered
    basis: the factorization is deterministic, so reusing it returns
    bit-identical solves.  The
    cache holds at most :data:`FACTOR_CACHE_SIZE` factors (least recently
    used goes first) and never a singular or non-finite one.  Each pivot
    appends one eta vector stored on its nonzero support — ``(row,
    support, values, w[row])`` with ``w = ftran(entering column)``
    captured *before* the update — so applying an eta touches only the
    rows the pivot actually changed.
    FTRAN applies the etas oldest-first after the LU solve, BTRAN
    newest-first before the transposed solve.  :meth:`should_refactor`
    bounds the eta file by accumulated fill rather than a fixed count:
    hypersparse pivots let the file grow long, dense ones force an early
    rebuild.
    """

    def __init__(self, sf: StandardFormLP) -> None:
        self.sf = sf
        self.lu = None
        self.etas: List[Tuple[int, np.ndarray, np.ndarray, float]] = []
        self.fill = 0
        self._csc: Optional[_CSCArrays] = None
        self._rhs_scratch = np.zeros(sf.m)

    def refactor(self, basic: np.ndarray) -> bool:
        """Factorize the basis afresh (or reuse its cached factor) and
        clear the eta file; ``False`` means singular."""
        self.etas.clear()
        self.fill = 0
        sf = self.sf
        self._csc = sf.csc_arrays()
        cache = sf._factors
        key = basic.tobytes()
        lu = cache.pop(key, None)
        if lu is None:
            try:
                lu = _splu(_basis_csc(self._csc, basic))
            except RuntimeError:  # "Factor is exactly singular"
                return False
            if not np.all(np.isfinite(lu.solve(np.ones(sf.m)))):
                return False
        cache[key] = lu  # most recently used last
        if len(cache) > FACTOR_CACHE_SIZE:
            del cache[next(iter(cache))]
        self.lu = lu
        return True

    def _apply_etas(self, x: np.ndarray) -> np.ndarray:
        """Bring an LU solve up to date: the eta file oldest-first."""
        for row, support, values, w_row in self.etas:
            pivot = x[row] / w_row
            if pivot != 0.0:
                x[support] -= values * pivot
                x[row] = pivot
        return x

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``B x = rhs`` through the LU factors, then the eta file."""
        return self._apply_etas(self.lu.solve(np.asarray(rhs, dtype=float)))

    def ftran_column(self, j: int) -> np.ndarray:
        """Solve ``B x = A[:, j]`` from the CSC column, allocation-light.

        The unit-ish RHS is scattered into a preallocated scratch vector
        (zeroed on its previous support), so fetching a column never
        materializes a dense slice of ``A``.
        """
        csc = self._csc
        start, stop = csc.indptr[j], csc.indptr[j + 1]
        rows = csc.indices[start:stop]
        scratch = self._rhs_scratch
        scratch[rows] = csc.data[start:stop]
        x = self.lu.solve(scratch)
        scratch[rows] = 0.0
        return self._apply_etas(x)

    def _transposed_solve(self, u: np.ndarray) -> np.ndarray:
        """``y B = u`` for a writable ``u``: eta file newest-first, then
        ``L U`` transposed."""
        for row, support, values, w_row in reversed(self.etas):
            u[row] += (u[row] - u[support] @ values) / w_row
        return self.lu.solve(u, trans="T")

    def btran(self, u: np.ndarray) -> np.ndarray:
        """Solve ``y B = u``."""
        return self._transposed_solve(np.array(u, dtype=float))

    def btran_unit(self, i: int) -> np.ndarray:
        """Solve ``y B = e_i``."""
        u = np.zeros(self.sf.m)
        u[i] = 1.0
        return self._transposed_solve(u)

    def update(self, row: int, w: np.ndarray) -> None:
        """Append one eta vector (on its nonzero support) for the pivot of
        ``w`` into ``row``."""
        support = w.nonzero()[0]
        self.etas.append((row, support, w[support], float(w[row])))
        self.fill += support.size

    def should_refactor(self) -> bool:
        """Fill-driven policy: rebuild when applying the eta file rivals
        the cost of a fresh factorization."""
        return (
            len(self.etas) >= ETA_MAX_UPDATES
            or self.fill >= ETA_FILL_FACTOR * self.sf.m
        )


class TableauAccess:
    """Read rows of the simplex tableau ``B^{-1} A`` at a given basis.

    The Gomory separator needs the tableau row of each fractional basic
    variable.  This refactorizes the basis once (reusing the engine's
    dense/sparse kernels) and answers each row with one unit-vector BTRAN
    plus :meth:`StandardFormLP.row_product` — no simplex state is touched,
    and every row in a cut round rides the same factorization.
    """

    def __init__(self, sf: StandardFormLP, basis: Basis) -> None:
        self.sf = sf
        self.basis = basis
        self.factor = _pick_factor(sf)
        self.ok = self.factor.refactor(basis.basic)

    def row(self, i: int) -> np.ndarray:
        """Tableau row ``i`` over all columns: ``(B^{-1} A)[i, :]``."""
        return self.sf.row_product(self.factor.btran_unit(i))


def solve_revised(
    sf: StandardFormLP,
    basis: Optional[Basis] = None,
    max_iterations: int = 20_000,
) -> RevisedResult:
    """Solve ``sf``, optionally warm-starting from a previous basis.

    Args:
        sf: The standard form (possibly mutated since the basis was made).
        basis: Final basis of a previous solve of the *same* form; the
            input is copied, never mutated.  ``None`` means cold start
            from the all-logical basis.
        max_iterations: Pivot budget; exceeding it yields NEEDS_FALLBACK.

    Returns:
        A :class:`RevisedResult`; on OPTIMAL its ``basis`` warm-starts the
        next solve after further mutations.
    """
    if np.any(sf.lo > sf.up + FEAS_TOL):
        return RevisedResult(RevisedStatus.INFEASIBLE, None, math.nan, 0, None)
    warm = basis is not None
    if basis is None:
        basis = sf.logical_basis()
    return _Engine(sf, basis.copy(), max_iterations, warm=warm).run()


def solve_with_fallback(
    sf: StandardFormLP,
    basis: Optional[Basis] = None,
    max_iterations: int = 20_000,
) -> Tuple[RevisedResult, Optional[Basis], bool]:
    """Deprecated: call :func:`solve_revised`.

    The dense fallback is gone, so this only keeps the old call shape:
    it warns and returns ``(solve_revised(...), its basis, False)``.
    Removed in 3.0.0.
    """
    warnings.warn(
        "solve_with_fallback is deprecated and has no fallback; "
        "call solve_revised",
        DeprecationWarning,
        stacklevel=2,
    )
    result = solve_revised(sf, basis, max_iterations=max_iterations)
    return result, result.basis, False


class _Engine:
    """One revised-simplex solve: state, pivots, and the pivot rules.

    Besides the basis, the engine keeps what every pivot would otherwise
    gather again from it: the boxes of the basic variables (``lo_b``,
    ``up_b``) and each column's ratio-test sign (``sign``: ``+1`` for a
    movable column at its lower bound, ``-1`` at its upper bound, ``0``
    for basic, fixed and free columns).  Boxes do not change during a
    solve, so both are updated in place at each status change
    (:meth:`_set_status`, :meth:`_swap`) and always equal a fresh gather.
    """

    def __init__(
        self,
        sf: StandardFormLP,
        basis: Basis,
        max_iterations: int,
        warm: bool = False,
    ) -> None:
        self.sf = sf
        self.basic = basis.basic
        self.status = basis.status
        self.max_iterations = max_iterations
        self.warm = warm
        self.iterations = 0
        self.counters = PivotCounters()
        self.factor = _pick_factor(sf)
        # Dual devex row weights engage only on bases large enough for the
        # reference framework to mature: weights reset at every dual loop,
        # so on the few-pivot warm repairs of small bases they never move
        # far from 1 and only add noise to the (otherwise max-violation)
        # row choice.  The primal loop keeps devex at every size — cold
        # starts run long enough for the framework to pay off.
        self.devex_rows = sf.m > DENSE_KERNEL_MAX
        self.x_basic: Optional[np.ndarray] = None
        self.span = sf.up - sf.lo
        # Columns that can never move: fixed boxes (includes eq artificials).
        self.fixed = np.isfinite(sf.lo) & np.isfinite(sf.up) & (self.span <= FEAS_TOL)
        self.lo_b = sf.lo[self.basic]
        self.up_b = sf.up[self.basic]
        status = self.status
        self.sign = np.where(
            self.fixed, 0.0,
            np.where(status == AT_LB, 1.0, np.where(status == AT_UB, -1.0, 0.0)),
        )
        #: Whether some column may be nonbasic free (checked apart from
        #: ``sign``, since a free column is eligible in both directions).
        self.free = bool(np.any(status == AT_FREE))
        width = sf.ncols if sf.ncols <= PRICING_SINGLE_BLOCK else PRICING_BLOCK
        self._blocks = [
            (start, min(start + width, sf.ncols))
            for start in range(0, sf.ncols, width)
        ]
        self._pblock = 0  # rotating pointer: block where phase 1 prices first
        # Preallocated scratch: the primal ratio test and devex weights
        # reuse these for the life of the solve.
        self._steps = np.empty(sf.m)
        self._row_weights = np.ones(sf.m)
        self._col_weights = np.ones(sf.ncols)

    # -- linear algebra -----------------------------------------------------
    def refactor(self) -> bool:
        """Refactorize the basis from scratch; False if singular."""
        self.counters.refactorizations += 1
        return self.factor.refactor(self.basic)

    def nonbasic_point(self) -> np.ndarray:
        """Full-length x with every nonbasic column at its status value."""
        sf = self.sf
        x = np.where(self.status == AT_UB, sf.up, sf.lo)
        x[self.status == AT_FREE] = 0.0
        x[self.status == BASIC] = 0.0
        return x

    def recompute_basics(self) -> None:
        """x_B = B^{-1} (b - N x_N) from the current statuses."""
        x = self.nonbasic_point()
        rhs = self.sf.b - self.sf.a @ x
        self.x_basic = self.factor.ftran(rhs)

    def reduced_costs(self) -> np.ndarray:
        """d = c - c_B B^{-1} A over all columns."""
        y = self.factor.btran(self.sf.cost[self.basic])
        return self.sf.cost - self.sf.row_product(y)

    def entering_column(self, j: int) -> np.ndarray:
        """FTRAN of column ``j``, tracking the hypersparsity counter."""
        w = self.factor.ftran_column(j)
        if 2 * np.count_nonzero(w) <= self.sf.m:
            self.counters.ftran_sparsity += 1
        return w

    # -- basis bookkeeping --------------------------------------------------
    def _set_status(self, j: int, value: int) -> None:
        """Park column ``j`` at nonbasic ``value`` and update its sign."""
        self.status[j] = value
        if value == AT_FREE:
            self.free = True
        if value == AT_FREE or self.fixed[j]:
            self.sign[j] = 0.0
        else:
            self.sign[j] = 1.0 if value == AT_LB else -1.0

    def _swap(self, row: int, entering: int, leave_status: int, w: np.ndarray) -> None:
        """Pivot ``entering`` into ``row`` (``w`` its FTRAN); the column
        basic there leaves at ``leave_status``."""
        self._set_status(int(self.basic[row]), leave_status)
        self.status[entering] = BASIC
        self.sign[entering] = 0.0
        self.basic[row] = entering
        self.lo_b[row] = self.sf.lo[entering]
        self.up_b[row] = self.sf.up[entering]
        self.factor.update(row, w)
        self.iterations += 1

    # -- pricing ------------------------------------------------------------
    def _price(
        self, y: np.ndarray, use_bland: bool
    ) -> Optional[Tuple[int, float]]:
        """Phase-1 pricer: entering column for the infeasibility gradient.

        Phase-1 reduced costs are ``d = -y A`` for the BTRAN ``y`` of the
        current gradient.  Scans the fixed, index-ordered column blocks
        and returns ``(entering, d_entering)`` from the first block
        holding an improving column, or ``None`` at the phase-1 optimum.
        The scan starts at the rotating pointer ``_pblock`` (left on the
        last productive block) and takes the in-block argmax of ``|d|`` —
        ``np.argmax`` resolves ties to the lowest index; Bland mode always
        scans from block 0 and takes the globally lowest improving index,
        preserving the anti-cycling guarantee.
        """
        sf = self.sf
        nblocks = len(self._blocks)
        if use_bland or nblocks == 1:
            order = range(nblocks)
        else:
            order = [(self._pblock + i) % nblocks for i in range(nblocks)]
        for bi in order:
            start, stop = self._blocks[bi]
            if nblocks == 1:
                d = -sf.row_product(y, sparse=False)
            else:
                d = -(y @ sf.a[:, start:stop])
            indices = self._improving_mask(d, start, stop).nonzero()[0]
            if indices.size == 0:
                continue
            if use_bland:
                local = int(indices[0])
            else:
                local = int(indices[np.argmax(np.abs(d[indices]))])
                self._pblock = bi
            return start + local, float(d[local])
        return None

    def _improving_mask(
        self, d: np.ndarray, start: int = 0, stop: Optional[int] = None
    ) -> np.ndarray:
        """Columns ``start:stop`` whose reduced cost (``d``, over those
        columns) improves the objective: ``d < 0`` at a lower bound,
        ``d > 0`` at an upper bound, ``d != 0`` free."""
        improving = self.sign[start:stop] * d < -DUAL_TOL
        if self.free:
            improving |= (self.status[start:stop] == AT_FREE) & (np.abs(d) > DUAL_TOL)
        return improving

    def reset_col_weights(self) -> None:
        """Start a fresh devex reference framework over the columns."""
        self._col_weights.fill(1.0)
        self.counters.devex_resets += 1

    # -- feasibility checks -------------------------------------------------
    def primal_violations(self) -> np.ndarray:
        """Signed bound violation of each basic variable (0 when feasible)."""
        below = np.minimum(self.x_basic - self.lo_b, 0.0)
        above = np.maximum(self.x_basic - self.up_b, 0.0)
        return below + above

    def dual_feasible(self, d: np.ndarray) -> bool:
        """Check sign conditions of reduced costs against statuses."""
        return not self._improving_mask(d).any()

    # -- driver -------------------------------------------------------------
    def run(self) -> RevisedResult:
        """Restore primal feasibility, then primal simplex to optimality.

        A warm start whose reduced costs are still sign-feasible (the
        regime after a branch-and-bound bound change) is repaired by the
        dual simplex — the violations are few and shallow, exactly where
        dual pivoting shines.  Everything else — a cold start, or a basis
        invalidated by an objective change — goes through primal phase 1,
        which reaches feasibility in few pivots on the deeply infeasible
        starts that make dual pivoting crawl.
        """
        if not self.refactor():
            return self._bail()
        self.recompute_basics()
        violations = self.primal_violations()
        counters = self.counters
        if np.any(np.abs(violations) > FEAS_TOL):
            if self.warm:
                d = self.reduced_costs()
                if self.dual_feasible(d):
                    before = self.iterations
                    status = self.dual_loop(d)
                    counters.dual_pivots += self.iterations - before
                    if status is not None:
                        return status
            # Phase 1 is a no-op when the dual loop already restored
            # feasibility; it takes over when the start was not dual
            # feasible or the dual loop gave up its budget mid-repair.
            before = self.iterations
            status = self.phase1_loop()
            counters.phase1_pivots += self.iterations - before
            if status is not None:
                return status
        before = self.iterations
        status = self.primal_loop()
        counters.primal_pivots += self.iterations - before
        if status is not None:
            return status
        return self.finish()

    def _bail(self) -> RevisedResult:
        """The give-up result: the engine cannot finish this LP reliably."""
        return RevisedResult(
            RevisedStatus.NEEDS_FALLBACK, None, math.nan, self.iterations, None,
            counters=self.counters,
        )

    def _infeasible(self) -> RevisedResult:
        """The INFEASIBLE verdict."""
        return RevisedResult(
            RevisedStatus.INFEASIBLE, None, math.nan, self.iterations, None,
            counters=self.counters,
        )

    def finish(self) -> RevisedResult:
        """Assemble and verify the optimal point; drift means give up."""
        sf = self.sf
        x = self.nonbasic_point()
        x[self.basic] = self.x_basic
        scale = 1.0 + float(np.max(np.abs(sf.b))) if sf.b.size else 1.0
        residual = float(np.max(np.abs(sf.a @ x - sf.b))) if sf.m else 0.0
        if residual > 1e-6 * scale:
            return self._bail()
        if np.any(x < sf.lo - 1e-6) or np.any(x > sf.up + 1e-6):
            return self._bail()
        structural = x[: sf.n].copy()
        objective = float(sf.cost[: sf.n] @ structural) + sf.c0
        return RevisedResult(
            RevisedStatus.OPTIMAL, structural, objective, self.iterations,
            Basis(self.basic.copy(), self.status.copy()),
            counters=self.counters,
        )

    # -- dual simplex -------------------------------------------------------
    def dual_loop(self, d: np.ndarray) -> Optional[RevisedResult]:
        """Pivot until every basic variable is inside its box.

        Requires a dual-feasible start (reduced costs ``d`` at entry);
        preserves dual feasibility, so on exit (primal feasible too) the
        basis is optimal.  The reduced-cost vector and the basic values
        are maintained *incrementally* — one AXPY each per pivot against
        the tableau row/column the ratio test already computed — instead
        of being recomputed from scratch every iteration, and both are
        refreshed whenever the factorization is rebuilt.

        The ratio test is the bound-flipping (long-step) variant: sorted
        by ratio, every boxed candidate whose flip keeps the dual slope
        positive is flipped in place (status swap, one aggregated FTRAN
        for the right-hand-side shift) and the entering column is the
        first blocking breakpoint.  Leaving-row choice is devex-weighted
        violation on bases past the dense-kernel threshold, worst
        absolute violation on small bases.

        A warm repair normally takes a handful of pivots, so the loop
        runs on a short budget: exhausting it means the start was
        degenerate enough to crawl, and the engine abandons the dual
        route mid-repair (the basis stays valid) and lets primal phase 1
        finish the job.  Returns a final result only on infeasibility or
        trouble; ``None`` means "continue with the primal machinery".
        """
        sf = self.sf
        counters = self.counters
        factor = self.factor
        status = self.status
        sign = self.sign
        span = self.span
        weights = self._row_weights
        if self.devex_rows:
            weights.fill(1.0)
            counters.devex_resets += 1
        budget = self.iterations + min(self.max_iterations, max(sf.m // 2, 100))
        while True:
            violations = self.primal_violations()
            absviol = np.abs(violations)
            if self.devex_rows:
                score = np.where(absviol > FEAS_TOL, absviol * absviol / weights, -1.0)
                row = int(score.argmax())
            else:
                row = int(absviol.argmax())
            slope = absviol.item(row)
            if slope <= FEAS_TOL:
                return None
            if self.iterations >= self.max_iterations:
                return self._bail()
            if self.iterations >= budget:
                return None  # crawling — hand the basis to phase 1

            below = violations.item(row) < 0  # leaving variable returns to its lb
            alpha = sf.row_product(factor.btran_unit(row))
            # Entering candidates must keep d sign-feasible after the
            # pivot: the direction (-alpha when the leaving variable
            # returns to its lb, else alpha) must point away from each
            # column's bound, which ``sign`` folds into one comparison.
            signed = alpha * sign
            idx = (signed < -PIVOT_TOL if below else signed > PIVOT_TOL).nonzero()[0]
            if self.free:
                idx = np.union1d(idx, np.flatnonzero(
                    (status == AT_FREE) & (np.abs(alpha) > PIVOT_TOL)
                ))
            if idx.size == 0:
                return self._infeasible()
            abs_dir = np.abs(alpha[idx])
            ratios = np.abs(d[idx]) / abs_dir

            # Bound-flipping ratio test: walk breakpoints in ratio order,
            # flipping boxed candidates while the dual slope stays
            # positive; the first blocking candidate enters.
            order = ratios.argsort(kind="stable")
            breakpoints = idx[order]
            flips = 0
            for gain in (abs_dir[order] * span[breakpoints]).tolist():
                if not (math.isfinite(gain) and slope - gain > FEAS_TOL):
                    break
                slope -= gain
                flips += 1
            else:
                # Every breakpoint flipped and the slope never hit zero:
                # the dual is unbounded, so the primal is infeasible.
                return self._infeasible()
            entering = int(breakpoints[flips])

            w = self.entering_column(entering)
            alpha_q = alpha.item(entering)
            w_row = w.item(row)
            if abs(w_row) < PIVOT_TOL or abs(w_row - alpha_q) > DRIFT_TOL * (
                1.0 + abs(alpha_q)
            ):
                # Tiny or drifting pivot: rebuild and retry the iteration
                # from refreshed state.
                if not self.refactor():
                    return self._bail()
                self.recompute_basics()
                d = self.reduced_costs()
                w = self.entering_column(entering)
                w_row = w.item(row)
                if abs(w_row) < PIVOT_TOL:
                    return self._bail()

            # Apply the accumulated bound flips: statuses swap and the
            # basic values absorb one aggregated FTRAN of the shifted
            # right-hand side.
            if flips:
                flipped = breakpoints[:flips]
                to_ub = status[flipped] == AT_LB
                shift = np.where(to_ub, span[flipped], -span[flipped])
                status[flipped] = np.where(to_ub, AT_UB, AT_LB)
                sign[flipped] = -sign[flipped]
                self.x_basic -= factor.ftran(sf.a[:, flipped] @ shift)
                counters.bound_flips += flips

            # Dual step: one AXPY keeps d current (d[leaving] lands on
            # -theta automatically since the leaving column's tableau row
            # entry is 1).
            theta = d.item(entering) / w_row
            if theta != 0.0:
                d -= theta * alpha
            d[entering] = 0.0

            # Primal step: the leaving variable travels to its violated
            # bound; every other basic moves along the entering column.
            target = self.lo_b.item(row) if below else self.up_b.item(row)
            v_entering = (
                sf.up.item(entering) if status[entering] == AT_UB else
                0.0 if status[entering] == AT_FREE else sf.lo.item(entering)
            )
            t_primal = (self.x_basic.item(row) - target) / w_row
            if t_primal != 0.0:
                self.x_basic -= w * t_primal
            self.x_basic[row] = v_entering + t_primal

            if self.devex_rows:
                # Reference-framework update from the entering column the
                # pivot already computed: w_i/w_r is the tableau ratio.
                gamma_r = weights.item(row)
                ratio2 = (w / w_row) ** 2
                np.maximum(weights, ratio2 * gamma_r, out=weights)
                weights[row] = max(gamma_r / (w_row * w_row), 1.0)
                if float(weights.max()) > DEVEX_RESET_LIMIT:
                    weights.fill(1.0)
                    counters.devex_resets += 1

            self._swap(row, entering, AT_LB if below else AT_UB, w)
            if factor.should_refactor():
                if not self.refactor():
                    return self._bail()
                self.recompute_basics()
                d = self.reduced_costs()

    # -- primal phase 1 -----------------------------------------------------
    def phase1_loop(self) -> Optional[RevisedResult]:
        """Drive total bound infeasibility of the basics to zero.

        Bounded-variable composite phase 1: minimize the sum of bound
        violations of the basic variables, whose gradient is ``-1`` for a
        basic below its lower bound and ``+1`` above its upper.  The
        gradient changes with every pivot, so the phase-1 reduced costs
        are recomputed per iteration through the block pricer
        :meth:`_price` (a devex reference framework has nothing stable to
        reference here).
        Pivots are short-step — the entering variable blocks at the first
        breakpoint, which includes an infeasible basic *reaching* its
        violated bound (it leaves the basis feasible).  Returns ``None``
        once primal feasible.  A phase-1 optimum with residual
        infeasibility is checked once more on a fresh factorization: if
        the re-price still finds no improving column the LP is
        INFEASIBLE, with the phase-1 duals ``y`` as the Farkas
        certificate; if it finds one, phase 1 goes on.
        """
        sf = self.sf
        stall = 0
        use_bland = False
        last_infeas = math.inf
        fresh = False  # basics recomputed on a new factorization, no pivot since
        while True:
            violations = self.primal_violations()
            below = violations < -FEAS_TOL
            above = violations > FEAS_TOL
            infeasible = below | above
            if not infeasible.any():
                return None
            infeas = float(np.abs(violations[infeasible]).sum())
            if self.iterations >= self.max_iterations:
                return self._bail()

            # Phase-1 reduced costs: d_j = -w_B B^{-1} A_j (w is the
            # infeasibility gradient, zero on every nonbasic column).
            w_basic = np.zeros(sf.m)
            w_basic[below] = -1.0
            w_basic[above] = 1.0
            y = self.factor.btran(w_basic)
            candidate = self._price(y, use_bland=use_bland)
            if candidate is None:
                # Local (hence global) phase-1 optimum with residual
                # infeasibility.  Confirm it free of update error before
                # certifying.
                if fresh:
                    return self._infeasible()
                if not self.refactor():
                    return self._bail()
                self.recompute_basics()
                fresh = True
                continue
            fresh = False
            entering, d_entering = candidate
            if self.status[entering] == AT_UB or (
                self.status[entering] == AT_FREE and d_entering > 0
            ):
                sign = -1.0
            else:
                sign = 1.0

            w = self.entering_column(entering)
            delta = sign * w  # basic variables move by -delta per unit step
            xv = self.x_basic
            inside = ~infeasible
            dec = delta > PIVOT_TOL  # basic decreases as the step grows
            inc = delta < -PIVOT_TOL  # basic increases
            # Breakpoints: a feasible basic blocks at the bound it would
            # cross; an infeasible one blocks where it regains feasibility.
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(
                    (dec & above) | (inc & inside), (xv - self.up_b) / delta,
                    np.where(
                        (dec & inside) | (inc & below), (xv - self.lo_b) / delta,
                        np.inf,
                    ),
                )
            steps[~np.isfinite(steps)] = np.inf
            span = self.span[entering]
            limit = float(steps.min()) if sf.m else math.inf
            step = min(limit, span)
            if not math.isfinite(step):
                return self._bail()
            step = max(step, 0.0)

            if span <= limit:
                self.x_basic = self.x_basic - delta * step
                self._set_status(entering, AT_UB if sign > 0 else AT_LB)
                self.iterations += 1
                self.counters.bound_flips += 1
            else:
                blocking = np.nonzero(steps <= step + FEAS_TOL)[0]
                if use_bland:
                    row = int(min(blocking, key=lambda i: self.basic[i]))
                else:
                    row = int(blocking[np.argmax(np.abs(delta[blocking]))])
                if abs(w[row]) < PIVOT_TOL:
                    if not self.refactor():
                        return self._bail()
                    self.recompute_basics()
                    continue
                entering_value = (
                    (sf.up[entering] if self.status[entering] == AT_UB else
                     0.0 if self.status[entering] == AT_FREE else sf.lo[entering])
                    + sign * step
                )
                if delta[row] > 0:
                    leave_status = AT_UB if above[row] else AT_LB
                else:
                    leave_status = AT_LB if below[row] else AT_UB
                self.x_basic = self.x_basic - delta * step
                self.x_basic[row] = entering_value
                self._swap(row, entering, leave_status, w)
                if self.factor.should_refactor():
                    if not self.refactor():
                        return self._bail()
                    self.recompute_basics()

            if infeas < last_infeas - FEAS_TOL:
                stall = 0
                last_infeas = infeas
            else:
                stall += 1
                if stall >= STALL_LIMIT:
                    use_bland = True

    # -- primal simplex -----------------------------------------------------
    def primal_loop(self) -> Optional[RevisedResult]:
        """Pivot from a primal-feasible basis until no column improves.

        Maintains the full reduced-cost vector across pivots — pricing is
        a vectorized devex argmax of ``d^2/weight`` with no per-iteration
        BTRAN — and updates the reference-framework weights from the
        pivot row it computes for the reduced-cost AXPY.  Switches to
        Bland's rule after a stall (the classic anti-cycling safeguard).
        Returns a final result only on unboundedness or trouble; ``None``
        means "optimal, go finish".
        """
        sf = self.sf
        stall = 0
        use_bland = False
        last_objective = math.inf
        weights = self._col_weights
        d = self.reduced_costs()
        self.reset_col_weights()
        while True:
            if self.iterations >= self.max_iterations:
                return self._bail()
            improving = self._improving_mask(d).nonzero()[0]
            if improving.size == 0:
                return None
            if use_bland:
                entering = int(improving[0])
            else:
                d_imp = d[improving]
                entering = int(improving[int(np.argmax(
                    d_imp * d_imp / weights[improving]
                ))])
            d_entering = float(d[entering])
            # Direction of travel: increase from lb (or free with d<0),
            # decrease from ub (or free with d>0).
            if self.status[entering] == AT_UB or (
                self.status[entering] == AT_FREE and d_entering > 0
            ):
                sign = -1.0
            else:
                sign = 1.0

            w = self.entering_column(entering)
            delta = sign * w  # basic variables move by -delta per unit step
            xv = self.x_basic
            # Blocking step for each basic variable.
            steps = self._steps
            steps.fill(np.inf)
            decreasing = delta > PIVOT_TOL
            increasing = delta < -PIVOT_TOL
            steps[decreasing] = (xv[decreasing] - self.lo_b[decreasing]) / delta[decreasing]
            steps[increasing] = (xv[increasing] - self.up_b[increasing]) / delta[increasing]
            span = self.span[entering]
            limit = float(steps.min()) if sf.m else math.inf
            step = min(limit, span)
            if not math.isfinite(step):
                return RevisedResult(
                    RevisedStatus.UNBOUNDED, None, math.nan, self.iterations, None,
                    counters=self.counters,
                )
            step = max(step, 0.0)

            if span <= limit:
                # Bound flip: the entering variable crosses its whole box
                # — no basis change, so d and the weights are untouched.
                self.x_basic = self.x_basic - delta * step
                self._set_status(entering, AT_UB if sign > 0 else AT_LB)
                self.iterations += 1
                self.counters.bound_flips += 1
            else:
                blocking = np.nonzero(steps <= step + FEAS_TOL)[0]
                if use_bland:
                    row = int(min(blocking, key=lambda i: self.basic[i]))
                else:
                    row = int(blocking[np.argmax(np.abs(delta[blocking]))])
                leaving = int(self.basic[row])
                if abs(w[row]) < PIVOT_TOL:
                    if not self.refactor():
                        return self._bail()
                    self.recompute_basics()
                    d = self.reduced_costs()
                    continue
                entering_value = (
                    (sf.up[entering] if self.status[entering] == AT_UB else
                     0.0 if self.status[entering] == AT_FREE else sf.lo[entering])
                    + sign * step
                )
                # One unit BTRAN + structural row product per pivot keeps
                # d current and feeds the weight update.
                alpha_r = sf.row_product(self.factor.btran_unit(row))
                alpha_rq = float(alpha_r[entering])
                if abs(alpha_rq - w[row]) > DRIFT_TOL * (1.0 + abs(w[row])):
                    if not self.refactor():
                        return self._bail()
                    self.recompute_basics()
                    d = self.reduced_costs()
                    continue
                theta = float(d[entering]) / alpha_rq
                if theta != 0.0:
                    d -= theta * alpha_r
                d[entering] = 0.0
                gamma_q = float(weights[entering])
                ratio2 = (alpha_r / alpha_rq) ** 2
                np.maximum(weights, ratio2 * gamma_q, out=weights)
                weights[leaving] = max(gamma_q / (alpha_rq * alpha_rq), 1.0)
                if float(weights.max()) > DEVEX_RESET_LIMIT:
                    self.reset_col_weights()
                self.x_basic = self.x_basic - delta * step
                self.x_basic[row] = entering_value
                if not math.isfinite(sf.lo[leaving]) and not math.isfinite(sf.up[leaving]):
                    leave_status = AT_FREE
                else:
                    leave_status = AT_LB if delta[row] > 0 else AT_UB
                self._swap(row, entering, leave_status, w)
                if self.factor.should_refactor():
                    if not self.refactor():
                        return self._bail()
                    self.recompute_basics()
                    d = self.reduced_costs()

            objective = float(sf.cost[self.basic] @ self.x_basic)
            if objective < last_objective - DUAL_TOL:
                stall = 0
                last_objective = objective
            else:
                stall += 1
                if stall >= STALL_LIMIT:
                    use_bland = True
