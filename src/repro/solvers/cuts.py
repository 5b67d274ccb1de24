"""Root-node cutting planes: Gomory mixed-integer and knapsack cover cuts.

Cut-and-branch closes part of the integrality gap *before* the tree search
starts: the root LP is re-solved a bounded number of rounds, each round
appending violated valid inequalities to the standing
:class:`~repro.solvers.revised.StandardFormLP` and dual-reoptimizing from
the extended basis (see ``StandardFormLP.append_ub_rows`` /
``extend_basis``).  Two families are separated here:

* **Gomory mixed-integer (GMI) cuts** read the simplex tableau row of each
  fractional basic integer variable (one BTRAN per row via
  :class:`~repro.solvers.revised.TableauAccess`), derive the GMI
  inequality in the nonbasic shift space, and substitute the logical
  (slack) columns back out so the cut is expressed purely over structural
  variables, the form :meth:`StandardFormLP.append_ub_rows
  <repro.solvers.revised.StandardFormLP.append_ub_rows>` requires.
* **Knapsack cover cuts** scan the ``<=`` rows of the (presolved) matrix
  form, complement negative-coefficient binaries, relax non-binary terms
  by their minimum contribution, and lift a greedy cover from the
  fractional LP point.

A :class:`CutPool` filters candidates by violation and pairwise
parallelism, ages the ones never selected, and enforces a per-round cap.
Everything is deterministic: candidate order, greedy selection, and
tie-breaks depend only on the LP data, never on wall clock or hashing.

Validity notes.  A GMI cut is only derived when every nonbasic column with
a nonzero tableau coefficient sits on a *finite* bound (free nonbasics
invalidate the shift substitution) and when integral structural columns
rest on integer bounds (presolve guarantees this).  Cuts never enter
:func:`_TreeSearch._is_feasible` — integral candidates are checked against
the original rows only, so an (astronomically unlikely) numerically wrong
cut could slow the search but a wrong *incumbent* can never be accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.milp.model import MatrixForm
from repro.solvers.revised import (
    AT_FREE,
    AT_UB,
    BASIC,
    Basis,
    StandardFormLP,
    TableauAccess,
)

#: Keep only fractional parts comfortably inside (0, 1): cuts from
#: near-integral basics are weak and tolerance-fragile.
MIN_FRACTIONALITY = 5e-3
#: Smallest violation (normalized by the cut's norm) worth adding.
MIN_VIOLATION = 1e-5
#: Cosine-similarity ceiling between two selected cuts in one round.
MAX_PARALLELISM = 0.95
#: Rounds a candidate may go unselected before the pool drops it.
MAX_AGE = 3
#: Largest |max coef| / |min nonzero coef| ratio accepted (numerical safety).
MAX_DYNAMISM = 1e7
#: Coefficients below this are snapped to zero before the dynamism check.
COEF_EPS = 1e-11


@dataclass
class Cut:
    """One ``coeffs @ x <= rhs`` inequality over the structural variables."""

    coeffs: np.ndarray
    rhs: float
    kind: str  # "gomory" | "cover"
    norm: float = 0.0
    age: int = 0
    #: Insertion index, the deterministic tie-break in pool ordering.
    serial: int = field(default=0, compare=False)

    def violation(self, x: np.ndarray) -> float:
        """Normalized violation of the cut at ``x`` (positive = violated)."""
        return (float(self.coeffs @ x) - self.rhs) / self.norm


def _finish_cut(coeffs: np.ndarray, rhs: float, kind: str) -> Optional[Cut]:
    """Clean, sanity-check, and wrap raw cut data; ``None`` if unusable."""
    coeffs = np.where(np.abs(coeffs) < COEF_EPS, 0.0, coeffs)
    nonzero = np.abs(coeffs[coeffs != 0.0])
    if nonzero.size == 0 or not math.isfinite(rhs):
        return None
    if float(nonzero.max()) / float(nonzero.min()) > MAX_DYNAMISM:
        return None
    norm = math.sqrt(coeffs @ coeffs)  # np.linalg.norm's own formula
    if not math.isfinite(norm) or norm < COEF_EPS:
        return None
    return Cut(coeffs, float(rhs), kind, norm=norm)


def separate_gomory(
    sf: StandardFormLP,
    basis: Basis,
    x: np.ndarray,
    integral: np.ndarray,
    max_cuts: int = 50,
) -> List[Cut]:
    """GMI cuts from the tableau rows of fractional basic integer variables.

    Args:
        sf: The (possibly already cut-augmented) standard form.
        basis: Optimal basis of the current root LP.
        x: Structural solution of that LP (length ``sf.n``).
        integral: Indices of integer-constrained structural variables.
        max_cuts: Scan stops after this many cuts were derived.
    """
    n = sf.n
    integral_mask = np.zeros(n, dtype=bool)
    integral_mask[integral] = True
    basic = basis.basic
    structural = basic < n
    fraction = np.zeros(sf.m)
    fraction[structural] = x[basic[structural]] % 1.0
    rows_wanted = np.flatnonzero(
        structural
        & integral_mask[np.where(structural, basic, 0)]
        & (fraction > MIN_FRACTIONALITY)
        & (fraction < 1.0 - MIN_FRACTIONALITY)
    ).tolist()
    if not rows_wanted:
        return []
    tableau = TableauAccess(sf, basis)
    if not tableau.ok:
        return []
    fixed = np.isfinite(sf.lo) & np.isfinite(sf.up) & (sf.up - sf.lo <= 1e-9)
    status = basis.status
    nonbasic = (status != BASIC) & ~fixed
    free = status == AT_FREE
    has_free = bool(free.any())
    b = sf.b.tolist()
    cuts: List[Cut] = []
    for i in rows_wanted:
        if len(cuts) >= max_cuts:
            break
        f0 = float(fraction[i])
        alpha = tableau.row(i)
        # Shifted-space coefficients a_j: +alpha at a lower bound, -alpha
        # at an upper bound; fixed columns contribute nothing; a free
        # nonbasic with real weight invalidates the derivation.
        active = nonbasic & (np.abs(alpha) > COEF_EPS)
        if has_free and (active & free).any():
            continue
        idx = active.nonzero()[0]
        if idx.size == 0:
            continue
        at_ub = status[idx] == AT_UB
        a = np.where(at_ub, -alpha[idx], alpha[idx])
        is_int = (idx < n) & integral_mask[np.minimum(idx, n - 1)]
        # GMI coefficients in the shift space (t_j >= 0, cut >= f0 form).
        gamma = np.empty(idx.size)
        fj = a % 1.0
        with np.errstate(invalid="ignore"):
            gamma_int = np.where(fj <= f0, fj, f0 * (1.0 - fj) / (1.0 - f0))
            gamma_cont = np.where(a >= 0.0, a, f0 * (-a) / (1.0 - f0))
        gamma[is_int] = gamma_int[is_int]
        gamma[~is_int] = gamma_cont[~is_int]
        # Back to original columns: t_j = x_j - lo_j or up_j - x_j.
        pi = np.zeros(sf.ncols)
        pi[idx] = np.where(at_ub, -gamma, gamma)
        pi0 = f0 + float(
            np.sum(np.where(at_ub, -gamma * sf.up[idx], gamma * sf.lo[idx]))
        )
        if not math.isfinite(pi0):
            continue
        # Substitute logical columns out: row r says s_r = b_r - A[r,:n] x,
        # exact because the logical block is the identity.
        w = pi[:n].copy()
        w0 = pi0
        logical = pi[n:]
        rows = logical.nonzero()[0]
        for r, weight in zip(rows.tolist(), logical[rows].tolist()):
            w -= weight * sf.a[r, :n]
            w0 -= weight * b[r]
        # pi . x >= pi0 becomes the <= row -w . x <= -w0.
        cut = _finish_cut(-w, -w0, "gomory")
        if cut is not None:
            cuts.append(cut)
    return cuts


@dataclass(frozen=True)
class Knapsack:
    """One ``<=`` row of the form as a 0/1 knapsack over its binaries.

    Attributes:
        columns: The binary columns with a nonzero coefficient.
        complemented: Per column, whether it is complemented
            (``y = 1 - x``) because its coefficient is negative.
        weights: The absolute coefficients, as Python floats.
        capacity: The right-hand side after relaxing the non-binary terms
            by their smallest contribution and complementing.
    """

    columns: np.ndarray
    complemented: np.ndarray
    weights: List[float]
    capacity: float


def cover_knapsacks(form: MatrixForm) -> List[Knapsack]:
    """The knapsacks of the form's ``<=`` rows that can hold a cover.

    Negative-coefficient binaries are complemented (``y = 1 - x``) and
    other variables are relaxed away by their minimum contribution.  Rows
    with fewer than two binaries, an unbounded relaxation, or a knapsack
    that is empty or never binding have no cover and are left out.  The
    knapsacks depend on the form only, so :func:`separate_cover` takes
    them from a caller separating several rounds on one form.
    """
    if not form.a_ub.size:
        return []
    binary = (
        np.asarray(form.integrality, dtype=bool)
        & (form.lb >= -1e-9) & (form.lb <= 1e-9)
        & (form.ub >= 1.0 - 1e-9) & (form.ub <= 1.0 + 1e-9)
    )
    a_ub = form.a_ub
    nonzero = np.abs(a_ub) > COEF_EPS
    # Every row's binary and other nonzero columns, in one pass each
    # (np.nonzero is row-major, so each row's columns come out ascending).
    bin_rows, bin_cols = np.nonzero(nonzero & binary)
    rest_rows, rest_cols = np.nonzero(nonzero & ~binary)
    bin_ptr = np.searchsorted(bin_rows, np.arange(a_ub.shape[0] + 1)).tolist()
    rest_ptr = np.searchsorted(rest_rows, np.arange(a_ub.shape[0] + 1)).tolist()
    coef = a_ub[bin_rows, bin_cols]
    rest_coef = a_ub[rest_rows, rest_cols]
    # Relax non-binary terms by their smallest possible contribution.
    lows = np.minimum(rest_coef * form.lb[rest_cols], rest_coef * form.ub[rest_cols])
    finite = np.isfinite(lows).tolist()
    lows = lows.tolist()
    b_ub = form.b_ub.tolist()
    knapsacks: List[Knapsack] = []
    for r in range(a_ub.shape[0]):
        lo, hi = bin_ptr[r], bin_ptr[r + 1]
        if hi - lo < 2:
            continue  # fewer than two binaries hold no cover
        rest = range(rest_ptr[r], rest_ptr[r + 1])
        if not all(finite[k] for k in rest):
            continue
        rhs = b_ub[r]
        for k in rest:
            rhs -= lows[k]
        # Complement negatives so every knapsack weight is positive.
        row = coef[lo:hi]
        flip = row < 0.0
        weights = np.abs(row)
        rhs_k = rhs - float(row[flip].sum())
        if rhs_k <= COEF_EPS or float(weights.sum()) <= rhs_k + 1e-9:
            continue  # empty or never-binding knapsack: no cover exists
        knapsacks.append(Knapsack(bin_cols[lo:hi], flip, weights.tolist(), rhs_k))
    return knapsacks


def separate_cover(
    form: MatrixForm,
    x: np.ndarray,
    knapsacks: List[Knapsack],
    max_cuts: int = 50,
) -> List[Cut]:
    """Greedy knapsack cover cuts from the form's ``<=`` rows.

    A cover is grown greedily over each of ``knapsacks`` (the form's
    :func:`cover_knapsacks`) in decreasing LP-value order until the
    capacity overflows.  The cover inequality is emitted only when the
    fractional point violates it.
    """
    n = form.c.shape[0]
    cuts: List[Cut] = []
    for knapsack in knapsacks:
        if len(cuts) >= max_cuts:
            break
        cand = knapsack.columns
        flip = knapsack.complemented
        values = x[cand]
        y = np.where(flip, 1.0 - values, values)
        # Greedy cover: most-set items first (ties to the lowest index).
        order = np.lexsort((cand, -y)).tolist()
        weights = knapsack.weights
        capacity = knapsack.capacity + 1e-9
        total = 0.0
        cover: List[int] = []
        for k in order:
            cover.append(k)
            total += weights[k]
            if total > capacity:
                break
        else:
            continue  # never overflowed: not a cover
        slack_sum = float(np.sum(1.0 - y[cover]))
        if slack_sum >= 1.0 - 1e-6:
            continue  # cover inequality not violated at the LP point
        coeffs = np.zeros(n)
        rhs_c = float(len(cover) - 1)
        for k in cover:
            j = int(cand[k])
            if flip[k]:
                coeffs[j] = -1.0
                rhs_c -= 1.0
            else:
                coeffs[j] = 1.0
        cut = _finish_cut(coeffs, rhs_c, "cover")
        if cut is not None:
            cuts.append(cut)
    return cuts


class CutPool:
    """Candidate store with violation/parallelism filtering and aging."""

    def __init__(
        self,
        max_per_round: int = 20,
        min_violation: float = MIN_VIOLATION,
        max_parallelism: float = MAX_PARALLELISM,
        max_age: int = MAX_AGE,
    ) -> None:
        self.max_per_round = max_per_round
        self.min_violation = min_violation
        self.max_parallelism = max_parallelism
        self.max_age = max_age
        self.candidates: List[Cut] = []
        self._serial = 0
        self._seen = set()

    def add(self, cuts: List[Cut]) -> int:
        """Deduplicate and admit candidates; returns how many were new."""
        added = 0
        for cut in cuts:
            key = (
                cut.kind,
                round(cut.rhs / cut.norm, 9),
                tuple(np.round(cut.coeffs / cut.norm, 9).tolist()),
            )
            if key in self._seen:
                continue
            self._seen.add(key)
            cut.serial = self._serial
            self._serial += 1
            self.candidates.append(cut)
            added += 1
        return added

    def select(self, x: np.ndarray) -> List[Cut]:
        """Pick this round's cuts: most-violated first, near-parallel skipped.

        Selected cuts leave the pool (they join the LP for good); the
        rest age by one round and fall out past :attr:`max_age`.
        """
        scored = [
            (cut.violation(x), cut) for cut in self.candidates
        ]
        ranked = sorted(
            (pair for pair in scored if pair[0] > self.min_violation),
            key=lambda pair: (-pair[0], pair[1].serial),
        )
        chosen: List[Cut] = []
        for _, cut in ranked:
            if len(chosen) >= self.max_per_round:
                break
            unit = cut.coeffs / cut.norm
            if any(
                abs(float(unit @ other.coeffs) / other.norm) > self.max_parallelism
                for other in chosen
            ):
                continue
            chosen.append(cut)
        taken = {id(cut) for cut in chosen}
        survivors = []
        for cut in self.candidates:
            if id(cut) in taken:
                continue
            cut.age += 1
            if cut.age <= self.max_age:
                survivors.append(cut)
        self.candidates = survivors
        return chosen

    def as_rows(self, cuts: List[Cut]) -> Tuple[np.ndarray, np.ndarray]:
        """Stack selected cuts into ``(rows, rhs)`` for ``append_ub_rows``."""
        rows = np.vstack([cut.coeffs for cut in cuts])
        rhs = np.array([cut.rhs for cut in cuts])
        return rows, rhs
