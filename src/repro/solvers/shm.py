"""Shared-memory publication of a solve's immutable matrix data.

Parallel branch and bound ships each solve's matrices to pool workers
exactly once: the driver packs the (presolved) :class:`MatrixForm`
arrays (branching priorities included, so workers branch like the
driver), the :class:`~repro.solvers.revised.StandardFormLP` arrays and the
CSC factorization input into a single ``multiprocessing.shared_memory``
segment, and workers attach zero-copy.
This replaces the old fork-inherited shared-form registry: it works under
any start method (``spawn`` included, which unbreaks non-POSIX
platforms), and segment lifetime is explicit instead of riding on
``fork`` semantics.

Ownership contract:

* :class:`FormPublication` (driver side) is a context manager.  The
  segment is created in ``__init__`` and *always* released — closed and
  unlinked — in ``close()``/``__exit__``, on every exit path including
  exceptions, cancellation, and pool crashes.  Publications created by
  this process are tracked in a module-level table so tests can assert
  nothing leaked (:func:`live_segments`).
* :func:`attach_form` (worker side) maps the segment read-only for the
  big two-dimensional matrices and *copies* the small one-dimensional
  vectors (bounds, costs, right-hand sides) — those are mutated per node
  by the LP backend and must be private per worker.  The worker-side
  handle unregisters itself from the worker's ``resource_tracker``
  (attaching registers the segment a second time on CPython < 3.13,
  which would otherwise unlink the driver's segment when the worker
  exits).
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Optional, Tuple

import numpy as np
from scipy.sparse import csc_matrix

from repro.milp.model import MatrixForm
from repro.solvers.revised import StandardFormLP

#: Byte alignment for every packed array (generous for any dtype here).
_ALIGN = 64

#: Names of segments created by this process and not yet released.
_LIVE: Dict[str, "FormPublication"] = {}


def live_segments() -> Tuple[str, ...]:
    """Names of publications this process created and has not released.

    Empty whenever no parallel solve is in flight — the leak-check tests
    assert exactly that after solves, cancellations, and pool crashes.
    """
    return tuple(sorted(_LIVE))


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop a worker-side attach from this process's resource tracker.

    On CPython < 3.13 ``SharedMemory(name=...)`` registers the segment
    with the attaching process's resource tracker as if it owned it; when
    that process exits, the tracker unlinks a segment it never created.
    Workers call this right after attaching so ownership stays with the
    driver.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker absent (Windows) or API drift
        pass


class FormPublication:
    """Driver-side owner of one solve's shared-memory segment.

    Packs the immutable arrays of ``form`` and of its standard form ``sf``
    (built from ``form`` when not given) into one segment and exposes a
    picklable :attr:`spec` describing the layout.  Use as a context
    manager; :meth:`close` is idempotent and safe to call from ``finally``
    blocks on any exit path.
    """

    def __init__(
        self, form: MatrixForm, sf: Optional[StandardFormLP] = None
    ) -> None:
        if sf is None:
            sf = StandardFormLP.from_matrix_form(form)
        arrays: Dict[str, np.ndarray] = {
            "c": np.ascontiguousarray(form.c, dtype=float),
            "a_ub": np.ascontiguousarray(form.a_ub, dtype=float),
            "b_ub": np.ascontiguousarray(form.b_ub, dtype=float),
            "a_eq": np.ascontiguousarray(form.a_eq, dtype=float),
            "b_eq": np.ascontiguousarray(form.b_eq, dtype=float),
            "lb": np.ascontiguousarray(form.lb, dtype=float),
            "ub": np.ascontiguousarray(form.ub, dtype=float),
            "integrality": np.ascontiguousarray(form.integrality),
            "branch_priority": np.ascontiguousarray(form.branch_priority),
            "sf_a": np.ascontiguousarray(sf.a, dtype=float),
            "sf_b": np.ascontiguousarray(sf.b, dtype=float),
            "sf_lo": np.ascontiguousarray(sf.lo, dtype=float),
            "sf_up": np.ascontiguousarray(sf.up, dtype=float),
            "sf_cost": np.ascontiguousarray(sf.cost, dtype=float),
        }
        csc = sf.a_csc()
        arrays["csc_data"] = np.ascontiguousarray(csc.data)
        arrays["csc_indices"] = np.ascontiguousarray(csc.indices)
        arrays["csc_indptr"] = np.ascontiguousarray(csc.indptr)

        layout: Dict[str, Tuple[int, Tuple[int, ...], str]] = {}
        offset = 0
        for key, value in arrays.items():
            offset = -(-offset // _ALIGN) * _ALIGN  # round up to alignment
            layout[key] = (offset, value.shape, value.dtype.str)
            offset += value.nbytes

        self._shm: Optional[shared_memory.SharedMemory] = (
            shared_memory.SharedMemory(create=True, size=max(offset, 1))
        )
        for key, value in arrays.items():
            start = layout[key][0]
            dest = np.ndarray(
                value.shape, dtype=value.dtype,
                buffer=self._shm.buf, offset=start,
            )
            dest[...] = value

        #: Picklable layout descriptor shipped to workers over the control
        #: queue: segment name, per-array (offset, shape, dtype), scalars.
        self.spec: Dict[str, Any] = {
            "segment": self._shm.name,
            "layout": layout,
            "c0": float(form.c0),
            "sf_n": sf.n,
            "sf_m": sf.m,
        }
        _LIVE[self._shm.name] = self

    @property
    def name(self) -> str:
        """The segment name (stable until :meth:`close`)."""
        return self.spec["segment"]

    def close(self) -> None:
        """Close and unlink the segment; idempotent."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        _LIVE.pop(shm.name, None)
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "FormPublication":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - backstop only
        self.close()


class AttachedForm:
    """Worker-side view of a published form.

    ``form`` and ``sf`` are rebuilt from the segment: two-dimensional
    matrices (and the CSC arrays) are read-only zero-copy views into
    shared memory; one-dimensional vectors are private copies because the
    LP backend mutates bounds (and sweeps mutate objectives) in place.
    Hold the instance as long as ``form``/``sf`` are in use — it keeps the
    mapping alive — and :meth:`close` it before attaching a newer epoch's
    segment.
    """

    def __init__(self, spec: Dict[str, Any]) -> None:
        self._shm = shared_memory.SharedMemory(name=spec["segment"])
        _untrack(self._shm)
        self.segment = spec["segment"]
        layout = spec["layout"]

        def view(key: str) -> np.ndarray:
            offset, shape, dtype = layout[key]
            out = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=offset
            )
            out.flags.writeable = False
            return out

        self.form = MatrixForm(
            c=view("c").copy(),
            c0=spec["c0"],
            a_ub=view("a_ub"),
            b_ub=view("b_ub").copy(),
            a_eq=view("a_eq"),
            b_eq=view("b_eq").copy(),
            lb=view("lb").copy(),
            ub=view("ub").copy(),
            integrality=view("integrality").copy(),
            variables=(),
            branch_priority=view("branch_priority").copy(),
        )
        m, n = spec["sf_m"], spec["sf_n"]
        self.sf = StandardFormLP.from_arrays(
            a=view("sf_a"),
            b=view("sf_b").copy(),
            lo=view("sf_lo").copy(),
            up=view("sf_up").copy(),
            cost=view("sf_cost").copy(),
            c0=spec["c0"],
            n=n,
            m=m,
            a_csc=csc_matrix(
                (view("csc_data"), view("csc_indices"), view("csc_indptr")),
                shape=(m, n + m),
            ),
        )

    def close(self) -> None:
        """Release this worker's mapping (never unlinks; the driver owns that)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        # Drop the numpy views first: closing a segment with exported
        # buffers raises on CPython.
        self.form = None  # type: ignore[assignment]
        self.sf = None  # type: ignore[assignment]
        try:
            shm.close()
        except BufferError:  # pragma: no cover - views still alive elsewhere
            pass
