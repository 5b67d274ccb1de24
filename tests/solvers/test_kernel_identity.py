"""The sparse kernel's shortcuts compute exactly what they replace.

The revised simplex factors bases by calling SuperLU's ``gstrf``
directly (:func:`repro.solvers.revised._splu`), takes the CSC arrays
straight from the dense matrix, and multiplies rows by the structural
block only (:meth:`StandardFormLP.row_product`).  The Table II tree
changes under any last-bit difference, so each shortcut is checked
bitwise against the scipy or NumPy call it stands for, on bases and
BTRAN vectors recorded from a bozo solve of example 1.
"""

from __future__ import annotations

import ctypes
import os
import pathlib

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from repro.core.formulation import SosModelBuilder
from repro.solvers import revised
from repro.solvers.revised import StandardFormLP, _SparseLUFactor, solve_revised
from repro.synthesis.synthesizer import Synthesizer
from repro.system.examples import example1_library
from repro.taskgraph.examples import example1

#: Every how many recorded bases / row products one is kept.
SAMPLE_EVERY = 7


@pytest.fixture(scope="module")
def recorded():
    """Bases factorized and rows multiplied during one bozo solve."""
    bases, rows = [], []
    refactor = _SparseLUFactor.refactor
    row_product = StandardFormLP.row_product

    def recording_refactor(factor, basic):
        bases.append((factor.sf.a, factor.sf.csc_arrays(), basic.copy()))
        return refactor(factor, basic)

    def recording_row_product(sf, y, sparse=True):
        out = row_product(sf, y, sparse)
        rows.append((sf.n, sf._block_width, sf.a, y.copy(), sparse, out.copy()))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_SparseLUFactor, "refactor", recording_refactor)
        patch.setattr(StandardFormLP, "row_product", recording_row_product)
        Synthesizer(example1(), example1_library(), solver="bozo").synthesize(
            cost_cap=12.9999
        )
    return bases[::SAMPLE_EVERY], rows[::SAMPLE_EVERY]


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def test_direct_gstrf_solves_bitwise_as_splu(recorded):
    bases, _ = recorded
    assert len(bases) >= 20
    rng = np.random.default_rng(11)
    for a, csc, basic in bases:
        m = a.shape[0]
        reference = splu(csc_matrix(a)[:, basic].tocsc())
        direct = revised._splu(revised._basis_csc(csc, basic))
        for rhs in (rng.normal(size=m), np.ones(m), np.eye(m)[m // 2]):
            assert _bits(direct.solve(rhs)) == _bits(reference.solve(rhs))
            assert _bits(direct.solve(rhs, trans="T")) == _bits(
                reference.solve(rhs, trans="T")
            )


def test_public_splu_path_factors_the_same(recorded, monkeypatch):
    bases, _ = recorded
    direct = [revised._splu(revised._basis_csc(csc, basic)) for _, csc, basic in bases[:5]]
    monkeypatch.setattr(revised, "_GSTRF", None)
    for (_, csc, basic), lu in zip(bases[:5], direct):
        public = revised._splu(revised._basis_csc(csc, basic))
        rhs = np.arange(1.0, basic.size + 1)
        assert _bits(public.solve(rhs)) == _bits(lu.solve(rhs))
        assert _bits(public.solve(rhs, trans="T")) == _bits(lu.solve(rhs, trans="T"))


def test_csc_arrays_are_scipys(recorded):
    bases, _ = recorded
    for a, csc, _ in bases[:5]:
        scipys = csc_matrix(a)
        for name in ("data", "indices", "indptr"):
            assert getattr(csc, name).dtype == getattr(scipys, name).dtype
            assert _bits(getattr(csc, name)) == _bits(getattr(scipys, name))


def test_singular_basis_still_returns_false():
    form = SosModelBuilder(example1(), example1_library()).build().model.to_matrices()
    sf = StandardFormLP.from_matrix_form(form)
    singular = solve_revised(sf).basis.basic.copy()
    singular[1] = singular[0]
    with pytest.raises(RuntimeError):
        splu(csc_matrix(sf.a)[:, singular].tocsc())
    with pytest.raises(RuntimeError):
        revised._splu(revised._basis_csc(sf.csc_arrays(), singular))
    assert not _SparseLUFactor(sf).refactor(singular)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(revised, "_GSTRF", None)
        assert not _SparseLUFactor(sf).refactor(singular)


def _blas_threads() -> int:
    """Threads the BLAS may use: its environment setting, capped by the
    CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(name, "").isdigit():
            return min(int(os.environ[name]), cpus)
    return cpus


def _openblas_core() -> str:
    """The kernel family NumPy's bundled OpenBLAS chose on this CPU, or
    ``""`` when NumPy's BLAS is not a bundled OpenBLAS."""
    numpy_dir = pathlib.Path(np.__file__).parent
    for lib in sorted(numpy_dir.parent.glob("numpy.libs/*openblas*")) + sorted(
        numpy_dir.glob(".dylibs/*openblas*")
    ):
        blas = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(blas, name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return ""


#: OpenBLAS kernel families whose ``dgemv`` splits its output as
#: :meth:`StandardFormLP.row_product` assumes: worked out for Haswell's
#: ``dgemv_t`` (4-wide tails, output split evenly), checked on SkylakeX.
ROW_PRODUCT_CORES = ("Haswell", "SkylakeX")


@pytest.mark.skipif(
    _openblas_core() not in ROW_PRODUCT_CORES,
    reason="the structural row product's column padding is worked out for "
    "OpenBLAS's Haswell and SkylakeX dgemv kernels; other BLAS kernels "
    "may split the full product's columns elsewhere",
)
@pytest.mark.skipif(
    _blas_threads() > 2,
    reason="with more than two BLAS threads the full product may sum some "
    "structural columns in another order",
)
def test_structural_row_product_matches_the_full_product(recorded):
    _, rows = recorded
    assert len(rows) >= 50
    assert any(width for _, width, *_ in rows)
    for n, _, a, y, sparse, out in rows:
        full = revised._row_times_matrix(y, a) if sparse else y @ a
        assert _bits(out[:n]) == _bits(full[:n])
        # The logical part may differ only in the sign of a zero.
        assert np.array_equal(out[n:], full[n:])
