"""The banded Cholesky routines called in numpy's LAPACK (`almpde.lapack`)."""

import ctypes

import numpy as np
import pytest

from almpde import lapack
from almpde.operators import _upper_layout


def _band(rows):
    """A Fortran-ordered lower band from its rows (diagonal first)."""
    return np.asfortranarray(np.array(rows, dtype=np.float64))


def test_factor_and_solve_match_a_dense_solve():
    # a tridiagonal SPD matrix with kd = 1: L from pbtrf, then pbtrs with
    # U = L^T in the upper layout, against numpy's dense solve
    n = 6
    diag, sub = np.full(n, 4.0), np.full(n, -1.0)
    sub[-1] = 0.0
    dense = np.diag(diag) + np.diag(sub[:-1], -1) + np.diag(sub[:-1], 1)
    lower = lapack.pbtrf_lower(_band([diag, sub]))
    np.testing.assert_allclose(np.linalg.cholesky(dense)[np.arange(n), np.arange(n)],
                               lower[0], rtol=1e-15)
    factor = _upper_layout(lower)
    rhs = np.arange(1.0, n + 1.0)
    x = rhs.copy()
    lapack.pbtrs(lapack.pbtrs_block(factor), lapack.address(x))
    np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-14)


def test_factor_of_a_matrix_that_is_not_positive_definite_raises_linalgerror():
    # [[1, -3, 0], [-3, -2, 0.5], [0, 0.5, 1]]: the second leading minor is
    # negative, and scipy's cholesky_banded raised the same error
    with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
        lapack.pbtrf_lower(_band([[1.0, -2.0, 1.0], [-3.0, 0.5, 0.0]]))


def test_factor_and_block_take_only_fortran_ordered_float64():
    with pytest.raises(ValueError, match="Fortran-ordered"):
        lapack.pbtrf_lower(np.ones((2, 3)))
    with pytest.raises(ValueError, match="Fortran-ordered"):
        lapack.pbtrs_block(np.ones((2, 3), dtype=np.float32, order="F"))


def test_solve_with_nonzero_info_raises_runtimeerror():
    # a factor of order 0 gives ldb = 0, which LAPACK rejects as its
    # eighth argument (info = -8) without touching the right-hand side
    rhs = np.zeros(1)
    with pytest.raises(RuntimeError, match="info = -8"):
        lapack.pbtrs(lapack.pbtrs_block(np.zeros((1, 0), order="F")), lapack.address(rhs))


def test_lookup_without_a_candidate_symbol_raises_importerror(monkeypatch):
    monkeypatch.setattr(lapack, "SYMBOLS", (("no_such_{}_", ctypes.c_int32),))
    with pytest.raises(ImportError, match="numpy's LAPACK") as info:
        lapack._lookup()
    assert "no_such_dpbtrf_" in str(info.value)


def test_address_is_that_of_the_first_entry():
    x = np.arange(12.0).reshape(3, 4)
    assert lapack.address(x) == x.ctypes.data
    assert lapack.address(x[1]) == x.ctypes.data + x.strides[0]


def test_numpy_blas_runs_one_thread_under_the_test_suite():
    # conftest.py pins the thread count before numpy loads; OpenBLAS reports
    # the count it took up through its own symbol
    library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        get_num_threads = getattr(library, name, None)
        if get_num_threads is not None:
            break
    else:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
    assert get_num_threads() == 1


def test_a_build_without_a_thread_setter_keeps_its_own_count(monkeypatch):
    # the pin is best effort: a BLAS that exports no setter is left as it
    # is, and importing does not fail
    monkeypatch.setattr(lapack, "THREAD_SETTERS", ("no_such_set_num_threads_",))
    assert lapack._pin_one_thread() is None
