"""LAPACK's banded Cholesky routines, called in the library numpy links.

The implicit-Euler steps need two LAPACK routines: `dpbtrf`, which factors a
symmetric positive definite band matrix, and `dpbtrs`, which solves with the
factor (Anderson et al., LAPACK Users' Guide, 3rd ed., SIAM 1999).  They are
called through ctypes on the handle of `numpy.linalg._umath_linalg`, the
extension module numpy's own linear algebra runs on.  A symbol looked up on
that handle is searched in the libraries the module links too, so it is
found in the LAPACK numpy was built with, and no solving process imports
scipy.linalg (28 MB of resident memory and 0.3 s of start-up).

The symbol names depend on the build.  numpy's PyPI wheels bundle an ILP64
OpenBLAS whose names carry a prefix and a suffix (`scipy_dpbtrf_64_`), other
ILP64 builds have only the suffix (`dpbtrf_64_`), and an LP64 LAPACK has the
plain Fortran names with 32-bit integers (`dpbtrf_`).  `SYMBOLS` lists them
in that order, and the first pattern under which both routines resolve is
taken.  If none does, importing this module raises ImportError: the solver
has no other solve path.

Importing this module also sets numpy's BLAS to one thread, for the whole
process, so that results do not depend on the host's core count: with two
OpenBLAS threads a 129x129x32 separable sweep, and `np.vdot` over a 65x65x64
field, gave other bytes.  The setter is the first of `THREAD_SETTERS` that
the same handle resolves, and `THREAD_SETTER` names it.  A build that
exports none (not OpenBLAS) keeps its own thread count, and THREAD_SETTER
is None: the solves are right with any count, so import does not fail, but
the last bits then follow that library's own setting.

Every argument goes by reference, and a Fortran character argument (`uplo`)
carries a hidden length after the last one.  A solve's arguments are built
once per factor (`pbtrs_block`) and only the right-hand side's address is
set per call: one 5x5 solve then takes about 1.25 us, against 0.75 us for
scipy's f2py wrapper of the same routine.
"""

import ctypes

import numpy as np
import numpy.linalg._umath_linalg as _umath_linalg

# (name pattern, LAPACK integer type), in the order they are tried
SYMBOLS = (("scipy_{}_64_", ctypes.c_int64), ("{}_64_", ctypes.c_int64),
           ("{}_", ctypes.c_int32))
# the BLAS thread-count setters, in the order they are tried
THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                  "openblas_set_num_threads")
# the hidden length of the one-character argument uplo
_UPLO_LENGTH = ctypes.c_size_t(1)


def _lookup():
    """(dpbtrf, dpbtrs, integer type) of the first `SYMBOLS` pattern that
    numpy's LAPACK resolves both routines under."""
    library = ctypes.CDLL(_umath_linalg.__file__)
    for pattern, integer in SYMBOLS:
        try:
            routines = [getattr(library, pattern.format(name)) for name in ("dpbtrf", "dpbtrs")]
        except AttributeError:
            continue
        for routine in routines:
            routine.restype = None
        return routines[0], routines[1], integer
    raise ImportError(
        f"numpy's LAPACK ({_umath_linalg.__file__} and the libraries it links) "
        f"exports none of {', '.join(pattern.format('dpbtrf') for pattern, _ in SYMBOLS)}")


def _pin_one_thread():
    """Set numpy's BLAS to one thread with the first `THREAD_SETTERS` symbol
    it exports; returns that symbol's name, or None if there is none."""
    library = ctypes.CDLL(_umath_linalg.__file__)
    for name in THREAD_SETTERS:
        setter = getattr(library, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)
            return name
    return None


_pbtrf, _pbtrs, _int = _lookup()
THREAD_SETTER = _pin_one_thread()


def _ref(value):
    return ctypes.byref(_int(value))


def pbtrf_lower(band):
    """Factor the SPD matrix whose lower band is `band` in place, as L L^T.

    band, (kd + 1, n) float64 and Fortran-ordered, holds A[k + d, k] at
    [d, k] (the layout of scipy's `cholesky_banded(lower=True)`); on return
    it holds L[k + d, k] there.  A matrix that is not positive definite
    raises np.linalg.LinAlgError, as `cholesky_banded` does.
    """
    if band.dtype != np.float64 or not band.flags.f_contiguous:
        raise ValueError("the band must be a Fortran-ordered float64 array")
    info = _int()
    _pbtrf(b"L", _ref(band.shape[1]), _ref(band.shape[0] - 1),
           band.ctypes.data_as(ctypes.c_void_p), _ref(band.shape[0]), ctypes.byref(info),
           _UPLO_LENGTH)
    if info.value > 0:
        raise np.linalg.LinAlgError(f"{info.value}-th leading minor not positive definite")
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of dpbtrf")
    return band


def pbtrs_block(factor):
    """The argument block of `pbtrs` with an upper band factor, built once.

    factor is U (K = U^T U), (kd + 1, n) float64 and Fortran-ordered, in the
    upper band layout; the block solves with it for one right-hand side of n
    entries.  It is (arguments, right-hand side pointer, info): `pbtrs` sets
    the pointer and reads info, the rest is passed as it is.
    """
    if factor.dtype != np.float64 or not factor.flags.f_contiguous:
        raise ValueError("the factor must be a Fortran-ordered float64 array")
    rhs, info = ctypes.c_void_p(), _int()
    n = factor.shape[1]
    arguments = (b"U", _ref(n), _ref(factor.shape[0] - 1), _ref(1),
                 factor.ctypes.data_as(ctypes.c_void_p), _ref(factor.shape[0]), rhs, _ref(n),
                 ctypes.byref(info), _UPLO_LENGTH)
    return arguments, rhs, info


def pbtrs(block, address):
    """Solve K x = b in place for the contiguous float64 right-hand side b at
    `address`, with the factor of the argument block (`pbtrs_block`)."""
    arguments, rhs, info = block
    rhs.value = address
    _pbtrs(*arguments)
    if info.value:
        raise RuntimeError(f"LAPACK dpbtrs failed with info = {info.value}")


def address(array):
    """The address of a C-contiguous array's first entry."""
    return ctypes.addressof(ctypes.c_char.from_buffer(array))
