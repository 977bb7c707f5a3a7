"""
The private numpy and scipy cores that nlch calls without their public
wrappers.  Each core names its public twin, and tests/test_cores.py pins it
to that twin bit for bit.  A missing core fails ``import nlch``, naming it;
there is no fallback.  This module imports nothing from nlch.

scipy's pocketfft extension module is loaded from its file, without running
the package init of ``scipy.fft``, which imports ``scipy.special`` and would
double the memory of ``import nlch``.  It is registered in ``sys.modules``
under its dotted name, so that a later ``import scipy.fft`` reuses it.
"""

import importlib
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def _load_extension(dotted: str):
    """The compiled scipy module ``dotted``, loaded from its file with none
    of its packages' inits run, or the one ``sys.modules`` already holds."""
    if dotted in sys.modules:
        return sys.modules[dotted]
    package = dotted.rpartition(".")[0].split(".")
    directory = os.path.join(scipy.__path__[0], *package[1:])
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(dotted)
    if spec is None:
        raise ImportError(f"no extension module {dotted} in {directory}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[dotted] = module
    return module


def _bind(module: str, name: str, load=importlib.import_module):
    """``module.name``, or an ImportError naming it and the installed versions."""
    try:
        return getattr(load(module), name)
    except (ImportError, AttributeError) as err:
        raise ImportError(
            f"nlch calls the private core {module}.{name}, which numpy {np.__version__} "
            f"with scipy {scipy.__version__} does not provide (its pins passed on "
            "numpy 2.4.6, scipy 1.17.1)") from err


_dct = _bind(_POCKETFFT, "dct", _load_extension)
# the real-input FFT pair behind scipy.fft.rfftn and irfftn
_r2c = _bind(_POCKETFFT, "r2c", _load_extension)
_c2r = _bind(_POCKETFFT, "c2r", _load_extension)
_qr_r_raw = _bind("numpy.linalg._umath_linalg", "qr_r_raw")     # one gufunc since numpy 2.1
_qr_reduced = _bind("numpy.linalg._umath_linalg", "qr_reduced")
# the LAPACK gufuncs behind np.linalg.cholesky(a) (the lower factor) and
# np.linalg.solve(a, b) for a vector b.  Where a twin raises LinAlgError its
# core fills the result with NaNs and raises the 'invalid' flag: call them
# under ``linalg_errstate()``
cholesky_lo = _bind("numpy.linalg._umath_linalg", "cholesky_lo")
solve1 = _bind("numpy.linalg._umath_linalg", "solve1")
# the ufunc behind np.clip(a, lo, hi, out=out), called the same way
clip = _bind("numpy._core.umath", "clip")
# the core behind np.convolve: for len(v) <= len(a), np.convolve(a, v, mode)
# is correlate(a, v[::-1], mode) with the modes "valid", "same" and "full"
# numbered 0, 1 and 2
correlate = _bind("numpy._core.multiarray", "correlate")


def dctn(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Orthonormal DCT-II of a float64 array over ``axes``, in a new array.
    Twin: ``scipy.fft.dctn(x, type=2, norm="ortho", axes=axes)``."""
    return _dct(x, 2, axes, 1, None, 1)


def idctn(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Inverse of ``dctn`` over ``axes``, in place: ``x`` is overwritten and
    returned.  Twin: ``scipy.fft.idctn(x, type=2, norm="ortho", axes=axes)``."""
    return _dct(x, 3, axes, 1, x, 1)


def rfftn(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The real-input DFT of a float64 array over ``axes``, in a new array.
    Twin: ``scipy.fft.rfftn(x, axes=axes)``."""
    return _r2c(x, axes, True, 0, None, 1)


def irfftn(x: np.ndarray, axes: tuple[int, ...], lastsize: int) -> np.ndarray:
    """The inverse of ``rfftn`` over ``axes``, whose last axis has
    ``lastsize`` real points, in a new array.  Twin: ``scipy.fft.irfftn(x,
    s, axes=axes)`` with ``s`` the lengths of ``axes`` and ``lastsize``
    last."""
    return _c2r(x, axes, lastsize, False, 2, None, 1)


def householder_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reduced Q and the R diagonal of the twin ``np.linalg.qr(a)``: its
    gufunc ``qr_r_raw`` factors ``a`` in place, leaving R in the upper
    triangle, and ``qr_reduced`` forms Q.  ``a`` is overwritten."""
    tau = _qr_r_raw(a)
    return _qr_reduced(a, tau), a.diagonal()


def linalg_errstate() -> np.errstate:
    """np.linalg's own errstate, with 'invalid' ignored where np.linalg raises:
    under it ``cholesky_lo`` and ``solve1`` answer a matrix their twins reject
    with NaNs, and warn of nothing."""
    return np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore")
