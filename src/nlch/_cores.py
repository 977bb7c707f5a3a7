"""
The private numpy and scipy cores that nlch calls without their public
wrappers.  Each core names its public twin, and tests/test_cores.py pins it
to that twin bit for bit.  A missing core fails ``import nlch``, naming it;
there is no fallback.  This module imports nothing from nlch.
"""

import importlib

import numpy as np
import scipy


def _bind(module: str, name: str):
    """``module.name``, or an ImportError naming it and the installed versions."""
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as err:
        raise ImportError(
            f"nlch calls the private core {module}.{name}, which numpy {np.__version__} "
            f"with scipy {scipy.__version__} does not provide (its pins passed on "
            "numpy 2.4.6, scipy 1.17.1)") from err


_dct = _bind("scipy.fft._pocketfft.pypocketfft", "dct")
_qr_r_raw = _bind("numpy.linalg._umath_linalg", "qr_r_raw")     # one gufunc since numpy 2.1
_qr_reduced = _bind("numpy.linalg._umath_linalg", "qr_reduced")


def dctn(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Orthonormal DCT-II of a float64 array over ``axes``, in a new array.
    Twin: ``scipy.fft.dctn(x, type=2, norm="ortho", axes=axes)``."""
    return _dct(x, 2, axes, 1, None, 1)


def idctn(x: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Inverse of ``dctn`` over ``axes``, in place: ``x`` is overwritten and
    returned.  Twin: ``scipy.fft.idctn(x, type=2, norm="ortho", axes=axes)``."""
    return _dct(x, 3, axes, 1, x, 1)


def householder_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reduced Q and the R diagonal of the twin ``np.linalg.qr(a)``: its
    gufunc ``qr_r_raw`` factors ``a`` in place, leaving R in the upper
    triangle, and ``qr_reduced`` forms Q.  ``a`` is overwritten."""
    tau = _qr_r_raw(a)
    return _qr_reduced(a, tau), a.diagonal()
