"""The private numpy/scipy cores: pinned to their public twins, resolved at
import, and called from ``nlch._cores`` only."""

import ast
import importlib.util
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.fft
from numpy._core import multiarray, umath
from numpy.linalg import _umath_linalg
from scipy.fft._pocketfft import pypocketfft

from nlch._cores import (_POCKETFFT, cholesky_lo, clip, correlate, dctn, householder_qr, idctn,
                         irfftn, linalg_errstate, rfftn, solve1)

SRC = Path(__file__).resolve().parent.parent / "src" / "nlch"


def _bits(x):
    """The bit patterns of a float or complex array, two words per complex entry."""
    return np.ascontiguousarray(x, dtype=complex if np.iscomplexobj(x) else float).view(
        np.uint64)


def _dct_case(dim, n, cols):
    x = np.random.default_rng(n + dim).standard_normal((n,) * dim + cols)
    return x, tuple(range(dim))


def _core_fft_pair(x, axes):
    """The padded FFT pair of KernelOp._apply_fft: x zero-padded to 2n per
    axis, its spectrum, and the spectrum's inverse."""
    n, dim = x.shape[0], len(axes)
    pad = np.zeros((2 * n,) * dim + x.shape[dim:])
    pad[(slice(0, n),) * dim] = x
    spectrum = rfftn(pad, axes)
    return spectrum, irfftn(spectrum, axes, 2 * n)


def _scipy_fft_pair(x, axes):
    shape = (2 * x.shape[0],) * len(axes)
    spectrum = scipy.fft.rfftn(x, s=shape, axes=axes)
    return spectrum, scipy.fft.irfftn(spectrum, s=shape, axes=axes)


def _qr_case(dim, n, m, cond=None):
    rng = np.random.default_rng(n + m)
    a = rng.standard_normal((n**dim, m))
    if cond is not None:
        # singular values spread evenly over log10(cond) decades
        left, _ = np.linalg.qr(a)
        right, _ = np.linalg.qr(rng.standard_normal((m, m)))
        a = (left * np.logspace(0.0, -math.log10(cond), m)) @ right.T
    return (a,)


def _core_dct_pair(x, axes):
    coef = dctn(x, axes)
    forward = coef.copy()
    assert idctn(coef, axes) is coef        # the inverse runs in place
    return forward, coef


def _scipy_dct_pair(x, axes):
    coef = scipy.fft.dctn(x, type=2, norm="ortho", axes=axes)
    return coef, scipy.fft.idctn(coef, type=2, norm="ortho", axes=axes)


def _core_qr(a):
    q, diag = householder_qr(a.copy())
    return q, np.abs(diag)


def _numpy_qr(a):
    q, r = np.linalg.qr(a)
    return q, np.abs(np.diag(r))


def _gram_case(k, sine=None):
    """The Gram matrix of k unit columns on 256 nodes and the fit's right side,
    as Anderson mixing builds them; with ``sine``, the newest column lies
    within that sine of the span of the older ones."""
    rng = np.random.default_rng(k)
    F = rng.standard_normal((256, k))
    if sine is not None:
        F[:, -1] = F[:, :-1] @ rng.standard_normal(k - 1) + sine * F[:, -1]
    F /= np.sqrt(np.einsum("ij,ij->j", F, F))
    return F.T @ F, F.T @ rng.standard_normal(256)


def _core_cholesky(gram, rhs):
    with linalg_errstate():
        return (cholesky_lo(gram),)


def _core_solve(gram, rhs):
    with linalg_errstate():
        return (solve1(gram, rhs),)


def _clip_case(kind):
    if kind == "specials":
        tiny = np.finfo(float).smallest_subnormal
        x = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                      1.0 - tiny, 1.0, np.nextafter(1.0, 2.0), -1e-300, 1.5, -2.0, 0.25])
    else:
        x = np.random.default_rng(4).uniform(-0.5, 1.5, 256)
    return (x,)


def _core_clip(x):
    out = x.copy()
    assert clip(out, 0.0, 1.0, out=out) is out
    return (out,)


def _numpy_clip(x):
    return (np.clip(x, 0.0, 1.0),)


def _correlate_case(n, mode):
    """A field and, for 'same', symmetric taps that fit in it, or, for
    'valid', a whole 2n - 1 generator: the two applies of KernelOp._apply_taps."""
    h = 1.0 / n
    rho = np.random.default_rng(n).uniform(0.0, 1.0, n)
    half = n // 4 if mode == "same" else n - 1
    # evaluated on |d|, so g[d] and g[-d] are the same number
    d = np.abs(np.arange(-half, half + 1)) * h
    return rho, np.exp(-(d * d) / 0.05) * h, mode


def _core_correlate(rho, v, mode):
    if mode == "same":
        return (correlate(rho, v, 1),)
    return (correlate(v, rho[::-1], 0),)


def _numpy_convolve(rho, v, mode):
    return (np.convolve(rho, v, mode),)


# k = 1..5 columns, and a newest column nearly in the span of the older ones:
# Cholesky diagonals on both sides of ANDERSON_SIN_TOL = 1e-7
GRAM_CASES = {**{f"k{k}": (k,) for k in range(1, 6)},
              "k3-sine1e-6": (3, 1e-6), "k5-sine1e-7": (5, 1e-7), "k2-sine1e-7": (2, 1e-7)}

# (core, public twin, case builder, cases): each core call against its twin
PINS = {
    "dctn-idctn": (_core_dct_pair, _scipy_dct_pair, _dct_case,
                   {"-".join(map(str, (f"{dim}d", n) + cols)): (dim, n, cols)
                    for dim in (1, 2) for n in (8, 24, 64, 256) for cols in ((), (3,))}),
    "r2c-c2r": (_core_fft_pair, _scipy_fft_pair, _dct_case,
                {"-".join(map(str, (f"{dim}d", n) + cols)): (dim, n, cols)
                 for dim, sizes in ((1, (512, 600)), (2, (24, 64))) for n in sizes
                 for cols in ((), (3,))}),
    "householder_qr": (_core_qr, _numpy_qr, _qr_case,
                       {"1d-64-1": (1, 64, 1), "1d-64-30": (1, 64, 30),
                        "1d-256-1": (1, 256, 1), "1d-256-30": (1, 256, 30),
                        "2d-16-30": (2, 16, 30), "1d-256-30-cond1e10": (1, 256, 30, 1e10)}),
    "cholesky_lo": (_core_cholesky, lambda gram, rhs: (np.linalg.cholesky(gram),), _gram_case,
                    GRAM_CASES),
    "solve1": (_core_solve, lambda gram, rhs: (np.linalg.solve(gram, rhs),), _gram_case,
               GRAM_CASES),
    "clip": (_core_clip, _numpy_clip, _clip_case, {"specials": ("specials",),
                                                   "1d-256": ("random",)}),
    "correlate": (_core_correlate, _numpy_convolve, _correlate_case,
                  {f"{mode}-{n}": (n, mode) for mode in ("same", "valid")
                   for n in (8, 64, 256, 511)}),
}


@pytest.mark.parametrize("core,twin,build,case", [
    pytest.param(core, twin, build, case, id=f"{name}-{cid}")
    for name, (core, twin, build, cases) in PINS.items() for cid, case in cases.items()])
def test_core_is_its_public_twin_bit_for_bit(core, twin, build, case):
    args = build(*case)
    got, want = core(*args), twin(*args)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))


@pytest.mark.parametrize("core,twin,args", [
    pytest.param(cholesky_lo, np.linalg.cholesky, (np.array([[1.0, 2.0], [2.0, 1.0]]),),
                 id="cholesky-indefinite"),
    pytest.param(cholesky_lo, np.linalg.cholesky, (np.ones((3, 3)),), id="cholesky-singular"),
    pytest.param(solve1, np.linalg.solve, (np.ones((3, 3)), np.ones(3)), id="solve-singular"),
    pytest.param(solve1, np.linalg.solve, (np.zeros((2, 2)), np.ones(2)), id="solve-zero"),
])
def test_a_linalg_core_answers_its_twins_error_with_nans_silently(core, twin, args):
    with pytest.raises(np.linalg.LinAlgError):
        twin(*args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with linalg_errstate():
            got = core(*args)
    # the shape of the factor, or of the solution
    assert got.shape == args[-1].shape and np.isnan(got).all()


def _is_private(dotted: str) -> bool:
    return any(part.startswith("_") and not part.endswith("__") for part in dotted.split("."))


def _private_uses(tree: ast.Module) -> list[str]:
    """Every private numpy/scipy module or name that ``tree`` imports or reads."""
    found, bound = [], {}       # bound: local name -> the numpy/scipy path it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in ("numpy", "scipy"):
                    if _is_private(alias.name):
                        found.append(alias.name)
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] in ("numpy", "scipy"):
            for alias in node.names:
                path = f"{node.module}.{alias.name}"
                if _is_private(path):
                    found.append(path)
                bound[alias.asname or alias.name] = path
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                path = ".".join([bound[base.id]] + chain[::-1])
                if _is_private(".".join(chain)):
                    found.append(path)
    return found


def test_only_cores_touches_private_numpy_or_scipy_names():
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "_cores.py":
            uses = _private_uses(ast.parse(path.read_text(), filename=str(path)))
            if uses:
                offenders[path.name] = uses
    assert offenders == {}
    # the walk finds a private module, a private name and a private attribute
    assert _private_uses(ast.parse("from scipy.fft._pocketfft import x\n"
                                   "from numpy.linalg import _umath_linalg\n"
                                   "import numpy as np\nnp.linalg._x\n")) == [
        "scipy.fft._pocketfft.x", "numpy.linalg._umath_linalg", "numpy.linalg._x"]


def _exec_fresh_cores():
    """Run a fresh copy of src/nlch/_cores.py, as ``import nlch`` would."""
    spec = importlib.util.spec_from_file_location("nlch_cores_fresh", SRC / "_cores.py")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _assert_names_the_core(err, name):
    message = str(err.value)
    assert f".{name}," in message
    assert f"numpy {np.__version__}" in message
    assert f"scipy {scipy.__version__}" in message


@pytest.mark.parametrize("module,name", [(pypocketfft, "dct"), (pypocketfft, "r2c"),
                                         (pypocketfft, "c2r"), (_umath_linalg, "qr_r_raw"),
                                         (_umath_linalg, "qr_reduced"),
                                         (_umath_linalg, "cholesky_lo"), (_umath_linalg, "solve1"),
                                         (umath, "clip"), (multiarray, "correlate")])
def test_a_missing_core_fails_the_import_naming_it(monkeypatch, module, name):
    # pocketfft is the module nlch loaded by file: scipy.fft reused it
    assert sys.modules[_POCKETFFT] is pypocketfft
    monkeypatch.delattr(module, name)
    with pytest.raises(ImportError) as err:
        _exec_fresh_cores()
    _assert_names_the_core(err, name)


def test_a_missing_pocketfft_file_fails_the_import_naming_it(monkeypatch, tmp_path):
    """With no module registered under its name, pocketfft is looked for as
    an extension file in scipy's tree: here an empty one."""
    monkeypatch.delitem(sys.modules, _POCKETFFT)
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError) as err:
        _exec_fresh_cores()
    _assert_names_the_core(err, "dct")
    assert _POCKETFFT not in sys.modules


def test_scipy_fft_reuses_the_pocketfft_loaded_by_file():
    """In a fresh process nlch loads pocketfft from its file, with no
    scipy.fft package init; a later ``import scipy.fft`` takes that module,
    and its public transforms still equal nlch's cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = f"""
import sys
import numpy as np
import nlch
from nlch import _cores
assert "scipy.fft" not in sys.modules
loaded = sys.modules[{_POCKETFFT!r}]
import scipy.fft
from scipy.fft._pocketfft import pypocketfft
assert pypocketfft is loaded and _cores._dct is loaded.dct and _cores._r2c is loaded.r2c
x = np.random.default_rng(0).standard_normal((24, 24, 3))
assert np.array_equal(_cores.dctn(x, (0, 1)).view(np.uint64),
                      scipy.fft.dctn(x, type=2, norm="ortho", axes=(0, 1)).view(np.uint64))
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
