"""The private numpy/scipy cores: pinned to their public twins, resolved at
import, and called from ``nlch._cores`` only."""

import ast
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.fft
from numpy.linalg import _umath_linalg
from scipy.fft._pocketfft import pypocketfft

from nlch._cores import dctn, householder_qr, idctn

SRC = Path(__file__).resolve().parent.parent / "src" / "nlch"


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _dct_case(dim, n, cols):
    x = np.random.default_rng(n + dim).standard_normal((n,) * dim + cols)
    return x, tuple(range(dim))


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


# (core, public twin, case builder, cases): each core call against its twin
PINS = {
    "dctn-idctn": (_core_dct_pair, _scipy_dct_pair, _dct_case,
                   {"-".join(map(str, (f"{dim}d", n) + cols)): (dim, n, cols)
                    for dim in (1, 2) for n in (8, 24, 64, 256) for cols in ((), (3,))}),
    "householder_qr": (_core_qr, _numpy_qr, _qr_case,
                       {"1d-64-1": (1, 64, 1), "1d-64-30": (1, 64, 30),
                        "1d-256-1": (1, 256, 1), "1d-256-30": (1, 256, 30),
                        "2d-16-30": (2, 16, 30), "1d-256-30-cond1e10": (1, 256, 30, 1e10)}),
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


@pytest.mark.parametrize("module,name", [(pypocketfft, "dct"), (_umath_linalg, "qr_r_raw"),
                                         (_umath_linalg, "qr_reduced")])
def test_a_missing_core_fails_the_import_naming_it(monkeypatch, module, name):
    monkeypatch.delattr(module, name)
    spec = importlib.util.spec_from_file_location("nlch_cores_fresh", SRC / "_cores.py")
    fresh = importlib.util.module_from_spec(spec)
    with pytest.raises(ImportError) as err:
        spec.loader.exec_module(fresh)
    message = str(err.value)
    assert f".{name}," in message
    assert f"numpy {np.__version__}" in message
    assert f"scipy {scipy.__version__}" in message
