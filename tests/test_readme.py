"""The README's promises: its Public API list is ``nlch.__all__``, each listed
name explains itself, and its quickstart and example configuration run."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import nlch
from nlch.cli import execute, parse_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

# the functions that left the package namespace and stay in their modules
MODULE_ONLY = {"grid": ["integrate"],
               "model": ["chemical_potential", "f_prime", "mobility_deriv", "reaction_deriv",
                         "reaction_eval"],
               "tangent": ["cosine_frame", "tangent_step"]}


def _section(title: str) -> str:
    """The README's text under ``## title``, up to the next section."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _code_block(title: str, language: str) -> str:
    """The first ``language`` code block of the section ``title``."""
    return re.search(rf"```{language}\n(.*?)```", _section(title), re.S).group(1)


def _api_list() -> dict[str, list[str]]:
    """The Public API list: each bullet's module and the names after it."""
    bullets = re.findall(r"^- `(\w+)`: (.*?)(?=^- |\Z)", _section("Public API"), re.M | re.S)
    return {module: re.findall(r"`(\w+)`", names) for module, names in bullets}


def test_the_public_api_list_is_all():
    listed = [name for names in _api_list().values() for name in names]
    assert sorted(listed) == sorted(set(listed)) == nlch.__all__
    assert not any(type(getattr(nlch, name)) is type(nlch) for name in nlch.__all__)


def test_each_name_is_listed_under_its_module():
    for module, names in _api_list().items():
        for name in names:
            assert getattr(nlch, name).__module__ == f"nlch.{module}", name


@pytest.mark.parametrize("name", nlch.__all__)
def test_each_name_has_a_docstring_of_its_own(name):
    # a dataclass without one gets its signature as __doc__
    doc = getattr(nlch, name).__doc__
    assert doc and doc.strip() and not doc.startswith(f"{name}(")


@pytest.mark.parametrize("module,name", [(m, n) for m, names in MODULE_ONLY.items()
                                         for n in names])
def test_a_module_only_function_imports_from_its_module(module, name):
    assert callable(getattr(importlib.import_module(f"nlch.{module}"), name))
    assert not hasattr(nlch, name)


def test_the_quickstart_prints_a_rate_near_one():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_code_block("Library quickstart", "python"), "README.md", "exec"), {})
    rate, r2 = map(float, out.getvalue().split())
    assert rate == pytest.approx(1.0, abs=0.02) and r2 >= 0.99


def test_the_example_configuration_runs(tmp_path):
    cfg = parse_config(_code_block("Command-line interface", "ini"))
    assert execute(cfg, tmp_path, "run") == 0
