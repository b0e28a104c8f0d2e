"""Source checks: result-guarding invariants must survive `python -O`, every
export resolves, every exception has one of the two error bases, and README's
library sketch runs."""

import ast
import importlib
from pathlib import Path

import pytest

import unitary_powers
from unitary_powers._numth import EnumerationBoundError, InvariantError
from unitary_powers.cli import UsageError

MODULES = sorted(Path(unitary_powers.__file__).resolve().parent.glob("*.py"))


def test_every_module_is_found():
    assert {m.name for m in MODULES} >= {"__init__.py", "cli.py", "gf.py", "oracle.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements; invariants raise real exceptions
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize(
    "module",
    ["unitary_powers"] + [f"unitary_powers.{m.stem}" for m in MODULES if m.stem != "__init__"],
)
def test_every_export_resolves(module):
    # a name left in __all__ after its definition is deleted fails here
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == [], f"{module}.__all__ names undefined {missing}"


def test_every_exception_has_an_error_base():
    # `cli.main` maps the two bases to exits 3 and 4, so an exception class
    # outside them would escape as exit 1 or as a traceback
    found = []
    for path in MODULES:
        mod = importlib.import_module(f"unitary_powers.{path.stem}".replace(".__init__", ""))
        found += [obj for obj in vars(mod).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == mod.__name__]
    assert len(found) >= 8  # the two bases, UsageError and the five layer errors
    for exc in found:
        assert issubclass(exc, (InvariantError, EnumerationBoundError)) or exc is UsageError, exc


def test_readme_library_sketch_runs():
    # the python block of README's "Library sketch" uses only live names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Library sketch)", "exec"), {})
