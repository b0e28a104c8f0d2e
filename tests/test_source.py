"""Source checks: result-guarding invariants must survive `python -O`, every
export resolves, and README's library sketch runs."""

import ast
import importlib
from pathlib import Path

import pytest

import unitary_powers

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


def test_readme_library_sketch_runs():
    # the python block of README's "Library sketch" uses only live names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Library sketch)", "exec"), {})
