"""Source checks: result-guarding invariants must survive `python -O`."""

import ast
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
