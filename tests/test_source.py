"""Source checks: result-guarding invariants must survive `python -O`, the
three layers import nothing of each other, every export resolves, the
public names stay as they are and load lazily, every exception has one of
the two error bases, and README's library sketch runs."""

import ast
import importlib
import os
import subprocess
import sys
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


def package_imports(path):
    """"module" or "module.name" for each import of a package module in the
    source at path, function-level ones included; a name taken from the
    package itself counts as its defining module's."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".", 1)[1] for a in node.names
                    if a.name.startswith("unitary_powers.")}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "unitary_powers"):
            module = (node.module or "").removeprefix("unitary_powers").lstrip(".")
            for a in node.names:
                home = module or unitary_powers._EXPORTS.get(a.name, a.name)
                out.add(home if home == a.name else f"{home}.{a.name}")
    return out


CLOSED_FORM_LAYERS, ORACLE_LAYER = ("counts", "series", "genfun"), ("gf", "polyalg", "oracle")


def test_layers_import_nothing_of_each_other():
    # the three layers check each other, so the closed forms and the series
    # import nothing of the oracle, and the oracle takes only |U(n, q)| of them
    imports = {path.stem: package_imports(path) for path in MODULES}
    assert "series.group_order_U" in imports["oracle"]  # the scan sees what is there
    crossings = [f"{layer} imports {name}"
                 for layers, barred in ((CLOSED_FORM_LAYERS, ORACLE_LAYER),
                                        (ORACLE_LAYER, CLOSED_FORM_LAYERS))
                 for layer in layers for name in sorted(imports[layer])
                 if name.split(".")[0] in barred and name != "series.group_order_U"]
    assert crossings == []


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


PUBLIC = (
    "ConjugacyDatum", "CountInvariantError", "CountRecord", "EnumerationBoundError",
    "FactorisationError", "Family", "FieldDesc", "FieldInvariantError", "GroupTable",
    "InvariantError", "Kind", "MatrixClassKind", "MatrixRep", "OracleInvariantError",
    "Poly", "PolyClass", "Series", "SeriesInvariantError", "SeriesRequest",
    "binom_factor", "block_matrix", "build_group", "char_poly", "classify", "companion",
    "compose_power", "count_irreducible", "count_mpower_pairs", "count_mtilde_scim",
    "count_pairs", "count_record", "count_scim", "counts", "cyc_class_series",
    "cyc_elem_series", "datum_of", "euler_factor", "factor", "genfun", "gf",
    "gl_class_data", "group_order_GL", "group_order_U", "group_table", "is_irreducible",
    "is_m_power_pair", "is_mtilde_power", "make_field", "oracle", "polyalg",
    "power_image_counts", "s_prime", "s_tilde_prime", "sep_class_series",
    "sep_elem_series", "series", "series_for", "ss_class_series", "ss_elem_series",
    "tilde",
)
SUBMODULES = ("counts", "genfun", "gf", "oracle", "polyalg", "series")


def test_public_names_are_pinned():
    assert sorted(unitary_powers.__all__) == sorted(PUBLIC)
    assert len(PUBLIC) == 60


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_the_object_of_its_module(name):
    obj = getattr(unitary_powers, name)
    if name in SUBMODULES:
        assert obj is importlib.import_module(f"unitary_powers.{name}")
        return
    assert obj.__module__.startswith("unitary_powers.")
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_lazy_exports_read_as_attributes():
    from unitary_powers import oracle

    assert unitary_powers.group_table is oracle.group_table
    assert "__all__" in dir(unitary_powers)
    assert set(PUBLIC) <= set(dir(unitary_powers))
    with pytest.raises(AttributeError, match="no attribute 'applicable_families'"):
        unitary_powers.applicable_families  # genfun's, not exported
    namespace = {}
    exec("from unitary_powers import *", namespace)
    assert set(PUBLIC) <= namespace.keys()


def test_a_bare_package_import_loads_no_submodule():
    src = str(Path(unitary_powers.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, unitary_powers\n"
            "print(*sorted(m for m in sys.modules if m.startswith('unitary_powers.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
