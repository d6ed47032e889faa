"""Every name a module imports is used in it, and the library imports no
scipy (numpy is its only runtime dependency); no linter runs on this package."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import nsbox

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    p for p in [*ROOT.glob("src/nsbox/*.py"), *ROOT.glob("tests/*.py")] if p.name != "__init__.py"
)
LIBRARY = sorted(ROOT.glob("src/nsbox/*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_unused_imports():
    source = "import os, os.path as osp\nimport a.b\nfrom c import d, e as f\na.b.g(f)\n"
    assert unused_imports(source) == ["d", "os", "osp"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_packages(source: str) -> set[str]:
    """Top-level package of every absolute import, at any depth of the module."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_finds_imported_packages():
    source = "import a.b, c\nfrom d.e import f\nfrom . import g\ndef h():\n    from scipy import i\n"
    assert imported_packages(source) == {"a", "c", "d", "scipy"}


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_library_imports_no_scipy(path):
    assert "scipy" not in imported_packages(path.read_text(encoding="utf-8"))


#: Every name the package namespace exports, by the module that defines it.
PACKAGE_EXPORTS = {
    "boxes": ("A", "A_PRIME", "AliceSetting", "CorrelationTable", "Locality", "chsh",
              "classify_locality"),
    "causality": ("TSIRELSON_BOUND", "CausalityCheck", "FrontierReport", "causality_condition",
                  "frontier_scan", "tsirelson_check", "variance_lower_bound_a",
                  "variance_lower_bound_ap"),
    "coupling": ("CouplingBounds", "CouplingObjective", "CouplingValidation", "TripleCoupling",
                 "coupling_bounds", "coupling_to_json", "couplings_for_table",
                 "extremal_coupling", "make_scalar_extremal_couplings", "validate_coupling"),
    "macro": ("BatchArrays", "NoiseModel", "batch_lattice", "sample_batches",
              "write_batches_csv"),
    "records": ("Detector", "SignallingReport", "SweepRow", "Verdict", "write_sweep_csv"),
    "signalling": ("ProtocolConfig", "advantage_ceiling", "batch_law", "exact_tv_distance",
                   "make_likelihood_detector", "resource_sweep", "run_protocol",
                   "wilson_interval"),
}
#: Modules that import no numpy when they load, and so neither may a module
#: they import then.
NUMPY_FREE = ("__init__.py", "boxes.py", "causality.py", "cli.py", "coupling.py", "records.py")


@pytest.mark.parametrize("module", sorted(PACKAGE_EXPORTS))
def test_package_names_resolve_to_their_modules(module):
    defining = importlib.import_module(f"nsbox.{module}")
    for name in PACKAGE_EXPORTS[module]:
        assert getattr(nsbox, name) is getattr(defining, name), name


def test_package_dir_lists_every_export():
    exported = {name for names in PACKAGE_EXPORTS.values() for name in names}
    assert exported <= set(dir(nsbox))
    assert exported == set(nsbox.__all__)


def test_every_export_is_used_outside_the_tests():
    """Each exported name appears in src/ beyond its definition, in a
    perfbench module or in the README: a name that only tests reach is an
    oracle and lives in tests/oracles.py."""
    library = "".join(p.read_text(encoding="utf-8") for p in LIBRARY if p.name != "__init__.py")
    elsewhere = "".join(
        p.read_text(encoding="utf-8") for p in [*ROOT.glob("perfbench/*.py"), ROOT / "README.md"]
    )

    def uses(name: str, text: str) -> int:
        return len(re.findall(rf"\b{name}\b", text))

    # the definition is one use in the library
    test_only = [n for n in nsbox.__all__ if uses(n, library) < 2 and not uses(n, elsewhere)]
    assert test_only == []


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'nsbox' has no attribute 'np'"):
        getattr(nsbox, "np")
    assert not hasattr(nsbox, "not_a_name")


def load_time_imports(source: str) -> set[str]:
    """Every module an import outside a function body names: the top-level
    package of an absolute import, and ".name" for a relative one."""
    names = set()
    nodes = list(ast.parse(source).body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:  # from . import m
            names.update("." * node.level + a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + node.module.split(".")[0])
    return names


def test_finds_load_time_imports():
    source = ("import a.b\nif c:\n    from . import d\nclass E:\n    from .f import g\n"
              "def h():\n    import numpy\n")
    assert load_time_imports(source) == {"a", ".d", ".f"}


@pytest.mark.parametrize("name", ["boxes.py", "causality.py", "records.py"])
def test_module_imports_no_numpy_anywhere(name):
    """Not even inside a function: the frontier scan runs in Python floats."""
    tree = ast.parse((ROOT / "src/nsbox" / name).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "numpy" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "numpy"


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_numpy_free_module_imports_no_numpy_when_it_loads(name):
    imports = load_time_imports((ROOT / "src/nsbox" / name).read_text(encoding="utf-8"))
    assert "numpy" not in imports
    relative = {module[1:] + ".py" for module in imports if module.startswith(".")}
    assert relative <= set(NUMPY_FREE)
