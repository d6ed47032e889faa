"""Every name a module imports is used in it, and the library imports no
scipy (numpy is its only runtime dependency); no linter runs on this package."""

import ast
from pathlib import Path

import pytest

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
