"""The kernel stays dependency-free: pyproject declares no runtime
dependency, and every module under src/ imports only the standard library
and globforge itself, in the syntax of the oldest Python that pyproject
allows."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of the modules a source file imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_src_imports_only_stdlib_and_globforge():
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    foreign = {
        str(path.relative_to(ROOT)): sorted(names)
        for path in sources
        if (names := _absolute_imports(path) - set(sys.stdlib_module_names) - {"globforge"})
    }
    assert foreign == {}


def test_src_parses_as_the_oldest_python_pyproject_allows():
    # feature_version refuses syntax newer than 3.10, such as except* (3.11) or a type statement (3.12)
    assert re.search(r'^requires-python = ">=3\.10"$', (ROOT / "pyproject.toml").read_text(), re.M)
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
