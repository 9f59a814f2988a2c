"""The package stays standard-library only and within 100 columns."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sombor").glob("*.py"))


def test_sources_found():
    assert any(p.name == "tree.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = sorted({n.split(".")[0] for n in names} - sys.stdlib_module_names)
    assert outside == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_lines_fit_in_100_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [i for i, line in enumerate(lines, 1) if len(line) > 100]
    assert long == []
