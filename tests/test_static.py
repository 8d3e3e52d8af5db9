"""Static checks over the package source."""

import ast
import pathlib

import pytest

import blockboot

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "blockboot"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

#: Marks the line above an import that exists only for perfbench/tracing.py to wrap.
TRACED = "# Traced by perfbench"
TRACED_IMPORTS = {
    ("harness", "counts_from_indices"),
    ("harness", "empirical_quantile"),
    ("vmstat", "block_counts_per_replicate"),
    ("vmstat", "empirical_quantile"),
}


def unused_imports(source: str) -> tuple[list[str], list[str]]:
    """``(unused, traced)``: names imported and never read, outside and inside traced imports."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused, traced = [], []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        marked = node.lineno > 1 and lines[node.lineno - 2].startswith(TRACED)
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                (traced if marked else unused).append(name)
    return unused, traced


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\n# Traced by perfbench/tracing.py.\nfrom x import y\nsys.exit()\n"
    assert unused_imports(source) == (["os"], ["y"])


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_import_is_read(path):
    unused, _ = unused_imports(path.read_text())
    assert unused == []


def test_public_names_are_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(blockboot.__all__) == sorted(["__version__", *imported])


def test_only_the_traced_imports_go_unread():
    traced = {(path.stem, name) for path in MODULES for name in unused_imports(path.read_text())[1]}
    assert traced == TRACED_IMPORTS
