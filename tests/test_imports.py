"""Every name a scalolab module imports is read in that module: an import
that a deletion leaves behind fails here.  The package's `__init__.py`,
whose imports are its public names, is exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "scalolab"


def _unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = [(node.lineno, alias.asname or alias.name.split(".")[0])
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(os.sep, pi)\n") == [(2, "tau")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_reads_every_name_it_imports(module):
    assert _unused_imports((SRC / module).read_text(encoding="utf-8")) == []
