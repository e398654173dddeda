"""Every name a scalolab module imports is read in that module: an import
that a deletion leaves behind fails here.  The package's `__init__.py`,
whose imports are its public names, is exempt.  And every module the
package imports, at module level or inside a function, is the standard
library's, numpy's or scalolab's own: numpy is the one runtime dependency."""

import ast
import json
import subprocess
import sys
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


def _foreign_imports(source: str) -> list:
    """(line, module) of each import, anywhere in the source, of a module outside the standard library,
    numpy and scalolab; a relative import is scalolab's own."""
    nodes = list(ast.walk(ast.parse(source)))
    modules = [(node.lineno, alias.name) for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    modules += [(node.lineno, node.module) for node in nodes if isinstance(node, ast.ImportFrom) and node.level == 0]
    return [(line, name) for line, name in sorted(modules)
            if name.split(".")[0] not in (*sys.stdlib_module_names, "numpy", "scalolab")]


def test_the_scan_finds_a_foreign_import_inside_a_function():
    source = ("import os, numpy.linalg\nfrom . import wavelet\nfrom scalolab.errors import ConfigError\n"
              "def rule(n):\n    import hashlib\n    from scipy.special import roots_hermitenorm\n")
    assert _foreign_imports(source) == [(6, "scipy.special")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_imports_only_the_standard_library_and_numpy(module):
    assert _foreign_imports((SRC / module).read_text(encoding="utf-8")) == []


_TEST_RUN = {"mode": "test", "model": {"d": 0.35}, "g": "hermite:1", "bank": {"family": "db2", "jmax": 7},
             "n": 4096, "j": 3, "p": 2, "seed": 6, "d0_star": 0.35, "alpha": 0.1}


@pytest.mark.parametrize("call", [
    pytest.param("import scalolab", id="import"),
    pytest.param("from scalolab import expand; assert set(expand(lambda x: x**3).coeffs) == {1, 3}", id="cubic"),
    pytest.param("import math, numpy as np; from scalolab import expand; "
                 "assert len(expand(lambda x: np.exp(x / 2) - math.exp(0.125)).coeffs) == 14", id="exp-centered"),
    pytest.param("from scalolab import cli; sys.exit(cli.main(['test', '--config', sys.argv[1]]))", id="cli-test"),
])
def test_runs_where_scipy_cannot_be_imported(call, tmp_path):
    config = tmp_path / "t.json"
    config.write_text(json.dumps({**_TEST_RUN, "out": str(tmp_path / "t")}))
    r = subprocess.run([sys.executable, "-c", "import sys; sys.modules['scipy'] = None; " + call, str(config)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
