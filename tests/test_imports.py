"""Every name a package module imports is used in that module.

Each ``src/elladic/*.py`` except ``__init__.py`` (whose imports are its
re-exports) is parsed with ``ast``; a name bound by ``import`` or
``from ... import`` that no expression of the module reads is reported.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "elladic"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in read)


def test_checker_reports_an_unused_name():
    source = "import math\nimport os.path\nfrom fractions import Fraction as F\nx = math.pi\n"
    assert unused_imports(source) == ["F", "os"]


def test_modules_found():
    assert {"padic", "measures", "lfunctions", "cli"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
