"""Every name a package module imports is used in that module, every
private helper is used somewhere in the package, and every public name is
defined and re-exported.

Each ``src/elladic/*.py`` except ``__init__.py`` (whose imports are its
re-exports) is parsed with ``ast``; a name bound by ``import`` or
``from ... import`` that no expression of the module reads is reported.  A
module-level private function or class (``_name``) that no code of
``src/elladic`` outside its own body reads, as a name or an attribute, is
reported as dead.  A name in a module's ``__all__`` that the module does not
bind at top level, or that ``__init__.py`` does not import, is reported.
"""

import ast
from collections import Counter
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


def names_read(tree) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute)))


def dead_private_names(sources) -> list:
    trees = [ast.parse(source) for source in sources]
    reads = sum((names_read(tree) for tree in trees), Counter())
    return sorted(
        node.name for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and reads[node.name] == names_read(node)[node.name]
    )


def test_checker_reports_a_dead_private_name():
    sources = [
        "def _used(): pass\ndef _dead(): return _dead()\nclass _Gone: pass\nx = _used()\n",
        "import m\ny = m._other()\n",
        "def _other(): pass\n",
    ]
    assert dead_private_names(sources) == ["_Gone", "_dead"]


def test_no_dead_private_helper():
    assert dead_private_names(p.read_text() for p in sorted(SRC.glob("*.py"))) == []


def module_all(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def top_level_names(tree) -> set:
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
    return out


def missing_public_names(module_source: str, init_source: str) -> tuple:
    """(names of ``__all__`` the module does not bind, names it lists that
    the package ``__init__`` does not import)."""
    tree = ast.parse(module_source)
    public = set(module_all(tree))
    return (sorted(public - top_level_names(tree)),
            sorted(public - top_level_names(ast.parse(init_source))))


def test_checker_reports_missing_public_names():
    module = '__all__ = ["f", "g", "h", "X"]\ndef f(): pass\nfrom x import g\nX: int = 1\n'
    init = "from .m import f, X\n"
    assert missing_public_names(module, init) == (["h"], ["g", "h"])


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_public_names_defined_and_exported(path):
    init = (SRC / "__init__.py").read_text()
    assert missing_public_names(path.read_text(), init) == ([], [])
