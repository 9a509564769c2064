"""Every name a package module imports is used in that module, every
private helper is used somewhere in the package, and every public name is
defined, re-exported and reached.

Each ``src/elladic/*.py`` except ``__init__.py`` (whose imports are its
re-exports) is parsed with ``ast``; a name bound by ``import`` or
``from ... import`` that no expression of the module reads is reported.  A
module-level private function or class (``_name``) that no code of
``src/elladic`` outside its own body reads, as a name or an attribute, is
reported as dead.  A name in a module's ``__all__`` that the module does not
bind at top level, or that ``__init__.py`` does not import, is reported.
A name in a module's ``__all__`` that no package module reads outside its
own definition, and no ``demos/*.py`` reads, is reported unless ``ORACLES``
names it with the check that keeps it; a stale or unexported ``ORACLES``
entry is reported too.  Likewise a parameter with a default, of a public
function or of a public class's public method or ``__init__``, that no call
of that name sets, by keyword or by position, in a package module outside
the function's own body or in a demo, is reported unless ``PARAM_ORACLES``
names it; a call is matched by its name alone.
"""

import ast
from collections import Counter, defaultdict
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


def definitions(tree) -> dict:
    """Top-level name -> the statement that defines it."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            out.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out[node.target.id] = node
    return out


def top_level_names(tree) -> set:
    out = set(definitions(tree))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
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


# -- every exported name is reached ---------------------------------------------

DEMOS = sorted((SRC.parent.parent / "demos").glob("*.py"))

# Exported names that no package module and no demo reads, each with the
# check that keeps it.
ORACLES = {
    "zinv_node": "the exact node of the Z[1/m] route: test_bernoulli checks it "
                 "against a Bernoulli-polynomial sum, test_acceptance checks the "
                 "Kummer congruences on it",
}


def reach_faults(sources, demos, oracles) -> dict:
    """The exported names (``__all__`` entries) that no module reads outside
    the name's own definition and no demo reads, less those ``oracles``
    names; the ``oracles`` names that are in fact reached; and those that no
    module exports."""
    trees = [ast.parse(source) for source in sources]
    reads = sum((names_read(ast.parse(demo)) for demo in demos),
                sum((names_read(tree) for tree in trees), Counter()))
    exported, unreached = set(), set()
    for tree in trees:
        own = definitions(tree)
        for name in module_all(tree):
            exported.add(name)
            if name not in own or reads[name] == names_read(own[name])[name]:
                unreached.add(name)
    return {"unreached": sorted(unreached - oracles.keys()),
            "stale": sorted((oracles.keys() & exported) - unreached),
            "not exported": sorted(oracles.keys() - exported)}


def test_checker_reports_unreached_and_stale_names():
    sources = [
        '__all__ = ["used", "shown", "selfish", "oracle", "listed"]\n'
        "def used(): pass\ndef shown(): pass\ndef selfish(): return selfish()\n"
        "def oracle(): pass\ndef listed(): pass\n",
        "from m import used\nx = used()\n",
    ]
    demos = ["import m\nm.shown()\nm.listed()\n"]
    oracles = {"oracle": "", "listed": "", "gone": ""}
    assert reach_faults(sources, demos, oracles) == {
        "unreached": ["selfish"], "stale": ["listed"], "not exported": ["gone"]}


def test_every_exported_name_is_reached():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    demos = [p.read_text() for p in DEMOS]
    assert DEMOS
    assert reach_faults(sources, demos, ORACLES) == {
        "unreached": [], "stale": [], "not exported": []}


# -- every defaulted parameter is set -------------------------------------------

# Defaulted parameters, as module.qualname.parameter, that no package module
# and no demo sets, each with the check that keeps it.
PARAM_ORACLES = {
    "padic.PadicNum.congruent.abs_exp":
        "TestIntegrateOracle and test_padic compare at a stated precision",
    "measures.raw_word_integral.level":
        "TestWords and TestLevelSumOracle read coarser levels",
    "ncseries.NcSeries.variable.max_y":
        "TestBchReduced::test_z_series_identity builds its Y-capped oracle at "
        "degree 13 with it",
    "lfunctions.kl_node.ndigits":
        "TestKubotaLeopoldt::test_node_keeps_its_digits reads the node at 1-12 digits",
    "lfunctions.dirichlet_node.ndigits":
        "TestDirichlet::test_one_character_sum reads the node at 1-12 digits",
    "cli.main.argv": "bench/run.py and tests/golden/record.py call main(argv)",
}


def defaulted_parameters(module: str, tree):
    """(key, call name, definition, parameter, position) of every parameter
    with a default of a public function, or of a public class's public method
    or ``__init__`` (called by the class name); ``position`` is the index of
    the call's positional argument that sets it, None for a keyword-only one."""
    def params(fn, skip):
        a = fn.args
        pos = a.posonlyargs + a.args
        first = len(pos) - len(a.defaults)
        yield from ((arg.arg, i - skip) for i, arg in enumerate(pos) if i >= first)
        yield from ((arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for name, i in params(node, 0):
                yield f"{module}.{node.name}.{name}", node.name, node, name, i
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and (
                    not fn.name.startswith("_") or fn.name == "__init__"):
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                called = node.name if fn.name == "__init__" else fn.name
                for name, i in params(fn, 0 if static else 1):
                    yield f"{module}.{node.name}.{fn.name}.{name}", called, fn, name, i


def sets_parameter(call, name: str, position) -> bool:
    """Whether the call passes the parameter by keyword or at its position;
    a ``*`` or ``**`` argument may pass any."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def parameter_faults(sources: dict, demos, oracles) -> dict:
    """The defaulted parameters of the modules ``sources`` (name -> source)
    that no call sets, less those ``oracles`` names; the ``oracles`` names
    that some call does set; and those that name no defaulted parameter."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = defaultdict(list)
    for tree in [*trees.values(), *map(ast.parse, demos)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                calls[getattr(f, "id", None) or getattr(f, "attr", None)].append(node)
    declared, unset = set(), set()
    for module, tree in trees.items():
        for key, called, fn, name, position in defaulted_parameters(module, tree):
            declared.add(key)
            own = set(map(id, ast.walk(fn)))
            if not any(id(c) not in own and sets_parameter(c, name, position)
                       for c in calls[called]):
                unset.add(key)
    return {"unset": sorted(unset - oracles.keys()),
            "stale": sorted((oracles.keys() & declared) - unset),
            "not declared": sorted(oracles.keys() - declared)}


def test_checker_reports_unset_and_stale_parameters():
    sources = {
        "m": "def f(a, b=1, *, c=2, d=3):\n    return f(a, d=4)\n"
             "class K:\n    def __init__(self, x=0): pass\n"
             "    def g(self, y=0, z=0): pass\n    def _h(self, w=0): pass\n"
             "    @staticmethod\n    def s(u=0): pass\n"
             "def _p(v=0): pass\n",
        "n": "from m import K, f\nf(1, c=3)\nK(5).g(z=1)\nK.s(*args)\n",
    }
    demos = ["import m\nm.f(0, 1)\n"]
    oracles = {"m.K.g.y": "", "m.K.__init__.x": "", "m.gone.q": ""}
    assert parameter_faults(sources, demos, oracles) == {
        "unset": ["m.f.d"], "stale": ["m.K.__init__.x"], "not declared": ["m.gone.q"]}


def test_every_defaulted_parameter_is_set():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    demos = [p.read_text() for p in DEMOS]
    assert parameter_faults(sources, demos, PARAM_ORACLES) == {
        "unset": [], "stale": [], "not declared": []}
