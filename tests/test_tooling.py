"""Checks on the repository itself: the demos run, no correctness
condition in the package relies on `assert`, which `python -O` removes,
trusted builders stay behind the input boundary and under strict mode, strict
mode hides every table of kept search results, every
JSON field is read by one checker, no search is pinned to a functor or a
2-cell, and the benchmark's tracer names only functions and classes that exist."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from birkhoff2d import fincat
from conftest import KEPT_TABLES, strict_patches

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / demo)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout


def test_no_assert_statements_in_the_package():
    found = [
        "%s:%d" % (path.relative_to(SRC), node.lineno)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _trusted_builders():
    """(module, class or None, name) of every trusted builder in the package,
    a function or method whose name starts with ``_trusted``."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in _tree(path).body:
            is_class = isinstance(node, ast.ClassDef)
            owner, defs = (node.name, node.body) if is_class else (None, [node])
            found.update((module, owner, d.name) for d in defs
                         if isinstance(d, ast.FunctionDef) and d.name.startswith("_trusted"))
    return found


@pytest.mark.parametrize("module", ["jsonio.py", "cli.py"])
def test_the_input_boundary_uses_no_trusted_builder(module):
    path = SRC / "birkhoff2d" / module
    names = [getattr(node, attr) for node in ast.walk(_tree(path))
             for attr in ("attr", "id", "name") if isinstance(getattr(node, attr, None), str)]
    assert [n for n in names if n.startswith("_trusted")] == []


def test_every_json_field_is_read_by_the_one_checker():
    """In jsonio, every string-keyed read (``x["key"]``, ``x.get("key", ...)``)
    is made inside ``_field``, which names a missing or malformed field; and
    fincat parses no JSON."""
    tree = _tree(SRC / "birkhoff2d" / "jsonio.py")
    checker = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_field")
    inside = {id(node) for node in ast.walk(checker)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            key = node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args):
            key = node.args[0]
        else:
            continue
        if (id(node) not in inside and isinstance(key, ast.Constant)
                and isinstance(key.value, str)):
            found.append("jsonio.py:%d" % node.lineno)
    assert found == []
    fincat = _tree(SRC / "birkhoff2d" / "fincat.py")
    assert "validate_category" not in [node.name for node in fincat.body
                                       if isinstance(node, ast.FunctionDef)]


def _module_dicts(path):
    """Names a module binds at its top level to a dict display, a dict
    comprehension or a call of ``dict``."""
    found = set()
    for node in _tree(path).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) and node.value
                   else [])
        value = getattr(node, "value", None)
        if (isinstance(value, (ast.Dict, ast.DictComp))
                or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id == "dict")):
            found.update(t.id for t in targets if isinstance(t, ast.Name))
    return found


def test_fincat_and_factor_keep_no_other_module_level_dict():
    """The factorisation systems are the only module-level dict of the
    search layers; what a search keeps for later calls hangs on the
    category it is made from and lives as long as it does."""
    package = SRC / "birkhoff2d"
    for module in ("fincat", "kernel", "theory", "birkhoff"):
        assert _module_dicts(package / (module + ".py")) == set(), module
    assert _module_dicts(package / "factor.py") == {"FACTOR_SYSTEMS"}


def _parameters(module: str, function: str):
    node = next(node for node in _tree(SRC / "birkhoff2d" / (module + ".py")).body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
    return [a.arg for a in args]


def test_no_2_cell_search_is_pinned():
    """Every unique 2-cell factorisation is read from fibres of whole
    hom-set searches: no module of the package names ``nat_lifts``, the
    transformation search ``fincat._natural_components`` takes no
    ``slots`` to pin it, and ``fincat.whisker`` is one-sided and takes no
    ``side``."""
    fields = ("id", "attr", "name", "asname")
    found = [(path.stem, node.lineno) for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(_tree(path))
             if "nat_lifts" in [getattr(node, field, None) for field in fields]]
    assert found == []
    assert "slots" not in _parameters("fincat", "_natural_components")
    assert "side" not in _parameters("fincat", "whisker")


def test_no_functor_search_is_pinned():
    """Every 1-cell lift is read from fibres of whole functor spaces or
    forced through a quotient: no module of the package names ``lifts``,
    and the functor search ``fincat.functor_maps`` takes no ``objects`` or
    ``accept`` to pin it."""
    fields = ("id", "attr", "name", "asname")
    found = [(path.stem, node.lineno) for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(_tree(path))
             if "lifts" in [getattr(node, field, None) for field in fields]]
    assert found == []
    assert _parameters("fincat", "functor_maps") == ["A", "B", "limit", "laws"]


def test_strict_mode_patches_every_trusted_builder():
    patched = {(owner.__module__, owner.__name__, attr) if isinstance(owner, type)
               else (owner.__name__, None, attr)
               for owner, attr, _ in strict_patches()}
    builders = _trusted_builders()
    assert ("birkhoff2d.fincat", "Functor", "_trusted") in builders
    assert builders - patched == set()


def test_strict_mode_hides_every_kept_table(cats):
    """The tables made on first use that read empty on a fresh category are
    those in which it keeps search results for later calls, and the strict
    fixture hides exactly those; a new kept table it does not hide fails
    here."""
    two = cats["two"]
    fresh = fincat.FinCategory._trusted(two.objects, two.morphisms, two.identities, two.composition)
    empty = [name for name, attr in vars(fincat.FinCategory).items()
             if isinstance(attr, fincat._made_on_first_use) and getattr(fresh, name) == {}]
    assert sorted(empty) == sorted(KEPT_TABLES)


def test_strict_mode_patches_modules_not_imported_yet():
    """The package imports lazily, so in a fresh interpreter ``birkhoff``,
    which holds the trusted quotient builder too, may not be loaded when
    the strict fixture starts; its copy must be patched all the same."""
    code = ("import sys; sys.path.insert(0, %r)\n"
            "from conftest import strict_patches\n"
            "print(sorted(owner.__name__ for owner, attr, _ in strict_patches()\n"
            "             if attr == '_trusted_quotient_algebra'))\n") % str(REPO / "tests")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split("\n")[0] == "['birkhoff2d.birkhoff', 'birkhoff2d.theory']"


def test_every_limit_parameter_is_read():
    """A function that takes a search ``limit`` and never reads it searches
    at some other limit, so ``--limit`` would not reach it."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if "limit" in [a.arg for a in args] and not any(
                    isinstance(n, ast.Name) and n.id == "limit" and isinstance(n.ctx, ast.Load)
                    for n in ast.walk(node)):
                found.append("%s:%s" % (path.relative_to(SRC), node.name))
    assert found == []


def _tracer_names(table):
    """The qualified names a table of `perfbench/tracer.py` names, read
    from its source so nothing under `perfbench/` is imported. The table
    must be assigned exactly once, so no later assignment goes unread."""
    values = [node.value for node in _tree(REPO / "perfbench" / "tracer.py").body
              if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) == table]
    assert len(values) == 1, "%s is assigned %d times" % (table, len(values))
    value = values[0]
    if table == "LEAVES":  # frozenset({...})
        return sorted(ast.literal_eval(value.args[0]))
    if table == "RESULTS":  # its values are lambdas; only the keys are names
        return [ast.literal_eval(key) for key in value.keys]
    data = ast.literal_eval(value)
    if table == "GROUPS":
        return [name for names in data.values() for name in names]
    if table == "BUILT":
        return list(data.values())
    if table == "CONSTRUCTORS":
        return ["%s.%s" % (module, cls) for module, classes in data.items() for cls in classes]
    if table == "METHODS":
        return ["%s.%s.%s" % (module, cls, attr)
                for module, pairs in data.items() for cls, attr in pairs]
    return list(data)


def _undefined(names):
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        owner = importlib.import_module("birkhoff2d." + module)
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(name)
    return missing


def test_the_evaluators_the_tracer_leaves_unwrapped_exist():
    """`perfbench/tracer.py` wraps every public function of a layer except
    those in LEAVES, the evaluators called once per tuple; a renamed one
    would be wrapped unnoticed, so every name there must still be defined."""
    leaves = _tracer_names("LEAVES")
    assert "theory.eval_expr" in leaves
    assert _undefined(leaves) == []


@pytest.mark.parametrize("table", ["GROUPS", "BUILT", "DISTINCT", "RESULTS", "CONSTRUCTORS",
                                   "METHODS"])
def test_every_name_the_tracer_counts_exists(table):
    """A per-layer metric of the benchmark sums the spans of the names in
    these tables; a name renamed or deleted here would read 0 silently."""
    names = _tracer_names(table)
    assert names
    assert _undefined(names) == []
