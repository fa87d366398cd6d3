"""The package surface: every name in `macdual.__all__` resolves lazily to
the object its home module defines."""

import ast
import importlib
import json
from pathlib import Path

import pytest

import macdual

HOMES = ("fields", "poly", "apolarity", "decomposition", "constructions",
         "normalform", "io")


def test_every_exported_name_is_its_home_modules_object():
    homes = {}
    for module in HOMES:
        mod = importlib.import_module("macdual." + module)
        for name in macdual.__all__:
            if getattr(mod, name, None) is not None and \
                    getattr(mod, name).__module__ == mod.__name__:
                homes[name] = mod
    assert set(homes) == set(macdual.__all__)
    for name, mod in homes.items():
        assert getattr(macdual, name) is getattr(mod, name), name


def test_star_import_and_dir():
    ns = {}
    exec("from macdual import *", ns)
    assert set(macdual.__all__) <= set(ns)
    assert set(macdual.__all__) <= set(dir(macdual))
    assert macdual.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        macdual.no_such_name
    assert not hasattr(macdual, "no_such_name")


def test_submodule_import_still_works():
    from macdual import apolarity
    assert apolarity is importlib.import_module("macdual.apolarity")
    assert apolarity.annihilator is macdual.annihilator


# -- no orphans: a stdlib stand-in for an unused-name linter -------------------

SRC = Path(macdual.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _reads(tree) -> set:
    """Every name the module reads, as a plain name or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _bound_names(target) -> list:
    return [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]


def test_every_import_is_read_in_its_module():
    unread = []
    for name, tree in _trees().items():
        reads = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in reads:
                        unread.append("%s: %s" % (name, bound))
    assert not unread, unread


def test_every_private_module_name_is_read():
    trees = _trees()
    reads = set().union(*map(_reads, trees.values()))
    unread = []
    for name, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = getattr(stmt, "targets", None) or [stmt.target]
                bound = [n for t in targets for n in _bound_names(t)]
            elif isinstance(stmt, ast.For):
                bound = _bound_names(stmt.target)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name for alias in stmt.names]
            else:
                continue
            unread += ["%s: %s" % (name, b) for b in bound
                       if b.startswith("_") and not b.startswith("__")
                       and b not in reads]
    assert not unread, unread


def test_every_plainly_assigned_local_is_read():
    """A local bound by a plain assignment, `name = value` (annotated or
    chained), is read somewhere in its function, nested functions
    included.  Unpacked targets are left out, as are names the function
    declares global or nonlocal: they bind another scope's name."""
    unread = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound, declared = set(), set()
            for node in ast.walk(fn):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    declared.update(node.names)
                elif isinstance(node, ast.Assign):
                    bound.update(t.id for t in node.targets
                                 if isinstance(t, ast.Name))
                elif isinstance(node, ast.AnnAssign) and node.value and \
                        isinstance(node.target, ast.Name):
                    bound.add(node.target.id)
            reads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Load)}
            unread += ["%s: %s.%s" % (name, fn.name, b)
                       for b in sorted(bound - reads - declared)]
    assert not unread, unread


def test_benchmark_layer_names_stay_in_their_modules():
    """Each per-layer metric `<module>.<name>.s` of BENCHMARK.json is named
    from the traced function's `__module__` and `__name__`, so the function
    or class it names must stay defined in `macdual.<module>`: a re-export
    from another module would rename the metric.  `loewy_hilbert` is the
    PartialFiltration method.  The file is only read."""
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    timed = [m["name"][:-2].split(".") for m in bench["per_layer"]
             if m["name"].endswith(".s")]
    assert len(timed) > 10
    for module, name in timed:
        mod = importlib.import_module("macdual." + module)
        obj = (mod.PartialFiltration.loewy_hilbert if name == "loewy_hilbert"
               else getattr(mod, name))
        assert (obj.__module__, obj.__name__) == (mod.__name__, name), \
            (module, name)


def test_readme_names_resolve_in_the_package():
    """Every backticked `module.name` or `Class.attr` in README.md, the head
    being a module of the package or a class one defines, names an object
    the package has: a renamed or deleted name fails here rather than
    leaving the README stale.  Other dotted names, such as `change.images`
    for a variable, are left alone."""
    import re
    root = Path(__file__).resolve().parent.parent
    text = (root / "README.md").read_text(encoding="utf-8")
    heads = {"macdual": macdual}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module("macdual." + path.stem)
        heads[path.stem] = mod
        heads.update((name, obj) for name, obj in vars(mod).items()
                     if isinstance(obj, type)
                     and obj.__module__ == mod.__name__)
    named = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[`(]", text)
    checked, missing = 0, []
    for dotted in named:
        head, *attrs = dotted.split(".")
        if head not in heads:
            continue
        checked += 1
        obj = heads[head]
        try:
            for attr in attrs:
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(dotted)
    assert checked >= 8
    assert not missing, missing
