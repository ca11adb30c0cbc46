"""Every public name a module lists in __all__ exists in that module.

A stale __all__ entry (a name deleted from the module but still exported)
breaks `from pchaos.<module> import *` and misleads readers; nothing else
would catch it.  Likewise every name the benchmark imports or traces must
resolve, or the benchmark would first fail when it is run.  Every public
name must also be reached by the package itself or by the benchmark, not
only by tests: a path only tests take belongs in tests/oracles/.  And every
reference implementation in tests/oracles/ must be used by a test, or it
checks nothing.  The package forks in one place, particles._Shares, and
starts replica shares in one, particles._replica_shares.
"""
import ast
import importlib
import inspect
import pkgutil
import re

import pytest

import pchaos

from conftest import REPO_ROOT

MODULES = sorted(m.name for m in pkgutil.iter_modules(pchaos.__path__))


def test_package_binds_only_its_version():
    # each module's __all__ is the one public list; a re-export from the
    # package would be a second path to the same name
    tree = ast.parse((REPO_ROOT / "src" / "pchaos" / "__init__.py").read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert bound == {"__version__"}, f"pchaos/__init__.py binds {sorted(bound)}"


def test_every_module_is_checked():
    assert {"core", "metrics", "partitions", "particles", "pde"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"pchaos.{name}")
    exported = getattr(module, "__all__", None)
    assert exported, f"pchaos.{name} has no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"pchaos.{name}.__all__ lists missing names {missing}"
    assert len(set(exported)) == len(exported), f"pchaos.{name}.__all__ repeats a name"


def _module_tree(name):
    return ast.parse((REPO_ROOT / "benchmarks" / name).read_text(encoding="utf-8"))


def test_benchmark_layer_imports_resolve():
    imports = [(node.module, a.name) for node in ast.walk(_module_tree("layers.py"))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pchaos")
               for a in node.names]
    assert len(imports) > 10
    missing = [f"{m}.{n}" for m, n in imports if not hasattr(importlib.import_module(m), n)]
    assert not missing, f"benchmarks/layers.py imports missing names {missing}"


def _traced() -> dict:
    """The TRACED table of benchmarks/child.py: module -> dotted names it wraps."""
    traced, = [ast.literal_eval(node.value) for node in _module_tree("child.py").body
               if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED"]
    return traced


def test_benchmark_traced_names_resolve():
    traced = _traced()
    assert traced
    missing = []
    for modname, names in traced.items():
        module = importlib.import_module(modname)
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(f"{modname}.{name}")
    assert not missing, f"benchmarks/child.py traces missing names {missing}"


@pytest.mark.parametrize("name", ["layers.py", "workloads.py"])
def test_benchmark_calls_fit_their_signatures(name):
    # every call the benchmark makes into pchaos binds to the callee's
    # signature, so dropping or renaming a parameter fails here, not first
    # when the benchmark runs
    tree = _module_tree(name)
    imported = {a.asname or a.name: getattr(importlib.import_module(node.module), a.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pchaos")
                for a in node.names}
    calls = 0
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if isinstance(func, ast.Name) and func.id in imported:
            fn = imported[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in imported):
            fn = getattr(imported[func.value.id], func.attr)
        else:
            continue
        assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
        assert all(k.arg for k in node.keywords), ast.unparse(node)
        try:
            inspect.signature(fn).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"benchmarks/{name}: {ast.unparse(node)}: {exc}") from None
        calls += 1
    assert calls >= (20 if name == "layers.py" else 3)


def test_every_oracle_is_used_by_a_test():
    # a test uses an oracle by importing it, or by naming the script whose
    # printed values it freezes (tests/oracles/<name>.py)
    used = set()
    for path in (REPO_ROOT / "tests").glob("test_*.py"):
        text = path.read_text(encoding="utf-8")
        used.update(re.findall(r"tests/oracles/(\w+)\.py", text))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            used.update(n.split(".")[1] for n in names if n.startswith("oracles."))
    oracles = {p.stem for p in (REPO_ROOT / "tests" / "oracles").glob("*.py")}
    assert len(oracles) >= 13
    orphans = sorted(oracles - used)
    assert not orphans, f"no test uses {orphans} of tests/oracles/"


# Public names that no command and no benchmark reaches yet, each kept for
# the ROADMAP direction that will call it.  The list can only shrink: a piece
# that becomes reachable fails the guard until it is taken off.
ROADMAP_PIECES = {
    "pde.check_energy_inequality": "direction 1: the orders command",
    "pde.solve_bbgky_reference": "direction 1: the orders command",
    "bounds.cascade_bound": "direction 3: the cascade certifier",
    "bounds.integrate_hierarchy": "direction 3: the cascade certifier",
}


def _public_names():
    """(qualified name, bare name) of each __all__ entry and of each public
    method or property of the classes listed there."""
    for modname in MODULES:
        module = importlib.import_module(f"pchaos.{modname}")
        for name in module.__all__:
            yield f"{modname}.{name}", name
            obj = getattr(module, name)
            if not inspect.isclass(obj):
                continue
            for attr, val in vars(obj).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(val)
                        or isinstance(val, (property, classmethod, staticmethod))):
                    yield f"{modname}.{name}.{attr}", attr


def _references(path, skip_own_def: bool) -> set:
    """Identifiers that ast.Name and ast.Attribute nodes of a file name; with
    skip_own_def, not counting those inside a def or class of the same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and not (skip_own_def and name in enclosing):
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_every_public_name_is_reached_outside_tests():
    # A name passes when the package or the benchmark refers to it, or the
    # benchmark traces it.  A shared name (.copy, .at) can hide a dead one,
    # but never makes a live one fail.
    reached = set()
    for path in (REPO_ROOT / "src" / "pchaos").glob("*.py"):
        reached |= _references(path, skip_own_def=True)
    for path in (REPO_ROOT / "benchmarks").glob("*.py"):
        reached |= _references(path, skip_own_def=False)
    for names in _traced().values():
        for name in names:
            reached.update(name.split("."))
    public = dict(_public_names())
    unknown = sorted(set(ROADMAP_PIECES) - set(public))
    assert not unknown, f"ROADMAP_PIECES lists {unknown}, which no module exports"
    dead = sorted(q for q, name in public.items() if name not in reached and q not in ROADMAP_PIECES)
    assert not dead, f"only tests reach {dead}: move them to tests/oracles/ or delete them"
    live = sorted(q for q in ROADMAP_PIECES if public[q] in reached)
    assert not live, f"{live} are now reached: take them off ROADMAP_PIECES"


def _uses(match) -> set:
    """(module, outermost def or class) of every node of the package for
    which match(node) is true; a node outside any def is placed at None."""
    found = set()

    def visit(node, module, outer):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            outer = outer or node.name
        if match(node):
            found.add((module, outer))
        for child in ast.iter_child_nodes(node):
            visit(child, module, outer)

    for path in (REPO_ROOT / "src" / "pchaos").glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return found


def _os_uses(name: str) -> set:
    """(module, outermost def or class) of every os.<name> in the package,
    and of every `from os import <name>` (placed at "from os import")."""
    attr = _uses(lambda node: isinstance(node, ast.Attribute) and node.attr == name
                 and isinstance(node.value, ast.Name) and node.value.id == "os")
    imported = _uses(lambda node: isinstance(node, ast.ImportFrom) and node.module == "os"
                     and any(a.name == name for a in node.names))
    return attr | {(module, "from os import") for module, _ in imported}


def test_the_package_forks_in_one_place():
    # _Shares forks every child, kills and reaps it on every path; the only
    # other pipes are the lockstep barrier's, opened by the march that
    # steps an entry in a _Shares child
    assert _os_uses("fork") == {("particles", "_Shares")}
    assert _os_uses("pipe") == {("particles", "_Shares"), ("pde", "_march")}


def test_shares_start_in_three_places():
    # the replica shares of both ensemble commands start in _replica_shares,
    # the one place numpy.random is loaded before they fork; the rate
    # driver's chain-moment table and the hierarchy's top entry are the
    # other two _Shares, and neither draws
    def starts_shares(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "_Shares" or getattr(node.func, "attr", None) == "_Shares")

    def loads_numpy_random(node):
        return ((isinstance(node, ast.Import) and any(a.name == "numpy.random" for a in node.names))
                or (isinstance(node, ast.ImportFrom) and node.module == "numpy.random")
                or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                    and any(a.name == "random" for a in node.names)))

    assert _uses(starts_shares) == {("particles", "_replica_shares"),
                                    ("experiments", "_predictions"), ("pde", "_march")}
    assert _uses(loads_numpy_random) == {("particles", "_replica_shares")}
