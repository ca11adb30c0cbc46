"""Every public name a module lists in __all__ exists in that module.

A stale __all__ entry (a name deleted from the module but still exported)
breaks `from pchaos.<module> import *` and misleads readers; nothing else
would catch it.  Likewise every name the benchmark imports or traces must
resolve, or the benchmark would first fail when it is run.  And every
reference implementation in tests/oracles/ must be used by a test, or it
checks nothing.
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


def test_benchmark_traced_names_resolve():
    traced, = [ast.literal_eval(node.value) for node in _module_tree("child.py").body
               if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED"]
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
