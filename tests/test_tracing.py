"""The benchmark reaches proplab by name: the traced run wraps the functions
listed in perfbench/tracing.py, and its workloads and self-test import names
from proplab and read attributes off proplab modules.  A renamed or deleted
name breaks the benchmark, so each must still resolve."""

import ast
import contextlib
import importlib
import importlib.util
import os
import types

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod_name, attr) for mod_name, attr, *_ in module.TRACED]


def test_every_traced_name_resolves():
    missing = []
    for mod_name, attr in traced_names():
        module = importlib.import_module(f"proplab.{mod_name}")
        if "." in attr:
            # install() wraps a method from the class's own namespace
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []


def imported(module: str, name: str):
    """What `from module import name` binds, or None."""
    mod = importlib.import_module(module)
    if not hasattr(mod, name) and hasattr(mod, "__path__"):
        with contextlib.suppress(ImportError):
            importlib.import_module(f"{module}.{name}")  # a submodule
    return getattr(mod, name, None)


def proplab_references(path: str) -> list:
    """(module, name) for every name the file imports from proplab, and for
    every attribute it reads off a proplab module it imported.  The file is
    parsed, not run."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    refs, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "proplab":
            for alias in node.names:
                refs.append((node.module, alias.name))
                if isinstance(imported(node.module, alias.name), types.ModuleType):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            refs.append((modules[node.value.id], node.attr))
    return refs


def test_every_benchmark_import_resolves():
    refs = [ref for name in ("workloads.py", "selftest.py")
            for ref in proplab_references(os.path.join(PERFBENCH, name))]
    # the parser finds both kinds of reference
    assert ("proplab.cli", "Config") in refs
    assert ("proplab.trotter", "reference_kernel") in refs
    assert ("proplab.tfa", "mod_norm") in refs
    missing = [f"{module}.{name}" for module, name in refs
               if imported(module, name) is None]
    assert missing == []
