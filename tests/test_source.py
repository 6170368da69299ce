"""Rules over the source of src/proplab, read from its parse tree."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "proplab")
MEMOS = {"lru_cache", "cache"}


def functools_memos(source: str) -> list:
    """Line numbers of every functools.lru_cache or functools.cache in
    source, as a decorator or a call, and of every import of either."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in MEMOS and \
                isinstance(node.value, ast.Name) and node.value.id == "functools":
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools" and \
                MEMOS & {alias.name for alias in node.names}:
            found.append(node.lineno)
    return sorted(found)


def test_memo_finder_sees_each_spelling():
    source = ("import functools\nfrom functools import cache, cached_property\n"
              "@functools.lru_cache(maxsize=1)\ndef f(x):\n    return x\n"
              "@functools.cache\ndef g(x):\n    return x\n"
              "class A:\n    @cached_property\n    def h(self):\n        return 1\n")
    assert functools_memos(source) == [2, 3, 6]


def test_no_function_keeps_a_process_wide_cache():
    # a memoized function is module-level state that every run in a process
    # shares, so a result could depend on what ran before it;
    # functools.cached_property, kept per instance, is allowed
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as handle:
                found += [f"{name}:{line}" for line in functools_memos(handle.read())]
    assert found == []


THREADED = "_side_by_side"


def threading_outside(source: str, allowed: str = THREADED) -> list:
    """Line numbers of every name threading, and of every import from
    threading, in source outside the body of the function named allowed;
    import threading itself is allowed anywhere."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == allowed:
            inside.update(id(sub) for sub in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and node.id == "threading" or \
                isinstance(node, ast.ImportFrom) and node.module == "threading":
            found.append(node.lineno)
    return sorted(found)


def test_threading_finder_sees_each_spelling():
    source = ("import threading\nfrom threading import Thread\n"
              "def _side_by_side():\n    threading.Thread(target=f)\n"
              "def other():\n    threading.Thread(target=f)\n"
              "LOCK = threading.Lock()\n")
    assert threading_outside(source) == [2, 6, 7]


def test_only_side_by_side_starts_a_thread():
    # a reflection-invariant kernel forks once, to power its two blocks; the
    # block steps and the unfolding gain nothing from a second thread
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as handle:
                found += [f"{name}:{line}" for line in threading_outside(handle.read())]
    assert found == []
