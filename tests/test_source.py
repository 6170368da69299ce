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
