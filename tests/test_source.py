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


# exactly what oracles.py imports from proplab: public names, the analytic
# free chirp, and _centered_fft for the random symbol; an oracle that reaches
# for more of the code it checks shows up as a diff here
ORACLE_IMPORTS = {
    "_kernels.free_chirp", "grid.GridSpec", "grid.SampledField", "grid.SymbolField",
    "grid._centered_fft", "grid.dft", "grid.sup_norm_on_compact",
    "metaplectic.mehler_oracle", "metaplectic.propagator_for", "rng.SplitMix64",
    "symplectic.QuadraticHamiltonian", "symplectic.flow", "symplectic.phase_form",
    "tfa.StftSpec", "tfa.default_window", "tfa.measure_norm_bound", "tfa.stft",
    "tfa.stft_adjoint", "tfa.wigner", "weyl.fio_swap_residual",
    "weyl.symplectic_covariance_residual", "weyl.weyl_quantize",
}


def package_imports(source: str, package: str = "proplab") -> list:
    """(line, module.name) for every name source imports from package, by a
    relative or an absolute import; importing a module of package, or the
    package itself, gives the module's dotted path below package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != package:
                continue
            below = ".".join(parts[1:] if node.level == 0 else [p for p in parts if p])
            found += [(node.lineno, f"{below}.{alias.name}".lstrip("."))
                      for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.partition(".")[2] or alias.name)
                      for alias in node.names if alias.name.split(".")[0] == package]
    return sorted(found)


def test_import_finder_sees_each_spelling():
    source = ("import numpy as np\nfrom collections import namedtuple\n"
              "from .grid import (GridSpec,\n    dft)\nfrom . import trotter\n"
              "from proplab.trotter import _fold as fold\nimport proplab.weyl\n"
              "import proplab\nfrom numpy.linalg import eigh\n")
    assert package_imports(source) == [
        (3, "grid.GridSpec"), (3, "grid.dft"), (5, "trotter"), (6, "trotter._fold"),
        (7, "weyl"), (8, "proplab")]


def test_oracles_import_only_allowed_names():
    # an oracle must stay apart from the code it checks: a library internal
    # (say trotter._fold or _kernels.toeplitz_product) or a whole module would
    # let a residual share the checked code's mistakes unseen
    with open(os.path.join(PACKAGE, "oracles.py")) as handle:
        names = {name for _, name in package_imports(handle.read())}
    assert names == ORACLE_IMPORTS
