"""The benchmark reaches proplab by name: the traced run wraps the functions
listed in perfbench/tracing.py, and its workloads and self-test import names
from proplab, read attributes off proplab modules and call proplab functions
and classes.  A renamed or deleted name, or a changed signature, breaks the
benchmark, so each name must still resolve and each call still bind."""

import ast
import contextlib
import functools
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
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


# in a fresh interpreter: what proplab.oracles binds of the traced names,
# right after `import proplab.cli` and after the tracer installs
BATTERY_BINDINGS = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import proplab.cli
from tracing import TRACED, Tracer
oracles = sys.modules.get("proplab.oracles")
traced = [(f"{m}.{a}", importlib.import_module(f"proplab.{m}"), a)
          for m, a, *_ in TRACED if "." not in a and hasattr(oracles, a)]
own = [name for name, module, a in traced if getattr(oracles, a) is getattr(module, a)]
Tracer().install()
wrapped = [name for name, module, a in traced
           if getattr(oracles, a) is getattr(module, a) and hasattr(getattr(oracles, a), "__wrapped__")]
print(json.dumps({"loaded": oracles is not None, "names": [t[0] for t in traced],
                  "own": own, "wrapped": wrapped}))
"""


def test_tracer_sees_the_oracle_battery():
    # the worker installs the tracer right after `import proplab.cli`, so the
    # battery's spans are recorded only if cli imports oracles as it loads
    # and oracles binds the library's own functions, which install() rebinds
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(PERFBENCH, "..", "src"), os.environ.get("PYTHONPATH"))
        if p))
    proc = subprocess.run([sys.executable, "-c", BATTERY_BINDINGS, PERFBENCH],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["loaded"]
    assert {"weyl.weyl_quantize", "weyl.symplectic_covariance_residual",
            "weyl.fio_swap_residual", "tfa.stft", "tfa.stft_adjoint",
            "tfa.wigner"} <= set(found["names"])
    assert found["own"] == found["names"]
    assert found["wrapped"] == found["names"]


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


def resolve(node, names: dict, instances: dict):
    """The proplab object an expression names, or None: a name imported from
    proplab, an attribute of a proplab module or class, or a method of an
    instance of a proplab class."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if not isinstance(node, ast.Attribute):
        return None
    owner = instances.get(ast.unparse(node.value))
    if isinstance(node.value, ast.Call):
        owner = returned_class(node.value, names, instances)
    if owner is not None:
        if inspect.isfunction(inspect.getattr_static(owner, node.attr, None)):
            # looked up on an instance, a plain method binds self first
            return functools.partial(getattr(owner, node.attr), None)
        return getattr(owner, node.attr, None)
    base = resolve(node.value, names, instances)
    if isinstance(base, types.ModuleType) or inspect.isclass(base):
        return getattr(base, node.attr, None)
    return None


def returned_class(call: ast.Call, names: dict, instances: dict):
    """The proplab class a call returns, by its callee or by the callee's
    return annotation, or None."""
    callee = resolve(call.func, names, instances)
    if callee is not None and not inspect.isclass(callee):
        callee = inspect.signature(callee, eval_str=True).return_annotation
    if inspect.isclass(callee) and callee.__module__.startswith("proplab"):
        return callee
    return None


def proplab_calls(path: str) -> list:
    """(line, callee source, object, call) for every call in the file whose
    callee resolve() finds.  A name or self attribute assigned from a call
    stands for an instance of the proplab class that call returns, unless
    some assignment of it returns something else.  The file is parsed, not
    run."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "proplab":
            for alias in node.names:
                names[alias.asname or alias.name] = imported(node.module, alias.name)
    assigns = [(ast.unparse(node.targets[0]), node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and len(node.targets) == 1
               and isinstance(node.value, ast.Call)]
    instances, previous = {}, None
    while instances != previous:  # an assignment may read another: self.cfg, then grid
        previous, classes = instances, {}
        for target, value in assigns:
            classes.setdefault(target, set()).add(returned_class(value, names, previous))
        instances = {target: cls.pop() for target, cls in classes.items()
                     if len(cls) == 1 and None not in cls}
    return [(node.lineno, ast.unparse(node.func), obj, node)
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            for obj in [resolve(node.func, names, instances)] if obj is not None]


def test_every_benchmark_call_binds():
    calls = [(name, *call) for name in ("workloads.py", "selftest.py")
             for call in proplab_calls(os.path.join(PERFBENCH, name))]
    found = {source for _, _, source, _, _ in calls}
    # the parser finds functions, classes, module attributes, static methods
    # and methods of instances, named or returned
    assert {"trotter_kernel", "propagator_for", "GridSpec", "trotter.reference_kernel",
            "QuadraticHamiltonian.harmonic", "cli.main", "self.cfg.potential",
            "grid.axis"} <= found
    assert any(source.endswith(").kernel") for source in found)
    unbound = []
    for name, line, source, obj, call in calls:
        kwargs = {k.arg: None for k in call.keywords}
        if any(isinstance(a, ast.Starred) for a in call.args) or None in kwargs:
            unbound.append(f"{name}:{line} {source}: unpacked arguments")
            continue
        try:
            inspect.signature(obj).bind(*[None] * len(call.args), **kwargs)
        except TypeError as exc:
            unbound.append(f"{name}:{line} {source}: {exc}")
    assert unbound == []


def perfbench_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_cli_configs_are_declared(tmp_path):
    # each CLI operation writes its config and constructs a Config, as the
    # benchmark's set-up does: a key no row of the table declares fails here
    workloads = perfbench_workloads()
    ops = {name: op for name, op in workloads.OPERATIONS.items()
           if issubclass(op, workloads.CliOperation)}
    assert set(ops) == {"converge", "perturb", "kernel", "exceptional", "freeslice",
                        "oracles"}
    for seed in range(1, 6):
        for name, op in ops.items():
            out = tmp_path / f"{name}-{seed}"
            out.mkdir()
            assert op(workloads.params(name, seed, 0), str(out)).cfg.command == name


def test_benchmark_freeslice_takes_the_parity_blocks(tmp_path):
    # the kernels workload's freeslice configs, as the benchmark builds them:
    # each V samples to a bitwise even array and each n_list has n >= 2, so
    # both chirp steps take the parity blocks with the edge terms
    workloads = perfbench_workloads()
    from proplab.trotter import _is_even

    for seed in range(1, 6):
        out = tmp_path / str(seed)
        out.mkdir()
        cfg = workloads.Freeslice(workloads.params("freeslice", seed, 0), str(out)).cfg
        assert _is_even(cfg.potential(cfg.grid()).values)
        assert max(cfg.get("time", "n_list")) >= 2


def test_benchmark_converge_and_perturb_take_the_mirrored_path(tmp_path):
    # the converge workload's configs, as the benchmark builds them, and the
    # converge and perturb presets: each H0 has b = 0 and each V samples to a
    # bitwise even array, so convergence_report transforms five windowed
    # errors per row and every kernel, E_n(f1) included, takes the parity blocks
    workloads = perfbench_workloads()
    from proplab import cli
    from proplab.trotter import _reflection_invariant

    configs = []
    for seed in range(1, 6):
        for op in (workloads.Converge, workloads.Perturb):
            out = tmp_path / f"{op.command}-{seed}"
            out.mkdir()
            configs.append(op(workloads.params(op.command, seed, 0), str(out)).cfg)
    configs += [cli.Config(os.path.join(PERFBENCH, "..", "configs", name)) for name in
                ("harmonic-cos-t1.ini", "zero-potential-collapse.ini",
                 "decomposition-pinned.ini", "perturb-geometric.ini")]
    for cfg in configs:
        assert _reflection_invariant(cli._scenario(cfg))
