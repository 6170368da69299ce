"""The traced benchmark run wraps proplab functions by the names listed in
perfbench/tracing.py; a renamed function makes its Tracer.install() fail."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


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
