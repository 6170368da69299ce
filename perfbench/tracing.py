"""Span recorder for the traced run.

`Tracer.install()` wraps the public proplab functions listed in TRACED in
every proplab namespace that binds them (modules bind by name at import, so
`trotter` holds its own reference to `metaplectic.propagator_for`), and on
classes for methods.  Each call records one span in memory: metric name,
start, end and the index of the enclosing span.  `summary()` turns the spans
into per-metric self time (span minus the part covered by child spans), call
counts and work counters; `dump()` writes the raw spans out at the end.

Only the traced worker imports this module; untraced runs never touch it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _dft_points(args, kwargs):
    f = args[0] if args else kwargs["f"]
    return f.values.size


def _phase_matrix_bytes(args, kwargs):
    # eval_fourier_modes(coeffs, freqs, pts) builds a complex points x modes matrix
    freqs = args[1] if len(args) > 1 else kwargs["freqs"]
    pts = args[2] if len(args) > 2 else kwargs["pts"]
    return len(pts) * len(freqs) * 16


def _written_bytes(args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode())


# (proplab module, attribute or Class.method, metric prefix, counter suffix, counter)
# The metric prefix is the module name; `_kernels` becomes `kernels` because
# metric names must start with a letter or a digit.
TRACED = (
    ("grid", "dft", "grid.dft", "points", _dft_points),
    ("tfa", "mod_norm", "tfa.mod_norm", None, None),
    ("tfa", "stft", "tfa.stft", None, None),
    ("tfa", "stft_adjoint", "tfa.stft_adjoint", None, None),
    ("tfa", "sjostrand_decompose", "tfa.sjostrand_decompose", None, None),
    ("tfa", "frequency_profile", "tfa.frequency_profile", None, None),
    ("tfa", "wigner", "tfa.wigner", None, None),
    ("trotter", "convergence_report", "trotter.convergence_report", None, None),
    ("trotter", "perturbation_split_report", "trotter.perturbation_split_report",
     None, None),
    ("trotter", "reference_kernel", "trotter.reference_kernel", None, None),
    ("trotter", "trotter_kernel", "trotter.trotter_kernel", None, None),
    ("trotter", "kinetic_step", "trotter.kinetic_step", None, None),
    ("trotter", "hamiltonian_matrix", "trotter.hamiltonian_matrix", None, None),
    ("trotter", "kernel_mod_norm", "trotter.kernel_mod_norm", None, None),
    ("trotter", "factor_out_phase", "trotter.factor_out_phase", None, None),
    ("trotter", "time_slice_free_kernel", "trotter.time_slice_free_kernel",
     None, None),
    ("trotter", "exceptional_blowup_scan", "trotter.exceptional_blowup_scan",
     None, None),
    ("metaplectic", "propagator_for", "metaplectic.propagator_for", None, None),
    ("metaplectic", "resolve_phase", "metaplectic.resolve_phase", None, None),
    ("metaplectic", "mehler_oracle", "metaplectic.mehler_oracle", None, None),
    ("metaplectic", "MetaplecticPropagator.apply_columns",
     "metaplectic.apply_columns", None, None),
    ("metaplectic", "MetaplecticPropagator.kernel_entries",
     "metaplectic.kernel_entries", None, None),
    ("symplectic", "flow", "symplectic.flow", None, None),
    ("weyl", "weyl_quantize", "weyl.weyl_quantize", None, None),
    ("weyl", "quantize_modes", "weyl.quantize_modes", None, None),
    ("weyl", "conjugate_through_fio", "weyl.conjugate_through_fio", None, None),
    ("weyl", "symplectic_covariance_residual",
     "weyl.symplectic_covariance_residual", None, None),
    ("weyl", "fio_swap_residual", "weyl.fio_swap_residual", None, None),
    ("_kernels", "eval_fourier_modes", "kernels.eval_fourier_modes", "bytes",
     _phase_matrix_bytes),
    ("_kernels", "chirp_kernel", "kernels.chirp_kernel", None, None),
    ("cli", "render_csv", "cli.output", None, None),
    ("cli", "emit_svg", "cli.output", None, None),
    ("cli", "_atomic_write", "cli.output", "bytes", _written_bytes),
)


class Tracer:
    """In-memory span stack; one instance per traced process."""

    def __init__(self):
        self.spans = []  # [metric, start, end, parent index or -1]
        self.counters = {}
        self._stack = []

    def _wrap(self, metric, fn, suffix, counter):
        spans, stack, counters = self.spans, self._stack, self.counters
        key = f"{metric}.{suffix}" if suffix else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key:
                counters[key] = counters.get(key, 0) + counter(args, kwargs)
            span = [metric, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Replace every binding of each traced function inside proplab."""
        for mod_name, *_ in TRACED:
            importlib.import_module(f"proplab.{mod_name}")
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "proplab" or name.startswith("proplab.")]
        for mod_name, attr, metric, suffix, counter in TRACED:
            module = sys.modules[f"proplab.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(metric, cls.__dict__[meth],
                                              suffix, counter))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(metric, original, suffix, counter)
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    def summary(self) -> dict:
        """Self seconds and calls per metric, plus the work counters."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (metric, start, end, _) in enumerate(self.spans):
            out[f"{metric}.s"] = out.get(f"{metric}.s", 0.0) + (end - start) - covered[i]
            out[f"{metric}.calls"] = out.get(f"{metric}.calls", 0) + 1
        out.update(self.counters)
        return out

    def dump(self, path: str):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)
