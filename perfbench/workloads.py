"""Workloads of the benchmark: inputs made from the seed, the operations one
round runs, and the checks on each operation's outputs.

Every operation runs in its own fresh worker process (worker.py), so the
module-global eigendecomposition cache in `proplab.trotter` starts cold, as
it does for every command-line call.  An operation has three phases:

- set-up (counted in setup_s): write the generated config, parse it, build
  the input arrays;
- run (counted in wall_s): the CLI's `main` or the library calls;
- check (not timed): compare the outputs with computations made here, apart
  from the program, or with properties the method must have.

The checks never compare against stored output.  Thresholds are fixed here
from the size of the effect each one tests; rounding-level identities get
1e-8 or tighter.
"""

from __future__ import annotations

import csv
import math
import os
import random

import numpy as np

# Step counts of the headline experiment and of the spectral-step kernels.
N_LIST = (4, 8, 16, 32, 64, 128, 256)
REFERENCE_N = 1024
# Sup errors halve per doubling of n once n is in the first-order regime;
# below n = 32 the grids used are not there yet (measured ratios 1.0 to
# 5.7).  Against the n = 1024 reference the last ratio tends to 7/3.
FIRST_ORDER_FROM = 32
FIRST_ORDER_RATIO = (1.6, 2.6)
ORACLE_CHECKS = {"stft_inversion": 1e-8, "wigner_duality": 1e-6,
                 "covariance": 1e-3, "fio_swap": 1e-3, "measure_bound": 1.05}
PERTURB_EPS = (0.2, 0.1, 0.05)
EXCEPTIONAL_OFFSETS = (0.2, 0.1, 0.05, 0.025)

# workload -> the operations of one round, each (operation, variant); the
# variant selects its own inputs.  `converge` runs the STFT core (tfa.mod_norm
# -> grid.dft) and `kernels` nearly bypasses it, so an STFT change shows on
# one and, predicted, not on the other.  Separate processes of the same
# operation vary by 13% (CV) back to back on the reference machine, and its
# speed drifts by a quarter to a half over minutes, so a run measures 60 s and
# reports medians over whole rounds.
ROUNDS = {
    "converge": (("converge", 0), ("perturb", 0)),
    "kernels": (("trotter", 0), ("kernel", 0), ("exceptional", 0), ("freeslice", 0),
                ("oracles", 0)),
}

# operation -> the family whose seeded draws make its inputs
FAMILY = {"converge": "converge", "perturb": "perturb", "trotter": "kernels",
          "kernel": "kernels", "exceptional": "kernels", "freeslice": "kernels",
          "oracles": "oracles"}


def params(operation: str, seed: int, variant: int) -> dict:
    """Inputs of one operation, a pure function of the seed and the variant."""
    family = FAMILY[operation]
    rng = random.Random(f"{family}/{seed}/{variant}")
    p = {"seed": seed,
         "amp": round(rng.uniform(0.8, 1.2), 4),
         # multiples of 1/16 keep the cosine periodic on both boxes used; above
         # 16/16 the n = 4 -> 8 step leaves the first-order regime, and from
         # 19/16 on the converge gate fails
         "freq": rng.randint(12, 16) / 16}
    if family == "perturb":
        a0 = round(rng.uniform(0.4, 0.6), 4)
        ratio = round(rng.uniform(0.45, 0.55), 4)
        p["terms"] = ", ".join(f"{a0 * ratio ** k!r}:{k + 1}.0" for k in range(6))
    if family == "kernels":
        p["t_kernel"] = round(rng.uniform(0.7, 1.3), 4)
        p["offset_scale"] = round(rng.uniform(0.8, 1.25), 4)
    if family == "oracles":
        p["oracle_seed"] = rng.randrange(1, 2**31)
    return p


# -- computations made apart from the program --------------------------------

def mehler_kernel(x: np.ndarray, t: float) -> np.ndarray:
    """Closed-form kernel of exp(-itH0), H0 = -(1/4pi) d^2/dx^2 + pi x^2,
    for 0 < t < pi, where the metaplectic phase is exp(-i pi / 4)."""
    s, c = math.sin(t), math.cos(t)
    phase = ((x[:, None] ** 2 + x[None, :] ** 2) * c - 2.0 * np.outer(x, x)) / s
    return np.exp(-0.25j * np.pi) * abs(s) ** -0.5 * np.exp(1j * np.pi * phase)


def free_chirp(x: np.ndarray, tau: float) -> np.ndarray:
    """Analytic free-particle kernel (2 pi i tau)^(-1/2) e^{i (x-y)^2 / (2 tau)}."""
    return np.exp(1j * (x[:, None] - x[None, :]) ** 2 / (2.0 * tau)) \
        / np.sqrt(2j * np.pi * tau)


def polygonal_path(x: np.ndarray, v: np.ndarray, t: float, n: int) -> np.ndarray:
    """n-slice path quadrature: product of free chirps and potential phases."""
    h = x[1] - x[0]
    tau = t / n
    step = free_chirp(x, tau) * np.exp(-1j * tau * v)[None, :] * h
    out = np.eye(len(x), dtype=complex)
    for _ in range(n):
        out = step @ out
    return out / h


def dense_stft(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """V_g f on the dense lattice by direct sums; window exp(-pi x^2) with unit
    grid L2 norm, translated periodically; rows are positions."""
    n = len(x)
    h = x[1] - x[0]
    xi = (np.arange(n) - n // 2) / (n * h)
    g = np.exp(-np.pi * x ** 2)
    g = g / math.sqrt(np.sum(g ** 2) * h)
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None] + n // 2) % n
    windowed = values[None, :] * g[idx]  # [position, sample]
    return windowed @ np.exp(-2j * np.pi * np.outer(x, xi)) * h


def m_inf1(values: np.ndarray, x: np.ndarray) -> float:
    """M^{infty,1} estimate: sum over frequencies of sup over positions."""
    n = len(x)
    return float(np.sum(np.max(np.abs(dense_stft(values, x)), axis=0))
                 / (n * (x[1] - x[0])))


def unitarity_defect(entries: np.ndarray, cell: float) -> float:
    """max |M^* M v - v| over random probes v, with M = kernel * cell."""
    rng = np.random.default_rng(0)
    probes = rng.standard_normal((entries.shape[0], 4)) \
        + 1j * rng.standard_normal((entries.shape[0], 4))
    m = entries * cell
    return float(np.max(np.abs(m.conj().T @ (m @ probes) - probes))
                 / np.max(np.abs(probes)))


def first_order_failures(n_list, sup_errors, label: str) -> list:
    failures = []
    lo, hi = FIRST_ORDER_RATIO
    for (n1, e1), (n2, e2) in zip(zip(n_list, sup_errors),
                                  zip(n_list[1:], sup_errors[1:])):
        if n1 < FIRST_ORDER_FROM or n2 != 2 * n1:
            continue
        ratio = e1 / e2
        if not lo <= ratio <= hi:
            failures.append(f"{label}: sup error ratio {ratio:.3f} for n = {n1} -> {n2}"
                            f" outside [{lo}, {hi}]")
    return failures


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def read_csv(path: str):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _close(failures: list, label: str, value: float, limit: float):
    if not value <= limit:  # also catches NaN
        failures.append(f"{label}: {value:.3e} > {limit:.1e}")


# -- operations ---------------------------------------------------------------

class CliOperation:
    """One `proplab <command>` call on a config generated from the seed."""

    command = ""

    def __init__(self, p: dict, out_dir: str):
        from proplab.cli import Config

        self.p = p
        self.out = out_dir
        self.config_path = os.path.join(out_dir, "input.ini")
        with open(self.config_path, "w") as handle:
            handle.write(self.config_text())
        self.cfg = Config(self.config_path)

    def config_text(self) -> str:
        raise NotImplementedError

    def run(self) -> int:
        from proplab import cli

        return cli.main([self.command, "--config", self.config_path,
                         "--out", self.out, "--quiet"])

    def check(self) -> list:
        failures = []
        for ext in ("csv", "svg"):
            path = os.path.join(self.out, f"{self.command}.{ext}")
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                failures.append(f"missing output {self.command}.{ext}")
        if failures:
            return failures
        with open(os.path.join(self.out, f"{self.command}.svg")) as handle:
            if not handle.read().startswith("<svg"):
                failures.append(f"{self.command}.svg is not an SVG document")
        header, rows = read_csv(os.path.join(self.out, f"{self.command}.csv"))
        numeric = [[float(v) for v in row[1:]] for row in rows]
        if not all(math.isfinite(v) for row in numeric for v in row):
            failures.append(f"{self.command}.csv holds a non-finite number")
            return failures
        return failures + self.check_outputs(header, rows)

    def check_outputs(self, header, rows) -> list:
        raise NotImplementedError


def _cosine_potential(grid, p):
    from proplab import SampledField

    x = grid.axis()
    return SampledField(grid, p["amp"] * np.cos(2.0 * np.pi * p["freq"] * x))


class Converge(CliOperation):
    """The headline experiment: E_n(t) kernels against the n = 1024 reference."""

    command = "converge"

    def config_text(self):
        p = self.p
        return (f"[experiment]\nkind = converge\nseed = {p['seed']}\n"
                "[hamiltonian]\npreset = harmonic\n"
                f"[potential]\npreset = cosine-sum\nterms = {p['amp']!r}:{p['freq']!r}\n"
                "[grid]\nhalf_width = 8.0\npoints = 256\n"
                f"[time]\nt = 1.0\nn_list = {','.join(map(str, N_LIST))}\n"
                f"reference_n = {REFERENCE_N}\n")

    def check_outputs(self, header, rows):
        from proplab import QuadraticHamiltonian, TrotterScenario, trotter_kernel

        failures = []
        ns = [int(r[0]) for r in rows]
        if ns != list(N_LIST) or header[:2] != ["n", "sup_error"]:
            return [f"converge.csv rows {ns} / header {header[:2]} unexpected"]
        sup = [float(r[1]) for r in rows]
        failures += first_order_failures(ns, sup, "converge")
        if not all(float(v) > 0 for r in rows for v in r[-2:]):
            failures.append("converge.csv: non-positive modulation norm")
        grid = self.cfg.grid()
        sc = TrotterScenario(QuadraticHamiltonian.harmonic(1),
                             _cosine_potential(grid, self.p), 1.0, N_LIST, grid,
                             REFERENCE_N)
        for n in (N_LIST[0], N_LIST[-1]):
            _close(failures, f"unitarity of E_{n} * cell",
                   unitarity_defect(trotter_kernel(sc, n).entries, grid.cell), 1e-10)
        return failures


class Perturb(CliOperation):
    """Rough/smooth split with the decomposition checks.

    The slope gate is [0, 3], as in configs/decomposition-pinned.ini: over
    these potentials the remainder-vs-budget slope spans 0.71 to 1.01, so
    perturb-geometric's [0.8, 1.2] holds only for some of them.
    """

    command = "perturb"

    def config_text(self):
        p = self.p
        return (f"[experiment]\nkind = perturb\nseed = {p['seed']}\n"
                "[hamiltonian]\npreset = harmonic\n"
                f"[potential]\npreset = cosine-sum\nterms = {p['terms']}\n"
                "[grid]\nhalf_width = 8.0\npoints = 256\n"
                "[time]\nt = 1.0\nn_list = 4,8,16,32,64\nreference_n = 256\n"
                f"[perturb]\neps_list = {','.join(map(repr, PERTURB_EPS))}\n"
                "check_decomposition = yes\nslope_lo = 0.0\nslope_hi = 3.0\nn = 64\n")

    def check_outputs(self, header, rows):
        from proplab import StftSpec, default_window, sjostrand_decompose
        from proplab.tfa import stft, stft_adjoint

        failures = []
        eps = [float(r[0]) for r in rows]
        rem = [float(r[1]) for r in rows]
        if eps != list(PERTURB_EPS):
            return [f"perturb.csv epsilons {eps} unexpected"]
        slope = float(np.polyfit(np.log(eps), np.log(rem), 1)[0])
        if abs(slope - float(rows[0][2])) > 1e-9 or not slope > 0.0:
            failures.append(f"perturb: remainder slope {slope:.4f} (csv {rows[0][2]})")
        if not all(a > b for a, b in zip(rem, rem[1:])):
            failures.append("perturb: remainder does not shrink with the budget")
        grid = self.cfg.grid()
        v = self.cfg.potential(grid)
        x = grid.axis()
        spec = StftSpec(default_window(grid))
        vmax = float(np.max(np.abs(v.values)))
        for e in PERTURB_EPS:
            f1, f2, _ = sjostrand_decompose(v, e, spec)
            _close(failures, f"|f1 + f2 - V| at eps {e}",
                   float(np.max(np.abs(f1.values + f2.values - v.values))) / vmax, 1e-12)
            _close(failures, f"||f2|| / eps at eps {e}", m_inf1(f2.values, x) / e,
                   1.0 + 1e-9)
        mat = stft(v, spec)
        _close(failures, "program STFT vs direct sums",
               rel_diff(mat.values, dense_stft(v.values, x)), 1e-10)
        rec = stft_adjoint(mat, spec)
        _close(failures, "STFT inversion",
               float(np.linalg.norm(rec.values - v.values) / np.linalg.norm(v.values)),
               1e-8)
        return failures


class Kernel(CliOperation):
    """Quadrature, chirp-Z and Mehler kernels of the harmonic propagator."""

    command = "kernel"

    def config_text(self):
        return ("[experiment]\nkind = kernel\n[hamiltonian]\npreset = harmonic\n"
                "[grid]\nhalf_width = 16.0\npoints = 1024\n"
                f"[time]\nt = {self.p['t_kernel']!r}\n[kernel]\ntolerance = 1e-6\n")

    def check_outputs(self, header, rows):
        from proplab import QUADRATURE, QuadraticHamiltonian, propagator_for

        failures = []
        names = [r[0] for r in rows]
        if names != ["quadrature_vs_mehler", "fast_vs_quadrature", "sup_magnitude"]:
            return [f"kernel.csv checks {names} unexpected"]
        for name, residual, _ in rows:
            _close(failures, f"kernel {name}", float(residual), 1e-6)
        grid = self.cfg.grid()
        t = self.p["t_kernel"]
        kq = propagator_for(QuadraticHamiltonian.harmonic(1), t, grid,
                            method=QUADRATURE).kernel().entries
        _close(failures, "quadrature kernel vs Mehler closed form",
               rel_diff(kq, mehler_kernel(grid.axis(), t)), 1e-9)
        return failures


class Exceptional(CliOperation):
    """Kernel growth approaching the exceptional time t* = pi."""

    command = "exceptional"

    def offsets(self):
        return [round(self.p["offset_scale"] * d, 6) for d in EXCEPTIONAL_OFFSETS]

    def config_text(self):
        return ("[experiment]\nkind = exceptional\n[hamiltonian]\npreset = harmonic\n"
                "[grid]\nhalf_width = 16.0\npoints = 1024\n"
                f"[exceptional]\nt_star = {math.pi!r}\n"
                f"offsets = {','.join(map(repr, self.offsets()))}\n"
                "ratio_spread = 0.01\n")

    def check_outputs(self, header, rows):
        failures = []
        deltas = [float(r[0]) for r in rows]
        if deltas != self.offsets():
            return [f"exceptional.csv offsets {deltas} unexpected"]
        sups = [float(r[1]) for r in rows]
        for d, row in zip(deltas, rows):
            # B_t = sin t for the harmonic flow, so |det B|^{-1/2} = sin(delta)^{-1/2}
            # at t = pi - delta, and a chirp kernel has that modulus everywhere
            expect = math.sin(d) ** -0.5
            _close(failures, f"|det B|^-1/2 at delta {d}",
                   abs(float(row[2]) - expect) / expect, 1e-8)
            _close(failures, f"sup kernel at delta {d}",
                   abs(float(row[1]) - expect) / expect, 1e-8)
        if not all(a < b for a, b in zip(sups, sups[1:])):
            failures.append("exceptional: sup kernel does not grow toward t*")
        return failures


class Freeslice(CliOperation):
    """Polygonal path quadrature against the chirp product kernel."""

    command = "freeslice"

    def config_text(self):
        p = self.p
        return ("[experiment]\nkind = freeslice\n"
                f"[potential]\npreset = cosine-sum\nterms = {p['amp']!r}:{p['freq']!r}\n"
                "[grid]\nhalf_width = 16.0\npoints = 1024\n"
                "[time]\nt = 1.0\nn_list = 1,2,4,8\n[freeslice]\ntolerance = 1e-8\n")

    def check_outputs(self, header, rows):
        from proplab import (CHIRP, QuadraticHamiltonian, TrotterScenario,
                             time_slice_free_kernel, trotter_kernel)

        failures = []
        if [int(r[0]) for r in rows] != [1, 2, 4, 8]:
            return ["freeslice.csv step counts unexpected"]
        for n, diff in rows:
            _close(failures, f"freeslice n = {n}", float(diff), 1e-8)
        grid = self.cfg.grid()
        v = self.cfg.potential(grid)
        x = grid.axis()
        own = free_chirp(x, 1.0) * np.exp(-1j * v.values)[None, :]
        sc = TrotterScenario(QuadraticHamiltonian.free_particle(1), v, 1.0, (1,),
                             grid, 4)
        _close(failures, "chirp E_1 vs analytic free chirp",
               rel_diff(trotter_kernel(sc, 1, method=CHIRP).entries, own), 1e-9)
        _close(failures, "path quadrature n = 2 vs direct product",
               rel_diff(time_slice_free_kernel(v, 1.0, 2, grid).entries,
                        polygonal_path(x, v.values, 1.0, 2)), 1e-9)
        return failures


class Oracles(CliOperation):
    """The cross-module oracle battery for one program seed."""

    command = "oracles"

    def config_text(self):
        return ("[experiment]\nkind = oracles\n"
                f"seed = {self.p['oracle_seed']}\n"
                f"[oracles]\nchecks = {','.join(ORACLE_CHECKS)}\nmeasure_sets = 10\n")

    def check_outputs(self, header, rows):
        failures = []
        if [r[0] for r in rows] != list(ORACLE_CHECKS):
            return [f"oracles.csv checks {[r[0] for r in rows]} unexpected"]
        for name, residual, _ in rows:
            _close(failures, f"oracle {name}", float(residual), ORACLE_CHECKS[name])
        if not float(rows[-1][1]) > 0.0:
            failures.append("oracle measure_bound: zero norm estimate")
        return failures


class Trotter:
    """Library calls: reference_kernel and trotter_kernel over N_LIST on a
    512-point grid with L = 16 (spectral steps, no tfa).  At 1024 points the
    operation takes 14 s with one BLAS thread, which would leave `kernels` too
    few rounds per run; at 512 the sup error ratios from n = 32 on are 2.07
    to 2.34 over seeds 1-20."""

    def __init__(self, p: dict, out_dir: str):
        from proplab import GridSpec, QuadraticHamiltonian, TrotterScenario

        grid = GridSpec(1, 16.0, 512)
        self.sc = TrotterScenario(QuadraticHamiltonian.harmonic(1),
                                  _cosine_potential(grid, p), 1.0, N_LIST, grid,
                                  REFERENCE_N)

    def run(self) -> int:
        from proplab import trotter

        self.ref = trotter.reference_kernel(self.sc)
        self.kernels = [trotter.trotter_kernel(self.sc, n) for n in self.sc.n_list]
        return 0

    def check(self) -> list:
        failures = []
        grid = self.sc.grid
        x = grid.axis()
        keep = np.abs(x) <= 0.5 * grid.half_width + 1e-12
        ref = self.ref.kernel.entries
        sup = [float(np.max(np.abs(k.entries - ref)[np.ix_(keep, keep)]))
               for k in self.kernels]
        failures += first_order_failures(self.sc.n_list, sup, "trotter")
        _close(failures, "final sup error / Cauchy tag", sup[-1] / self.ref.cauchy_tag, 5.0)
        for n, k in [(REFERENCE_N, self.ref.kernel)] + list(zip(self.sc.n_list,
                                                                 self.kernels)):
            _close(failures, f"unitarity of E_{n} * cell",
                   unitarity_defect(k.entries, grid.cell), 1e-10)
        return failures


OPERATIONS = {"converge": Converge, "perturb": Perturb, "trotter": Trotter,
              "kernel": Kernel, "exceptional": Exceptional, "freeslice": Freeslice,
              "oracles": Oracles}
