"""Configuration-driven experiment runner.

Subcommands: flow, kernel, converge, modbound, exceptional, perturb,
freeslice, oracles.  Each reads an INI config (section layout documented in
the README), runs one scenario, checks the scenario's built-in assertions,
and returns its table; main writes the table as <command>.csv plus a
self-contained SVG line plot <command>.svg into the output directory.  Exit
status: 0 on success, 1 on a failed assertion or scenario error, 2 on a
malformed config.  All outputs are deterministic given the seed, and files
are only written once the whole scenario has finished.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import ctypes
import os
import sys
import tempfile

import numpy as np

from ._kernels import free_chirp
from .errors import ConfigError, EmptyTable, ProplabError
from .grid import (GridSpec, SampledField, SymbolField, _centered_fft, dft,
                   sup_norm_on_compact)
from .metaplectic import mehler_oracle, propagator_for
from .rng import SplitMix64
from .symplectic import QuadraticHamiltonian, flow, phase_form
from .tfa import (INF_1, StftSpec, default_window, frequency_profile,
                  measure_norm_bound, measure_potential_field, mod_norm, stft,
                  stft_adjoint, wigner)
from .trotter import (CHIRP, KERNEL_LATTICE_STEP, TrotterScenario,
                      convergence_report, exceptional_blowup_scan,
                      factor_out_phase, kernel_mod_norm,
                      perturbation_split_report, time_slice_free_kernel,
                      trotter_kernel)
from .weyl import (fio_swap_residual, symplectic_covariance_residual,
                   weyl_quantize)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2


# -- number and file formatting -------------------------------------------

def format_number(x) -> str:
    """Shortest round-trip decimal; integers stay integral."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str):
    """Write text to path through a temporary file renamed over it, with
    the mode a plain open(path, "w") gives, 0o666 less the umask, rather
    than mkstemp's 0o600."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        umask = os.umask(0)  # the only way to read it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- SVG line plots --------------------------------------------------------

def emit_svg(header, rows, plot_spec) -> str:
    """Self-contained SVG of a table, one polyline per column named in
    plot_spec["y"].

    The x values are the column plot_spec["x"] or, without one, the 1-based
    row number; a log y axis floors its values at 1e-18.  plot_spec also
    holds title, xlabel, ylabel, optional xlog/ylog flags and series labels.
    """
    if not rows:
        raise EmptyTable("no rows to plot")
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    xlog = plot_spec.get("xlog", False)
    ylog = plot_spec.get("ylog", False)

    def column(name):
        return [r[header.index(name)] for r in rows]

    xcol = column(plot_spec["x"]) if "x" in plot_spec else range(1, len(rows) + 1)
    series = [[(x, max(y, 1e-18) if ylog else y) for x, y in zip(xcol, column(name))]
              for name in plot_spec["y"]]

    def tx(v, log):
        return np.log10(v) if log else v

    xs = [tx(p[0], xlog) for s in series for p in s]
    ys = [tx(p[1], ylog) for s in series for p in s]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(v):
        return ml + (tx(v, xlog) - x0) / (x1 - x0) * (width - ml - mr)

    def py(v):
        return height - mb - (tx(v, ylog) - y0) / (y1 - y0) * (height - mt - mb)

    colors = ["#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910",
              "#16a085", "#7f8c8d", "#2c3e50", "#a93226"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="24" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{plot_spec.get("title", "")}</text>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{plot_spec.get("xlabel", "")}</text>',
        f'<text x="16" y="{height / 2}" text-anchor="middle" font-family="monospace" '
        f'font-size="12" transform="rotate(-90 16 {height / 2})">'
        f'{plot_spec.get("ylabel", "")}</text>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" '
        f'height="{height - mt - mb}" fill="none" stroke="#555"/>',
    ]
    for corner, anchor, val in ((ml, "start", x0), (width - mr, "end", x1)):
        label = f"1e{val:.2f}" if xlog else f"{val:.4g}"
        parts.append(f'<text x="{corner}" y="{height - mb + 16}" text-anchor="{anchor}" '
                     f'font-family="monospace" font-size="10">{label}</text>')
    for yv, val in ((height - mb, y0), (mt, y1)):
        label = f"1e{val:.2f}" if ylog else f"{val:.4g}"
        parts.append(f'<text x="{ml - 6}" y="{yv + 4}" text-anchor="end" '
                     f'font-family="monospace" font-size="10">{label}</text>')
    labels = plot_spec.get("labels", [])
    for k, s in enumerate(series):
        color = colors[k % len(colors)]
        pts = " ".join(f"{px(p[0]):.2f},{py(p[1]):.2f}" for p in s)
        if len(s) == 1:
            parts.append(f'<circle cx="{px(s[0][0]):.2f}" cy="{py(s[0][1]):.2f}" '
                         f'r="4" fill="{color}"/>')
        else:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        if k < len(labels):
            parts.append(f'<text x="{width - mr - 8}" y="{mt + 16 + 14 * k}" '
                         f'text-anchor="end" font-family="monospace" font-size="11" '
                         f'fill="{color}">{labels[k]}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- config parsing --------------------------------------------------------

def _finite(value):
    if not np.all(np.isfinite(value)):
        raise ValueError(value)
    return value


def _list(item):
    """Comma-separated items, empty ones skipped; no item at all is an error."""
    def parse(text):
        values = [item(v.strip()) for v in text.split(",") if v.strip()]
        if not values:
            raise ValueError(text)
        return values
    return parse


def _pair(second):
    def parse(text):
        first, other = text.split(":")
        return _finite((float(first), second(other)))
    return parse


TEXT = (str, "text")
INT = (int, "an integer")
REAL = (lambda text: _finite(float(text)), "a finite number")
INTS = (_list(int), "a non-empty list of integers")
REALS = (_list(REAL[0]), "a non-empty list of finite numbers")
TERMS = (_list(_pair(float)), "a non-empty list of finite amplitude:frequency")
ATOMS = (_list(_pair(complex)), "a non-empty list of finite position:mass")
NAMES = (_list(str), "a non-empty list of names")

# A domain is (predicate, rule): a value the predicate rejects is a config
# error that names the key and states the rule.
POSITIVE = (lambda v: v > 0, "positive")
# Step counts stop at 2^20, far past desk scale; the reference run may take
# four times that, so its default 4 * max(n_list) always fits.
MAX_STEPS = 2**20
# Case counts ([flow] count, [oracles] measure_sets) stop at 2^16: about 6 s
# of flow cases or 5 min of measure sets.
MAX_CASES = 2**16
SEED = (lambda s: 0 <= s < 2**64, "in 0..2^64 - 1")


def _count_upto(cap: int):
    return (lambda n: 1 <= n <= cap, f"in 1..{cap}")


def _one_of(*choices):
    return (lambda v: v in choices, " | ".join(choices))


ORACLE_CHECKS = ("free_kernel", "mehler", "stft_inversion", "wigner_duality",
                 "covariance", "fio_swap", "measure_bound")

# (section, key) -> ((parse, noun), default as raw text or None for a required
# key, domain or None); parse raises ValueError on text that is not the noun.
# A (command, section, key) row is that command's own reading of the key.  The
# runners pass the defaults that depend on other keys ([kernel] radius, [time]
# reference_n, [perturb] n), and potential() checks [potential] band.
KEYS = {
    ("experiment", "seed"): (INT, "1", SEED),
    ("experiment", "kind"): (TEXT, None, None),  # names the command: Config checks it
    ("grid", "dim"): (INT, "1", None),
    # far outside this box the diagnostics' squared cells overflow the floats
    ("grid", "half_width"): (REAL, None, (lambda v: 1e-6 <= v <= 1e6, "in [1e-6, 1e6]")),
    # desk scale: a dense N x N kernel stays at 16 MiB
    ("grid", "points"): (INT, None, (lambda n: n <= 1024, "at most 1024")),
    ("hamiltonian", "preset"): (TEXT, "harmonic", _one_of("harmonic", "free", "explicit")),
    ("kernel", "hamiltonian", "preset"): (TEXT, "harmonic", _one_of("free", "harmonic")),
    ("hamiltonian", "a"): (REAL, None, None),
    ("hamiltonian", "b"): (REAL, None, None),
    ("hamiltonian", "c"): (REAL, None, None),
    ("potential", "preset"): (TEXT, "zero", _one_of(
        "zero", "cosine-sum", "gaussian-bump", "measure-atoms", "random-band-limited")),
    ("potential", "terms"): (TERMS, None, None),
    ("potential", "amplitude"): (REAL, "1.0", None),
    ("potential", "width"): (REAL, "1.0", POSITIVE),
    ("potential", "center"): (REAL, "0.0", None),
    ("potential", "atoms"): (ATOMS, None, None),
    ("potential", "band"): (INT, "5", None),
    ("time", "t"): (REAL, "1.0", None),
    ("time", "n_list"): (INTS, "4,8,16,32,64,128,256", (
        lambda ns: all(1 <= n <= MAX_STEPS for n in ns), f"in 1..{MAX_STEPS}")),
    ("freeslice", "time", "n_list"): (INTS, "1,2,4,8", (
        lambda ns: all(1 <= n <= 8 for n in ns), "in 1..8 for the path quadrature")),
    ("time", "reference_n"): (INT, None, _count_upto(4 * MAX_STEPS)),
    ("flow", "count"): (INT, "200", _count_upto(MAX_CASES)),
    ("flow", "t_range"): (REALS, "-10,10", (
        lambda r: len(r) == 2 and np.isfinite(r[1] - r[0]),
        "two values whose difference is finite")),
    ("flow", "symplectic_tol"): (REAL, "1e-10", None),
    ("flow", "group_tol"): (REAL, "1e-8", None),
    ("flow", "inverse_tol"): (REAL, "1e-10", None),
    ("kernel", "radius"): (REAL, None, POSITIVE),
    ("kernel", "tolerance"): (REAL, "1e-3", None),
    ("converge", "collapse_tol"): (REAL, "0.0", None),
    ("modbound", "ratio_cap"): (REAL, "3.0", None),
    ("exceptional", "t_star"): (REAL, None, None),
    ("exceptional", "offsets"): (REALS, "0.2,0.1,0.05,0.025", None),
    ("exceptional", "ratio_spread"): (REAL, "0.01", None),
    # budgets closer than a relative 1e-6 leave the slope fit ill-conditioned
    ("perturb", "eps_list"): (REALS, "0.2,0.1,0.05", (
        lambda e: all(0.0 < eps <= 1.0 for eps in e) and max(e) / min(e) >= 1 + 1e-6,
        "values in (0, 1] spanning a factor of 1 + 1e-6 for the slope fit")),
    ("perturb", "slope_lo"): (REAL, "0.8", None),
    ("perturb", "slope_hi"): (REAL, "1.2", None),
    ("perturb", "check_decomposition"): (TEXT, "no", _one_of("yes", "no")),
    ("perturb", "n"): (INT, None, _count_upto(MAX_STEPS)),
    ("freeslice", "tolerance"): (REAL, "1e-8", None),
    ("oracles", "checks"): (NAMES, ",".join(ORACLE_CHECKS), (
        lambda cs: set(cs) <= set(ORACLE_CHECKS), "some of " + ", ".join(ORACLE_CHECKS))),
    ("oracles", "measure_sets"): (INT, "10", _count_upto(MAX_CASES)),
}
DECLARED = {row[-2:] for row in KEYS}


@contextlib.contextmanager
def _config_errors(where: str):
    """Report a library's ValueError on config input as a config error, so the
    library's own input check is not repeated here."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(f"{where}: {err}")


class Config:
    """The INI file of one command (by default its [experiment] kind), read
    one key at a time through the key's row of KEYS.  A section or key that
    no row declares, or any key under [DEFAULT], is a config error at once."""

    def __init__(self, path: str, seed_override=None, command=None):
        parser = configparser.ConfigParser(interpolation=None)
        try:
            found = parser.read(path, encoding="utf-8-sig")  # a BOM is UTF-8 too
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path} is not UTF-8: {err}") from None
        if not found:
            raise ConfigError(f"cannot read config file: {path}")
        if parser.defaults():
            raise ConfigError(f"[DEFAULT] holds keys: {', '.join(parser.defaults())}")
        for section in parser.sections():
            unknown = [key for key in parser[section] if (section, key) not in DECLARED]
            if unknown or section not in {s for s, _ in DECLARED}:
                raise ConfigError(f"undeclared [{section}] {' '.join(unknown)}".rstrip())
        self.parser, self.path, self.command = parser, path, command
        if parser.has_option("experiment", "kind"):
            kind = self.get("experiment", "kind")
            if command not in (None, kind):
                raise ConfigError(f"[experiment] kind {kind} is not the command {command}")
            self.command = kind
        self.seed = seed_override
        if self.seed is None:
            self.seed = self.get("experiment", "seed")
        elif not SEED[0](self.seed):
            raise ConfigError(f"--seed must be {SEED[1]}: {self.seed}")

    def get(self, section, key, default=None):
        """[section] key, read through the command's row of KEYS or the shared one."""
        (parse, noun), fallback, domain = (KEYS.get((self.command, section, key))
                                           or KEYS[section, key])
        raw = self.parser.get(section, key,
                              fallback=fallback if default is None else str(default))
        if raw is None:
            raise ConfigError(f"missing [{section}] {key} in {self.path}")
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not {noun}: {raw!r}") from None
        if domain is not None and not domain[0](value):
            raise ConfigError(f"[{section}] {key} must be {domain[1]}: {value}")
        return value

    def grid(self) -> GridSpec:
        values = [self.get("grid", key) for key in ("dim", "half_width", "points")]
        with _config_errors("[grid]"):
            return GridSpec(*values)

    def hamiltonian(self) -> QuadraticHamiltonian:
        preset = self.get("hamiltonian", "preset")
        if preset == "harmonic":
            return QuadraticHamiltonian.harmonic(1)
        if preset == "free":
            return QuadraticHamiltonian.free_particle(1)
        return QuadraticHamiltonian(1, *(self.get("hamiltonian", k) for k in "abc"))

    def potential(self, grid: GridSpec) -> SampledField:
        preset = self.get("potential", "preset")
        x = grid.axis()
        # values that overflow the float range are the field's ValueError
        with _config_errors("[potential]"), np.errstate(over="ignore", invalid="ignore"):
            if preset == "zero":
                return SampledField(grid, np.zeros(grid.points))
            if preset == "cosine-sum":
                vals = np.zeros(grid.points)
                for amp, freq in self.get("potential", "terms"):
                    vals = vals + amp * np.cos(2.0 * np.pi * freq * x)
                return SampledField(grid, vals)
            if preset == "gaussian-bump":
                amp, width, center = (self.get("potential", key)
                                      for key in ("amplitude", "width", "center"))
                bump = np.exp(-np.pi * ((x - center) / width) ** 2)
                return SampledField(grid, amp * bump)
            if preset == "measure-atoms":
                return measure_potential_field(self.get("potential", "atoms"), grid)
            # random-band-limited
            n = grid.points
            band = self.get("potential", "band")
            if not 0 <= band < n // 2:
                raise ConfigError(f"[potential] band must be in 0..{n // 2 - 1} "
                                  f"for points = {n}: {band}")
            rng = SplitMix64(self.seed)
            spec = np.zeros(n, dtype=complex)
            coeffs = rng.normals(2 * band + 1) + 1j * rng.normals(2 * band + 1)
            spec[n // 2 - band: n // 2 + band + 1] = coeffs
            # V is the real part, whose spectrum stays on |k| <= band
            field = dft(SampledField(grid, spec), +1)
            return SampledField(grid, field.values.real)


# -- scenario runners ------------------------------------------------------

def _check(ok: bool, message: str) -> list:
    """The failures of one condition: none, or its message."""
    return [] if ok else [message]


def run_flow(cfg: Config):
    """Random-Hamiltonian flow suite: symplectic, group-law, inverse defects."""
    count = cfg.get("flow", "count")
    t_lo, t_hi = cfg.get("flow", "t_range")
    tol_sym = cfg.get("flow", "symplectic_tol")
    tol_group = cfg.get("flow", "group_tol")
    tol_inv = cfg.get("flow", "inverse_tol")
    rng = SplitMix64(cfg.seed)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rows = []
    failures = []
    for i in range(count):
        a = rng.normals(1)[0]
        b = rng.normals(1)[0]
        c = rng.normals(1)[0]
        t = t_lo + (t_hi - t_lo) * rng.uniform()
        h = QuadraticHamiltonian(1, a, b, c)
        try:
            m, m2, minv = [flow(h, s).matrix() for s in (t, 0.5 * t, -t)]
        except ProplabError as err:
            raise ProplabError(f"flow case {i}: {err}")
        with np.errstate(over="ignore", invalid="ignore"):
            sym = float(np.max(np.abs(m.T @ j @ m - j)))
            group = float(np.max(np.abs(m2 @ m2 - m)))
            inv = float(np.max(np.abs(minv @ m - np.eye(2))))
        if not np.isfinite(sym + group + inv):
            raise ProplabError(f"flow case {i} at t = {t!r}: the defects overflow")
        rows.append((i, t, sym, group, inv))
        failures += _check(sym <= tol_sym, f"symplectic defect {sym:.2e} at case {i}")
        failures += _check(group <= tol_group, f"group-law defect {group:.2e} at case {i}")
        failures += _check(inv <= tol_inv, f"inverse defect {inv:.2e} at case {i}")
    return (("case", "t", "symplectic_defect", "group_defect", "inverse_defect"), rows,
            {"title": "flow defects", "xlabel": "case", "ylabel": "symplectic defect",
             "ylog": True, "y": ["symplectic_defect"]}, failures)


def _free_kernel_residual(t: float, grid: GridSpec, radius: float) -> float:
    """Sup difference on |x|, |y| <= radius between the quadrature kernel of
    the free propagator and the analytic chirp, relative to the chirp's sup."""
    kq = propagator_for(QuadraticHamiltonian.free_particle(1), t, grid).kernel_entries()
    ana = free_chirp(grid.axis(), t)  # a read-only view, so kq takes the difference
    return (sup_norm_on_compact(np.subtract(kq, ana, out=kq), grid, radius)
            / float(np.max(np.abs(ana))))


def _residual_table(name: str, rows, title: str):
    """The table of (check, residual, threshold) rows, with one failure per
    row whose residual is not within its threshold."""
    return (("check", "residual", "threshold"), rows,
            {"title": title, "xlabel": "check #", "ylabel": "residual", "ylog": True,
             "y": ["residual"]},
            [f"{name} {check}: {res:.3e} > {thr}" for check, res, thr in rows
             if not res <= thr])


def run_kernel(cfg: Config):
    """Propagator kernel oracle comparisons on one grid."""
    preset = cfg.get("hamiltonian", "preset")
    grid = cfg.grid()
    t = cfg.get("time", "t")
    radius = cfg.get("kernel", "radius", 0.5 * grid.half_width)
    tol = cfg.get("kernel", "tolerance")
    if preset == "free":
        rows = [("free_vs_analytic", _free_kernel_residual(t, grid, radius), tol)]
    else:
        prop = propagator_for(QuadraticHamiltonian.harmonic(1), t, grid)
        kq = prop.kernel_entries()
        ko = mehler_oracle(t, grid).entries
        scale = float(np.max(np.abs(ko)))
        quad = float(np.max(np.abs(np.subtract(kq, ko, out=ko)))) / scale
        sup_pred = abs(np.sin(t)) ** -0.5
        rows = [("quadrature_vs_mehler", quad, tol),
                ("fast_vs_quadrature", _fast_vs_quadrature(prop, kq) / scale, tol),
                ("sup_magnitude", abs(float(np.max(np.abs(kq))) - sup_pred) / sup_pred,
                 tol)]
    return _residual_table("kernel", rows, "kernel oracle residuals")


# columns of the identity per fast-path block: the fast path's working set is
# a few N x FAST_PATH_BLOCK arrays instead of N x N ones
FAST_PATH_BLOCK = 64


def _fast_vs_quadrature(prop, kq: np.ndarray) -> float:
    """max |fast path applied to the identity / cell - kq|, one block of
    identity columns at a time.  The fast path's FFTs transform each column
    on its own, so this is the full product's maximum bit for bit."""
    n = prop.grid.points
    worst = 0.0
    for j in range(0, n, FAST_PATH_BLOCK):
        cols = np.eye(n, min(FAST_PATH_BLOCK, n - j), -j, dtype=complex) / prop.grid.cell
        diff = prop.apply_columns(cols)
        diff -= kq[:, j:j + FAST_PATH_BLOCK]
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _scenario(cfg: Config, reference: bool = False):
    """The [grid]/[hamiltonian]/[potential]/[time] scenario of the runners
    that take kernel modulation norms.

    Only converge builds a reference kernel, so only it (reference = True)
    reads [time] reference_n; the others take 4 * max(n_list)."""
    grid = cfg.grid()
    with _config_errors(f"[grid] points = {grid.points} does not fit "
                        "the kernel norm lattice"):
        StftSpec(default_window(grid), KERNEL_LATTICE_STEP)
    h = cfg.hamiltonian()
    v = cfg.potential(grid)
    t = cfg.get("time", "t")
    n_list = cfg.get("time", "n_list")
    ref_n = 4 * max(n_list)
    if reference:
        ref_n = cfg.get("time", "reference_n", ref_n)
    # an exceptional t is the scenario's NotFree, before any numerics
    with _config_errors("[time]"):
        return TrotterScenario(h, v, t, n_list, grid, ref_n)


def run_converge(cfg: Config):
    sc = _scenario(cfg, reference=True)
    collapse_tol = cfg.get("converge", "collapse_tol")
    rows, cauchy_tag = convergence_report(sc)
    header = ["n", "sup_error"]
    header += [f"fl1_z{i}{j}" for i in range(3) for j in range(3)]
    header += ["mod_inf1", "mod_infs"]
    plot = {"title": "kernel convergence", "xlabel": "n", "ylabel": "sup error",
            "xlog": True, "ylog": True, "labels": ["sup error"], "x": "n",
            "y": ["sup_error"]}
    sup = [r[1] for r in rows]
    if collapse_tol > 0.0:
        failures = _check(max(sup) <= collapse_tol,
                          f"collapse error {max(sup):.2e} > {collapse_tol}")
        return header, rows, plot, failures
    failures = _check(all(a > b for a, b in zip(sup, sup[1:])),
                      "sup errors are not strictly decreasing")
    floor = 5.0 * cauchy_tag
    failures += _check(sup[-1] <= floor, f"final error {sup[-1]:.2e} above 5x "
                       f"Cauchy tag {cauchy_tag:.2e}")
    # each of the nine fl1 columns, named as in the CSV
    for name, seq in zip(header[2:11], zip(*(r[2:11] for r in rows))):
        ok = all(a > b or b <= floor for a, b in zip(seq, seq[1:]))
        failures += _check(ok, f"windowed error {name} not decreasing")
    return header, rows, plot, failures


def run_modbound(cfg: Config):
    sc = _scenario(cfg)
    ratio_cap = cfg.get("modbound", "ratio_cap")
    rows = []
    for n in sc.n_list:
        flat = factor_out_phase(trotter_kernel(sc, n), sc.phase)
        rows.append((n, kernel_mod_norm(flat)))
    norms = [r[1] for r in rows]
    ratio = max(norms) / min(norms)
    return (("n", "mod_inf1"), rows,
            {"title": "phase-factored mod norm", "xlabel": "n",
             "ylabel": "Inf1 norm", "xlog": True, "x": "n", "y": ["mod_inf1"]},
            _check(ratio <= ratio_cap, f"mod-norm ratio {ratio:.3f} > {ratio_cap}"))


def run_exceptional(cfg: Config):
    grid = cfg.grid()
    h = cfg.hamiltonian()
    t_star = cfg.get("exceptional", "t_star")
    offsets = cfg.get("exceptional", "offsets")
    spread_cap = cfg.get("exceptional", "ratio_spread")
    # the scan refuses a t_star that is not exceptional and offsets <= 0
    with _config_errors("[exceptional]"):
        rows = exceptional_blowup_scan(h, t_star, offsets, grid)
    ratios = [r[3] for r in rows]
    spread = max(ratios) / min(ratios) - 1.0
    return (("delta", "sup_kernel", "detB_invsqrt", "ratio"), rows,
            {"title": "blow-up approaching the exceptional time", "xlabel": "delta",
             "ylabel": "sup |kernel|", "xlog": True, "ylog": True,
             "labels": ["measured", "|det B|^-1/2"], "x": "delta",
             "y": ["sup_kernel", "detB_invsqrt"]},
            _check(spread <= spread_cap,
                   f"ratio spread {spread:.4f} exceeds {spread_cap}"))


def run_perturb(cfg: Config):
    sc = _scenario(cfg)
    eps_list = cfg.get("perturb", "eps_list")
    slope_lo, slope_hi = cfg.get("perturb", "slope_lo"), cfg.get("perturb", "slope_hi")
    check_decomp = cfg.get("perturb", "check_decomposition")
    n = cfg.get("perturb", "n", max(sc.n_list))
    failures = []
    results = []
    spec = StftSpec(default_window(sc.grid))
    for eps, f1, f2, r, rem, bound in perturbation_split_report(sc, eps_list, n):
        if check_decomp == "yes":
            norm2 = mod_norm(f2, spec, INF_1)
            failures += _check(norm2 <= eps, f"||f2|| = {norm2:.4e} exceeds eps {eps}")
            # the low band must stay frequency-localized near the cut radius
            prof = frequency_profile(f1, spec)
            beyond = float(np.sum(prof[np.abs(spec.xi_axis()) > r + 2.0]))
            # a zero low band (V = 0) leaks nothing; its ratio would be 0/0
            leak = beyond / float(np.sum(prof)) if beyond > 0.0 else 0.0
            failures += _check(leak <= 1e-6, f"f1 leaks {leak:.2e} beyond the cut")
        failures += _check(rem <= bound, f"remainder {rem:.3e} above bound {bound:.3e}")
        results.append((eps, rem))
    slope = float(np.polyfit(np.log([r[0] for r in results]),
                             np.log([max(r[1], 1e-300) for r in results]), 1)[0])
    failures += _check(slope_lo <= slope <= slope_hi,
                       f"log-log slope {slope:.3f} outside [{slope_lo}, {slope_hi}]")
    return (("epsilon", "remainder_norm", "linear_fit_slope"),
            [(eps, rem, slope) for eps, rem in results],
            {"title": "remainder vs split budget", "xlabel": "epsilon",
             "ylabel": "remainder norm", "xlog": True, "ylog": True, "x": "epsilon",
             "y": ["remainder_norm"]}, failures)


def run_freeslice(cfg: Config):
    grid = cfg.grid()
    v = cfg.potential(grid)
    t = cfg.get("time", "t")
    n_list = cfg.get("time", "n_list")
    tol = cfg.get("freeslice", "tolerance")
    with _config_errors("[time]"):
        sc = TrotterScenario(QuadraticHamiltonian.free_particle(1), v, t, n_list,
                             grid, 4 * max(n_list))
    failures = []
    rows = []
    for n in n_list:
        err = _slice_mismatch(sc, n)
        rows.append((n, err))
        failures += _check(err <= tol, f"slice mismatch {err:.2e} at n={n}")
    return (("n", "relative_difference"), rows,
            {"title": "polygonal slicing vs product kernel", "xlabel": "n",
             "ylabel": "relative difference", "ylog": True, "x": "n",
             "y": ["relative_difference"]}, failures)


def _slice_mismatch(sc: TrotterScenario, n: int) -> float:
    """max |E_n (CHIRP) - path quadrature| relative to max |E_n|; both
    kernels die on return, so the next n powers with neither alive."""
    kt = trotter_kernel(sc, n, method=CHIRP).entries
    ks = time_slice_free_kernel(sc.potential, sc.t, n, sc.grid).entries
    scale = float(np.max(np.abs(kt)))
    return float(np.max(np.abs(np.subtract(kt, ks, out=ks)))) / scale


def _random_symbol(rng: SplitMix64, grid: GridSpec):
    """Smooth band-limited random symbol on the phase grid."""
    n = grid.points
    c = np.zeros((n, n), dtype=complex)
    c[n // 2 - 6: n // 2 + 7, n // 2 - 3: n // 2 + 4] = (
        rng.normals(13 * 7).reshape(13, 7) + 1j * rng.normals(13 * 7).reshape(13, 7))
    return SymbolField(grid, _centered_fft(_centered_fft(c, n, +1, 1), n, +1, 0))


def _oracle_battery(cfg: Config, checks, measure_sets: int):
    """(name, residual, threshold) triples for the cross-module oracle run."""
    grid = GridSpec(1, 8.0, 256)
    rng = SplitMix64(cfg.seed)
    sspec = StftSpec(default_window(grid))
    harm = QuadraticHamiltonian.harmonic(1)
    rows = []

    if "free_kernel" in checks:
        rows.append(("free_kernel",
                     _free_kernel_residual(1.0, GridSpec(1, 12.0, 1024), 6.0), 1e-3))

    if "mehler" in checks:
        ko = mehler_oracle(1.0, grid)
        kq = propagator_for(harm, 1.0, grid).kernel_entries()
        rows.append(("mehler", float(np.max(np.abs(ko.entries - kq)))
                     / float(np.max(np.abs(ko.entries))), 1e-6))

    n = grid.points
    spec_vals = np.zeros(n, dtype=complex)
    spec_vals[n // 2 - 12: n // 2 + 12] = rng.normals(24) + 1j * rng.normals(24)
    f = dft(SampledField(grid, spec_vals), +1)

    if "stft_inversion" in checks:
        rec = stft_adjoint(stft(f, sspec), sspec)
        rows.append(("stft_inversion",
                     float(np.linalg.norm(rec.values - f.values))
                     / float(np.linalg.norm(f.values)), 1e-8))

    sig = _random_symbol(rng, grid)

    if "wigner_duality" in checks:
        # localized packets: the periodized quantizer and the non-periodic
        # Wigner transform only agree on functions that decay inside the box
        x = grid.axis()
        fp = SampledField(grid, np.exp(-np.pi * (x - 0.3) ** 2)
                          * np.exp(2j * np.pi * 0.7 * x))
        gp = SampledField(grid, np.exp(-np.pi * (x + 0.5) ** 2 / 1.3)
                          * np.exp(-2j * np.pi * 1.1 * x))
        lhs = np.vdot(gp.values, weyl_quantize(sig).apply(fp).values) * grid.cell
        w = wigner(fp, gp)
        rhs = np.sum(sig.values * w.values) * sig.grid.cell * sig.grid.freq_cell
        rows.append(("wigner_duality", abs(lhs - rhs) / abs(rhs), 1e-6))

    if "covariance" in checks:
        quarter = flow(harm, 0.5 * np.pi)
        rows.append(("covariance",
                     symplectic_covariance_residual(sig, quarter), 1e-3))

    if "fio_swap" in checks:
        phi = phase_form(flow(harm, 0.7))
        rows.append(("fio_swap", fio_swap_residual(sig, phi), 1e-3))

    if "measure_bound" in checks:
        worst = 0.0
        for _ in range(measure_sets):
            count = 2 + int(rng.uniform() * 4)
            atoms = tuple((round(float(rng.uniform() * 4 - 2) * 16) / 16,
                           complex(rng.normals(1)[0], rng.normals(1)[0]))
                          for _ in range(count))
            lhs_v, rhs_v = measure_norm_bound(atoms, sspec)
            if rhs_v > 0:
                worst = max(worst, lhs_v / rhs_v)
        rows.append(("measure_bound", worst, 1.05))
    return rows


def run_oracles(cfg: Config):
    checks = cfg.get("oracles", "checks")
    sets = cfg.get("oracles", "measure_sets")
    return _residual_table("oracles", _oracle_battery(cfg, checks, sets),
                           "oracle residuals")


RUNNERS = {
    "flow": run_flow,
    "kernel": run_kernel,
    "converge": run_converge,
    "modbound": run_modbound,
    "exceptional": run_exceptional,
    "perturb": run_perturb,
    "freeslice": run_freeslice,
    "oracles": run_oracles,
}


def _bundled_openblas():
    """numpy's bundled OpenBLAS (the scipy-openblas build in numpy.libs) with
    its thread-count calls declared, or None when numpy carries no such
    library or it lacks those calls."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        name = next(f for f in os.listdir(libs) if f.startswith("libscipy_openblas64_"))
        lib = ctypes.CDLL(os.path.join(libs, name))
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return lib


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread, and restore its count on
    exit.  How OpenBLAS splits a product's sums depends on its thread count,
    and with it the last bits of the outputs; with one thread they do not
    depend on OPENBLAS_NUM_THREADS.  Without the library the run is
    unpinned."""
    lib = _bundled_openblas()
    if lib is None:
        yield
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


def _outputs(out: str, command: str) -> list:
    """The paths of the command's CSV and SVG in the directory out."""
    return [os.path.join(out, f"{command}.{ext}") for ext in ("csv", "svg")]


def _check_out_dir(out: str, command: str):
    """A ConfigError unless the command's outputs can be written into out:
    out is not empty, os.makedirs can make it a directory (the nearest of
    out and its parents that exists, a dangling symlink included, is one),
    and no output is a directory, which os.replace cannot replace."""
    if not out:
        raise ConfigError("--out '' names no directory")
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out {out}: {path} is not a directory")
    for target in _outputs(out, command):
        if os.path.isdir(target):
            raise ConfigError(f"--out {out}: {target} is a directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="proplab", description="product-formula propagator experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        _check_out_dir(args.out, args.command)
        cfg = Config(args.config, seed_override=args.seed, command=args.command)
        with _one_blas_thread():
            header, rows, plot, failures = RUNNERS[args.command](cfg)
        texts = (render_csv(header, rows), emit_svg(header, rows, plot))
    except (ConfigError, configparser.Error) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ProplabError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_ASSERTION

    os.makedirs(args.out, exist_ok=True)
    for path, text in zip(_outputs(args.out, args.command), texts):
        _atomic_write(path, text)
        if not args.quiet:
            print(f"wrote {path}")
    if failures:
        for msg in failures:
            print(f"FAILED: {msg}", file=sys.stderr)
        return EXIT_ASSERTION
    if not args.quiet:
        print("all assertions passed")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
