"""The oracle battery of the `oracles` command, as one table.

CHECKS maps each check's name to its residual function and threshold, in
row order.  Each residual compares the library with something built apart
from the code it checks.  The checks share one grid and one seeded stream:
the test signal and the random symbol are drawn whatever is listed, and
measure_bound reads the stream after them, so no residual depends on which
other checks run.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

import numpy as np

from ._kernels import free_chirp
from .grid import (GridSpec, SampledField, SymbolField, _centered_fft, dft,
                   sup_norm_on_compact)
from .metaplectic import mehler_oracle, propagator_for
from .rng import SplitMix64
from .symplectic import QuadraticHamiltonian, flow, phase_form
from .tfa import (StftSpec, default_window, measure_norm_bound, stft,
                  stft_adjoint, wigner)
from .weyl import (fio_swap_residual, symplectic_covariance_residual,
                   weyl_quantize)

HARMONIC = QuadraticHamiltonian.harmonic(1)


def free_kernel_residual(t: float, grid: GridSpec, radius: float) -> float:
    """Sup difference on |x|, |y| <= radius between the quadrature kernel of
    the free propagator and the analytic chirp, relative to the chirp's sup."""
    kq = propagator_for(QuadraticHamiltonian.free_particle(1), t, grid).kernel_entries()
    ana = free_chirp(grid.axis(), t)  # a read-only view, so kq takes the difference
    return (sup_norm_on_compact(np.subtract(kq, ana, out=kq), grid, radius)
            / float(np.max(np.abs(ana))))


class Inputs(namedtuple("Inputs", "grid spec signal symbol rng measure_sets")):
    """What the checks share; only measure_bound reads rng on."""

    symbol_w = cached_property(lambda self: weyl_quantize(self.symbol))  # on first use


def _inputs(seed: int, measure_sets: int) -> Inputs:
    """On L = 8, N = 256: a band-limited test signal, then a smooth
    band-limited random symbol on the phase grid."""
    grid = GridSpec(1, 8.0, 256)
    rng = SplitMix64(seed)
    n = grid.points
    spec_vals = np.zeros(n, dtype=complex)
    spec_vals[n // 2 - 12: n // 2 + 12] = rng.normals(24) + 1j * rng.normals(24)
    c = np.zeros((n, n), dtype=complex)
    c[n // 2 - 6: n // 2 + 7, n // 2 - 3: n // 2 + 4] = (
        rng.normals(13 * 7).reshape(13, 7) + 1j * rng.normals(13 * 7).reshape(13, 7))
    return Inputs(grid, StftSpec(default_window(grid)), dft(SampledField(grid, spec_vals), +1),
                  SymbolField(grid, _centered_fft(_centered_fft(c, n, +1, 1), n, +1, 0)),
                  rng, measure_sets)


def _mehler(s: Inputs) -> float:
    ko = mehler_oracle(1.0, s.grid)
    kq = propagator_for(HARMONIC, 1.0, s.grid).kernel_entries()
    return float(np.max(np.abs(ko.entries - kq))) / float(np.max(np.abs(ko.entries)))


def _stft_inversion(s: Inputs) -> float:
    rec = stft_adjoint(stft(s.signal, s.spec), s.spec)
    return (float(np.linalg.norm(rec.values - s.signal.values))
            / float(np.linalg.norm(s.signal.values)))


def _stft_direct(s: Inputs) -> float:
    """The library's STFT of the test signal against its defining sum
    V_g f(x_p, xi_k) = h sum_t f(x_t) conj(g(x_t - x_p)) e^{-2 pi i x_t xi_k},
    the window translated periodically: an explicit table of the shifted
    windows times the DFT matrix, max difference relative to the max."""
    n = s.grid.points
    step = s.spec.lattice_step
    pos = np.arange(0, n, step)
    # g(x_t - x_p) = g((t - p) h) is window sample t - p + N/2, mod N
    shifted = s.spec.window.values[(np.arange(n)[None, :] - pos[:, None] + n // 2) % n]
    dft_matrix = np.exp(-2j * np.pi * np.outer(s.grid.axis(), s.grid.freq_axis()[::step]))
    direct = (np.conj(shifted) * s.signal.values) @ dft_matrix * s.grid.cell
    diff = np.max(np.abs(stft(s.signal, s.spec).values - direct))
    return float(diff / np.max(np.abs(direct)))


def _wigner_duality(s: Inputs) -> float:
    # localized packets: the periodized quantizer and the non-periodic
    # Wigner transform only agree on functions that decay inside the box
    x = s.grid.axis()
    fp = SampledField(s.grid, np.exp(-np.pi * (x - 0.3) ** 2) * np.exp(2j * np.pi * 0.7 * x))
    gp = SampledField(s.grid, np.exp(-np.pi * (x + 0.5) ** 2 / 1.3)
                      * np.exp(-2j * np.pi * 1.1 * x))
    lhs = np.vdot(gp.values, s.symbol_w.apply(fp).values) * s.grid.cell
    rhs = np.sum(s.symbol.values * wigner(fp, gp).values) * s.grid.cell * s.grid.freq_cell
    return abs(lhs - rhs) / abs(rhs)


def _measure_bound(s: Inputs) -> float:
    """The worst ratio of a random trigonometric potential's modulation norm
    to its measure's total variation, over measure_sets sets of atoms."""
    worst = 0.0
    for _ in range(s.measure_sets):
        count = 2 + int(s.rng.uniform() * 4)
        atoms = tuple((round(float(s.rng.uniform() * 4 - 2) * 16) / 16,
                       complex(s.rng.normals(1)[0], s.rng.normals(1)[0]))
                      for _ in range(count))
        lhs, rhs = measure_norm_bound(atoms, s.spec)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return worst


# name -> (residual of the shared inputs, threshold), in row order
CHECKS = {
    "free_kernel": (lambda s: free_kernel_residual(1.0, GridSpec(1, 12.0, 1024), 6.0), 1e-3),
    "mehler": (_mehler, 1e-6),
    "stft_inversion": (_stft_inversion, 1e-8),
    "stft_direct": (_stft_direct, 1e-10),
    "wigner_duality": (_wigner_duality, 1e-6),
    "covariance": (lambda s: symplectic_covariance_residual(
        s.symbol, s.symbol_w, flow(HARMONIC, 0.5 * np.pi)), 1e-3),
    "fio_swap": (lambda s: fio_swap_residual(
        s.symbol, s.symbol_w, phase_form(flow(HARMONIC, 0.7))), 1e-3),
    "measure_bound": (_measure_bound, 1.05),
}


def battery(seed: int, names, measure_sets: int) -> list:
    """(name, residual, threshold) rows for the listed names of CHECKS: one
    row per name, in table order, whatever the order or repeats of names."""
    inputs = _inputs(seed, measure_sets)
    return [(name, residual(inputs), threshold)
            for name, (residual, threshold) in CHECKS.items() if name in names]
