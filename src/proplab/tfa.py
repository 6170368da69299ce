"""Discrete short-time Fourier transform, modulation-norm estimators, Wigner
transform, the low/high frequency splitting of rough potentials, and potentials
that are Fourier transforms of finite atomic measures.

Conventions: V_g f(x, xi) = F[f . conj(T_x g)](xi), lattice positions are a
subsampling of the grid and lattice frequencies a subsampling of the dual
grid; all continuum norms are lattice sums with cell weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EpsilonTooSmall
from .grid import (GridSpec, SampledField, SymbolField, _centered_fft, _is_even,
                   _refine_axis)


INF_S = "inf-s"
INF_1 = "inf-1"


def default_window(grid: GridSpec) -> SampledField:
    """Unit-L2 Gaussian window exp(-pi x^2), normalized on the grid."""
    w = SampledField(grid, np.exp(-np.pi * grid.axis()**2))
    return SampledField(grid, w.values / w.norm2())


@dataclass
class StftSpec:
    """Window and lattice for the discrete STFT.

    lattice_step is the one integer stride of the lattice, in grid samples
    for positions and in frequency bins for frequencies (1 = dense lattice).
    """

    window: SampledField
    lattice_step: int = 1

    def __post_init__(self):
        n = self.grid.points
        # a float step passes the divisor test and then fails as an index
        if (isinstance(self.lattice_step, bool)
                or not isinstance(self.lattice_step, (int, np.integer))):
            raise ValueError(f"lattice step {self.lattice_step!r} is not an integer")
        if self.lattice_step <= 0 or n % self.lattice_step:
            raise ValueError(f"lattice step {self.lattice_step} is not a positive "
                             f"divisor of N = {n}")
        if self.lattice_step == n:
            raise ValueError("the frequency lattice needs at least two points")
        if abs(self.window.norm2() - 1.0) > 1e-10:
            raise ValueError("window must be unit L2-normalized")

    @property
    def grid(self) -> GridSpec:
        return self.window.grid

    @property
    def x_cell(self) -> float:
        return self.lattice_step * self.grid.cell

    @property
    def xi_cell(self) -> float:
        return self.lattice_step * self.grid.freq_cell

    def xi_axis(self) -> np.ndarray:
        return self.grid.freq_axis()[:: self.lattice_step]


@dataclass
class StftMatrix:
    """V_g f sampled on the lattice; axes are (x positions, frequencies).
    The lattice is not stored: stft_adjoint takes the spec it was made with."""

    values: np.ndarray


def _lattice_windows(spec: StftSpec) -> np.ndarray:
    """Read-only (positions, N) view of the window at every lattice position.

    Periodic wrap keeps every lattice window an exact copy of the base one
    (no boundary truncation); for the Gaussian window the wrap-around tail is
    below 1e-80 on the default grids.
    """
    n = spec.grid.points
    twice = np.tile(np.roll(spec.window.values, -(n // 2)), 2)  # from its center, twice
    return np.lib.stride_tricks.sliding_window_view(twice, n)[n:0:-spec.lattice_step]


def _stft_core(vals: np.ndarray, spec: StftSpec) -> np.ndarray:
    """V_g along axis 0 of vals: (N, ...) -> (positions, frequencies, ...).

    Every windowed product is folded to period N / lattice_step before the
    one batched DFT, which then yields exactly the lattice frequencies.
    """
    n = spec.grid.points
    m = n // spec.lattice_step
    win = np.conj(_lattice_windows(spec))
    folded = np.einsum("ptr,tr...->pr...", win.reshape(len(win), -1, m),
                       vals.reshape((-1, m) + vals.shape[1:]), optimize=True)
    out = _centered_fft(folded, n, -1, axis=1)
    out *= spec.grid.cell
    return out


def _lattice_norm(v: np.ndarray, spec: StftSpec, kind: str,
                  exponent: float = 0.0) -> float:
    """inf-s or inf-1 estimate from lattice STFT values whose first half of
    axes are positions and second half frequencies (d = v.ndim / 2); exponent
    is the s of the (1 + |xi|)^s frequency weight of the inf-s norm."""
    d = v.ndim // 2
    mag = np.abs(v)
    if kind == INF_S:
        radii = np.sqrt(sum(np.ix_(*(spec.xi_axis() ** 2,) * d)))
        return float(np.max(mag * (1.0 + radii) ** exponent))
    if kind == INF_1:
        profile = np.max(mag, axis=tuple(range(d)))
        return float(np.sum(profile) * spec.xi_cell ** d)
    raise ValueError(f"unknown modulation norm kind: {kind}")


def stft(f: SampledField, spec: StftSpec) -> StftMatrix:
    if f.grid != spec.grid:
        raise ValueError("field and window grids do not match")
    return StftMatrix(_stft_core(f.values, spec))


def stft_adjoint(mat: StftMatrix, spec: StftSpec) -> SampledField:
    """V_g^* F = sum over the lattice of F(x,xi) pi(x,xi) g, with cell weights.

    The inner frequency sums sum_xi F(x,xi) e^{2 pi i xi y} are one batched
    inverse DFT of the lattice rows embedded into the full frequency grid.
    """
    n = spec.grid.points
    full = np.zeros((mat.values.shape[0], n), dtype=complex)
    full[:, :: spec.lattice_step] = mat.values
    inner = _centered_fft(full, n, +1, axis=1)
    acc = np.sum(inner * _lattice_windows(spec), axis=0)
    return SampledField(spec.grid, acc * spec.x_cell * spec.xi_cell)


def mod_norm(f: SampledField, spec: StftSpec, kind: str) -> float:
    """Lattice estimator of the M^infty and M^{infty,1} norms.

    inf-s: sup |V_g f|, unweighted (a (1+|xi|)^s weight is _lattice_norm's
    exponent); inf-1: sum_xi sup_x |V_g f| * cell.
    """
    return _lattice_norm(stft(f, spec).values, spec, kind)


def frequency_profile(f: SampledField, spec: StftSpec) -> np.ndarray:
    """S(xi) = sup over lattice positions of |V_g f(x, xi)|."""
    return np.max(np.abs(stft(f, spec).values), axis=0)


def wigner(f: SampledField, g2: SampledField) -> SymbolField:
    """Cross-Wigner transform W(f,g)(x,xi) on the phase grid.

    Half-index samples f(x + y/2) g(x - y/2)* come from 2x zero-padded
    (trigonometric) refinement; the y-transform is the centered DFT on a
    doubled grid, of which only every second bin (the base frequency axis)
    is kept, so the lag samples are folded to period N before the transform.
    """
    g = f.grid
    if g2.grid != g:
        raise ValueError("fields must share a grid")
    n = g.points
    fr = _refine_axis(f.values, 0)
    gr = _refine_axis(g2.values, 0)
    # A[i, m] = f(x_i + y_m / 2) conj(g(x_i - y_m / 2)), y_m = -2L + m h
    off = np.arange(2 * n)[None, :] - n
    plus = 2 * np.arange(n)[:, None] + off
    minus = plus - 2 * off
    ok = (plus >= 0) & (plus < 2 * n) & (minus >= 0) & (minus < 2 * n)
    a = np.where(ok, fr[plus % (2 * n)] * np.conj(gr[minus % (2 * n)]), 0.0)
    vals = _centered_fft(a[:, :n] + a[:, n:], 2 * n, -1, axis=1) * g.cell
    return SymbolField(g, vals)


def cross_ambiguity_l1(spec: StftSpec) -> float:
    """Phase-space L1 norm of V_g g, the adjoint-bound constant."""
    v = _stft_core(spec.window.values, spec)
    return float(np.sum(np.abs(v))) * spec.xi_cell * spec.x_cell


def sjostrand_decompose(f: SampledField, eps: float, spec: StftSpec):
    """Split f = f1 + f2 with f1 frequency-localized and |f2|_{M^infty,1} <= eps.

    f1 = V_g^*(V_g f . chi_R) with R the smallest lattice radius whose tail
    sum of S(xi) = sup_x |V_g f| stays within the adjoint-norm budget; the
    boundary shell at R is kept only fractionally, scaled so the estimated
    tail equals the budget exactly.  The fractional cut keeps the norm of f2
    proportional to eps instead of staircasing with the lattice shells.

    For an f even bit for bit, f1 is replaced by its even part
    (f1 + R f1)/2, R the grid reflection; f1 moves at rounding level, and
    f1 and f2 are then even bit for bit too (IEEE addition commutes), so a
    kernel with the low band as its potential keeps the parity blocks.
    """
    return _split_stft(f, stft(f, spec), eps / cross_ambiguity_l1(spec), spec)


def _split_stft(f: SampledField, mat: StftMatrix, budget: float, spec: StftSpec):
    """sjostrand_decompose from mat = stft(f, spec), left as is, and its budget."""
    profile = np.max(np.abs(mat.values), axis=0)
    radii = np.abs(spec.xi_axis())
    if not budget > 0.0:
        raise EpsilonTooSmall(f"budget {budget:.3e} is not positive")

    # the outermost radius leaves an empty tail, so some radius fits the budget
    for r in radii[len(radii) // 2::-1]:  # each radius once, ascending
        tail_beyond = float(np.sum(profile[radii > r]) * spec.xi_cell)
        if tail_beyond <= budget:
            chosen = float(r)
            break

    shell = radii == chosen
    shell_mass = float(np.sum(profile[shell]) * spec.xi_cell)
    if shell_mass > 0.0 and chosen > 0.0:
        # the innermost shell is never split: the low band survives even
        # when the budget dwarfs the whole tail
        into_f2 = min(1.0, (budget - tail_beyond) / shell_mass)
    else:
        into_f2 = 0.0
    clipped = mat.values.copy()
    clipped[..., radii > chosen] = 0.0
    clipped[..., shell] *= 1.0 - into_f2
    f1 = stft_adjoint(StftMatrix(clipped), spec).values
    if _is_even(f.values):
        f1 = 0.5 * (f1 + f1[-np.arange(len(f1))])
    return SampledField(f.grid, f1), SampledField(f.grid, f.values - f1), chosen


def measure_potential_field(atoms, grid: GridSpec) -> SampledField:
    """V(x) = sum_j c_j exp(2 pi i k_j x), the transform of the atomic measure
    with (frequency k_j, mass c_j) pairs atoms."""
    vals = np.zeros(grid.points, dtype=complex)
    x = grid.axis()
    for k, c in atoms:
        vals = vals + c * np.exp(2j * np.pi * (x * k))
    return SampledField(grid, vals)


def measure_norm_bound(atoms, spec: StftSpec):
    """(lhs, rhs) with lhs the Sjostrand-norm estimate of the potential of the
    (frequency, mass) pairs atoms and rhs = |g|_{L1} * sum_j |c_j|, the
    total variation of the measure."""
    lhs = mod_norm(measure_potential_field(atoms, spec.grid), spec, INF_1)
    g_l1 = float(np.sum(np.abs(spec.window.values)) * spec.grid.cell)
    return lhs, g_l1 * sum(abs(c) for _, c in atoms)
