"""Uniform centered grids, sampled complex fields, and the continuum-normalized
discrete Fourier transform with the e^{-2*pi*i*x*xi} convention.

Grids are centered: x = 0 and xi = 0 are always sample points (N even), with
x_j = -L + j*h, h = 2L/N, and xi_k = (k - N/2)/(2L).  Kernel matrices carry
rectangle-rule quadrature semantics: (K f)(x_i) ~ sum_j K[i,j] f(y_j) h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform centered grid on [-L, L) with N samples; dim must be 1."""

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        n = self.points_per_axis
        if self.dim != 1:
            raise ValueError("only d = 1 is supported")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("points_per_axis must be a power of two >= 8")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def freq_spacing(self) -> float:
        return 1.0 / (2.0 * self.half_width)

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,)

    @property
    def size(self) -> int:
        return self.points_per_axis

    @property
    def cell(self) -> float:
        """Quadrature cell length h."""
        return self.spacing

    @property
    def freq_cell(self) -> float:
        return self.freq_spacing

    def axis(self) -> np.ndarray:
        n = self.points_per_axis
        return -self.half_width + self.spacing * np.arange(n)

    def freq_axis(self) -> np.ndarray:
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.freq_spacing


@dataclass
class SampledField:
    """Complex function sampled on a GridSpec; values[j] = f(x_j)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(self.grid.shape)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def copy(self) -> "SampledField":
        return SampledField(self.grid, self.values.copy())

    def norm2(self) -> float:
        """Quadrature L2 norm."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell))


@dataclass
class KernelMatrix:
    """Dense matrix of samples K[i,j] ~ K(x_i, y_j) of an integral kernel."""

    grid: GridSpec
    entries: np.ndarray

    def __post_init__(self):
        m = self.grid.size
        self.entries = np.asarray(self.entries, dtype=complex).reshape(m, m)

    def apply(self, f: SampledField) -> SampledField:
        out = self.entries @ f.values.ravel() * self.grid.cell
        return SampledField(self.grid, out)


@dataclass(frozen=True)
class PhaseGrid:
    """Product grid over (x, xi) built from a spatial GridSpec.

    The x axis carries spacing h, the xi axis spacing 1/(2L); a phase-space
    function is an (N, N) array with the x index first.
    """

    base: GridSpec

    @property
    def shape(self) -> tuple:
        return self.base.shape + self.base.shape

    @property
    def cell(self) -> float:
        return self.base.cell * self.base.freq_cell


@dataclass
class SymbolField:
    """Complex phase-space function sigma(x, xi) sampled on a PhaseGrid."""

    phase_grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(self.phase_grid.shape)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("symbol values must be finite")


def field_from_function(grid: GridSpec, fn) -> SampledField:
    return SampledField(grid, np.asarray(fn(grid.axis()), dtype=complex))


def _checker(n: int) -> np.ndarray:
    return (-1.0) ** np.arange(n)


def _centered_fft(vals: np.ndarray, n: int, sign: int, axis: int = 0) -> np.ndarray:
    """Unscaled centered DFT along one axis of an n-point grid,
    sum_j v_j e^{sign 2 pi i (j - n/2)(k - n/2)/n}.

    An axis of even length m < n holds the input folded to period m, and the
    result holds the bins k = 0, s, 2s, ... with s = n/m: those bins see the
    input only modulo m (Poisson summation), so the folded m-point transform
    gives them exactly.
    """
    m = vals.shape[axis]
    shape = [1] * vals.ndim
    shape[axis] = m
    pre = _checker(m).reshape(shape)
    post = (_checker(n)[:: n // m] * (-1.0) ** (n // 2)).reshape(shape)
    if sign == -1:
        out = np.fft.fft(vals * pre, axis=axis)
    elif sign == +1:
        out = np.fft.ifft(vals * pre, axis=axis) * m
    else:
        raise ValueError("sign must be +1 or -1")
    return out * post


def _refine_axis(vals: np.ndarray, axis: int) -> np.ndarray:
    """2x trigonometric refinement along one axis by spectral zero padding."""
    n = vals.shape[axis]
    vals = np.moveaxis(vals, axis, 0)
    spec = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(vals, axes=0), axis=0), axes=0)
    padded = np.zeros((2 * n,) + vals.shape[1:], dtype=complex)
    padded[n // 2: n // 2 + n] = spec
    out = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(padded, axes=0), axis=0), axes=0) * 2.0
    return np.moveaxis(out, 0, axis)


def dft(f: SampledField, sign: int = -1) -> SampledField:
    """Continuum-normalized DFT on the centered grid.

    sign=-1 maps a spatial field to its spectrum on the frequency grid with
    rectangle weight h; sign=+1 maps a spectrum back with weight 1/(2L).
    dft(dft(f, -1), +1) recovers f exactly (up to rounding).
    """
    g = f.grid
    scale = g.cell if sign == -1 else g.freq_cell
    return SampledField(g, _centered_fft(f.values, g.points_per_axis, sign) * scale)


def compact_mask(grid: GridSpec, radius: float) -> np.ndarray:
    """Boolean mask of grid points with |x| <= r."""
    return np.abs(grid.axis()) <= radius + 1e-12


def sup_norm_on_compact(k1: KernelMatrix, k2: KernelMatrix, radius: float) -> float:
    """max |K1 - K2| over entries with |x_i| <= r and |y_j| <= r."""
    if k1.grid != k2.grid:
        raise ValueError("kernel grids do not match")
    mask = compact_mask(k1.grid, radius)
    diff = np.abs(k1.entries - k2.entries)
    return float(diff[np.ix_(mask, mask)].max())
