"""Uniform centered grids, sampled complex fields, and the continuum-normalized
discrete Fourier transform with the e^{-2*pi*i*x*xi} convention.

Grids are centered: x = 0 and xi = 0 are always sample points (N even), with
x_j = (j - N/2) h = -L + j h, h = 2L/N, and xi_k = (k - N/2)/(2L).  On a
GridSpec, `points` is N, `cell` is h and `freq_cell` is 1/(2L); the
phase-space cell is cell * freq_cell = 1/N.  Kernel matrices carry
rectangle-rule quadrature semantics: (K f)(x_i) ~ sum_j K[i,j] f(y_j) h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform centered grid on [-L, L) with N points; dim must be 1."""

    dim: int
    half_width: float
    points: int

    def __post_init__(self):
        n = self.points
        if self.dim != 1:
            raise ValueError("only d = 1 is supported")
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("points must be a power of two >= 8")

    @property
    def cell(self) -> float:
        """Quadrature cell length h = 2L/N."""
        return 2.0 * self.half_width / self.points

    @property
    def freq_cell(self) -> float:
        """Frequency cell length 1/(2L)."""
        return 1.0 / (2.0 * self.half_width)

    def axis(self) -> np.ndarray:
        """x_j = (j - N/2) h: an integer times h, so x_{N-j} = -x_j bit for
        bit and an even function samples to an even array."""
        n = self.points
        return (np.arange(n) - n // 2) * self.cell

    def freq_axis(self) -> np.ndarray:
        n = self.points
        return (np.arange(n) - n // 2) * self.freq_cell


@dataclass
class SampledField:
    """Complex function sampled on a GridSpec; values[j] = f(x_j)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(self.grid.points)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def norm2(self) -> float:
        """Quadrature L2 norm."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell))


@dataclass
class KernelMatrix:
    """Dense matrix of samples K[i,j] ~ K(x_i, y_j) of an integral kernel."""

    grid: GridSpec
    entries: np.ndarray

    def __post_init__(self):
        m = self.grid.points
        self.entries = np.asarray(self.entries, dtype=complex).reshape(m, m)

    def apply(self, f: SampledField) -> SampledField:
        out = self.entries @ f.values.ravel() * self.grid.cell
        return SampledField(self.grid, out)


@dataclass
class SymbolField:
    """Complex phase-space function sigma(x, xi) on the product of a grid's
    x and xi axes: an (N, N) array with the x index first."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.points
        self.values = np.asarray(self.values, dtype=complex).reshape(n, n)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("symbol values must be finite")


def _checker(n: int) -> np.ndarray:
    return (-1.0) ** np.arange(n)


def _is_even(v: np.ndarray) -> bool:
    """V[j] == V[-j mod N] bit for bit: diag(V) commutes with the grid
    reflection R, x_j -> -x_j."""
    return np.array_equal(v, v[-np.arange(len(v))])


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
        out = np.fft.ifft(vals * pre, axis=axis)
        out *= m
    else:
        raise ValueError("sign must be +1 or -1")
    out *= post
    return out


def _refine_axis(vals: np.ndarray, axis: int) -> np.ndarray:
    """2x trigonometric refinement along one axis by spectral zero padding."""
    n = vals.shape[axis]
    vals = np.moveaxis(vals, axis, 0)
    padded = np.zeros((2 * n,) + vals.shape[1:], dtype=complex)
    padded[n // 2: n // 2 + n] = _centered_fft(vals, n, -1)
    return np.moveaxis(_centered_fft(padded, 2 * n, +1) / n, 0, axis)


def dft(f: SampledField, sign: int = -1) -> SampledField:
    """Continuum-normalized DFT on the centered grid.

    sign=-1 maps a spatial field to its spectrum on the frequency grid with
    rectangle weight h; sign=+1 maps a spectrum back with weight 1/(2L).
    dft(dft(f, -1), +1) recovers f exactly (up to rounding).
    """
    g = f.grid
    scale = g.cell if sign == -1 else g.freq_cell
    return SampledField(g, _centered_fft(f.values, g.points, sign) * scale)


def sup_norm_on_compact(diff: np.ndarray, grid: GridSpec, radius: float) -> float:
    """max |diff[i, j]| over entries with |x_i| <= r and |y_j| <= r, for the
    (N, N) difference diff = K1 - K2 of two kernels sampled on grid."""
    mask = np.abs(grid.axis()) <= radius + 1e-12
    return float(np.abs(diff[np.ix_(mask, mask)]).max())
