"""Uniform centered grids, sampled complex fields, and the continuum-normalized
discrete Fourier transform with the e^{-2*pi*i*x*xi} convention.

Grids are centered: x = 0 and xi = 0 are always sample points (N even), with
x_j = -L + j*h, h = 2L/N, and xi_k = (k - N/2)/(2L).  Kernel matrices carry
rectangle-rule quadrature semantics: (K f)(x_i) ~ sum_j K[i,j] f(y_j) h^d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OffGrid


@dataclass(frozen=True)
class GridSpec:
    """Uniform centered grid on [-L, L)^d with N samples per axis."""

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        n = self.points_per_axis
        if self.dim not in (1, 2):
            raise ValueError("only d = 1 and d = 2 are supported")
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
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dim

    @property
    def cell(self) -> float:
        """Quadrature cell volume h^d."""
        return self.spacing ** self.dim

    @property
    def freq_cell(self) -> float:
        return self.freq_spacing ** self.dim

    def axis(self) -> np.ndarray:
        n = self.points_per_axis
        return -self.half_width + self.spacing * np.arange(n)

    def freq_axis(self) -> np.ndarray:
        n = self.points_per_axis
        return (np.arange(n) - n // 2) * self.freq_spacing

    def points(self) -> np.ndarray:
        """All grid points as an (N^d, d) array, row-major over axes."""
        axes = np.meshgrid(*([self.axis()] * self.dim), indexing="ij")
        return np.stack([a.ravel() for a in axes], axis=-1)

    def freq_points(self) -> np.ndarray:
        axes = np.meshgrid(*([self.freq_axis()] * self.dim), indexing="ij")
        return np.stack([a.ravel() for a in axes], axis=-1)

    def index_of(self, x0: np.ndarray) -> tuple:
        """Multi-index of an on-grid point; raises OffGrid otherwise."""
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        steps = (x0 + self.half_width) / self.spacing
        idx = np.rint(steps)
        if np.max(np.abs(steps - idx)) > 1e-9:
            raise OffGrid(f"point {x0} is not on the grid")
        return tuple(int(i) for i in idx)


@dataclass
class SampledField:
    """Complex function sampled on a GridSpec; values[j...] = f(x_j)."""

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
    quadrature_weight: float = field(default=0.0)

    def __post_init__(self):
        m = self.grid.size
        self.entries = np.asarray(self.entries, dtype=complex).reshape(m, m)
        if self.quadrature_weight == 0.0:
            self.quadrature_weight = self.grid.cell

    def apply(self, f: SampledField) -> SampledField:
        out = self.entries @ f.values.ravel() * self.quadrature_weight
        return SampledField(self.grid, out)

    def compose(self, other: "KernelMatrix") -> "KernelMatrix":
        """Kernel of the composition self o other (matrix product with weight)."""
        if self.grid != other.grid:
            raise ValueError("kernel grids do not match")
        return KernelMatrix(self.grid, self.entries @ other.entries * self.quadrature_weight)


@dataclass(frozen=True)
class PhaseGrid:
    """Product grid over (x, xi) built from a spatial GridSpec.

    The x axes carry spacing h, the xi axes spacing 1/(2L); a phase-space
    function over a d-dimensional base grid is an array of shape (N,)*2d with
    x indices first.
    """

    base: GridSpec

    @property
    def shape(self) -> tuple:
        return self.base.shape + self.base.shape

    @property
    def cell(self) -> float:
        return self.base.cell * self.base.freq_cell

    def points(self) -> np.ndarray:
        """All (x, xi) points as an (N^2d, 2d) array."""
        axes = [self.base.axis()] * self.base.dim + [self.base.freq_axis()] * self.base.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([a.ravel() for a in mesh], axis=-1)


@dataclass
class SymbolField:
    """Complex phase-space function sigma(x, xi) sampled on a PhaseGrid."""

    phase_grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).reshape(self.phase_grid.shape)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("symbol values must be finite")


def symbol_from_function(pg: PhaseGrid, fn) -> SymbolField:
    pts = pg.points()
    return SymbolField(pg, np.asarray(fn(pts), dtype=complex))


def field_from_function(grid: GridSpec, fn) -> SampledField:
    pts = grid.points()
    if grid.dim == 1:
        vals = fn(pts[:, 0])
    else:
        vals = fn(pts)
    return SampledField(grid, np.asarray(vals, dtype=complex))


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
    rectangle weight h^d; sign=+1 maps a spectrum back with weight (1/2L)^d.
    dft(dft(f, -1), +1) recovers f exactly (up to rounding).
    """
    g = f.grid
    vals = f.values
    for ax in range(g.dim):
        vals = _centered_fft(vals, g.points_per_axis, sign, ax)
    scale = g.cell if sign == -1 else g.freq_cell
    return SampledField(g, vals * scale)


def translate(f: SampledField, x0) -> SampledField:
    """(T_x0 f)(y) = f(y - x0) with zero fill (non-periodic semantics)."""
    g = f.grid
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    steps = x0 / g.spacing
    idx = np.rint(steps)
    if np.max(np.abs(steps - idx)) > 1e-9:
        raise OffGrid(f"translation by {x0} is not a multiple of the spacing")
    out = f.values
    for ax, k in enumerate(int(i) for i in idx):
        if k == 0:
            continue
        shifted = np.zeros_like(out)
        if k > 0:
            src = [slice(None)] * g.dim
            dst = [slice(None)] * g.dim
            src[ax] = slice(0, g.points_per_axis - k)
            dst[ax] = slice(k, g.points_per_axis)
        else:
            src = [slice(None)] * g.dim
            dst = [slice(None)] * g.dim
            src[ax] = slice(-k, g.points_per_axis)
            dst[ax] = slice(0, g.points_per_axis + k)
        shifted[tuple(dst)] = out[tuple(src)]
        out = shifted
    return SampledField(g, out)


def modulate(f: SampledField, xi0) -> SampledField:
    """(M_xi0 f)(y) = exp(2*pi*i*xi0.y) f(y); xi0 need not be on-grid."""
    g = f.grid
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    phase = np.zeros(g.shape)
    ax1d = g.axis()
    for ax in range(g.dim):
        shape = [1] * g.dim
        shape[ax] = g.points_per_axis
        phase = phase + xi0[ax] * ax1d.reshape(shape)
    return SampledField(g, f.values * np.exp(2j * np.pi * phase))


def delta_field(grid: GridSpec, j: int) -> SampledField:
    """Scaled discrete delta at flat index j (value 1/h^d at one node)."""
    v = np.zeros(grid.size, dtype=complex)
    v[j] = 1.0 / grid.cell
    return SampledField(grid, v)


def kernel_of_operator(apply_op, grid: GridSpec, apply_matrix=None) -> KernelMatrix:
    """Matrix of a linear grid operator, column j = apply_op(delta_j).

    apply_matrix, when given, maps an (N^d, m) stack of column fields to the
    transformed stack in one call and is used instead of the column loop.
    """
    m = grid.size
    if apply_matrix is not None:
        cols = np.eye(m, dtype=complex) / grid.cell
        entries = apply_matrix(cols)
    else:
        entries = np.empty((m, m), dtype=complex)
        for j in range(m):
            entries[:, j] = apply_op(delta_field(grid, j)).values.ravel()
    return KernelMatrix(grid, entries)


def compact_mask(grid: GridSpec, radius: float) -> np.ndarray:
    """Boolean mask (flat) of grid points with every coordinate in [-r, r]."""
    pts = grid.points()
    return np.all(np.abs(pts) <= radius + 1e-12, axis=1)


def sup_norm_on_compact(k1: KernelMatrix, k2: KernelMatrix, radius: float) -> float:
    """max |K1 - K2| over entries with |x_i| <= r and |y_j| <= r."""
    if k1.grid != k2.grid:
        raise ValueError("kernel grids do not match")
    mask = compact_mask(k1.grid, radius)
    diff = np.abs(k1.entries - k2.entries)
    return float(diff[np.ix_(mask, mask)].max())
