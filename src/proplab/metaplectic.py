"""The propagator exp(-i t H0) = mu(A_t) as a grid operator.

For a free symplectic matrix the operator is the quadratic Fourier transform

    mu(A) f(x) = c |det B|^(-1/2) Integral exp(2*pi*i*Phi_A(x,y)) f(y) dy,

realized either by direct quadrature or by the fast path, which applies the
same carrier by its factors: e^{2 pi i Phi} is a row chirp times a Toeplitz
chirp in x - y times a column chirp (_kernels.chirp_factors).  The
quadrature assembles them densely, 3N - 1 exponentials for N^2 entries
(_kernels.chirp_kernel); the fast path multiplies by the chirps and by the
Toeplitz factor through its FFT circulant embedding
(_kernels.toeplitz_product).  Both paths evaluate the identical discrete sum.

The unit phase c is fixed by continuity of the metaplectic lift from t = 0:
it counts the zeros of B_s (the exceptional times) crossed on the way to t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotFree
from .grid import GridSpec, KernelMatrix, SampledField
from .symplectic import (PhaseQuadratic, QuadraticHamiltonian, SymplecticBlocks,
                         flow, phase_form)
from . import _kernels


def resolve_phase(h: QuadraticHamiltonian, t: float) -> complex:
    """Unit phase c(t) = exp(-i pi sgn(c t) (2m + 1) / 4) of mu(A_t),
    continuous in t from c(0) = 1: each of the m zeros of B_s strictly between
    0 and t turns it by exp(-i pi sgn(c t) / 2), as in Mehler's kernel.  B_s
    vanishes only for ac > b^2, where the flow's angle |t| sqrt(ac - b^2) / 2pi
    passes k pi; m is reduced mod 4 so a huge angle stays exact.
    """
    omega = h.a * h.c - h.b * h.b
    m = 0.0
    if omega > 0.0:
        s = abs(t) * np.sqrt(omega) / (2.0 * np.pi)
        m = (np.ceil(s / np.pi) - 1.0) % 4.0
    return np.exp(-0.25j * np.pi * np.sign(h.c * t) * (2.0 * m + 1.0))


QUADRATURE = "quadrature"
FAST_CHIRP_FFT = "fast-chirp-fft"


@dataclass(frozen=True)
class MetaplecticPropagator:
    """mu(A) realized on a grid; frozen, and holding no kernel matrix: each
    kernel_entries() call assembles a fresh dense carrier from its three
    chirp factors and scales it in place, one N x N array in all."""

    phase: PhaseQuadratic
    abs_det_b: float
    phase_factor: complex
    method: str
    grid: GridSpec

    def __post_init__(self):
        # written so that NaN fails them
        if not abs(abs(self.phase_factor) - 1.0) <= 1e-12:
            raise ValueError("phase factor must have unit modulus")
        if not 0 < self.abs_det_b < np.inf:
            raise ValueError("|det B| must be positive and finite")
        if self.method not in (QUADRATURE, FAST_CHIRP_FFT):
            raise ValueError(f"unknown propagator method: {self.method}")

    @property
    def scale(self) -> complex:
        return self.phase_factor / np.sqrt(self.abs_det_b)

    # -- application ------------------------------------------------------

    def apply(self, f: SampledField) -> SampledField:
        out = self.apply_columns(f.values.reshape(self.grid.points, 1))
        return SampledField(self.grid, out[:, 0])

    def apply_columns(self, cols: np.ndarray) -> np.ndarray:
        """Apply to a stack of fields given as (N, m) columns.  The fast path
        is scale * cell * diag(a) T diag(b) cols, T applied by FFT, so each
        column is transformed on its own."""
        g = self.grid
        if self.method == QUADRATURE:
            return (self.kernel_entries() @ cols) * g.cell
        x = g.axis()
        a, t, b = _kernels.chirp_factors(x, x, *self.phase.coefficients())
        # T's first row, exp(i pi Mxy (x_0 - x_k)^2), is diagonals N - 1 down to 0
        prod = _kernels.toeplitz_product(t[g.points - 1::-1], cols.T * b)
        return (prod * ((self.scale * g.cell) * a)).T

    # -- kernel -----------------------------------------------------------

    def kernel_entries(self) -> np.ndarray:
        x = self.grid.axis()
        carrier = _kernels.chirp_kernel(x, x, *self.phase.coefficients())
        # scale * carrier, in place; carrier *= scale rounds differently
        return np.multiply(self.scale, carrier, out=carrier)

    def kernel_row(self) -> np.ndarray:
        """Row 0 of kernel_entries(), bit for bit, from the 1 x N carrier of
        x_0 against the axis; for a free flow it determines the symmetric
        Toeplitz kernel."""
        x = self.grid.axis()
        row = _kernels.chirp_kernel(x[:1], x, *self.phase.coefficients())[0]
        return np.multiply(self.scale, row, out=row)

    def kernel(self) -> KernelMatrix:
        return KernelMatrix(self.grid, self.kernel_entries())


def build_propagator(s: SymplecticBlocks, grid: GridSpec, method: str,
                     phase_factor: complex) -> MetaplecticPropagator:
    """Grid realization of mu(S) for a free S with the given unit phase; the
    phase of a flow A_t is resolve_phase(h, t)."""
    phase = phase_form(s)  # raises NotFree unless S is free
    return MetaplecticPropagator(phase, abs(s.b), phase_factor, method, grid)


def propagator_for(h: QuadraticHamiltonian, t: float, grid: GridSpec,
                   method: str = FAST_CHIRP_FFT) -> MetaplecticPropagator:
    """Propagator exp(-itH0) with the continuity-resolved global phase."""
    s = flow(h, t)
    return build_propagator(s, grid, method, resolve_phase(h, t))


def mehler_phase(t: float) -> complex:
    """Mehler's unit phase c(t), counted apart from resolve_phase: exp(-i pi/4)
    times exp(-i pi/2) = -i for each multiple of pi that |t| has passed,
    conjugated for t < 0."""
    c = np.exp(-0.25j * np.pi) * (1.0, -1j, -1.0, 1j)[int(abs(t) // np.pi) % 4]
    return np.conj(c) if t < 0 else c


def mehler_oracle(t: float, grid: GridSpec) -> KernelMatrix:
    """Exact harmonic-oscillator kernel, the closed form evaluated entry by
    entry: N^2 exponentials, written apart from the carrier it checks.

    K(x,y) = c(t) |sin t|^(-1/2) exp(2*pi*i (cos t (x^2+y^2) - 2xy) / (2 sin t)).

    The phase is built in one real N x N buffer and the entries in one
    complex one, in the operand order of the formula, so they round as it
    does.
    """
    st = np.sin(t)
    if abs(st) <= 1e-8:
        raise NotFree(f"harmonic kernel degenerates at t = {t}")
    c = mehler_phase(t)
    x = grid.axis()
    sq = x**2
    phase = np.add.outer(sq, sq)
    phase *= np.cos(t)
    phase -= 2.0 * np.outer(x, x)
    phase /= 2.0 * st
    entries = np.multiply(2j * np.pi, phase, out=np.empty(phase.shape, dtype=complex))
    np.exp(entries, out=entries)
    return KernelMatrix(grid, np.multiply(c * abs(st) ** -0.5, entries, out=entries))
