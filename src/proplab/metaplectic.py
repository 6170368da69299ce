"""The propagator exp(-i t H0) = mu(A_t) as a grid operator.

For a free symplectic matrix the operator is the quadratic Fourier transform

    mu(A) f(x) = c |det B|^(-1/2) Integral exp(2*pi*i*Phi_A(x,y)) f(y) dy,

realized either by direct quadrature (dense chirp matrix) or by the factored
fast path  chirp -> Fourier transform resampled at B^(-1) x via a Bluestein
chirp-Z transform -> chirp.  Both paths evaluate the identical discrete sum.

The unit phase c is fixed by continuity of the metaplectic lift from t = 0:
short steps get the stationary-phase (Fresnel) value, and compositions pick
up the signature of the intermediate Gaussian integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotFree, PathThroughExceptional
from .grid import GridSpec, KernelMatrix, SampledField
from .symplectic import (PhaseQuadratic, QuadraticHamiltonian, SymplecticBlocks,
                         flow, phase_form)
from . import _kernels


def _signature(q: float) -> int:
    """Sign of the scalar quadratic form q y^2, refusing a degenerate one."""
    if abs(q) <= 1e-12 * max(1.0, abs(q)):
        raise NotFree("degenerate quadratic form in phase composition")
    return 1 if q > 0 else -1


def stationary_phase_factor(phase: PhaseQuadratic) -> complex:
    """Fresnel phase of a single near-identity free step: exp(-i*pi*sig/4)."""
    sig = _signature(phase.m_yy)
    return np.exp(-0.25j * np.pi * sig)


def compose_phase_factor(c1: complex, p1: PhaseQuadratic,
                         c2: complex, p2: PhaseQuadratic) -> complex:
    """Phase of mu(S1)mu(S2) given the factors' phases.

    The intermediate Gaussian integral over the shared variable contributes
    exp(i*pi*sig(Q)/4) with Q = Myy(S1) + Mxx(S2).
    """
    q = p1.m_yy + p2.m_xx
    return c1 * c2 * np.exp(0.25j * np.pi * _signature(q))


def resolve_phase(h: QuadraticHamiltonian, t: float, steps: int = 16) -> complex:
    """Continuity-resolved unit phase c(t) of mu(A_t), lifted from c(0) = 1.

    Composes `steps` short free factors analytically (no grids involved); the
    result is exact in exact arithmetic, hence stable under refining `steps`.
    """
    if t == 0.0:
        return 1.0 + 0.0j
    last_err = None
    for m in _step_candidates(steps):
        try:
            return _resolve_phase_fixed(h, t, m)
        except NotFree as err:
            last_err = err
    raise PathThroughExceptional(
        f"could not find a free factorization of the flow up to t={t}: {last_err}")


def _step_candidates(steps: int):
    yield steps
    yield steps + 1
    yield 2 * steps
    yield 2 * steps + 1
    yield 3 * steps + 2


def _resolve_phase_fixed(h: QuadraticHamiltonian, t: float, m: int) -> complex:
    tau = t / m
    s_step = flow(h, tau)
    if np.max(np.abs(s_step.matrix() - np.eye(2))) > 0.75:
        raise NotFree("step flow is not near-identity; refine steps")
    p_step = phase_form(s_step)
    c = stationary_phase_factor(p_step)
    c_acc = c
    for k in range(2, m + 1):
        p_acc = phase_form(flow(h, (k - 1) * tau))
        c_acc = compose_phase_factor(c_acc, p_acc, c, p_step)
    return c_acc


QUADRATURE = "quadrature"
FAST_CHIRP_FFT = "fast-chirp-fft"


@dataclass
class MetaplecticPropagator:
    """mu(A) realized on a grid; immutable after construction."""

    blocks: SymplecticBlocks
    phase: PhaseQuadratic
    abs_det_b: float
    phase_factor: complex
    method: str
    grid: GridSpec
    _matrix: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if abs(abs(self.phase_factor) - 1.0) > 1e-12:
            raise ValueError("phase factor must have unit modulus")
        if self.abs_det_b <= 0:
            raise ValueError("|det B| must be positive")

    @property
    def scale(self) -> complex:
        return self.phase_factor / np.sqrt(self.abs_det_b)

    # -- application ------------------------------------------------------

    def apply(self, f: SampledField) -> SampledField:
        out = self.apply_columns(f.values.reshape(self.grid.size, 1))
        return SampledField(self.grid, out[:, 0])

    def apply_columns(self, cols: np.ndarray) -> np.ndarray:
        """Apply to a stack of fields given as (N, m) columns."""
        if self.method == QUADRATURE:
            return (self.kernel_entries() @ cols) * self.grid.cell
        return self._apply_fast(cols)

    def _apply_fast(self, cols: np.ndarray) -> np.ndarray:
        g = self.grid
        h = g.spacing
        x = g.axis()
        m_xx, m_xy, m_yy = self.phase.coefficients()
        vals = cols * np.exp(1j * np.pi * (x * m_yy * x))[:, None]
        # chirp-Z: evaluate the continuum Fourier transform at the arithmetic
        # progression xi_k = B^-1 x_k, i.e. sum_j vals_j e^{-2 pi i (x_j + L) xi_k}
        xi0 = m_xy * x[0]
        dxi = m_xy * h
        out = _kernels.chirp_z(vals, h * xi0, h * dxi)
        xi = xi0 + dxi * np.arange(g.points_per_axis)
        out = out * (h * np.exp(2j * np.pi * g.half_width * xi))[:, None]
        out = out * np.exp(1j * np.pi * (x * m_xx * x))[:, None]
        return self.scale * out

    # -- kernel -----------------------------------------------------------

    def kernel_entries(self) -> np.ndarray:
        if self._matrix is None:
            x = self.grid.axis()
            self._matrix = self.scale * _kernels.chirp_kernel(
                x, x, *self.phase.coefficients())
        return self._matrix

    def kernel(self) -> KernelMatrix:
        return KernelMatrix(self.grid, self.kernel_entries().copy())


def build_propagator(s: SymplecticBlocks, grid: GridSpec,
                     method: str = FAST_CHIRP_FFT,
                     phase_factor: complex | None = None) -> MetaplecticPropagator:
    """Grid realization of mu(S) for a free S.

    Without an explicit phase_factor the single-step stationary-phase value is
    used; pass the continuity-resolved phase (resolve_phase) when S sits on a
    flow path crossing exceptional times.
    """
    phase = phase_form(s)  # raises NotFree unless S is free
    if phase_factor is None:
        phase_factor = stationary_phase_factor(phase)
    return MetaplecticPropagator(s, phase, abs(s.b), phase_factor, method, grid)


def propagator_for(h: QuadraticHamiltonian, t: float, grid: GridSpec,
                   method: str = FAST_CHIRP_FFT) -> MetaplecticPropagator:
    """Propagator exp(-itH0) with the continuity-resolved global phase."""
    s = flow(h, t)
    return build_propagator(s, grid, method, phase_factor=resolve_phase(h, t))


def mehler_oracle(t: float, grid: GridSpec) -> KernelMatrix:
    """Exact harmonic-oscillator kernel, assembled from the closed form.

    K(x,y) = c(t) |sin t|^(-1/2) exp(2*pi*i (cos t (x^2+y^2) - 2xy) / (2 sin t)).
    """
    st = np.sin(t)
    if abs(st) <= 1e-8:
        raise NotFree(f"harmonic kernel degenerates at t = {t}")
    c = resolve_phase(QuadraticHamiltonian.harmonic(), t)
    x = grid.axis()
    sq = x**2
    phase = (np.cos(t) * (sq[:, None] + sq[None, :]) - 2.0 * np.outer(x, x)) / (2.0 * st)
    entries = c * abs(st) ** -0.5 * np.exp(2j * np.pi * phase)
    return KernelMatrix(grid, entries)
