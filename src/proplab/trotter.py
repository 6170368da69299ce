"""Product-formula approximants for exp(-it(H0 + V)) with quadratic H0 and a
bounded (possibly complex) potential V, their kernels, reference runs, and the
diagnostics used by the experiment layer.

The approximant is E_n(t) = (exp(-i(t/n)H0) exp(-i(t/n)V))^n, realized on the
grid as n alternations of a pointwise potential phase with the metaplectic
step kernel.  The n-step kernel is assembled by binary powering of the single
weighted step matrix, which is identical to composing the step operator n
times.  A high-n run stands in for the limit kernel, carrying its own Cauchy
self-distance so the surrogate error stays visible in every report.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotFree
from .grid import (GridSpec, KernelMatrix, SampledField, _centered_fft,
                   compact_mask, sup_norm_on_compact)
from .metaplectic import propagator_for
from .symplectic import QuadraticHamiltonian, flow, is_free, phase_form
from .tfa import (INF_1, INF_S, StftSpec, _lattice_norm, _stft_core,
                  default_window, mod_norm, sjostrand_decompose)


@dataclass(frozen=True)
class TrotterScenario:
    """One experiment: Hamiltonian, potential, final time, step counts, grid.

    reference_n is the step count of the stand-in for the limit kernel and
    must dominate every requested n by a factor of at least four.
    """

    hamiltonian: QuadraticHamiltonian
    potential: SampledField
    t: float
    n_list: tuple
    grid: GridSpec
    reference_n: int

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if any(n <= 0 for n in self.n_list):
            raise ValueError("step counts must be positive")
        if self.reference_n < 4 * max(self.n_list):
            raise ValueError("reference_n must be at least 4 * max(n_list)")
        if self.potential.grid != self.grid:
            raise ValueError("potential grid does not match scenario grid")
        free, det_b = is_free(flow(self.hamiltonian, self.t))
        if not free:
            warnings.warn(
                f"t = {self.t} is an exceptional time (det B = {det_b:.2e}); "
                "the limit kernel is distributional there", stacklevel=2)


SPECTRAL = "spectral"
CHIRP = "chirp"


def hamiltonian_matrix(h: QuadraticHamiltonian, grid: GridSpec) -> np.ndarray:
    """Hermitian grid realization of the quadratic symbol.

    (1/2)A x^2 quantizes to a diagonal, (1/2)C xi^2 to a Fourier multiplier,
    and the cross term B x xi to the symmetrized product (XD + DX)/2; this is
    the exact Weyl correspondence for polynomial symbols, realized with the
    grid's unitary Fourier transform.
    """
    x = grid.axis()
    xi = grid.freq_axis()
    fwd = np.exp(-2j * np.pi * np.outer(xi, x)) * grid.cell
    inv = np.exp(2j * np.pi * np.outer(x, xi)) * grid.freq_cell
    mat = 0.5 * h.a * np.diag(x**2) + inv @ ((0.5 * h.c * xi**2)[:, None] * fwd)
    if h.b != 0.0:
        d_op = inv @ (xi[:, None] * fwd)
        xd = x[:, None] * d_op
        mat = mat + 0.5 * h.b * (xd + xd.conj().T)
    return 0.5 * (mat + mat.conj().T)


@functools.lru_cache(maxsize=1)
def _eig(h: QuadraticHamiltonian, grid: GridSpec):
    """Eigendecomposition of the grid Hamiltonian; one entry suffices, since a
    run steps a single (H0, grid)."""
    return np.linalg.eigh(hamiltonian_matrix(h, grid))


def kinetic_step(h: QuadraticHamiltonian, tau: float, grid: GridSpec) -> np.ndarray:
    """Unitary matrix exp(-i tau H_grid) via the cached eigendecomposition."""
    w, u = _eig(h, grid)
    return (u * np.exp(-1j * tau * w)[None, :]) @ u.conj().T


def _require_method(h: QuadraticHamiltonian, method: str):
    """Reject a step method the Hamiltonian cannot use.  The chirp step is the
    quadrature of the one-step metaplectic kernel; its powers stay bounded
    only for a free particle (a = b = 0), while for a harmonic H0 they blow
    up (sup 7.5e108 at n = 64 on N = 256, L = 8)."""
    if method not in (SPECTRAL, CHIRP):
        raise ValueError(f"unknown step method: {method}")
    if method == CHIRP and (h.a != 0.0 or h.b != 0.0):
        raise ValueError("the chirp step needs a free-particle H0 (a = b = 0)")


def _kinetic_matrix(sc: TrotterScenario, tau: float, method: str) -> np.ndarray:
    if method == CHIRP:
        return propagator_for(sc.hamiltonian, tau, sc.grid).kernel_entries() \
            * sc.grid.cell
    return kinetic_step(sc.hamiltonian, tau, sc.grid)


def _step_matrix(sc: TrotterScenario, n: int, method: str) -> np.ndarray:
    """Weighted matrix of one product step, acting on plain sample vectors;
    the potential factor acts first."""
    tau = sc.t / n
    kin = _kinetic_matrix(sc, tau, method)
    return kin * np.exp(-1j * tau * sc.potential.values.ravel())[None, :]


def _zero_potential(sc: TrotterScenario) -> bool:
    return bool(np.all(sc.potential.values == 0.0))


def trotter_kernel(sc: TrotterScenario, n: int, method: str = SPECTRAL) -> KernelMatrix:
    """Kernel matrix of E_n(t), by binary powering of the one-step matrix.

    With V identically zero the step count is irrelevant by the flow's group
    law, so the composed propagator's kernel at the full time is returned for
    any n (the discrete chirp quadratures do not close under composition, so
    powering them would fabricate error here).  method = CHIRP needs a
    free-particle H0 (ValueError otherwise).
    """
    _require_method(sc.hamiltonian, method)
    if _zero_potential(sc):
        return propagator_for(sc.hamiltonian, sc.t, sc.grid).kernel()
    m = _step_matrix(sc, n, method)
    return KernelMatrix(sc.grid, np.linalg.matrix_power(m, n) / sc.grid.cell)


@dataclass
class ReferenceKernel:
    """High-n stand-in for the limit kernel with its Cauchy self-distance.

    cauchy_tag = sup difference on the compact window |x|, |y| <= L/2 between
    the reference_n and reference_n/2 runs; errors below the tag are below
    the surrogate floor.
    """

    kernel: KernelMatrix
    cauchy_tag: float
    reference_n: int


def reference_kernel(sc: TrotterScenario) -> ReferenceKernel:
    k_ref = trotter_kernel(sc, sc.reference_n)
    k_half = trotter_kernel(sc, sc.reference_n // 2)
    tag = sup_norm_on_compact(k_ref, k_half, 0.5 * sc.grid.half_width)
    return ReferenceKernel(k_ref, tag, sc.reference_n)


def factor_out_phase(k: KernelMatrix, phi) -> KernelMatrix:
    """Entrywise e^{-2 pi i Phi(x_i, y_j)} K[i, j]: removes the chirp carrier,
    leaving the amplitude (times the constant prefactor)."""
    x = k.grid.axis()
    phase = phi(x[:, None], x[None, :])
    return KernelMatrix(k.grid, k.entries * np.exp(-2j * np.pi * phase))


KERNEL_LATTICE_STEP = 16


def _kernel_lattice_stft(k: KernelMatrix, lattice_step: int = KERNEL_LATTICE_STEP):
    """(values, spec): the kernel's 2d lattice STFT with axes (x positions,
    y positions, x freqs, y freqs), as _lattice_norm reads it."""
    spec = StftSpec(default_window(k.grid), lattice_step, lattice_step)
    along_x = _stft_core(k.entries, spec)  # (x positions, x freqs, y)
    v = _stft_core(np.moveaxis(along_x, 2, 0), spec)  # (y pos, y freqs, x pos, x freqs)
    return v.transpose(2, 0, 3, 1), spec


def kernel_mod_norm(k: KernelMatrix, kind: str = INF_1,
                    lattice_step: int = KERNEL_LATTICE_STEP,
                    exponent: float = 0.0) -> float:
    """Modulation-type norm of a kernel viewed as a function on the 2d plane.

    The 2d Gaussian window is the outer product of two 1d windows, so the 2d
    STFT is the 1d STFT applied along x and then along y; the lattice is
    coarse (stride lattice_step in both position and frequency) to keep the
    cost at desk scale, which changes the estimator by a bounded factor only.
    """
    return _lattice_norm(*_kernel_lattice_stft(k, lattice_step), kind, exponent)


@dataclass
class ConvergenceRow:
    n: int
    sup_error: float
    windowed: tuple
    mod_inf1: float
    mod_infs: float


@dataclass
class ConvergenceReport:
    rows: list
    skipped: list
    cauchy_tag: float
    window_centers: tuple
    radius: float


def _windowed_fl1(diff: np.ndarray, grid: GridSpec, center) -> float:
    """l1 norm of the 2d spectrum of the kernel difference times the Gaussian
    bump exp(-pi |(x, y) - center|^2), the centered DFT along both axes."""
    x = grid.axis()
    n = grid.points_per_axis
    bump = np.outer(np.exp(-np.pi * (x - center[0]) ** 2),
                    np.exp(-np.pi * (x - center[1]) ** 2))
    spec = _centered_fft(_centered_fft(diff * bump, n, -1, 0), n, -1, 1)
    return float(np.sum(np.abs(spec * grid.cell**2)) * grid.freq_cell**2)


def default_window_centers(grid: GridSpec):
    """3 x 3 grid of (x, y) bump centers inside the compact window."""
    c = 0.25 * grid.half_width
    return tuple((cx, cy) for cx in (-c, 0.0, c) for cy in (-c, 0.0, c))


CONVERGENCE_WEIGHT_S = 2.5


def convergence_report(sc: TrotterScenario) -> ConvergenceReport:
    """Per-n error and boundedness diagnostics against the high-n reference.

    Each row carries the sup error on the compact window, the windowed
    spectral l1 errors at the default bump centers, and the two modulation
    norms of the phase-factored kernel (the weighted sup norm with exponent
    CONVERGENCE_WEIGHT_S).  Step counts whose t/n hits an exceptional time
    are skipped and listed, never silently replaced.
    """
    radius = 0.5 * sc.grid.half_width
    window_centers = default_window_centers(sc.grid)
    ref = reference_kernel(sc)
    phi = phase_form(flow(sc.hamiltonian, sc.t))
    mask = compact_mask(sc.grid, radius)

    rows = []
    skipped = []
    for n in sc.n_list:
        try:
            k_n = trotter_kernel(sc, n)
        except NotFree:
            skipped.append(n)
            continue
        diff = k_n.entries - ref.kernel.entries
        sup_err = float(np.abs(diff[np.ix_(mask, mask)]).max())
        windowed = tuple(_windowed_fl1(diff, sc.grid, z) for z in window_centers)
        # one lattice STFT of the phase-factored kernel serves both norms
        v, spec = _kernel_lattice_stft(factor_out_phase(k_n, phi))
        rows.append(ConvergenceRow(
            n, sup_err, windowed,
            _lattice_norm(v, spec, INF_1),
            _lattice_norm(v, spec, INF_S, CONVERGENCE_WEIGHT_S)))
    return ConvergenceReport(rows, skipped, ref.cauchy_tag, window_centers, radius)


def perturbation_split_report(sc: TrotterScenario, eps: float, n: int):
    """Size of the approximant's response to the rough part of the potential.

    V is split V = V1 + V2 with the high-frequency part V2 small in the
    averaged modulation norm; the remainder operator E_n(V) - E_n(V1) is
    measured by the coarse-lattice modulation norm of its phase-factored
    kernel and compared with the shape bound eps * |t| * C * e^{2|t|C},
    C being the modulation norm of the full potential.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    spec = StftSpec(default_window(sc.grid))
    v1, _v2, _r = sjostrand_decompose(sc.potential, eps, spec)
    sc1 = TrotterScenario(sc.hamiltonian, v1, sc.t, sc.n_list, sc.grid,
                          sc.reference_n)
    k_full = trotter_kernel(sc, n)
    k_low = trotter_kernel(sc1, n)
    remainder = KernelMatrix(sc.grid, k_full.entries - k_low.entries)
    phi = phase_form(flow(sc.hamiltonian, sc.t))
    rem_norm = kernel_mod_norm(factor_out_phase(remainder, phi), INF_1)
    c = mod_norm(sc.potential, spec, INF_1)
    bound = eps * abs(sc.t) * c * np.exp(2.0 * abs(sc.t) * c)
    return rem_norm, float(bound)


def time_slice_free_kernel(v: SampledField, t: float, n: int,
                           grid: GridSpec) -> KernelMatrix:
    """Polygonal-path quadrature for the free-particle product kernel.

    Independent assembly of the same object as trotter_kernel with the free
    Hamiltonian: iterated products of the analytic one-step factor
    (2 pi i tau)^{-1/2} e^{i(x - y)^2 / (2 tau)} with the potential phase.
    Kept at n <= 8: this is the desk-scale cross-check of the path sum, not a
    production path.
    """
    if not 1 <= n <= 8:
        raise ValueError("n must lie in 1..8 for the direct path quadrature")
    if v.grid != grid:
        raise ValueError("potential grid does not match")
    tau = t / n
    x = grid.axis()
    one_step = np.exp(1j * (x[:, None] - x[None, :]) ** 2 / (2.0 * tau)) \
        / np.sqrt(2j * np.pi * tau)
    step = one_step * np.exp(-1j * tau * v.values)[None, :] * grid.cell
    total = np.linalg.matrix_power(step, n) / grid.cell
    return KernelMatrix(grid, total)


def exceptional_blowup_scan(h: QuadraticHamiltonian, t_star: float, offsets,
                            grid: GridSpec):
    """Kernel magnitude growth approaching an exceptional time (V = 0).

    Rows (delta, sup |kernel|, |det B_{t_star - delta}|^{-1/2}, ratio); the
    ratio is the constancy check.  Refuses when t_star is not exceptional.
    """
    free, det_b = is_free(flow(h, t_star))
    if free:
        raise ValueError(
            f"t = {t_star} is not exceptional (det B = {det_b:.3e})")
    rows = []
    for delta in offsets:
        if delta <= 0:
            raise ValueError("offsets must be positive")
        t = t_star - delta
        prop = propagator_for(h, t, grid)
        sup_k = float(np.max(np.abs(prop.kernel_entries())))
        scale = prop.abs_det_b ** -0.5
        rows.append((float(delta), sup_k, scale, sup_k / scale))
    return rows
