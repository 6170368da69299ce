"""Product-formula approximants for exp(-it(H0 + V)) with quadratic H0 and a
bounded (possibly complex) potential V, their kernels, reference runs, and the
diagnostics used by the experiment layer.

The approximant is E_n(t) = (exp(-i(t/n)H0) exp(-i(t/n)V))^n, realized on the
grid as n alternations of a pointwise potential phase with the metaplectic
step kernel.  The n-step kernel is assembled by binary powering of the
Strang-conjugated step diag(q) K diag(q), q = exp(-i(t/n)V/2), which equals
the n-fold product of K diag(q^2) once the outer factors of q are undone.
That step is complex symmetric whenever the kinetic matrix K is, as it is
for a symbol with no cross term, so every squaring is a z @ z.T product.
A high-n run stands in for the limit kernel, carrying its own Cauchy
self-distance so the surrogate error stays visible in every report.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import ProplabError
from .grid import (GridSpec, KernelMatrix, SampledField, _centered_fft,
                   sup_norm_on_compact)
from .metaplectic import propagator_for
from .symplectic import (PhaseQuadratic, QuadraticHamiltonian, flow, is_free,
                         phase_form)
from .tfa import (INF_1, INF_S, StftSpec, _lattice_norm, _stft_core,
                  default_window, mod_norm, sjostrand_decompose)


@dataclass(frozen=True)
class TrotterScenario:
    """One experiment: Hamiltonian, potential, final time, step counts, grid.

    It refuses an exceptional t, where the limit kernel is only a
    distribution, with NotFree before any other check; phase is Phi_t, the
    chirp carrier of the kernels.  reference_n, the step count of the
    stand-in for the limit kernel, must be at least 4 * max(n_list).
    """

    hamiltonian: QuadraticHamiltonian
    potential: SampledField
    t: float
    n_list: tuple
    grid: GridSpec
    reference_n: int
    phase: PhaseQuadratic = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "phase", phase_form(flow(self.hamiltonian, self.t)))
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if any(n <= 0 for n in self.n_list):
            raise ValueError("step counts must be positive")
        if self.reference_n < 4 * max(self.n_list):
            raise ValueError("reference_n must be at least 4 * max(n_list)")
        if self.potential.grid != self.grid:
            raise ValueError("potential grid does not match scenario grid")


SPECTRAL = "spectral"
CHIRP = "chirp"


def hamiltonian_matrix(h: QuadraticHamiltonian, grid: GridSpec) -> np.ndarray:
    """Hermitian grid realization of the quadratic symbol.

    (1/2)A x^2 quantizes to a diagonal, (1/2)C xi^2 to a Fourier multiplier,
    and the cross term B x xi to the symmetrized product (XD + DX)/2; this is
    the exact Weyl correspondence for polynomial symbols, realized with the
    grid's unitary Fourier transform.  The multiplier is real (its symbol is
    even and the unpaired Nyquist mode is real), so with B = 0 the matrix is
    real symmetric; the cross term makes it complex Hermitian.
    """
    x = grid.axis()
    xi = grid.freq_axis()
    mat = 0.5 * h.a * np.diag(x**2) + _multiplier(0.5 * h.c * xi**2, grid).real
    if h.b != 0.0:
        xd = x[:, None] * _multiplier(xi, grid)
        mat = mat + 0.5 * h.b * (xd + xd.conj().T)
    return 0.5 * (mat + mat.conj().T)


def _multiplier(symbol: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Grid Fourier multiplier of symbol(xi), inverse DFT . diag(symbol) . DFT:
    as x_i - x_j = (i - j) h and xi_k h = (k - N/2)/N, it is the circulant
    c[(i - j + N/2) mod N], c the centered inverse DFT of the symbol over N."""
    n = grid.points
    c = _centered_fft(symbol, n, +1) / n
    i = np.arange(n)
    return c[(i[:, None] - i[None, :] + n // 2) % n]


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


def _power_step(z: np.ndarray, tau: float, v: np.ndarray, n: int,
                symmetric: bool) -> np.ndarray:
    """(z diag(q^2))^n by binary powering, q = exp(-i tau v / 2); z is
    overwritten, and the caller passes a temporary so that no reference
    keeps it alive.

    With S = diag(q) z diag(q) the step is diag(q)^-1 S diag(q), so its
    n-th power is diag(q)^-1 S^n diag(q).  When z is complex symmetric so
    are S and all its squares, and each squaring is z @ z.T, which numpy
    hands to BLAS zsyrk: it computes one triangle, about 40% less time than
    the general product.

    A result that leaves the float range, with an entry that overflowed
    (inf or NaN) or with every entry underflowed to zero, is a ProplabError.
    """
    steps = n
    with np.errstate(all="ignore"):  # the range check below reports it
        q = np.exp(-0.5j * tau * v)
        z *= q[:, None]
        z *= q[None, :]
        res = None
        while True:
            if n & 1:
                res = z if res is None else res @ z
            n >>= 1
            if not n:
                break
            z = z @ (z.T if symmetric else z)
        res /= q[:, None]
        res *= q[None, :]
    if not (np.isfinite(res).all() and res.any()):
        raise ProplabError(f"the {steps}-step kernel at tau = {tau!r} "
                           "leaves the float range")
    return res


def trotter_kernel(sc: TrotterScenario, n: int, method: str = SPECTRAL) -> KernelMatrix:
    """Kernel matrix of E_n(t), by binary powering of the symmetrized step.

    With V identically zero one full-time step is taken for any n: SPECTRAL
    returns the grid step kinetic_step(h, t), by the group law the n-th power
    of the t/n step, so the kernel stays continuous in V at V = 0; CHIRP the
    full-time chirp quadrature, because powered chirp quadratures do not
    compose.  method = CHIRP needs a free-particle H0 (ValueError otherwise).
    """
    _require_method(sc.hamiltonian, method)
    if not np.any(sc.potential.values):
        n = 1
    tau = sc.t / n
    # b = 0, which the chirp step also requires, makes both kinetic matrices
    # complex symmetric: H_grid is real symmetric, and the free chirp is
    # symmetric in x and y
    m = _power_step(_kinetic_matrix(sc, tau, method), tau,
                    sc.potential.values.ravel(), n,
                    symmetric=sc.hamiltonian.b == 0.0)
    m /= sc.grid.cell
    return KernelMatrix(sc.grid, m)


@dataclass
class ReferenceKernel:
    """High-n stand-in for the limit kernel with its Cauchy self-distance.

    cauchy_tag = sup difference on the compact window |x|, |y| <= L/2 between
    the reference_n and reference_n/2 runs; errors below the tag are below
    the surrogate floor.
    """

    kernel: KernelMatrix
    cauchy_tag: float


def reference_kernel(sc: TrotterScenario) -> ReferenceKernel:
    k_ref = trotter_kernel(sc, sc.reference_n)
    k_half = trotter_kernel(sc, sc.reference_n // 2)
    tag = sup_norm_on_compact(k_ref.entries - k_half.entries, sc.grid,
                              0.5 * sc.grid.half_width)
    return ReferenceKernel(k_ref, tag)


def factor_out_phase(k: KernelMatrix, phi: PhaseQuadratic) -> KernelMatrix:
    """Entrywise e^{-2 pi i Phi(x_i, y_j)} K[i, j]: removes the chirp carrier,
    leaving the amplitude (times the constant prefactor).  The factor is the
    grid carrier chirp_kernel of -Phi, whose coefficients are Phi's negated."""
    x = k.grid.axis()
    m_xx, m_xy, m_yy = phi.coefficients()
    return KernelMatrix(k.grid,
                        k.entries * _kernels.chirp_kernel(x, x, -m_xx, -m_xy, -m_yy))


KERNEL_LATTICE_STEP = 16


def _kernel_lattice_stft(k: KernelMatrix):
    """(values, spec): the kernel's 2d lattice STFT at stride
    KERNEL_LATTICE_STEP with axes (x positions, y positions, x freqs,
    y freqs), as _lattice_norm reads it."""
    spec = StftSpec(default_window(k.grid), KERNEL_LATTICE_STEP)
    along_x = _stft_core(k.entries, spec)  # (x positions, x freqs, y)
    v = _stft_core(np.moveaxis(along_x, 2, 0), spec)  # (y pos, y freqs, x pos, x freqs)
    return v.transpose(2, 0, 3, 1), spec


def kernel_mod_norm(k: KernelMatrix) -> float:
    """M^{infty,1} norm of a kernel viewed as a function on the 2d plane.

    The 2d Gaussian window is the outer product of two 1d windows, so the 2d
    STFT is the 1d STFT applied along x and then along y; the lattice is
    coarse (stride KERNEL_LATTICE_STEP in both position and frequency) to
    keep the cost at desk scale, which changes the estimator by a bounded
    factor only.
    """
    return _lattice_norm(*_kernel_lattice_stft(k), INF_1)


def _windowed_fl1(diff: np.ndarray, grid: GridSpec) -> tuple:
    """l1 norms of the 2d spectrum of the kernel difference times the Gaussian
    bumps exp(-pi |(x, y) - z|^2), the centered DFT along both axes, at the
    nine centers z = (cx, cy) with cx, cy in {-L/4, 0, L/4}, x-major.

    A bump is the outer product of two 1d bumps, so the x-pass for one cx
    serves all three cy.
    """
    x = grid.axis()
    n = grid.points
    c = 0.25 * grid.half_width
    bumps = [np.exp(-np.pi * (x - z) ** 2) for z in (-c, 0.0, c)]
    out = []
    for bx in bumps:
        along_x = _centered_fft(diff * bx[:, None], n, -1, 0)
        for by in bumps:
            spec = _centered_fft(along_x * by[None, :], n, -1, 1)
            out.append(float(np.sum(np.abs(spec * grid.cell**2)) * grid.freq_cell**2))
    return tuple(out)


CONVERGENCE_WEIGHT_S = 2.5


def convergence_report(sc: TrotterScenario) -> tuple:
    """Per-n error and boundedness diagnostics against the high-n reference.

    Returns (rows, cauchy_tag), the tag being the reference's.  Each row is
    (n, sup_error, fl1_z00, ..., fl1_z22, mod_inf1, mod_infs), as in
    converge.csv: the sup error on the compact window, the nine windowed
    spectral l1 errors of _windowed_fl1, both from one difference E_n - ref,
    and the two modulation norms of the phase-factored kernel (the weighted
    sup norm with exponent CONVERGENCE_WEIGHT_S).
    """
    ref = reference_kernel(sc)
    rows = []
    for n in sc.n_list:
        k_n = trotter_kernel(sc, n)
        diff = k_n.entries - ref.kernel.entries
        # one lattice STFT of the phase-factored kernel serves both norms
        v, spec = _kernel_lattice_stft(factor_out_phase(k_n, sc.phase))
        rows.append((n, sup_norm_on_compact(diff, sc.grid, 0.5 * sc.grid.half_width),
                     *_windowed_fl1(diff, sc.grid),
                     _lattice_norm(v, spec, INF_1),
                     _lattice_norm(v, spec, INF_S, CONVERGENCE_WEIGHT_S)))
    return rows, ref.cauchy_tag


def perturbation_split_report(sc: TrotterScenario, eps_list, n: int) -> list:
    """Size of the approximant's response to the rough part of the potential.

    For each budget eps, V is split V = f1 + f2 with the high-frequency part
    f2 small in the averaged modulation norm; the remainder operator
    E_n(V) - E_n(f1) is measured by the coarse-lattice modulation norm of its
    phase-factored kernel and compared with the shape bound
    eps * |t| * C * e^{2|t|C}, C being the modulation norm of the full
    potential.  E_n(V) and C are computed once for all budgets.  Returns one
    row (eps, f1, f2, cut radius, remainder norm, bound) per budget.
    """
    if not all(0.0 < eps <= 1.0 for eps in eps_list):
        raise ValueError("eps must lie in (0, 1]")
    spec = StftSpec(default_window(sc.grid))
    k_full = trotter_kernel(sc, n)
    c = mod_norm(sc.potential, spec, INF_1)
    rows = []
    for eps in eps_list:
        f1, f2, r = sjostrand_decompose(sc.potential, eps, spec)
        k_low = trotter_kernel(replace(sc, potential=f1), n)
        remainder = KernelMatrix(sc.grid, k_full.entries - k_low.entries)
        rem_norm = kernel_mod_norm(factor_out_phase(remainder, sc.phase))
        with np.errstate(over="ignore"):  # past the float range inf is the bound
            bound = eps * abs(sc.t) * c * np.exp(2.0 * abs(sc.t) * c)
        rows.append((eps, f1, f2, r, rem_norm, float(bound)))
    return rows


def time_slice_free_kernel(v: SampledField, t: float, n: int,
                           grid: GridSpec) -> KernelMatrix:
    """Polygonal-path quadrature for the free-particle product kernel.

    The n-th power of the analytic one-step factor
    (2 pi i tau)^{-1/2} e^{i(x - y)^2 / (2 tau)} with the potential phase,
    taken by the same _power_step as trotter_kernel; what it checks apart
    from trotter_kernel(..., CHIRP) is the step, this analytic chirp against
    the metaplectic chirp quadrature.  The powering's own references are
    np.linalg.matrix_power and iterated products, in the tests.  Kept at n <= 8: this is the
    desk-scale cross-check of the path sum, not a production path.
    """
    if not 1 <= n <= 8:
        raise ValueError("n must lie in 1..8 for the direct path quadrature")
    if v.grid != grid:
        raise ValueError("potential grid does not match")
    tau = t / n
    x = grid.axis()
    # the chirp depends on (x - y)^2 only, so it is exactly symmetric
    total = _power_step(
        np.exp(1j * (x[:, None] - x[None, :]) ** 2 / (2.0 * tau))
        * (grid.cell / np.sqrt(2j * np.pi * tau)),
        tau, v.values, n, symmetric=True)
    total /= grid.cell
    return KernelMatrix(grid, total)


def exceptional_blowup_scan(h: QuadraticHamiltonian, t_star: float, offsets,
                            grid: GridSpec):
    """Kernel magnitude growth approaching an exceptional time (V = 0).

    Rows (delta, sup |kernel|, |det B_{t_star - delta}|^{-1/2}, ratio); the
    ratio is the constancy check.  Refuses, before any kernel is built, when
    t_star is not exceptional or an offset is not positive.
    """
    s = flow(h, t_star)
    if is_free(s):
        raise ValueError(f"t = {t_star} is not exceptional (det B = {s.b:.3e})")
    if not all(delta > 0 for delta in offsets):
        raise ValueError(f"offsets must be positive: {list(offsets)}")
    rows = []
    for delta in offsets:
        t = t_star - delta
        prop = propagator_for(h, t, grid)
        sup_k = float(np.max(np.abs(prop.kernel_entries())))
        scale = prop.abs_det_b ** -0.5
        rows.append((float(delta), sup_k, scale, sup_k / scale))
    return rows
