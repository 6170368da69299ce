"""Weyl quantization on centered grids and its calculus.

The quantization rule K(x,y) = Integral sigma((x+y)/2, xi) e^{2 pi i (x-y) xi} dxi
becomes an exact lag transform on the grid: with the symbol trigonometrically
refined onto the half-step x lattice,

    K[i, j] = G[i + j, (i - j) mod N],
    G[s, l] = dxi * sum_k sigma_ref[s, k] e^{2 pi i l h xi_k},

and G is exactly N-periodic in the lag l because h * dxi = 1/N.

Symbols are treated as periodic over the phase box; the experiments only feed
grid-periodic band-limited symbols, for which every resampling here is exact.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import NotFree
from .grid import (GridSpec, KernelMatrix, SymbolField, _centered_fft,
                   _checker, _refine_axis)
from .metaplectic import QUADRATURE, build_propagator
from .symplectic import PhaseQuadratic, SymplecticBlocks


def _lag_quantize(ref2: np.ndarray, g: GridSpec) -> KernelMatrix:
    """Kernel from the symbol sampled on the doubled (midpoint, xi) lattice.

    ref2 has shape (2N, 2N): midpoints on the half-step x lattice, xi on the
    half-step frequency lattice.  The lag transform

        G[s, lam] = (dxi/2) sum_k ref2[s, k] e^{2 pi i lam (k - N) / (2N)}

    resolves lags up to 4L, and the kernel is the periodization of the
    continuum one: wrapping y by 2L shifts the midpoint by L and the lag by
    2L, so

        K[i, j] = G[i + j, (i - j) mod 2N] + G[(i + j + N) mod 2N, (i - j + N) mod 2N].
    """
    n = g.points
    lag = np.fft.ifft(ref2, axis=1) * n * g.freq_cell
    lag = lag * _checker(2 * n)[None, :]
    i = np.arange(n)
    s = i[:, None] + i[None, :]
    d = i[:, None] - i[None, :]
    direct = lag[s, d % (2 * n)]
    wrapped = lag[(s + n) % (2 * n), (d + n) % (2 * n)]
    return KernelMatrix(g, direct + wrapped)


def weyl_quantize(sigma: SymbolField) -> KernelMatrix:
    """Kernel matrix of the Weyl operator sigma^w (midpoint rule, exact lags)."""
    g = sigma.grid
    ref2 = _refine_axis(_refine_axis(sigma.values, 0), 1)
    return _lag_quantize(ref2, g)


def quantize_modes(coeffs: np.ndarray, freqs: np.ndarray, g: GridSpec) -> KernelMatrix:
    """Weyl kernel of sigma given as an explicit mode sum over phase space.

    Evaluates sum_q c_q e^{2 pi i (u_q x + v_q xi)} exactly on the doubled
    midpoint/frequency lattice, so symbols that are not box-periodic (sheared
    or rotated band-limited symbols) quantize without interpolation leakage.
    The lattice is a product of its midpoint and frequency axes, so the mode
    sum is evaluated separably from the two axes.
    """
    n = g.points
    mhalf = -g.half_width + 0.5 * g.cell * np.arange(2 * n)
    xihalf = 0.5 * g.freq_cell * (np.arange(2 * n) - n)
    return _lag_quantize(_kernels.eval_fourier_modes(coeffs, freqs, mhalf, xihalf), g)


def phase_fourier_modes(sigma: SymbolField):
    """(coeffs, freqs) of the symbol's Fourier series over the phase box.

    Frequencies are (p, q) with p on the dual of the x axis (step 1/2L) and q
    on the dual of the xi axis (step h); modes below 1e-12 * max are dropped.
    """
    g = sigma.grid
    n = g.points
    # both axes are centered (0 sits at index N/2), so the centered DFT is
    # the exact series transform with no origin-phase correction
    c = _centered_fft(_centered_fft(sigma.values, n, -1, 1), n, -1, 0) / n**2
    a = np.arange(n) - n // 2
    p = a * g.freq_cell
    q = a * g.cell
    keep = np.abs(c) > 1e-12 * np.max(np.abs(c))
    pa, qa = np.nonzero(keep)
    freqs = np.stack([p[pa], q[qa]], axis=-1)
    return c[pa, qa], freqs


def conjugate_through_fio(sigma: SymbolField, phi: PhaseQuadratic) -> SymbolField:
    """Amplitude sigma~ with sigma^w . FIO(Phi) = FIO(Phi, amplitude sigma~).

    Three steps, carried out exactly on the symbol's Fourier modes: a shear
    of the second variable by the x-quadratic coefficient (mode (u, v) picks
    up u -> u + v a), a chirp e^{pi i u v} on each mode (the Fourier-side
    multiplier), and a rescaling of the second variable by the cross
    coefficient (v -> v b).  Working mode-wise avoids the interpolation
    leakage a grid FFT would incur, since the sheared symbol is no longer
    box-periodic.  The result is the two-variable amplitude a(x, y) sampled
    with y on the spatial axis.
    """
    g = sigma.grid
    b = -phi.m_xy
    if abs(b) < 1e-12:
        raise NotFree("degenerate phase: cross coefficient vanishes")
    a_coef = phi.m_xx
    coeffs, freqs = phase_fourier_modes(sigma)
    u = freqs[:, 0] + freqs[:, 1] * a_coef
    v = freqs[:, 1]
    coeffs = coeffs * np.exp(1j * np.pi * u * v)
    out_freqs = np.stack([u, v * b], axis=-1)
    x = g.axis()
    return SymbolField(g, _kernels.eval_fourier_modes(coeffs, out_freqs, x, x))


def fio_swap_residual(sigma: SymbolField, sigma_w: KernelMatrix,
                      phi: PhaseQuadratic) -> float:
    """Relative Frobenius residual of the symbol-through-FIO identity.

    The discrete sigma_w = weyl_quantize(sigma) is periodic over the box while
    the chirp e^{2 pi i Phi(x_i, y_j)} is not, so the identity can only hold
    away from the wrap: the residual is taken over output rows at least N/32
    samples from the box edge.  For band-limited symbols the excluded rows
    carry all of the mismatch and the interior residual is at rounding level.
    """
    g = sigma.grid
    n = g.points
    x = g.axis()
    chirp = _kernels.chirp_kernel(x, x, *phi.coefficients())
    lhs = sigma_w.entries @ chirp * g.cell
    rhs = chirp * conjugate_through_fio(sigma, phi).values
    keep = slice(n // 32, n - n // 32)
    return float(np.linalg.norm(lhs[keep] - rhs[keep]) / np.linalg.norm(rhs[keep]))


def symplectic_covariance_residual(sigma: SymbolField, sigma_w: KernelMatrix,
                                   s: SymplecticBlocks) -> float:
    """Relative norm of (sigma o S)^w - mu(S)^{-1} sigma_w mu(S) as matrices.

    sigma_w = weyl_quantize(sigma); mu(S) is assembled on the symbol's base
    grid; the metaplectic phase cancels in the conjugation, so the
    single-step phase choice suffices.  The matrix identity is exact (to
    rounding) when S maps the phase lattice to itself, which on an N = 4L^2
    grid includes quarter rotations and integer shears; for other S the grid
    realization of mu(S) is not invertible-stable and the residual reflects
    that, so state-level checks are the right tool there.
    """
    g = sigma.grid
    h = g.cell
    coeffs, freqs = phase_fourier_modes(sigma)
    # sigma(Sz) has modes at S^T q, generally off-lattice; quantize from the
    # modes directly to avoid re-expansion leakage
    lhs = quantize_modes(coeffs, freqs @ s.matrix(), g).entries
    # the unit phase cancels between mu and mu^{-1}, so fix it to 1
    mu_op = build_propagator(s, g, QUADRATURE, 1.0).kernel_entries() * h
    inner = sigma_w.entries * h @ mu_op
    rhs = np.linalg.solve(mu_op, inner) / h
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))

