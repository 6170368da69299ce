import tracemalloc

import numpy as np
import pytest

from proplab import (QuadraticHamiltonian, SampledField, SymbolField,
                     conjugate_through_fio, fio_swap_residual, flow,
                     phase_fourier_modes, phase_form, quantize_modes,
                     symplectic_covariance_residual, weyl_quantize, wigner)
from proplab._kernels import eval_fourier_modes
from proplab.symplectic import SymplecticBlocks
from proplab.rng import SplitMix64


def random_symbol(grid, seed, px=6, qx=3):
    rng = SplitMix64(seed)
    n = grid.points
    c = np.zeros((n, n), dtype=complex)
    nx, nq = 2 * px + 1, 2 * qx + 1
    c[n // 2 - px: n // 2 + px + 1, n // 2 - qx: n // 2 + qx + 1] = (
        rng.normals(nx * nq).reshape(nx, nq)
        + 1j * rng.normals(nx * nq).reshape(nx, nq))
    vals = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(c))) * n * n
    return SymbolField(grid, vals)


def gaussian_packet(grid, x0, xi0):
    x = grid.axis()
    return SampledField(grid, np.exp(-np.pi * (x - x0) ** 2)
                        * np.exp(2j * np.pi * xi0 * x))


def test_constant_symbol_is_identity(grid, packet):
    one = SymbolField(grid, np.ones((grid.points, grid.points)))
    out = weyl_quantize(one).apply(packet)
    assert np.max(np.abs(out.values - packet.values)) < 1e-10


def test_multiplication_symbol_acts_pointwise(grid, packet):
    x = grid.axis()
    v = SampledField(grid, np.cos(2.0 * np.pi * x))
    # sigma(x, xi) = V(x) is the symbol of pointwise multiplication by V
    sigma = np.repeat(v.values[:, None], grid.points, axis=1)
    out = weyl_quantize(SymbolField(grid, sigma)).apply(packet)
    assert np.max(np.abs(out.values - v.values * packet.values)) < 1e-9


def test_pure_frequency_symbol_translates(grid, packet):
    # sigma = e^{2 pi i v xi} shifts by -v (midpoint rule, exact on the grid)
    v = 8.0 * grid.cell
    n = grid.points
    xi = grid.freq_axis()
    vals = np.repeat(np.exp(2j * np.pi * v * xi)[None, :], n, axis=0)
    out = weyl_quantize(SymbolField(grid, vals)).apply(packet)
    assert np.max(np.abs(out.values[:-8] - packet.values[8:])) < 1e-9


def test_quantize_modes_matches_grid_quantizer(grid):
    sig = random_symbol(grid, 33)
    coeffs, freqs = phase_fourier_modes(sig)
    k1 = quantize_modes(coeffs, freqs, grid)
    k2 = weyl_quantize(sig)
    assert np.max(np.abs(k1.entries - k2.entries)) < 1e-10


def test_real_symbol_gives_hermitian_kernel(grid):
    sig = random_symbol(grid, 34)
    sig = SymbolField(sig.grid, sig.values.real)
    k = weyl_quantize(sig).entries
    assert np.max(np.abs(k - k.conj().T)) < 1e-11


def test_wigner_duality_pairing(grid):
    sig = random_symbol(grid, 35)
    f = gaussian_packet(grid, 0.3, 0.7)
    g2 = gaussian_packet(grid, -0.5, -1.1)
    lhs = np.vdot(g2.values, weyl_quantize(sig).apply(f).values) * grid.cell
    rhs = np.sum(sig.values * wigner(f, g2).values) * sig.grid.cell * sig.grid.freq_cell
    assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_covariance_quarter_rotation(grid):
    sig = random_symbol(grid, 60)
    s = flow(QuadraticHamiltonian.harmonic(1), 0.5 * np.pi)
    assert symplectic_covariance_residual(sig, weyl_quantize(sig), s) < 1e-10


def test_covariance_integer_shear(grid):
    sig = random_symbol(grid, 61)
    # B = 1 maps the square lattice to itself and is free
    shear = SymplecticBlocks(1.0, 1.0, 0.0, 1.0)
    assert symplectic_covariance_residual(sig, weyl_quantize(sig), shear) < 1e-10


def test_covariance_state_level_generic_time(grid):
    # generic rotations do not preserve the lattice, so the matrix identity
    # degrades; on concentrated states conjugation still tracks composition
    from proplab import build_propagator, QUADRATURE
    sig = random_symbol(grid, 63)
    h = QuadraticHamiltonian.harmonic(1)
    s = flow(h, 0.7)
    f = gaussian_packet(grid, 0.2, -0.4)
    coeffs, freqs = phase_fourier_modes(sig)
    lhs = quantize_modes(coeffs, freqs @ s.matrix(), grid).apply(f)
    mu = build_propagator(s, grid, method=QUADRATURE, phase_factor=1.0 + 0.0j)
    mu_inv = build_propagator(SymplecticBlocks(*np.linalg.inv(s.matrix()).ravel()),
                              grid, method=QUADRATURE, phase_factor=1.0 + 0.0j)
    moved = SampledField(grid, mu.apply_columns(f.values[:, None])[:, 0])
    rhs = mu_inv.apply_columns(weyl_quantize(sig).apply(moved).values[:, None])[:, 0]
    rel = np.linalg.norm(lhs.values - rhs) / np.linalg.norm(lhs.values)
    assert rel < 5e-2


def test_fio_swap_residual_small(grid):
    sig = random_symbol(grid, 70)
    phi = phase_form(flow(QuadraticHamiltonian.harmonic(1), 0.7))
    assert fio_swap_residual(sig, weyl_quantize(sig), phi) < 1e-3


def direct_mode_sum(coeffs, freqs, px, pxi):
    """sum_q c_q e^{2 pi i (f_q0 px + f_q1 pxi)} one point at a time, for
    equally shaped arrays of point coordinates."""
    out = np.empty(px.shape, dtype=complex)
    for idx in np.ndindex(px.shape):
        phase = freqs[:, 0] * px[idx] + freqs[:, 1] * pxi[idx]
        out[idx] = np.sum(coeffs * np.exp(2j * np.pi * phase))
    return out


QUARTER = flow(QuadraticHamiltonian.harmonic(1), 0.5 * np.pi)
SHEAR = SymplecticBlocks(1.0, 0.37, 0.0, 1.0)


@pytest.mark.parametrize("s", [QUARTER, SHEAR], ids=["quarter", "shear"])
def test_eval_fourier_modes_matches_direct_sum(small_grid, s):
    # N != 4 L^2 here, so both maps move the modes off the frequency lattice
    coeffs, freqs = phase_fourier_modes(random_symbol(small_grid, 73))
    freqs = freqs @ s.matrix()
    u = small_grid.axis()[::4]
    v = small_grid.freq_axis()[1::4]
    ref = direct_mode_sum(coeffs, freqs, *np.meshgrid(u, v, indexing="ij"))
    got = eval_fourier_modes(coeffs, freqs, u, v)
    assert got.shape == (len(u), len(v))
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_oracle_pair_memory_stays_small(grid):
    # the covariance and FIO-swap oracles on the battery's 256-point grid and
    # 91-mode symbol: 64 MB holds their N x N and 2N x 2N matrices but not a
    # (2N)^2 x 91 phase matrix (380 MB)
    sig = random_symbol(grid, 75)
    h = QuadraticHamiltonian.harmonic(1)
    quarter, phi = flow(h, 0.5 * np.pi), phase_form(flow(h, 0.7))
    tracemalloc.start()
    try:
        sig_w = weyl_quantize(sig)
        symplectic_covariance_residual(sig, sig_w, quarter)
        fio_swap_residual(sig, sig_w, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("s", [QUARTER, SHEAR], ids=["quarter", "shear"])
def test_flowed_modes_match_direct_sum(small_grid, s):
    # the covariance oracle samples sigma(S z) from the modes S^T q, since
    # q . (S z) = (S^T q) . z; check that against S applied to each point
    coeffs, freqs = phase_fourier_modes(random_symbol(small_grid, 74))
    x, xi = small_grid.axis(), small_grid.freq_axis()
    px, pxi = np.meshgrid(x, xi, indexing="ij")
    m = s.matrix()
    ref = direct_mode_sum(coeffs, freqs, m[0, 0] * px + m[0, 1] * pxi,
                          m[1, 0] * px + m[1, 1] * pxi)
    got = eval_fourier_modes(coeffs, freqs @ m, x, xi)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_conjugate_through_fio_constant_amplitude(grid):
    # sigma = 1 passes through untouched
    one = SymbolField(grid, np.ones((grid.points, grid.points)))
    phi = phase_form(flow(QuadraticHamiltonian.harmonic(1), 0.7))
    amp = conjugate_through_fio(one, phi)
    assert np.max(np.abs(amp.values - 1.0)) < 1e-10
