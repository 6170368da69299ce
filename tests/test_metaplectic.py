import numpy as np
import pytest

from proplab import (FAST_CHIRP_FFT, QUADRATURE, GridSpec, KernelMatrix,
                     NotFree, QuadraticHamiltonian, build_propagator, dft,
                     flow, mehler_oracle, propagator_for, resolve_phase,
                     sup_norm_on_compact)


def analytic_free_kernel(grid, t):
    x = grid.axis()
    return np.exp(1j * (x[:, None] - x[None, :]) ** 2 / (2.0 * t)) \
        / np.sqrt(2j * np.pi * t)


def test_free_kernel_against_closed_form():
    grid = GridSpec(1, 12.0, 1024)
    h = QuadraticHamiltonian.free_particle(1)
    prop = propagator_for(h, 1.0, grid, method=QUADRATURE)
    ana = analytic_free_kernel(grid, 1.0)
    scale = float(np.max(np.abs(ana)))
    err = sup_norm_on_compact(prop.kernel(), KernelMatrix(grid, ana), 6.0)
    assert err / scale < 1e-3


def test_free_kernel_negative_time_phase():
    # c(t) = exp(-i pi/4) for t > 0 flips to exp(+i pi/4) for t < 0
    grid = GridSpec(1, 12.0, 512)
    h = QuadraticHamiltonian.free_particle(1)
    prop = propagator_for(h, -1.0, grid, method=QUADRATURE)
    ana = analytic_free_kernel(grid, -1.0)
    err = sup_norm_on_compact(prop.kernel(), KernelMatrix(grid, ana), 6.0)
    assert err * np.sqrt(2.0 * np.pi) < 1e-3


def test_mehler_two_paths_agree(grid):
    ko = mehler_oracle(1.0, grid)
    kq = propagator_for(QuadraticHamiltonian.harmonic(1), 1.0, grid,
                        method=QUADRATURE).kernel()
    scale = float(np.max(np.abs(ko.entries)))
    assert np.max(np.abs(ko.entries - kq.entries)) / scale < 1e-6


def test_fast_path_matches_quadrature(grid, packet):
    h = QuadraticHamiltonian.harmonic(1)
    pq = propagator_for(h, 1.0, grid, method=QUADRATURE)
    pf = propagator_for(h, 1.0, grid, method=FAST_CHIRP_FFT)
    a = pq.apply(packet)
    b = pf.apply(packet)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_sup_magnitude_is_det_b_power(grid):
    h = QuadraticHamiltonian.harmonic(1)
    for t in (0.4, 1.0, 2.2):
        prop = propagator_for(h, t, grid, method=QUADRATURE)
        sup = float(np.max(np.abs(prop.kernel_entries())))
        assert abs(sup - abs(np.sin(t)) ** -0.5) < 1e-10


def test_resolve_phase_continuity_past_exceptional():
    # crossing t = pi multiplies the phase by exp(-i pi / 2) (one conjugate
    # point of multiplicity one); compare against Mehler's known branch
    h = QuadraticHamiltonian.harmonic(1)
    c_before = resolve_phase(h, 0.5 * np.pi)
    c_after = resolve_phase(h, 1.5 * np.pi)
    ratio = c_after / c_before
    assert abs(ratio - np.exp(-0.5j * np.pi)) < 1e-10


def test_resolve_phase_stable_under_refinement():
    h = QuadraticHamiltonian.harmonic(1)
    assert abs(resolve_phase(h, 2.0, steps=16)
               - resolve_phase(h, 2.0, steps=64)) < 1e-12


def test_propagator_unitary_on_packets(grid, packet):
    h = QuadraticHamiltonian.harmonic(1)
    out = propagator_for(h, 0.8, grid, method=QUADRATURE).apply(packet)
    assert abs(out.norm2() - packet.norm2()) < 1e-6


def test_harmonic_quarter_period_is_fourier(grid, packet):
    # at t = pi/2 the propagator is the Fourier transform up to phase
    h = QuadraticHamiltonian.harmonic(1)
    out = propagator_for(h, 0.5 * np.pi, grid, method=QUADRATURE).apply(packet)
    spec = dft(packet, -1)
    ratio = out.values[100:156] / spec.values[100:156]
    assert np.max(np.abs(ratio - ratio[0])) < 1e-6
    assert abs(abs(ratio[0]) - 1.0) < 1e-6


def test_build_propagator_rejects_exceptional(grid):
    h = QuadraticHamiltonian.harmonic(1)
    with pytest.raises(NotFree):
        build_propagator(flow(h, np.pi), grid)


def test_mehler_oracle_rejects_degenerate(grid):
    with pytest.raises(NotFree):
        mehler_oracle(np.pi, grid)
