import numpy as np
import pytest

from proplab import (FAST_CHIRP_FFT, QUADRATURE, GridSpec, NotFree,
                     QuadraticHamiltonian, build_propagator, dft, flow,
                     mehler_oracle, phase_form, propagator_for, resolve_phase,
                     sup_norm_on_compact)
from proplab._kernels import chirp_kernel
from proplab.metaplectic import MetaplecticPropagator, mehler_phase
from proplab.trotter import kinetic_step


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
    err = sup_norm_on_compact(prop.kernel_entries() - ana, grid, 6.0)
    assert err / scale < 1e-3


def test_free_kernel_negative_time_phase():
    # c(t) = exp(-i pi/4) for t > 0 flips to exp(+i pi/4) for t < 0
    grid = GridSpec(1, 12.0, 512)
    h = QuadraticHamiltonian.free_particle(1)
    prop = propagator_for(h, -1.0, grid, method=QUADRATURE)
    ana = analytic_free_kernel(grid, -1.0)
    err = sup_norm_on_compact(prop.kernel_entries() - ana, grid, 6.0)
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


@pytest.mark.parametrize("h", [QuadraticHamiltonian.harmonic(1),
                               QuadraticHamiltonian(1, 2.0 * np.pi, 1.0, 2.0 * np.pi)],
                         ids=["harmonic", "cross-term"])
@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2, 3, 7])
def test_phase_matches_spectral_step_across_exceptional_times(grid, packet, h, k):
    # the spectral step exp(-itH_grid) involves no phase logic, so it checks
    # the crossing count independently, on both sides of t = 0 and up to
    # eight exceptional times out
    omega = np.sqrt(h.a * h.c - h.b**2) / (2.0 * np.pi)
    t = 0.8 + k * np.pi / omega
    spectral = kinetic_step(h, t, grid) @ packet.values
    chirp = propagator_for(h, t, grid).apply(packet).values
    assert np.max(np.abs(spectral - chirp)) < 1e-8


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2, 3, 7])
def test_mehler_phase_matches_resolve_phase(k):
    # the times of the test above, for the harmonic H0; the two counts are
    # written apart, so this checks each against the other
    t = 0.8 + k * np.pi
    c = resolve_phase(QuadraticHamiltonian.harmonic(1), t)
    assert abs(mehler_phase(t) - c) < 4 * np.finfo(float).eps


@pytest.mark.parametrize("half_width, points", [(16.0, 1024), (5.0, 256)])
@pytest.mark.parametrize("tau", [0.125, 1.0])
def test_free_carrier_equals_its_transpose(half_width, points, tau):
    # _power_step squares this step as z @ z.T, and BLAS zsyrk reads one
    # triangle only: an asymmetric carrier would be silently symmetrized
    grid = GridSpec(1, half_width, points)
    k = propagator_for(QuadraticHamiltonian.free_particle(1), tau, grid).kernel_entries()
    assert np.array_equal(k, k.T)


def test_harmonic_carrier_is_symmetric_to_rounding():
    grid = GridSpec(1, 16.0, 1024)
    k = propagator_for(QuadraticHamiltonian.harmonic(1), 1.0, grid).kernel_entries()
    assert np.max(np.abs(k - k.T)) <= 1e-15


@pytest.mark.parametrize("t", [6.0, 10.0, -8.0])
def test_free_kernel_at_long_times(t):
    grid = GridSpec(1, 12.0, 1024)
    h = QuadraticHamiltonian.free_particle(1)
    prop = propagator_for(h, t, grid, method=QUADRATURE)
    ana = analytic_free_kernel(grid, t)
    err = sup_norm_on_compact(prop.kernel_entries() - ana, grid, 6.0)
    assert err / float(np.max(np.abs(ana))) < 1e-12


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
        build_propagator(flow(h, np.pi), grid, QUADRATURE, 1.0)


def test_propagator_rejects_nan_phase_and_determinant(grid):
    # NaN fails every comparison, so the checks must be written to fail on it
    s = flow(QuadraticHamiltonian.harmonic(1), 1.0)
    with pytest.raises(ValueError, match="unit modulus"):
        build_propagator(s, grid, QUADRATURE, complex("nan"))
    with pytest.raises(ValueError, match="det B"):
        MetaplecticPropagator(phase_form(s), float("nan"), 1.0, QUADRATURE, grid)


def test_propagator_rejects_infinite_determinant(grid):
    # |det B| = inf scaled the kernel to all zeros
    s = flow(QuadraticHamiltonian.harmonic(1), 1.0)
    with pytest.raises(ValueError, match="det B"):
        MetaplecticPropagator(phase_form(s), float("inf"), 1.0, QUADRATURE, grid)


@pytest.mark.parametrize("h,t", [(QuadraticHamiltonian.harmonic(1), 1.0),
                                 (QuadraticHamiltonian.harmonic(1), -4.0),
                                 (QuadraticHamiltonian.free_particle(1), 0.3)])
def test_kernel_entries_scale_the_carrier_exactly(grid, h, t):
    # the in-place scaling keeps scale * carrier's operand order and its bits
    prop = propagator_for(h, t, grid)
    x = grid.axis()
    assert np.array_equal(prop.kernel_entries(),
                          prop.scale * chirp_kernel(x, x, *prop.phase.coefficients()))


@pytest.mark.parametrize("half_width,points", [(8.0, 256), (16.0, 1024)])
@pytest.mark.parametrize("h,t", [(QuadraticHamiltonian.free_particle(1), 0.125),
                                 (QuadraticHamiltonian.free_particle(1), 1.0 / 3.0),
                                 (QuadraticHamiltonian.harmonic(1), 1.0)])
def test_kernel_row_is_row_zero_of_kernel_entries(half_width, points, h, t):
    # the free-chirp powering takes its step from this row alone
    prop = propagator_for(h, t, GridSpec(1, half_width, points))
    assert np.array_equal(prop.kernel_row(), prop.kernel_entries()[0])


@pytest.mark.parametrize("t", [1.0, -0.7, 4.0])
def test_mehler_oracle_matches_its_formula_exactly(grid, t):
    # the buffered evaluation against the closed form written out of place
    x = grid.axis()
    sq = x**2
    st = np.sin(t)
    phase = (np.cos(t) * (sq[:, None] + sq[None, :]) - 2.0 * np.outer(x, x)) / (2.0 * st)
    expected = mehler_phase(t) * abs(st) ** -0.5 * np.exp(2j * np.pi * phase)
    assert np.array_equal(mehler_oracle(t, grid).entries, expected)


def test_mehler_oracle_memory_stays_small(traced_peak):
    # one real phase buffer (8 MiB at N = 1024) and one complex entries
    # buffer (16 MiB): measured 24.1 MiB, 40.0 MiB out of place
    grid = GridSpec(1, 16.0, 1024)
    assert traced_peak(lambda: mehler_oracle(1.0, grid)) < 26


def test_mehler_oracle_rejects_degenerate(grid):
    with pytest.raises(NotFree):
        mehler_oracle(np.pi, grid)
