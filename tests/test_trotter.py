import tracemalloc

import numpy as np
import pytest

from proplab import (CHIRP, GridSpec, NotFree, QuadraticHamiltonian,
                     SampledField, TrotterScenario, convergence_report,
                     exceptional_blowup_scan, factor_out_phase, flow,
                     kernel_mod_norm, perturbation_split_report, phase_form,
                     propagator_for, reference_kernel, time_slice_free_kernel,
                     trotter_kernel)
from proplab.grid import _centered_fft
from proplab.trotter import _eig, _windowed_fl1, hamiltonian_matrix, kinetic_step


def cosine_potential(grid, amp=1.0, freq=1.0):
    x = grid.axis()
    return SampledField(grid, amp * np.cos(2.0 * np.pi * freq * x))


@pytest.fixture
def scenario(grid):
    return TrotterScenario(QuadraticHamiltonian.harmonic(1),
                           cosine_potential(grid), 1.0,
                           (4, 8, 16), grid, 128)


def test_grid_harmonic_spectrum(grid):
    # eigenvalues of the grid Hamiltonian are k + 1/2 for the low modes
    w = np.linalg.eigvalsh(hamiltonian_matrix(
        QuadraticHamiltonian.harmonic(1), grid))
    k = np.arange(40)
    assert np.max(np.abs(w[:40] - (k + 0.5))) < 1e-9


CROSS_TERM = QuadraticHamiltonian(1, 2.0 * np.pi, 1.0, 2.0 * np.pi)


def complex_hamiltonian(h, grid):
    """hamiltonian_matrix without taking the real part of the multiplier."""
    x, xi = grid.axis(), grid.freq_axis()
    fwd = np.exp(-2j * np.pi * np.outer(xi, x)) * grid.cell
    inv = np.exp(2j * np.pi * np.outer(x, xi)) * grid.freq_cell
    mat = 0.5 * h.a * np.diag(x**2) + inv @ ((0.5 * h.c * xi**2)[:, None] * fwd)
    d_op = inv @ (xi[:, None] * fwd)
    xd = x[:, None] * d_op
    mat = mat + 0.5 * h.b * (xd + xd.conj().T)
    return 0.5 * (mat + mat.conj().T)


@pytest.mark.parametrize("h", [QuadraticHamiltonian.harmonic(1),
                               QuadraticHamiltonian.free_particle(1), CROSS_TERM],
                         ids=["harmonic", "free", "cross-term"])
def test_hamiltonian_matrix_is_real_without_cross_term(grid, h):
    mat = hamiltonian_matrix(h, grid)
    w, u = _eig(h, grid)
    assert np.isrealobj(mat) == (h.b == 0.0) == np.isrealobj(u)
    assert np.array_equal(mat, mat.conj().T)
    dense = complex_hamiltonian(h, grid)
    assert np.max(np.abs(mat - dense)) < 1e-12 * np.max(np.abs(dense))
    w_old = np.linalg.eigvalsh(dense)
    assert np.max(np.abs(w - w_old)) < 1e-12 * np.max(np.abs(w_old))


def test_kinetic_step_unitary_semigroup(grid):
    h = QuadraticHamiltonian.harmonic(1)
    u1 = kinetic_step(h, 0.3, grid)
    u2 = kinetic_step(h, 0.7, grid)
    u3 = kinetic_step(h, 1.0, grid)
    assert np.max(np.abs(u1 @ u2 - u3)) < 1e-11
    assert np.max(np.abs(u1 @ u1.conj().T - np.eye(grid.points))) < 1e-11


def test_kinetic_step_matches_chirp_on_packets(grid, packet):
    h = QuadraticHamiltonian.harmonic(1)
    spectral = kinetic_step(h, 0.8, grid) @ packet.values
    chirp = propagator_for(h, 0.8, grid).apply(packet).values
    assert np.max(np.abs(spectral - chirp)) < 1e-9


def test_zero_potential_collapse(grid):
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1),
                         SampledField(grid, np.zeros(grid.points)),
                         1.0, (1, 3, 7, 64), grid, 1024)
    kernels = [trotter_kernel(sc, n).entries for n in sc.n_list]
    for k in kernels[1:]:
        assert np.max(np.abs(k - kernels[0])) == 0.0


@pytest.mark.parametrize("h", [QuadraticHamiltonian.harmonic(1),
                               QuadraticHamiltonian.free_particle(1)],
                         ids=["harmonic", "free"])
def test_kernel_is_continuous_in_v_at_zero(grid, h):
    # E_8(t) for V = 1e-12 cos(2 pi x) is within 1e-9 of the V = 0 kernel
    zero = TrotterScenario(h, SampledField(grid, np.zeros(grid.points)), 1.0, (8,),
                           grid, 32)
    tiny = TrotterScenario(h, cosine_potential(grid, amp=1e-12), 1.0, (8,), grid, 32)
    mask = np.abs(grid.axis()) <= 4.0
    diff = trotter_kernel(tiny, 8).entries - trotter_kernel(zero, 8).entries
    assert np.max(np.abs(diff[np.ix_(mask, mask)])) < 1e-9


def test_scenario_validation(grid):
    v = cosine_potential(grid)
    with pytest.raises(ValueError):
        TrotterScenario(QuadraticHamiltonian.harmonic(1), v, 1.0,
                        (4, 64), grid, 128)   # reference too small
    with pytest.raises(ValueError):
        TrotterScenario(QuadraticHamiltonian.harmonic(1), v, 1.0,
                        (0,), grid, 128)


def test_scenario_refuses_exceptional_time(grid):
    # B_t = sin t vanishes at t = pi; the refusal comes before the step
    # count checks, so an invalid n_list does not mask it
    for n_list in ((4,), (0,)):
        with pytest.raises(NotFree):
            TrotterScenario(QuadraticHamiltonian.harmonic(1),
                            cosine_potential(grid), np.pi, n_list, grid, 64)


def test_steps_are_unitary_for_real_potential(scenario):
    # E_n(t) times the quadrature cell is a unitary matrix for real V
    u = trotter_kernel(scenario, 16).entries * scenario.grid.cell
    assert np.max(np.abs(u @ u.conj().T - np.eye(scenario.grid.points))) < 1e-10


def test_convergence_report_decreases(grid):
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1),
                         cosine_potential(grid), 1.0,
                         (4, 8, 16, 32), grid, 256)
    rows, cauchy_tag = convergence_report(sc)
    sup = [r[1] for r in rows]
    assert all(a > b for a, b in zip(sup, sup[1:]))
    assert cauchy_tag > 0.0
    # n, sup error, nine windowed errors, two modulation norms
    assert [r[0] for r in rows] == [4, 8, 16, 32] and len(rows[0]) == 13


def test_windowed_fl1_matches_full_2d_bumps(grid):
    # one x-pass per x-center then one y-pass per center equals the l1 norm
    # of the 2d spectrum of diff times the full 2d bump, center by center
    rng = np.random.default_rng(3)
    n = grid.points
    diff = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = grid.axis()
    c = 0.25 * grid.half_width
    got = _windowed_fl1(diff, grid)
    assert len(got) == 9
    for k, (cx, cy) in enumerate((cx, cy) for cx in (-c, 0.0, c)
                                 for cy in (-c, 0.0, c)):
        bump = np.outer(np.exp(-np.pi * (x - cx) ** 2), np.exp(-np.pi * (x - cy) ** 2))
        spec = _centered_fft(_centered_fft(diff * bump, n, -1, 0), n, -1, 1)
        ref = np.sum(np.abs(spec * grid.cell**2)) * grid.freq_cell**2
        assert abs(got[k] - ref) <= 1e-13 * ref


def test_reference_kernel_carries_cauchy_tag(grid):
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1),
                         cosine_potential(grid), 1.0, (4,), grid, 64)
    ref = reference_kernel(sc)
    assert ref.cauchy_tag > 0.0


def test_factor_out_phase_flattens_chirp(grid):
    h = QuadraticHamiltonian.harmonic(1)
    phi = phase_form(flow(h, 1.0))
    k = propagator_for(h, 1.0, grid).kernel()
    flat = factor_out_phase(k, phi)
    # the remaining amplitude is the constant c |sin t|^{-1/2}
    assert np.max(np.abs(flat.entries - flat.entries[0, 0])) < 1e-9


def test_mod_norm_ratio_bounded_over_n(grid):
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1),
                         cosine_potential(grid), 1.0,
                         (1, 4, 16, 64), grid, 256)
    norms = [kernel_mod_norm(factor_out_phase(trotter_kernel(sc, n), sc.phase))
             for n in sc.n_list]
    assert max(norms) / min(norms) < 3.0


def test_exceptional_scan_ratio_constant(grid):
    h = QuadraticHamiltonian.harmonic(1)
    rows = exceptional_blowup_scan(h, np.pi, (0.2, 0.1, 0.05), grid)
    ratios = [r[3] for r in rows]
    assert max(ratios) / min(ratios) - 1.0 < 1e-6
    sups = [r[1] for r in rows]
    assert sups == sorted(sups)   # grows as delta shrinks


def test_exceptional_scan_refuses_free_time(grid):
    h = QuadraticHamiltonian.harmonic(1)
    with pytest.raises(ValueError):
        exceptional_blowup_scan(h, 1.0, (0.1,), grid)


def test_perturbation_remainder_under_bound(grid):
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1),
                         cosine_potential(grid), 1.0, (4, 16, 64), grid, 256)
    [(_eps, _f1, _f2, _r, rem, bound)] = perturbation_split_report(sc, [0.1], n=64)
    assert 0.0 <= rem <= bound


def test_perturbation_remainder_shrinks_with_eps(grid):
    # with the pinned two-cosine potential the decrease is slower than the
    # budget halving (the spectrum has only two shells), but it is monotone
    x = grid.axis()
    v = SampledField(grid, np.cos(2.0 * np.pi * x)
                     + 0.3 * np.cos(2.0 * np.pi * 3.0 * x))
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1), v, 1.0,
                         (4, 16, 64), grid, 256)
    rems = [row[4] for row in perturbation_split_report(sc, (0.2, 0.1, 0.05), n=64)]
    assert rems[0] >= rems[1] >= rems[2]


def test_free_slice_matches_product_kernel(grid):
    h = QuadraticHamiltonian.free_particle(1)
    v = cosine_potential(grid)
    for n in (1, 2, 4, 8):
        sc = TrotterScenario(h, v, 1.0, (n,), grid, 4 * n)
        kt = trotter_kernel(sc, n, method=CHIRP)
        ks = time_slice_free_kernel(v, 1.0, n, grid)
        scale = np.max(np.abs(kt.entries))
        assert np.max(np.abs(kt.entries - ks.entries)) / scale < 1e-8


def matrix_power_kernel(sc, n, method):
    """E_n(t) from np.linalg.matrix_power of the unsymmetrized step."""
    tau = sc.t / n
    if method == CHIRP:
        kin = propagator_for(sc.hamiltonian, tau, sc.grid).kernel_entries() \
            * sc.grid.cell
    else:
        kin = kinetic_step(sc.hamiltonian, tau, sc.grid)
    phase = np.exp(-1j * tau * sc.potential.values)
    return np.linalg.matrix_power(kin * phase[None, :], n) / sc.grid.cell


@pytest.mark.parametrize("h,potential,method,n_values", [
    pytest.param(QuadraticHamiltonian.harmonic(1), "cos", "spectral",
                 (1, 3, 4, 7, 64), id="harmonic"),
    pytest.param(CROSS_TERM, "cos", "spectral", (3, 8), id="cross-term"),
    pytest.param(QuadraticHamiltonian.harmonic(1), "complex", "spectral", (8,),
                 id="complex-potential"),
    pytest.param(QuadraticHamiltonian.free_particle(1), "cos", CHIRP, (1, 3, 8),
                 id="chirp"),
])
def test_powering_matches_matrix_power(grid, h, potential, method, n_values):
    # np.linalg.matrix_power of the unsymmetrized step is the reference of
    # _power_step, which trotter_kernel and time_slice_free_kernel share
    # odd n reach the res @ z multiply; b != 0 squares with the general
    # product; a complex V makes |q| != 1 in the symmetrized step
    x = grid.axis()
    values = np.cos(2.0 * np.pi * x)
    if potential == "complex":
        values = values + 0.3j * np.sin(2.0 * np.pi * x)
    v = SampledField(grid, values)
    for n in n_values:
        sc = TrotterScenario(h, v, 1.0, (n,), grid, 4 * n)
        ref = matrix_power_kernel(sc, n, method)
        got = trotter_kernel(sc, n, method=method).entries
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_free_slice_matches_iterated_product(grid):
    # n plain products of the analytic step: the powering's reference for
    # the path quadrature, apart from _power_step
    v = cosine_potential(grid)
    x = grid.axis()
    for n in range(1, 9):
        tau = 1.0 / n
        step = np.exp(1j * (x[:, None] - x[None, :]) ** 2 / (2.0 * tau)) \
            / np.sqrt(2j * np.pi * tau) * np.exp(-1j * tau * v.values)[None, :] \
            * grid.cell
        ref = np.eye(grid.points, dtype=complex)
        for _ in range(n):
            ref = step @ ref
        ref /= grid.cell
        got = time_slice_free_kernel(v, 1.0, n, grid).entries
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_powering_memory_stays_small():
    # the symmetrized step is scaled and unscaled in place, so at most the
    # step, one square and the running product are alive: 16 MiB each at
    # N = 1024 (measured peaks 40 and 32 MiB)
    grid = GridSpec(1, 16.0, 1024)
    v = cosine_potential(grid)
    sc = TrotterScenario(QuadraticHamiltonian.free_particle(1), v, 1.0, (8,),
                         grid, 32)
    for run in (lambda: trotter_kernel(sc, 8, method=CHIRP),
                lambda: time_slice_free_kernel(v, 1.0, 8, grid)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 16 * 2**20


def test_chirp_step_refuses_harmonic_hamiltonian(scenario):
    # powering the harmonic chirp quadrature diverges (sup 7.5e108 at n = 64)
    with pytest.raises(ValueError, match="free-particle"):
        trotter_kernel(scenario, 4, method=CHIRP)


def test_free_slice_single_step_is_analytic_chirp(grid):
    # one step with V = 0 is the analytic free kernel itself; more steps add
    # Fresnel box-truncation fringes, which is why the n > 1 cross-check runs
    # against the identically-discretized product kernel instead
    v = SampledField(grid, np.zeros(grid.points))
    k = time_slice_free_kernel(v, 1.0, 1, grid)
    x = grid.axis()
    ana = np.exp(1j * (x[:, None] - x[None, :]) ** 2 / 2.0) / np.sqrt(2j * np.pi)
    assert np.max(np.abs(k.entries - ana)) < 1e-12


def test_free_slice_step_count_cap(grid):
    v = cosine_potential(grid)
    with pytest.raises(ValueError):
        time_slice_free_kernel(v, 1.0, 9, grid)
