import numpy as np
import pytest

from proplab import (CHIRP, QuadraticHamiltonian,
                     SampledField, TrotterScenario, convergence_report,
                     exceptional_blowup_scan, factor_out_phase, flow,
                     kernel_mod_norm, perturbation_split_report, phase_form,
                     propagator_for, reference_kernel, time_slice_free_kernel,
                     trotter_kernel)
from proplab.trotter import hamiltonian_matrix, kinetic_step


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


def test_kinetic_step_unitary_semigroup(grid):
    h = QuadraticHamiltonian.harmonic(1)
    u1 = kinetic_step(h, 0.3, grid)
    u2 = kinetic_step(h, 0.7, grid)
    u3 = kinetic_step(h, 1.0, grid)
    assert np.max(np.abs(u1 @ u2 - u3)) < 1e-11
    assert np.max(np.abs(u1 @ u1.conj().T - np.eye(grid.size))) < 1e-11


def test_kinetic_step_matches_chirp_on_packets(grid, packet):
    h = QuadraticHamiltonian.harmonic(1)
    spectral = kinetic_step(h, 0.8, grid) @ packet.values
    chirp = propagator_for(h, 0.8, grid).apply(packet).values
    assert np.max(np.abs(spectral - chirp)) < 1e-9


def test_zero_potential_collapse(grid):
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1),
                         SampledField(grid, np.zeros(grid.size)),
                         1.0, (1, 3, 7, 64), grid, 1024)
    kernels = [trotter_kernel(sc, n).entries for n in sc.n_list]
    for k in kernels[1:]:
        assert np.max(np.abs(k - kernels[0])) == 0.0


def test_scenario_validation(grid):
    v = cosine_potential(grid)
    with pytest.raises(ValueError):
        TrotterScenario(QuadraticHamiltonian.harmonic(1), v, 1.0,
                        (4, 64), grid, 128)   # reference too small
    with pytest.raises(ValueError):
        TrotterScenario(QuadraticHamiltonian.harmonic(1), v, 1.0,
                        (0,), grid, 128)


def test_scenario_warns_at_exceptional_time(grid):
    with pytest.warns(UserWarning):
        TrotterScenario(QuadraticHamiltonian.harmonic(1),
                        cosine_potential(grid), np.pi, (4,), grid, 64)


def test_steps_are_unitary_for_real_potential(scenario):
    # E_n(t) times the quadrature cell is a unitary matrix for real V
    u = trotter_kernel(scenario, 16).entries * scenario.grid.cell
    assert np.max(np.abs(u @ u.conj().T - np.eye(scenario.grid.size))) < 1e-10


def test_convergence_report_decreases(grid):
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1),
                         cosine_potential(grid), 1.0,
                         (4, 8, 16, 32), grid, 256)
    rep = convergence_report(sc)
    sup = [r.sup_error for r in rep.rows]
    assert all(a > b for a, b in zip(sup, sup[1:]))
    assert rep.cauchy_tag > 0.0
    assert rep.skipped == []
    assert len(rep.rows[0].windowed) == 9


def test_reference_kernel_carries_cauchy_tag(grid):
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1),
                         cosine_potential(grid), 1.0, (4,), grid, 64)
    ref = reference_kernel(sc)
    assert ref.cauchy_tag > 0.0
    assert ref.reference_n == 64


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
    phi = phase_form(flow(sc.hamiltonian, sc.t))
    norms = [kernel_mod_norm(factor_out_phase(trotter_kernel(sc, n), phi))
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
    rem, bound = perturbation_split_report(sc, 0.1, n=64)
    assert 0.0 <= rem <= bound


def test_perturbation_remainder_shrinks_with_eps(grid):
    # with the pinned two-cosine potential the decrease is slower than the
    # budget halving (the spectrum has only two shells), but it is monotone
    x = grid.axis()
    v = SampledField(grid, np.cos(2.0 * np.pi * x)
                     + 0.3 * np.cos(2.0 * np.pi * 3.0 * x))
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1), v, 1.0,
                         (4, 16, 64), grid, 256)
    rems = [perturbation_split_report(sc, eps, n=64)[0]
            for eps in (0.2, 0.1, 0.05)]
    assert rems[0] >= rems[1] >= rems[2]


def test_free_slice_matches_product_kernel(grid):
    h = QuadraticHamiltonian.free_particle(1)
    v = cosine_potential(grid)
    for n in (1, 2, 4, 8):
        sc = TrotterScenario(h, v, 1.0, (n,), grid, 4 * n)
        kt = trotter_kernel(sc, n, method=CHIRP)
        ks = time_slice_free_kernel(v.copy(), 1.0, n, grid)
        scale = np.max(np.abs(kt.entries))
        assert np.max(np.abs(kt.entries - ks.entries)) / scale < 1e-8


def test_chirp_step_refuses_harmonic_hamiltonian(scenario):
    # powering the harmonic chirp quadrature diverges (sup 7.5e108 at n = 64)
    with pytest.raises(ValueError, match="free-particle"):
        trotter_kernel(scenario, 4, method=CHIRP)


def test_free_slice_single_step_is_analytic_chirp(grid):
    # one step with V = 0 is the analytic free kernel itself; more steps add
    # Fresnel box-truncation fringes, which is why the n > 1 cross-check runs
    # against the identically-discretized product kernel instead
    v = SampledField(grid, np.zeros(grid.size))
    k = time_slice_free_kernel(v, 1.0, 1, grid)
    x = grid.axis()
    ana = np.exp(1j * (x[:, None] - x[None, :]) ** 2 / 2.0) / np.sqrt(2j * np.pi)
    assert np.max(np.abs(k.entries - ana)) < 1e-12


def test_free_slice_step_count_cap(grid):
    v = cosine_potential(grid)
    with pytest.raises(ValueError):
        time_slice_free_kernel(v, 1.0, 9, grid)
