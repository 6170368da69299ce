import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from proplab import (CHIRP, SPECTRAL, GridSpec, NotFree, ProplabError,
                     QuadraticHamiltonian, SampledField, TrotterScenario,
                     convergence_report, exceptional_blowup_scan, factor_out_phase,
                     flow, kernel_mod_norm, perturbation_split_report, phase_form,
                     propagator_for, reference_kernel, time_slice_free_kernel,
                     trotter_kernel)
from proplab.cli import Config
from proplab.grid import _centered_fft, sup_norm_on_compact
from proplab import _kernels, trotter
from proplab.trotter import (_eig, _fold, _unfold, _windowed_fl1, hamiltonian_matrix,
                             kinetic_step)


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


def spectral_step(mat, tau):
    """exp(-i tau mat) from a complex eigh of the Hermitian mat, built apart
    from kinetic_step and the eigendecomposition of _eig."""
    w, u = np.linalg.eigh(mat.astype(complex))
    return (u * np.exp(-1j * tau * w)[None, :]) @ u.conj().T


def parity_basis(n):
    """Dense orthonormal eigenbases (even, odd) of the grid reflection
    j -> -j mod N, in the column order of _fold, built apart from it."""
    m = n // 2
    even = np.zeros((n, m + 1))
    odd = np.zeros((n, m - 1))
    for j in range(m + 1):
        even[j, j] = even[-j % n, j] = 1.0
    even /= np.linalg.norm(even, axis=0)
    for j in range(1, m):
        odd[j, j - 1], odd[n - j, j - 1] = np.sqrt(0.5), -np.sqrt(0.5)
    return even, odd


def block_steps(h, grid, tau):
    """exp(-i tau H_grid) as the complex product u exp(-i tau w) u^H of each
    block of _eig, unfolded."""
    steps = [(u * np.exp(-1j * tau * w)[None, :]) @ u.conj().T for w, u in _eig(h, grid)]
    return steps[0] if len(steps) == 1 else _unfold(*steps)


@pytest.mark.parametrize("h", [QuadraticHamiltonian.harmonic(1),
                               QuadraticHamiltonian.free_particle(1), CROSS_TERM],
                         ids=["harmonic", "free", "cross-term"])
def test_hamiltonian_matrix_is_real_without_cross_term(grid, h):
    mat = hamiltonian_matrix(h, grid)
    blocks = _eig(h, grid)
    assert len(blocks) == (2 if h.b == 0.0 else 1)
    assert np.isrealobj(mat) == (h.b == 0.0) == all(np.isrealobj(u) for _, u in blocks)
    assert np.array_equal(mat, mat.conj().T)
    dense = complex_hamiltonian(h, grid)
    assert np.max(np.abs(mat - dense)) < 1e-12 * np.max(np.abs(dense))
    w = np.sort(np.concatenate([w for w, _ in blocks]))
    w_old = np.linalg.eigvalsh(dense)
    assert np.max(np.abs(w - w_old)) < 1e-12 * np.max(np.abs(w_old))


@pytest.mark.parametrize("h", [QuadraticHamiltonian(1, 1.0, 0.0, 1e308),
                               QuadraticHamiltonian(1, 1.0, 1e308, 1.0)],
                         ids=["xi-squared", "cross-term"])
def test_nonfinite_hamiltonian_matrix_raises(grid, h):
    # the multiplier's entries overflow: one ProplabError, no numpy warning
    with pytest.raises(ProplabError, match="leaves the float range"):
        hamiltonian_matrix(h, grid)


@pytest.mark.parametrize("h", [QuadraticHamiltonian.harmonic(1),
                               QuadraticHamiltonian.free_particle(1)],
                         ids=["harmonic", "free"])
@pytest.mark.parametrize("half_width,points", [(8.0, 256), (7.3, 256), (6.0, 128)])
def test_parity_blocks_of_hamiltonian_matrix(h, half_width, points):
    # H commutes with R bit for bit (x^2 and the xi^2 multiplier are even,
    # and (H + H^T)/2 keeps that), as _fold's top-half read needs, so the
    # blocks drop no even/odd coupling, and _fold is the dense change of basis
    grid = GridSpec(1, half_width, points)
    mat = hamiltonian_matrix(h, grid)
    r = (-np.arange(points)) % points
    assert np.array_equal(mat, mat[np.ix_(r, r)])
    even, odd = parity_basis(points)
    scale = np.max(np.abs(mat))
    assert np.max(np.abs(even.T @ mat @ odd)) <= 1e-13 * scale
    got_e, got_o = _fold(mat)
    assert np.max(np.abs(got_e - even.T @ mat @ even)) < 1e-13 * scale
    assert np.max(np.abs(got_o - odd.T @ mat @ odd)) < 1e-13 * scale


def test_cross_term_couples_the_parities(grid):
    # x_0 = -L has no mirror and the Nyquist mode of xi is not odd, so the
    # grid cross term is not reflection-invariant: _eig keeps it whole
    mat = hamiltonian_matrix(CROSS_TERM, grid)
    even, odd = parity_basis(grid.points)
    assert np.max(np.abs(even.T @ mat @ odd)) > 1e-2 * np.max(np.abs(mat))


@pytest.mark.parametrize("h", [QuadraticHamiltonian.harmonic(1),
                               QuadraticHamiltonian.free_particle(1)],
                         ids=["harmonic", "free"])
def test_block_eigenpairs_rebuild_hamiltonian(grid, h):
    mat = hamiltonian_matrix(h, grid)
    rebuilt = _unfold(*[(u * w[None, :]) @ u.T for w, u in _eig(h, grid)])
    assert np.max(np.abs(rebuilt - mat)) < 1e-12 * np.max(np.abs(mat))


def test_unfold_is_the_dense_change_of_basis():
    rng = np.random.default_rng(5)
    n = 16
    even, odd = parity_basis(n)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    b = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    ref = even @ a @ even.T + odd @ b @ odd.T
    assert np.max(np.abs(_unfold(a.copy(), b.copy()) - ref)) < 1e-14
    folded = _fold(ref)
    assert np.max(np.abs(folded[0] - a)) < 1e-14
    assert np.max(np.abs(folded[1] - b)) < 1e-14


def test_kinetic_step_unitary_semigroup(grid):
    pairs = _eig(QuadraticHamiltonian.harmonic(1), grid)
    u1 = kinetic_step(pairs, 0.3)
    u2 = kinetic_step(pairs, 0.7)
    u3 = kinetic_step(pairs, 1.0)
    assert np.max(np.abs(u1 @ u2 - u3)) < 1e-11
    assert np.max(np.abs(u1 @ u1.conj().T - np.eye(grid.points))) < 1e-11


@pytest.mark.parametrize("h", [QuadraticHamiltonian.harmonic(1),
                               QuadraticHamiltonian.free_particle(1), CROSS_TERM],
                         ids=["harmonic", "free", "cross-term"])
@pytest.mark.parametrize("tau", [1.0 / 1024, 0.3])
def test_kinetic_step_matches_complex_exponential(grid, h, tau):
    # b = 0 takes the two real products, the cross term the complex one.
    # Against the dense complex Hamiltonian the eigensolvers' rounding
    # dominates (measured <= 5.3e-13); against the complex product of the
    # same eigenpairs only the real split is left (measured <= 2.2e-15)
    got = kinetic_step(_eig(h, grid), tau)
    ref = spectral_step(complex_hamiltonian(h, grid), tau)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
    same = block_steps(h, grid, tau)
    assert np.max(np.abs(got - same)) < 1e-14 * np.max(np.abs(same))


def test_kinetic_step_matches_chirp_on_packets(grid, packet):
    h = QuadraticHamiltonian.harmonic(1)
    spectral = kinetic_step(_eig(h, grid), 0.8) @ packet.values
    chirp = propagator_for(h, 0.8, grid).apply(packet).values
    assert np.max(np.abs(spectral - chirp)) < 1e-9


def test_kernel_is_a_function_of_its_scenario(grid, monkeypatch):
    # a warm scenario leaves no eigenpairs behind: a new scenario of the same
    # (H0, grid) builds its own, so a grid Hamiltonian with x^2 scaled by
    # 1.01 changes its kernel (by 5.5 at N = 256)
    h = QuadraticHamiltonian.harmonic(1)

    def kernel():
        sc = TrotterScenario(h, cosine_potential(grid), 1.0, (8,), grid, 32)
        return trotter_kernel(sc, 8).entries

    def mutant(h, grid):
        return hamiltonian_matrix(h, grid) + np.diag(0.005 * h.a * grid.axis() ** 2)

    before = kernel()
    monkeypatch.setattr(trotter, "hamiltonian_matrix", mutant)
    assert np.max(np.abs(kernel() - before)) > 1.0


def test_zero_potential_collapse(grid):
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1),
                         SampledField(grid, np.zeros(grid.points)),
                         1.0, (1, 3, 7, 64), grid, 1024)
    kernels = [trotter_kernel(sc, n).entries for n in sc.n_list]
    for k in kernels[1:]:
        assert np.max(np.abs(k - kernels[0])) == 0.0


@pytest.mark.parametrize("h,method", [
    (QuadraticHamiltonian.harmonic(1), SPECTRAL),
    (QuadraticHamiltonian.free_particle(1), SPECTRAL),
    (QuadraticHamiltonian.free_particle(1), CHIRP),
], ids=["harmonic", "free", "free-chirp"])
def test_kernel_is_continuous_in_v_at_zero(grid, h, method):
    # E_8(t) for V = 1e-12 cos(2 pi x) is within 1e-9 of the V = 0 kernel;
    # the chirp step has no group law, so at V = 0 it must still take n steps
    zero = TrotterScenario(h, SampledField(grid, np.zeros(grid.points)), 1.0, (8,),
                           grid, 32)
    tiny = TrotterScenario(h, cosine_potential(grid, amp=1e-12), 1.0, (8,), grid, 32)
    mask = np.abs(grid.axis()) <= 4.0
    diff = (trotter_kernel(tiny, 8, method).entries
            - trotter_kernel(zero, 8, method).entries)
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


def test_windowed_fl1_matches_separable_formula_bitwise(grid):
    # folding the (-1)^j pre-factor into the bumps flips signs only, |.|
    # drops the (-1)^k post-factor, and cell and freq_cell are powers of two
    # here, so one weight per sum changes no bit
    rng = np.random.default_rng(5)
    n = grid.points
    diff = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = grid.axis()
    c = 0.25 * grid.half_width
    bumps = [np.exp(-np.pi * (x - z) ** 2) for z in (-c, 0.0, c)]
    ref = []
    for bx in bumps:
        along_x = _centered_fft(diff * bx[:, None], n, -1, 0)
        for by in bumps:
            spec = _centered_fft(along_x * by[None, :], n, -1, 1)
            ref.append(float(np.sum(np.abs(spec * grid.cell**2)) * grid.freq_cell**2))
    assert _windowed_fl1(diff, grid) == tuple(ref)


def test_windowed_fl1_memory_stays_small(grid):
    # four N x N buffers, three complex (1 MiB each at N = 256) and one real
    # magnitude: measured peak 3.64 MiB, 5.14 MiB with a temporary per step
    n = grid.points
    diff = np.ones((n, n), dtype=complex)
    tracemalloc.start()
    try:
        _windowed_fl1(diff, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def preset_scenario(name):
    from proplab.cli import _scenario

    return _scenario(Config(os.path.join(os.path.dirname(__file__), "..", "configs",
                                         name)), reference=True)


def test_mirrored_windowed_fl1_matches_nine_centers():
    # harmonic-cos-t1's kernels are reflection-invariant: the four mirrored
    # errors of each row equal their own transforms to rounding (measured
    # 3.0e-16 relative), and the five transformed ones are bit for bit the same
    sc = preset_scenario("harmonic-cos-t1.ini")
    assert trotter._reflection_invariant(sc)
    ref = reference_kernel(sc).kernel.entries
    for n in sc.n_list:
        diff = trotter_kernel(sc, n).entries - ref
        nine = _windowed_fl1(diff, sc.grid)
        mirrored = _windowed_fl1(diff, sc.grid, mirrored=True)
        assert mirrored[:5] == nine[:5]
        assert np.allclose(mirrored, nine, rtol=1e-15, atol=0.0)


def count_trotter_ffts(monkeypatch):
    """The calls to np.fft.fft made from proplab.trotter's own code, in a list
    that grows as they are made."""
    calls = []
    fft = np.fft.fft

    def counted(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "proplab.trotter":
            calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    return calls


@pytest.mark.parametrize("h,amp_sin,passes", [
    (QuadraticHamiltonian.harmonic(1), 0.0, 7),
    (QuadraticHamiltonian.harmonic(1), 0.1, 12),
    (CROSS_TERM, 0.0, 12),
], ids=["even", "odd-part", "cross-term"])
def test_convergence_report_mirrors_only_invariant_kernels(grid, monkeypatch, h,
                                                           amp_sin, passes):
    # 2 x-passes and 5 y-passes per row for b = 0 and an even V; a V with an
    # odd part, or a cross term, keeps all 3 + 9
    x = grid.axis()
    v = SampledField(grid, np.cos(2.0 * np.pi * x) + amp_sin * np.sin(2.0 * np.pi * x))
    sc = TrotterScenario(h, v, 1.0, (4, 8), grid, 32)
    calls = count_trotter_ffts(monkeypatch)
    rows, _ = convergence_report(sc)
    assert len(calls) == passes * len(rows)
    assert all(len(row) == 13 for row in rows)


@pytest.mark.parametrize("h,amp_sin,blocks", [
    (QuadraticHamiltonian.harmonic(1), 0.0, 3),
    (QuadraticHamiltonian.harmonic(1), 0.1, 0),
    (CROSS_TERM, 0.0, 0),
], ids=["even", "odd-part", "cross-term"])
def test_perturbation_low_bands_take_blocks_only_when_invariant(grid, monkeypatch, h,
                                                                amp_sin, blocks):
    # E_n(V) and the two E_n(f1) take the parity blocks for b = 0 and an
    # even V; a V with an odd part, or a cross term, powers every full step
    x = grid.axis()
    v = SampledField(grid, np.cos(2.0 * np.pi * x) + amp_sin * np.sin(2.0 * np.pi * x))
    sc = TrotterScenario(h, v, 1.0, (8,), grid, 32)
    calls = []
    power_blocks = trotter._power_blocks

    def counted(*args, **kwargs):
        calls.append(1)
        return power_blocks(*args, **kwargs)

    monkeypatch.setattr(trotter, "_power_blocks", counted)
    rows = perturbation_split_report(sc, (0.2, 0.1), 8)
    assert len(calls) == blocks
    assert [trotter._is_even(row[1].values) for row in rows] == [amp_sin == 0.0] * 2


def test_first_order_law_against_grid_limit(grid):
    # K_inf = exp(-it(H_grid + diag V)) / cell is the grid limit of E_n (the
    # Lie-Trotter formula for matrices); the Strang-conjugated powering gives
    # E_n = K_inf + lead / n + O(1/n^2), lead = (it/2)(V(x) - V(y)) K_inf.
    # harmonic-cos-t1's settings, sup on |x|, |y| <= 4: the limit error of
    # E_1024 is 1.5171e-3 against the tag 1.5176e-3, and
    # n sup|n(E_n - K_inf) - lead| is 6.82 at n = 256 and 1024
    h = QuadraticHamiltonian.harmonic(1)
    v = cosine_potential(grid)
    t = 1.0
    sc = TrotterScenario(h, v, t, (256,), grid, 1024)
    vr = v.values.real
    w, u = np.linalg.eigh(hamiltonian_matrix(h, grid) + np.diag(vr))
    k_inf = (u * np.exp(-1j * t * w)[None, :]) @ u.T / grid.cell
    lead = 0.5j * t * (vr[:, None] - vr[None, :]) * k_inf
    radius = 0.5 * grid.half_width
    ref = reference_kernel(sc)
    limit_error = sup_norm_on_compact(ref.kernel.entries - k_inf, grid, radius)
    assert abs(limit_error - ref.cauchy_tag) <= 0.01 * ref.cauchy_tag
    for n, k_n in ((256, trotter_kernel(sc, 256).entries),
                   (1024, ref.kernel.entries)):
        assert n * sup_norm_on_compact(n * (k_n - k_inf) - lead, grid, radius) <= 10.0


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
        kin = spectral_step(hamiltonian_matrix(sc.hamiltonian, sc.grid), tau)
    phase = np.exp(-1j * tau * sc.potential.values)
    return np.linalg.matrix_power(kin * phase[None, :], n) / sc.grid.cell


@pytest.mark.parametrize("h,potential,method,n_values", [
    pytest.param(QuadraticHamiltonian.harmonic(1), "cos", "spectral",
                 (1, 3, 4, 7, 64), id="harmonic"),
    pytest.param(CROSS_TERM, "cos", "spectral", (3, 8), id="cross-term"),
    pytest.param(QuadraticHamiltonian.harmonic(1), "complex", "spectral", (8,),
                 id="complex-potential"),
    pytest.param(QuadraticHamiltonian.harmonic(1), "complex-even", "spectral", (3, 8),
                 id="complex-even-potential"),
    pytest.param(QuadraticHamiltonian.free_particle(1), "cos", CHIRP, range(1, 9),
                 id="chirp"),
    pytest.param(QuadraticHamiltonian.free_particle(1), "complex-even", CHIRP, (2, 5, 8),
                 id="chirp-complex-even-potential"),
    pytest.param(QuadraticHamiltonian.free_particle(1), "complex", CHIRP, (2, 5),
                 id="chirp-complex-potential"),
])
def test_powering_matches_matrix_power(grid, h, potential, method, n_values):
    # np.linalg.matrix_power of the unsymmetrized step is the reference of
    # _power_step and of the chirp steps' parity blocks plus edge terms
    # odd n reach the res @ z multiply; b != 0 squares with the general
    # product; a complex V makes |q| != 1 in the symmetrized step; a cosine
    # V with b = 0 takes the parity blocks (with the edge terms for CHIRP
    # from n = 2 on), the sine's odd part does not
    x = grid.axis()
    values = np.cos(2.0 * np.pi * x)
    if potential == "complex":
        values = values + 0.3j * np.sin(2.0 * np.pi * x)
    elif potential == "complex-even":
        values = values + 0.3j * np.cos(4.0 * np.pi * x)
    v = SampledField(grid, values)
    for n in n_values:
        sc = TrotterScenario(h, v, 1.0, (n,), grid, 4 * n)
        ref = matrix_power_kernel(sc, n, method)
        got = trotter_kernel(sc, n, method=method).entries
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def powered_shapes(monkeypatch):
    """The shapes of the steps _power_step is handed, recorded as it runs;
    the two parity blocks run side by side, so in either order."""
    shapes = []
    power = trotter._power_step

    def spy(z, *args, **kwargs):
        shapes.append(z.shape)
        return power(z, *args, **kwargs)

    monkeypatch.setattr(trotter, "_power_step", spy)
    return shapes


def test_even_potential_kernel_is_reflection_invariant(grid, monkeypatch):
    shapes = powered_shapes(monkeypatch)
    r = (-np.arange(grid.points)) % grid.points
    for n in (1, 5, 16):
        sc = TrotterScenario(QuadraticHamiltonian.harmonic(1), cosine_potential(grid),
                             1.0, (n,), grid, 4 * n)
        k = trotter_kernel(sc, n).entries
        assert np.array_equal(k, k[np.ix_(r, r)])
    half = grid.points // 2
    assert sorted(shapes) == sorted([(half + 1, half + 1), (half - 1, half - 1)] * 3)


FREE = QuadraticHamiltonian.free_particle(1)


@pytest.mark.parametrize("kernel", [
    pytest.param(lambda v: trotter_kernel(TrotterScenario(
        QuadraticHamiltonian.harmonic(1), v, 1.0, (8,), v.grid, 32), 8), id="spectral"),
    pytest.param(lambda v: trotter_kernel(TrotterScenario(FREE, v, 1.0, (8,), v.grid, 32),
                                          8, method=CHIRP), id="chirp"),
    pytest.param(lambda v: time_slice_free_kernel(v, 1.0, 8, v.grid), id="free-slice"),
])
def test_one_ulp_odd_part_takes_the_full_step(grid, monkeypatch, kernel):
    # an odd part of one ulp at one index is enough to leave the blocks,
    # and the full step agrees with the blocks of the even part to rounding
    even = cosine_potential(grid)
    values = even.values.copy()
    values[3] = np.nextafter(values[3].real, np.inf)
    shapes = powered_shapes(monkeypatch)
    full = kernel(SampledField(grid, values)).entries
    blocks = kernel(even).entries
    n = grid.points
    assert sorted(shapes) == sorted([(n, n), (n // 2 + 1, n // 2 + 1),
                                     (n // 2 - 1, n // 2 - 1)])
    assert np.max(np.abs(full - blocks)) < 1e-12 * np.max(np.abs(blocks))


@pytest.mark.parametrize("half_width,points", [(4.0, 64), (6.0, 128), (7.3, 256),
                                               (8.0, 256), (16.0, 1024)])
def test_free_steps_are_reflection_invariant_off_row_zero(half_width, points):
    # the parity blocks of the chirp steps need rows and columns >= 1 of the
    # CHIRP quadrature and of the analytic chirp to commute with R bit for
    # bit; row 0 does not, as x_0 = -L has no mirror
    grid = GridSpec(1, half_width, points)
    r = (-np.arange(points)) % points
    for tau in (1.0, 0.5, 1.0 / 3.0, 0.37, 1.0 / 7.0, 0.125, 2.0):
        for step in (propagator_for(FREE, tau, grid).kernel_entries(),
                     _kernels.free_chirp(grid.axis(), tau)):
            mirrored = step[np.ix_(r, r)]
            assert np.array_equal(mirrored[1:, 1:], step[1:, 1:])
            assert not np.array_equal(mirrored[0], step[0])


def test_free_steps_at_1024_points_match_matrix_power(monkeypatch):
    # the edge terms once at the kernel checks' size, for an odd n: the
    # analytic chirp step's blocks plus rank-2 edge against matrix_power
    grid = GridSpec(1, 16.0, 1024)
    v = cosine_potential(grid, freq=0.875)
    n, tau = 7, 1.0 / 7
    step = _kernels.free_chirp(grid.axis(), tau) * np.exp(-1j * tau * v.values)[None, :]
    ref = np.linalg.matrix_power(step * grid.cell, n) / grid.cell
    shapes = powered_shapes(monkeypatch)
    got = time_slice_free_kernel(v, 1.0, n, grid).entries
    assert sorted(shapes) == [(511, 511), (513, 513)]
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


BLOCK_KERNELS = [
    pytest.param(lambda v: trotter_kernel(TrotterScenario(
        QuadraticHamiltonian.harmonic(1), v, 1.0, (7,), v.grid, 28), 7), id="spectral"),
    pytest.param(lambda v: trotter_kernel(TrotterScenario(FREE, v, 1.0, (7,), v.grid, 28),
                                          7, method=CHIRP), id="chirp"),
    pytest.param(lambda v: time_slice_free_kernel(v, 1.0, 7, v.grid), id="free-slice"),
]


@pytest.mark.parametrize("kernel", BLOCK_KERNELS)
def test_side_by_side_blocks_change_no_bit(grid, monkeypatch, kernel):
    # each block makes the same BLAS calls into its own buffers on either
    # thread, so powering them one after the other gives the same bytes
    v = cosine_potential(grid)
    side_by_side = kernel(v).entries
    monkeypatch.setattr(trotter, "_side_by_side", lambda first, second: (first(), second()))
    assert np.array_equal(kernel(v).entries, side_by_side)


def test_worker_block_out_of_range_raises_in_caller(grid):
    # Im V = -920 off the fixed points 0 and N/2 underflows every entry of
    # the odd block, which powers on the second thread, while the even block
    # keeps rows 0 and N/2 and stays in range on the calling thread
    n = grid.points
    values = np.full(n, -920.0j)
    values[[0, n // 2]] = 0.0
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1), SampledField(grid, values),
                         1.0, (1,), grid, 4)
    (w, u), _ = _eig(sc.hamiltonian, grid)
    # the even block alone powers without an error
    trotter._power_step(trotter._block_step(w, u, 1.0), 1.0, values[:n // 2 + 1], 1,
                        symmetric=True)
    before = threading.active_count()
    with pytest.raises(ProplabError, match="leaves the float range"):
        trotter_kernel(sc, 1)
    assert threading.active_count() == before


def orbit_fold(mat):
    """The parity blocks of mat as four-term sums over the R-orbits of each
    row and column, gathered entry by entry, built apart from _fold: the
    even block d_i d_j ((M[i, j] + M[-i, j]) + (M[i, -j] + M[-i, -j])) with
    d = 1/2 at the fixed points 0 and N/2, and the odd block
    ((M[i, j] - M[-i, j]) - (M[i, -j] - M[-i, -j])) / 2, indices mod N."""
    n = len(mat)
    m = n // 2
    r = (-np.arange(n)) % n
    i = np.arange(m + 1)
    d = np.full(m + 1, np.sqrt(0.5))
    d[[0, m]] = 0.5
    even = ((mat[np.ix_(i, i)] + mat[np.ix_(r[i], i)])
            + (mat[np.ix_(i, r[i])] + mat[np.ix_(r[i], r[i])])) * (d[:, None] * d[None, :])
    k = i[1:m]
    odd = 0.5 * ((mat[np.ix_(k, k)] - mat[np.ix_(r[k], k)])
                 - (mat[np.ix_(k, r[k])] - mat[np.ix_(r[k], r[k])]))
    return even, odd


@pytest.mark.parametrize("half_width,points", [(2.0, 8), (4.0, 64), (6.0, 128),
                                               (7.3, 256), (8.0, 256), (16.0, 1024)])
def test_fold_is_the_orbit_sum(half_width, points):
    # _fold equals the four-term orbit sum bit for bit: for H, and for the
    # strided views of both free-chirp steps with row and column 0 of the
    # even block zeroed off the diagonal, the blocks _power_free powers
    grid = GridSpec(1, half_width, points)
    for h in (QuadraticHamiltonian.harmonic(1), FREE, QuadraticHamiltonian(1, 3.0, 0.0, 1.7)):
        mat = hamiltonian_matrix(h, grid)
        for got, ref in zip(_fold(mat), orbit_fold(mat)):
            assert np.array_equal(got, ref)
    for tau in (1.0, 0.5, 1.0 / 3.0, 0.37, 1.0 / 7.0, 0.125, 2.0):
        prop = propagator_for(FREE, tau, grid)
        chirp = _kernels.free_chirp(grid.axis(), tau)
        for step, row in ((prop.kernel_entries(), prop.kernel_row()),
                          (np.array(chirp), np.array(chirp[0]))):
            even, odd = _fold(_kernels.symmetric_toeplitz(row, points))
            ref_even, ref_odd = orbit_fold(step)
            for block in (even, ref_even):
                block[0, 1:] = 0.0
                block[1:, 0] = 0.0
            assert np.array_equal(even, ref_even)
            assert np.array_equal(odd, ref_odd)


@pytest.mark.parametrize("step", ["harmonic", "free-chirp"])
def test_fold_reads_only_the_top_half(grid, step):
    # the rows past N/2 mirror rows 1..N/2-1 of a reflection-invariant
    # matrix, so _fold never reads them: NaN there changes no bit
    if step == "harmonic":
        mat = hamiltonian_matrix(QuadraticHamiltonian.harmonic(1), grid)
    else:
        mat = np.array(_kernels.free_chirp(grid.axis(), 0.37))
    ref = _fold(mat)
    mat[grid.points // 2 + 1:] = np.nan
    for got, want in zip(_fold(mat), ref):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["harmonic-cos-t1.ini", "modbound-harmonic-cos.ini",
                                  "perturb-geometric.ini"])
def test_preset_potentials_are_even(name):
    # the presets' cosine sums sample to bitwise even arrays, so their
    # spectral kernels take the parity blocks
    cfg = Config(os.path.join(os.path.dirname(__file__), "..", "configs", name))
    grid = cfg.grid()
    v = cfg.potential(grid).values
    assert np.array_equal(v, v[(-np.arange(grid.points)) % grid.points])


def test_spectral_powering_memory_stays_small(traced_peak):
    # the blocks (4 MiB each at N = 1024) power side by side, squaring into
    # one 16 MiB buffer that then takes the unfolded kernel: measured
    # 24.8 MiB warm; the full step with one square was 32.0 MiB
    grid = GridSpec(1, 16.0, 1024)
    sc = TrotterScenario(QuadraticHamiltonian.harmonic(1), cosine_potential(grid),
                         1.0, (8,), grid, 32)
    trotter_kernel(sc, 8)
    assert traced_peak(lambda: trotter_kernel(sc, 8)) < 26


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
    # N = 1024 (measured peaks of the full step 40 and 32 MiB; the parity
    # blocks that both now take measure 25.2 MiB each)
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


@pytest.mark.parametrize("kernel", [
    pytest.param(lambda sc: trotter_kernel(sc, 8, method=CHIRP), id="chirp"),
    pytest.param(lambda sc: time_slice_free_kernel(sc.potential, 1.0, 8, sc.grid),
                 id="free-slice"),
])
def test_free_step_memory_stays_small(traced_peak, kernel):
    # no dense step: both parity blocks (8 MiB at N = 1024), written from
    # the step's first row, and one buffer of N^2 + 4 entries (16 MiB) that
    # takes their squares side by side and then the unfolded result:
    # measured 25.2 MiB; 25.8 MiB with the dense step folded, 32.0 MiB with
    # the full step and one square
    grid = GridSpec(1, 16.0, 1024)
    sc = TrotterScenario(FREE, cosine_potential(grid), 1.0, (8,), grid, 32)
    assert traced_peak(lambda: kernel(sc)) < 28


def test_exceptional_scan_memory_stays_small(traced_peak):
    # one scaled kernel (16 MiB at N = 1024) and its moduli (8 MiB) per
    # offset: measured 24.0 MiB, 32.0 MiB with an unscaled carrier alive
    grid = GridSpec(1, 16.0, 1024)
    peak = traced_peak(lambda: exceptional_blowup_scan(
        QuadraticHamiltonian.harmonic(1), np.pi, (0.2, 0.1, 0.05, 0.025), grid))
    assert peak < 26


def test_chirp_step_refuses_harmonic_hamiltonian(scenario):
    # powering the harmonic chirp quadrature diverges (sup 7.5e108 at n = 64)
    with pytest.raises(ValueError, match="free-particle"):
        trotter_kernel(scenario, 4, method=CHIRP)


def test_unknown_step_method_is_refused(scenario):
    with pytest.raises(ValueError, match="unknown step method"):
        trotter_kernel(scenario, 4, method="bogus")


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
