import numpy as np
import pytest

from proplab import (EpsilonTooSmall, INF_1, INF_S, GridSpec,
                     KernelMatrix, MeasurePotential, SampledField, StftSpec,
                     default_window, dft, kernel_mod_norm, measure_norm_bound,
                     measure_potential_field, mod_norm, sjostrand_decompose, stft,
                     stft_adjoint, wigner)
from proplab.tfa import _lattice_norm, cross_ambiguity_l1, frequency_profile
from proplab.trotter import KERNEL_LATTICE_STEP, _kernel_lattice_stft
from proplab.rng import SplitMix64


@pytest.fixture
def spec(grid):
    return StftSpec(default_window(grid))


def band_limited(grid, seed, band):
    rng = SplitMix64(seed)
    n = grid.points
    sv = np.zeros(n, dtype=complex)
    sv[n // 2 - band: n // 2 + band] = (rng.normals(2 * band)
                                        + 1j * rng.normals(2 * band))
    return dft(SampledField(grid, sv), +1)


def test_window_is_normalized(grid):
    assert abs(default_window(grid).norm2() - 1.0) < 1e-12


def test_stft_inversion(grid, spec):
    f = band_limited(grid, 2, 12)
    rec = stft_adjoint(stft(f, spec), spec)
    rel = np.linalg.norm(rec.values - f.values) / np.linalg.norm(f.values)
    assert rel < 1e-12


def test_stft_inversion_coarse_lattice(grid):
    # lattice density only rescales the frame constant, inversion survives
    coarse = StftSpec(default_window(grid), 2)
    f = band_limited(grid, 3, 10)
    rec = stft_adjoint(stft(f, coarse), coarse)
    ratio = rec.values[60:196] / f.values[60:196]
    # the adjoint is off by one constant, the stride-2 lattice's frame constant
    assert np.max(np.abs(ratio - ratio[0])) < 1e-8


def test_mod_norm_scaling_homogeneity(grid, spec):
    f = band_limited(grid, 4, 8)
    g2 = SampledField(grid, 3.0 * f.values)
    for kind in (INF_1, INF_S):
        assert mod_norm(g2, spec, kind) == pytest.approx(
            3.0 * mod_norm(f, spec, kind), rel=1e-12)


def test_mod_norm_triangle(grid, spec):
    f = band_limited(grid, 5, 8)
    g2 = band_limited(grid, 6, 8)
    s = SampledField(grid, f.values + g2.values)
    assert mod_norm(s, spec, INF_1) <= (mod_norm(f, spec, INF_1)
                                        + mod_norm(g2, spec, INF_1)) * (1 + 1e-12)


def test_inf1_dominates_sup(grid, spec):
    # |f|_inf <= |f|_{M^{infty,1}} up to the frame constant of the window
    f = band_limited(grid, 7, 6)
    sup_f = float(np.max(np.abs(f.values)))
    assert mod_norm(f, spec, INF_1) >= 0.2 * sup_f


def wide_window(grid):
    w2 = SampledField(grid, np.exp(-np.pi * (grid.axis() / 1.4) ** 2))
    return SampledField(grid, w2.values / w2.norm2())


def direct_stft(f, spec):
    """V_g f(x_p, xi_k) = h sum_j f(x_j) conj(g(x_j - x_p)) e^{-2 pi i x_j xi_k}
    as a plain sum against the exponential matrix, one lattice position at a
    time, with the window translated periodically by np.roll."""
    g = spec.grid
    n = g.points
    x = g.axis()
    xi = g.freq_axis()[:: spec.lattice_step]
    expo = np.exp(-2j * np.pi * np.outer(x, xi))
    rows = [(f.values * np.conj(np.roll(spec.window.values, p - n // 2))) @ expo
            for p in range(0, n, spec.lattice_step)]
    return np.array(rows) * g.cell


def rel_err(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))
                 / np.max(np.abs(np.asarray(b))))


STFT_CASES = [(1, False), (2, False), (4, False), (8, False), (4, True)]
STFT_IDS = [f"steps{i}-{wide}" for i, (_, wide) in enumerate(STFT_CASES)]


@pytest.mark.parametrize("step,wide", STFT_CASES, ids=STFT_IDS)
def test_stft_matches_direct_sum(grid, step, wide):
    window = wide_window(grid) if wide else default_window(grid)
    spec = StftSpec(window, step)
    f = band_limited(grid, 30, 40)
    ref = direct_stft(f, spec)
    assert rel_err(stft(f, spec).values, ref) < 1e-12
    xi = spec.xi_axis()
    mag = np.abs(ref)
    profile = np.max(mag, axis=0)
    assert rel_err(frequency_profile(f, spec), profile) < 1e-12
    assert mod_norm(f, spec, INF_1) == pytest.approx(
        np.sum(profile) * spec.xi_cell, rel=1e-12)
    assert mod_norm(f, spec, INF_S, exponent=1.5) == pytest.approx(
        np.max(mag * (1.0 + np.abs(xi)) ** 1.5), rel=1e-12)
    assert cross_ambiguity_l1(spec) == pytest.approx(
        np.sum(np.abs(direct_stft(window, spec))) * spec.x_cell * spec.xi_cell,
        rel=1e-12)
    # adjoint: sum over the lattice of F(x_p, xi_k) e^{2 pi i xi_k y} g(y - x_p)
    n = grid.points
    synth = ref @ np.exp(2j * np.pi * np.outer(xi, grid.axis()))
    wins = np.array([np.roll(window.values, p - n // 2)
                     for p in range(0, n, spec.lattice_step)])
    adj = np.sum(synth * wins, axis=0) * spec.x_cell * spec.xi_cell
    assert rel_err(stft_adjoint(stft(f, spec), spec).values, adj) < 1e-12


def test_kernel_mod_norm_matches_direct_2d_sum():
    # the separable two-pass estimator against the 2d STFT summed directly
    # with the 2d Gaussian window exp(-pi (x^2 + y^2))
    g = GridSpec(1, 4.0, 64)
    n, step = 64, KERNEL_LATTICE_STEP
    rng = SplitMix64(31)
    entries = (rng.normals(n * n) + 1j * rng.normals(n * n)).reshape(n, n)
    x = g.axis()
    w2 = np.exp(-np.pi * (x[:, None] ** 2 + x[None, :] ** 2))
    w2 /= np.sqrt(np.sum(w2 ** 2) * g.cell ** 2)
    xi = g.freq_axis()[::step]
    expo = np.exp(-2j * np.pi * np.outer(x, xi))
    v = np.empty((n // step,) * 4, dtype=complex)
    for a, p in enumerate(range(0, n, step)):
        for b, q in enumerate(range(0, n, step)):
            win = np.roll(w2, (p - n // 2, q - n // 2), axis=(0, 1))
            v[a, b] = expo.T @ (entries * win) @ expo * g.cell ** 2
    mag = np.abs(v)
    cell = (step * g.freq_cell) ** 2
    radii = np.sqrt(xi[:, None] ** 2 + xi[None, :] ** 2)
    k = KernelMatrix(g, entries)
    assert kernel_mod_norm(k) == pytest.approx(
        np.sum(np.max(mag, axis=(0, 1))) * cell, rel=1e-12)
    assert _lattice_norm(*_kernel_lattice_stft(k), INF_S, 2.5) == pytest.approx(
        np.max(mag * (1.0 + radii) ** 2.5), rel=1e-12)


def test_stft_spec_rejects_single_frequency(grid):
    with pytest.raises(ValueError):
        StftSpec(default_window(grid), grid.points)


def test_window_comparability(grid):
    # two admissible windows give equivalent Inf1 norms on a small corpus
    w2 = wide_window(grid)
    s1 = StftSpec(default_window(grid))
    s2 = StftSpec(w2)
    ratios = []
    for seed in range(5):
        f = band_limited(grid, 20 + seed, 10)
        ratios.append(mod_norm(f, s1, INF_1) / mod_norm(f, s2, INF_1))
    assert max(ratios) / min(ratios) < 1.5
    assert all(0.2 < r < 5.0 for r in ratios)


def test_frequency_profile_peaks_at_content(grid, spec):
    x = grid.axis()
    f = SampledField(grid, np.exp(2j * np.pi * 3.0 * x))
    prof = frequency_profile(f, spec)
    xi = spec.xi_axis()
    peak = xi[int(np.argmax(prof))]
    assert abs(peak - 3.0) < 2.0 * grid.freq_cell


def test_wigner_marginal(grid, packet):
    # integrating W(f,f) over xi returns |f|^2
    w = wigner(packet, packet)
    marg = np.sum(w.values, axis=1) * grid.freq_cell
    assert np.max(np.abs(marg - np.abs(packet.values) ** 2)) < 1e-10


def test_wigner_sesquilinearity(grid, packet):
    g2 = SampledField(grid, (2.0 - 1.0j) * packet.values)
    w1 = wigner(packet, g2)
    w2 = wigner(packet, packet)
    assert np.max(np.abs(w1.values - np.conj(2.0 - 1.0j) * w2.values)) < 1e-10


def test_sjostrand_split_norm_budget(grid, spec):
    x = grid.axis()
    v = SampledField(grid, np.cos(2.0 * np.pi * x)
                     + 0.3 * np.cos(2.0 * np.pi * 3.0 * x))
    for eps in (0.2, 0.1, 0.05):
        f1, f2, r = sjostrand_decompose(v, eps, spec)
        assert mod_norm(f2, spec, INF_1) <= eps
        assert np.max(np.abs(f1.values + f2.values - v.values)) < 1e-12
        assert r >= 0.0


def test_sjostrand_band_limitation(grid, spec):
    x = grid.axis()
    v = SampledField(grid, np.cos(2.0 * np.pi * x)
                     + 0.3 * np.cos(2.0 * np.pi * 3.0 * x))
    f1, _f2, r = sjostrand_decompose(v, 0.1, spec)
    prof = frequency_profile(f1, spec)
    xi = np.abs(spec.xi_axis())
    leak = np.sum(prof[xi > r + 2.0]) / np.sum(prof)
    assert leak < 1e-6


def test_sjostrand_rejects_hopeless_budget(grid, spec):
    x = grid.axis()
    v = SampledField(grid, np.cos(2.0 * np.pi * x))
    with pytest.raises(EpsilonTooSmall):
        sjostrand_decompose(v, 0.0, spec)


def test_sjostrand_zero_field(grid, spec):
    z = SampledField(grid, np.zeros(grid.points))
    f1, f2, r = sjostrand_decompose(z, 0.1, spec)
    assert np.all(f1.values == 0.0) and np.all(f2.values == 0.0)


def test_cross_ambiguity_positive(grid, spec):
    assert cross_ambiguity_l1(spec) > 1.0


def test_measure_potential_bound_random_sets(grid, spec):
    rng = SplitMix64(9)
    for _ in range(10):
        count = 2 + int(rng.uniform() * 4)
        atoms = tuple((round(float(rng.uniform() * 4 - 2) * 16) / 16,
                       complex(rng.normals(1)[0], rng.normals(1)[0]))
                      for _ in range(count))
        p = MeasurePotential(atoms)
        lhs, rhs = measure_norm_bound(p, spec)
        assert lhs <= rhs * 1.05


def test_measure_potential_field_values(grid):
    p = MeasurePotential(((1.0, 1.0 + 0.0j), (-1.0, 1.0 + 0.0j)))
    f = measure_potential_field(p, grid)
    x = grid.axis()
    assert np.max(np.abs(f.values - 2.0 * np.cos(2.0 * np.pi * x))) < 1e-12
    assert p.total_variation == pytest.approx(2.0)
