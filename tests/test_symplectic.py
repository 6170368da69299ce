import numpy as np
import pytest

from proplab import (DimensionUnsupported, NotFree, QuadraticHamiltonian,
                     SymplecticBlocks, canonical_j, exceptional_times, flow,
                     is_free, lie_generator, phase_form)
from proplab.rng import SplitMix64


def random_hamiltonian(rng, d=1):
    a = rng.normals(d * d).reshape(d, d)
    c = rng.normals(d * d).reshape(d, d)
    b = rng.normals(d * d).reshape(d, d)
    return QuadraticHamiltonian(d, 0.5 * (a + a.T), b, 0.5 * (c + c.T))


def test_generator_in_sp():
    # J G must be symmetric for every quadratic symbol
    rng = SplitMix64(3)
    j = canonical_j(1)
    for _ in range(20):
        g = lie_generator(random_hamiltonian(rng))
        jg = j @ g
        assert np.allclose(jg, jg.T, atol=1e-14)


def test_flow_symplectic_random():
    rng = SplitMix64(11)
    j = canonical_j(1)
    for _ in range(50):
        h = random_hamiltonian(rng)
        t = 20.0 * rng.uniform() - 10.0
        m = flow(h, t).matrix()
        assert np.max(np.abs(m.T @ j @ m - j)) < 1e-10


def test_flow_group_law_and_inverse():
    rng = SplitMix64(12)
    for _ in range(50):
        h = random_hamiltonian(rng)
        t = 20.0 * rng.uniform() - 10.0
        m = flow(h, t).matrix()
        half = flow(h, 0.5 * t).matrix()
        assert np.max(np.abs(half @ half - m)) < 1e-8
        assert np.max(np.abs(flow(h, -t).matrix() @ m - np.eye(2))) < 1e-10


def test_harmonic_flow_is_rotation():
    h = QuadraticHamiltonian.harmonic(1)
    s = flow(h, 0.7)
    expected = np.array([[np.cos(0.7), np.sin(0.7)],
                         [-np.sin(0.7), np.cos(0.7)]])
    assert np.allclose(s.matrix(), expected, atol=1e-14)


def test_free_particle_flow_is_shear():
    # B_t = 2 pi t in these conventions
    h = QuadraticHamiltonian.free_particle(1)
    s = flow(h, 0.35)
    assert abs(s.block_b[0, 0] - 2.0 * np.pi * 0.35) < 1e-13
    assert abs(s.block_a[0, 0] - 1.0) < 1e-14
    assert abs(s.block_c[0, 0]) < 1e-14


def test_phase_form_symmetry_and_values():
    h = QuadraticHamiltonian.harmonic(1)
    phi = phase_form(flow(h, 1.0))
    # Phi(x,y) = (cos t (x^2 + y^2) - 2xy) / (2 sin t)
    ct, st = np.cos(1.0), np.sin(1.0)
    assert abs(phi.m_xx[0, 0] - ct / st) < 1e-12
    assert abs(phi.m_xy[0, 0] - 1.0 / st) < 1e-12
    assert abs(phi.m_yy[0, 0] - ct / st) < 1e-12
    x = np.array([0.4])
    y = np.array([-1.1])
    val = (ct * (0.4**2 + 1.1**2) - 2 * 0.4 * (-1.1)) / (2 * st)
    assert abs(phi(x, y) - val) < 1e-12


def test_phase_form_refuses_exceptional():
    h = QuadraticHamiltonian.harmonic(1)
    with pytest.raises(NotFree):
        phase_form(flow(h, np.pi))


def test_only_one_dimension_is_accepted():
    with pytest.raises(DimensionUnsupported):
        QuadraticHamiltonian.harmonic(2)
    with pytest.raises(DimensionUnsupported):
        SymplecticBlocks.identity(2)


def test_is_free_reports_det():
    s = SymplecticBlocks.identity(1)
    free, det_b = is_free(s)
    assert not free and det_b == 0.0


def test_exceptional_times_harmonic():
    h = QuadraticHamiltonian.harmonic(1)
    intervals = exceptional_times(h, (0.1, 7.0), 0.05)
    centers = [0.5 * (lo + hi) for lo, hi in intervals]
    assert len(centers) == 2
    assert abs(centers[0] - np.pi) < 1e-6
    assert abs(centers[1] - 2 * np.pi) < 1e-6


def test_exceptional_times_free_particle_none():
    h = QuadraticHamiltonian.free_particle(1)
    assert exceptional_times(h, (0.1, 10.0), 0.1) == []


def test_compose_blocks():
    h = QuadraticHamiltonian.harmonic(1)
    s = flow(h, 0.3).compose(flow(h, 0.4))
    assert np.allclose(s.matrix(), flow(h, 0.7).matrix(), atol=1e-13)
