import numpy as np
import pytest

from proplab import (NotFree, QuadraticHamiltonian, SymplecticBlocks, flow,
                     is_free, phase_form)
from proplab._kernels import chirp_kernel
from proplab.rng import SplitMix64

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def random_hamiltonian(rng):
    a, b, c = rng.normals(3)
    return QuadraticHamiltonian(1, a, b, c)


def generator(h):
    return np.array([[h.b, h.c], [-h.a, -h.b]])


def test_generator_in_sp():
    # the flow's velocity at t = 0 is G / 2pi with G = [[b, c], [-a, -b]],
    # and J G must be symmetric for every quadratic symbol
    rng = SplitMix64(3)
    eps = 1e-5
    for _ in range(20):
        h = random_hamiltonian(rng)
        g = (flow(h, eps).matrix() - flow(h, -eps).matrix()) * (np.pi / eps)
        assert np.max(np.abs(g - generator(h))) < 1e-8
        jg = J @ g
        assert np.allclose(jg, jg.T, atol=1e-8)


def expm_taylor(g):
    """exp(g) by scaling and squaring: a degree-20 Taylor sum of g / 2^k
    with |g / 2^k| <= 1/16, squared k times."""
    norm = np.max(np.sum(np.abs(g), axis=1))
    k = max(0, int(np.ceil(np.log2(norm))) + 4) if norm > 0 else 0
    m = g / 2.0**k
    term = np.eye(2)
    total = np.eye(2)
    for j in range(1, 21):
        term = term @ m / j
        total = total + term
    for _ in range(k):
        total = total @ total
    return total


@pytest.mark.parametrize("h", [
    QuadraticHamiltonian.harmonic(1),
    QuadraticHamiltonian(1, 1.3, 0.4, -1.3),
    QuadraticHamiltonian.free_particle(1),
], ids=["elliptic", "hyperbolic", "parabolic"])
def test_closed_form_flow_matches_taylor_reference(h):
    for t in (-7.5, -1.0, 0.0, 0.3, 2.0, 9.0):
        ref = expm_taylor((t / (2.0 * np.pi)) * generator(h))
        got = flow(h, t).matrix()
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_flow_symplectic_random():
    rng = SplitMix64(11)
    for _ in range(50):
        h = random_hamiltonian(rng)
        t = 20.0 * rng.uniform() - 10.0
        m = flow(h, t).matrix()
        assert np.max(np.abs(m.T @ J @ m - J)) < 1e-10


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
    assert abs(s.b - 2.0 * np.pi * 0.35) < 1e-13
    assert abs(s.a - 1.0) < 1e-14
    assert abs(s.c) < 1e-14


def test_phase_form_symmetry_and_values():
    h = QuadraticHamiltonian.harmonic(1)
    phi = phase_form(flow(h, 1.0))
    # Phi(x,y) = (cos t (x^2 + y^2) - 2xy) / (2 sin t)
    ct, st = np.cos(1.0), np.sin(1.0)
    assert abs(phi.m_xx - ct / st) < 1e-12
    assert abs(phi.m_xy - 1.0 / st) < 1e-12
    assert abs(phi.m_yy - ct / st) < 1e-12
    # the grid carrier at (x, y) = (0.4, -1.1) is e^{2 pi i Phi} of that value
    val = (ct * (0.4**2 + 1.1**2) - 2 * 0.4 * (-1.1)) / (2 * st)
    carrier = chirp_kernel(np.array([0.4]), np.array([-1.1]), *phi.coefficients())
    assert abs(carrier[0, 0] - np.exp(2j * np.pi * val)) < 1e-12


def test_phase_form_refuses_exceptional():
    h = QuadraticHamiltonian.harmonic(1)
    with pytest.raises(NotFree):
        phase_form(flow(h, np.pi))


def test_only_one_dimension_is_accepted():
    with pytest.raises(ValueError):
        QuadraticHamiltonian.harmonic(2)


def test_is_free_reports_det():
    assert not is_free(SymplecticBlocks(1.0, 0.0, 0.0, 1.0))


def test_compose_blocks():
    # the group law A_0.3 A_0.4 = A_0.7 on the block matrices
    h = QuadraticHamiltonian.harmonic(1)
    s = flow(h, 0.3).matrix() @ flow(h, 0.4).matrix()
    assert np.allclose(s, flow(h, 0.7).matrix(), atol=1e-13)


def test_symplectic_check_scales_with_entries():
    # det - 1 rounds with the size of a d and b c: a flow with entries near
    # 1e5 must still pass, while a non-symplectic or overflowed matrix fails
    h = QuadraticHamiltonian(1, 1.3, 0.4, -1.3)
    assert np.max(np.abs(flow(h, 60.0).matrix())) > 1e5
    with pytest.raises(ValueError):
        SymplecticBlocks(2.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        SymplecticBlocks(np.inf, 1.0, 1.0, np.inf)   # det = inf - inf = nan
