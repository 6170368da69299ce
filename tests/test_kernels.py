import numpy as np
import pytest

from proplab import GridSpec, QuadraticHamiltonian, flow, phase_form
from proplab._kernels import (axis_differences, chirp_kernel, free_chirp, symmetric_toeplitz,
                              toeplitz)

GRID = GridSpec(1, 16.0, 1024)


def direct_carrier_mod_one(x, y, m_xx, m_xy, m_yy):
    """e^{2 pi i Phi} with Phi formed in long double and reduced mod 1 before
    the exponential: the rounding of the large phases drops out."""
    xs = np.asarray(x, dtype=np.longdouble)[:, None]
    ys = np.asarray(y, dtype=np.longdouble)[None, :]
    a, b, c = (np.longdouble(m) for m in (m_xx, m_xy, m_yy))
    phi = 0.5 * a * xs * xs - b * xs * ys + 0.5 * c * ys * ys
    return np.exp(2j * np.pi * (phi - np.floor(phi)).astype(float))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the reference needs an extended long double")
@pytest.mark.parametrize("offset", [0, 3], ids=["y=x", "y=x+3h"])
@pytest.mark.parametrize("t, bound", [(1.0, 5e-13), (np.pi - 0.025, 3.5e-11)],
                         ids=["t=1", "near-pi"])
def test_chirp_kernel_accuracy(t, bound, offset):
    # measured 3.5e-13 and 3.0e-11 on both axis pairs; the direct N^2 formula
    # exp(2 pi i (qx - cross + qy)) measured 8.3e-13 and 4.0e-11 here
    x = GRID.axis()
    y = x + offset * GRID.cell
    coeffs = phase_form(flow(QuadraticHamiltonian.harmonic(1), t)).coefficients()
    err = np.max(np.abs(chirp_kernel(x, y, *coeffs) - direct_carrier_mod_one(x, y, *coeffs)))
    assert err <= bound


def test_toeplitz_gather_indexes_diagonals():
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([0.5, 1.5, 2.5, 3.5])
    t = toeplitz(axis_differences(x, y), len(y))
    assert np.array_equal(t, x[:, None] - y[None, :])


def test_symmetric_toeplitz_gathers_leading_blocks():
    row = np.arange(6.0) ** 2
    i = np.arange(6)
    for n in (1, 2, 5, 6):
        assert np.array_equal(symmetric_toeplitz(row, n),
                              row[np.abs(i[:n, None] - i[None, :n])])


@pytest.mark.parametrize("tau", [0.125, -1.0])
def test_free_chirp_is_the_closed_form(tau):
    x = GridSpec(1, 12.0, 512).axis()
    direct = np.exp(1j * (x[:, None] - x[None, :]) ** 2 / (2.0 * tau)) \
        / np.sqrt(2j * np.pi * tau)
    k = free_chirp(x, tau)
    assert np.array_equal(k, k.T)
    assert np.max(np.abs(k - direct)) < 1e-12
