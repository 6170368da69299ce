"""Hot numeric kernels: dense chirp assembly and Fourier mode sums."""

import numpy as np

TWO_PI = 2.0 * np.pi


def chirp_kernel(x, y, m_xx, m_xy, m_yy):
    """exp(2*pi*i*Phi(x_i, y_j)) for Phi = (1/2)Mxx x^2 - Mxy x y + (1/2)Myy y^2,
    with 1D axes x, y and scalar coefficients."""
    qx = 0.5 * (x * m_xx * x)
    qy = 0.5 * (y * m_yy * y)
    cross = (y * m_xy)[None, :] * x[:, None]
    return np.exp(1j * TWO_PI * (qx[:, None] - cross + qy[None, :]))


def eval_fourier_modes(coeffs, freqs, pts):
    """sum_q c_q exp(2*pi*i*freqs_q . pts_i) at arbitrary points."""
    pts = np.ascontiguousarray(pts, dtype=float)
    freqs = np.ascontiguousarray(freqs, dtype=float)
    coeffs = np.ascontiguousarray(coeffs, dtype=complex)
    return np.exp(1j * TWO_PI * (pts @ freqs.T)) @ coeffs
