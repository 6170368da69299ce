"""Hot numeric kernels: dense chirp assembly and Fourier mode sums."""

import numpy as np

TWO_PI = 2.0 * np.pi


def chirp_kernel(xpts, ypts, m_xx, m_xy, m_yy):
    """exp(2*pi*i*Phi(x_i, y_j)) for Phi = (1/2)x.Mxx x - y.Mxy x + (1/2)y.Myy y."""
    xpts = np.ascontiguousarray(xpts, dtype=float)
    ypts = np.ascontiguousarray(ypts, dtype=float)
    qx = 0.5 * np.einsum("ia,ab,ib->i", xpts, m_xx, xpts)
    qy = 0.5 * np.einsum("ja,ab,jb->j", ypts, m_yy, ypts)
    cross = np.einsum("ja,ab,ib->ij", ypts, m_xy, xpts)
    return np.exp(1j * TWO_PI * (qx[:, None] - cross + qy[None, :]))


def eval_fourier_modes(coeffs, freqs, pts):
    """sum_q c_q exp(2*pi*i*freqs_q . pts_i) at arbitrary points."""
    pts = np.ascontiguousarray(pts, dtype=float)
    freqs = np.ascontiguousarray(freqs, dtype=float)
    coeffs = np.ascontiguousarray(coeffs, dtype=complex)
    return np.exp(1j * TWO_PI * (pts @ freqs.T)) @ coeffs
