"""Hot numeric kernels: dense chirp assembly, the chirp-Z transform and
Fourier mode sums."""

import numpy as np

TWO_PI = 2.0 * np.pi


def chirp_kernel(x, y, m_xx, m_xy, m_yy):
    """exp(2*pi*i*Phi(x_i, y_j)) for Phi = (1/2)Mxx x^2 - Mxy x y + (1/2)Myy y^2,
    with 1D axes x, y and scalar coefficients."""
    qx = 0.5 * (x * m_xx * x)
    qy = 0.5 * (y * m_yy * y)
    cross = (y * m_xy)[None, :] * x[:, None]
    return np.exp(1j * TWO_PI * (qx[:, None] - cross + qy[None, :]))


def chirp_z(cols, theta0, dtheta):
    """sum_j cols[j] exp(-2*pi*i j (theta0 + k dtheta)) for k < N, along axis 0
    of (N, m) columns, by Bluestein's algorithm.

    With jk = (j^2 + k^2 - (k - j)^2) / 2 the sum is the chirp
    exp(-pi*i dtheta k^2) times the convolution of the pre-chirped columns
    with exp(pi*i dtheta l^2), |l| < N; the chirps and the filter spectrum
    are built once per call and shared by all columns.
    """
    n = cols.shape[0]
    nfft = 1 << (2 * n - 2).bit_length()  # a power of two >= 2N - 1
    k = np.arange(n)
    chirp = np.exp(-1j * np.pi * dtheta * (k * k))
    filt = np.zeros(nfft, dtype=complex)
    filt[:n] = chirp.conj()
    filt[nfft - n + 1:] = chirp[:0:-1].conj()
    pre = np.exp(-1j * TWO_PI * theta0 * k) * chirp
    # transform along the contiguous last axis of the transposed columns:
    # numpy's FFT along a strided axis 0 is about twice as slow
    buf = np.fft.fft(np.multiply(cols.T, pre, order="C"), nfft, axis=1)
    buf *= np.fft.fft(filt)
    np.fft.ifft(buf, axis=1, out=buf)
    return (buf[:, :n] * chirp).T


def eval_fourier_modes(coeffs, freqs, u, v):
    """sum_q c_q exp(2*pi*i*(f_q0 u_i + f_q1 v_j)) on the product mesh u x v.

    Each exponential factors over the two axes, so the (len(u), len(v)) sum
    is one matrix product (E_u * c) @ E_v^T of two axis-by-modes factors,
    E_u[i, q] = exp(2*pi*i f_q0 u_i); no points-by-modes matrix is formed.
    """
    freqs = np.asarray(freqs, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    e_u = np.exp(1j * TWO_PI * u[:, None] * freqs[None, :, 0])
    e_v = np.exp(1j * TWO_PI * v[:, None] * freqs[None, :, 1])
    return (e_u * np.asarray(coeffs, dtype=complex)) @ e_v.T
