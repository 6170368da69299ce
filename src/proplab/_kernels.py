"""Hot numeric kernels: the Toeplitz-factored chirp carrier, the chirp-Z
transform and Fourier mode sums."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TWO_PI = 2.0 * np.pi


def axis_differences(x, y):
    """The len(x) + len(y) - 1 differences x_0 - y_{N-1}, ..., x_0 - y_0, ...,
    x_{N-1} - y_0, one per diagonal i - j of the x-by-y mesh, in order."""
    return np.concatenate((x[0] - y[::-1], x[1:] - y[0]))


def toeplitz(diagonals, n_cols):
    """The (len(diagonals) - n_cols + 1, n_cols) matrix T[i, j] =
    diagonals[i - j + n_cols - 1], a read-only strided view: no copy."""
    return sliding_window_view(diagonals, n_cols)[:, ::-1]


def chirp_kernel(x, y, m_xx, m_xy, m_yy):
    """exp(2*pi*i*Phi(x_i, y_j)) for Phi = (1/2)Mxx x^2 - Mxy x y + (1/2)Myy y^2,
    with 1D axes x, y of one spacing and scalar coefficients.

    Phi = (1/2)(Mxx - Mxy) x^2 + (1/2)Mxy (x - y)^2 + (1/2)(Myy - Mxy) y^2, and
    x_i - y_j depends on i - j only when both axes share one spacing, so the
    carrier is diag(a) T diag(b): a row chirp, a Toeplitz chirp gathered from
    its 2N - 1 diagonals and a column chirp, 3N - 1 exponentials in all.
    With x = y and Mxx = Myy it is symmetric; with Mxx = Mxy = Myy as well
    (a free flow) a = b = 1 and it equals its transpose bit for bit.
    """
    d = axis_differences(x, y)
    out = _unit_chirp(m_xx - m_xy, x)[:, None] * toeplitz(_unit_chirp(m_xy, d), len(y))
    out *= _unit_chirp(m_yy - m_xy, y)
    return out


def _unit_chirp(m, u):
    """exp(i*pi*m*u^2), with pi*m formed first: of the orderings tried this
    one rounds the large phases least."""
    return np.exp(1j * ((np.pi * m) * (u * u)))


def free_chirp(x, tau):
    """The analytic free one-step kernel (2*pi*i*tau)^(-1/2) exp(i(x - y)^2 / (2 tau))
    on the x-by-x mesh of a uniform axis: a Toeplitz matrix of 2N - 1
    exponentials, equal to its transpose bit for bit, as a read-only view.
    Written apart from chirp_kernel, the carrier it is an oracle for; only
    the gather is shared."""
    d = axis_differences(x, x)
    return toeplitz(np.exp(1j * (d * d) / (2.0 * tau)) / np.sqrt(2j * np.pi * tau),
                    len(x))


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
