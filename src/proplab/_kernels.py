"""Hot numeric kernels: the Toeplitz-factored chirp carrier, the FFT product
with a symmetric Toeplitz matrix and Fourier mode sums."""

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


def symmetric_toeplitz(row, n):
    """The leading n x n block of the symmetric Toeplitz matrix with first
    row `row`, T[i, j] = row[|i - j|], a read-only strided view: no copy."""
    return toeplitz(np.concatenate((row[n - 1:0:-1], row[:n])), n)


def chirp_factors(x, y, m_xx, m_xy, m_yy):
    """The factors a, t, b of the carrier exp(2*pi*i*Phi(x_i, y_j)) =
    a_i T[i, j] b_j, for Phi = (1/2)Mxx x^2 - Mxy x y + (1/2)Myy y^2, with 1D
    axes x, y of one spacing and scalar coefficients.

    Phi = (1/2)(Mxx - Mxy) x^2 + (1/2)Mxy (x - y)^2 + (1/2)(Myy - Mxy) y^2, and
    x_i - y_j depends on i - j only when both axes share one spacing, so T =
    toeplitz(t, len(y)) is a Toeplitz chirp in x - y, t its 2N - 1 diagonals
    over axis_differences(x, y); a and b are the row and column chirps.
    """
    return (_unit_chirp(m_xx - m_xy, x), _unit_chirp(m_xy, axis_differences(x, y)),
            _unit_chirp(m_yy - m_xy, y))


def chirp_kernel(x, y, m_xx, m_xy, m_yy):
    """The dense carrier diag(a) T diag(b) of chirp_factors, 3N - 1
    exponentials in all.  With x = y and Mxx = Myy it is symmetric; with
    Mxx = Mxy = Myy as well (a free flow) a = b = 1 and it equals its
    transpose bit for bit."""
    a, t, b = chirp_factors(x, y, m_xx, m_xy, m_yy)
    out = a[:, None] * toeplitz(t, len(y))
    out *= b
    return out


def _unit_chirp(m, u):
    """exp(i*pi*m*u^2), with pi*m formed first: of the orderings tried this
    one rounds the large phases least."""
    return np.exp(1j * ((np.pi * m) * (u * u)))


def toeplitz_product(row, x):
    """T x along the last axis of x, T the N x N symmetric Toeplitz matrix
    with first row t = row, through T's circulant embedding of size 2N:
    c = [t_0, ..., t_{N-1}, 0, t_{N-1}, ..., t_1], T x = ifft(fft(c) fft(x))[:N]
    with x padded to 2N, transformed in place in one 2N-padded buffer."""
    size = len(row)
    buf = np.zeros(x.shape[:-1] + (2 * size,), dtype=complex)
    buf[..., :size] = x
    np.fft.fft(buf, axis=-1, out=buf)
    np.multiply(np.fft.fft(np.concatenate((row, [0.0], row[:0:-1]))), buf, out=buf)
    return np.fft.ifft(buf, axis=-1, out=buf)[..., :size]


def free_chirp(x, tau):
    """The analytic free one-step kernel (2*pi*i*tau)^(-1/2) exp(i(x - y)^2 / (2 tau))
    on the x-by-x mesh of a uniform axis: a Toeplitz matrix of 2N - 1
    exponentials, equal to its transpose bit for bit, as a read-only view.
    Written apart from chirp_kernel, the carrier it is an oracle for; only
    the gather is shared."""
    d = axis_differences(x, x)
    return toeplitz(np.exp(1j * (d * d) / (2.0 * tau)) / np.sqrt(2j * np.pi * tau),
                    len(x))


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
