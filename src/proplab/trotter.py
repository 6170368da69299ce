"""Product-formula approximants for exp(-it(H0 + V)) with quadratic H0 and a
bounded (possibly complex) potential V, their kernels, reference runs, and the
diagnostics used by the experiment layer.

The approximant is E_n(t) = (exp(-i(t/n)H0) exp(-i(t/n)V))^n, realized on the
grid as n alternations of a pointwise potential phase with the metaplectic
step kernel.  The n-step kernel is assembled by binary powering of the
Strang-conjugated step diag(q) K diag(q), q = exp(-i(t/n)V/2), which equals
the n-fold product of K diag(q^2) once the outer factors of q are undone.
That step is complex symmetric whenever the kinetic matrix K is, as it is
for a symbol with no cross term, so every squaring is a z @ z.T product.
Without a cross term the grid H0 also commutes with the reflection
x_j -> -x_j, so its eigendecomposition and K come in an even and an odd
block; when V is even as well, the step is powered block by block, two
half-size matrices instead of one N x N, side by side on two threads, and
the blocks are built and unfolded on the calling thread.  The free chirp
steps commute with the reflection except in row and column 0, as x_0 = -L
has no mirror; with an even V they are powered as the blocks of their
reflection-invariant part, folded from a strided view of the step's first
row, plus an exact rank-2 edge term, so the free step is never dense.
Each block makes the same BLAS calls as it would alone, into buffers of its
own, so the bytes do not depend on how the two threads are scheduled.
A high-n run stands in for the limit kernel, carrying its own Cauchy
self-distance so the surrogate error stays visible in every report.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import ProplabError
from .grid import (GridSpec, KernelMatrix, SampledField, _centered_fft,
                   _checker, _is_even, sup_norm_on_compact)
from .metaplectic import propagator_for
from .symplectic import (PhaseQuadratic, QuadraticHamiltonian, flow, is_free,
                         phase_form)
from .tfa import (INF_1, INF_S, StftSpec, _lattice_norm, _split_stft, _stft_core,
                  cross_ambiguity_l1, default_window, stft)


@dataclass(frozen=True)
class TrotterScenario:
    """One experiment: Hamiltonian, potential, final time, step counts, grid.

    It refuses an exceptional t, where the limit kernel is only a
    distribution, with NotFree before any other check; phase is Phi_t, the
    chirp carrier of the kernels.  reference_n, the step count of the
    stand-in for the limit kernel, must be at least 4 * max(n_list).
    """

    hamiltonian: QuadraticHamiltonian
    potential: SampledField
    t: float
    n_list: tuple
    grid: GridSpec
    reference_n: int
    phase: PhaseQuadratic = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "phase", phase_form(flow(self.hamiltonian, self.t)))
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        if any(n <= 0 for n in self.n_list):
            raise ValueError("step counts must be positive")
        if self.reference_n < 4 * max(self.n_list):
            raise ValueError("reference_n must be at least 4 * max(n_list)")
        if self.potential.grid != self.grid:
            raise ValueError("potential grid does not match scenario grid")

    @cached_property
    def eigenpairs(self) -> tuple:
        """_eig of H0 on the grid, computed on the first spectral kernel."""
        return _eig(self.hamiltonian, self.grid)


SPECTRAL = "spectral"
CHIRP = "chirp"


def hamiltonian_matrix(h: QuadraticHamiltonian, grid: GridSpec) -> np.ndarray:
    """Hermitian grid realization of the quadratic symbol.

    (1/2)A x^2 quantizes to a diagonal, (1/2)C xi^2 to a Fourier multiplier,
    and the cross term B x xi to the symmetrized product (XD + DX)/2; this is
    the exact Weyl correspondence for polynomial symbols, realized with the
    grid's unitary Fourier transform.  The multiplier is real (its symbol is
    even and the unpaired Nyquist mode is real), so with B = 0 the matrix is
    real symmetric; the cross term makes it complex Hermitian.  A matrix
    that leaves the float range is a ProplabError.
    """
    x = grid.axis()
    xi = grid.freq_axis()
    with np.errstate(over="ignore", invalid="ignore"):  # the range check below reports it
        mat = 0.5 * h.a * np.diag(x**2) + _multiplier(0.5 * h.c * xi**2, grid).real
        if h.b != 0.0:
            xd = x[:, None] * _multiplier(xi, grid)
            mat = mat + 0.5 * h.b * (xd + xd.conj().T)
        mat = 0.5 * (mat + mat.conj().T)
    if not np.all(np.isfinite(mat)):
        raise ProplabError(f"the grid Hamiltonian of a = {h.a!r}, b = {h.b!r}, "
                           f"c = {h.c!r} leaves the float range")
    return mat


def _multiplier(symbol: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Grid Fourier multiplier of symbol(xi), inverse DFT . diag(symbol) . DFT:
    as x_i - x_j = (i - j) h and xi_k h = (k - N/2)/N, it is the circulant
    c[(i - j + N/2) mod N], c the centered inverse DFT of the symbol over N."""
    n = grid.points
    c = _centered_fft(symbol, n, +1) / n
    i = np.arange(n)
    return c[(i[:, None] - i[None, :] + n // 2) % n]


ROW_CHUNK = 64  # rows per pass of _power_free's edge update


def _fold(mat: np.ndarray, out=None) -> tuple:
    """(even, odd): the blocks of a matrix that commutes with the grid
    reflection R, j -> -j mod N (x_j -> -x_j), bit for bit, in R's
    orthonormal eigenbasis, written into out = (even, odd) when given.

    The even basis is e_0, e_{N/2} and (e_j + e_{N-j})/sqrt 2 for
    0 < j < N/2, indexed by j in 0..N/2; the odd basis is
    (e_j - e_{N-j})/sqrt 2, indexed by j in 1..N/2-1.  The four terms of
    an entry's sum over the R-orbits of its row and column pair up exactly,
    as x + x = 2x does not round: even[i, j] = 2(M[i, j] + M[i, N-j]) d_i d_j,
    d = 1/2 at the fixed points 0 and N/2 and 1/sqrt 2 elsewhere, and
    odd[i-1, j-1] = M[i, j] - M[i, N-j], so only rows 0..N/2 are read.
    """
    n = len(mat)
    m = n // 2
    if out is None:
        out = (np.empty((m + 1, m + 1), dtype=mat.dtype),
               np.empty((m - 1, m - 1), dtype=mat.dtype))
    even, odd = out
    d = np.full(m + 1, np.sqrt(0.5))
    d[[0, m]] = 0.5
    top = mat[:m + 1]
    np.add(top[:, ::m], top[:, ::m], out=even[:, ::m])  # columns 0 and N/2 mirror themselves
    np.add(top[:, 1:m], top[:, n - 1:m:-1], out=even[:, 1:m])
    even *= 2.0 * d[:, None] * d
    np.subtract(mat[1:m, 1:m], mat[1:m, n - 1:m:-1], out=odd)
    return even, odd


def _unfold(even: np.ndarray, odd: np.ndarray, out=None) -> np.ndarray:
    """The N x N matrix whose _fold is (even, odd), written block by block
    from slices, into out when given; even and odd are scaled in place.

    Row or column j <= N/2 holds the reflection's representative j, and
    N - j its mirror; the odd block enters with the sign of each side.
    """
    m = even.shape[0] - 1
    c = np.full(m + 1, np.sqrt(0.5))
    c[[0, m]] = 1.0
    even *= c[:, None]
    even *= c[None, :]
    odd *= 0.5
    if out is None:
        out = np.empty((2 * m, 2 * m), dtype=np.result_type(even, odd))
    mirror = slice(m - 1, 0, -1)  # representatives m-1..1, at m+1..N-1
    out[:m + 1, :m + 1] = even
    out[:m + 1, m + 1:] = even[:, mirror]
    out[1:m, 1:m] += odd
    out[1:m, m + 1:] -= odd[:, ::-1]
    out[m + 1:, :m + 1] = even[mirror, :]
    out[m + 1:, m + 1:] = even[mirror, mirror]
    out[m + 1:, 1:m] -= odd[::-1, :]
    out[m + 1:, m + 1:] += odd[::-1, ::-1]
    return out


def _eig(h: QuadraticHamiltonian, grid: GridSpec) -> tuple:
    """Eigenpairs (w, u) of the grid Hamiltonian, one pair per block.

    With b = 0 the grid Hamiltonian commutes with the reflection R (x^2 and
    the xi^2 multiplier are even, bit for bit), so there are two blocks, the
    even and the odd one of _fold, and each eigh costs about an eighth of the
    full one.  The grid cross term does not commute with R: x_0 = -L has no
    mirror and the Nyquist mode of xi is not odd, which couples the two
    parities by about 8% of max |H|; with b != 0 the one block is the full
    matrix.
    """
    mat = hamiltonian_matrix(h, grid)
    return tuple(np.linalg.eigh(block)
                 for block in (_fold(mat) if h.b == 0.0 else (mat,)))


def _block_step(w: np.ndarray, u: np.ndarray, tau: float, out=None) -> np.ndarray:
    """u exp(-i tau w) u^H, written into out when given.

    With real eigenvectors u (b = 0) the real and imaginary parts are the
    real products (u cos(tau w)) u^T and -(u sin(tau w)) u^T, half the flops
    of the complex product, which would first copy u^T to complex; a cross
    term makes u complex and keeps the complex product.
    """
    if np.iscomplexobj(u):
        return np.matmul(u * np.exp(-1j * tau * w)[None, :], u.conj().T, out=out)
    if out is None:
        out = np.empty(u.shape, dtype=complex)
    out.real = (u * np.cos(tau * w)[None, :]) @ u.T
    out.imag = (u * -np.sin(tau * w)[None, :]) @ u.T
    return out


def kinetic_step(pairs: tuple, tau: float) -> np.ndarray:
    """Unitary matrix exp(-i tau H_grid) from the eigenpairs _eig(h, grid):
    with b = 0 the even and odd block steps, unfolded into the N x N matrix
    in O(N^2); with a cross term the one full step."""
    steps = [_block_step(w, u, tau) for w, u in pairs]
    return steps[0] if len(steps) == 1 else _unfold(*steps)


def _power_step(z: np.ndarray, tau: float, v: np.ndarray, n: int,
                symmetric: bool, spare: np.ndarray | None = None) -> np.ndarray:
    """(z diag(q^2))^n by binary powering, q = exp(-i tau v / 2); z is
    overwritten, and the caller passes a temporary so that no reference
    keeps it alive.

    With S = diag(q) z diag(q) the step is diag(q)^-1 S diag(q), so its
    n-th power is diag(q)^-1 S^n diag(q).  When z is complex symmetric so
    are S and all its squares, and each squaring is z @ z.T, which numpy
    hands to BLAS zsyrk: it computes one triangle, about 40% less time than
    the general product.

    Without spare each square and product is a new array.  spare, an array
    with room for two more matrices of z's size, takes them instead, each
    into a buffer that the previous ones have released, and the result is
    copied back into z, so the powering allocates no matrix.

    A result that leaves the float range, with an entry that overflowed
    (inf or NaN) or with every entry underflowed to zero, is a ProplabError.
    """
    steps = n
    # with spare, z's buffer stays held to take the result back
    home, free = (None, None) if spare is None else (z, [
        spare.reshape(-1)[k * z.size:(k + 1) * z.size].reshape(z.shape) for k in (0, 1)])

    def product(a, b, done):
        # a @ b into a free buffer; done, the operand it replaces, is freed
        out = np.matmul(a, b, out=free.pop() if free else None)
        if free is not None and done is not None:
            free.append(done)
        return out

    with np.errstate(all="ignore"):  # the range check below reports it
        q = np.exp(-0.5j * tau * v)
        z *= q[:, None]
        z *= q[None, :]
        res = None
        while True:
            if n & 1:
                res = z if res is None else product(res, z, res)
            n >>= 1
            if not n:
                break
            z = product(z, z.T if symmetric else z, None if z is res else z)
        if home is not None and res is not home:
            home[...] = res
            res = home
        res /= q[:, None]
        res *= q[None, :]
    _check_range(res, steps, tau)
    return res


def _check_range(res: np.ndarray, steps: int, tau: float) -> None:
    """A ProplabError unless res is finite and not all zero."""
    if not (np.isfinite(res).all() and res.any()):
        raise ProplabError(f"the {steps}-step kernel at tau = {tau!r} "
                           "leaves the float range")


def _side_by_side(first, second) -> tuple:
    """(first(), second()), second on a thread started for this call while
    the calling thread runs first.  The thread is joined before anything
    returns or raises, and an exception raised by second is raised here;
    when both raise, first's is.

    Its one use is the two block powers of _power_blocks.  Only untraced
    private helpers run as second: perfbench's span tracer keeps one stack.
    """
    outcome = []

    def run():
        try:
            outcome.append((True, second()))
        except BaseException as exc:  # raised in the caller below
            outcome.append((False, exc))

    worker = threading.Thread(target=run)
    worker.start()
    try:
        got = first()
    finally:
        worker.join()
    ok, other = outcome[0]
    if not ok:
        raise other
    return got, other


def _power_blocks(build, tau: float, v: np.ndarray, n: int) -> np.ndarray:
    """The N x N unfolding of the n-th powers of the parity blocks that
    build(even, odd) writes into even and odd, of a step that commutes with
    R, each conjugated by its half of q as in _power_step.

    build and _unfold run on the calling thread, the two powers side by
    side, the odd block's on a second thread.  Their buffers are allocated
    here, on the calling thread: memory that a thread allocates stays in
    that thread's malloc arena, and a block allocated by the second thread
    raised the peak RSS of a freeslice run by 8 MB.  One buffer of N^2 + 4
    entries, 2(N/2 + 1)^2 + 2(N/2 - 1)^2, allocated once build has returned,
    holds both blocks' spares at once, and afterwards takes the unfolded
    result, so no other N x N matrix is allocated.
    """
    m = len(v) // 2
    size = 2 * m
    blocks = np.empty((m + 1) ** 2 + (m - 1) ** 2, dtype=complex)
    even = blocks[:(m + 1) ** 2].reshape(m + 1, m + 1)
    odd = blocks[(m + 1) ** 2:].reshape(m - 1, m - 1)
    build(even, odd)
    buf = np.empty(size * size + 4, dtype=complex)
    cut = 2 * (m + 1) ** 2
    even, odd = _side_by_side(
        lambda: _power_step(even, tau, v[:m + 1], n, symmetric=True, spare=buf[:cut]),
        lambda: _power_step(odd, tau, v[1:m], n, symmetric=True, spare=buf[cut:]))
    return _unfold(even, odd, out=buf[:size * size].reshape(size, size))


def _power_free(row: np.ndarray, tau: float, v: np.ndarray, n: int) -> np.ndarray:
    """(T diag(q^2))^n, q = exp(-i tau v / 2), for a free-chirp step T: the
    symmetric Toeplitz matrix with first row t = row.

    T depends on i - j only, with equal entries on the diagonals +-(i - j),
    so it commutes with R except in row and column 0, as x_0 = -L has no
    mirror.  With V even bit for bit, let S = diag(q) T diag(q), A be S with
    the off-diagonal entries of row and column 0 set to zero, and r = S[0, :]
    with r_0 = 0.  Then S = A + e_0 r^T + r e_0^T, A commutes with R,
    A e_0 = S_00 e_0, and

        S^n = A^n + sum_{j<n} (S^j e_0)(A^{n-1-j} r)^T + S_00^{n-1-j} (S^j r) e_0^T.

    A^n is powered by _power_blocks from _fold of T's strided view, with
    the even block's row and column 0 zeroed off the diagonal, so T is never
    dense.  The sum is a rank-n product added ROW_CHUNK rows at a time plus
    a column-0 update, from 3(n - 1) products of S with a vector,
    A x = S x - x_0 r - (r . x) e_0, each T x by _kernels.toeplitz_product,
    the FFT product that the fast propagator path also applies.  n = 1, and
    any V with an odd part, power the full step.
    """
    size = len(row)
    step = _kernels.symmetric_toeplitz(row, size)
    if n < 2 or not _is_even(v):
        return _power_step(np.array(step), tau, v, n, symmetric=True)

    def build(even, odd):
        _fold(step, out=(even, odd))
        even[0, 1:] = 0.0
        even[1:, 0] = 0.0

    with np.errstate(all="ignore"):  # the range checks report it
        q = np.exp(-0.5j * tau * v)
        r = row * (q[0] * q)
        r[0] = 0.0
        s00 = q[0] * row[0] * q[0]
        # seq[j] holds S^j e_0, S^j r and A^j r as its rows
        seq = np.zeros((n, 3, size), dtype=complex)
        seq[0, 0, 0] = 1.0
        seq[0, 1] = seq[0, 2] = r
        for j in range(1, n):
            x, y = seq[j - 1], seq[j]
            np.multiply(_kernels.toeplitz_product(row, x * q), q, out=y)
            y[2] -= x[2, 0] * r
            y[2, 0] -= r @ x[2]
        out = _power_blocks(build, tau, v, n)
        # the edge terms, conjugated by diag(q) as the blocks are
        left = seq[:, 0].T / q[:, None]
        right = seq[::-1, 2] * q
        for lo in range(0, size, ROW_CHUNK):
            out[lo:lo + ROW_CHUNK] += left[lo:lo + ROW_CHUNK] @ right
        col = seq[0, 1]
        for j in range(1, n):
            col = col * s00 + seq[j, 1]
        out[:, 0] += col * (q[0] / q)
    _check_range(out, n, tau)
    return out


def _reflection_invariant(sc: TrotterScenario) -> bool:
    """b = 0 and V even bit for bit: H_grid and diag(V) both commute with R,
    so every kernel of sc satisfies K(-x, -y) = K(x, y).  The one predicate that
    sends trotter_kernel to the parity blocks and convergence_report to the
    mirrored windowed errors."""
    return sc.hamiltonian.b == 0.0 and _is_even(sc.potential.values)


def _check_step_count(n) -> None:
    """A ValueError unless n is a positive int or numpy integer, not a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"the step count must be a positive integer, not {n!r}")


def trotter_kernel(sc: TrotterScenario, n: int, method: str = SPECTRAL) -> KernelMatrix:
    """Kernel matrix of E_n(t), by binary powering of the symmetrized step;
    the one place where the step is chosen, checked and built.

    SPECTRAL steps with kinetic_step(sc.eigenpairs, t/n).  When the pairs
    split H_grid into its even and odd blocks (b = 0) and V is even bit for
    bit, V[j] == V[-j mod N], the potential phase commutes with the
    reflection too, so the Strang step is block diagonal: the two blocks, of
    sizes N/2 + 1 and N/2 - 1, are built, powered side by side on two
    threads by _power_blocks, and unfolded once, at about a quarter of the
    flops; the bytes do not depend on thread scheduling.  Any V with an odd
    part, however small, powers the full step.  CHIRP steps with the
    quadrature of the one-step metaplectic kernel, whose powers stay
    bounded only for a free particle (a = b = 0; for a harmonic H0 the sup
    reaches 7.5e108 at n = 64 on N = 256, L = 8), so CHIRP with any other H0
    is a ValueError, as is an unknown method; _power_free powers it from its
    first row, kernel_row().  With V identically zero, SPECTRAL takes one
    full-time step for any n, the step of time t being the n-th power of
    the t/n step by the group law; CHIRP has no group law (powered chirp
    quadratures do not compose), so it powers the t/n quadrature at V = 0
    as for any V.  Either way the kernel is continuous in V at V = 0.  An n
    that is not a positive integer is a ValueError, before any numerics.
    """
    _check_step_count(n)
    h = sc.hamiltonian
    v = sc.potential.values
    if method == CHIRP:
        if h.a != 0.0 or h.b != 0.0:
            raise ValueError("the chirp step needs a free-particle H0 (a = b = 0)")
    elif method != SPECTRAL:
        raise ValueError(f"unknown step method: {method}")
    elif not np.any(v):
        n = 1
    tau = sc.t / n
    # b = 0, which CHIRP also requires, makes every step complex symmetric
    # (H_grid and its blocks real symmetric, the free chirp symmetric in x
    # and y); each step is a temporary, as the powering overwrites it
    if method == CHIRP:
        row = propagator_for(h, tau, sc.grid).kernel_row()
        m = _power_free(np.multiply(row, sc.grid.cell, out=row), tau, v, n)
    elif _reflection_invariant(sc):
        def build(even, odd):
            for (w, u), block in zip(sc.eigenpairs, (even, odd)):
                _block_step(w, u, tau, out=block)

        m = _power_blocks(build, tau, v, n)
    else:
        m = _power_step(kinetic_step(sc.eigenpairs, tau), tau, v, n,
                        symmetric=h.b == 0.0)
    m /= sc.grid.cell
    return KernelMatrix(sc.grid, m)


@dataclass
class ReferenceKernel:
    """High-n stand-in for the limit kernel with its Cauchy self-distance.

    cauchy_tag = sup difference on the compact window |x|, |y| <= L/2 between
    the reference_n and reference_n/2 runs; errors below the tag are below
    the surrogate floor.
    """

    kernel: KernelMatrix
    cauchy_tag: float


def reference_kernel(sc: TrotterScenario) -> ReferenceKernel:
    k_ref = trotter_kernel(sc, sc.reference_n)
    k_half = trotter_kernel(sc, sc.reference_n // 2)
    tag = sup_norm_on_compact(k_ref.entries - k_half.entries, sc.grid,
                              0.5 * sc.grid.half_width)
    return ReferenceKernel(k_ref, tag)


def factor_out_phase(k: KernelMatrix, phi: PhaseQuadratic) -> KernelMatrix:
    """Entrywise e^{-2 pi i Phi(x_i, y_j)} K[i, j]: removes the chirp carrier,
    leaving the amplitude (times the constant prefactor).  The factor is the
    grid carrier chirp_kernel of -Phi, whose coefficients are Phi's negated."""
    x = k.grid.axis()
    m_xx, m_xy, m_yy = phi.coefficients()
    return KernelMatrix(k.grid,
                        k.entries * _kernels.chirp_kernel(x, x, -m_xx, -m_xy, -m_yy))


KERNEL_LATTICE_STEP = 16


def _kernel_lattice_stft(k: KernelMatrix):
    """(values, spec): the kernel's 2d lattice STFT at stride
    KERNEL_LATTICE_STEP with axes (x positions, y positions, x freqs,
    y freqs), as _lattice_norm reads it."""
    spec = StftSpec(default_window(k.grid), KERNEL_LATTICE_STEP)
    along_x = _stft_core(k.entries, spec)  # (x positions, x freqs, y)
    v = _stft_core(np.moveaxis(along_x, 2, 0), spec)  # (y pos, y freqs, x pos, x freqs)
    return v.transpose(2, 0, 3, 1), spec


def kernel_mod_norm(k: KernelMatrix) -> float:
    """M^{infty,1} norm of a kernel viewed as a function on the 2d plane.

    The 2d Gaussian window is the outer product of two 1d windows, so the 2d
    STFT is the 1d STFT applied along x and then along y; the lattice is
    coarse (stride KERNEL_LATTICE_STEP in both position and frequency) to
    keep the cost at desk scale, which changes the estimator by a bounded
    factor only.
    """
    return _lattice_norm(*_kernel_lattice_stft(k), INF_1)


def _windowed_fl1(diff: np.ndarray, grid: GridSpec, mirrored: bool = False) -> tuple:
    """l1 norms of the 2d spectrum of the kernel difference times the Gaussian
    bumps exp(-pi |(x, y) - z|^2), the centered DFT along both axes, at the
    nine centers z = (cx, cy) with cx, cy in {-L/4, 0, L/4}, x-major.

    A bump is the outer product of two 1d bumps, so the x-pass for one cx
    serves all its cy: 3 x-passes and 9 y-passes.  With mirrored, for a
    reflection-invariant difference, diff(-x, -y) = diff(x, y), the product
    at -z is the one at z reflected, and so is its spectrum, with the same
    l1 norm: only the first five centers are transformed (2 x-passes and 5
    y-passes), and z12, z20, z21 and z22 repeat z10, z02, z01 and z00.  The
    centered DFT's (-1)^j pre-factor is folded into the bumps, exactly, as
    it only flips signs; its (-1)^k post-factor is dropped, as |.| cannot
    see it.  The x-pass, product, spectrum and magnitude live in four
    buffers allocated once per call, and the quadrature weight
    cell^2 freq_cell^2 scales each sum once.
    """
    x = grid.axis()
    n = grid.points
    c = 0.25 * grid.half_width
    signs = _checker(n)
    bumps = [signs * np.exp(-np.pi * (x - z) ** 2) for z in (-c, 0.0, c)]
    weight = grid.cell**2 * grid.freq_cell**2
    along_x = np.empty((n, n), dtype=complex)
    prod = np.empty_like(along_x)
    spec = np.empty_like(along_x)
    mag = np.empty((n, n))
    out = []
    for k in range(5 if mirrored else 9):
        i, j = divmod(k, 3)
        if j == 0:
            np.fft.fft(np.multiply(diff, bumps[i][:, None], out=prod), axis=0, out=along_x)
        np.fft.fft(np.multiply(along_x, bumps[j][None, :], out=prod), axis=1, out=spec)
        out.append(float(np.sum(np.abs(spec, out=mag))) * weight)
    if mirrored:
        out += out[3::-1]
    return tuple(out)


CONVERGENCE_WEIGHT_S = 2.5


def convergence_report(sc: TrotterScenario) -> tuple:
    """Per-n error and boundedness diagnostics against the high-n reference.

    Returns (rows, cauchy_tag), the tag being the reference's.  Each row is
    (n, sup_error, fl1_z00, ..., fl1_z22, mod_inf1, mod_infs), as in
    converge.csv: the sup error on the compact window, the nine windowed
    spectral l1 errors of _windowed_fl1, both from one difference E_n - ref,
    and the two modulation norms of the phase-factored kernel (the weighted
    sup norm with exponent CONVERGENCE_WEIGHT_S).  When every kernel is
    reflection-invariant (b = 0 and V even bit for bit, the test that sends
    trotter_kernel to the parity blocks), so is each difference, and five
    windowed errors are transformed and four mirrored; the mirrored four
    differ from their own transforms at rounding level only.  Any other
    scenario transforms all nine.
    """
    ref = reference_kernel(sc)
    mirrored = _reflection_invariant(sc)
    rows = []
    for n in sc.n_list:
        k_n = trotter_kernel(sc, n)
        diff = k_n.entries - ref.kernel.entries
        # one lattice STFT of the phase-factored kernel serves both norms
        v, spec = _kernel_lattice_stft(factor_out_phase(k_n, sc.phase))
        rows.append((n, sup_norm_on_compact(diff, sc.grid, 0.5 * sc.grid.half_width),
                     *_windowed_fl1(diff, sc.grid, mirrored),
                     _lattice_norm(v, spec, INF_1),
                     _lattice_norm(v, spec, INF_S, CONVERGENCE_WEIGHT_S)))
    return rows, ref.cauchy_tag


def perturbation_split_report(sc: TrotterScenario, eps_list, n: int) -> list:
    """Size of the approximant's response to the rough part of the potential.

    For each budget eps, V is split V = f1 + f2 with the high-frequency part
    f2 small in the averaged modulation norm; the remainder operator
    E_n(V) - E_n(f1) is measured by the coarse-lattice modulation norm of its
    phase-factored kernel and compared with the shape bound
    eps * |t| * C * e^{2|t|C}, C being the modulation norm of the full
    potential.  E_n(V), the STFT of V, C and cross_ambiguity_l1 are made once.
    A bitwise even V splits into f1, f2 even bit for bit, so with b = 0 every
    E_n(f1) takes the parity blocks, as E_n(V) does.
    Returns one row (eps, f1, f2, cut radius, remainder norm, bound) per
    budget.
    """
    if not all(0.0 < eps <= 1.0 for eps in eps_list):
        raise ValueError("eps must lie in (0, 1]")
    spec = StftSpec(default_window(sc.grid))
    k_full = trotter_kernel(sc, n)
    mat = stft(sc.potential, spec)  # C = mod_norm(V, spec, INF_1) from this STFT
    c, c_g = _lattice_norm(mat.values, spec, INF_1), cross_ambiguity_l1(spec)
    rows = []
    for eps in eps_list:
        f1, f2, r = _split_stft(sc.potential, mat, eps / c_g, spec)
        low = replace(sc, potential=f1)
        vars(low)["eigenpairs"] = sc.eigenpairs  # only V differs: share H0's pairs
        k_low = trotter_kernel(low, n)
        remainder = KernelMatrix(sc.grid, k_full.entries - k_low.entries)
        rem_norm = kernel_mod_norm(factor_out_phase(remainder, sc.phase))
        with np.errstate(over="ignore"):  # past the float range inf is the bound
            bound = eps * abs(sc.t) * c * np.exp(2.0 * abs(sc.t) * c)
        rows.append((eps, f1, f2, r, rem_norm, float(bound)))
    return rows


def time_slice_free_kernel(v: SampledField, t: float, n: int,
                           grid: GridSpec) -> KernelMatrix:
    """Polygonal-path quadrature for the free-particle product kernel.

    The n-th power of the analytic one-step factor
    (2 pi i tau)^{-1/2} e^{i(x - y)^2 / (2 tau)} with the potential phase,
    taken by the same _power_free as trotter_kernel(..., CHIRP), from the
    step's first row.  What it checks apart from trotter_kernel(..., CHIRP)
    is the step, this analytic chirp against the metaplectic chirp
    quadrature; as both share the powering, its own references are
    np.linalg.matrix_power and iterated products, in the tests.  Kept at
    integer n <= 8: this is the desk-scale cross-check of the path sum, not
    a production path.
    """
    _check_step_count(n)
    if n > 8:
        raise ValueError("n must lie in 1..8 for the direct path quadrature")
    if v.grid != grid:
        raise ValueError("potential grid does not match")
    tau = t / n
    # the chirp depends on (x - y)^2 only, so it is symmetric Toeplitz bit
    # for bit and its first row determines it
    total = _power_free(_kernels.free_chirp(grid.axis(), tau)[0] * grid.cell,
                        tau, v.values, n)
    total /= grid.cell
    return KernelMatrix(grid, total)


def exceptional_blowup_scan(h: QuadraticHamiltonian, t_star: float, offsets,
                            grid: GridSpec):
    """Kernel magnitude growth approaching an exceptional time (V = 0).

    Rows (delta, sup |kernel|, |det B_{t_star - delta}|^{-1/2}, ratio); the
    ratio is the constancy check.  Refuses, before any kernel is built, when
    t_star is not exceptional or an offset is not positive.
    """
    s = flow(h, t_star)
    if is_free(s):
        raise ValueError(f"t = {t_star} is not exceptional (det B = {s.b:.3e})")
    if not all(delta > 0 for delta in offsets):
        raise ValueError(f"offsets must be positive: {list(offsets)}")
    rows = []
    for delta in offsets:
        t = t_star - delta
        prop = propagator_for(h, t, grid)
        sup_k = float(np.max(np.abs(prop.kernel_entries())))
        scale = prop.abs_det_b ** -0.5
        rows.append((float(delta), sup_k, scale, sup_k / scale))
    return rows
