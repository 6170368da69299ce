"""Quadratic Hamiltonians and their phase-space flows in Sp(1, R).

The symbol is a(x, xi) = (1/2) x.A x + xi.B x + (1/2) xi.C xi with A, C
symmetric.  The Hamilton equations give the generator

    G = [[B, C], [-A, -B^T]]  in  sp(1, R),

and the flow is A_t = expm((t / 2pi) G).  A_t is *free* when its upper-right
block B_t is invertible; then the generating quadratic form of the propagator
kernel is

    Phi_t(x, y) = (1/2) x.(D_t B_t^-1) x - y.(B_t^-1) x + (1/2) y.(B_t^-1 A_t) y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, lu_factor, lu_solve

from .errors import DimensionUnsupported, NotFree

COND_CAP = 1e12


def canonical_j(d: int) -> np.ndarray:
    eye = np.eye(d)
    z = np.zeros((d, d))
    return np.block([[z, eye], [-eye, z]])


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Coefficient matrices of a real quadratic phase-space symbol."""

    dim: int
    mat_a: np.ndarray
    mat_b: np.ndarray
    mat_c: np.ndarray

    def __post_init__(self):
        if self.dim != 1:
            raise DimensionUnsupported("only d = 1 Hamiltonians are supported")
        for name in ("mat_a", "mat_b", "mat_c"):
            m = np.asarray(getattr(self, name), dtype=float).reshape(self.dim, self.dim)
            object.__setattr__(self, name, m)
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} must be finite")
        if not np.array_equal(self.mat_a, self.mat_a.T):
            raise ValueError("mat_a must be symmetric")
        if not np.array_equal(self.mat_c, self.mat_c.T):
            raise ValueError("mat_c must be symmetric")

    @staticmethod
    def harmonic(d: int = 1) -> "QuadraticHamiltonian":
        """a = pi(|x|^2 + |xi|^2), i.e. H0 = -(1/4pi) Laplacian + pi |x|^2."""
        two_pi = 2.0 * np.pi
        return QuadraticHamiltonian(d, two_pi * np.eye(d), np.zeros((d, d)), two_pi * np.eye(d))

    @staticmethod
    def free_particle(d: int = 1) -> "QuadraticHamiltonian":
        """a = 2 pi^2 |xi|^2, i.e. H0 = -Laplacian/2."""
        return QuadraticHamiltonian(d, np.zeros((d, d)), np.zeros((d, d)), 4.0 * np.pi**2 * np.eye(d))


@dataclass(frozen=True)
class SymplecticBlocks:
    """A 2 x 2 symplectic matrix stored as four 1 x 1 blocks."""

    dim: int
    block_a: np.ndarray
    block_b: np.ndarray
    block_c: np.ndarray
    block_d: np.ndarray

    def __post_init__(self):
        if self.dim != 1:
            raise DimensionUnsupported("only d = 1 symplectic matrices are supported")
        for name in ("block_a", "block_b", "block_c", "block_d"):
            m = np.asarray(getattr(self, name), dtype=float).reshape(self.dim, self.dim)
            object.__setattr__(self, name, m)
        m = self.matrix()
        j = canonical_j(self.dim)
        defect = np.max(np.abs(m.T @ j @ m - j))
        if defect > 1e-10:
            raise ValueError(f"blocks are not symplectic (defect {defect:.2e})")

    def matrix(self) -> np.ndarray:
        return np.block([[self.block_a, self.block_b], [self.block_c, self.block_d]])

    @staticmethod
    def from_matrix(m: np.ndarray) -> "SymplecticBlocks":
        d = m.shape[0] // 2
        return SymplecticBlocks(d, m[:d, :d], m[:d, d:], m[d:, :d], m[d:, d:])

    @staticmethod
    def identity(d: int) -> "SymplecticBlocks":
        return SymplecticBlocks.from_matrix(np.eye(2 * d))

    def compose(self, other: "SymplecticBlocks") -> "SymplecticBlocks":
        return SymplecticBlocks.from_matrix(self.matrix() @ other.matrix())


@dataclass(frozen=True)
class PhaseQuadratic:
    """Coefficients of Phi(x,y) = (1/2)x.Mxx x - y.Mxy x + (1/2)y.Myy y."""

    dim: int
    m_xx: np.ndarray
    m_xy: np.ndarray
    m_yy: np.ndarray

    def __post_init__(self):
        for name in ("m_xx", "m_xy", "m_yy"):
            m = np.asarray(getattr(self, name), dtype=float).reshape(self.dim, self.dim)
            object.__setattr__(self, name, m)
        for name in ("m_xx", "m_yy"):
            m = getattr(self, name)
            if np.max(np.abs(m - m.T)) > 1e-8 * max(1.0, np.max(np.abs(m))):
                raise ValueError(f"{name} is not symmetric")

    def coefficients(self) -> tuple:
        """(Mxx, Mxy, Myy) as scalars."""
        return float(self.m_xx[0, 0]), float(self.m_xy[0, 0]), float(self.m_yy[0, 0])

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate Phi on broadcastable arrays of points x, y."""
        m_xx, m_xy, m_yy = self.coefficients()
        return 0.5 * (x * m_xx * x) - y * m_xy * x + 0.5 * (y * m_yy * y)


def lie_generator(h: QuadraticHamiltonian) -> np.ndarray:
    """Generator [[B, C], [-A, -B^T]] of the Hamiltonian flow in sp(1, R)."""
    return np.block([[h.mat_b, h.mat_c], [-h.mat_a, -h.mat_b.T]])


def flow(h: QuadraticHamiltonian, t: float) -> SymplecticBlocks:
    """A_t = expm((t / 2pi) G), via scaling-and-squaring Pade."""
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    m = expm((t / (2.0 * np.pi)) * lie_generator(h))
    return SymplecticBlocks.from_matrix(m)


def free_tolerance(s: SymplecticBlocks) -> float:
    """Default freeness tolerance, scaled by the magnitude of block B."""
    return 1e-8 * max(1.0, float(np.max(np.abs(s.block_b))))


def is_free(s: SymplecticBlocks, tol: float | None = None):
    """Whether |det B| exceeds tol; returns (flag, det B)."""
    if tol is None:
        tol = free_tolerance(s)
    det_b = float(np.linalg.det(s.block_b))
    return abs(det_b) > tol, det_b


def phase_form(s: SymplecticBlocks, tol: float | None = None) -> PhaseQuadratic:
    """Generating quadratic form of a free symplectic matrix."""
    free, det_b = is_free(s, tol)
    if not free:
        raise NotFree(f"det B = {det_b:.3e} is below tolerance (exceptional time)")
    if np.linalg.cond(s.block_b) > COND_CAP:
        raise NotFree("block B is too ill-conditioned to invert")
    lu = lu_factor(s.block_b)
    b_inv = lu_solve(lu, np.eye(s.dim))
    m_xx = s.block_d @ b_inv
    m_yy = b_inv @ s.block_a
    # symmetrize away LU rounding; symplectic input guarantees symmetry
    m_xx = 0.5 * (m_xx + m_xx.T)
    m_yy = 0.5 * (m_yy + m_yy.T)
    return PhaseQuadratic(s.dim, m_xx, b_inv, m_yy)


def _det_b(h: QuadraticHamiltonian, t: float) -> float:
    return float(np.linalg.det(flow(h, t).block_b))


def exceptional_times(h: QuadraticHamiltonian, t_range, step: float, tol: float = 1e-6):
    """Scan [t0, t1] for intervals where |det B_t| <= tol.

    Roots of det B_t are located by sign changes plus bisection to 1e-10;
    each root is widened to the surrounding |det| <= tol neighborhood.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    t0, t1 = t_range
    if t1 <= t0:
        return []
    ts = np.arange(t0, t1 + step, step)
    ts[-1] = min(ts[-1], t1)
    dets = np.array([_det_b(h, t) for t in ts])

    roots = []
    for i in range(len(ts) - 1):
        a, b = ts[i], ts[i + 1]
        fa, fb = dets[i], dets[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            while b - a > 1e-10:
                mid = 0.5 * (a + b)
                fm = _det_b(h, mid)
                if fm == 0.0:
                    a = b = mid
                    break
                if fa * fm < 0:
                    b, fb = mid, fm
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    if dets[-1] == 0.0:
        roots.append(ts[-1])

    def widen(root, direction):
        lo, hi = 0.0, step
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if abs(_det_b(h, root + direction * mid)) <= tol:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12:
                break
        return lo

    intervals = []
    for r in roots:
        w_lo = widen(r, -1.0)
        w_hi = widen(r, +1.0)
        intervals.append((max(t0, r - w_lo), min(t1, r + w_hi)))
    intervals.sort()
    merged = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged
