"""Quadratic Hamiltonians and their phase-space flows in Sp(1, R).

The symbol is a(x, xi) = (1/2) a x^2 + b xi x + (1/2) c xi^2 with real scalar
coefficients.  The Hamilton equations give the trace-free generator

    G = [[b, c], [-a, -b]]  in  sp(1, R),

and the flow is A_t = exp((t / 2pi) G).  Since G^2 = -det(G) I, the
exponential has the closed form cos(s) I + sin(s)/s G (det G > 0),
cosh(s) I + sinh(s)/s G (det G < 0) or I + G (det G = 0), with
s = sqrt|det (t / 2pi) G|.  A_t = [[A, B], [C, D]] is *free* when B != 0;
then the generating quadratic form of the propagator kernel is

    Phi_t(x, y) = (1/2) (D / B) x^2 - x y / B + (1/2) (A / B) y^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionUnsupported, NotFree, ProplabError


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Scalar coefficients of a real quadratic phase-space symbol; hashable."""

    dim: int
    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.dim != 1:
            raise DimensionUnsupported("only d = 1 Hamiltonians are supported")
        for name in ("a", "b", "c"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    @staticmethod
    def harmonic(d: int = 1) -> "QuadraticHamiltonian":
        """a = pi(|x|^2 + |xi|^2), i.e. H0 = -(1/4pi) Laplacian + pi |x|^2."""
        return QuadraticHamiltonian(d, 2.0 * np.pi, 0.0, 2.0 * np.pi)

    @staticmethod
    def free_particle(d: int = 1) -> "QuadraticHamiltonian":
        """a = 2 pi^2 |xi|^2, i.e. H0 = -Laplacian/2."""
        return QuadraticHamiltonian(d, 0.0, 0.0, 4.0 * np.pi**2)


@dataclass(frozen=True)
class SymplecticBlocks:
    """A 2 x 2 symplectic matrix [[a, b], [c, d]] (det = 1)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # M^T J M = det(M) J for 2 x 2 matrices; the rounding of det grows
        # with its products, and an overflowed product gives NaN, which fails
        ad, bc = self.a * self.d, self.b * self.c
        defect = abs(ad - bc - 1.0) / max(1.0, abs(ad), abs(bc))
        if not defect <= 1e-10:
            raise ValueError(f"blocks are not symplectic (defect {defect:.2e})")

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])


@dataclass(frozen=True)
class PhaseQuadratic:
    """Coefficients of Phi(x,y) = (1/2) Mxx x^2 - Mxy x y + (1/2) Myy y^2."""

    m_xx: float
    m_xy: float
    m_yy: float

    def coefficients(self) -> tuple:
        """(Mxx, Mxy, Myy)."""
        return self.m_xx, self.m_xy, self.m_yy


@np.errstate(over="ignore", invalid="ignore")  # the det = 1 check reports it
def flow(h: QuadraticHamiltonian, t: float) -> SymplecticBlocks:
    """A_t = exp((t / 2pi) G) in closed form (see the module docstring)."""
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    tau = t / (2.0 * np.pi)
    ga, gb, gc = tau * h.a, tau * h.b, tau * h.c
    det = ga * gc - gb * gb
    if det > 0.0:
        s = np.sqrt(det)
        ch, sh = np.cos(s), np.sin(s) / s
    elif det < 0.0:
        s = np.sqrt(-det)
        ch, sh = np.cosh(s), np.sinh(s) / s
    else:
        ch, sh = 1.0, 1.0
    try:
        return SymplecticBlocks(ch + sh * gb, sh * gc, -sh * ga, ch - sh * gb)
    except ValueError as err:  # det = 1 fails once a d or b c overflows the floats
        raise ProplabError(f"flow at t = {t!r}: {err}")


def is_free(s: SymplecticBlocks) -> bool:
    """Whether |B| exceeds 1e-8 max(1, |B|)."""
    return abs(s.b) > 1e-8 * max(1.0, abs(s.b))


def phase_form(s: SymplecticBlocks) -> PhaseQuadratic:
    """Generating quadratic form of a free symplectic matrix."""
    if not is_free(s):
        raise NotFree(f"det B = {s.b:.3e} is below tolerance (exceptional time)")
    b_inv = 1.0 / s.b
    return PhaseQuadratic(s.d * b_inv, b_inv, b_inv * s.a)

