"""Exact decisions for 2x2 systems via homogeneous quadratics over the rationals.

A line span{u} is invariant under A iff det(u | A u) = 0. Writing u = (x, y)
and A = [[a, b], [c, d]] this determinant is the quadratic form

    q(x, y) = c x^2 + (d - a) x y - b y^2.

A 2x2 system is reducible iff its quadratics share a real projective root.
For exact systems the entries are lifted to Fractions (floats are exact
binary rationals), so the decision is exact for the stored matrices; inputs
flagged as inexact decimal data get a float twin with relative tolerance, on
float quadratics. Other pair quadratics are floats (`kernels.pair_quadratics`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import canonical_sign

Quad = tuple[Fraction, Fraction, Fraction]  # coefficients of x^2, xy, y^2

FLOAT_ROOT_TOL = 1e-9


def as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(float(x))


def pair_quadratic(A, B) -> Quad:
    """det(A u | B u) as a quadratic form in u = (x, y); A = I gives B's line quadratic."""
    a0, b0, c0, d0 = (as_fraction(A[i][j]) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    a1, b1, c1, d1 = (as_fraction(B[i][j]) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    return (a0 * c1 - c0 * a1, a0 * d1 + b0 * c1 - c0 * b1 - d0 * a1, b0 * d1 - d0 * b1)


def is_zero_quad(q: Quad) -> bool:
    return q[0] == 0 and q[1] == 0 and q[2] == 0


def _rational_sqrt(fr: Fraction) -> Fraction | None:
    """The square root of a nonnegative `fr` when it is rational, else None."""
    num, den = fr.numerator, fr.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class ProjPoint:
    """Real projective root candidate of a rational quadratic.

    kind 'inf' is (1:0); 'rat' is (t:1) with rational t; 'surd' stands for the
    conjugate pair of irrational roots of A t^2 + B t + C = 0.
    """

    kind: str
    t: Fraction | None = None
    poly: tuple[Fraction, Fraction, Fraction] | None = None

    def vector(self) -> np.ndarray:
        if self.kind == "inf":
            return np.array([1.0, 0.0])
        if self.kind == "rat":
            v = np.array([float(self.t), 1.0])
        else:
            A, B, C = self.poly
            disc = B * B - 4 * A * C
            t = (-float(B) + math.sqrt(float(disc))) / (2.0 * float(A))
            v = np.array([t, 1.0])
        return canonical_sign(v / np.linalg.norm(v))


def projective_roots(q: Quad) -> list[ProjPoint]:
    """Real projective roots; 'inf' listed first, rational roots ascending."""
    q20, q11, q02 = q
    roots: list[ProjPoint] = []
    if q20 == 0:
        roots.append(ProjPoint("inf"))
        if q11 != 0:
            roots.append(ProjPoint("rat", t=-q02 / q11))
        # q11 == 0: q = q02 y^2, only the (1:0) double root (q02 != 0 assumed)
        return roots
    disc = q11 * q11 - 4 * q20 * q02
    if disc < 0:
        return []
    r = _rational_sqrt(disc)
    if r is not None:
        t1 = (-q11 - r) / (2 * q20)
        t2 = (-q11 + r) / (2 * q20)
        roots.append(ProjPoint("rat", t=t1))
        if t2 != t1:
            roots.append(ProjPoint("rat", t=t2))
        roots.sort(key=lambda p: p.t)
        return roots
    return [ProjPoint("surd", poly=(q20, q11, q02))]


def quad_vanishes_at(q: Quad, p: ProjPoint) -> bool:
    q20, q11, q02 = q
    if p.kind == "inf":
        return q20 == 0
    if p.kind == "rat":
        t = p.t
        return q20 * t * t + q11 * t + q02 == 0
    # surd: reduce q(t) modulo the minimal polynomial A t^2 + B t + C.
    # The remainder alpha*t + beta vanishes at an irrational root iff both
    # coefficients vanish, which also covers the conjugate branch.
    A, B, C = p.poly
    alpha = q11 - q20 * B / A
    beta = q02 - q20 * C / A
    return alpha == 0 and beta == 0


def common_projective_root(quads: list[Quad]) -> str | ProjPoint | None:
    """First shared real projective root; 'all' if every quadratic vanishes."""
    nonzero = [q for q in quads if not is_zero_quad(q)]
    if not nonzero:
        return "all"
    for cand in projective_roots(nonzero[0]):
        if all(quad_vanishes_at(q, cand) for q in nonzero[1:]):
            return cand
    return None


# Float twin for inputs whose decimal entries did not survive the binary
# round-trip: same candidate scheme, tolerance-based vanishing test.

def common_projective_root_float(fq: list[tuple[float, float, float]]):
    tol = FLOAT_ROOT_TOL
    scales = [max(abs(a), abs(b), abs(c)) for a, b, c in fq]
    nonzero = [(q, s) for q, s in zip(fq, scales) if s > 0 and max(map(abs, q)) > tol * s]
    if not nonzero:
        return "all"
    (a0, b0, c0), _ = nonzero[0]
    cands: list[np.ndarray] = []
    if abs(a0) <= tol * max(abs(a0), abs(b0), abs(c0)):
        cands.append(np.array([1.0, 0.0]))
        if abs(b0) > tol:
            cands.append(np.array([-c0 / b0, 1.0]))
    else:
        disc = b0 * b0 - 4.0 * a0 * c0
        if disc >= -tol * (b0 * b0 + 4.0 * abs(a0 * c0)):
            r = math.sqrt(max(disc, 0.0))
            for t in sorted({(-b0 - r) / (2 * a0), (-b0 + r) / (2 * a0)}):
                cands.append(np.array([t, 1.0]))
    for v in cands:
        u = v / np.linalg.norm(v)
        ok = True
        for (a, b, c), s in zip(fq, scales):
            if abs(a * u[0] ** 2 + b * u[0] * u[1] + c * u[1] ** 2) > tol * max(s, 1e-300):
                ok = False
                break
        if ok:
            return canonical_sign(u)
    return None


def common_root_line(quads: list, exact: bool) -> tuple[np.ndarray | None, str]:
    """(unit vector of a common real root line of `quads` or None, method name).

    Exact arithmetic on Fraction quadratics when `exact`, else the float twin
    on float ones. When every quadratic vanishes, every line is a root and e1
    stands for them.
    """
    if exact:
        root, method = common_projective_root(quads), "d2_exact"
    else:
        root, method = common_projective_root_float(quads), "d2_float"
    if root is None:
        return None, method
    if isinstance(root, str):
        return np.array([1.0, 0.0]), method
    return (root.vector() if isinstance(root, ProjPoint) else root), method
