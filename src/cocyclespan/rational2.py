"""Exact arithmetic in Python ints, and exact decisions for 2x2 systems.

This module owns the integer format. Every stored double is a dyadic rational
n / 2^m, so one power of two turns a stack of matrices into integer matrices
(`integer_matrices`), each a flat row-major list of ints. On that format it
multiplies (`_times`), keeps echelon bases over Q (`_RationalSpan`) and
orthonormalises independent rows exactly before their one rounding to floats
(`_orthonormal_float`); the exact paths of `spannability` and `hypotheses`
decide in these integers, and Fractions appear only for a rational root.

A line span{u} is invariant under A iff det(u | A u) = 0. Writing u = (x, y)
and A = [[a, b], [c, d]] this determinant is the quadratic form

    q(x, y) = c x^2 + (d - a) x y - b y^2.

A 2x2 system is reducible iff its quadratics share a real projective root.
For exact systems the quadratics have integer coefficients, each the true
(rational) quadratic times a known positive integer scale: positive scales
move no root, so the decision is exact for the stored matrices, and the
scale is divided back out, correctly rounded, where a root becomes floats.
Inputs flagged as inexact decimal data get a float twin with relative
tolerance, on float quadratics: `pair_quadratic` of float matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .linalg import canonical_sign

Quad = tuple[int, int, int]  # coefficients of x^2, xy, y^2

FLOAT_ROOT_TOL = 1e-9


def integer_matrices(mats: np.ndarray) -> tuple[list[list[int]], int]:
    """(N, 2^E): each matrix of an (ell, d, d) stack as a flat row-major list
    of the integers 2^E * entry, E the least exponent >= 0 that makes every
    entry an integer."""
    ratios = [x.as_integer_ratio() for x in mats.ravel().tolist()]
    shift = max(den.bit_length() for _, den in ratios) - 1
    ints = [n << (shift + 1 - den.bit_length()) for n, den in ratios]
    size = mats.shape[1] * mats.shape[2]
    return [ints[i:i + size] for i in range(0, len(ints), size)], 1 << shift


def _times(A: list[int], B: list[int], d: int) -> list[int]:
    """A B for flat row-major d x d integer matrices."""
    cols = [B[j::d] for j in range(d)]
    return [sum(map(mul, A[i:i + d], col)) for i in range(0, d * d, d) for col in cols]


def _eliminate(v: list[int], row: list[int], c: int, den: int) -> list[int]:
    """v * den - c * row, divided by gcd(c, den) > 0: for den > 0, a positive
    multiple of v - (c / den) row."""
    g = math.gcd(c, den)
    a, c = den // g, c // g
    return [a * x - c * y for x, y in zip(v, row)]


class _RationalSpan:
    """Echelon basis over Q for membership tests and exact M_k bases, in integers.

    A row (pivot, nums, den) is the rational row nums / den, with den > 0,
    nums[pivot] == den and gcd(nums) == 1, so each rational row has one form.
    An added vector is a list of ints; a positive multiple of it has the same
    span and the same row.
    """

    def __init__(self):
        self.rows: list[tuple[int, list[int], int]] = []  # sorted by pivot

    def add(self, v: list[int]) -> bool:
        for pivot, nums, den in self.rows:
            c = v[pivot]
            if c:
                v = _eliminate(v, nums, c, den)
        for i, x in enumerate(v):
            if x:
                g = math.gcd(*v) if x > 0 else -math.gcd(*v)
                self.rows.append((i, [y // g for y in v], x // g))
                self.rows.sort(key=lambda row: row[0])
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def _orthonormal_float(rows: list[list[int]]) -> np.ndarray:
    """Orthonormal columns spanning the independent integer `rows`: exact
    Gram-Schmidt, each residual kept as a positive integer multiple, and each
    result scaled exactly to max entry 1 (int true division is correctly
    rounded) before the float normalisation."""
    ortho: list[tuple[list[int], int]] = []  # (q, <q, q>)
    cols = []
    for v in rows:
        for q, qq in ortho:
            c = sum(map(mul, v, q))
            if c:
                v = _eliminate(v, q, c, qq)
        g = math.gcd(*v)
        v = [vi // g for vi in v]
        ortho.append((v, sum(map(mul, v, v))))
        top = max(map(abs, v))
        col = np.array([vi / top for vi in v])
        cols.append(col / np.linalg.norm(col))
    return np.stack(cols, axis=1)


def pair_quadratic(A, B) -> Quad:
    """det(A u | B u) as a quadratic form in u = (x, y); A = I gives B's line quadratic."""
    (a0, b0), (c0, d0) = A
    (a1, b1), (c1, d1) = B
    return (a0 * c1 - c0 * a1, a0 * d1 + b0 * c1 - c0 * b1 - d0 * a1, b0 * d1 - d0 * b1)


def is_zero_quad(q: Quad) -> bool:
    return q[0] == 0 and q[1] == 0 and q[2] == 0


@dataclass(frozen=True)
class ProjPoint:
    """Real projective root candidate of an integer quadratic.

    kind 'inf' is (1:0); 'rat' is (t:1) with rational t; 'surd' stands for the
    conjugate pair of irrational roots of A t^2 + B t + C = 0, where `poly` is
    (A, B, C) times the positive integer `scale`.
    """

    kind: str
    t: Fraction | None = None
    poly: Quad | None = None
    scale: int = 1

    def vector(self) -> np.ndarray:
        if self.kind == "inf":
            return np.array([1.0, 0.0])
        if self.kind == "rat":
            v = np.array([float(self.t), 1.0])
        else:
            # int true division is correctly rounded: each float is that of
            # the unscaled rational coefficient
            A, B, C = self.poly
            s = self.scale
            t = (-(B / s) + math.sqrt((B * B - 4 * A * C) / (s * s))) / (2.0 * (A / s))
            v = np.array([t, 1.0])
        return canonical_sign(v / np.linalg.norm(v))


def projective_roots(q: Quad, scale: int = 1) -> list[ProjPoint]:
    """Real projective roots; 'inf' listed first, rational roots ascending."""
    q20, q11, q02 = q
    roots: list[ProjPoint] = []
    if q20 == 0:
        roots.append(ProjPoint("inf"))
        if q11 != 0:
            roots.append(ProjPoint("rat", t=Fraction(-q02, q11)))
        # q11 == 0: q = q02 y^2, only the (1:0) double root (q02 != 0 assumed)
        return roots
    disc = q11 * q11 - 4 * q20 * q02
    if disc < 0:
        return []
    r = math.isqrt(disc)
    if r * r == disc:
        t1 = Fraction(-q11 - r, 2 * q20)
        t2 = Fraction(-q11 + r, 2 * q20)
        roots.append(ProjPoint("rat", t=t1))
        if t2 != t1:
            roots.append(ProjPoint("rat", t=t2))
        roots.sort(key=lambda p: p.t)
        return roots
    return [ProjPoint("surd", poly=q, scale=scale)]


def quad_vanishes_at(q: Quad, p: ProjPoint) -> bool:
    q20, q11, q02 = q
    if p.kind == "inf":
        return q20 == 0
    if p.kind == "rat":
        n, m = p.t.numerator, p.t.denominator
        return q20 * n * n + q11 * n * m + q02 * m * m == 0
    # surd: reduce q(t) modulo the minimal polynomial A t^2 + B t + C. The
    # remainder A (alpha t + beta) vanishes at an irrational root iff both
    # coefficients vanish, which also covers the conjugate branch.
    A, B, C = p.poly
    return q11 * A == q20 * B and q02 * A == q20 * C


def common_projective_root(quads: list[Quad], scales: list[int]) -> str | ProjPoint | None:
    """First shared real projective root; 'all' if every quadratic vanishes.

    `scales[i]` is the positive integer that quads[i] is its rational
    quadratic times; it only enters the root's floats.
    """
    nonzero = [(q, s) for q, s in zip(quads, scales) if not is_zero_quad(q)]
    if not nonzero:
        return "all"
    for cand in projective_roots(*nonzero[0]):
        if all(quad_vanishes_at(q, cand) for q, _ in nonzero[1:]):
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


def common_root_line(quads: list, exact: bool, scales: list[int] | None
                     ) -> tuple[np.ndarray | None, str]:
    """(unit vector of a common real root line of `quads` or None, method name).

    Exact arithmetic on integer quadratics (with `scales` as in
    `common_projective_root`) when `exact`, else the float twin on float ones,
    which reads no `scales`.
    When every quadratic vanishes, every line is a root and e1 stands for them.
    """
    if exact:
        root, method = common_projective_root(quads, scales), "d2_exact"
    else:
        root, method = common_projective_root_float(quads), "d2_float"
    if root is None:
        return None, method
    if isinstance(root, str):
        return np.array([1.0, 0.0]), method
    return (root.vector() if isinstance(root, ProjPoint) else root), method
