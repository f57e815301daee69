"""Dense small-matrix arithmetic: singular data, compound powers, subspace spans.

Everything here is pure and re-entrant; matrices are plain float64 ndarrays.
Dimensions are capped at 8 so compound (wedge) sizes stay at most C(8,4) = 70.

Stacked calls keep the bits of per-matrix calls. numpy's `svd`, `det` and
`norm(., 2)` run the same LAPACK routine on each matrix of a stack, on a
column-major copy that does not depend on the input's layout, and `matmul` runs
the same BLAS kernel on each matrix of a stack; so the hypothesis cascade
decides every generator of a level in one call and reports what one call per
generator reported. A whole-matrix product does not keep them: `G @ W` runs a
matrix-matrix kernel whose sums differ in the last bits from those of
`G @ W[:, j]`, one matrix-vector product per column (most seeded cases of
`tests/test_cascade_bits.py` show it), and it moved reported residuals of
d = 3 and 4 systems. The images of a witness's basis in its invariance
residual are therefore formed one column at a time, each column over the
whole stack of generators (`invariance_residual`).

The algebra test is not: its operands are d x d matrices, each image is a
matrix-matrix product whichever way it is stacked, and only its rank is read,
so a level is one product `G[:, None] @ B` of every generator with every basis
matrix (rule (e) of `hypotheses`, whose module docstring gives the other
rules: those that skip whole closures and build witnesses).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InputError

TAU_DET = 1e-12     # invertible means |det| > TAU_DET * sigma_1^d
RANK_TOL = 1e-9     # relative rank cutoff for spans
MAX_DIM = 8


def as_matrix(A) -> np.ndarray:
    try:
        M = np.asarray(A, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # ragged, or an entry no float holds
        raise InputError(f"expected a square matrix of numbers: {exc}") from exc
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"expected a square matrix, got shape {M.shape}")
    d = M.shape[0]
    if not 2 <= d <= MAX_DIM:
        raise InputError(f"dimension {d} outside supported range 2..{MAX_DIM}")
    if not np.isfinite(M).all():
        raise InputError("matrix has non-finite entries")
    return M


def operator_norm(A) -> float:
    return float(np.linalg.norm(A, 2))


def invertible(mats: np.ndarray) -> np.ndarray:
    """Whether each matrix of an (ell, d, d) stack passes the invertibility gate,
    a conditioning test: |det| > TAU_DET * sigma_1^d. A det or a bound that
    overflows to inf is left to compare as inf, silently: an infinite bound
    fails the gate."""
    top = np.linalg.svd(mats, compute_uv=False)[:, 0]
    with np.errstate(over="ignore"):
        return (top > 0) & (np.abs(np.linalg.det(mats)) > TAU_DET * top ** mats.shape[-1])


def wedge_index_sets(d: int, m: int) -> list[tuple[int, ...]]:
    """m-element index subsets of range(d) in lexicographic order."""
    return list(combinations(range(d), m))


def wedge_power(A, m: int) -> np.ndarray:
    """m-th compound matrix: minors det A[S, T] over lexicographic index sets.

    Multiplicative by Cauchy-Binet: wedge(AB, m) = wedge(A, m) @ wedge(B, m).
    """
    M = as_matrix(A)
    d = M.shape[0]
    if not 1 <= m <= d - 1:
        raise InputError(f"wedge order m={m} outside 1..{d - 1}")
    if m == 1:
        return M.copy()
    sets = np.array(wedge_index_sets(d, m))
    return np.linalg.det(M[sets[:, None, :, None], sets[None, :, None, :]])


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """v or -v, so that the first coordinate above 1e-12 in size is positive
    (v has one: callers pass unit vectors)."""
    first = v[np.abs(v) > 1e-12][0]
    return v if first > 0 else -v


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal column basis of a subspace of R^ambient."""

    ambient: int
    dim: int
    basis: np.ndarray  # shape (ambient, dim)

    def __post_init__(self):
        if self.dim:
            g = self.basis.T @ self.basis
            if np.abs(g - np.eye(self.dim)).max() > 1e-10:
                raise InputError("basis columns not orthonormal")

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T  # all zeros for the trivial subspace


def _rank(s: np.ndarray) -> np.ndarray:
    """Numerical rank from descending singular values (..., k): how many are at
    least RANK_TOL times the largest; 0 when the largest is 0."""
    top = s[..., :1]
    return np.where(top[..., 0] > 0, np.sum(s >= RANK_TOL * top, axis=-1), 0)


def null_space(M: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the numerical null space of M: the right singular
    vectors past its rank (`_rank`). A tall M takes the reduced SVD, whose Vt is
    already all of V, so no (rows x rows) U is formed; others take the full one."""
    _, s, Vt = np.linalg.svd(M, full_matrices=M.shape[0] <= M.shape[1])
    return Vt[_rank(s):]


def span_basis(vectors, ambient: int | None = None) -> SubspaceBasis:
    """Orthonormal basis of the span of the vectors, given as a sequence or as the
    rows of an array (each raveled); rank cut by `_rank`."""
    try:
        X = np.asarray(vectors, dtype=float)
    except ValueError as exc:  # vectors of different sizes
        raise InputError("vectors have mixed ambient dimensions") from exc
    if len(X) == 0:
        if ambient is None:
            raise InputError("empty input needs an explicit ambient dimension")
        return SubspaceBasis(ambient=ambient, dim=0, basis=np.zeros((ambient, 0)))
    X = X.reshape(len(X), -1)
    n = X.shape[1]
    if ambient is not None and ambient != n:
        raise InputError("ambient mismatch")
    U, s, _ = np.linalg.svd(X.T, full_matrices=False)
    rank = int(_rank(s))
    return SubspaceBasis(ambient=n, dim=rank, basis=U[:, :rank].copy())


def subspace_distance(U: SubspaceBasis, V: SubspaceBasis) -> float:
    """Operator-norm distance of orthogonal projectors (sin of largest principal angle)."""
    if U.ambient != V.ambient:
        raise InputError("subspaces live in different ambient spaces")
    return float(np.linalg.norm(U.projector() - V.projector(), 2))


def invariance_residual(mats, W: SubspaceBasis) -> float:
    """max over the matrices of dist(A W, W), for a proper subspace W."""
    mats = np.asarray(mats, dtype=float)
    mapped = np.stack([mats @ w for w in W.basis.T], axis=1)  # one stacked product per column
    U, s, _ = np.linalg.svd(mapped.transpose(0, 2, 1), full_matrices=False)
    ranks = _rank(s)
    target = W.projector()
    worst = 0.0
    for r in set(ranks.tolist()):  # one rank, W.dim, unless a matrix nearly collapses W
        B = np.ascontiguousarray(U[ranks == r, :, :r])
        gaps = np.linalg.norm(B @ B.transpose(0, 2, 1) - target, 2, axis=(1, 2))
        worst = max(worst, float(gaps.max()))
    return worst
