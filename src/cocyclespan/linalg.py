"""Dense small-matrix arithmetic: singular data, compound powers, subspace spans.

Everything here is pure and re-entrant; matrices are plain float64 ndarrays.
Dimensions are capped at 8 so compound (wedge) sizes stay at most C(8,4) = 70.
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
    M = np.asarray(A, dtype=float)
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


def singular_values(A) -> np.ndarray:
    """Singular values in descending order."""
    return np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)


def is_invertible(A) -> bool:
    A = np.asarray(A, dtype=float)
    s = singular_values(A)
    return s[0] > 0 and abs(np.linalg.det(A)) > TAU_DET * s[0] ** A.shape[0]


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
    sets = wedge_index_sets(d, m)
    N = len(sets)
    out = np.empty((N, N))
    for i, rows in enumerate(sets):
        sub = M[list(rows), :]
        for j, cols in enumerate(sets):
            out[i, j] = np.linalg.det(sub[:, list(cols)])
    return out


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """v or -v, so that the first coordinate above 1e-12 in size is positive."""
    for x in v:
        if abs(x) > 1e-12:
            return v if x > 0 else -v
    return v


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
        if self.dim == 0:
            return np.zeros((self.ambient, self.ambient))
        return self.basis @ self.basis.T


def span_basis(vectors, ambient: int | None = None) -> SubspaceBasis:
    """Orthonormal basis of span(vectors); rank cut at RANK_TOL * largest singular value."""
    vecs = [np.asarray(v, dtype=float).ravel() for v in vectors]
    if not vecs:
        if ambient is None:
            raise InputError("empty input needs an explicit ambient dimension")
        return SubspaceBasis(ambient=ambient, dim=0, basis=np.zeros((ambient, 0)))
    n = vecs[0].size
    if any(v.size != n for v in vecs):
        raise InputError("vectors have mixed ambient dimensions")
    if ambient is not None and ambient != n:
        raise InputError("ambient mismatch")
    X = np.stack(vecs, axis=1)
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s >= RANK_TOL * s[0]))
    return SubspaceBasis(ambient=n, dim=rank, basis=U[:, :rank].copy())


def subspace_distance(U: SubspaceBasis, V: SubspaceBasis) -> float:
    """Operator-norm distance of orthogonal projectors (sin of largest principal angle)."""
    if U.ambient != V.ambient:
        raise InputError("subspaces live in different ambient spaces")
    return float(np.linalg.norm(U.projector() - V.projector(), 2))


def map_subspace(A, W: SubspaceBasis) -> SubspaceBasis:
    return span_basis([as_matrix(A) @ W.basis[:, j] for j in range(W.dim)], ambient=W.ambient)


def invariance_residual(mats, W: SubspaceBasis) -> float:
    """max over the matrices of dist(A W, W); 0 for the trivial subspace."""
    if W.dim == 0 or W.dim == W.ambient:
        return 0.0
    return max(subspace_distance(map_subspace(A, W), W) for A in mats)
