"""The batched hypothesis cascade against one-call-per-generator-and-column references.

The library forms each level of the cascade with one stacked numpy call over
all generators. The references below make one call per generator and column,
as the cascade used to; every basis, residual and minor must agree bit for bit
(`np.array_equal` on the arrays, `float.hex` on the residuals).
"""
from itertools import combinations

import numpy as np
import pytest

from cocyclespan import GeneratorSystem
from cocyclespan import hypotheses
from cocyclespan.hypotheses import algebra_dimension
from cocyclespan.linalg import (RANK_TOL, SubspaceBasis, invariance_residual, span_basis,
                                wedge_power)


# ---- references: one LAPACK/BLAS call per generator and column ----

def ref_span(vectors):
    """(input matrix with the vectors as columns, orthonormal basis) of their span."""
    X = np.stack([np.asarray(v, dtype=float).ravel() for v in vectors], axis=1)
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    rank = 0 if s[0] == 0.0 else int(np.sum(s >= RANK_TOL * s[0]))
    return X, U[:, :rank].copy()


def ref_algebra_dimension(gens, levels):
    d = gens[0].shape[0]
    X, basis = ref_span([np.eye(d).ravel()])
    levels.append((X, basis))
    while basis.shape[1] < d * d:
        imgs = [A @ basis[:, j].reshape(d, d) for A in gens for j in range(basis.shape[1])]
        X, new = ref_span([basis[:, j] for j in range(basis.shape[1])]
                          + [M.ravel() for M in imgs])
        levels.append((X, new))
        if new.shape[1] == basis.shape[1]:
            break
        basis = new
    return basis.shape[1]


def ref_invariance_residual(gens, W):
    target = W.basis @ W.basis.T
    worst = []
    for A in gens:
        _, mapped = ref_span([A @ W.basis[:, j] for j in range(W.dim)])
        P = mapped @ mapped.T if mapped.shape[1] else np.zeros((W.ambient, W.ambient))
        worst.append(float(np.linalg.norm(P - target, 2)))
    return max(worst)


def ref_wedge_power(M, m):
    sets = list(combinations(range(M.shape[0]), m))
    out = np.empty((len(sets), len(sets)))
    for i, rows in enumerate(sets):
        sub = M[list(rows), :]
        for j, cols in enumerate(sets):
            out[i, j] = np.linalg.det(sub[:, list(cols)])
    return out


# ---- seeded systems ----

def flag_system(rng, d, ell):
    """P T_i P^-1 with upper triangular T_i: the invariant flag P e_1 ⊂ ... spans
    every dimension below d, and no invariant subspace is a coordinate one."""
    P = rng.standard_normal((d, d)) + d * np.eye(d)
    Pinv = np.linalg.inv(P)
    gens = []
    for _ in range(ell):
        T = np.triu(rng.standard_normal((d, d)))
        T[np.diag_indices(d)] = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d)
        gens.append(P @ T @ Pinv)
    return GeneratorSystem(tuple(gens)), P


def generic_system(rng, d, ell):
    return GeneratorSystem(tuple(rng.standard_normal((d, d)) for _ in range(ell)))


def cases():
    rng = np.random.default_rng(2024)
    for d in range(2, 7):
        for ell in (1, 2, 3, 5, 16):
            yield generic_system(rng, d, ell), None, rng
            yield (*flag_system(rng, d, ell), rng)


def captured_levels(monkeypatch):
    """Record the input rows and the basis of every `span_basis` call the cascade makes."""
    levels = []

    def recording(vectors, ambient=None):
        out = span_basis(vectors, ambient)
        levels.append((np.asarray(vectors, dtype=float), out.basis))
        return out

    monkeypatch.setattr(hypotheses, "span_basis", recording)
    return levels


def assert_levels_equal(got, want):
    assert len(got) == len(want)
    for (rows, basis), (X, ref_basis) in zip(got, want):
        assert np.array_equal(rows, X.T)
        assert np.array_equal(basis, ref_basis)


# ---- comparisons ----

def test_algebra_dimension_bits(monkeypatch):
    dims = set()
    for system, P, _ in cases():
        levels = captured_levels(monkeypatch)
        got = algebra_dimension(system)
        want_levels = []
        assert got.dim == ref_algebra_dimension(system.generators, want_levels)
        assert_levels_equal(levels, want_levels)
        dims.add((system.dim, P is None, got.dim))
    # the flag systems with ell >= 2 stop at the triangular algebra, d (d + 1) / 2
    assert (4, False, 10) in dims and (4, True, 16) in dims


def test_invariance_residual_bits():
    for system, P, rng in cases():
        d, gens = system.dim, system.generators
        # the flag spaces P e_1 ⊂ ... are invariant: residuals near zero
        subspaces = [] if P is None else [span_basis(P[:, :j].T) for j in range(1, d)]
        for j in range(1, d):  # not invariant: residuals of order one
            Q, _ = np.linalg.qr(rng.standard_normal((d, j)))
            subspaces.append(SubspaceBasis(ambient=d, dim=j, basis=Q))
        for W in subspaces:
            assert invariance_residual(gens, W).hex() == ref_invariance_residual(gens, W).hex()


def test_invariance_residual_bits_mixed_ranks():
    """One matrix maps the plane to a near line: its image is cut to rank 1."""
    rng = np.random.default_rng(9)
    W = SubspaceBasis(ambient=4, dim=2, basis=np.eye(4)[:, :2])
    for _ in range(20):
        mats = (rng.standard_normal((4, 4)), np.diag([1.0, 1e-12, 1.0, 1.0]),
                rng.standard_normal((4, 4)))
        got = invariance_residual(mats, W)
        assert got.hex() == ref_invariance_residual(mats, W).hex()
        assert got > 0.5  # the collapsed image is a line, not the plane


@pytest.mark.parametrize("d,m", [(d, m) for d in range(3, 9) for m in range(2, d)])
def test_wedge_power_bits(d, m):
    rng = np.random.default_rng(100 * d + m)
    for _ in range(3):
        M = rng.standard_normal((d, d))
        assert np.array_equal(wedge_power(M, m), ref_wedge_power(M, m))


def test_matrix_formed_images_would_fail():
    """Forming a level's images as one product G @ W, not a column at a time,
    moves bits: the comparison above would catch it."""
    moved = 0
    for system, _, rng in cases():
        G = system.stacked()
        W = np.linalg.qr(rng.standard_normal((system.dim, system.dim - 1)))[0]
        per_column = np.stack([G @ W[:, j] for j in range(W.shape[1])], axis=-1)
        moved += not np.array_equal(G @ W, per_column)
    assert moved > 0
