import math

import numpy as np
import pytest

from cocyclespan import E2, E3
from cocyclespan import kernels
from cocyclespan.kernels import (_BLOCK, _LN2, _extend_level, _log_singvals, _rescale_batch,
                                 level_singvals, lipschitz_bnb, minimax_grid2,
                                 products_level_numpy, sigma12_2x2, word_singvals)
from cocyclespan.rational2 import pair_quadratic
from cocyclespan.spannability import TAU_SPAN, _angles_to_unit, _stack_f
from cocyclespan.wordspace import enumerate_words, product


class TestScaledProducts:
    def test_level_products_match_direct(self):
        units, exps = products_level_numpy(E3().stacked(), 5)
        assert np.array_equal(exps, np.round(exps))
        for rank, word in enumerate(enumerate_words(2, 5)):
            direct = np.eye(2)
            for s in word:
                direct = E3().generators[s - 1] @ direct
            reconstructed = np.ldexp(units[rank], int(exps[rank]))
            assert np.abs(direct - reconstructed).max() <= 1e-12 * max(
                1.0, np.abs(direct).max())
            assert np.array_equal(reconstructed, product(E3(), word).matrix)

    @pytest.mark.parametrize("ell,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_level_sweep_matches_one_level_calls(self, ell, d):
        gens = np.random.default_rng(10 * ell + d).standard_normal((ell, d, d))
        levels = level_singvals(gens, 6)
        assert len(levels) == 7
        for m, (logs1, logs2) in enumerate(levels):
            ref1, ref2 = word_singvals(gens, m)
            assert np.array_equal(logs1, ref1)
            assert (logs2 is None and ref2 is None) or np.array_equal(logs2, ref2)

    def test_sigma_closed_form(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((64, 2, 2))
        s1, s2 = sigma12_2x2(M)
        sv = np.linalg.svd(M, compute_uv=False)
        assert np.abs(s1 - sv[:, 0]).max() <= 1e-10
        assert np.abs(s2 - sv[:, 1]).max() <= 1e-10


class TestBitwiseOracles:
    """The einsum-free kernels against the expressions they replaced, bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_extend_level_equals_einsum(self, d, ell):
        rng = np.random.default_rng(100 * d + ell)
        R = _BLOCK + 7  # one full block and a partial one
        gens = rng.standard_normal((ell, d, d))
        units = rng.standard_normal((R, d, d))
        gens[rng.random(gens.shape) < 0.3] = 0.0  # signed zeros: -0.0 products
        units[rng.random(units.shape) < 0.3] = -0.0
        exps = rng.integers(-40, 40, R).astype(float)
        ref = np.einsum("jab,rbc->rjac", gens, units).reshape(-1, d, d)
        ref_exps = np.repeat(exps, ell)
        _rescale_batch(ref, ref_exps)
        new, new_exps = _extend_level(gens, units, exps.copy())
        assert new.tobytes() == ref.tobytes()
        assert new_exps.tobytes() == ref_exps.tobytes()

    @pytest.mark.parametrize("ell", [1, 2, 4, 8])
    def test_minimax_grid_equals_full_fold(self, ell):
        K = np.random.default_rng(ell).standard_normal((ell, 2, 2))
        assert minimax_grid2(K, 300) == _full_fold(K, 300)

    @pytest.mark.parametrize("G,ell,seed", [(251, 1, 4), (251, 2, 909), (2000, 4, 0)])
    def test_minimax_grid_row_blocks_have_no_one_row_tail(self, G, ell, seed):
        # blocks of 250 rows would leave a one-row tail at G = 251, and a
        # one-row matmul may take another BLAS path: with these seeds the
        # grid minimum lies in that row and its bits would change
        K = np.random.default_rng(seed).standard_normal((ell, 2, 2))
        assert minimax_grid2(K, G) == _full_fold(K, G)


def _full_fold(K, G):
    """(min, iw, iu) of max_K |w^T A_K u| over the whole G x G grid at once."""
    th = 2.0 * np.pi * np.arange(G) / G
    U = np.stack([np.cos(th), np.sin(th)])
    acc = np.full((G, G), -np.inf)
    for A in K:
        acc = np.maximum(acc, np.abs(U.T @ (A @ U)))
    iw, iu = np.unravel_index(np.argmin(acc), acc.shape)
    return float(acc[iw, iu]), int(iw), int(iu)


class TestStreamedLevel:
    """`word_singvals` streams Lambda(n) in prefix blocks with the whole level's bits."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_stream_equals_whole_level(self, monkeypatch, ell, d):
        # block 7: ell = 3 streams chunks of 2 head rows of 3 words each, and
        # its head levels have odd size, so the last chunk is ragged; n below
        # the block depth (ell = 2: 2, ell = 1: every n) streams from Lambda(0)
        monkeypatch.setattr(kernels, "_STREAM", 7)
        gens = np.random.default_rng(10 * ell + d).standard_normal((ell, d, d))
        for n in range(8):
            units, exps = products_level_numpy(gens, n)
            ref1, ref2 = _log_singvals(units, exps * _LN2)
            logs1, logs2 = word_singvals(gens, n)
            assert logs1.tobytes() == ref1.tobytes()
            assert (logs2 is None and ref2 is None) or logs2.tobytes() == ref2.tobytes()

    @pytest.mark.parametrize("block,n", [(128, 14), (kernels._STREAM, 20)])
    def test_extend_level_never_sees_more_than_a_block(self, monkeypatch, block, n):
        monkeypatch.setattr(kernels, "_STREAM", block)
        rows = []

        def counted(gens, units, exps):
            rows.append(len(units) * len(gens))
            return _extend_level(gens, units, exps)

        monkeypatch.setattr(kernels, "_extend_level", counted)
        logs1, _ = word_singvals(E3().stacked(), n)
        assert len(logs1) == 2**n and rows
        assert max(rows) <= block


class TestBackendAgreement:
    """Each vectorised kernel against an independent reference implementation."""

    def test_word_singvals_cross_backend(self):
        logs1, logs2 = word_singvals(E3().stacked(), 8)
        for rank, word in enumerate(enumerate_words(2, 8)):
            sp = product(E3(), word)
            sv = np.linalg.svd(sp.unit, compute_uv=False)
            assert abs(logs1[rank] - (sp.logscale + math.log(sv[0]))) <= 1e-10
            assert abs(logs2[rank] - (sp.logscale + math.log(sv[1]))) <= 1e-10

    def test_minimax_grid_cross_backend(self):
        K = E2().stacked()
        G = 120
        ref = np.empty((G, G))
        for iw in range(G):
            tw = 2.0 * math.pi * iw / G
            w = np.array([math.cos(tw), math.sin(tw)])
            for iu in range(G):
                tu = 2.0 * math.pi * iu / G
                u = np.array([math.cos(tu), math.sin(tu)])
                ref[iw, iu] = max(abs(w @ A @ u) for A in K)
        val, iw, iu = minimax_grid2(K, G)
        assert abs(val - ref.min()) <= 1e-12
        assert abs(ref[iw, iu] - ref.min()) <= 1e-12


def _skew(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def _random_b(rng, r, d):
    """Normalised stack of r seeded d x d matrices: Gaussian for d = 2; for d = 3,
    I plus a random rotation generator plus noise, whose images span with room."""
    if d == 2:
        B = rng.standard_normal((r, 2, 2))
    else:
        B = np.stack([(1.0 + rng.uniform(-0.3, 0.3)) * np.eye(3)
                      + _skew(rng.uniform(-1.0, 1.0, 3))
                      + 0.15 * rng.uniform(-1.0, 1.0, (3, 3)) for _ in range(r)])
    return B / np.linalg.norm(B, 2, axis=(1, 2))[:, None, None]


class TestLipschitzBnb:
    """The certified floor against a brute-force grid dense enough that it is
    within eps of the true minimum: brute_min - 2 eps <= floor <= brute_min."""

    def _check(self, f, lip, m, eps, tau, brute_points):
        floor, x, evals, capped = lipschitz_bnb(f, lip, np.zeros(m), np.full(m, np.pi),
                                                tau, eps)
        brute_min = float(f(brute_points).min())
        assert not capped and evals > 0
        assert brute_min > tau
        assert brute_min - 2.0 * eps <= floor <= brute_min
        assert floor > tau and f(x[None])[0] - eps <= floor

    def test_circle_matches_brute_grid(self):
        rng = np.random.default_rng(21)
        th = np.linspace(0.0, np.pi, 20_001)[:, None]  # spacing 1.6e-4 <= eps / lip
        for _ in range(5):
            B = _random_b(rng, 3, 2)
            lip = 2.0 * len(B)
            self._check(lambda X: _stack_f(B, _angles_to_unit(X)), lip, 1, lip * 1e-3,
                        TAU_SPAN, th)

    def test_sphere_matches_brute_grid(self):
        rng = np.random.default_rng(22)
        g = np.linspace(0.0, np.pi, 630)  # spacing 5e-3 per axis: |du| <= 5e-3 <= eps / lip
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        for _ in range(3):
            B = _random_b(rng, 5, 3)  # four images would share a plane at some u
            lip = 2.0 * len(B)
            self._check(lambda X: _stack_f(B, _angles_to_unit(X)), lip, 2, lip * 1e-2,
                        TAU_SPAN, pts)

    def test_pair_quadratic_max_matches_brute_grid(self):
        rng = np.random.default_rng(23)
        th = np.linspace(0.0, np.pi, 20_001)[:, None]
        for _ in range(5):
            B = rng.standard_normal((4, 2, 2))
            Q = np.array([[float(x) for x in pair_quadratic(B[i], B[j])]
                          for i in range(4) for j in range(i + 1, 4)])
            lip = max(2.0 * np.linalg.norm([[a, b / 2], [b / 2, c]], 2) for a, b, c in Q)

            def f(X):
                x, y = np.cos(X[:, 0]), np.sin(X[:, 0])
                return np.abs(Q @ np.stack([x * x, x * y, y * y])).max(axis=0)

            self._check(f, lip, 1, lip * 1e-3, 0.0, th)

    def test_stops_at_value_below_tau(self):
        # f vanishes at theta = 1: the search returns a point there and a floor <= tau
        f = lambda X: np.abs(np.sin(X[:, 0] - 1.0))
        floor, x, _evals, capped = lipschitz_bnb(f, 1.0, [0.0], [np.pi], 1e-8, 1e-3)
        assert not capped and floor <= 1e-8 and abs(x[0] - 1.0) <= 1e-8
