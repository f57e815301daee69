import math

import numpy as np

from cocyclespan import E2, E3
from cocyclespan.kernels import (_qm_scan_general, minimax_grid2, products_level_numpy,
                                 qm_scan, sigma12_2x2, stack_min_grid2, stack_min_grid3,
                                 word_singvals)
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

    def test_sigma_closed_form(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((64, 2, 2))
        s1, s2 = sigma12_2x2(M)
        sv = np.linalg.svd(M, compute_uv=False)
        assert np.abs(s1 - sv[:, 0]).max() <= 1e-10
        assert np.abs(s2 - sv[:, 1]).max() <= 1e-10


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

    def test_qm_scan_cross_backend(self):
        units, exps = products_level_numpy(E3().stacked(), 4)
        ku, kexps = products_level_numpy(E3().stacked(), 1)
        logs, kl = exps * math.log(2.0), kexps * math.log(2.0)
        fast = qm_scan(units, logs, ku, kl)
        general = _qm_scan_general(units, logs, ku, kl)
        assert abs(fast[0] - general[0]) <= 1e-10
        assert fast[1:] == general[1:]

    def test_stack_grids_cross_backend(self):
        B = np.stack([M / np.linalg.norm(M, 2) for M in E2().generators])
        G = 1000
        lam = []
        for i in range(G):
            t = math.pi * i / G
            img = np.einsum("rab,b->ra", B, np.array([math.cos(t), math.sin(t)]))
            lam.append(np.linalg.eigvalsh(img.T @ img)[0])
        val, u = stack_min_grid2(B, G)
        i = round(math.atan2(u[1], u[0]) % math.pi * G / math.pi) % G
        assert abs(val - min(lam)) <= 1e-12
        assert abs(lam[i] - min(lam)) <= 1e-12

    def test_stack_grid3_matches_eigh(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((4, 3, 3))
        B /= np.linalg.norm(B, 2, axis=(1, 2))[:, None, None]
        val, u = stack_min_grid3(B, 2e-2)
        img = np.einsum("rab,b->ra", B, u)
        lam = np.linalg.eigvalsh(img.T @ img)[0]
        assert abs(val - lam) <= 1e-9
