import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclespan import E2, E3, GeneratorSystem
from cocyclespan import kernels
from cocyclespan.kernels import (_LN2, _count_classes, _extend_level, _log_det, _log_sigma1,
                                 _normalise, dense_products, level_singvals, lipschitz_bnb,
                                 minimax_grid2, sigma1_2x2, word_singvals)
from cocyclespan.spannability import TAU_SPAN, _angles_to_unit, _stack_f
from cocyclespan.thermo import pressure_brackets
from cocyclespan.wordspace import enumerate_words, product, word_unrank


def _canonical_level(gens, n):
    """Canonical (units as an (ell^n, d, d) stack, exps) of Lambda(n), as `dense_products`
    builds them before it scales them back."""
    gens = np.ascontiguousarray(gens, dtype=float)
    units, exps = kernels._level(gens, [None] * n, kernels._cadence(gens) if n > 1 else 1)
    return np.ascontiguousarray(units.transpose(2, 0, 1)), exps


class TestScaledProducts:
    def test_level_products_match_direct(self):
        units, exps = _canonical_level(E3().stacked(), 5)
        assert np.array_equal(exps, np.round(exps))
        for rank, word in enumerate(enumerate_words(2, 5)):
            direct = np.eye(2)
            for s in word:
                direct = E3().generators[s - 1] @ direct
            reconstructed = np.ldexp(units[rank], int(exps[rank]))
            assert np.abs(direct - reconstructed).max() <= 1e-12 * max(
                1.0, np.abs(direct).max())
            assert np.array_equal(reconstructed, product(E3(), word).matrix)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(ell=st.integers(1, 3), d=st.integers(2, 3), n=st.integers(0, 4),
           nums=st.lists(st.integers(-8, 8), min_size=27, max_size=27))
    def test_dense_products_equal_fraction_products(self, ell, d, n, nums):
        # dyadic entries (numerators over 8): every float product and sum of a
        # word of at most 4 letters is exact, so the engine must match bit for bit
        exact = [[[Fraction(nums[(j * d * d + a * d + b) % 27], 8) for b in range(d)]
                  for a in range(d)] for j in range(ell)]
        got = dense_products(np.array(exact, dtype=float), n)
        assert got.shape == (ell**n, d, d)
        for rank, word in enumerate(enumerate_words(ell, n)):
            P = [[Fraction(int(a == b)) for b in range(d)] for a in range(d)]
            for s in word:
                A = exact[s - 1]
                P = [[sum(A[a][t] * P[t][b] for t in range(d)) for b in range(d)]
                     for a in range(d)]
            assert got[rank].tolist() == P

    @pytest.mark.parametrize("ell,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_level_sweep_matches_one_level_calls(self, ell, d):
        gens = np.random.default_rng(10 * ell + d).standard_normal((ell, d, d))
        levels = list(level_singvals(gens, 6))
        assert len(levels) == 7
        for m, logs1 in enumerate(levels):
            assert np.array_equal(logs1, word_singvals(gens, m)[0])

    def test_sigma_closed_form(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((64, 2, 2))
        s1 = sigma1_2x2(M.transpose(1, 2, 0))
        sv = np.linalg.svd(M, compute_uv=False)
        assert np.abs(s1 - sv[:, 0]).max() <= 1e-10


class TestBitwiseOracles:
    """The einsum-free kernels against the expressions they replaced, bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_extend_level_equals_einsum(self, d, ell):
        rng = np.random.default_rng(100 * d + ell)
        R = 4103
        gens = rng.standard_normal((ell, d, d))
        units = rng.standard_normal((R, d, d))
        gens[rng.random(gens.shape) < 0.3] = 0.0  # signed zeros: -0.0 products
        units[rng.random(units.shape) < 0.3] = -0.0
        exps = rng.integers(-40, 40, R).astype(float)
        ref = np.einsum("jab,rbc->rjac", gens, units)  # word (r, j) in rank order
        new = _extend_level(gens, units.transpose(1, 2, 0).copy())  # column j * R + r
        assert new.shape == (d, d, ell * R)
        assert new.reshape(d, d, ell, R).transpose(3, 2, 0, 1).tobytes() == ref.tobytes()
        # the canonical readouts of both agree bit for bit as well
        ref_units = ref.reshape(-1, d, d).transpose(1, 2, 0).copy()
        ref_exps = np.repeat(exps, ell)
        new_exps = np.tile(exps, ell)
        _normalise(ref_units, ref_exps)
        _normalise(new, new_exps)
        top = np.abs(new).max(axis=(0, 1))
        assert np.all(((top > 0.5) & (top <= 1.0)) | (top == 0.0))  # zeros: some products vanish
        back = new.reshape(d, d, ell, R).transpose(0, 1, 3, 2).reshape(d, d, -1)
        assert back.tobytes() == ref_units.tobytes()
        assert new_exps.reshape(ell, R).T.tobytes() == ref_exps.tobytes()

    @pytest.mark.parametrize("ell", [1, 2, 4, 8])
    def test_minimax_grid_equals_full_fold(self, ell):
        K = np.random.default_rng(ell).standard_normal((ell, 2, 2))
        assert minimax_grid2(K, 300) == _full_fold(K, 300)

    @pytest.mark.parametrize("ell,seed", [(1, 181), (2, 110), (4, 2444)])
    def test_minimax_grid_row_blocks_have_no_one_row_tail(self, ell, seed):
        # blocks of _GRID_ROWS rows would leave a one-row tail at this G, and a
        # one-row matmul may take another BLAS path: with these seeds the grid
        # minimum lies in that row, and a matrix-vector product moves its bits
        G = 2 * kernels._GRID_ROWS + 1
        K = np.random.default_rng(seed).standard_normal((ell, 2, 2))
        full = _full_fold(K, G)
        assert full[1] == G - 1
        assert minimax_grid2(K, G) == full

    @pytest.mark.parametrize("count", [2, 3, 8])
    def test_minimax_grid_at_the_shipped_size(self, count):
        from cocyclespan.quasimult import GRID_ANGLES
        K = np.random.default_rng(count).standard_normal((count, 2, 2))
        assert minimax_grid2(K, GRID_ANGLES // 2) == _full_fold(K, GRID_ANGLES // 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_period_holds_the_full_period_minimum(self, k):
        # |w^T A u| has period pi in each angle: the one-period grid's angles
        # pi j / G are the first half of the full period's 2 pi j / (2 G), bit
        # for bit, so its minimum is at least the full grid's, and within the
        # rounding of cos and sin at theta and theta + pi of it. That rounding
        # is absolute, about an ulp of max_K |A_K|: relative to a minimum 1e-5
        # of the norm it reads up to 1.4e-10 on these systems, 6.4e-16 of the norm
        G = 150
        for seed in range(20):
            rng = np.random.default_rng([k, seed])
            K = dense_products(rng.standard_normal((int(rng.integers(1, 4)), 2, 2)), k)
            half = np.pi * np.arange(G) / G
            assert half.tobytes() == (2.0 * np.pi * np.arange(2 * G) / (2 * G))[:G].tobytes()
            one = minimax_grid2(K, G)[0]
            full = _full_fold(K, 2 * G, period=2.0 * np.pi)[0]
            scale = max(np.linalg.norm(A, 2) for A in K)
            assert full <= one <= full + 1e-14 * scale, (seed, one, full)


def _full_fold(K, G, period=np.pi):
    """(min, iw, iu) of max_K |w^T A_K u| over the whole G x G grid of angles
    period * j / G at once."""
    th = period * np.arange(G) / G
    U = np.stack([np.cos(th), np.sin(th)])
    acc = np.full((G, G), -np.inf)
    for A in K:
        acc = np.maximum(acc, np.abs(U.T @ (A @ U)))
    iw, iu = np.unravel_index(np.argmin(acc), acc.shape)
    return float(acc[iw, iu]), int(iw), int(iu)


def _whole_level(gens, n):
    """(log sigma_1, log sigma_2 or None) of Lambda(n) read from the whole level's products."""
    units, exps = _canonical_level(gens, n)
    if gens.shape[1] == 2:
        logs1 = exps * _LN2 + np.log(sigma1_2x2(units.transpose(1, 2, 0)))
        classes, index = _count_classes(len(gens), n)
        return logs1, _log_det(gens, classes)[index] - logs1
    return exps * _LN2 + np.log(np.linalg.svd(units, compute_uv=False)[:, 0]), None


class TestStreamedLevel:
    """`word_singvals` and `level_singvals` stream in prefix blocks with the whole levels' bits."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_stream_equals_whole_level(self, monkeypatch, ell, d):
        # n runs below, at and above one block's depth t (ell^t <= block):
        # block 7 gives t = 2 at ell = 2 and t = 1 at ell = 3; block 128 gives
        # t = 7 and 4; 2^16 holds every level whole; ell = 1 is one word per
        # level at any n. A chunk holds ell^t words, ell^(t - b) head rows that
        # grow b levels: with `_CHUNK_ROWS` 2 or 4 at block 128 a chunk grows
        # several rows (ell = 3, n = 9: b = 5, head 81 rows, chunks of 3 rows),
        # at 64 (as shipped) one row each. The rows divide the head level, so
        # no chunk is ragged. The reference rescales at the derived cadence;
        # cadence 1 rescales every level, and neither moves a bit of the readout
        gens = np.random.default_rng(10 * ell + d).standard_normal((ell, d, d))
        refs = [_whole_level(gens, n) for n in range(10)]
        for block, chunk_rows in ((7, 64), (128, 2), (128, 4), (128, 64), (1 << 16, 64)):
            for cadence in (None, 1):
                monkeypatch.setattr(kernels, "_STREAM", block)
                monkeypatch.setattr(kernels, "_CHUNK_ROWS", chunk_rows)
                if cadence is not None:
                    monkeypatch.setattr(kernels, "_cadence", lambda gens: cadence)
                for n, (ref1, ref2) in enumerate(refs):
                    b, t = kernels._chunk_depth(ell, n), kernels._tail_depth(ell, n)
                    # the head fits a block unless one-row chunks (b = t) leave it larger
                    assert ell**t <= block and (n - b <= t or b == t)
                    assert ell ** (n - b) % ell ** (t - b) == 0
                    logs1, log_dets = word_singvals(gens, n)
                    assert logs1.tobytes() == ref1.tobytes()
                    assert ((log_dets is None and ref2 is None)
                            or log_dets.log_sigma2(logs1).tobytes() == ref2.tobytes())
                # the level sweep streams Lambda(n - b + 1..9) in the same chunks
                assert ([level.tobytes() for level in level_singvals(gens, 9)]
                        == [ref1.tobytes() for ref1, _ in refs])
                monkeypatch.undo()

    def test_unscaled_readout_has_the_normalised_bits(self):
        # `_log_sigma1` scales sigma_1 by 2^-k instead of the four entries;
        # entries near 2^+-60 (the drift between rescales), exact zeros, and a
        # top entry at a power of two, with one exponent per unit or per row
        rng = np.random.default_rng(60)
        R = 4096
        units = rng.standard_normal((2, 2, R)) * np.ldexp(1.0, rng.integers(-62, 63, R))
        units[rng.random((2, 2, R)) < 0.2] = 0.0
        units[:, :, 0] = [[0.0, 0.0], [0.0, np.ldexp(1.0, -61)]]
        units[:, :, 1] = [[np.ldexp(1.0, 60), 0.0], [0.0, -np.ldexp(1.0, 59)]]
        units[:, :, 2] = [[0.0, np.ldexp(-3.0, 58)], [np.ldexp(1.0, -60), 0.0]]
        units[:, :, 3] = 0.0
        units[1, 0, 3] = 0.5
        units[:, :, 4:][:, :, np.all(units[:, :, 4:] == 0.0, axis=(0, 1))] = 1.0
        for rows in (R, R // 4, 1):
            exps = rng.integers(-2000, 2000, rows).astype(float)
            held = units.copy(), exps.copy()
            got = _log_sigma1(units, exps)
            assert units.tobytes() == held[0].tobytes() and exps.tobytes() == held[1].tobytes()
            ref_units, ref_exps = units.copy(), np.tile(exps, R // rows)
            _normalise(ref_units, ref_exps)
            assert got.tobytes() == (ref_exps * _LN2 + np.log(sigma1_2x2(ref_units))).tobytes()
            assert _log_sigma1(ref_units, ref_exps).tobytes() == got.tobytes()

    @pytest.mark.parametrize("gens", [
        np.array([[[-0.0, 1.0], [1.0, -0.0]], [[0.5, -0.25], [-0.0, -1.5]]]),
        np.array([[[0.75, -0.5], [-0.0, -1.25]], [[-1.5, 0.25], [-0.0, 0.5]]]),
        np.random.default_rng(31).standard_normal((2, 3, 3))],
        ids=["signed-zeros", "triangular", "d3"])
    def test_sweep_bits_do_not_depend_on_the_buffer_or_the_zero_sign_add(self, monkeypatch,
                                                                          gens):
        # `_sweep` runs under a ufunc buffer of its own, and a chunk's d = 2
        # levels leave out the zero-sign add of `_extend_level`, so their zeros
        # may read -0.0 (the triangular pair keeps an exact zero in every
        # product); neither may move a bit of log sigma_1 against whole levels,
        # which take the add. At block 128 the deeper levels grow in chunks
        n = 11
        cadence = kernels._cadence(gens)
        whole = [_log_sigma1(*kernels._level(gens, [None] * m, cadence)).tobytes()
                 for m in range(n + 1)]
        unsigned = []

        def spy(gens, units, out=None, term=None, signed=True):
            new = _extend_level(gens, units, out, term, signed)
            if not signed:
                unsigned.append(bool(np.any((new == 0.0) & np.signbit(new))))
            return new

        monkeypatch.setattr(kernels, "_extend_level", spy)
        sizes = (512, 8192, 65536)
        for block, size, outer in itertools.product((128, kernels._STREAM), sizes, sizes):
            monkeypatch.setattr(kernels, "_STREAM", block)
            monkeypatch.setattr(kernels, "_SWEEP_BUFFER", size)
            with np.errstate():
                np.setbufsize(outer)
                levels = [level.tobytes() for level in level_singvals(gens, n)]
                deepest = word_singvals(gens, n)[0].tobytes()
                assert np.getbufsize() == outer  # the sweep's own buffer is scoped
            assert levels == whole and deepest == whole[n], (block, size, outer)
        # the d = 2 chunks did skip the add and left a -0.0 behind; d = 3 never skips it
        assert any(unsigned) if gens.shape[1] == 2 else not unsigned

    def test_whole_levels_keep_the_zero_sign_add(self):
        # every term of entry (0, 0) of A times the identity is -0.0: the sum is
        # -0.0 without the add, and a whole level holds +0.0
        gens = np.array([[[-0.0, -1.0], [1.0, -0.0]]])
        assert np.signbit(_extend_level(gens, np.eye(2)[:, :, None], signed=False)[0, 0, 0])
        units, _ = _canonical_level(gens, 1)
        assert units[0, 0, 0] == 0.0 and not np.signbit(units[0, 0, 0])
        assert not np.signbit(dense_products(gens, 1)[0, 0, 0])

    @pytest.mark.parametrize("cadence", [1, 2, 5])
    def test_cadence_leaves_products_unchanged(self, monkeypatch, cadence):
        for gens in (E3().stacked(), np.random.default_rng(7).standard_normal((3, 3, 3))):
            ref = _canonical_level(gens, 7)
            levels = list(level_singvals(gens, 7))
            monkeypatch.setattr(kernels, "_cadence", lambda gens: cadence)
            units, exps = _canonical_level(gens, 7)
            assert units.tobytes() == ref[0].tobytes() and exps.tobytes() == ref[1].tobytes()
            top = np.abs(units).max(axis=(1, 2))
            assert np.all((top > 0.5) & (top <= 1.0))
            for l1, r1 in zip(level_singvals(gens, 7), levels, strict=True):
                assert l1.tobytes() == r1.tobytes()
            monkeypatch.undo()

    @pytest.mark.parametrize("block,n", [(128, 14), (1 << 16, 20), (kernels._STREAM, 20)])
    def test_extend_level_never_sees_more_than_a_block(self, monkeypatch, block, n):
        monkeypatch.setattr(kernels, "_STREAM", block)
        rows = []

        def counted(gens, units, *bufs):
            rows.append(units.shape[-1] * len(gens))
            return _extend_level(gens, units, *bufs)

        monkeypatch.setattr(kernels, "_extend_level", counted)
        logs1, _ = word_singvals(E3().stacked(), n)
        assert len(logs1) == 2**n and rows
        assert max(rows) <= block

    @pytest.mark.parametrize("ell,n", [(2, 12), (3, 8)])
    def test_log_sigma2_over_any_rank_range(self, monkeypatch, ell, n):
        # blocks of 128 words: head rows of 128 (ell = 2) or 81 (ell = 3) words,
        # so these ranges cross head rows, start and end inside them, or hold
        # one word
        gens = np.random.default_rng(ell + n).standard_normal((ell, 2, 2))
        ref = _whole_level(gens, n)[1]
        monkeypatch.setattr(kernels, "_STREAM", 128)
        logs1, log_dets = word_singvals(gens, n)
        span = len(log_dets.tail_class)
        assert span < len(logs1)
        assert log_dets.log_sigma2(logs1).tobytes() == ref.tobytes()
        rng = np.random.default_rng(n)
        ranges = [(0, 1), (span - 1, span + 1), (span, 3 * span), (5, 4 * span - 3),
                  (len(logs1) - 1, len(logs1))]
        ranges += [tuple(sorted(rng.integers(0, len(logs1) + 1, 2))) for _ in range(40)]
        ranges += [(r, r + 1) for r in rng.integers(0, len(logs1), 40)]
        out = np.empty(len(logs1))
        for lo, hi in ranges:
            got = log_dets.log_sigma2(logs1, lo, hi, out=out)
            assert got.tobytes() == ref[lo:hi].tobytes(), (lo, hi)


# the unit determinant a*d - b*c of many of its products cancels to 0 or to noise
CANCELLING = np.array([[[2.041, -2.556], [0.418, -0.568]],
                       [[-0.453, -0.216], [-2.02, -0.232]]])


class TestLogSigma2:
    """log sigma_2 = log |det A_I| - log sigma_1, with log |det A_I| from letter counts."""

    def test_cancelling_system_is_finite(self):
        logs1, log_dets = word_singvals(CANCELLING, 16)
        logs2 = log_dets.log_sigma2(logs1)
        assert np.all(np.isfinite(logs2)) and np.all(logs2 <= logs1)

    def test_sv_s_at_one_is_the_norm_potential(self):
        system = GeneratorSystem(tuple(CANCELLING))
        sv, norm = (pressure_brackets(system, kind, 16, [1.0], [None])[0]
                    for kind in ("sv_s", "norm_s"))
        assert math.isfinite(sv.log_zn) and sv.log_zn == norm.log_zn

    def test_sampled_words_match_mpmath(self):
        n = 16
        logs1, log_dets = word_singvals(CANCELLING, n)
        logs2 = log_dets.log_sigma2(logs1)
        gap = logs1 - logs2
        ranks = list(np.random.default_rng(3).integers(0, 2**n, 40))
        ranks += [int(np.argmax(gap)), int(np.argmin(gap))]
        with mpmath.workdps(50):
            gens = [mpmath.matrix([[mpmath.mpf(float(x)) for x in row] for row in A])
                    for A in CANCELLING]
            for rank in ranks:
                M = mpmath.eye(2)
                for s in word_unrank(rank, 2, n):
                    M = gens[s - 1] * M
                det = abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
                fro2 = sum(M[i, j] ** 2 for i in range(2) for j in range(2))
                s1 = mpmath.sqrt((fro2 + mpmath.sqrt(fro2**2 - 4 * det**2)) / 2)
                assert abs(logs1[rank] - float(mpmath.log(s1))) <= 1e-12
                assert abs(logs2[rank] - float(mpmath.log(det / s1))) <= 1e-12


class TestExtremeScale:
    """Generators scaled by 2^+-200 shift every exponent by n * k and move no unit bit."""

    @pytest.mark.parametrize("k", [200, -200])
    def test_scaled_generators_shift_exponents(self, k):
        n = 9
        for gens in (E3().stacked(), np.random.default_rng(11).standard_normal((2, 3, 3))):
            units, exps = _canonical_level(gens, n)
            logs1, _ = word_singvals(gens, n)
            scaled = np.ldexp(gens, k)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                su, se = _canonical_level(scaled, n)
                sl1, log_dets = word_singvals(scaled, n)
                sl2 = None if log_dets is None else log_dets.log_sigma2(sl1)
            assert su.tobytes() == units.tobytes()
            assert se.tobytes() == (exps + n * k).tobytes()
            assert np.all(np.isfinite(sl1)) and (sl2 is None or np.all(np.isfinite(sl2)))
            assert np.abs(sl1 - (logs1 + n * k * _LN2)).max() <= 1e-9


class TestBackendAgreement:
    """Each vectorised kernel against an independent reference implementation."""

    def test_word_singvals_cross_backend(self):
        logs1, log_dets = word_singvals(E3().stacked(), 8)
        logs2 = log_dets.log_sigma2(logs1)
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
            tw = math.pi * iw / G
            w = np.array([math.cos(tw), math.sin(tw)])
            for iu in range(G):
                tu = math.pi * iu / G
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
        circle = lambda X: np.stack([np.cos(X[:, 0]), np.sin(X[:, 0])], axis=-1)
        for _ in range(5):
            B = _random_b(rng, 3, 2)
            lip = 2.0 * len(B)
            self._check(lambda X: _stack_f(B, circle(X)), lip, 1, lip * 1e-3, TAU_SPAN, th)

    def test_sphere_matches_brute_grid(self):
        rng = np.random.default_rng(22)
        g = np.linspace(0.0, np.pi, 630)  # spacing 5e-3 per axis: |du| <= 5e-3 <= eps / lip
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        for _ in range(3):
            B = _random_b(rng, 5, 3)  # four images would share a plane at some u
            lip = 2.0 * len(B)
            self._check(lambda X: _stack_f(B, _angles_to_unit(X)), lip, 2, lip * 1e-2,
                        TAU_SPAN, pts)

    def test_stops_at_value_below_tau(self):
        # f vanishes at theta = 1: the search returns a point there and a floor <= tau
        f = lambda X: np.abs(np.sin(X[:, 0] - 1.0))
        floor, x, _evals, capped = lipschitz_bnb(f, 1.0, [0.0], [np.pi], 1e-8, 1e-3)
        assert not capped and floor <= 1e-8 and abs(x[0] - 1.0) <= 1e-8
