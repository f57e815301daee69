import functools
import itertools
import json
import math
from fractions import Fraction

import mpmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclespan.cli as cli
from _helpers import potential_value, random_2x2_system
from cocyclespan import E1, E2, E3, E5, GeneratorSystem
from cocyclespan.gibbs import kappa_floor
from cocyclespan.quasimult import (GRID_ANGLES, connector_constant, empirical_qm,
                                   gamma_minimax)
from cocyclespan.spannability import spannable_at
from cocyclespan.thermo import PotentialSpec
from cocyclespan.wordspace import enumerate_words, product

# Frozen 2000x2000 (u, w) grid oracle values, computed independently before the
# build (dense evaluation of max_K |w^T A_K u| over the product of circles); the
# one-period grid of today, 1000 x 1000 at the same step, meets them to 1e-12.
E2_K1_RAW_GRID = 0.39719328210497645
E2_K1_CERTIFIED = 0.38776850414420705
E3_K1_RAW_GRID = 0.08894899391930379
E3_K1_CERTIFIED = 0.08674987906179094


class TestGammaMinimax:
    def test_rotation_vanishes(self):
        g = gamma_minimax(E1(), 1)
        assert g.value == 0.0 and g.certified

    def test_e2_pinned_grid_oracle(self):
        g = gamma_minimax(E2(), 1)
        assert g.certified
        assert abs(g.raw_grid_min - E2_K1_RAW_GRID) <= 1e-12
        assert abs(g.value - E2_K1_CERTIFIED) <= 1e-12

    def test_e2_k2_positive(self):
        g = gamma_minimax(E2(), 2)
        assert g.value > 0.0

    def test_e3_pinned_grid_oracle(self):
        g = gamma_minimax(E3(), 1)
        assert abs(g.raw_grid_min - E3_K1_RAW_GRID) <= 1e-12
        assert abs(g.value - E3_K1_CERTIFIED) <= 1e-12

    @pytest.mark.parametrize("j,k", [(-270, 3), (-200, 4), (200, 3), (250, 4)])
    def test_scaled_generators_scale_gamma_exactly(self, j, k):
        # the grid divides the generators by a power of two, exactly, so 2^j E3
        # has E3's raw minimum and value times 2^(j k), bit for bit, where the
        # squared entries of its products would under- or overflow
        base = gamma_minimax(E3(), k)
        g = gamma_minimax(GeneratorSystem(tuple(np.ldexp(A, j) for A in E3().generators)), k)
        assert g.raw_grid_min == math.ldexp(base.raw_grid_min, j * k)
        assert g.value == math.ldexp(base.value, j * k)
        assert 0.0 < g.value < g.raw_grid_min

    def test_gamma_past_the_float_range_is_zero(self):
        # 2^300 E3 at k = 4: f reaches past the float range, so gamma is 0
        g = gamma_minimax(GeneratorSystem(tuple(np.ldexp(A, 300) for A in E3().generators)), 4)
        assert g.value == 0.0 and g.raw_grid_min == math.inf

    def test_d3_abstains(self):
        gens = 0.5 * np.random.default_rng(5).standard_normal((2, 3, 3))
        g = gamma_minimax(GeneratorSystem(list(gens)), 2)
        assert g.value == 0.0 and not g.certified and g.argmin is None

    def test_spannable_implies_positive_gamma(self):
        for sys in (E2(), E3()):
            assert spannable_at(sys, 1).spannable
            assert gamma_minimax(sys, 1).value > 0.0


class TestGammaOracle:
    """The certified gamma is a lower bound of f(w, u) = max_K |w^T A_K u| at every
    point, with f evaluated from plain products of the generators."""

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), ell=st.integers(1, 3), k=st.integers(1, 3))
    def test_certified_gamma_below_sampled_minimax(self, seed, ell, k):
        rng = np.random.default_rng(seed)
        system = random_2x2_system(rng, ell)
        g = gamma_minimax(system, k)
        assert g.certified and 0.0 <= g.value <= g.raw_grid_min
        kmats = np.array([functools.reduce(np.matmul, (system.generators[j] for j in word))
                          for word in itertools.product(range(ell), repeat=k)])
        # 10^4 points: half over the whole torus, half within a grid step of the
        # reported argmin, where f comes closest to the certified value
        h = 2.0 * np.pi / GRID_ANGLES
        at = np.array([math.atan2(v[1], v[0]) for v in g.argmin])
        th = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, (5000, 2)),
                             at + rng.uniform(-h, h, (5000, 2))])
        w, u = (np.stack([np.cos(t), np.sin(t)], axis=1) for t in th.T)
        f = np.abs(np.einsum("ni,kij,nj->kn", w, kmats, u)).max(axis=0)
        assert g.value <= f.min()


class TestEmpiricalQM:
    def test_rotation_ratios_exactly_one(self):
        rep = empirical_qm(E1(), 1, 3)
        assert all(v == 1.0 for v in rep.empirical_c.values())
        assert rep.gamma.value == 0.0

    def test_scalar_system_exact(self):
        rep = empirical_qm(E5(), 1, 3)
        for v in rep.empirical_c.values():
            assert abs(v - 0.4) <= 1e-12

    def test_e2_bounded_below_by_gamma(self):
        rep = empirical_qm(E2(), 1, 4)
        for v in rep.empirical_c.values():
            assert v >= rep.gamma.value - 1e-9

    def test_witnesses_reproduce_ratio(self):
        rep = empirical_qm(E3(), 1, 3)
        for n, (I, K, J) in rep.witnesses.items():
            nI = product(E3(), I).norm()
            nJ = product(E3(), J).norm()
            nIKJ = product(E3(), I + K + J).norm()
            assert abs(nIKJ / (nI * nJ) - rep.empirical_c[n]) <= 1e-9


def best_connector(system, I, J, k):
    """The quasi-multiplicativity connector: argmax over Lambda(k) of the ratio."""
    nI = product(system, I).norm()
    nJ = product(system, J).norm()
    best, arg = -math.inf, None
    for K in enumerate_words(system.ell, k):
        r = product(system, I + K + J).norm() / (nI * nJ)
        if r > best:
            best, arg = r, K
    return arg, best


class TestQMConstantPhi:
    def test_s_zero_is_one(self):
        assert connector_constant(E3(), 1).value(0.0, "sv_s") == 1.0

    def test_s_one_is_gamma(self):
        c = connector_constant(E3(), 1)
        assert abs(c.value(1.0, "sv_s") - c.gamma.value) <= 1e-15

    def test_e3_s15_hand_value(self):
        c = connector_constant(E3(), 1)
        # dets 0.04 and 0.09: min 0.04, factor 0.04^0.5 = 0.2
        assert abs(c.value(1.5, "sv_s") - math.sqrt(c.min_det) * math.sqrt(c.gamma.value)) <= 1e-15
        assert abs(math.sqrt(c.min_det) - 0.2) <= 1e-12

    def test_continuous_at_one(self):
        c = connector_constant(E3(), 1)
        # approach from above: formula at s -> 1+ is min_det^0 gamma^1
        high = c.min_det ** 0.0 * c.gamma.value ** 1.0
        assert abs(c.value(1.0, "sv_s") - high) <= 1e-12

    def test_gamma_zero_flag(self):
        c = connector_constant(E1(), 1)
        assert c.value(1.0, "sv_s") == 0.0 and not c.gamma.value > 0.0

    def test_lemma_inequality_500_triples(self):
        rng = np.random.default_rng(52)
        sys = E3()
        const = connector_constant(sys, 1)
        consts = {s: const.value(s, "sv_s") for s in (0.3, 1.0, 1.7)}
        for _ in range(500):
            nI, nJ = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            I = tuple(int(x) for x in rng.integers(1, 3, nI))
            J = tuple(int(x) for x in rng.integers(1, 3, nJ))
            K, _ = best_connector(sys, I, J, 1)
            mI = product(sys, I).matrix
            mJ = product(sys, J).matrix
            mIKJ = product(sys, I + K + J).matrix
            for s, c in consts.items():
                spec = PotentialSpec("sv_s", s)
                lhs = potential_value(mIKJ, spec)
                rhs = c * potential_value(mI, spec) * potential_value(mJ, spec)
                assert lhs >= rhs - 1e-12


def _norms(system):
    """|A_w| of `product(system, w)`, each word continued from its cached prefix."""
    @functools.cache
    def scaled(word):
        return product(system, word[-1:], scaled(word[:-1]) if len(word) > 1 else None)
    return lambda word: scaled(word).norm()


class TestConnectorMinimum:
    """The one pair reduction, through both of its callers, against a pair-by-pair reference."""

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(st.integers(1, 3), st.integers(2, 3), st.integers(1, 3), st.integers(1, 2),
           st.integers(0, 2**32 - 1), st.floats(0.0, 2.0))
    def test_matches_brute_force(self, ell, d, n, k, seed, s):
        system = GeneratorSystem(tuple(np.random.default_rng(seed).standard_normal((ell, d, d))))
        norm = _norms(system)
        words = [list(enumerate_words(ell, m)) for m in range(max(n, k) + 1)]
        rep = empirical_qm(system, k, n)
        for m in range(1, n + 1):
            # ratio[I, J] = max over K of |A_IKJ| / (|A_I| |A_J|), pair by pair
            worst = min(max(norm(I + K + J) for K in words[k]) / (norm(I) * norm(J))
                        for I in words[m] for J in words[m])
            assert abs(rep.empirical_c[m] - worst) <= 1e-12 * worst
            I, K, J = rep.witnesses[m]
            assert abs(norm(I + K + J) / (norm(I) * norm(J)) - worst) <= 1e-12 * worst
        if d == 2:
            # min over |I|, |J| <= n of sum over K of |A_IKJ|^s / (|A_I| |A_J|)^s
            ksum = min(sum(norm(I + K + J) ** s for K in words[k]) / (norm(I) * norm(J)) ** s
                       for li in range(1, n + 1) for lj in range(1, n + 1)
                       for I in words[li] for J in words[lj])
            assert abs(kappa_floor(system, s, k, n).raw_min - ksum) <= 1e-12 * ksum


# a dyadic 2x2 matrix as four numerators over 8, invertible
DYADIC_2X2 = st.lists(st.integers(-8, 8), min_size=4, max_size=4).filter(
    lambda e: e[0] * e[3] != e[1] * e[2])


def _integer_level(nums, n):
    """Every product of n of the integer 2x2 matrices `nums` (as (a, b, c, d))."""
    level = [(1, 0, 0, 1)]
    for _ in range(n):
        level = [(a * p + b * r, a * q + b * t, c * p + d * r, c * q + d * t)
                 for p, q, r, t in level for a, b, c, d in nums]
    return level


def _log_partitions(nums, n, specs):
    """log Z_n = log of the sum of phi over every product of n of the matrices
    nums / 8, in mpmath at the caller's precision, for each (kind, s) of `specs`:
    from exact integer products N, since phi(N / 8^n) = 8^(-n s) phi(N)."""
    words = []
    for a, b, c, d in _integer_level(nums, n):
        fro2, det = mpmath.mpf(a * a + b * b + c * c + d * d), mpmath.mpf(abs(a * d - b * c))
        s1 = mpmath.sqrt((fro2 + mpmath.sqrt(fro2 * fro2 - 4 * det * det)) / 2)
        words.append((mpmath.log(s1), mpmath.log(det)))
    out = {}
    for kind, s in specs:
        # log phi^s = x log sigma_1 + y log |det|
        if kind == "norm_s" or s <= 1.0:
            x, y = s, 0
        else:
            x, y = (2 - s, s - 1) if s <= 2.0 else (0, s / 2)
        out[kind, s] = (mpmath.log(mpmath.fsum(mpmath.exp(x * l1 + y * ld) for l1, ld in words))
                        - n * s * mpmath.log(8))
    return out


class TestConnectorOracle:
    """Z_{n+k+m} >= C(s) Z_n Z_m for the constant every pressure lower end and kappa
    floor reads (`ConnectorConstant.value`), with the partition sums taken over
    exact integer products, sigma_1 at 50 digits; and `min_det` against the
    exact min over |K| = k of |det A_K|. Gamma, and with it C(s), is 0 at
    ell = 1; 15 of the 40 draws have a positive C."""

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(nums=st.lists(DYADIC_2X2, min_size=1, max_size=3), k=st.integers(1, 2),
           n=st.integers(1, 3), m=st.integers(1, 3))
    def test_partition_sums_clear_the_connector_constant(self, nums, k, n, m):
        system = GeneratorSystem(tuple(np.array(e, dtype=float).reshape(2, 2) / 8 for e in nums))
        const = connector_constant(system, k)
        exact = min(Fraction(abs(a * d - b * c), 64**k) for a, b, c, d in _integer_level(nums, k))
        assert abs(Fraction(const.min_det) - exact) <= Fraction(1, 10**15) * exact
        specs = [(kind, s) for kind in ("norm_s", "sv_s") for s in (0.5, 1.0, 1.5, 1.9, 2.5)
                 if const.value(s, kind) > 0.0]
        with mpmath.workdps(50):
            log_z = {length: _log_partitions(nums, length, specs) for length in {n, m, n + k + m}}
            for spec in specs:
                c = mpmath.mpf(const.value(*reversed(spec)))
                assert log_z[n + k + m][spec] >= mpmath.log(c) + log_z[n][spec] + log_z[m][spec]


def _run(system, command, options):
    gens = [[repr(float(x)) for x in A.ravel()] for A in system.generators]
    cfg = cli.parse_config(json.dumps({"system": {"dimension": system.dim, "generators": gens},
                                       "command": command, "options": options}))
    return cli.run_command(cfg)[0]["result"]


S_VALUES = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)


class TestConnectorConstant:
    """C(s) is computed once: the pressure lower ends and the kappa floor read the same bits."""

    # seed 5 gives a pair with a positive gamma at k = 1
    @pytest.mark.parametrize("system", [E3(), E2(), random_2x2_system(np.random.default_rng(5))],
                             ids=["E3", "E2", "rng"])
    def test_reports_use_value(self, system):
        const = connector_constant(system, 1)
        assert const.gamma.value > 0.0
        for kind in ("sv_s", "norm_s"):
            res = _run(system, "pressure", {"potential": kind, "s_grid": list(S_VALUES),
                                            "n": 4, "qm": "auto", "k_qm": 1})
            assert [br["qm"]["C"].hex() for br in res["brackets"]] == [
                const.value(s, kind).hex() for s in S_VALUES]
        for s in S_VALUES:
            if s <= 2.0:
                res = _run(system, "mixing", {"s": s, "L": 1, "gap": 1})
                assert res["kappa_certificate"]["c_of_s"]["value"].hex() == \
                    const.value(s, "sv_s").hex()

    def test_min_det_past_the_float_range_is_inf(self):
        # (min_j |det A_j|)^k = (1e12)^26 overflows: it reads inf, as the det of
        # the 26-letter product did, and raises nothing
        system = GeneratorSystem((np.array([[1e7, 1.0], [0.0, 1e5]]),))
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert connector_constant(system, 26).min_det == math.inf

    def test_no_constant_without_gamma(self):
        const = connector_constant(E1(), 1)
        assert all(const.value(s, kind) == 0.0 for s in S_VALUES for kind in ("sv_s", "norm_s"))
        kf = kappa_floor(E1(), 1.0, 1, 2)
        assert kf.floor is None and not kf.certified and not kf.c_of_s["has_bound"]
        # a d = 3 gamma abstains: no constant, so a `qm: auto` bracket has no lower end
        d3 = GeneratorSystem(tuple(0.5 * np.random.default_rng(5).standard_normal((2, 3, 3))))
        assert connector_constant(d3, 1).value(1.0, "norm_s") == 0.0
        res = _run(d3, "pressure", {"potential": "norm_s", "n": 3, "qm": "auto"})
        assert not res["brackets"][0]["lower_valid"]
