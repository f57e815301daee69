import math

import numpy as np

from cocyclespan import E1, E2, E3, E5, GeneratorSystem
from cocyclespan.quasimult import empirical_qm, gamma_minimax, qm_constant_phi
from cocyclespan.spannability import spannable_at
from cocyclespan.thermo import PotentialSpec, potential_value
from cocyclespan.wordspace import enumerate_words, product

# Frozen 2000x2000 (u, w) grid oracle values, computed independently before the
# build (dense evaluation of max_K |w^T A_K u| over the product of circles).
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

    def test_d3_abstains(self):
        gens = 0.5 * np.random.default_rng(5).standard_normal((2, 3, 3))
        g = gamma_minimax(GeneratorSystem(list(gens)), 2)
        assert g.value == 0.0 and not g.certified and g.argmin is None

    def test_spannable_implies_positive_gamma(self):
        for sys in (E2(), E3()):
            assert spannable_at(sys, 1).spannable
            assert gamma_minimax(sys, 1).value > 0.0


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
        assert qm_constant_phi(E3(), 1, 0.0).value == 1.0

    def test_s_one_is_gamma(self):
        c = qm_constant_phi(E3(), 1, 1.0)
        assert abs(c.value - c.gamma) <= 1e-15

    def test_e3_s15_hand_value(self):
        c = qm_constant_phi(E3(), 1, 1.5)
        # dets 0.04 and 0.09: min 0.04, factor 0.04^0.5 = 0.2
        assert abs(c.value - math.sqrt(c.min_det) * math.sqrt(c.gamma)) <= 1e-15
        assert abs(math.sqrt(c.min_det) - 0.2) <= 1e-12

    def test_continuous_at_one(self):
        low = qm_constant_phi(E3(), 1, 1.0)
        # approach from above: formula at s -> 1+ is min_det^0 gamma^1
        high = low.min_det ** 0.0 * low.gamma ** 1.0
        assert abs(low.value - high) <= 1e-12

    def test_gamma_zero_flag(self):
        c = qm_constant_phi(E1(), 1, 1.0)
        assert c.value == 0.0 and not c.has_bound

    def test_lemma_inequality_500_triples(self):
        rng = np.random.default_rng(52)
        sys = E3()
        consts = {s: qm_constant_phi(sys, 1, s) for s in (0.3, 1.0, 1.7)}
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
                rhs = c.value * potential_value(mI, spec) * potential_value(mJ, spec)
                assert lhs >= rhs - 1e-12
