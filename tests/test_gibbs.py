import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclespan import E1, E3, E5, kernels
from cocyclespan.errors import InputError
from cocyclespan.gibbs import kappa_floor, mixing_levels, psi_mixing_stat

from _helpers import D3, psi_sup, random_2x2_system


def test_one_step_mass_ratio_bounds():
    sys = E3()
    s = 1.0
    lo = min(np.linalg.svd(A, compute_uv=False)[-1] for A in sys.generators) ** s
    hi = sum(np.linalg.svd(A, compute_uv=False)[0] ** s for A in sys.generators)
    from cocyclespan.wordspace import enumerate_words, product
    for I in enumerate_words(2, 4):
        nI = product(sys, I).norm()
        total = sum(product(sys, I + (j,)).norm() ** s for j in (1, 2))
        ratio = total / nI**s
        assert lo * (1 - 1e-12) <= ratio <= hi * (1 + 1e-12)


class TestKappaFloor:
    def test_e5_raw_value_and_flag(self):
        rep = kappa_floor(E5(), 1.0, 1, 3)
        # scalar system: connector sum is exactly 0.4 + 0.2 for every pair,
        # but gamma vanishes so no certificate is possible
        assert abs(rep.raw_min - 0.6) <= 1e-12
        assert not rep.certified and rep.floor is None

    def test_e3_certified_floor(self):
        rep = kappa_floor(E3(), 1.0, 1, 5)
        assert rep.certified
        assert rep.floor >= 1.0 - 1e-9

    def test_e1_no_certificate(self):
        rep = kappa_floor(E1(), 1.0, 1, 4)
        assert abs(rep.raw_min - 1.0) <= 1e-12
        assert not rep.certified and rep.floor is None

    def test_random_irreducible_floors(self):
        rng = np.random.default_rng(99)
        count = 0
        while count < 50:
            sys = random_2x2_system(rng)
            from cocyclespan.hypotheses import irreducibility_verdict
            if irreducibility_verdict(sys).reducible:
                continue
            count += 1
            rep = kappa_floor(sys, 1.0, 1, 3)
            if rep.certified:
                assert rep.floor >= 1.0 - 1e-9


class TestPsiMixing:
    def test_e5_product_measure(self):
        rep = psi_mixing_stat(E5(), 1.0, 2, 3)
        assert rep.psi_hat <= 1e-12
        assert rep.verdict == "Pass"

    def test_uniform_at_s_zero(self):
        rep = psi_mixing_stat(E3(), 0.0, 2, 2)
        assert rep.psi_hat <= 1e-12

    def test_e3_decay_over_gaps(self):
        vals = [psi_mixing_stat(E3(), 1.0, 3, gap).psi_hat for gap in (2, 4, 6)]
        assert vals[0] >= vals[1] - 1e-9
        assert vals[1] >= vals[2] - 1e-9

    def test_one_sweep_of_levels(self, monkeypatch):
        calls = []
        extend = kernels._extend_level
        monkeypatch.setattr(kernels, "_extend_level",
                            lambda *args: calls.append(1) or extend(*args))
        psi_mixing_stat(E3(), 1.0, 3, 4)
        assert len(calls) == 2 * 3 + 4

    @staticmethod
    def _assert_matches_oracle(system, s, L, gap, k):
        # each prefix mass is folded once; the statistic keeps the bits of
        # folding it afresh for every pair that reads it
        lev = mixing_levels(system, s, L, gap, k)
        rep = psi_mixing_stat(system, s, L, gap, connector_k=k, levels=lev)
        psi, worst = psi_sup(lev, system.ell, L, gap, absolute=True)
        neg_floor, _ = psi_sup(lev, system.ell, L, k, absolute=False)
        assert rep.psi_hat.hex() == psi.hex()
        assert rep.worst_pair == worst
        assert rep.kappa_floor.hex() == (-neg_floor).hex()

    @pytest.mark.parametrize("s,L,gap,k", [(1.0, 3, 4, 1), (0.7, 2, 2, 2), (1.6, 4, 1, 3)])
    def test_prefix_masses_match_the_oracle_on_e3(self, s, L, gap, k):
        self._assert_matches_oracle(E3(), s, L, gap, k)

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.floats(0.0, 2.0),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    def test_prefix_masses_match_the_oracle(self, seed, ell, s, L, gap, k):
        system = random_2x2_system(np.random.default_rng(seed), ell)
        self._assert_matches_oracle(system, s, L, gap, k)

    def test_kappa_floor_positive(self):
        rep = psi_mixing_stat(E3(), 1.0, 2, 3)
        assert rep.kappa_floor > 0
        assert rep.c0_estimate >= 1.0


@pytest.mark.parametrize("call,message", [
    (lambda: kappa_floor(E3(), 1.0, 0, 3), "need k >= 1 and L >= 1"),
    (lambda: kappa_floor(E3(), 1.0, 1, 0), "need k >= 1 and L >= 1"),
    (lambda: kappa_floor(D3, 1.0, 1, 1), "the singular value constant is defined for d = 2"),
    (lambda: kappa_floor(E3(), 2.5, 1, 1), "s must lie in [0, 2]"),
])
def test_kappa_floor_messages(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message
