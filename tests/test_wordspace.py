import numpy as np
import pytest

from cocyclespan import E1, E2, E3
from cocyclespan.errors import InputError
from cocyclespan.wordspace import enumerate_words, parse_word, product, word_str


class TestWords:
    def test_enumerate_small(self):
        assert [word_str(w) for w in enumerate_words(2, 1)] == ["1", "2"]
        assert [word_str(w) for w in enumerate_words(2, 2)] == ["11", "12", "21", "22"]
        assert list(enumerate_words(3, 0)) == [()]

    def test_word_string_roundtrip(self):
        assert parse_word("121", 2) == (1, 2, 1)
        assert parse_word("", 4) == ()
        assert word_str((1, 10, 3), 12) == "1,10,3"
        assert parse_word("1,10,3", 12) == (1, 10, 3)

    def test_symbol_range(self):
        with pytest.raises(InputError):
            parse_word("13", 2)


class TestProduct:
    def test_empty_word(self):
        p = product(E2(), ())
        assert np.allclose(p.matrix, np.eye(2))
        assert p.logscale == 0.0

    def test_later_symbols_multiply_left(self):
        # word "12": A_2 A_1 = R H
        p = product(E2(), (1, 2))
        assert np.allclose(p.matrix, [[0.0, -0.5], [2.0, 0.0]])

    def test_rotation_period_four(self):
        p = product(E1(), (1, 1, 1, 1))
        assert np.abs(p.matrix - np.eye(2)).max() <= 1e-12

    def test_unit_norm_window(self):
        sys3 = E3()
        for w in enumerate_words(2, 9):
            if sum(w) % 5 == 0:  # sample
                p = product(sys3, w)
                nrm = float(np.linalg.norm(p.unit, "fro"))
                assert 0.5 <= nrm <= 2.0

    def test_unit_max_entry_window(self):
        # canonical readout: the largest |entry| of every unit lies in (0.5, 1],
        # and a product continued from a prefix has the bits of the whole
        for sys in (E1(), E2(), E3()):
            for w in enumerate_words(sys.ell, 7):
                p = product(sys, w)
                assert 0.5 < np.abs(p.unit).max() <= 1.0
                q = product(sys, w[3:], product(sys, w[:3]))
                assert q.unit.tobytes() == p.unit.tobytes() and q.exponent == p.exponent

    def test_concatenation_law_500(self):
        rng = np.random.default_rng(29)
        for sys in (E2(), E3()):
            for _ in range(250):
                n1, n2 = int(rng.integers(0, 7)), int(rng.integers(0, 7))
                I = tuple(int(x) for x in rng.integers(1, 3, n1))
                J = tuple(int(x) for x in rng.integers(1, 3, n2))
                pij = product(sys, I + J)
                pi, pj = product(sys, I), product(sys, J)
                lhs = pij.matrix
                rhs = pj.matrix @ pi.matrix
                assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    def test_order_distinguishes_noncommuting(self):
        sys = E2()
        p12 = product(sys, (1, 2)).matrix
        p21 = product(sys, (2, 1)).matrix
        assert not np.allclose(p12, p21)

    def test_norm_bounds(self):
        sys = E3()
        sig_min = min(np.linalg.svd(A, compute_uv=False)[-1] for A in sys.generators)
        sig_max = max(np.linalg.svd(A, compute_uv=False)[0] for A in sys.generators)
        for w in enumerate_words(2, 6):
            nrm = product(sys, w).norm()
            assert sig_min**6 * (1 - 1e-9) <= nrm <= sig_max**6 * (1 + 1e-9)


@pytest.mark.parametrize("call,message", [
    (lambda: parse_word("1x", 2), "cannot parse word '1x'"),
    (lambda: enumerate_words(0, 1), "need ell >= 1 and n >= 0"),
    (lambda: enumerate_words(2, -1), "need ell >= 1 and n >= 0"),
])
def test_messages(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message
