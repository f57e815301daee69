"""The integer M_k sweep and the integer root decisions against Fraction oracles.

The oracles below are the Fraction arithmetic the integer code replaced: an
echelon basis over Q with one Fraction per entry, level products over the
generators read as Fractions, exact Gram-Schmidt over Q, and the root vector
of an irrational pair computed from Fraction coefficients. Every rank, pivot,
rational row, float basis bit and witness bit must agree.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cocyclespan import GeneratorSystem
from cocyclespan.errors import InputError
from cocyclespan.hypotheses import irreducibility_verdict, power_system
from cocyclespan.linalg import SubspaceBasis, canonical_sign, span_basis
from cocyclespan.rational2 import (_RationalSpan, _orthonormal_float, _times, integer_matrices,
                                   pair_quadratic)
from cocyclespan.spannability import NOT_SPANNABLE, mk_bases, spannable_at

from _helpers import rational
from test_spannability import d3_block_triangular, d3_rotated_triangular


class FractionSpan:
    """The Fraction echelon basis: rows (pivot, row) with row[pivot] == 1."""

    def __init__(self):
        self.rows = []

    def add(self, vec) -> bool:
        v = [Fraction(float(x)) if not isinstance(x, Fraction) else x for x in vec]
        for pivot, row in self.rows:
            if v[pivot] != 0:
                c = v[pivot]
                v = [vi - c * ri for vi, ri in zip(v, row)]
        for i, x in enumerate(v):
            if x != 0:
                self.rows.append((i, [xi / x for xi in v]))
                self.rows.sort(key=lambda pr: pr[0])
                return True
        return False


def fraction_orthonormal(rows) -> np.ndarray:
    ortho, cols = [], []
    for v in rows:
        for q, qq in ortho:
            c = sum(vi * qi for vi, qi in zip(v, q)) / qq
            v = [vi - c * qi for vi, qi in zip(v, q)]
        ortho.append((v, sum(vi * vi for vi in v)))
        top = max(abs(vi) for vi in v)
        col = np.array([float(vi / top) for vi in v])
        cols.append(col / np.linalg.norm(col))
    return np.stack(cols, axis=1)


def fraction_levels(system, k_max):
    """(rows, basis, took Gram-Schmidt) of M_1..M_k_max, the way Fractions built them."""
    d = system.dim
    full = d * d
    gens_q = [[[Fraction(float(x)) for x in row] for row in A] for A in system.generators]
    out, rat = [], None
    for k in range(1, k_max + 1):
        if rat is not None and len(rat.rows) == full:
            out.append(out[-1])
            continue
        if rat is None:
            vecs = [A.ravel() for A in system.generators]
        else:
            frs = [[row[i * d:(i + 1) * d] for i in range(d)] for _, row in rat.rows]
            vecs = [[sum(A[i][c] * B[c][j] for c in range(d)) for i in range(d) for j in range(d)]
                    for A in gens_q for B in frs]
        first = rat is None
        rat = FractionSpan()
        for v in vecs:
            rat.add(v)
        floats = span_basis(vecs if first else
                            [np.array([float(x) for x in row]) for _, row in rat.rows], ambient=full)
        exact_gs = floats.dim != len(rat.rows)
        if exact_gs:
            floats = SubspaceBasis(ambient=full, dim=len(rat.rows),
                                   basis=fraction_orthonormal([row for _, row in rat.rows]))
        basis = np.stack([floats.basis[:, j].reshape(d, d) for j in range(floats.dim)])
        out.append((list(rat.rows), basis, exact_gs))
    return out


def random_system(rng, ell, d, entries):
    """ell d x d generators: dyadic k/16, or 2- or 3-decimal k/100, k/1000 entries."""
    top, den = {"dyadic": (48, 16.0), "2dec": (299, 100.0), "3dec": (2999, 1000.0)}[entries]
    while True:
        try:
            return GeneratorSystem(tuple(rng.integers(-top, top + 1, (ell, d, d)) / den))
        except InputError:
            continue


def seeded_systems():
    rng = np.random.default_rng(1902)
    for d in (2, 3):
        for ell in (1, 2, 3, 4):
            for entries in ("dyadic", "2dec", "3dec"):
                yield f"d{d}-ell{ell}-{entries}", random_system(rng, ell, d, entries)
    # reaches Gram-Schmidt: over Q M_2 has rank 9, an SVD sees about 7
    yield "rotated-triangular", d3_rotated_triangular(np.random.default_rng(2024))
    # an invariant line: rank-deficient levels at every k
    yield "block-triangular", d3_block_triangular(np.random.default_rng(7))[0]
    yield "upper-triangular", GeneratorSystem((np.array([[2.0, 1.0], [0.0, 1.0]]),
                                               np.array([[1.0, 0.5], [0.0, 3.0]])))
    # entries near 1e-300 beside ones, and powers whose entries reach 1e+-300
    yield "tiny-entries", GeneratorSystem((np.array([[1.0, 1e-300], [3e-301, 2.0]]),
                                           np.array([[0.5, -1.0], [7e-299, 1.25]])))
    big = GeneratorSystem((np.array([[1e100, 3e99], [-2e99, 1e100]]),
                           np.array([[2e100, 1e100], [1e99, 5e99]])))
    small = GeneratorSystem((np.array([[1e-100, 3e-101], [-2e-101, 1e-100]]),
                             np.array([[0.1, 0.3], [0.7, 0.9]])))
    yield "huge-power", power_system(big, 3)
    yield "tiny-power", power_system(small, 3)


SYSTEMS = dict(seeded_systems())


class TestIntegerSweep:
    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_levels_match_the_fraction_sweep(self, name):
        system = SYSTEMS[name]
        k_max = 6 if system.ell <= 2 or system.dim == 2 else 3
        levels = list(mk_bases(system, k_max))
        for mk, (rows, basis, _) in zip(levels, fraction_levels(system, k_max)):
            assert [p for p, *_ in mk.rows] == [p for p, _ in rows]
            assert mk.dim == len(rows)
            assert rational(mk) == tuple([row[i:i + system.dim] for i in
                                         range(0, system.dim ** 2, system.dim)] for _, row in rows)
            assert mk.basis.tobytes() == basis.tobytes()
            for pivot, nums, den in mk.rows:  # the one integer form of each row
                assert den > 0 and nums[pivot] == den and math.gcd(*nums) == 1

    def test_the_cases_are_reached(self):
        seen = {"gram_schmidt": False, "saturated": False, "deficient": False}
        for system in SYSTEMS.values():
            for rows, _, exact_gs in fraction_levels(system, 3):
                seen["gram_schmidt"] |= exact_gs
                seen["saturated"] |= len(rows) == system.dim ** 2
                seen["deficient"] |= len(rows) < system.dim ** 2
        assert all(seen.values()), seen
        gs = fraction_levels(SYSTEMS["rotated-triangular"], 2)
        assert gs[1][2] and len(gs[1][0]) == 9

    def test_inexact_systems_keep_no_rows(self):
        exact = SYSTEMS["d2-ell2-3dec"]
        flagged = GeneratorSystem(exact.generators, exact=False)
        for a, b in zip(mk_bases(exact, 4), mk_bases(flagged, 4)):
            assert b.rows is None and rational(b) is None
            assert a.basis.tobytes() == b.basis.tobytes()

    def test_integer_generators(self):
        stack = np.array([[[0.75, -3.0], [1e-300, 5e-324]], [[1e300, 0.0], [-0.0, 2.5]]])
        mats, scale = integer_matrices(stack)
        assert scale == 2 ** 1074
        for M, A in zip(mats, stack):
            assert all(Fraction(n, scale) == Fraction(float(x)) for n, x in zip(M, A.ravel()))
        assert integer_matrices(np.array([[[2.0, 3.0], [-1.0, 7.0]]])) == ([[2, 3, -1, 7]], 1)


@st.composite
def _integer_vectors(draw):
    """Vectors of one length n <= 9: drawn ones, integer combinations of the
    earlier ones (dependent, so never new to the span) and zero vectors."""
    n = draw(st.integers(1, 9))
    entries = st.integers(-30, 30)
    vecs = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["drawn", "combination", "zero"] if vecs else ["drawn"]))
        if kind == "drawn":
            vecs.append(draw(st.lists(entries, min_size=n, max_size=n)))
        elif kind == "zero":
            vecs.append([0] * n)
        else:
            coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(vecs), max_size=len(vecs)))
            vecs.append([sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n)])
    return vecs


class TestIntegerRoutines:
    """The integer routines of `rational2` against the same steps in Fractions."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(_integer_vectors())
    def test_span_ranks_membership_and_row_form(self, vecs):
        rat, oracle = _RationalSpan(), FractionSpan()
        for v in vecs:
            assert rat.add(v) == oracle.add(v)
            assert rat.rank == len(oracle.rows)
        for (pivot, nums, den), (q_pivot, row) in zip(rat.rows, oracle.rows):
            assert pivot == q_pivot and [Fraction(x, den) for x in nums] == row
            assert den > 0 and nums[pivot] == den and math.gcd(*nums) == 1
        for v in vecs:  # every added vector now lies in the span
            assert not rat.add(v)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(_integer_vectors())
    def test_orthonormal_columns_span_the_fraction_rows(self, vecs):
        rat = _RationalSpan()
        for v in vecs:
            rat.add(v)
        if not rat.rank:
            return
        rows = [nums for _, nums, _ in rat.rows]
        Q = _orthonormal_float(rows)
        assert Q.shape == (len(vecs[0]), rat.rank)
        assert np.abs(Q.T @ Q - np.eye(rat.rank)).max() <= 1e-12
        projector = Q @ Q.T
        for row in rows:
            x = np.array([n / max(map(abs, row)) for n in row])
            assert np.linalg.norm(x - projector @ x) <= 1e-12 * np.linalg.norm(x)
        assert Q.tobytes() == fraction_orthonormal([[Fraction(n) for n in row]
                                                    for row in rows]).tobytes()

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.integers(2, 4).flatmap(lambda d: st.tuples(
        st.just(d), *[st.lists(st.integers(-2**70, 2**70), min_size=d * d, max_size=d * d)] * 2)))
    def test_times_is_the_fraction_product(self, case):
        d, A, B = case
        FA = [[Fraction(A[i * d + j]) for j in range(d)] for i in range(d)]
        FB = [[Fraction(B[i * d + j]) for j in range(d)] for i in range(d)]
        assert _times(A, B, d) == [sum(FA[i][c] * FB[c][j] for c in range(d))
                                   for i in range(d) for j in range(d)]


def fraction_surd_vector(q) -> np.ndarray:
    """The root vector of an irrational Fraction quadratic, as it was computed."""
    A, B, C = q
    disc = B * B - 4 * A * C
    t = (-float(B) + math.sqrt(float(disc))) / (2.0 * float(A))
    v = np.array([t, 1.0])
    return canonical_sign(v / np.linalg.norm(v))


def shared_surd_system(rng):
    """Generators a P + b I with dyadic a, b: every one has the irrational
    eigenlines of the integer matrix P, and M_k = span{P, I}."""
    while True:
        P = rng.integers(-9, 10, (2, 2)).astype(float)
        disc = int(np.trace(P) ** 2 - 4 * round(np.linalg.det(P)))
        if disc <= 0 or math.isqrt(disc) ** 2 == disc or P[1, 0] == 0:
            continue
        ell = int(rng.integers(2, 4))
        coeffs = rng.integers(-99, 100, (ell, 2)) / rng.choice([1.0, 8.0, 1024.0], (ell, 2))
        try:
            return GeneratorSystem(tuple(a * P + b * np.eye(2) for a, b in coeffs))
        except InputError:
            continue


class TestIntegerRoots:
    def test_irrational_line_witness_bits(self):
        rng = np.random.default_rng(19)
        dens = set()
        for _ in range(40):
            system = shared_surd_system(rng)
            quads = [(Fraction(c), Fraction(d) - Fraction(a), -Fraction(b))
                     for a, b, c, d in system.stacked().reshape(-1, 4).tolist()]
            first = next(q for q in quads if any(q))
            verdict = irreducibility_verdict(system)
            assert verdict.reducible and verdict.method == "d2_exact"
            u = span_basis([fraction_surd_vector(first)], ambient=2).basis
            assert verdict.witness.basis.tobytes() == u.tobytes()

            mk = next(iter(mk_bases(system, 1)))
            cert = spannable_at(system, 1)
            assert cert.status == NOT_SPANNABLE and cert.method == "d2_exact"
            pairs = [pair_quadratic(A, B) for i, A in enumerate(rational(mk))
                     for B in rational(mk)[i + 1:]]
            first = next(q for q in pairs if any(q))
            assert cert.witness.tobytes() == fraction_surd_vector(first).tobytes()
            dens.update(den for *_, den in mk.rows)
        # rows whose denominators are not powers of two were divided back out
        assert any(den & (den - 1) for den in dens)

    def test_rational_line_witness(self):
        # a shared rational line (1 : 1/3) under generators with dyadic entries
        P = np.array([[1.0, 0.0], [3.0, 1.0]])
        Pinv = np.array([[1.0, 0.0], [-3.0, 1.0]])
        mats = (P @ np.array([[2.0, 0.625], [0.0, 1.5]]) @ Pinv,
                P @ np.array([[0.75, -1.0], [0.0, 3.0]]) @ Pinv)
        system = GeneratorSystem(mats)
        verdict = irreducibility_verdict(system)
        assert verdict.reducible and verdict.method == "d2_exact"
        assert np.abs(np.abs(verdict.witness.basis[:, 0]) - np.array([1.0, 3.0]) / math.sqrt(10)
                      ).max() <= 1e-15
