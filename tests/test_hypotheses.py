import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cocyclespan.cli as cli
from cocyclespan import E1, E2, E3, GeneratorSystem
from cocyclespan.errors import InputError
from cocyclespan.fixtures import ROT90
from cocyclespan.hypotheses import (IRREDUCIBLE, REDUCIBLE, WITNESS_TOL, HypothesisReport,
                                    SubCheck, algebra_dimension, check_hypotheses,
                                    irreducibility_verdict, power_system, wedge_system)
from cocyclespan.linalg import invariance_residual, span_basis, subspace_distance
from cocyclespan.rational2 import _RationalSpan, _times, integer_matrices
from cocyclespan.wordspace import enumerate_words, product

from _helpers import algebra_structure_verdict, random_2x2_system, random_reducible_system

DIAG_PAIR = GeneratorSystem((np.diag([2.0, 3.0]), np.diag([1.0, 4.0])))

# Each generator swaps the lines span(1, 3) and span(1, -1), so the square
# fixes both: the cocycle is irreducible, its square is not.
LINE_SWAP_PAIR = GeneratorSystem((
    np.array([[0.07421875, -0.00390625], [0.16015625, -0.07421875]]),
    np.array([[0.02734375, -0.00390625], [0.06640625, -0.02734375]]),
))

# Passes the input gate, but its length-4 product of rank 16 does not.
GATE_EDGE_PAIR_4X4 = GeneratorSystem((
    np.array([[0.125, -1.0, 0.75, 0.5], [0.75, 1.125, 0.625, -0.375],
              [-0.125, 0.625, 0.25, -0.375], [-0.75, -0.125, 1.0, 0.25]]),
    np.array([[0.75, -0.25, 0.875, -0.625], [0.0, 0.5, -1.0, 0.5],
              [-0.875, -0.5, 1.0, 0.0], [-0.875, 1.0, 0.5, 2.0]]),
))


def _dyadic_systems():
    """Tuples with entries k/64: every product up to length 3 is exact in float64."""
    def tuples(dims):
        ell, d = dims
        entry = st.integers(-64, 64).map(lambda k: k / 64.0)
        mat = st.lists(entry, min_size=d * d, max_size=d * d).map(
            lambda xs: np.array(xs).reshape(d, d))
        return st.lists(mat, min_size=ell, max_size=ell)
    return st.tuples(st.integers(1, 3), st.integers(2, 3)).flatmap(tuples)


class TestPowerAndWedge:
    def test_rotation_square(self):
        ps = power_system(E1(), 2)
        assert ps.ell == 1
        assert np.allclose(ps.generators[0], -np.eye(2))

    def test_power_one_is_identity_map(self):
        ps = power_system(E2(), 1)
        for A, B in zip(ps.generators, E2().generators):
            assert np.allclose(A, B)

    def test_power_two_lexicographic(self):
        H, R = E2().generators
        ps = power_system(E2(), 2)
        expect = [H @ H, R @ H, H @ R, R @ R]  # words 11, 12, 21, 22
        for A, B in zip(ps.generators, expect):
            assert np.allclose(A, B)

    def test_power_composition(self):
        base = power_system(E2(), 2)
        via_two = sorted(power_system(base, 2).generators, key=lambda m: tuple(m.ravel()))
        direct = sorted(power_system(E2(), 4).generators, key=lambda m: tuple(m.ravel()))
        for A, B in zip(via_two, direct):
            assert np.abs(A - B).max() <= 1e-10 * max(1.0, np.abs(B).max())

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(mats=_dyadic_systems(), t=st.integers(1, 3))
    def test_power_products_exact(self, mats, t):
        try:
            sys = GeneratorSystem(tuple(mats))
        except InputError:
            assume(False)
        ps = power_system(sys, t)
        for A, word in zip(ps.generators, enumerate_words(sys.ell, t), strict=True):
            direct = np.eye(sys.dim)
            for s in word:
                direct = sys.generators[s - 1] @ direct
            assert np.array_equal(A, direct)
            assert np.array_equal(product(sys, word).matrix, direct)

    def test_power_of_gate_passing_system_not_regated(self):
        with pytest.raises(InputError, match="generator 16 not invertible"):
            GeneratorSystem(power_system(GATE_EDGE_PAIR_4X4, 4).generators)
        rep = check_hypotheses(GATE_EDGE_PAIR_4X4, "theorem_1_1")
        assert [c.label for c in rep.checks][:3] == ["power t=1", "power t=2", "power t=4"]

    def test_wedge_system_d2(self):
        ws = wedge_system(E2(), 1)
        for A, B in zip(ws.generators, E2().generators):
            assert np.allclose(A, B)

    def test_wedge_of_power_commutes(self):
        sys3 = GeneratorSystem((
            np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 5.0]]),
            np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
        ))
        a = wedge_system(power_system(sys3, 2), 2)
        b = power_system(wedge_system(sys3, 2), 2)
        for A, B in zip(a.generators, b.generators):
            assert np.abs(A - B).max() <= 1e-10 * max(1.0, np.abs(B).max())


class TestAlgebraDimension:
    def test_identity_alone(self):
        out = algebra_dimension(GeneratorSystem((np.eye(2),)))
        assert out.dim == 1 and not out.certified

    def test_e2_saturates(self):
        out = algebra_dimension(E2())
        assert out.dim == 4 and out.certified

    def test_rotation_only_sufficient(self):
        # {R} is irreducible over R, yet the algebra test alone cannot see it
        out = algebra_dimension(E1())
        assert out.dim == 2 and not out.certified


class TestVerdicts:
    def test_identity_reducible(self):
        v = irreducibility_verdict(GeneratorSystem((np.eye(2),)))
        assert v.status == REDUCIBLE
        assert np.allclose(np.abs(v.witness.basis.ravel()), [1, 0])

    def test_rotation_irreducible_exact(self):
        v = irreducibility_verdict(E1())
        assert v.status == IRREDUCIBLE and v.method == "d2_exact"

    def test_diag_pair_reducible(self):
        v = irreducibility_verdict(DIAG_PAIR)
        assert v.status == REDUCIBLE
        assert np.allclose(np.abs(v.witness.basis.ravel()), [1, 0])

    def test_witness_invariance_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sys = random_reducible_system(rng)
            v = irreducibility_verdict(sys)
            assert v.status == REDUCIBLE
            assert invariance_residual(sys.generators, v.witness) <= 1e-8

    def test_algebra_certificate_not_contradicted(self):
        v = algebra_structure_verdict(E2())
        assert v.status == IRREDUCIBLE and v.method == "algebra_dimension"

    def test_exact_vs_randomized_agreement_200(self):
        # the structure verdict decides d = 2 as well: status for status it is
        # the exact path's, on reducible and generic pairs alike
        rng = np.random.default_rng(404)
        for i in range(200):
            sys = random_reducible_system(rng) if i % 2 else random_2x2_system(rng)
            assert algebra_structure_verdict(sys).status == irreducibility_verdict(sys).status


def _exact_algebra_dimension(system: GeneratorSystem) -> int:
    """dim over Q of the unital algebra the generators' float entries span, in integers:
    each level multiplies the words the last one added by every generator, until none
    is new."""
    d = system.dim
    gens, _ = integer_matrices(system.stacked())
    span, eye = _RationalSpan(), [int(i % (d + 1) == 0) for i in range(d * d)]
    new = [eye] if span.add(eye) else []
    while new:
        new = [P for P in (_times(G, X, d) for G in gens for X in new) if span.add(P)]
    return span.rank


def _near_reducible_triple(eps: float) -> GeneratorSystem:
    """At eps = 0 both generators keep span(e1, e2); eps = A[2, 0] breaks the plane."""
    return GeneratorSystem((np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 1.0], [eps, 0.0, 2.0]]),
                            np.array([[0.5, 1.0, -1.0], [1.0, 0.2, 0.3], [0.0, 0.0, -1.5]])))


class TestRankTolerance:
    """`linalg.RANK_TOL` against exact algebra dimensions over Q.

    At eps = 1e-7 the closure's smallest singular value that is not noise sits
    between RANK_TOL = 1e-9 and 1e-6, so a rank cutoff of 1e-6 reads the full
    algebra as 8-dimensional with a radical, and the verdict goes Inconclusive.
    """

    def test_a_small_entry_still_makes_the_algebra_full(self):
        system = _near_reducible_triple(1e-7)
        assert _exact_algebra_dimension(system) == 9
        v = irreducibility_verdict(system)
        assert (v.status, v.method) == (IRREDUCIBLE, "algebra_dimension")
        assert algebra_dimension(system).dim == 9

    def test_without_it_the_plane_is_the_witness(self):
        system = _near_reducible_triple(0.0)
        assert _exact_algebra_dimension(system) == 7  # block triangular: 4 + 2 + 1
        v = irreducibility_verdict(system)
        assert v.status == REDUCIBLE
        assert subspace_distance(v.witness, span_basis(np.eye(3)[:2], ambient=3)) <= 1e-12


class TestCheckHypotheses:
    def test_e1_fails_at_power_two(self):
        rep = check_hypotheses(E1(), "theorem_1_1")
        assert rep.overall == "Fail"
        assert rep.failed_at == "power t=2"
        assert rep.witness is not None and rep.witness.dim == 1

    def test_e2_passes(self):
        rep = check_hypotheses(E2(), "theorem_1_1")
        assert rep.overall == "Pass"
        labels = [c.label for c in rep.checks]
        assert labels == ["power t=1", "power t=2", "wedge m=1"]

    def test_diag_pair_fails_at_t1(self):
        rep = check_hypotheses(DIAG_PAIR, "theorem_1_1")
        assert rep.overall == "Fail" and rep.failed_at == "power t=1"
        assert np.allclose(np.abs(rep.witness.basis.ravel()), [1, 0])

    def test_e3_corollary_passes(self):
        rep = check_hypotheses(E3(), "corollary_4_3")
        assert rep.overall == "Pass"
        assert any("translations absent" in w for w in rep.warnings)

    def test_line_swap_square_fails(self):
        rep = check_hypotheses(LINE_SWAP_PAIR, "corollary_4_3")
        assert rep.overall == "Fail"
        assert rep.failed_at == "irreducible square"

    def test_corollary_norm_gate(self):
        rep = check_hypotheses(E2(), "corollary_4_3")
        assert rep.overall == "Fail" and rep.failed_at == "norms < 1/2"

    def test_corollary_needs_d2(self):
        sys3 = GeneratorSystem((np.eye(3) * 0.4,))
        with pytest.raises(InputError):
            check_hypotheses(sys3, "corollary_4_3")

    def test_scaled_rotation_family_inconclusive_free(self):
        # scalar multiple of a rotation: exact path still decides irreducible
        sys = GeneratorSystem((0.3 * ROT90,))
        rep = check_hypotheses(sys, "theorem_1_1")
        assert rep.overall == "Fail"  # square is a negative scalar: reducible


def _realified(M):
    """A complex matrix written over R, on (Re z, Im z)."""
    M = np.asarray(M, dtype=complex)
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


# irreducible over C, so over R as well, while its algebra is M_2(C), of dimension 8
REALIFIED_PAIR = GeneratorSystem((_realified(np.diag([1.0, 2.0])),
                                  _realified([[1.0, 1.0 + 1.0j], [1.0, 0.0]])))


class TestAlgebraStructure:
    """A non-full algebra is decided by its trace-form radical and its commutant."""

    def test_realified_complex_pair_has_a_division_commutant(self):
        rep = check_hypotheses(REALIFIED_PAIR, "theorem_1_1")
        checks = {c.label: c.verdict for c in rep.checks}
        t1 = checks["power t=1"]
        assert (t1.status, t1.method, t1.notes) == (IRREDUCIBLE, "division_commutant",
                                                    ("dim A = 8, dim C = 2",))
        m2 = checks["wedge m=2"]
        assert m2.reducible and m2.residual <= WITNESS_TOL
        m3 = checks["wedge m=3"]
        assert m3.status == IRREDUCIBLE and m3.method != "algebra_dimension"
        assert not algebra_dimension(wedge_system(REALIFIED_PAIR, 3)).certified
        assert (rep.overall, rep.failed_at) == ("Fail", "wedge m=2")

    # three algebras of dimension 4 with commutants of dimension 4, so that
    # dim A * dim C = 16 each time: only the quaternions' is a division algebra
    LEFT_I = np.array([[0.0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    LEFT_J = np.array([[0.0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    UNIMODULAR = np.array([[1.0, 2, 0, 1], [0, 1, 1, 0], [0, 0, 1, 3], [0, 0, 0, 1]])
    ROTATIONS = np.block([[np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros((2, 2))],
                          [np.zeros((2, 2)), np.array([[1.0, -2.0], [1.0, 1.0]])]])

    @pytest.mark.parametrize("gens,status", [
        # H acting on itself by left multiplication: irreducible, C = H
        ((LEFT_I + np.eye(4), LEFT_J + 2 * np.eye(4)), IRREDUCIBLE),
        # M_2(R) on two copies of R^2: C = M_2(R), split by an idempotent
        ((np.kron([[1.0, 1.0], [0.0, 1.0]], np.eye(2)), np.kron([[0.0, 1.0], [1.0, 1.0]], np.eye(2))),
         REDUCIBLE),
        # one matrix with two pairs of complex eigenvalues: A = C = R[M], C x C;
        # it has no real eigenvector, yet an invariant plane
        ((UNIMODULAR @ ROTATIONS @ np.linalg.inv(UNIMODULAR),), REDUCIBLE),
    ])
    def test_the_commutants_trace_form_tells_a_division_algebra(self, gens, status):
        v = irreducibility_verdict(GeneratorSystem(gens))
        assert v.status == status and v.notes == ("dim A = 4, dim C = 4",)
        if status == REDUCIBLE:
            assert v.method == "commutant_kernel" and v.witness.dim == 2 and v.residual <= WITNESS_TOL
        else:
            assert v.method == "division_commutant"

    def test_a_radical_image_past_the_gate_leaves_the_commutant_kernel(self):
        # the seventh power of one block-triangular 7x7 matrix, whose eigenvalues
        # spread over 0.29..1.92: one matrix spans an algebra of dimension <= 7
        # (Cayley-Hamilton), but the float closure reads more, so its radical image
        # fails the gate; a commutant kernel commutes with M^7 whatever A is
        M = np.array([[-3, 2, -2, 4, -2, -4, 2], [1, 1, 4, 2, 2, 3, 3], [0, -1, -2, -4, 0, -2, 4],
                      [1, 3, -3, -4, 0, 3, 1], [0, 0, 0, 0, 2, 2, -4], [0, 0, 0, 0, -1, -2, 1],
                      [0, 0, 0, 0, 0, 3, 1]]) / 4.0
        power = power_system(GeneratorSystem((M,)), 7)
        assert algebra_dimension(power).dim > 7
        v = irreducibility_verdict(power)
        assert (v.status, v.method) == (REDUCIBLE, "commutant_kernel") and v.residual <= WITNESS_TOL
        assert v.notes == (f"dim A = {algebra_dimension(power).dim}, dim C = 7",)

    def test_a_pair_near_the_identity_names_both_dimensions(self):
        # within 1e-12 of I the closure's rank cut sees span(I) alone, while the
        # commutant, cut relative to the generators' differences, is R I: the
        # two disagree, and the verdict says so
        rng = np.random.default_rng(1)
        system = GeneratorSystem(tuple(np.eye(3) + 1e-12 * rng.standard_normal((3, 3)) for _ in range(2)))
        v = irreducibility_verdict(system)
        assert (v.status, v.method, v.witness) == ("Inconclusive", "commutant", None)
        assert v.notes[0].startswith("dim A = 1, dim C = 1: ")


    # (status, method, notes, residual.hex(), sha256 of the witness basis's bytes,
    # first 16 digits) of each structure verdict above, as first decided: the
    # radical, commutant and p(X) null spaces share one routine, and no bit moved
    PINNED = {
        "quaternions": ("IrreducibleCertified", "division_commutant", "dim A = 4, dim C = 4",
                        "0x0.0p+0", None),
        "split": ("ReducibleWitness", "commutant_kernel", "dim A = 4, dim C = 4",
                  "0x1.d2a407ae333dep-48", "5c0d614f673f804b"),
        "complex-pairs": ("ReducibleWitness", "commutant_kernel", "dim A = 4, dim C = 4",
                          "0x1.3f5c19b895243p-45", "c7d02e685d987f58"),
        "radical-power": ("ReducibleWitness", "commutant_kernel", "dim A = 15, dim C = 7",
                          "0x1.473b9798549cdp-51", "5bc6cd5919d83bc9"),
        "near-identity": ("Inconclusive", "commutant", "dim A = 1, dim C = 1: neither a "
                          "commutant kernel nor a division commutant with dim A · dim C = n^2",
                          "0x0.0p+0", None),
        "realified t=1": ("IrreducibleCertified", "division_commutant", "dim A = 8, dim C = 2",
                          "0x0.0p+0", None),
        "realified m=2": ("ReducibleWitness", "commutant_kernel", "dim A = 18, dim C = 3",
                          "0x1.a5b1ae4abc9abp-50", "7c377fe69ca4e415"),
    }

    def test_verdicts_and_witnesses_keep_their_bytes(self):
        M = np.array([[-3, 2, -2, 4, -2, -4, 2], [1, 1, 4, 2, 2, 3, 3], [0, -1, -2, -4, 0, -2, 4],
                      [1, 3, -3, -4, 0, 3, 1], [0, 0, 0, 0, 2, 2, -4], [0, 0, 0, 0, -1, -2, 1],
                      [0, 0, 0, 0, 0, 3, 1]]) / 4.0
        near = np.random.default_rng(1)
        systems = {
            "quaternions": GeneratorSystem((self.LEFT_I + np.eye(4), self.LEFT_J + 2 * np.eye(4))),
            "split": GeneratorSystem((np.kron([[1.0, 1.0], [0.0, 1.0]], np.eye(2)),
                                      np.kron([[0.0, 1.0], [1.0, 1.0]], np.eye(2)))),
            "complex-pairs": GeneratorSystem(
                (self.UNIMODULAR @ self.ROTATIONS @ np.linalg.inv(self.UNIMODULAR),)),
            "radical-power": power_system(GeneratorSystem((M,)), 7),
            "near-identity": GeneratorSystem(tuple(
                np.eye(3) + 1e-12 * near.standard_normal((3, 3)) for _ in range(2))),
        }
        verdicts = {name: irreducibility_verdict(sys) for name, sys in systems.items()}
        rep = check_hypotheses(REALIFIED_PAIR, "theorem_1_1")
        checks = {c.label: c.verdict for c in rep.checks}
        verdicts["realified t=1"] = checks["power t=1"]
        verdicts["realified m=2"] = checks["wedge m=2"]
        for name, v in verdicts.items():
            basis = (None if v.witness is None
                     else hashlib.sha256(v.witness.basis.tobytes()).hexdigest()[:16])
            got = (v.status, v.method, *v.notes, v.residual.hex(), basis)
            assert got == self.PINNED[name], name


# Both generators map the line u = (1/3, 1) to itself. A1 contracts it by about
# 1e-6 and stretches the other eigenline by about 3e3, so the last-bit error of
# the float vector u is amplified about 3e9 times by A1: the exact decision
# finds the root, but the witness line's invariance residual is near 2e-7.
ILL_CONDITIONED_LINE = GeneratorSystem((
    np.array([[3072.0 + 2.0**-20, -1024.0], [3.0, -1.0 + 2.0**-20]]),
    np.array([[8.0, -2.0], [3.0, 1.0]]),
))


def test_exact_root_whose_witness_fails_the_residual_check():
    v = irreducibility_verdict(ILL_CONDITIONED_LINE)
    assert (v.status, v.method, v.witness) == ("Inconclusive", "d2_exact", None)
    assert 1e-7 < v.residual < 1e-6
    assert v.notes == (f"candidate line failed invariance check ({v.residual:.2e})",)


def test_inconclusive_check_without_a_failure_makes_the_report_inconclusive():
    rep = check_hypotheses(ILL_CONDITIONED_LINE, "theorem_1_1")
    assert [c.label for c in rep.checks] == ["power t=1", "power t=2", "wedge m=1"]
    assert rep.checks[0].verdict.status == "Inconclusive" and all(c.passed for c in rep.checks)
    # every A_i A_j fixes the line (1, 3): the exact products find it, and its
    # residual on the rounded float products is far above WITNESS_TOL
    square = rep.checks[1].verdict
    assert (square.status, square.method, square.witness) == ("Inconclusive", "d2_exact", None)
    assert square.residual > 0.5
    assert (rep.overall, rep.failed_at, rep.witness) == ("Inconclusive", None, None)


def _fraction_power(system, t):
    """Length-t products of the generators in Fractions, in lexicographic word order."""
    gens = [[[Fraction(x) for x in row] for row in A.tolist()] for A in system.generators]
    out = []
    for word in enumerate_words(system.ell, t):
        P = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        for s in word:
            A = gens[s - 1]
            P = [[sum(A[i][k] * P[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        out.append(P)
    return out


def _fraction_invariant_line(mats) -> bool:
    """Whether the 2x2 Fraction matrices share a real invariant line, by brute
    force: the rational roots of the first non-scalar matrix's line quadratic,
    or its irrational pair through the proportional quadratics of the others."""
    quads = [(A[1][0], A[1][1] - A[0][0], -A[0][1]) for A in mats]
    nonzero = [q for q in quads if any(q)]
    if not nonzero:
        return True
    a, b, c = nonzero[0]
    disc = b * b - 4 * a * c
    if disc < 0:
        return False
    if a == 0:
        cands = [(Fraction(1), Fraction(0))] + ([(-c / b, Fraction(1))] if b else [])
    else:
        root = Fraction(math.isqrt(disc.numerator * disc.denominator), disc.denominator)
        if root * root != disc:  # irrational pair: every other quadratic proportional
            return all(q[0] * b == a * q[1] and q[0] * c == a * q[2] for q in nonzero[1:])
        cands = [((-b + sgn * root) / (2 * a), Fraction(1)) for sgn in (1, -1)]
    return any(all(q[0] * x * x + q[1] * x * y + q[2] * y * y == 0 for q in nonzero)
               for x, y in cands)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_exact_d2_power_cocycles_against_fraction_products(data):
    """For an exact d = 2 system, the power cocycle's integer products are its
    Fraction products, and its verdict finds a common invariant line exactly
    when those products share one, though entries up to 2^30 / 2^20 make the
    float products round."""
    ell, t = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3))
    entry = st.integers(-2**30, 2**30).map(lambda k: k / 2.0**20)
    mats = [np.array(data.draw(st.lists(entry, min_size=4, max_size=4))).reshape(2, 2)
            for _ in range(ell)]
    if data.draw(st.booleans()):  # conjugate triangular matrices: a shared line
        P = np.array([[1.0, data.draw(st.integers(-3, 3))], [0.0, 1.0]])
        P = P @ np.array([[1.0, 0.0], [data.draw(st.integers(-3, 3)), 1.0]])
        mats = [P @ np.triu(M) @ np.round(np.linalg.inv(P)) for M in mats]
    try:
        system = GeneratorSystem(tuple(mats))
    except InputError:
        assume(False)
    power = power_system(system, t)
    ints, scale = power._integers
    exact = _fraction_power(system, t)
    assert [[Fraction(x, scale) for x in M] for M in ints] == \
        [[x for row in P for x in row] for P in exact]
    v = irreducibility_verdict(power)
    assert v.method == "d2_exact"
    assert (v.status != IRREDUCIBLE) == _fraction_invariant_line(exact)


@pytest.mark.parametrize("d,t", [(3, 1), (3, 3), (4, 1), (4, 2), (4, 4)])
@pytest.mark.parametrize("ell", [1, 2, 3])
def test_d3_d4_power_cocycles_are_exact_integer_products(d, t, ell):
    """Five draws of ell dyadic k/16 generators at d = 3 and 4: every length-t
    product is exact in floats, so the power cocycle's stack is the exact
    integer products (`rational2._times`, lexicographic words) over scale^t,
    bit for bit."""
    rng = np.random.default_rng([d, t, ell])
    for _ in range(5):
        while True:
            try:
                system = GeneratorSystem(tuple(rng.integers(-32, 33, (ell, d, d)) / 16.0))
                break
            except InputError:
                continue
        gens, scale = integer_matrices(system.stacked())
        exact = []
        for word in enumerate_words(ell, t):
            P = gens[word[0] - 1]
            for s in word[1:]:  # as in `_fraction_power`: A_s times the prefix's product
                P = _times(gens[s - 1], P, d)
            exact.append([x / scale**t for x in P])
        assert power_system(system, t).stacked().tobytes() == \
            np.array(exact).reshape(-1, d, d).tobytes()


@pytest.mark.parametrize("call,message", [
    (lambda: power_system(E2(), 0), "power exponent must be >= 1"),
    (lambda: check_hypotheses(E2(), "theorem_4_3"), "unknown hypothesis mode 'theorem_4_3'"),
])
def test_messages(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])


@st.composite
def _d34_systems(draw):
    """Exact d = 3 and d = 4 tuples with entries k/4 (integers for the
    symplectic kind), one of five kinds:
    generic; block upper triangular, whose first p coordinates span an
    invariant subspace; cyclic permutation times diagonal, whose length-d
    products are diagonal; at d = 4, complex 2x2 matrices written over R,
    irreducible while their algebra, M_2(C), is a proper one; and products of
    symplectic transvections I + c v v^T J, whose second wedge fixes a line."""
    d, ell = draw(st.sampled_from([3, 4])), draw(st.integers(1, 2))
    kinds = ["generic", "block", "cyclic"] + (["complex", "symplectic"] if d == 4 else [])
    kind = draw(st.sampled_from(kinds))
    entry = st.integers(-4, 4).map(lambda k: k / 4.0)

    def square(n):
        return np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)

    mats = []
    for _ in range(ell):
        if kind == "generic":
            M = square(d)
        elif kind == "block":
            M, p = square(d), draw(st.integers(1, d - 1))
            M[p:, :p] = 0.0
        elif kind == "cyclic":
            M = np.roll(np.eye(d), 1, axis=0) @ np.diag(draw(st.lists(entry, min_size=d, max_size=d)))
        elif kind == "complex":
            re, im = square(2), square(2)
            M = np.block([[re, -im], [im, re]])
        else:
            M = np.eye(4)
            for _ in range(2):
                v = np.array(draw(st.lists(st.integers(-1, 1), min_size=4, max_size=4)), dtype=float)
                M = M @ (np.eye(4) + draw(st.sampled_from([-1.0, 1.0])) * np.outer(v, v) @ J4)
        mats.append(M)
    return kind, mats


def _json_text(obj):
    return json.dumps(cli._jsonable(obj), sort_keys=True)


def _theorem_cocycles(system):
    d = system.dim
    cocycles = [(f"power t={t}", power_system(system, t)) for t in range(1, d + 1) if d % t == 0]
    return cocycles + [(f"wedge m={m}", wedge_system(system, m)) for m in range(1, d)]


def _assembled_theorem_report(system):
    """The theorem_1_1 report made from `irreducibility_verdict` on each
    cocycle alone, with check_hypotheses' rule for the overall result."""
    checks = []
    for label, sub in _theorem_cocycles(system):
        v = irreducibility_verdict(sub)
        checks.append(SubCheck(label=label, verdict=v, passed=not v.reducible))
    failed = next((c for c in checks if not c.passed), None)
    overall = ("Fail" if failed else
               "Inconclusive" if any(c.verdict.status == "Inconclusive" for c in checks) else "Pass")
    return HypothesisReport(mode="theorem_1_1", overall=overall, checks=tuple(checks),
                            witness=failed.verdict.witness if failed else None,
                            failed_at=failed.label if failed else None)


def _plucker(M):
    """The m x m minors of a d x m matrix, rows in lexicographic order: the
    coordinates of the wedge of its columns."""
    d, m = M.shape
    return [np.linalg.det(M[list(rows)]) for rows in combinations(range(d), m)]


def _rule_subspace(label, W):
    """What rule (a) or (c) gives the cocycle `label` from t = 1's witness W:
    W for a power; for wedge m, the span of the wedges of m of W's columns
    (m <= p = dim W) or of all p with m - p standard basis vectors (m > p)."""
    if label.startswith("power"):
        return W
    m, (d, p) = int(label.rpartition("=")[2]), W.basis.shape
    if m <= p:
        vecs = [_plucker(W.basis[:, list(cols)]) for cols in combinations(range(p), m)]
    else:
        vecs = [_plucker(np.column_stack([W.basis, np.eye(d)[:, list(cols)]]))
                for cols in combinations(range(d), m - p)]
    return span_basis(vecs)


class TestTheoremCascade:
    """theorem_1_1 skips an algebra closure whose answer another one implies:
    (a) s | t gives Alg(A^t) ⊆ Alg(A^s), (b) dim Alg(∧^{d-1} A) = dim Alg(A),
    (c) a witness W for A gives every ∧^m A, 1 < m < d, an invariant subspace;
    and it builds the witness of a cocycle that (a) or (c) makes reducible
    from t = 1's instead of deciding its own."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(drawn=_d34_systems())
    def test_pruned_report_is_the_report_of_each_cocycle_alone(self, drawn):
        kind, mats = drawn
        try:
            system = GeneratorSystem(tuple(mats))
        except InputError:
            assume(False)
        rep = check_hypotheses(system, "theorem_1_1")
        alone = _assembled_theorem_report(system)
        assert [(c.label, c.passed, c.verdict.status) for c in rep.checks] == \
            [(c.label, c.passed, c.verdict.status) for c in alone.checks]
        assert (rep.overall, rep.failed_at) == (alone.overall, alone.failed_at)
        assert _json_text(rep.witness) == _json_text(alone.witness)
        cocycles, t1 = dict(_theorem_cocycles(system)), rep.checks[0]
        assert t1.label == "power t=1" and t1.witness_from is None
        for check, other in zip(rep.checks, alone.checks):
            v = check.verdict
            # the structure decides every cocycle, save where a witness fails its gate
            assert v.status != "Inconclusive" or "failed invariance check" in v.notes[-1]
            if check.witness_from is None:
                # a check without a derived witness is what its cocycle alone gives
                assert v.method != "t1_witness"
                assert _json_text(check) == _json_text(other)
                continue
            assert (check.witness_from, v.method, v.status) == ("power t=1", "t1_witness", REDUCIBLE)
            assert t1.verdict.reducible
            expected = _rule_subspace(check.label, t1.verdict.witness)
            assert 0 < v.witness.dim == expected.dim < v.witness.ambient
            assert np.abs(v.witness.projector() - expected.projector()).max() <= 1e-12
            assert invariance_residual(cocycles[check.label].stacked(), v.witness) <= WITNESS_TOL
        d = system.dim
        dims = {t: algebra_dimension(power_system(system, t)).dim
                for t in range(1, d + 1) if d % t == 0}
        for t in dims:  # (a)
            assert all(dims[t] <= dims[s] for s in dims if t % s == 0)
        # (b)
        assert algebra_dimension(wedge_system(system, d - 1)).dim == dims[1]
        if rep.checks[0].verdict.reducible:  # (c)
            for m in range(2, d - 1):
                wedge = wedge_system(system, m)
                assert not algebra_dimension(wedge).certified

    def test_a_derived_witness_past_the_tolerance_falls_back_to_the_search(self):
        # P T_i P^-1 with upper triangular T_i and a unimodular P: both fix the
        # plane P span(e1, e2). It is contracted 512 times more than the third
        # direction, so t = 1's float witness, within 1e-10 of invariant under
        # A_i, is far from invariant under the length-3 products
        P = np.array([[10.0, 3.0, 0.0], [3.0, 1.0, 0.0], [7.0, 2.0, 1.0]])
        system = GeneratorSystem((
            np.array([[-340.375, 1081.125, 23.0], [-111.8125, 356.4375, 7.0],
                      [-212.5625, 708.6875, 0.0]]),
            np.array([[153.75, -557.25, 19.0], [50.625, -182.875, 6.0],
                      [71.125, -342.375, 45.0]])))
        rep = check_hypotheses(system, "theorem_1_1")
        checks = {c.label: c for c in rep.checks}
        W = checks["power t=1"].verdict.witness
        assert checks["power t=1"].verdict.residual <= WITNESS_TOL
        assert subspace_distance(W, span_basis(P[:, :2].T)) <= 1e-9
        cube = power_system(system, 3)
        assert invariance_residual(cube.stacked(), W) > 1e-3
        # t = 3 is decided as its cocycle alone; wedge m = 2 keeps its derived witness
        assert checks["power t=3"].witness_from is None
        assert _json_text(checks["power t=3"]) == _json_text(
            SubCheck(label="power t=3", verdict=irreducibility_verdict(cube),
                     passed=checks["power t=3"].passed))
        assert checks["wedge m=2"].witness_from == "power t=1"
        assert checks["wedge m=2"].verdict.notes == ("rule (c): wedge^2 W, W the dim-2 witness of power t=1",)
        assert (rep.overall, rep.failed_at) == ("Fail", "power t=1")
