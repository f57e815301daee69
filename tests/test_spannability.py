import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cocyclespan import E1, E2, E3, GeneratorSystem
from cocyclespan.errors import ContractViolation, InputError
from cocyclespan.fixtures import ROT90
from cocyclespan import kernels, spannability
from cocyclespan.kernels import dense_products, pair_abs_max, pair_quadratics
from cocyclespan.rational2 import pair_quadratic
from cocyclespan.cli import _jsonable
from cocyclespan.spannability import (INCONCLUSIVE, NOT_SPANNABLE, TAU_SPAN, _certify,
                                      _numeric_certificate, _stack_f, diagnose_failure,
                                      minimal_spannable_k, mk_bases, mk_basis, spannable_at)

from _helpers import (D3, numeric_certificate, random_2x2_system, random_reducible_system,
                      rational, seeded_multistart_certificate)

SATURATED_NOTE = "margin: 1, as sum_j Q_j u u^T Q_j^T = |u|^2 I over an orthonormal basis Q_j"
# a quarter turn in the (e1, e2) plane and a stretch along e3: M_k u never spans R^3
ROT3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
DIAG_PAIR = GeneratorSystem((np.diag([2.0, 3.0]), np.diag([1.0, 4.0])))
# every pair quadratic det(A_i u | A_j u) is indefinite, yet they share no root
INDEFINITE_PAIRS = GeneratorSystem((np.array([[-1.0, 2.0], [0.0, -2.0]]),
                                    np.array([[1.0, 1.0], [2.0, -2.0]]),
                                    np.array([[-2.0, 2.0], [-2.0, 0.0]])))


def rotation_block(scale: float, corner: float) -> np.ndarray:
    """scale * (rotation by 1 radian) on span(e1, e2), `corner` on e3."""
    c, s = np.cos(1.0), np.sin(1.0)
    return np.array([[scale * c, -scale * s, 0.0], [scale * s, scale * c, 0.0], [0.0, 0.0, corner]])


# both generators turn the (e1, e2) plane by one radian, so the chain from the
# witness e1 is a turning line (dims 1, 1, ...) that never periodically repeats;
# the wedge quotient A_1^-1 A_2 = diag(2, 2, 6) is not scalar
ROTATION_BLOCKS = GeneratorSystem((rotation_block(1.0, 0.5), rotation_block(2.0, 3.0)))


def d3_block_triangular(rng):
    """Four integer 3x3 generators sharing the invariant line spanned by q = P e1.

    P is a product of integer shears, so P^-1 is integer too and every product
    stays exact: the shared line survives in the rational M_k.
    """
    P = np.eye(3)
    for _ in range(3):
        i, j = rng.choice(3, size=2, replace=False)
        E = np.eye(3)
        E[i, j] = float(rng.integers(-2, 3))
        P = P @ E
    Pinv = np.round(np.linalg.inv(P))
    mats = []
    for _ in range(4):
        M = rng.integers(-2, 3, (3, 3)).astype(float) + 4.0 * np.eye(3)
        M[1:, 0] = 0.0
        mats.append(P @ M @ Pinv)
    return GeneratorSystem(tuple(mats)), P[:, 0] / np.linalg.norm(P[:, 0])


def d3_five_generators(rng):
    """Five 3x3 generators: I, a rotation generator and noise; images span with room."""
    mats = []
    for _ in range(5):
        w = rng.uniform(-1.0, 1.0, 3)
        skew = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        mats.append((1.0 + rng.uniform(-0.3, 0.3)) * np.eye(3) + skew
                    + 0.15 * rng.uniform(-1.0, 1.0, (3, 3)))
    return GeneratorSystem(tuple(mats))


class TestMkBasis:
    def test_e2_dims(self):
        assert mk_basis(E2(), 1).dim == 2
        assert mk_basis(E2(), 2).dim == 4

    def test_e1_single_generator(self):
        assert mk_basis(E1(), 3).dim == 1

    def test_dim_nondecreasing(self):
        for sys in (E1(), E2(), E3(), DIAG_PAIR):
            dims = [mk_basis(sys, k).dim for k in range(1, 7)]
            assert dims == sorted(dims)

    def test_sweep_levels_equal_single_builds(self):
        rng = np.random.default_rng(2024)
        systems = [E1(), E2(), E3(), DIAG_PAIR, INDEFINITE_PAIRS, d3_block_triangular(rng)[0],
                   d3_rotated_triangular(rng), GeneratorSystem((ROT3,))]
        for sys in systems:
            levels = list(mk_bases(sys, 4))
            assert [mk.k for mk in levels] == [1, 2, 3, 4]
            for mk in levels:
                one = mk_basis(sys, mk.k)
                assert mk.dim == one.dim and rational(mk) == rational(one)
                assert mk.basis.tobytes() == one.basis.tobytes()


class TestSpannableAt:
    def test_e2_exact_margin(self):
        cert = spannable_at(E2(), 1)
        assert cert.spannable and cert.exact
        # det(Hu | Ru) = 2x^2 + 0.5y^2, positive definite with circle minimum 0.5
        assert abs(cert.margin - 0.5) <= 1e-12

    def test_e1_any_k(self):
        for k in (1, 3, 5):
            cert = spannable_at(E1(), k)
            assert cert.status == NOT_SPANNABLE
            assert np.allclose(np.abs(cert.witness), [1, 0])

    def test_diag_pair_k2(self):
        cert = spannable_at(DIAG_PAIR, 2)
        assert cert.status == NOT_SPANNABLE
        assert np.allclose(np.abs(cert.witness), [1, 0])

    def test_e3_positive_definite(self):
        cert = spannable_at(E3(), 1)
        assert cert.spannable
        # det(A1 u | A2 u) = 0.12 x^2 + 0.03 y^2
        assert abs(cert.margin - 0.03) <= 1e-12

    def test_witness_rank_residual(self):
        for sys, k in ((E1(), 4), (DIAG_PAIR, 2)):
            cert = spannable_at(sys, k)
            assert cert.status == NOT_SPANNABLE
            assert cert.witness_residual <= 1e-8

    def test_spannable_persists(self):
        for sys in (E2(), E3()):
            assert spannable_at(sys, 1).spannable
            assert spannable_at(sys, 2).spannable

    def test_exact_vs_numeric_agreement_100(self):
        rng = np.random.default_rng(777)
        for i in range(100):
            sys = random_reducible_system(rng) if i % 3 == 0 else random_2x2_system(rng)
            exact = spannable_at(sys, 1)
            numeric = numeric_certificate(sys, 1)
            assert exact.status == numeric.status, \
                f"case {i}: exact {exact.status} vs numeric {numeric.status}"

    def test_saturated_d2_level_certifies_the_word_pairs(self):
        # M_3 of E2 is the whole matrix space; the margin is still the word-pair minimax
        cert = spannable_at(E2(), 3)
        assert cert.method == "full_algebra" and cert.spannable and not cert.exact
        assert cert.margin_certified and abs(cert.margin - 0.5) <= 1e-12
        assert cert.notes == ("M_k saturates the matrix space",)

    def test_reduced_basis_margin_above_the_word_cap(self):
        # 2^13 words exceed EXACT_PRODUCT_CAP: the pairs are those of M_13's basis
        pair = GeneratorSystem((np.array([[0.5, -0.25], [0.25, 0.5]]),
                                np.array([[0.375, 0.5], [-0.5, 0.375]])))
        cert = spannable_at(pair, 13)
        assert (cert.status, cert.method, cert.exact, cert.margin_certified) == (
            "Spannable", "d2_exact", True, True)
        assert cert.margin == 0.5
        assert cert.notes == ("margin quadratics use the reduced basis (word count above cap)",)

    def test_float_path_certificates_are_not_exact(self):
        # upper triangular, so e1 is a common root line at every k; only the
        # exact system's root is decided in exact arithmetic
        A = np.array([[0.31, 0.2], [0.0, 0.47]])
        B = np.array([[0.13, -0.4], [0.0, 0.29]])
        for exact, method in ((False, "d2_float"), (True, "d2_exact")):
            search = minimal_spannable_k(GeneratorSystem((A, B), exact=exact), 3)
            assert [(c.status, c.method, c.exact) for c in search.certificates] == [
                (NOT_SPANNABLE, method, exact)] * 3
        cert = spannable_at(GeneratorSystem((A, ROT90), exact=False), 1)
        assert (cert.status, cert.method, cert.exact) == ("Spannable", "d2_float", False)

    def test_saturated_d3_level_samples(self, monkeypatch):
        system = GeneratorSystem(tuple(np.random.default_rng(3).standard_normal((3, 3, 3))))
        mk = mk_basis(system, 2)

        def no_svd(*args, **kwargs):
            raise AssertionError("a saturated level needs no SVD")
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        cert = _certify(system, mk)
        assert cert.method == "full_algebra" and cert.spannable and cert.margin_certified
        assert cert.margin == 1.0
        assert cert.notes == ("M_k saturates the matrix space", SATURATED_NOTE)

    @pytest.mark.parametrize("d,ell,k", [(3, 3, 2), (3, 2, 4), (4, 3, 3), (4, 2, 5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_saturated_margin_is_below_sampled_f(self, d, ell, k, seed):
        # over an orthonormal basis Q_j of all matrices, sum_j Q_j u u^T Q_j^T = I
        system = GeneratorSystem(tuple(
            np.random.default_rng([d, ell, seed]).standard_normal((ell, d, d))))
        mk = mk_basis(system, k)
        cert = spannable_at(system, k)
        assert mk.dim == d * d and cert.method == "full_algebra" and cert.margin_certified
        assert cert.margin == 1.0
        us = np.random.default_rng(seed).standard_normal((10_000, d))
        us /= np.linalg.norm(us, axis=1, keepdims=True)
        assert np.abs(_stack_f(mk.basis, us) - 1.0).max() <= 1e-12

    def test_indefinite_pairs_margin_from_minimizer(self):
        cert = spannable_at(INDEFINITE_PAIRS, 1)
        assert cert.spannable and cert.exact and cert.margin_certified
        th = np.linspace(0.0, np.pi, 20_001)
        U = np.stack([np.cos(th), np.sin(th)])
        mats = INDEFINITE_PAIRS.generators
        brute = np.max([np.abs(np.linalg.det(np.stack([A @ U, B @ U], axis=1).T))
                        for i, A in enumerate(mats) for B in mats[i + 1:]], axis=0).min()
        assert 0.0 < cert.margin <= brute
        (note,) = cert.notes
        assert "pair quadratics" in note and "L = " in note and "eps = " in note
        assert "evaluations" in note

    def test_minimizer_margin_is_the_same_over_many_blocks(self, monkeypatch):
        # three generators, every pair quadratic indefinite: the branch and
        # bound either keeps the single block or forms two each round
        system = GeneratorSystem((np.array([[0.0, 0.5], [2.0, 1.0]]),
                                  np.array([[0.5, 0.0], [0.5, 2.0]]),
                                  np.array([[-1.0, 1.5], [1.0, -2.0]])))
        one = spannable_at(system, 1)
        monkeypatch.setattr(kernels, "_PAIRS", 1)
        assert len(list(pair_quadratics(system.stacked()))) == 2
        many = spannable_at(system, 1)
        assert "branch and bound" in one.notes[0]
        assert (many.margin, many.notes) == (one.margin, one.notes)


def d3_rotated_triangular(rng):
    """Four 2I + Gaussian 3x3 generators fixing e1, conjugated by an orthogonal Q.

    Rounding breaks the shared line Q e1 by about 1e-16: over Q the rows of
    M_2 have rank 9, while an SVD sees about 7.
    """
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    mats = []
    for _ in range(4):
        M = 2.0 * np.eye(3) + rng.standard_normal((3, 3))
        M[1:, 0] = 0.0
        mats.append(Q @ M @ Q.T)
    return GeneratorSystem(tuple(mats))


class TestMkBasisExactRank:
    def test_float_basis_keeps_the_rational_rank(self):
        system = d3_rotated_triangular(np.random.default_rng(2024))
        mk = mk_basis(system, 2)
        assert mk.dim == len(rational(mk)) == 9
        B = mk.basis.reshape(mk.dim, -1)
        assert np.abs(B @ B.T - np.eye(mk.dim)).max() <= 1e-12
        for M in rational(mk):
            v = np.array([float(x) for row in M for x in row])
            assert np.linalg.norm(v - B.T @ (B @ v)) <= 1e-12 * np.linalg.norm(v)
        assert spannable_at(system, 2).method != "rank_deficit"


class TestSphereCertificate:
    def test_block_triangular_not_spannable(self):
        rng = np.random.default_rng(2024)
        for _ in range(3):
            system, q = d3_block_triangular(rng)
            for k in (1, 2):
                cert = spannable_at(system, k)
                assert cert.status == NOT_SPANNABLE
                assert cert.witness_residual <= TAU_SPAN
            # four images at k = 1 can share a plane off the line, seven at k = 2 cannot
            assert mk_basis(system, 2).dim == 7
            assert abs(abs(cert.witness @ q) - 1.0) <= 1e-6

    def test_five_generators_spannable(self):
        rng = np.random.default_rng(2025)
        for _ in range(3):
            cert = spannable_at(d3_five_generators(rng), 1)
            assert cert.spannable and cert.margin_certified and cert.margin > TAU_SPAN
            (note,) = cert.notes
            assert note.startswith("sphere minimum") and "L = 2, eps = 0.002," in note
            assert "evaluations" in note

    def test_cap_makes_inconclusive(self, monkeypatch):
        monkeypatch.setattr(kernels, "BNB_MAX_EVALS", 5000)  # the 64 x 64 start grid fits
        cert = spannable_at(d3_five_generators(np.random.default_rng(2025)), 1)
        assert cert.status == INCONCLUSIVE and not cert.margin_certified
        assert any("cap of 5000 evaluations" in n and "after 4096" in n for n in cert.notes)


def partial_levels():
    """Derandomized d = 3 and d = 4 levels with d <= dim M_k < d^2."""
    rng = np.random.default_rng(33)
    levels = [mk_basis(d3_five_generators(rng), 1) for _ in range(2)]
    levels += [mk_basis(d3_block_triangular(rng)[0], k) for k in (1, 2)]
    levels += [mk_basis(GeneratorSystem(tuple(rng.standard_normal((ell, 4, 4)))), 1)
               for ell in (4, 7, 11, 15)]
    assert all(mk.d <= mk.dim < mk.d**2 for mk in levels)
    return levels


def unit_rows_of(u):
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def unit_rows(rng, n, d):
    return unit_rows_of(rng.standard_normal((n, d)))


class TestMarginOfMk:
    """The numeric margin reads f(u) = min over unit w of |P(w u^T)|_F^2, P the
    projection onto M_k, through the orthonormal basis of M_k."""

    def _read_basis(self, monkeypatch, mk):
        # the matrices the certificate's f is formed from: the first `_stack_f` call's
        class Read(Exception):
            pass

        def record(B, u):
            raise Read(B)
        monkeypatch.setattr(spannability, "_stack_f", record)
        with pytest.raises(Read) as read:
            _numeric_certificate(GeneratorSystem((np.eye(mk.d),)), mk)
        monkeypatch.undo()
        return read.value.args[0]

    def test_f_is_the_same_for_every_orthonormal_basis(self, monkeypatch):
        rng = np.random.default_rng(34)
        for mk in partial_levels():
            R, _ = np.linalg.qr(rng.standard_normal((mk.dim, mk.dim)))
            turned = replace(mk, basis=np.einsum("ij,jab->iab", R, mk.basis))
            us = unit_rows(rng, 1000, mk.d)
            f = _stack_f(self._read_basis(monkeypatch, mk), us)
            f_turned = _stack_f(self._read_basis(monkeypatch, turned), us)
            assert np.abs(f - f_turned).max() <= 1e-12

    def test_f_is_2_lipschitz(self):
        rng = np.random.default_rng(35)
        for mk in partial_levels():
            us = unit_rows(rng, 10_000 // 8, mk.d)
            vs = us + 10.0 ** rng.uniform(-6, -1, (len(us), 1)) * unit_rows(rng, len(us), mk.d)
            vs /= np.linalg.norm(vs, axis=1, keepdims=True)
            gap = np.abs(_stack_f(mk.basis, us) - _stack_f(mk.basis, vs))
            assert (gap <= 2.0 * np.linalg.norm(us - vs, axis=1) + 1e-15).all()

    def test_sphere_margin_brackets_the_sampled_minimum(self):
        # a certified margin is a floor of min f, within eps = 2 * 1e-3 of it;
        # 5000 samples spread over the sphere, then five rounds of 1000 close in
        # on the best so far, from within 0.05 of it down to within 8e-5
        rng = np.random.default_rng(36)
        certified = 0
        for _ in range(12):
            system = d3_five_generators(rng)
            cert = spannable_at(system, 1)
            if cert.method != "bnb_certified":
                continue
            certified += 1
            B = mk_basis(system, 1).basis
            us = unit_rows(rng, 5000, 3)
            f = _stack_f(B, us)
            best, f_min = us[np.argmin(f)], f.min()
            for r in range(5):
                us = unit_rows_of(best + 0.05 * 0.2**r * rng.uniform(0, 1, (1000, 1))
                                  * unit_rows(rng, 1000, 3))
                f = _stack_f(B, us)
                if f.min() < f_min:
                    best, f_min = us[np.argmin(f)], f.min()
            assert f_min - 0.002 <= cert.margin <= f_min
        assert certified >= 10

    def test_certified_level_runs_no_descent(self, monkeypatch):
        def no_descent(B, u):
            raise AssertionError("a certified level needs no descent")
        monkeypatch.setattr(spannability, "_project_descend", no_descent)
        cert = spannable_at(d3_five_generators(np.random.default_rng(2025)), 1)
        assert cert.method == "bnb_certified" and cert.margin_certified


class TestDeficitAndMultistart:
    def test_d3_rank_deficit(self):
        system = GeneratorSystem((ROT3,))
        cert = spannable_at(system, 2)
        assert cert.status == NOT_SPANNABLE and cert.method == "rank_deficit"
        assert not cert.exact and cert.witness_residual <= TAU_SPAN
        diag = diagnose_failure(system, minimal_spannable_k(system, 4))
        assert diag.case == "PeriodicSubspaces" and diag.period == 2
        assert diag.cross_check_consistent

    def test_d4_diagonal_multistart(self):
        rng = np.random.default_rng(4)
        system = GeneratorSystem(tuple(np.diag(rng.uniform(0.5, 2.0, 4)) for _ in range(4)))
        cert = spannable_at(system, 1)
        # M_1 is the diagonal matrices, so every coordinate axis is a witness
        assert cert.status == NOT_SPANNABLE and cert.method == "numeric_minimizer"
        assert cert.witness_residual <= TAU_SPAN
        assert cert.notes == ("d >= 4: multistart search only, no certificate",)

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("kind", ["diagonal", "block_triangular", "generic"])
    def test_fixed_starts_keep_the_seeded_bits(self, d, kind):
        # the 64 fixed starts are the draws the default seed 42 made one at a time
        rng = np.random.default_rng([d, len(kind)])
        if kind == "diagonal":  # M_1 is the diagonal matrices: NotSpannable
            mats, k_max = [np.diag(rng.uniform(0.5, 2.0, d)) for _ in range(d)], 1
        elif kind == "block_triangular":  # span(e1, e2) is invariant: NotSpannable
            mats, k_max = [2.0 * np.eye(d) + rng.standard_normal((d, d)) for _ in range(3)], 2
            for M in mats:
                M[2:, :2] = 0.0
        else:  # 2d - 1 images of u span R^d off a set of codimension d: Inconclusive
            mats, k_max = list(rng.standard_normal((2 * d - 1, d, d))), 1
        system = GeneratorSystem(tuple(mats))
        search = minimal_spannable_k(system, k_max)
        numeric = [(c, mk) for c, mk in zip(search.certificates, search.levels)
                   if c.method in ("numeric_minimizer", "numeric")]
        assert numeric
        for cert, mk in numeric:
            oracle = seeded_multistart_certificate(system, mk)
            assert json.dumps(_jsonable(cert)) == json.dumps(_jsonable(oracle))
        assert {c.status for c, _ in numeric} == (
            {INCONCLUSIVE} if kind == "generic" else {NOT_SPANNABLE})


class TestMinimalK:
    def test_fixtures(self):
        assert minimal_spannable_k(E2(), 4).found == 1
        assert minimal_spannable_k(E3(), 4).found == 1

    def test_e1_not_found(self):
        search = minimal_spannable_k(E1(), 8)
        assert search.not_found
        assert all(c.status == NOT_SPANNABLE for c in search.certificates)


class TestDiagnosis:
    def test_contract_violation_when_spannable(self):
        with pytest.raises(ContractViolation):
            diagnose_failure(E2(), minimal_spannable_k(E2(), 4))

    def test_e1_periodic(self):
        diag = diagnose_failure(E1(), minimal_spannable_k(E1(), 8))
        assert diag.case == "PeriodicSubspaces"
        assert diag.period == 2
        assert diag.span_w.dim == 2
        assert diag.cross_check.reducible and diag.cross_check_consistent

    def test_e1_chain_alternates(self):
        diag = diagnose_failure(E1(), minimal_spannable_k(E1(), 6))
        # u = e1: V_1 = span{e2}, V_2 = span{e1}, alternating
        assert np.allclose(np.abs(diag.chain[0].basis.ravel()), [0, 1])
        assert np.allclose(np.abs(diag.chain[1].basis.ravel()), [1, 0])
        assert all(d == 1 for d in diag.dims)

    def test_e1_chain_maps_forward(self):
        diag = diagnose_failure(E1(), minimal_spannable_k(E1(), 6))
        R = E1().generators[0]
        for k in range(len(diag.chain) - 1):
            mapped = diag.chain[k].basis[:, 0]
            img = R @ mapped
            img /= np.linalg.norm(img)
            target = diag.chain[k + 1].basis[:, 0]
            assert min(np.linalg.norm(img - target), np.linalg.norm(img + target)) <= 1e-8

    def test_diag_pair_period_one(self):
        diag = diagnose_failure(DIAG_PAIR, minimal_spannable_k(DIAG_PAIR, 6))
        assert diag.case == "PeriodicSubspaces" and diag.period == 1
        assert diag.span_w.dim == 1
        assert np.allclose(np.abs(diag.span_w.basis.ravel()), [1, 0])
        assert diag.cross_check_consistent

    def test_wedge_eigen_structure(self):
        diag = diagnose_failure(ROTATION_BLOCKS, minimal_spannable_k(ROTATION_BLOCKS, 4))
        assert diag.case == "WedgeEigenStructure"
        assert diag.dims == (1, 1, 1, 1)
        assert diag.wedge_order == 1 and diag.wedge_pair == (1, 2)
        assert np.allclose(sorted(v.real for v in diag.eigenvalues), [2.0, 2.0, 6.0], atol=1e-12)
        assert all(v.imag == 0.0 for v in diag.eigenvalues)
        assert diag.eigen_residual <= 1e-12

    def test_scaled_rotation_period_two(self):
        system = GeneratorSystem((0.3 * ROT90,))
        diag = diagnose_failure(system, minimal_spannable_k(system, 6))
        assert diag.case == "PeriodicSubspaces" and diag.period == 2

    @pytest.mark.parametrize("k_max,dims,note", [
        (2, (1, 1), "chain dimension did not stabilize below d"),
        (3, (1, 1, 1), "every wedge quotient is scalar"),
    ])
    def test_undetermined_irrational_rotation(self, k_max, dims, note):
        # M_k is one line, so u = e1 witnesses; its chain turns by an angle that
        # is no rational multiple of pi, so it has no period, and with one
        # generator there is no wedge quotient to read
        system = GeneratorSystem((np.array([[0.6, -0.8], [0.8, 0.6]]),))
        diag = diagnose_failure(system, minimal_spannable_k(system, k_max))
        assert (diag.case, diag.dims, diag.notes) == ("Undetermined", dims, (note,))

    def test_undetermined_without_a_witness(self):
        # 2x2 complex matrices acting on C^2 = R^4; M_1 u = C-span{u, E u, F u}
        # is R^4 unless u is a common eigenvector of E and F, which these lack,
        # but d = 4 has no certificate: the only certificate is Inconclusive
        def real_form(z):
            return np.block([[z.real, -z.imag], [z.imag, z.real]])
        rng = np.random.default_rng(1)
        E, F = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        system = GeneratorSystem(tuple(real_form(z) for z in (
            np.eye(2), 1j * np.eye(2), E, 1j * E, F, 1j * F)))
        search = minimal_spannable_k(system, 1)
        assert search.inconclusive_ks == (1,)
        diag = diagnose_failure(system, search)
        assert (diag.case, diag.dims, diag.notes) == (
            "Undetermined", (), ("no NotSpannable witness available (all checks inconclusive)",))
        assert not diag.witness.any()


@pytest.mark.parametrize("call,message", [
    (lambda: mk_basis(E2(), 0), "k must be >= 1"),
])
def test_messages(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


def random_d2_system(rng, ell: int, dyadic: bool) -> GeneratorSystem:
    """ell 2x2 generators with dyadic entries k/16 (exact decimals) or 3-decimal
    entries k/1000 (flagged inexact, as the CLI flags such input)."""
    top, den = (32, 16.0) if dyadic else (999, 1000.0)
    while True:
        try:
            return GeneratorSystem(tuple(rng.integers(-top, top + 1, (ell, 2, 2)) / den),
                                   exact=dyadic)
        except InputError:
            continue


def exact_pair_quadratics(mats) -> list:
    """Fraction `pair_quadratic` of every pair i < j of the products read as exact rationals."""
    fr = [[[Fraction(float(x)) for x in row] for row in M] for M in mats]
    return [pair_quadratic(fr[i], fr[j]) for i in range(len(fr)) for j in range(i + 1, len(fr))]


def fraction_best_pair(quads) -> float:
    """The best single word pair's margin as computed before the pair quadratics
    became floats: each Fraction pair quadratic rounded, then `eigvalsh`; 0.0
    when every pair is indefinite."""
    best = 0.0
    for q in quads:
        q20, q11, q02 = (float(x) for x in q)
        lam = np.linalg.eigvalsh(np.array([[q20, 0.5 * q11], [0.5 * q11, q02]]))
        if lam[0] * lam[-1] > 0:
            best = max(best, float(min(abs(lam[0]), abs(lam[-1]))))
    return best


@pytest.fixture(scope="module")
def circle_sample():
    """10^4 exact unit vectors ((1 - t^2), 2 t) / (1 + t^2), t = tan(theta / 2) read
    as a rational, theta = pi i / 10^4: a projective sample of the circle, in
    Fractions, and its monomials (x^2, x y, y^2) rounded to floats."""
    exact = []
    for t in np.tan(np.pi * np.arange(10_000) / 20_000):
        t = Fraction(float(t))
        den = 1 + t * t
        exact.append(((1 - t * t) / den, 2 * t / den))
    x, y = (np.array([float(u[c]) for u in exact]) for c in (0, 1))
    return exact, np.stack([x * x, x * y, y * y])


def margin_below_oracle(quads, margin: float, sample) -> bool:
    """margin <= min over the sample of max over the exact pair quadratics of |q(u)|.

    A float screen passes each u whose float pair value, less a bound of
    1e-13 (|q20| + |q11| + |q02|) on the rounding of the coefficients, u and
    the sum, is at least the margin; every other u is decided in Fractions over
    all pairs. The margin may exceed the exact value by a relative 1e-12: the
    rounding of the library's float pair coefficients is not covered.
    """
    exact, monomials = sample
    Q = np.array([[float(c) for c in q] for q in quads])
    slack = 1e-13 * np.abs(Q).sum(axis=1)[:, None]
    target = Fraction(margin) / (1 + Fraction(1, 10**12))
    for lo in range(0, monomials.shape[1], 1000):
        screen = (np.abs(Q @ monomials[:, lo:lo + 1000]) - slack).max(axis=0) >= margin
        for i in lo + np.flatnonzero(~screen):
            x, y = exact[i]
            if max(abs(a * x * x + b * x * y + c * y * y) for a, b, c in quads) < target:
                return False
    return True


class TestMarginOracle:
    """Every d = 2 margin, `full_algebra` and the branch-and-bound fallback
    included, against slow references on seeded random systems (ell 2-4,
    k = 1..4 with at most 64 words)."""

    def test_margins_against_references(self, circle_sample):
        rng = np.random.default_rng(1801)
        seen = set()
        for ell in (2, 3, 4):
            for dyadic in (True, False):
                for _ in range(2):
                    system = random_d2_system(rng, ell, dyadic)
                    for k in range(1, 5):
                        if ell**k > 64:
                            break
                        cert = spannable_at(system, k)
                        if not cert.spannable:
                            continue
                        quads = exact_pair_quadratics(dense_products(system.stacked(), k))
                        bnb = any("pair quadratics" in n for n in cert.notes)
                        seen.add((cert.method, bnb))
                        assert cert.margin_certified and cert.margin > 0.0
                        ref = fraction_best_pair(quads)
                        # (a) the best single pair, where one is definite
                        assert bnb == (ref == 0.0)
                        if ref > 0.0:
                            assert abs(cert.margin - ref) <= 1e-12 * ref, (ell, k)
                        # (b) below the sampled minimax, every path
                        assert margin_below_oracle(quads, cert.margin, circle_sample), (ell, k)
        assert {m for m, _ in seen} == {"d2_exact", "d2_float", "full_algebra"}
        assert {b for _, b in seen} == {True, False}

    @pytest.mark.parametrize("pairs", [1, 5, 12, 40, 1000])
    def test_row_blocks_equal_the_full_triangle(self, monkeypatch, pairs):
        # (c) 13 matrices: no block size here divides the 78 pairs or the 13 rows
        rng = np.random.default_rng(5)
        mats = rng.standard_normal((13, 2, 2))
        i, j = np.triu_indices(13, 1)
        a, b, c, d = (mats[:, r, s] for r, s in ((0, 0), (0, 1), (1, 0), (1, 1)))
        full = np.stack([a[i] * c[j] - c[i] * a[j],
                         a[i] * d[j] + b[i] * c[j] - c[i] * b[j] - d[i] * a[j],
                         b[i] * d[j] - d[i] * b[j]])
        th = np.linspace(0.0, np.pi, 777)
        x, y = np.cos(th), np.sin(th)
        brute = np.abs(full[0][:, None] * x * x + full[1][:, None] * x * y
                       + full[2][:, None] * y * y).max(axis=0)
        monkeypatch.setattr(kernels, "_PAIRS", pairs)
        blocks = list(pair_quadratics(mats))
        assert len(blocks) == len(range(0, 12, max(1, pairs // 13)))
        assert np.concatenate(blocks, axis=1).tobytes() == full.tobytes()
        assert pair_abs_max(blocks, th).tobytes() == brute.tobytes()
        assert pair_abs_max(pair_quadratics(mats), th).tobytes() == brute.tobytes()
