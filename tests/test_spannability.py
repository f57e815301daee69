import json
from dataclasses import replace

import numpy as np
import pytest

from cocyclespan import E1, E2, E3, GeneratorSystem
from cocyclespan.errors import ContractViolation, InputError
from cocyclespan.fixtures import ROT90
from cocyclespan import kernels, spannability
from cocyclespan.cli import _jsonable
from cocyclespan.spannability import (INCONCLUSIVE, NOT_SPANNABLE, SATURATED_NOTE, SPANNABLE,
                                      TAU_SPAN,
                                      _certify, _d2_margin, _numeric_certificate, _stack_f,
                                      diagnose_failure, minimal_spannable_k, mk_bases, mk_basis,
                                      spannable_at)

from _helpers import (f_oracle, oracle_status, random_2x2_system, random_reducible_system,
                      rational, sampled_min_f, seeded_multistart_certificate)

CLOSED_FORM_NOTE = "margin: min sigma_2(X)^2 over unit X in M_k^perp, at the least |det X|"
# E2 and E3 share M_1 = span{diag(4, 1), J}; f is least at u = e2, where the images
# diag(4, 1) e2 / sqrt(17) and J e2 / sqrt(2) of the orthonormal basis are orthogonal,
# of squared lengths 1/17 and 1/2: min f = 1/17
E_MARGIN = 1 / 17
# a quarter turn in the (e1, e2) plane and a stretch along e3: M_k u never spans R^3
ROT3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
DIAG_PAIR = GeneratorSystem((np.diag([2.0, 3.0]), np.diag([1.0, 4.0])))
# every pair quadratic det(A_i u | A_j u) is indefinite, yet they share no root
INDEFINITE_PAIRS = GeneratorSystem((np.array([[-1.0, 2.0], [0.0, -2.0]]),
                                    np.array([[1.0, 1.0], [2.0, -2.0]]),
                                    np.array([[-2.0, 2.0], [-2.0, 0.0]])))
# two scaled rotations: M_k = span{I, J} at every k, where f = 1/2 at every unit u
CONFORMAL_PAIR = GeneratorSystem((np.array([[0.5, -0.25], [0.25, 0.5]]),
                                  np.array([[0.375, 0.5], [-0.5, 0.375]])))


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
        assert cert.spannable and cert.exact and cert.margin_certified
        # dim M_1 = 2: the closed form over M_1^perp
        assert abs(cert.margin - E_MARGIN) <= 1e-15
        assert cert.notes == (CLOSED_FORM_NOTE,)

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
        assert cert.spannable and cert.margin_certified
        # det(A1 u | A2 u) = 0.12 x^2 + 0.03 y^2 is definite; M_1 is E2's
        assert abs(cert.margin - E_MARGIN) <= 1e-15

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
            numeric = oracle_status(sys, 1)
            assert exact.status == numeric, f"case {i}: exact {exact.status} vs numeric {numeric}"

    def test_saturated_d2_level_certifies_the_word_pairs(self, monkeypatch):
        # M_3 of E2 is the whole matrix space: margin 1 at d = 2 as at d >= 3,
        # with no word products and no SVD
        system = E2()
        mk = mk_basis(system, 3)

        def no_svd(*args, **kwargs):
            raise AssertionError("a saturated level needs no SVD")
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        cert = _certify(system, mk)
        assert cert.method == "full_algebra" and cert.spannable and not cert.exact
        assert cert.margin_certified and cert.margin == 1.0
        assert cert.notes == ("M_k saturates the matrix space", SATURATED_NOTE)

    def test_reduced_basis_margin_above_the_word_cap(self):
        # one margin across k: M_k = span{I, J} at every k, so 2^12 and 2^13
        # words give the same f, and min f = 1/2
        margins = []
        for k in (12, 13):
            cert = spannable_at(CONFORMAL_PAIR, k)
            assert (cert.status, cert.method, cert.exact, cert.margin_certified) == (
                "Spannable", "d2_exact", True, True)
            assert abs(cert.margin - 0.5) <= 1e-12
            margins.append(cert.margin)
        assert abs(margins[0] - margins[1]) <= 1e-12

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
        # indefinite word pairs need three independent generators (on a plane
        # M_k every pair quadratic is a multiple of one), so M_1 has dimension
        # 3; E2's M_1 is a plane, and both take the one closed form
        for system in (INDEFINITE_PAIRS, E2()):
            cert = spannable_at(system, 1)
            assert cert.spannable and cert.exact and cert.margin_certified
            assert cert.notes == (CLOSED_FORM_NOTE,)
            assert abs(cert.margin - sampled_min_f(system, 1)) <= 1e-12


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


def random_d2_plane(rng, dyadic: bool) -> GeneratorSystem:
    """A pair (A, A R), R = [[p, -q], [q, p]] with q != 0, entries as in
    `random_d2_system`: det(A u | A R u) = det A * q |u|^2 is definite, so M_1 is
    a plane on which every unit u spans."""
    top, den = (32, 16.0) if dyadic else (999, 1000.0)
    (A,) = random_d2_system(rng, 1, dyadic).generators
    p, q = rng.integers(-top, top + 1) / den, rng.choice([-1, 1]) * rng.integers(1, top + 1) / den
    return GeneratorSystem((A, A @ np.array([[p, -q], [q, p]])), exact=dyadic)


class TestMarginOracle:
    """Every Spannable d = 2 margin against f sampled on the circle, on seeded
    random systems (ell 1..4 and `random_d2_plane` pairs, k = 1..4, dyadic and
    3-decimal entries): 1 on a saturated level, else the closed form over
    M_k^perp, within 1e-12 of the sampled minimum on either side (a margin can
    sit an ulp above the sample)."""

    def test_margins_against_references(self):
        rng = np.random.default_rng(1801)
        systems = [random_d2_system(rng, ell, dyadic) for ell in (1, 2, 3, 4)
                   for dyadic in (True, False) for _ in range(3)]
        systems += [random_d2_plane(rng, dyadic) for dyadic in (True, False) for _ in range(3)]
        units = unit_rows(np.random.default_rng(1802), 10_000, 2)
        seen = set()
        for i, system in enumerate(systems):
            for k in range(1, 5):
                cert = spannable_at(system, k)
                if not cert.spannable:
                    continue
                dim = mk_basis(system, k).dim
                seen.add(dim)
                assert cert.margin_certified, (i, k)
                if dim == 4:
                    assert cert.margin == 1.0
                    assert np.abs(f_oracle(system, k, units) - 1.0).max() <= 1e-12
                    continue
                assert cert.notes == (CLOSED_FORM_NOTE,)
                assert abs(cert.margin - sampled_min_f(system, k)) <= 1e-12, (i, k)
        assert seen == {2, 3, 4}

    def test_closed_form_is_positive_exactly_where_the_root_test_spans(self, monkeypatch):
        # every level of dimension 2 or 3 of seeded exact systems, NotSpannable
        # ones included, against the integer common-root decision of `_certify`,
        # which reaches no branch and bound at d = 2
        def no_search(*args):
            raise AssertionError("a d = 2 level takes no branch and bound")
        monkeypatch.setattr(spannability, "lipschitz_bnb", no_search)
        rng = np.random.default_rng(3601)
        systems = [random_d2_system(rng, ell, True) for ell in (1, 2, 3, 4) for _ in range(6)]
        systems += [random_d2_plane(rng, True) for _ in range(6)]
        seen = set()
        for i, system in enumerate(systems):
            for mk in mk_bases(system, 4):
                if mk.dim not in (2, 3):
                    continue
                cert = _certify(system, mk)
                assert cert.method == "d2_exact"
                seen.add((mk.dim, cert.status))
                margin = _d2_margin(mk)
                assert (margin > 0) == cert.spannable, (i, mk.k)
                if cert.spannable:
                    assert abs(margin - sampled_min_f(system, mk.k)) <= 1e-12, (i, mk.k)
        assert seen == {(2, SPANNABLE), (2, NOT_SPANNABLE), (3, SPANNABLE)}

    def test_conformal_planes_read_one_half(self):
        # two scaled rotations span span{I, J}, where f = 1/2 at every unit u and
        # sigma_1 = sigma_2 on the whole complement
        rng = np.random.default_rng(3602)
        for _ in range(2000):
            turns = [np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
                     for t in rng.uniform(0.0, 2.0 * np.pi, 2)]
            scales = 10.0 ** rng.uniform(-3.0, 3.0, 2)
            cert = spannable_at(GeneratorSystem((scales[0] * turns[0], scales[1] * turns[1])), 1)
            assert cert.spannable and cert.margin_certified
            assert abs(cert.margin - 0.5) <= 1e-12
