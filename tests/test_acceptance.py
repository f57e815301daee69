"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import math
import time

import numpy as np

from cocyclespan import E1, E2, E3, E4, E5, GeneratorSystem
from cocyclespan.gibbs import kappa_floor, psi_mixing_stat
from cocyclespan.hypotheses import check_hypotheses
from cocyclespan.linalg import singular_values, wedge_power
from cocyclespan.quasimult import connector_constant, empirical_qm
from cocyclespan.spannability import diagnose_failure, minimal_spannable_k, spannable_at
from cocyclespan.thermo import (PotentialSpec, QMInput, affinity_dimension,
                                all_ones_targets, conformal_qm_input,
                                potential_value, pressure_bracket, r0_interval,
                                s0_interval, square_pressure)
from cocyclespan.wordspace import product

from _helpers import random_2x2_system

DIAG_PAIR = GeneratorSystem((np.diag([2.0, 3.0]), np.diag([1.0, 4.0])))


def _line(num, ok, detail=""):
    tag = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {tag} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_hypothesis_checker():
    t0 = time.perf_counter()
    r1 = check_hypotheses(E1(), "theorem_1_1")
    ok = r1.overall == "Fail" and r1.failed_at == "power t=2" and r1.witness.dim == 1
    t1 = time.perf_counter()
    r2 = check_hypotheses(E2(), "theorem_1_1")
    r3 = check_hypotheses(E3(), "theorem_1_1")
    ok = ok and r2.overall == "Pass" and r3.overall == "Pass"
    rd = check_hypotheses(DIAG_PAIR, "theorem_1_1")
    ok = ok and rd.overall == "Fail" and rd.failed_at == "power t=1"
    ok = ok and np.allclose(np.abs(rd.witness.basis.ravel()), [1, 0])
    elapsed = time.perf_counter() - t0
    ok = ok and (t1 - t0) < 1.0 and elapsed < 4.0
    _line(1, ok, f"E1 fails at t=2, E2/E3 pass, diag pair fails at t=1 ({elapsed:.2f}s)")


def test_criterion_2_theorem_embodiment():
    rng = np.random.default_rng(20240)
    passing = []
    while len(passing) < 25:
        sys = random_2x2_system(rng)
        if check_hypotheses(sys, "theorem_1_1").overall == "Pass":
            passing.append(sys)
    ks = []
    for sys in passing:
        search = minimal_spannable_k(sys, 8)
        assert search.found is not None, "hypotheses passed but no spannable k <= 8"
        ks.append(search.found)
    search1 = minimal_spannable_k(E1(), 8)
    diag = diagnose_failure(E1(), search1)
    ok = (search1.not_found and diag.case == "PeriodicSubspaces" and diag.period == 2
          and diag.cross_check.reducible and diag.cross_check_consistent)
    _line(2, ok, f"25 passing systems spannable (k range {min(ks)}..{max(ks)}); "
                 f"E1 NotFound with period-2 diagnosis")


def test_criterion_3_spannability_exactness():
    cert = spannable_at(E2(), 1)
    ok = cert.spannable and cert.exact and abs(cert.margin - 0.5) <= 1e-12
    rng = np.random.default_rng(31337)
    from _helpers import random_reducible_system
    agree = 0
    for i in range(100):
        sys = random_reducible_system(rng) if i % 3 == 0 else random_2x2_system(rng)
        a = spannable_at(sys, 1, method="exact")
        b = spannable_at(sys, 1, method="numeric")
        agree += a.status == b.status
    ok = ok and agree == 100
    _line(3, ok, f"E2 margin {cert.margin}; path agreement {agree}/100")


def test_criterion_4_qm_quantification():
    ok = True
    details = []
    for sys, name in ((E2(), "E2"), (E3(), "E3")):
        rep = empirical_qm(sys, 1, 5)
        worst = min(rep.empirical_c.values())
        ok = ok and all(v >= rep.gamma.value - 1e-9 for v in rep.empirical_c.values())
        details.append(f"{name}: min ratio {worst:.6f} >= gamma {rep.gamma.value:.6f}")
    rep1 = empirical_qm(E1(), 1, 5)
    ok = ok and all(v == 1.0 for v in rep1.empirical_c.values())
    ok = ok and rep1.gamma.value == 0.0
    _line(4, ok, "; ".join(details) + "; E1 ratios exactly 1 with gamma 0")


def test_criterion_5_pressure_correctness():
    ok = True
    # P(0) = log ell and P2(0) = -log ell
    for sys in (E3(), E4()):
        qm = conformal_qm_input(sys)
        br = pressure_bracket(sys, PotentialSpec("norm_s", 0.0), 8, qm)
        ok = ok and abs(br.upper - math.log(2)) <= 1e-12
        sq = square_pressure(sys, 0.0, 8, qm)
        ok = ok and abs(sq.lower + math.log(2)) <= 1e-12
    # conformal oracle on E4 at n = 8
    widths = []
    for s in (0.25, 0.5, 0.75):
        br = pressure_bracket(E4(), PotentialSpec("sv_s", s), 8, conformal_qm_input(E4()))
        target = math.log(2) + s * math.log(0.4)
        ok = ok and br.lower - 1e-9 <= target <= br.upper + 1e-9
        ok = ok and br.width <= 1e-2
        widths.append(br.width)
    # lower <= upper wherever a constant exists; Fekete monotonicity
    const = connector_constant(E3(), 1)
    for s in (0.3, 1.0, 1.7):
        br = pressure_bracket(E3(), PotentialSpec("sv_s", s), 8,
                              QMInput(k=1, C=const.value(s, "sv_s")))
        ok = ok and br.lower <= br.upper
    for spec in (PotentialSpec("norm_s", 1.0), PotentialSpec("sv_s", 0.5)):
        ok = ok and pressure_bracket(E3(), spec, 8).upper <= \
            pressure_bracket(E3(), spec, 4).upper + 1e-12
    _line(5, ok, f"P(0)=log 2, P2(0)=-log 2, E4 oracle widths {max(widths):.2e}")


def test_criterion_6_dimension_formulas():
    s0 = s0_interval(E4(), all_ones_targets(10), 10, 1)
    t_s0 = math.log(2) / math.log(6.25)
    mid_s0 = 0.5 * (s0.interval[0] + s0.interval[1])
    r0 = r0_interval(E4(), 0.5, 10, 1)
    t_r0 = 2 * math.log(2) / (3 * math.log(2.5))
    mid_r0 = 0.5 * (r0.interval[0] + r0.interval[1])
    aff = affinity_dimension(E4(), 10, 1)
    t_aff = math.log(2) / math.log(2.5)
    mid_aff = 0.5 * (aff.interval[0] + aff.interval[1])
    ok = abs(mid_s0 - t_s0) <= 1e-3 and abs(mid_r0 - t_r0) <= 1e-3 \
        and abs(mid_aff - t_aff) <= 1e-3
    for rep in (s0, r0, aff):
        ok = ok and rep.dimension[0] <= 2.0 and rep.dimension[1] <= 2.0
    _line(6, ok, f"s0 err {abs(mid_s0 - t_s0):.2e}, r0 err {abs(mid_r0 - t_r0):.2e}, "
                 f"affinity err {abs(mid_aff - t_aff):.2e}, clamped <= 2")


def test_criterion_7_lemma_42_inequality():
    sys = E3()
    const = connector_constant(sys, 1)
    consts = {s: const.value(s, "sv_s") for s in (0.3, 1.0, 1.7)}
    rng = np.random.default_rng(4242)
    worst = math.inf
    for _ in range(500):
        nI, nJ = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        I = tuple(int(x) for x in rng.integers(1, 3, nI))
        J = tuple(int(x) for x in rng.integers(1, 3, nJ))
        pI, pJ = product(sys, I), product(sys, J)
        best_K, best_r = None, -math.inf
        for K in ((1,), (2,)):
            r = product(sys, I + K + J).norm() / (pI.norm() * pJ.norm())
            if r > best_r:
                best_K, best_r = K, r
        mIKJ = product(sys, I + best_K + J).matrix
        for s, c in consts.items():
            spec = PotentialSpec("sv_s", s)
            lhs = potential_value(mIKJ, spec)
            rhs = c * potential_value(pI.matrix, spec) * potential_value(pJ.matrix, spec)
            worst = min(worst, lhs - rhs)
            assert lhs >= rhs - 1e-12
    c_left = const.gamma.value ** 1.0
    c_right = const.min_det ** 0.0 * const.gamma.value ** 1.0
    ok = worst >= -1e-12 and abs(c_left - c_right) <= 1e-12
    _line(7, ok, f"500 triples, worst slack {worst:.3e}; C continuous at s=1")


def test_criterion_8_mixing_core():
    kf = kappa_floor(E3(), 1.0, 1, 5)
    ok = kf.certified and kf.floor >= 1.0 - 1e-9
    psi5 = psi_mixing_stat(E5(), 1.0, 2, 3)
    ok = ok and psi5.psi_hat <= 1e-12
    vals = [psi_mixing_stat(E3(), 1.0, 3, gap).psi_hat for gap in (2, 4, 6)]
    ok = ok and vals[0] >= vals[1] - 1e-9 and vals[1] >= vals[2] - 1e-9
    _line(8, ok, f"kappa floor {kf.floor:.4f}, psi(E5) {psi5.psi_hat:.1e}, "
                 f"E3 decay {[round(v, 4) for v in vals]}")


def test_criterion_9_numerical_hygiene():
    rng = np.random.default_rng(90909)
    ok = True
    # wedge multiplicativity on 200 random invertible pairs
    for _ in range(200):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, d))
        A, B = rng.standard_normal((2, d, d))
        if min(abs(np.linalg.det(A)), abs(np.linalg.det(B))) < 1e-6:
            continue
        lhs = wedge_power(A @ B, m)
        rhs = wedge_power(A, m) @ wedge_power(B, m)
        ok = ok and np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())
    # concatenation law
    for _ in range(500):
        sys = E3() if rng.integers(2) else E2()
        I = tuple(int(x) for x in rng.integers(1, 3, int(rng.integers(0, 7))))
        J = tuple(int(x) for x in rng.integers(1, 3, int(rng.integers(0, 7))))
        lhs = product(sys, I + J).matrix
        rhs = product(sys, J).matrix @ product(sys, I).matrix
        ok = ok and np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())
    # phi piece boundaries
    for _ in range(100):
        A = rng.standard_normal((2, 2))
        if abs(np.linalg.det(A)) < 1e-6:
            continue
        s1, s2 = singular_values(A)
        ok = ok and abs(s1 * s2 - abs(np.linalg.det(A))) <= 1e-12 * max(1.0, s1 * s2)
        potential_value(A, PotentialSpec("sv_s", 1.0))
        potential_value(A, PotentialSpec("sv_s", 2.0))
    _line(9, ok, "wedge/product laws <= 1e-10, phi boundaries <= 1e-12")
