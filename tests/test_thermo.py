import functools
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclespan import E2, E3, E4, E5, GeneratorSystem
from cocyclespan.errors import InputError
from cocyclespan.thermo import (_BOUND_TOL, ROOT_TOL, S_MAX, PotentialSpec, QMInput,
                                TargetSequence, _monotone_warnings, _root_bracket,
                                affinity_dimension, all_ones_targets, beta_hat,
                                conformal_qm_input, log_potential, pressure_brackets,
                                r0_interval, s0_interval)
from cocyclespan.kernels import _log_det, word_singvals
from cocyclespan.thermo import _TargetData
from cocyclespan.wordspace import word_unrank

from _helpers import D3, alpha_hat, potential_value, random_2x2_system

LOG2 = math.log(2.0)
LOG04 = math.log(0.4)
LOG25 = math.log(2.5)


class TestPotential:
    def test_sv_pieces_hand_values(self):
        A = np.diag([0.4, 0.1])
        assert abs(potential_value(A, PotentialSpec("sv_s", 0.5)) - 0.4**0.5) <= 1e-14
        # |A^-1| = 10: phi^1.5 = 0.4 * 10^{-0.5}
        assert abs(potential_value(A, PotentialSpec("sv_s", 1.5)) - 0.4 * 10**-0.5) <= 1e-14
        assert abs(potential_value(A, PotentialSpec("sv_s", 2.0)) - 0.04) <= 1e-12

    def test_piece_agreement_at_boundaries_100(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            A = rng.standard_normal((2, 2))
            if abs(np.linalg.det(A)) < 1e-6:
                continue
            s1, s2 = np.linalg.svd(A, compute_uv=False)
            # s = 1: |A|^s vs |A| |A^-1|^{-(s-1)}
            assert abs(s1**1.0 - s1 * (s2 / 1.0) ** 0.0) <= 1e-12 * s1
            # s = 2: |A||A^-1|^{-1} vs |det|
            lhs = s1 * s2
            rhs = abs(np.linalg.det(A))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
            for s in (1.0, 2.0):
                potential_value(A, PotentialSpec("sv_s", s))  # internal assert

    def test_submultiplicative_500(self):
        rng = np.random.default_rng(67)
        for _ in range(500):
            A = rng.standard_normal((2, 2))
            B = rng.standard_normal((2, 2))
            if min(abs(np.linalg.det(A)), abs(np.linalg.det(B))) < 1e-6:
                continue
            s = float(rng.choice([0.3, 1.0, 1.5, 2.5]))
            spec = PotentialSpec("sv_s", s)
            lhs = potential_value(A @ B, spec)
            rhs = potential_value(A, spec) * potential_value(B, spec)
            assert lhs <= rhs * (1 + 1e-12)

    def test_norm_potential_any_d(self):
        A = np.diag([2.0, 3.0, 5.0])
        assert abs(potential_value(A, PotentialSpec("norm_s", 2.0)) - 25.0) <= 1e-12

    def test_sv_requires_d2(self):
        with pytest.raises(InputError):
            potential_value(np.eye(3), PotentialSpec("sv_s", 1.0))


class TestPressure:
    def test_counting_pressure_exact(self):
        for sys in (E3(), E4()):
            qm = QMInput(k=0, C=1.0) if sys.is_conformal() else None
            br = pressure_brackets(sys, "norm_s", 8, [0.0], [qm])[0]
            assert abs(br.upper - LOG2) <= 1e-12

    def test_e4_counting_lower_bound(self):
        br = pressure_brackets(E4(), "norm_s", 8, [0.0], [QMInput(k=1, C=1.0)])[0]
        assert br.lower_valid
        assert abs(br.lower - 8 * LOG2 / 9) <= 1e-12
        assert br.lower <= LOG2 <= br.upper + 1e-12

    def test_e4_conformal_oracle(self):
        qm = conformal_qm_input(E4())
        assert qm == QMInput(k=0, C=1.0)
        for s in (0.25, 0.5, 0.75):
            br = pressure_brackets(E4(), "sv_s", 8, [s], [qm])[0]
            target = LOG2 + s * LOG04
            assert br.lower - 1e-9 <= target <= br.upper + 1e-9
            assert br.width <= 1e-2

    def test_square_pressure_counting(self):
        for sys in (E3(), E4()):
            qm = conformal_qm_input(sys)
            br = pressure_brackets(sys, "sv_s_squared", 8, [0.0], [qm])[0]
            assert abs(br.lower + LOG2) <= 1e-12

    def test_e4_square_pressure_conformal(self):
        br = pressure_brackets(E4(), "sv_s_squared", 8, [0.5], [conformal_qm_input(E4())])[0]
        target = -(LOG2 + 2 * 0.5 * LOG04)
        assert abs(br.lower - target) <= 1e-9
        assert abs(br.upper - target) <= 1e-9

    def test_e3_bracket_narrows(self):
        from cocyclespan.quasimult import connector_constant
        c = connector_constant(E3(), 1).value(1.0, "sv_s")
        checks = {}
        for n in (5, 10):
            br = pressure_brackets(E3(), "sv_s", n, [1.0], [QMInput(k=1, C=c)])[0]
            checks[n] = br
            assert br.lower <= br.upper
        assert checks[10].width < checks[5].width

    def test_qm_provider_valid_beyond_two(self):
        # for s > 2 the sv potential is a pure determinant power; the source's
        # constant must stay a true lower bound (cross-check vs a deeper level)
        from cocyclespan.thermo import qm_source
        qm_input, _ = qm_source(E3(), 1)
        for s in (2.5, 3.0):
            br = pressure_brackets(E3(), "sv_s", 8, [s], [qm_input(s, "sv_s")])[0]
            deeper = pressure_brackets(E3(), "sv_s", 14, [s], [None])[0]
            assert br.lower <= deeper.upper
        for s in (0.5, 2.5):
            qm = qm_input(s, "norm_s")
            br = pressure_brackets(E3(), "norm_s", 8, [s], [qm])[0]
            deeper = pressure_brackets(E3(), "norm_s", 14, [s], [None])[0]
            assert br.lower <= deeper.upper

    def test_fekete_upper_monotone(self):
        from cocyclespan.thermo import _LevelData
        for sys in (E3(), E5()):
            for kind, s in (("norm_s", 1.0), ("sv_s", 0.7), ("sv_s_squared", 0.7)):
                # the subadditive end (1/n) log Z_n; square brackets carry it negated
                up_n, up_2n = (-br.lower if br.negated else br.upper
                               for br in (pressure_brackets(sys, kind, m, [s], [None])[0]
                                          for m in (4, 8)))
                assert up_2n <= up_n + 1e-12

    def test_no_lower_end_crosses_an_upper_end_of_another_level(self):
        # every valid lower end bounds the pressure from below and every upper
        # end from above, so max over n of the lower ends <= min over n of the
        # upper ends. Rounding is not covered yet (ROADMAP item 9): the
        # conformal E4 and E5 have the exact C = 1, hence no slack, and cross
        # by 8.9e-16 at most; anything past 1e-14 is a certificate bug
        from cocyclespan.thermo import KINDS, qm_source
        s_values = [0.0, 0.3, 0.7, 1.0, 1.3, 1.8, 2.5]
        rng = np.random.default_rng(10)
        systems = [E2(), E3(), E4(), E5()] + [random_2x2_system(rng) for _ in range(6)]
        lower_ends = 0
        for system in systems:
            qm_input, _ = qm_source(system, 1)
            for kind in KINDS:
                qms = [qm_input(s, kind) for s in s_values]
                levels = [pressure_brackets(system, kind, n, s_values, qms) for n in range(1, 9)]
                for i, s in enumerate(s_values):
                    lower = max(brackets[i].lower for brackets in levels)
                    upper = min(brackets[i].upper for brackets in levels)
                    assert lower <= upper + 1e-14, (system.generators, kind, s, lower - upper)
                    lower_ends += math.isfinite(lower) and math.isfinite(upper)
        assert lower_ends >= 100  # of 210 (system, kind, s): most carry both ends


class TestAlphaBeta:
    def test_e4_constant_targets(self):
        val = alpha_hat(E4(), all_ones_targets(8), 0.5)
        assert abs(val - 0.5 * LOG25) <= 1e-12

    def test_s_zero(self):
        assert alpha_hat(E3(), all_ones_targets(5), 0.0) == 0.0

    def test_e3_alternating_targets_cross_check(self):
        words = tuple(tuple(1 + (i % 2) for i in range(k)) for k in range(1, 7))
        targets = TargetSequence(words=words, tail_start=2)
        from cocyclespan.wordspace import product
        expect = min(-math.log(product(E3(), w).norm()) / len(w) for w in words[1:])
        assert abs(alpha_hat(E3(), targets, 1.0) - expect) <= 1e-12

    @pytest.mark.parametrize("words,calls", [
        (tuple((1,) * k for k in range(1, 41)), 40),  # 820 when each starts afresh
        (((1,), (1, 2), (2,), (2, 2, 1), (1, 2)), 7),
    ])
    def test_targets_continue_the_last_product(self, monkeypatch, words, calls):
        # a target extending the last continues from its product, with its bits
        from cocyclespan import wordspace
        from cocyclespan.thermo import _TargetData
        expect = [wordspace.product(E3(), w) for w in words]
        seen = []
        orig = wordspace._extend_level
        monkeypatch.setattr(wordspace, "_extend_level",
                            lambda *a: seen.append(1) or orig(*a))
        data = _TargetData(E3(), TargetSequence(words=words))
        assert len(seen) == calls
        # log sigma_2 is log |det| from the letter counts minus log sigma_1, as for a level
        for w, sp, l1, l2 in zip(words, expect, data.logs1, data.logs2, strict=True):
            l1_ref = sp.logscale + math.log(np.linalg.svd(sp.unit, compute_uv=False)[0])
            counts = np.array([w.count(j) for j in range(1, E3().ell + 1)], dtype=float)
            assert (l1, l2) == (l1_ref, float(_log_det(E3().stacked(), counts)) - l1_ref)

    def test_empty_targets_rejected(self):
        with pytest.raises(InputError):
            TargetSequence(words=())
        with pytest.raises(InputError):
            TargetSequence(words=((),))

    def test_beta_table_floor_half(self):
        table = [(n, n // 2) for n in range(1, 101)]
        est = beta_hat(psi_table=table, tail_start=50)
        assert 0.49 <= est.value <= 0.5
        assert not est.warnings

    def test_beta_explicit(self):
        assert beta_hat(beta=0.3).value == 0.3
        # an explicit or estimated beta >= 1 is an input error
        for kwargs in ({"beta": 1.0}, {"beta": 1.5},
                       {"psi_table": [(n, n) for n in range(1, 50)], "tail_start": 10}):
            with pytest.raises(InputError) as err:
                beta_hat(**kwargs)
            assert str(err.value) == "recurrence dimension needs beta < 1"

    def test_beta_unstable_last_quartile(self):
        # n >= 17.5 is the last quartile of 10..20: ratios 0.5, 8/19 and 0.5
        est = beta_hat(psi_table=[(10, 5.0), (18, 9.0), (19, 8.0), (20, 10.0)])
        assert est.warnings == ("liminf proxy unstable: last-quartile spread above 0.01",)

    def test_decreasing_target_lengths_warn(self):
        targets = TargetSequence(words=((1, 2), (1,)))
        assert targets.validate(2) == ["target lengths are not nondecreasing"]

    @pytest.mark.parametrize("values,decreasing", [((1.0, 2.0), True), ((2.0, 1.0), False)])
    def test_monotone_warnings_fire(self, values, decreasing):
        samples = [(0.5, values[1]), (0.0, values[0])]  # sorted by s before the check
        assert _monotone_warnings(samples, "curve", decreasing) == [
            "curve not monotone along the root-search samples"]
        assert _monotone_warnings(samples[:1], "curve", decreasing) == []


class TestDimensionReports:
    def test_e4_shrinking_target(self):
        rep = s0_interval(E4(), all_ones_targets(10), 10, 1)
        target = LOG2 / math.log(6.25)
        assert rep.interval[0] - 1e-3 <= target <= rep.interval[1] + 1e-3
        assert rep.width <= 1e-3
        assert rep.dimension[1] <= 2.0
        assert rep.details["qm"]["mode"] == "conformal"

    def test_e4_recurrence(self):
        rep = r0_interval(E4(), 0.5, 10, 1)
        target = 2 * LOG2 / (3 * LOG25)
        assert abs(0.5 * (rep.interval[0] + rep.interval[1]) - target) <= 1e-3

    def test_beta_zero_degenerates_to_affinity(self):
        r0 = r0_interval(E4(), 0.0, 10, 1)
        aff = affinity_dimension(E4(), 10, 1)
        assert abs(r0.interval[1] - aff.interval[1]) <= 1e-5

    def test_e4_affinity(self):
        rep = affinity_dimension(E4(), 10, 1)
        target = LOG2 / LOG25
        assert abs(rep.interval[1] - target) <= 1e-3

    def test_single_contraction_boundary(self):
        sys = GeneratorSystem((np.diag([0.4, 0.4]),))
        rep = affinity_dimension(sys, 6, 1)
        assert rep.boundary == "at_lower"
        assert rep.interval[1] == 0.0

    def test_beta_range_checked(self):
        with pytest.raises(InputError):
            r0_interval(E4(), 1.0, 8, 1)

    def test_e3_s0_width_and_grid_cross_check(self):
        targets = all_ones_targets(12)
        rep = s0_interval(E3(), targets, 10, 1)
        assert rep.width <= 0.05
        # dense s-grid on the upper pressure curve must cross inside the interval
        from cocyclespan.thermo import _LevelData, _TargetData
        data = _LevelData(E3(), 10)
        tdata = _TargetData(E3(), targets)
        grid = np.linspace(0.0, 1.0, 401)
        vals = [data.log_z(PotentialSpec("sv_s", s)) / 10 - tdata.alpha(s) for s in grid]
        crossings = [s for s, a, b in zip(grid[1:], vals, vals[1:]) if a > 0 >= b]
        assert len(crossings) == 1
        assert rep.interval[0] - 1e-6 <= crossings[0] <= rep.interval[1] + 5e-3

    def test_e3_r0_and_affinity_intervals(self):
        rr = r0_interval(E3(), 0.5, 10, 1)
        assert rr.interval[0] < rr.interval[1]
        assert rr.width <= 0.08
        rr8 = r0_interval(E3(), 0.5, 8, 1)
        assert rr8.interval[0] - 1e-12 <= rr.interval[0]
        assert rr.interval[1] <= rr8.interval[1] + 1e-12
        ra10 = affinity_dimension(E3(), 10, 1)
        ra8 = affinity_dimension(E3(), 8, 1)
        assert ra10.width <= 0.12
        # intervals nest as n grows
        assert ra8.interval[0] - 1e-12 <= ra10.interval[0]
        assert ra10.interval[1] <= ra8.interval[1] + 1e-12

    def test_e3_s0_nesting(self):
        targets = all_ones_targets(12)
        r8 = s0_interval(E3(), targets, 8, 1)
        r10 = s0_interval(E3(), targets, 10, 1)
        assert r8.interval[0] - 1e-12 <= r10.interval[0]
        assert r10.interval[1] <= r8.interval[1] + 1e-12


def _phi_like(slopes, s):
    """Decreasing and piecewise linear with kinks at s = 1 and 2, like log phi^s."""
    return -(slopes[0] * min(s, 1.0) + slopes[1] * min(max(s - 1.0, 0.0), 1.0)
             + slopes[2] * max(s - 2.0, 0.0))


@st.composite
def decreasing_functions(draw):
    """A decreasing g on [0, 4] with its root inside, of one of four kinds."""
    r = draw(st.floats(0.001, 3.999))
    kind = draw(st.sampled_from(["convex", "kinked", "flat", "minus_inf"]))
    if kind == "convex":
        c = 10 ** draw(st.floats(-2, 1.5))
        return lambda s: math.exp(-c * s) - math.exp(-c * r)
    if kind == "kinked":
        slopes = [10 ** draw(st.floats(-3, 1)) for _ in range(3)]
        return lambda s: _phi_like(slopes, s) - _phi_like(slopes, r)
    if kind == "flat":  # a cubic with a nearly flat stretch through its root
        eps = 10 ** draw(st.floats(-9, -1))
        return lambda s: (r - s) ** 3 + eps * (r - s)
    cut = draw(st.floats(r, 3.999))
    c = 10 ** draw(st.floats(-2, 1))
    return lambda s: -math.inf if s > cut else c * (r - s)


class TestRootBracket:
    """`_root_bracket`: g(a) > 0 >= g(b), b - a <= tol, at most 2 log2(4/tol) + 2 calls."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(decreasing_functions(), st.sampled_from([1e-3, 1e-6, 1e-9]))
    def test_contract(self, g, tol):
        calls = []
        a, b, tag, counts = _root_bracket(lambda s: calls.append(s) or g(s), 0.0, 4.0, tol)
        assert tag is None
        assert g(a) > 0 >= g(b)
        assert 0.0 <= a < b <= 4.0 and b - a <= tol
        assert len(calls) == counts["steps"] + 2 <= 2 * math.ceil(math.log2(4 / tol)) + 2
        assert counts["bisection_fallbacks"] <= counts["steps"]

    @pytest.mark.parametrize("c", [10.0, 20.0, 30.0])
    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_stalled_secant_falls_back_to_bisection(self, c, r):
        # regula falsi stalls on a steep convex curve: 44 steps here without the
        # bisection that follows two steps which did not halve the bracket
        a, b, _, counts = _root_bracket(lambda s: math.exp(-c * s) - math.exp(-c * r), 0.0, 4.0)
        assert a < r <= b
        assert counts["bisection_fallbacks"] >= 1 and counts["steps"] <= 12

    @pytest.mark.parametrize("g,expect", [
        (lambda s: -1.0 - s, (0.0, 0.0, "at_lower")),
        (lambda s: -math.inf, (0.0, 0.0, "at_lower")),  # a lower curve without a constant
        (lambda s: 0.0, (0.0, 0.0, "at_lower")),
        (lambda s: 5.0 - s, (4.0, 4.0, "at_upper")),
    ])
    def test_boundary_tags(self, g, expect):
        a, b, tag, counts = _root_bracket(g, 0.0, 4.0)
        assert (a, b, tag) == expect
        assert counts == {"steps": 0, "bisection_fallbacks": 0}

    def test_e4_affinity_contains_the_exact_root(self):
        # the midpoint of the last bisection bracket gave (0.75647116, 0.75647116)
        rep = affinity_dimension(E4(), 12, 1)
        assert rep.interval[0] <= LOG2 / LOG25 <= rep.interval[1]
        assert rep.width <= 1e-6

    def test_e3_ends_bound_their_curves_roots(self):
        from cocyclespan.thermo import _LevelData, qm_source
        n = 12
        rep = affinity_dimension(E3(), n, 1)
        data = _LevelData(E3(), n)
        qm_input, _ = qm_source(E3(), 1)

        def upper(s):
            return data.log_z(PotentialSpec("sv_s", s)) / n

        def lower(s):
            qm = qm_input(s, "sv_s")
            return (data.log_z(PotentialSpec("sv_s", s)) + math.log(qm.C)) / (n + qm.k)

        def bisect(g):
            a, b = 0.0, S_MAX
            for _ in range(60):
                mid = 0.5 * (a + b)
                a, b = (mid, b) if g(mid) > 0 else (a, mid)
            return a, b

        assert rep.interval[1] >= bisect(upper)[1]
        assert rep.interval[0] <= bisect(lower)[0]


# both generators fix the line e1, so gamma = 0 and the lower curve is -inf
NO_CONSTANT = GeneratorSystem((np.array([[0.4, 0.1], [0.0, 0.2]]),
                               np.array([[0.3, -0.1], [0.0, 0.25]])))


def _dimension_ops(system, n):
    """The three root commands on one system at level n, with one potential per
    step (`affinity`, `s0`) or two (`r0`)."""
    return [(lambda: affinity_dimension(system, n, 1), 1),
            (lambda: s0_interval(system, all_ones_targets(6), n, 1), 1),
            (lambda: r0_interval(system, 0.3, n, 1), 2)]


def _searches(monkeypatch, run):
    """(report, [upper search, lower search]) of one root command, through a spy on
    `_root_bracket`, which each curve calls once. A search is
    (g, (lo, hi, tol), points sampled, (a, b, tag, counts))."""
    from cocyclespan import thermo
    calls, bracket = [], thermo._root_bracket

    def spy(g, lo, hi, tol=ROOT_TOL):
        seen = []
        out = bracket(lambda s: seen.append(s) or g(s), lo, hi, tol)
        calls.append((g, (lo, hi, tol), set(seen), out))
        return out

    monkeypatch.setattr(thermo, "_root_bracket", spy)
    rep = run()
    monkeypatch.undo()
    assert len(calls) == 2
    return rep, calls


def _exact_curve(g):
    """A search's curve, read at the exact log Z_n at every s."""
    from cocyclespan import thermo

    def exact(s):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(thermo._LevelData, "log_z_bounds",
                      lambda self, spec: (self.log_z(spec),) * 2)
            return g(s)
    return exact


def _check_searches(rep, searches, per_step):
    """Each end against the exact curve's search from [0, S_MAX].

    A curve's one search runs on [0, 1] to _BOUND_TOL where its g is <= 0 at
    s = 1, else on [1, S_MAX] to ROOT_TOL, and ends with the exact search's tag.
    Without a tag, g lies on the outer side of the exact curve at every point
    it sampled, and the end lies outside the exact root, within ROOT_TOL of the
    exact search's bracket. g reads the exact log Z_n at s = 0 and s > 1: each
    such point costs a pass or a closed form per potential in the first search
    that reads it. Returns the exact passes of both searches."""
    known, passes = set(), 0
    for name, (g, start, seen, (a, b, tag, _)) in zip(("upper", "lower"), searches):
        counts, exact = rep.root_search[name], _exact_curve(g)
        assert start == ((0.0, 1.0, _BOUND_TOL) if g(1.0) <= 0 else (1.0, S_MAX, ROOT_TOL))
        ra, rb, ref_tag, _ = _root_bracket(exact, 0.0, S_MAX)
        assert tag == ref_tag
        if tag is None:
            assert g(a) > 0 >= g(b) and b - a <= start[2]
            if name == "upper":
                assert all(g(s) >= exact(s) for s in seen)
                assert exact(b) <= 0 and ra < b <= rb + ROOT_TOL
            else:
                assert all(g(s) <= exact(s) for s in seen)
                assert exact(a) > 0 and ra - ROOT_TOL <= a < rb
        else:
            assert (a, b) == (ra, rb)
        assert counts["bounds"] == (tag is None and (a, b)[name == "upper"] <= 1.0)
        if counts["bounds"]:
            assert counts["bins"] > 0 and counts["log_z_gap"] >= 0
        else:
            assert counts["bins"] is None and counts["log_z_gap"] is None
        # a lower curve without a constant is -inf and reads no log Z_n
        reads = {s for s in seen | {1.0} if s == 0.0 or s > 1.0} if math.isfinite(g(0.0)) else set()
        assert counts["passes"] + counts["closed_form"] == per_step * len(reads - known)
        known |= reads
        passes += counts["passes"]
    (*_, (_, s_hi, _, _)), (*_, (s_lo, _, _, _)) = searches
    assert rep.interval == (min(s_lo, s_hi), s_hi)
    return passes


class TestSeededLowerSearch:
    """Each curve takes one search, on the level's certified log Z_n bounds up to
    s = 1 and on the exact log Z_n above; nothing seeds it. Its ends lie outside
    the exact curve's roots, within ROOT_TOL of the exact search from [0, S_MAX]."""

    @pytest.mark.parametrize("system", [E3(), E4()], ids=["e3", "e4"])
    def test_shipped_systems(self, monkeypatch, system):
        # both curves search [0, 1] on their bounds with no exact pass: the upper
        # search takes s = 0 in closed form and builds the histogram in one sweep
        for run, per_step in _dimension_ops(system, 10):
            rep, searches = _searches(monkeypatch, run)
            assert _check_searches(rep, searches, per_step) == 0
            assert [start for _, start, _, _ in searches] == [(0.0, 1.0, _BOUND_TOL)] * 2
            up, lo = rep.root_search["upper"], rep.root_search["lower"]
            assert up["bounds"] and lo["bounds"] and up["bins"] == lo["bins"]
            assert lo["closed_form"] == lo["sweeps"] == 0
            assert up["closed_form"] == per_step and up["sweeps"] == 1
            if system.is_conformal():  # one log sigma_1 per word: one bin
                assert up["bins"] == 1 and up["log_z_gap"] <= 1e-11

    def test_random_systems(self, monkeypatch):
        # contracting pairs and triples, whose roots lie inside [0, S_MAX], and
        # expanding ones, whose upper search ends at a boundary tag, under all
        # three commands: 258 exact passes, against 296 when a curve whose bound
        # curve stayed positive at s = 1 searched the exact curve from [0, S_MAX]
        passes = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            ell = int(rng.integers(2, 4))
            system = random_2x2_system(rng, ell)
            if rng.integers(3):
                system = GeneratorSystem(tuple(
                    float(rng.uniform(0.2, 0.7)) * A / np.linalg.norm(A, 2)
                    for A in system.generators))
            n = int(rng.integers(3, 11 if ell == 2 else 9))
            for run, per_step in _dimension_ops(system, n):
                rep, searches = _searches(monkeypatch, run)
                passes += _check_searches(rep, searches, per_step)
        assert passes == 258

    def test_no_constant_ends_at_the_lower_boundary(self, monkeypatch):
        # g_lo is -inf at every point, s = 1 too: the lower search takes [0, 1] and
        # ends at once at the lower boundary, with no log Z_n and no histogram
        for run, per_step in _dimension_ops(NO_CONSTANT, 8):
            rep, searches = _searches(monkeypatch, run)
            _check_searches(rep, searches, per_step)
            counts = rep.root_search["lower"]
            assert searches[1][1] == (0.0, 1.0, _BOUND_TOL) and searches[1][3][2] == "at_lower"
            assert counts["passes"] == counts["steps"] == counts["sweeps"] == 0
            assert counts["closed_form"] == 0 and not counts["bounds"]
            assert rep.interval[0] == 0.0
            assert "no positive QM constant: lower root defaulted to 0" in rep.warnings

    def test_r0_at_beta_zero_without_a_constant(self, monkeypatch):
        # h at the lower ends would read 1 * (-inf) + 0 * (-inf) = nan: the lower
        # curve stays -inf, so the lower root is 0 with its warning, and no nan
        rep, searches = _searches(monkeypatch, lambda: r0_interval(NO_CONSTANT, 0.0, 8, 1))
        _check_searches(rep, searches, 2)
        counts = rep.root_search["lower"]
        assert searches[1][3][2] == "at_lower"
        assert counts["passes"] == counts["steps"] == 0 and not counts["bounds"]
        assert rep.interval[0] == 0.0
        assert not any(math.isnan(x) for x in rep.interval + rep.dimension)
        assert "no positive QM constant: lower root defaulted to 0" in rep.warnings

    def test_root_above_one_takes_the_exact_search(self, monkeypatch):
        # phi^s reads log sigma_2 above s = 1, where the bounds do not reach: both
        # curves are positive at s = 1 on their bounds, and each searches
        # [1, S_MAX] on the exact log Z_n; the lower g(1) read at the lower bounds
        # is at most the exact lower curve there, so its end stays outward
        system = GeneratorSystem((np.diag([0.7, 0.5]), 0.6 * np.array([[0.0, -1.0], [1.0, 0.0]])))
        rep, searches = _searches(monkeypatch, lambda: affinity_dimension(system, 10, 1))
        assert _check_searches(rep, searches, 1) > 0
        assert 1.0 < rep.interval[0] < rep.interval[1] < 2.0
        for (_, start, _, (_, _, _, counts)), end in zip(searches, rep.root_search.values()):
            assert start == (1.0, S_MAX, ROOT_TOL) and counts["steps"] > 0
            assert not end["bounds"] and end["passes"] > 0

    def test_raised_upper_bounds_search_above_one(self, monkeypatch):
        # upper bounds raised by 2n stay upper bounds and put the upper g above 0
        # at s = 1, though E3's upper roots lie below 1: each upper search runs on
        # [1, S_MAX], where the exact curve is <= 0 at once, and ends just past 1,
        # outside the root by more than ROOT_TOL; the lower search is unchanged
        from cocyclespan import thermo
        bounds = thermo._LevelData.log_z_bounds
        for run, _ in _dimension_ops(E3(), 10):
            plain = run()
            monkeypatch.setattr(thermo._LevelData, "log_z_bounds",
                                lambda self, spec: (bounds(self, spec)[0],
                                                    bounds(self, spec)[1] + 2 * self.n))
            rep, ((g, start, _, (a, b, tag, _)), _) = _searches(monkeypatch, run)
            exact = _exact_curve(g)
            assert start == (1.0, S_MAX, ROOT_TOL) and tag is None
            assert (a, b) == (1.0, rep.interval[1]) and 1.0 < b <= 1.0 + ROOT_TOL
            _, rb, _, _ = _root_bracket(exact, 0.0, S_MAX)
            assert exact(b) <= 0 and rb + ROOT_TOL < b
            assert not rep.root_search["upper"]["bounds"] and rep.root_search["lower"]["bounds"]
            assert rep.interval[0] == plain.interval[0]

    @pytest.mark.parametrize("shift", [0, 2], ids=["bounds", "exact"])
    def test_s0_warnings_read_the_upper_ends_the_search_used(self, monkeypatch, shift):
        # the s0 monotonicity warnings check the upper pressure the upper search
        # read at each point it sampled, s = 1 among them: the upper bound's ends
        # at s <= 1 and the exact ends above. Where the search stays on [0, 1]
        # (no shift), S_MAX is not among them; where raised upper bounds send it
        # to [1, S_MAX], s = 0 is not
        from cocyclespan import thermo
        from cocyclespan.thermo import _LevelData
        checked, monotone, bounds = [], thermo._monotone_warnings, _LevelData.log_z_bounds
        monkeypatch.setattr(thermo, "_monotone_warnings", lambda samples, label, decreasing:
                            checked.append(dict(samples)) or monotone(samples, label, decreasing))
        monkeypatch.setattr(_LevelData, "log_z_bounds", lambda self, spec: (
            bounds(self, spec)[0], bounds(self, spec)[1] + shift * self.n))
        rep, ((_, start, seen, _), _) = _searches(
            monkeypatch, lambda: s0_interval(E3(), all_ones_targets(6), 10, 1))
        pressure, alpha = checked
        assert set(pressure) == set(alpha) == seen | {1.0}
        assert start[0] == (1.0 if shift else 0.0) and rep.root_search["upper"]["bounds"] == (not shift)
        assert (S_MAX in pressure) == bool(shift) and (0.0 in pressure) == (not shift)
        data = _LevelData(E3(), 10)
        for s, p in pressure.items():
            spec = PotentialSpec("sv_s", s)
            assert p == (data.log_z(spec) if s > 1 else bounds(data, spec)[1] + shift * 10) / 10


def _contracting(seed, ell):
    """A contracting system of ell 2x2 generators with spectral norms in [0.2, 0.7]."""
    rng = np.random.default_rng(seed)
    return GeneratorSystem(tuple(float(rng.uniform(0.2, 0.7)) * A / np.linalg.norm(A, 2)
                                 for A in random_2x2_system(rng, ell).generators))


def _check_bounds(data):
    """lower <= exact pass <= upper for c = s and 2s at 21 values of s in [0, 1], equal at
    s = 0, and a gap of at most c^2 w^2 / 8 plus the two rounding allowances."""
    width = data.histogram[3]
    for kind, c in (("sv_s", 1.0), ("sv_s_squared", 2.0)):
        for s in np.linspace(0.0, 1.0, 21):
            spec = PotentialSpec(kind, float(s))
            lower, upper = data.log_z_bounds(spec)
            exact = data.log_z(spec)
            assert lower <= exact <= upper, spec
            if s == 0.0:
                assert lower == exact == upper
            allowance = 2.0**-39 * max(1.0, abs(exact))
            assert upper - lower <= (c * s * width) ** 2 / 8 + allowance, spec


class TestLogZBounds:
    """`_LevelData.log_z_bounds`: Jensen below and the chord above, per bin of log sigma_1."""

    @pytest.mark.parametrize("system,n", [
        (E3(), 12), (E3(), 20), (E4(), 16), (_contracting(1, 2), 16), (_contracting(2, 2), 14),
        (_contracting(3, 3), 10), (_contracting(4, 3), 9),
        (GeneratorSystem(tuple(0.5 * np.random.default_rng(3).standard_normal((3, 2, 2)))), 13)],
        ids=["e3", "e3-n20", "e4", "pair-1", "pair-2", "triple-3", "triple-4", "rng-3"])
    def test_bound_the_exact_pass(self, system, n):
        from cocyclespan.thermo import _LevelData
        data = _LevelData(system, n)
        _check_bounds(data)
        assert 0 < len(data.histogram[0]) <= 4096

    def test_flat_level(self):
        # equal conformal norms: every word has one log sigma_1, so the histogram
        # is one bin, and the bounds meet to within their rounding allowance
        from cocyclespan.thermo import _LevelData
        data = _LevelData(E4(), 12)
        assert np.min(data.logs1) == np.max(data.logs1)
        log_counts, means, _, _ = data.histogram
        assert log_counts.tolist() == [12 * math.log(2)] and means.tolist() == [data.logs1[0]]
        _check_bounds(data)
        for s in (0.3, 1.0):
            lower, upper = data.log_z_bounds(PotentialSpec("sv_s_squared", s))
            assert upper - lower <= 2.0**-38 * max(1.0, abs(upper))
        with pytest.raises(AssertionError):  # phi^s reads log sigma_2 above s = 1
            data.log_z_bounds(PotentialSpec("sv_s", 1.5))

    @pytest.mark.parametrize("block", [128, 1001])
    def test_blocks_and_a_one_word_level(self, monkeypatch, block):
        # the build splits the pass buffer into halves of a block of y and one of
        # bins: ragged blocks give the bins' counts exactly and the bounds hold;
        # a level of one word (a buffer of two) holds them too
        from cocyclespan import thermo
        system = _contracting(5, 3)
        whole = thermo._LevelData(system, 8)
        monkeypatch.setattr(thermo, "_BLOCK", block)
        data = thermo._LevelData(system, 8)
        assert len(data._w) == block
        assert whole.histogram[0].tolist() == data.histogram[0].tolist()
        _check_bounds(data)
        one = thermo._LevelData(GeneratorSystem((np.diag([0.4, 0.2]),)), 3)
        assert len(one.logs1) == 1 and len(one._w) == 2
        _check_bounds(one)


def _out_of_place_log_potential(logs1, logs2, kind, s):
    """The log potential as plain array expressions, each step a new array."""
    if kind == "norm_s":
        return s * logs1
    if s < 1.0:
        base = s * logs1
    elif s < 2.0:
        base = logs1 + (s - 1.0) * logs2
    else:
        base = (s / 2.0) * (logs1 + logs2)
    return 2.0 * base if kind == "sv_s_squared" else base


class TestLogZInPlace:
    """`_LevelData.log_z` reduces in block buffers; the bits of one whole-level sum must not move.

    phi^s at s >= 2 is |det|^(s/2) and takes a closed form instead: it is held
    to a 50-digit value of the same sum, which the whole-level sum meets too.
    """

    S_VALUES = (0.0, 0.4, 1.0, 1.3, 1.9, 2.0, 2.7)  # both sides of 1 and 2

    @pytest.mark.parametrize("system", [
        E2(), E3(), E4(),
        GeneratorSystem(tuple(np.random.default_rng(9).standard_normal((3, 2, 2))))],
        ids=["e2", "e3", "e4", "mixed-signs"])
    def test_matches_out_of_place_formula(self, system):
        # at s = 0 a potential of log sigma_1 alone is +0.0 on E2 (log sigma_1 >= 0),
        # -0.0 on E3 and E4 (log sigma_1 < 0) and both on the Gaussian system, so
        # the max read from log sigma_1 and a max over the block can differ in the
        # sign of a zero; log Z must keep its bits either way
        from cocyclespan.thermo import KINDS, _LevelData
        data = _LevelData(system, 9)
        for kind in KINDS:
            for s in self.S_VALUES:
                got = data.log_z(PotentialSpec(kind, s))
                if kind != "norm_s" and s >= 2.0:
                    ref = _mp_det_power_log_z(system, 9, kind, s)
                    for value in (got, _whole_level_log_z(data, kind, s)):
                        assert abs(value - ref) <= 1e-15 * abs(ref), (kind, s)
                else:
                    assert got.hex() == _whole_level_log_z(data, kind, s).hex(), (kind, s)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_det_power_closed_form_against_mpmath(self, n):
        from cocyclespan.thermo import _LevelData
        data = _LevelData(E3(), n)
        for kind in ("sv_s", "sv_s_squared"):
            for s in (2.0, 2.7, S_MAX):
                ref = _mp_det_power_log_z(E3(), n, kind, s)
                assert abs(data.log_z(PotentialSpec(kind, s)) - ref) <= 1e-15 * abs(ref), (kind, s)
        assert data.passes == data.sweeps == 0 and data.closed_forms == 6

    @pytest.mark.parametrize("block", [128, 1000, 4099])
    def test_blocks_match_one_whole_level_sum(self, monkeypatch, block):
        # 3^9 words in blocks that leave ragged leaves and a ragged last max block
        from cocyclespan import thermo
        from cocyclespan.thermo import KINDS, _LevelData
        system = GeneratorSystem(tuple(np.random.default_rng(9).standard_normal((3, 2, 2))))
        whole = _LevelData(system, 9)
        monkeypatch.setattr(thermo, "_BLOCK", block)
        data = _LevelData(system, 9)
        assert len(data._w) == block < len(data.logs1)
        for kind in KINDS:
            for s in self.S_VALUES:
                spec = PotentialSpec(kind, s)
                closed = kind != "norm_s" and s >= 2.0  # no blocks: the unblocked level's value
                ref = whole.log_z(spec) if closed else _whole_level_log_z(whole, kind, s)
                assert data.log_z(spec) == ref, (kind, s)

    def test_cached_logs_are_never_written(self):
        from cocyclespan.thermo import KINDS, _LevelData
        data = _LevelData(E3(), 9)
        held = (data.logs1, data.log_dets.rows, data.log_dets.tail_class)
        before = [a.copy() for a in held]
        first = [data.log_z(PotentialSpec(kind, s)) for kind in KINDS for s in self.S_VALUES]
        again = [data.log_z(PotentialSpec(kind, s)) for kind in KINDS for s in self.S_VALUES]
        assert first == again
        for a, b in zip(held, before, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_potential_pass_memoised_per_spec(self, monkeypatch):
        # the upper and lower root searches share s = 0, which takes a closed
        # form in the upper search and is read back from the memo by the lower
        # one. E3's roots lie below s = 1, so both curves search [0, 1] on the
        # histogram's bounds and neither reads S_MAX: no potential is evaluated
        # over the level and no pass is summed; the upper search builds the
        # histogram in one sweep. r0 takes sv_s and sv_s_squared at each s
        from cocyclespan import thermo
        folds, blocks = [], []
        fold, potential = thermo.pairwise_sum, thermo._LevelData._potential
        monkeypatch.setattr(thermo, "pairwise_sum", lambda *a: folds.append(1) or fold(*a))
        monkeypatch.setattr(thermo._LevelData, "_potential",
                            lambda self, spec, lo, hi: blocks.append(spec)
                            or potential(self, spec, lo, hi))
        for run, closed in ((lambda: affinity_dimension(E3(), 12, 1), 1),
                            (lambda: r0_interval(E3(), 0.3, 12, 1), 2)):
            folds.clear()
            blocks.clear()
            rep = run()
            assert folds == blocks == []
            up, lo = rep.root_search["upper"], rep.root_search["lower"]
            assert up["bounds"] and lo["bounds"]
            assert up["passes"] == lo["passes"] == 0
            assert up["sweeps"] == 1 and lo["sweeps"] == 0
            assert up["closed_form"] == closed and lo["closed_form"] == 0
        # phi^s at 1 <= s < 2 alone adds the max pass; s = 0 and s >= 2 take none
        folds.clear()
        blocks.clear()
        pressure_brackets(E3(), "sv_s", 12, [0.0, 1.5, 2.5, 1.5], [None] * 4)
        assert folds == [1] and blocks == [PotentialSpec("sv_s", 1.5)] * 2


def _mp_det_power_log_z(system, n, kind, s):
    """log Z_n of phi^s at s >= 2 to 50 digits: phi^s(A) = |det A|^(s/2) for 2x2 A,
    and det is multiplicative, so Z_n = (sum_j |det A_j|^c)^n, c = s/2 or s (squared)."""
    with mpmath.workdps(50):
        c = mpmath.mpf(s) / (2 if kind == "sv_s" else 1)
        dets = [mpmath.mpf(float(A[0, 0])) * float(A[1, 1])
                - mpmath.mpf(float(A[0, 1])) * float(A[1, 0]) for A in system.generators]
        return n * mpmath.log(mpmath.fsum(abs(d) ** c for d in dets))


def _whole_level_log_z(data, kind, s):
    """log Z_n from whole-level arrays: logs2 rebuilt from the table, one np.sum."""
    logs2 = data.log_dets.log_sigma2(data.logs1)
    w = _out_of_place_log_potential(data.logs1, logs2, kind, s)
    m = float(np.max(w))
    return m + math.log(float(np.sum(np.exp(w - m))))


@pytest.mark.parametrize("size", [2**16, 2**16 + 1, 3**13, 2**20, 3**14 + 7, 5**9, 1000003])
def test_pairwise_recursion_has_the_bits_of_np_sum(size):
    # pins numpy's pairwise split (n // 2 rounded down to a multiple of 8);
    # a numpy whose split differs fails here, not silently in log Z
    from cocyclespan.kernels import pairwise_sum
    from cocyclespan.thermo import _BLOCK
    values = np.exp(5.0 * np.random.default_rng(size).standard_normal(size))
    leaves = []

    def leaf(lo, hi):
        leaves.append(hi - lo)
        return np.sum(values[lo:hi])

    assert pairwise_sum(leaf, 0, size, _BLOCK).tobytes() == np.sum(values).tobytes()
    assert sum(leaves) == size and max(leaves) <= _BLOCK
    assert len(leaves) == 1 if size <= _BLOCK else len(leaves) > 1


def test_streamed_level_memory():
    # the level is streamed and the gamma grid folded in row blocks; holding
    # Lambda(20) and three 2000 x 2000 grids whole grew the peak by about 98 MB
    code = ("import resource\n"
            "from cocyclespan import E3\n"
            "from cocyclespan.thermo import affinity_dimension\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "affinity_dimension(E3(), 20, 1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert int(out.stdout) < 24 * 1024  # ru_maxrss is in KiB on Linux


class TestTargetReadout:
    """A target word's log sigma_1 is the engine's readout: the bits of the same word
    in Lambda(n), for words read afresh and for targets that continue the last."""

    @staticmethod
    def _check(system, n, rng):
        ell = system.ell
        logs1 = [word_singvals(system.stacked(), m)[0] for m in range(1, n + 1)]
        ranks = rng.choice(ell**n, min(ell**n, 40), replace=False)
        chain = tuple(int(x) for x in rng.integers(1, ell + 1, n))  # each continues the last
        words = [word_unrank(r, ell, n) for r in ranks] + [chain[:m] for m in range(1, n + 1)]
        expect = [logs1[len(w) - 1][_rank(w, ell)] for w in words]
        got = _TargetData(system, TargetSequence(words=tuple(words))).logs1
        assert got.tobytes() == np.array(expect).tobytes()

    def test_e3(self):
        self._check(E3(), 10, np.random.default_rng(3))

    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), ell=st.integers(2, 3), scale=st.integers(-40, 40))
    def test_random_systems(self, seed, ell, scale):
        rng = np.random.default_rng(seed)
        system = GeneratorSystem(tuple(np.ldexp(A, scale) for A in
                                       random_2x2_system(rng, ell).generators))
        self._check(system, 8 if ell == 2 else 6, rng)


def _rank(word, ell):
    """Lexicographic rank of a word among the words of its length."""
    rank = 0
    for s in word:
        rank = rank * ell + s - 1
    return rank


def _mp_log_singvals(nums, den, words):
    """(log sigma_1, log |det|) at the working precision of the product of each word of
    the integer 2x2 matrices nums / den (flat, row-major), from exact integer products."""
    out = []
    for word in words:
        a, b, c, d = 1, 0, 0, 1
        for j in word:  # later letters multiply on the left
            p, q, r, t = nums[j - 1]
            a, b, c, d = p * a + q * c, p * b + q * d, r * a + t * c, r * b + t * d
        fro2, det = a * a + b * b + c * c + d * d, abs(a * d - b * c)
        s1 = mpmath.sqrt((fro2 + mpmath.sqrt(fro2 * fro2 - 4 * det * det)) / 2)
        scale = len(word) * mpmath.log(den)
        out.append((mpmath.log(s1) - scale, mpmath.log(det) - 2 * scale))
    return out


def _mp_log_phi(l1, ld, kind, s):
    """log phi^s (doubled for `sv_s_squared`) from log sigma_1 and log |det|."""
    if s <= 1.0:
        v = s * l1
    elif s <= 2.0:
        v = (2 - s) * l1 + (s - 1) * ld
    else:
        v = s / 2 * ld
    return 2 * v if kind == "sv_s_squared" else v


class TestRootIntervalOracle:
    """Each reported end of s0, r0 and affinity-dim has its curve's sign at 50 digits:
    the upper curve h(s, log Z_n / n, ...) is <= 0 at the upper end and the lower
    curve h(s, (log Z_n + c log C(s)) / (n + k), ...) is >= 0 at the lower end
    (both to 1e-12), with log Z_n over exact integer products of the generators
    and C(s) from the report's constant. An upper end at a boundary tag (0 or
    S_MAX) and a lower end of 0 are exempt."""

    TARGETS = ((1,), (1, 2), (1, 2, 1), (1, 2, 1, 2), (1, 2, 1, 2, 1))

    def _check(self, system, n, command):
        from cocyclespan.quasimult import ConnectorConstant, GammaResult
        from cocyclespan.rational2 import integer_matrices
        nums, den = integer_matrices(system.stacked())
        ell = system.ell
        if command == "affinity":
            rep, kinds = affinity_dimension(system, n, 1), ("sv_s",)
        elif command == "s0":
            rep, kinds = s0_interval(system, TargetSequence(self.TARGETS), n, 1), ("sv_s",)
        else:
            rep, kinds = r0_interval(system, 0.3, n, 1), ("sv_s", "sv_s_squared")
        qm = rep.details["qm"]
        if qm["mode"] == "conformal":
            k, const = 0, lambda s: 1.0
        else:
            gamma = GammaResult(value=qm["gamma"], certified=True, k=qm["k"])
            k = qm["k"]
            const = functools.partial(ConnectorConstant(k, gamma, qm["min_det"]).value,
                                      kind="sv_s")
        with mpmath.workdps(50):
            level = _mp_log_singvals(nums, den, itertools.product(range(1, ell + 1), repeat=n))
            targets = _mp_log_singvals(nums, den, self.TARGETS)

            def h(s, q):
                if command == "s0":
                    return q[0] - min(-_mp_log_phi(l1, ld, "sv_s", s) / len(w)
                                      for w, (l1, ld) in zip(self.TARGETS, targets))
                return q[0] if command == "affinity" else (1 - 0.3) * q[0] + 0.3 * q[1]

            def log_z(kind, s):
                return mpmath.log(mpmath.fsum(mpmath.exp(_mp_log_phi(l1, ld, kind, s))
                                              for l1, ld in level))

            lo, hi = rep.interval
            checked = 0
            if 0.0 < hi < S_MAX:  # no boundary tag
                assert h(hi, [log_z(kind, hi) / n for kind in kinds]) <= 1e-12
                checked += 1
            if lo > 0.0:
                c = mpmath.log(const(lo))
                q = [(log_z(kind, lo) + (2 if kind == "sv_s_squared" else 1) * c) / (n + k)
                     for kind in kinds]
                assert h(lo, q) >= -1e-12
                checked += 1
        return checked, rep.interval

    @pytest.mark.parametrize("system", [E3(), E4()], ids=["e3", "e4"])
    @pytest.mark.parametrize("command", ["affinity", "s0", "r0"])
    def test_shipped_systems(self, system, command):
        assert self._check(system, 8, command)[0] == 2

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(nums=st.lists(st.lists(st.integers(-8, 8), min_size=4, max_size=4).filter(
               lambda e: e[0] * e[3] != e[1] * e[2]), min_size=2, max_size=3),
           n=st.integers(2, 8))
    def test_dyadic_systems(self, nums, n):
        # |det A_j| <= 1/2, so every upper curve changes sign inside (0, S_MAX)
        system = GeneratorSystem(tuple(np.array(e, dtype=float).reshape(2, 2) / 16
                                       for e in nums))
        for command in ("affinity", "s0", "r0"):
            assert self._check(system, min(n, 6) if len(nums) == 3 else n, command)[0] >= 1

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("command", ["affinity", "s0", "r0"])
    def test_roots_about_one(self, command, n):
        # diag(3/4, 1/2) and 5/8 R90: both affinity ends lie above s = 1, where g
        # reads the exact log Z_n, both s0 ends below, on the bounds, and the r0
        # interval straddles 1: its lower end comes from the bounds and its
        # upper end from the exact log Z_n
        system = GeneratorSystem((np.diag([0.75, 0.5]),
                                  0.625 * np.array([[0.0, -1.0], [1.0, 0.0]])))
        checked, interval = self._check(system, n, command)
        above_one = {"affinity": (True, True), "s0": (False, False), "r0": (False, True)}
        assert checked == 2 and tuple(end > 1.0 for end in interval) == above_one[command]


@pytest.mark.parametrize("call,message", [
    (lambda: PotentialSpec("phi", 1.0), "unknown potential kind 'phi'"),
    (lambda: PotentialSpec("sv_s", -0.5), "s must be nonnegative"),
    (lambda: log_potential(np.zeros(2), None, PotentialSpec("sv_s", 1.5)),
     "singular value potentials need d = 2 data"),
    (lambda: pressure_brackets(D3, "sv_s", 2, [1.0], [None]), "sv_s needs a 2x2 system"),
    (lambda: beta_hat(), "provide either a psi table or an explicit beta"),
    (lambda: beta_hat(psi_table=[(0, 1.0), (2, 1.0)]), "psi table needs positive n"),
    (lambda: beta_hat(psi_table=[(1, 0.5), (2, 1.0)], tail_start=3),
     "tail_start leaves an empty tail"),
    (lambda: s0_interval(D3, all_ones_targets(2), 2, 1), "shrinking-target dimension needs d = 2"),
    (lambda: r0_interval(D3, 0.5, 2, 1), "recurrence dimension needs d = 2"),
    (lambda: affinity_dimension(D3, 2, 1), "affinity dimension needs d = 2"),
])
def test_messages(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message
