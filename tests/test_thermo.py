import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclespan import E3, E4, E5, GeneratorSystem
from cocyclespan.errors import InputError
from cocyclespan.thermo import (S_MAX, PotentialSpec, QMInput, TargetSequence, _root_bracket,
                                affinity_dimension, all_ones_targets, alpha_hat,
                                beta_hat, conformal_qm_input, potential_value,
                                pressure_bracket, r0_interval, s0_interval,
                                square_pressure)

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
            br = pressure_bracket(sys, PotentialSpec("norm_s", 0.0), 8,
                                  QMInput(k=0, C=1.0) if sys.is_conformal() else None)
            assert abs(br.upper - LOG2) <= 1e-12

    def test_e4_counting_lower_bound(self):
        br = pressure_bracket(E4(), PotentialSpec("norm_s", 0.0), 8, QMInput(k=1, C=1.0))
        assert br.lower_valid
        assert abs(br.lower - 8 * LOG2 / 9) <= 1e-12
        assert br.lower <= LOG2 <= br.upper + 1e-12

    def test_e4_conformal_oracle(self):
        qm = conformal_qm_input(E4())
        assert qm == QMInput(k=0, C=1.0)
        for s in (0.25, 0.5, 0.75):
            br = pressure_bracket(E4(), PotentialSpec("sv_s", s), 8, qm)
            target = LOG2 + s * LOG04
            assert br.lower - 1e-9 <= target <= br.upper + 1e-9
            assert br.width <= 1e-2

    def test_square_pressure_counting(self):
        for sys in (E3(), E4()):
            qm = conformal_qm_input(sys)
            br = square_pressure(sys, 0.0, 8, qm)
            assert abs(br.lower + LOG2) <= 1e-12

    def test_e4_square_pressure_conformal(self):
        br = square_pressure(E4(), 0.5, 8, conformal_qm_input(E4()))
        target = -(LOG2 + 2 * 0.5 * LOG04)
        assert abs(br.lower - target) <= 1e-9
        assert abs(br.upper - target) <= 1e-9

    def test_e3_bracket_narrows(self):
        from cocyclespan.quasimult import connector_constant
        c = connector_constant(E3(), 1).value(1.0, "sv_s")
        checks = {}
        for n in (5, 10):
            br = pressure_bracket(E3(), PotentialSpec("sv_s", 1.0), n, QMInput(k=1, C=c))
            checks[n] = br
            assert br.lower <= br.upper
        assert checks[10].width < checks[5].width

    def test_qm_provider_valid_beyond_two(self):
        # for s > 2 the sv potential is a pure determinant power; the source's
        # constant must stay a true lower bound (cross-check vs a deeper level)
        from cocyclespan.thermo import qm_source
        qm_input, _ = qm_source(E3(), 1)
        for s in (2.5, 3.0):
            br = pressure_bracket(E3(), PotentialSpec("sv_s", s), 8, qm_input(s, "sv_s"))
            deeper = pressure_bracket(E3(), PotentialSpec("sv_s", s), 14)
            assert br.lower <= deeper.upper
        for s in (0.5, 2.5):
            qm = qm_input(s, "norm_s")
            br = pressure_bracket(E3(), PotentialSpec("norm_s", s), 8, qm)
            deeper = pressure_bracket(E3(), PotentialSpec("norm_s", s), 14)
            assert br.lower <= deeper.upper

    def test_fekete_upper_monotone(self):
        from cocyclespan.thermo import _LevelData
        for sys in (E3(), E5()):
            for spec in (PotentialSpec("norm_s", 1.0), PotentialSpec("sv_s", 0.7),
                         PotentialSpec("sv_s_squared", 0.7)):
                # the subadditive end (1/n) log Z_n; square brackets carry it negated
                up_n, up_2n = (-br.lower if br.negated else br.upper
                               for br in (pressure_bracket(sys, spec, m) for m in (4, 8)))
                assert up_2n <= up_n + 1e-12


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
        for sp, l1, l2 in zip(expect, data.logs1, data.logs2):
            sv = np.linalg.svd(sp.unit, compute_uv=False)
            assert (l1, l2) == (sp.logscale + math.log(sv[0]), sp.logscale + math.log(sv[1]))

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
        est = beta_hat(psi_table=[(n, n) for n in range(1, 50)], tail_start=10)
        assert est.value == 1.0
        assert any("beta < 1" in w for w in est.warnings)


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
    """`_LevelData.log_z` reduces in one scratch buffer; the bits must not move."""

    S_VALUES = (0.0, 0.4, 1.0, 1.3, 1.9, 2.0, 2.7)  # both sides of 1 and 2

    @pytest.mark.parametrize("system", [E3(), E4()], ids=["e3", "e4"])
    def test_matches_out_of_place_formula(self, system):
        from cocyclespan.thermo import KINDS, _LevelData
        data = _LevelData(system, 9)
        for kind in KINDS:
            for s in self.S_VALUES:
                w = _out_of_place_log_potential(data.logs1, data.logs2, kind, s)
                m = float(np.max(w))
                ref = m + math.log(float(np.sum(np.exp(w - m))))
                assert data.log_z(PotentialSpec(kind, s)) == ref, (kind, s)

    def test_cached_logs_are_never_written(self):
        from cocyclespan.thermo import KINDS, _LevelData
        data = _LevelData(E3(), 9)
        logs1, logs2 = data.logs1.copy(), data.logs2.copy()
        first = [data.log_z(PotentialSpec(kind, s)) for kind in KINDS for s in self.S_VALUES]
        again = [data.log_z(PotentialSpec(kind, s)) for kind in KINDS for s in self.S_VALUES]
        assert first == again
        assert data.logs1.tobytes() == logs1.tobytes()
        assert data.logs2.tobytes() == logs2.tobytes()

    def test_potential_pass_memoised_per_spec(self, monkeypatch):
        # the upper and lower root searches share s = 0 and s = 4; each distinct
        # potential costs one pass over Lambda(n)
        from cocyclespan import thermo
        passes = []
        orig = thermo.log_potential
        monkeypatch.setattr(thermo, "log_potential",
                            lambda *a, **kw: passes.append(a[2]) or orig(*a, **kw))
        affinity_dimension(E3(), 12, 1)
        assert len(passes) == len(set(passes)) == 14
        passes.clear()
        r0_interval(E3(), 0.3, 12, 1)
        assert len(passes) == len(set(passes)) == 28


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
    assert int(out.stdout) < 60 * 1024  # ru_maxrss is in KiB on Linux
