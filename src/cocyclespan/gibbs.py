"""Finite-level Gibbs proxies, the connector-sum inequality, and psi-mixing evidence.

The level-n proxy measure puts mass |A_I|^s / Z_n on each cylinder [I] of
length n. It approximates the Gibbs state only up to its distortion constant,
so every Pass/Fail verdict here rests on the measure-free norm inequality

    sum over |K| = k of |A_IKJ|^s  >=  C(s) |A_I|^s |A_J|^s,

certified whenever the minimax constant gamma is positive; the correlation
statistic itself is reported as finite-level evidence, not a limit claim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernels import level_singvals
from .quasimult import connector_constant, connector_minimum
from .systems import GeneratorSystem
from .wordspace import DEFAULT_BUDGET, Word, check_sweep, word_unrank


def _lse(arr: np.ndarray, axis=None):
    m = np.max(arr, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(arr - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else float(np.squeeze(out))


def _levels(system: GeneratorSystem, s: float, n: int, budget: int):
    """(s log |A_I| in rank order, log Z_m) of every level m = 0..n, from one sweep."""
    check_sweep(system.ell, n, budget)
    out = []
    for w in level_singvals(system.stacked(), n):
        w *= s
        out.append((w, _lse(w)))
    return out


@dataclass(frozen=True)
class KappaFloorReport:
    """Certified check of the connector-sum inequality over Lambda(<= L) pairs.

    raw_min is min over pairs of sum_K |A_IKJ|^s / (|A_I|^s |A_J|^s); dividing
    by a positive C(s) gives the floor, which is >= 1 whenever C(s) is a true
    lower bound. With gamma = 0 there is no certificate and floor is None.
    """

    s: float
    k: int
    L: int
    raw_min: float
    c_of_s: dict  # s, value, gamma, min_det, has_bound
    floor: float | None
    certified: bool
    witness: tuple[Word, Word] | None = None


def kappa_floor(system: GeneratorSystem, s: float, k: int, L: int, *,
                budget: int = DEFAULT_BUDGET, levels: list | None = None) -> KappaFloorReport:
    if k < 1 or L < 1:
        raise InputError("need k >= 1 and L >= 1")
    if system.dim != 2:
        raise InputError("the singular value constant is defined for d = 2")
    if not 0.0 <= s <= 2.0:
        raise InputError("s must lie in [0, 2]")
    const = connector_constant(system, k, budget=budget)
    # the phi^s constant; for s > 1 only gamma^s ("norm_s") is proven for this sum
    c = const.value(s, "sv_s")
    c_of_s = {"s": s, "value": c, "gamma": const.gamma.value, "min_det": const.min_det,
              "has_bound": const.gamma.value > 0.0}
    lev = _levels(system, s, 2 * L + k, budget) if levels is None else levels
    ell = system.ell
    best = math.inf
    witness = None
    for li in range(1, L + 1):
        for lj in range(1, L + 1):
            val, bi, bj = connector_minimum(lev[li + k + lj][0], lev[li][0], lev[lj][0],
                                            lambda cube: _lse(cube, axis=1))
            if val < best:
                best = val
                witness = (word_unrank(bi, ell, li), word_unrank(bj, ell, lj))
    raw_min = math.exp(best)
    floor = raw_min / c if c > 0 else None
    return KappaFloorReport(s=s, k=k, L=L, raw_min=raw_min, c_of_s=c_of_s, floor=floor,
                            certified=floor is not None, witness=witness)


@dataclass(frozen=True)
class MixingReport:
    """Finite-level psi-mixing statistic plus the kappa-inequality floor.

    psi_hat compares level-N cylinder masses of [I], [J] and the connector
    union under the same level-N proxy weights (N = |I| + gap + |J|). It is
    monotone evidence for the limit statistic, not the limit itself.
    """

    s: float
    L: int
    gap: int
    psi_hat: float
    kappa_floor: float  # min measure ratio at the connector gap
    connector_k: int
    verdict: str
    worst_pair: tuple[Word, Word] | None = None
    c0_estimate: float | None = None
    warnings: tuple[str, ...] = ()


def mixing_levels(system: GeneratorSystem, s: float, L: int, gap: int, connector_k: int = 1,
                  *, budget: int = DEFAULT_BUDGET) -> list:
    """The one sweep the mixing statistics read: `_levels` to depth 2L + max(gap, k).

    Pass it as `levels` (same system and s): `psi_mixing_stat` reads all of it,
    `kappa_floor` (depth 2L + k) a prefix of it.
    """
    if L < 1 or gap < 1 or connector_k < 1:
        raise InputError("need L >= 1, gap >= 1 and connector_k >= 1")
    return _levels(system, s, 2 * L + max(gap, connector_k), budget)


def _psi_sup(lev: list, ell: int, L: int, gap: int, absolute: bool = True):
    """(sup over |I|, |J| <= L of |ratio - 1|, or of -ratio, and the first pair reaching it).

    The pairs of one level N = |I| + gap + |J| are taken together, so each
    prefix mass (the log masses of the length-p prefixes under the level-N
    proxy) is folded once and dropped with its level. The sup is then read in
    (|I|, |J|) order, a later pair winning only with a larger value, as a
    pair-by-pair loop reads it.
    """
    best = {}
    for N in range(gap + 2, 2 * L + gap + 1):
        big, z = lev[N]
        lengths = range(max(1, N - gap - L), min(L, N - gap - 1) + 1)  # |I| and |J| alike
        mass = {p: _lse(big.reshape(ell**p, -1), axis=1) for p in lengths}
        for li in lengths:
            lj = N - gap - li
            num = _lse(big.reshape(ell**li, ell**gap, ell**lj), axis=1)  # (NI, NJ)
            ratio = np.exp(num + z - mass[li][:, None] - mass[lj][None, :])
            vals = np.abs(ratio - 1.0) if absolute else -ratio
            idx = int(np.argmax(vals))
            best[li, lj] = float(vals.flat[idx]), idx
    sup = -math.inf
    worst = None
    for li in range(1, L + 1):
        for lj in range(1, L + 1):
            val, idx = best[li, lj]
            if val > sup:
                sup = val
                bi, bj = divmod(idx, ell**lj)
                worst = (word_unrank(bi, ell, li), word_unrank(bj, ell, lj))
    return sup, worst


def psi_mixing_stat(system: GeneratorSystem, s: float, L: int, gap: int, *,
                    connector_k: int = 1, budget: int = DEFAULT_BUDGET,
                    levels: list | None = None) -> MixingReport:
    lev = mixing_levels(system, s, L, gap, connector_k, budget=budget) if levels is None else levels
    ell = system.ell
    psi, worst = _psi_sup(lev, ell, L, gap, absolute=True)
    neg_floor, _ = _psi_sup(lev, ell, L, connector_k, absolute=False)
    floor = -neg_floor
    warnings = ("finite-level statistic: monotone evidence for the limit, not the limit",)
    # diagnostic distortion estimate: e^{n P_hat} w(I) / |A_I|^s = e^{n P_hat} / Z_n
    deepest = 2 * L + gap
    p_hat = lev[deepest][1] / deepest
    ratios = [math.exp(n * p_hat - lev[n][1]) for n in range(1, deepest + 1)]
    c0_est = max(max(ratios), 1.0 / min(ratios)) if min(ratios) > 0 else math.inf
    verdict = "Pass" if floor > 0 else "NoCertificate"
    return MixingReport(s=s, L=L, gap=gap, psi_hat=psi, kappa_floor=floor,
                        connector_k=connector_k, verdict=verdict, worst_pair=worst,
                        c0_estimate=c0_est, warnings=warnings)
