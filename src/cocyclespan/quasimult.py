"""Quantified k-quasi-multiplicativity.

The connector bound rests on an exact singular-value inequality: with
u = v_{A_I,2} and w = v_{A_J,1},

    |A_J A_K A_I| >= |A_I| |A_J| |w^T A_K u|,

so gamma = min over unit (u, w) of max over |K| = k of |w^T A_K u| is a true
uniform lower bound for every connector ratio. For d = 2 the (u, w) torus is
swept by a product grid with a Lipschitz certificate. For d >= 3 there is no
certificate yet, so gamma abstains: it is the trivial lower bound 0, reported
uncertified, and no lower pressure constant is built from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .kernels import _LN2, dense_products, level_products, minimax_grid2, opnorm_batch, qm_scan
from .systems import GeneratorSystem
from .wordspace import DEFAULT_BUDGET, Word, check_sweep, word_unrank

GRID_ANGLES = 2000  # angles per circle for the d = 2 certificate grid


@dataclass(frozen=True)
class GammaResult:
    value: float          # certified lower bound (d = 2); 0.0, uncertified, for d >= 3
    certified: bool
    k: int
    raw_grid_min: float | None = None
    argmin: tuple[np.ndarray, np.ndarray] | None = None  # (w, u)

    def __float__(self) -> float:
        return self.value


def gamma_minimax(system: GeneratorSystem, k: int, *,
                  budget: int = DEFAULT_BUDGET) -> GammaResult:
    """min over unit (u, w) of max over |K| = k of |w^T A_K u|, with certificate.

    d = 2 gets the certified grid bound; d >= 3 abstains with the trivial
    lower bound 0, uncertified.
    """
    if k < 1:
        raise InputError("connector length k must be >= 1")
    check_sweep(system.ell, k, budget)
    if system.dim != 2:
        return GammaResult(value=0.0, certified=False, k=k)
    kmats = dense_products(system.stacked(), k)
    raw, iw, iu = minimax_grid2(kmats, GRID_ANGLES)
    lip = float(sum(opnorm_batch(kmats)))  # per-variable Lipschitz constant
    h = 2.0 * np.pi / GRID_ANGLES
    value = max(0.0, raw - lip * h)
    tw, tu = 2.0 * np.pi * iw / GRID_ANGLES, 2.0 * np.pi * iu / GRID_ANGLES
    arg = (np.array([math.cos(tw), math.sin(tw)]),
           np.array([math.cos(tu), math.sin(tu)]))
    return GammaResult(value=value, certified=True, k=k, raw_grid_min=raw, argmin=arg)


@dataclass(frozen=True)
class QMReport:
    k: int
    gamma: GammaResult
    empirical_c: dict[int, float] = field(default_factory=dict)
    witnesses: dict[int, tuple[Word, Word, Word]] = field(default_factory=dict)

    @property
    def min_ratio(self) -> float:
        return min(self.empirical_c.values())


def empirical_qm(system: GeneratorSystem, k: int, n_max: int, *,
                 budget: int = DEFAULT_BUDGET) -> QMReport:
    """Exact minimum over I, J in Lambda(n) of the best length-k connector ratio.

    Per word length n <= n_max; the min over lengths <= n follows by taking the
    table minimum. Witnesses record the worst pair and its best connector. The
    levels Lambda(k) and Lambda(1..n_max) come from one sweep.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    ell = system.ell
    gamma = gamma_minimax(system, k, budget=budget)
    check_sweep(ell, 2 * n_max + k, budget)
    levels = list(level_products(system.stacked(), max(k, n_max)))
    kunits, kexps = levels[k]
    klogs = kexps * _LN2
    empirical: dict[int, float] = {}
    witnesses: dict[int, tuple[Word, Word, Word]] = {}
    for n in range(1, n_max + 1):
        best, bi, bj, bm = qm_scan(levels[n][0], kunits, klogs)
        empirical[n] = math.exp(best)
        witnesses[n] = (word_unrank(bi, ell, n), word_unrank(bm, ell, k),
                        word_unrank(bj, ell, n))
        ratio = empirical[n]
        if ratio < gamma.value - 1e-9:
            raise AssertionError(
                f"empirical ratio {ratio} fell below the certified bound {gamma.value}")
    return QMReport(k=k, gamma=gamma, empirical_c=empirical, witnesses=witnesses)


@dataclass(frozen=True)
class QMConstant:
    """C(s) = phi_constant(gamma, min_det, s) for d = 2; `has_bound` is False when gamma vanished."""

    s: float
    value: float
    gamma: float
    min_det: float
    has_bound: bool


def qm_constant_phi(system: GeneratorSystem, k: int, s: float, *,
                    budget: int = DEFAULT_BUDGET) -> QMConstant:
    if system.dim != 2:
        raise InputError("the singular value constant is defined for d = 2")
    if not 0.0 <= s <= 2.0:
        raise InputError("s must lie in [0, 2]")
    g = float(gamma_minimax(system, k, budget=budget))
    min_det = connector_min_det(system, k, budget=budget)
    if g <= 0.0:
        return QMConstant(s=s, value=0.0, gamma=g, min_det=min_det, has_bound=False)
    return QMConstant(s=s, value=phi_constant(g, min_det, s), gamma=g, min_det=min_det,
                      has_bound=True)


def connector_min_det(system: GeneratorSystem, k: int, *, budget: int = DEFAULT_BUDGET) -> float:
    """min over |K| = k of |det A_K|."""
    check_sweep(system.ell, k, budget)
    kmats = dense_products(system.stacked(), k)
    return float(np.min(np.abs(np.linalg.det(kmats))))


def phi_constant(g: float, min_det: float, s: float) -> float:
    """C(s) for phi^s, d = 2: g^s on [0, 1], min_det^(s-1) g^(2-s) on (1, 2]; g = gamma."""
    if s <= 1.0:
        return g**s
    return min_det ** (s - 1.0) * g ** (2.0 - s)
