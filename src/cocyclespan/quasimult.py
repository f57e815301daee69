"""Quantified k-quasi-multiplicativity: every connector quantity, in one place.

The connector bound rests on an exact singular-value inequality: with
u = v_{A_I,2} and w = v_{A_J,1},

    |A_J A_K A_I| >= |A_I| |A_J| |w^T A_K u|,

so gamma = min over unit (u, w) of max over |K| = k of |w^T A_K u| is a true
uniform lower bound for every connector ratio. For d = 2 the (u, w) torus is
swept by a product grid with a Lipschitz certificate. |w^T A_K u| has period
pi in each angle, so the grid folds one period, [0, pi)^2, at the step
2 pi / `GRID_ANGLES` of a full circle, and its certificate covers the torus.
For d >= 3 there is no
certificate yet, so gamma abstains: it is the trivial lower bound 0, reported
uncertified, and no lower pressure constant is built from it.

`ConnectorConstant.value` is the only place the constant C(s) is computed; the
pressure lower ends and the kappa floor both read it. `connector_minimum` is
the one pair reduction: it reads a per-word array of the word engine over
Lambda(|I| + k + |J|) as an (I, K, J) cube. The empirical QM table reduces
log norms with a max over K, the kappa floor with a log-sum-exp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .kernels import dense_products, level_singvals, minimax_grid2, sigma1_2x2
from .systems import GeneratorSystem
from .wordspace import DEFAULT_BUDGET, Word, check_sweep, word_unrank

GRID_ANGLES = 2000  # angles per circle of the d = 2 certificate grid; it folds half of them


@dataclass(frozen=True)
class GammaResult:
    value: float          # certified lower bound (d = 2); 0.0, uncertified, for d >= 3
    certified: bool
    k: int
    raw_grid_min: float | None = None
    argmin: tuple[np.ndarray, np.ndarray] | None = None  # (w, u)


def gamma_minimax(system: GeneratorSystem, k: int, *,
                  budget: int = DEFAULT_BUDGET) -> GammaResult:
    """min over unit (u, w) of max over |K| = k of |w^T A_K u|, with certificate.

    d = 2 gets the certified grid bound; d >= 3 abstains with the trivial
    lower bound 0, uncertified. The grid runs on the products of the
    generators divided by 2^e, e the exponent of their largest |entry|: an
    exact division, so `sigma1_2x2` never squares an entry that under- or
    overflows. f scales by 2^(k e), and so do the raw minimum and the value;
    a value past the float range is 0.0.
    """
    if k < 1:
        raise InputError("connector length k must be >= 1")
    check_sweep(system.ell, k, budget)
    if system.dim != 2:
        return GammaResult(value=0.0, certified=False, k=k)
    gens = system.stacked()
    e = math.frexp(float(np.max(np.abs(gens))))[1]
    kmats = dense_products(np.ldexp(gens, -e), k)
    raw, iw, iu = minimax_grid2(kmats, GRID_ANGLES // 2)  # one period: the same step h
    lip = float(sum(sigma1_2x2(kmats.transpose(1, 2, 0))))  # per-variable Lipschitz constant
    h = 2.0 * np.pi / GRID_ANGLES
    with np.errstate(over="ignore"):  # past the float range: inf
        raw, value = np.ldexp([raw, max(0.0, raw - lip * h)], k * e).tolist()
    value = value if math.isfinite(value) else 0.0
    tw, tu = 2.0 * np.pi * iw / GRID_ANGLES, 2.0 * np.pi * iu / GRID_ANGLES
    arg = (np.array([math.cos(tw), math.sin(tw)]),
           np.array([math.cos(tu), math.sin(tu)]))
    return GammaResult(value=value, certified=True, k=k, raw_grid_min=raw, argmin=arg)


@dataclass(frozen=True)
class ConnectorConstant:
    """C(s) of Z_{n+k+m} >= C(s) Z_n Z_m; `min_det` = min over |K| = k of |det A_K|
    (d = 2), which is (min_j |det A_j|)^k since det is multiplicative."""

    k: int
    gamma: GammaResult
    min_det: float | None

    def value(self, s: float, kind: str) -> float:
        """C(s) for the potential `kind`: gamma^s for `norm_s`; for phi^s, gamma^s on
        [0, 1], min_det^(s-1) gamma^(2-s) on (1, 2] and min_det^(s/2) beyond (phi^s
        is a determinant power there). 0.0 when there is no constant."""
        g = self.gamma.value
        if g <= 0.0 or (kind != "norm_s" and self.min_det is None):
            return 0.0
        if kind == "norm_s" or s <= 1.0:
            return g**s
        if s <= 2.0:
            return self.min_det ** (s - 1.0) * g ** (2.0 - s)
        return self.min_det ** (s / 2.0)


def connector_constant(system: GeneratorSystem, k: int, *,
                       budget: int = DEFAULT_BUDGET) -> ConnectorConstant:
    gamma = gamma_minimax(system, k, budget=budget)
    min_det = None
    if system.dim == 2:
        # a numpy power gives inf past the float range, where a Python float power raises
        min_det = float(np.min(np.abs(np.linalg.det(system.stacked()))) ** k)
    return ConnectorConstant(k=k, gamma=gamma, min_det=min_det)


def connector_minimum(top: np.ndarray, wi: np.ndarray, wj: np.ndarray, reduce):
    """(min over (I, J) of reduce(top)[I, J] - wi[I] - wj[J], rank of I, rank of J).

    `top` is a per-word array over Lambda(|I| + k + |J|) in rank order, so it
    reshapes to (I, K, J); `reduce` maps that cube to an (I, J) array over K.
    Ties go to the first pair in row-major order.
    """
    vals = reduce(top.reshape(len(wi), -1, len(wj))) - wi[:, None] - wj[None, :]
    i, j = divmod(int(np.argmin(vals)), len(wj))
    return float(vals[i, j]), i, j


@dataclass(frozen=True)
class QMReport:
    k: int
    gamma: GammaResult
    empirical_c: dict[int, float] = field(default_factory=dict)
    witnesses: dict[int, tuple[Word, Word, Word]] = field(default_factory=dict)


def empirical_qm(system: GeneratorSystem, k: int, n_max: int, *,
                 budget: int = DEFAULT_BUDGET) -> QMReport:
    """Exact minimum over I, J in Lambda(n) of the best length-k connector ratio.

    Per word length n <= n_max; the min over lengths <= n follows by taking the
    table minimum. Witnesses record the worst pair and its first best
    connector. Each ratio reads the engine's log norms of Lambda(n) and
    Lambda(2n + k), all from one sweep to depth 2 n_max + k.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    ell = system.ell
    gamma = gamma_minimax(system, k, budget=budget)
    check_sweep(ell, 2 * n_max + k, budget)
    levels = list(level_singvals(system.stacked(), 2 * n_max + k))
    empirical: dict[int, float] = {}
    witnesses: dict[int, tuple[Word, Word, Word]] = {}
    for n in range(1, n_max + 1):
        logs, top = levels[n], levels[2 * n + k]
        best, i, j = connector_minimum(top, logs, logs, lambda cube: np.max(cube, axis=1))
        m = int(np.argmax(top.reshape(len(logs), -1, len(logs))[i, :, j]))
        empirical[n] = math.exp(best)
        witnesses[n] = (word_unrank(i, ell, n), word_unrank(m, ell, k), word_unrank(j, ell, n))
        if empirical[n] < gamma.value - 1e-9:
            raise AssertionError(
                f"empirical ratio {empirical[n]} fell below the certified bound {gamma.value}")
    return QMReport(k=k, gamma=gamma, empirical_c=empirical, witnesses=witnesses)
