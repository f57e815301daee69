"""Hot enumeration and grid kernels, vectorised with numpy.

Outputs are bit-reproducible: arrays are indexed by lexicographic word rank
and every reduction runs over fully assembled arrays in a fixed order.

The only word-product engine: A_I = 2^exponent * unit, with an integer exponent
and the unit's Frobenius norm (within sqrt(d) of the operator norm) kept in
[0.5, 2], so `dense_products` is exact; log scales are exponent * ln 2.
"""
from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)


def _rescale_batch(units: np.ndarray, exps: np.ndarray) -> None:
    fro = np.sqrt(np.einsum("...ab,...ab->...", units, units))
    need = (fro < 0.5) | (fro > 2.0)
    if np.any(need):
        e = np.where(need, np.floor(np.log2(fro, where=fro > 0, out=np.zeros_like(fro))), 0.0)
        units *= 2.0 ** (-e)[..., None, None]
        exps += e


def _extend_level(gens: np.ndarray, units: np.ndarray, exps: np.ndarray):
    ell, d, _ = gens.shape
    new_units = np.einsum("jab,rbc->rjac", gens, units).reshape(-1, d, d)
    new_exps = np.repeat(exps, ell)
    _rescale_batch(new_units, new_exps)
    return new_units, new_exps


def products_level_numpy(gens: np.ndarray, n: int):
    """Scaled products for all of Lambda(n), lexicographic: (units, integer-valued exps)."""
    d = gens.shape[1]
    units = np.eye(d)[None, :, :].copy()
    exps = np.zeros(1)
    for _ in range(n):
        units, exps = _extend_level(gens, units, exps)
    return np.ascontiguousarray(units), exps


def dense_products(gens: np.ndarray, n: int) -> np.ndarray:
    """Exact unscaled products for all of Lambda(n), lexicographic."""
    units, exps = products_level_numpy(gens, n)
    return np.ldexp(units, exps.astype(np.int64)[:, None, None])


def sigma12_2x2(units: np.ndarray):
    """(sigma1, sigma2) of a stacked (..., 2, 2) array, cancellation-safe."""
    a, b = units[..., 0, 0], units[..., 0, 1]
    c, dd = units[..., 1, 0], units[..., 1, 1]
    fro2 = a * a + b * b + c * c + dd * dd
    det = a * dd - b * c
    disc = fro2 * fro2 - 4.0 * det * det
    s1 = np.sqrt(0.5 * (fro2 + np.sqrt(np.maximum(disc, 0.0))))
    s2 = np.abs(det) / np.where(s1 > 0, s1, 1.0)
    return s1, s2


def opnorm_batch(units: np.ndarray) -> np.ndarray:
    if units.shape[-1] == 2:
        return sigma12_2x2(units)[0]
    return np.linalg.svd(units, compute_uv=False)[..., 0]


def word_singvals(gens: np.ndarray, n: int):
    """Per-word (log sigma_1, log sigma_2) over Lambda(n), lexicographic rank order.

    The second array is None for d > 2 (only the norm is needed there).
    """
    gens = np.ascontiguousarray(gens, dtype=float)
    units, exps = products_level_numpy(gens, n)
    logs = np.multiply(exps, _LN2, out=exps)
    if gens.shape[1] == 2:
        s1, s2 = sigma12_2x2(units)
        return logs + np.log(s1), logs + np.log(s2)
    sv = np.linalg.svd(units, compute_uv=False)
    return logs + np.log(sv[..., 0]), None


def qm_scan(units, logs, kunits, klogs_scale):
    """Worst pair ratio log min_{I,J} max_K |A_IKJ| / (|A_I| |A_J|) and witnesses.

    `units`/`logs` are the scaled Lambda(n) products, `kunits`/`klogs_scale`
    the scaled Lambda(k) products; d = 2 takes the vectorised closed form.
    """
    units = np.ascontiguousarray(units)
    kunits = np.ascontiguousarray(kunits)
    if units.shape[-1] != 2:
        return _qm_scan_general(units, logs, kunits, klogs_scale)
    log_su = np.log(sigma12_2x2(units)[0])  # unit-part norms; scales cancel
    N = units.shape[0]
    KI = np.einsum("mab,ibc->imac", kunits, units)  # (N, M, 2, 2)
    best = np.inf
    bi = bj = bm = 0
    for j in range(N):
        W = np.einsum("ab,imbc->imac", units[j], KI)
        s1 = sigma12_2x2(W)[0]
        vals = klogs_scale[None, :] + np.log(s1)  # (N, M)
        marg = np.argmax(vals, axis=1)
        inner = vals[np.arange(N), marg]
        ratio = inner - log_su - log_su[j]
        i = int(np.argmin(ratio))
        if ratio[i] < best:
            best = float(ratio[i])
            bi, bj, bm = i, j, int(marg[i])
    return best, bi, bj, bm


def _qm_scan_general(units, logs, kunits, klogs):
    norms = opnorm_batch(units)
    best = np.inf
    bi = bj = bm = 0
    N, M = units.shape[0], kunits.shape[0]
    for i in range(N):
        KI = np.einsum("mab,bc->mac", kunits, units[i])
        for j in range(N):
            W = np.einsum("ab,mbc->mac", units[j], KI)
            vals = klogs + np.log(opnorm_batch(W))
            m = int(np.argmax(vals))
            ratio = float(vals[m] - math.log(norms[i]) - math.log(norms[j]))
            if ratio < best:
                best, bi, bj, bm = ratio, i, j, m
    return best, bi, bj, bm


def minimax_grid2(kmats: np.ndarray, G: int = 2000):
    """Raw grid minimum over (w, u) angle pairs of max_K |w^T A_K u|."""
    kmats = np.ascontiguousarray(kmats, dtype=float)
    th = 2.0 * np.pi * np.arange(G) / G
    U = np.stack([np.cos(th), np.sin(th)])
    acc = np.full((G, G), -np.inf)
    for K in kmats:
        acc = np.maximum(acc, np.abs(U.T @ (K @ U)))
    iw, iu = np.unravel_index(np.argmin(acc), acc.shape)
    return float(acc[iw, iu]), int(iw), int(iu)


def stack_f_circle(B: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """sigma_2(stack of B_j u)^2 at u = (cos theta, sin theta), per angle."""
    U = np.stack([np.cos(thetas), np.sin(thetas)])  # (2, G)
    img = np.einsum("rab,bG->raG", B, U)            # (r, 2, G)
    g00 = np.einsum("rG,rG->G", img[:, 0], img[:, 0])
    g01 = np.einsum("rG,rG->G", img[:, 0], img[:, 1])
    g11 = np.einsum("rG,rG->G", img[:, 1], img[:, 1])
    return 0.5 * ((g00 + g11) - np.sqrt((g00 - g11) ** 2 + 4.0 * g01**2))


def stack_min_grid2(B: np.ndarray, G: int):
    """Grid minimum over the projective circle of sigma_2(stack of B_j u)^2."""
    B = np.ascontiguousarray(B, dtype=float)
    lam = stack_f_circle(B, np.pi * np.arange(G) / G)
    i = int(np.argmin(lam))
    t = np.pi * i / G
    return float(lam[i]), np.array([math.cos(t), math.sin(t)])


def stack_min_grid3(B: np.ndarray, resolution: float = 1e-3):
    """Grid minimum over projective S^2 of sigma_3(stack of B_j u)^2."""
    B = np.ascontiguousarray(B, dtype=float)
    n_th = max(8, int(np.ceil(np.pi / resolution)))
    n_ph = max(8, int(np.ceil(np.pi / resolution)))
    best = np.inf
    b_it = b_ip = 0
    ph = np.pi * np.arange(n_ph) / n_ph
    for it in range(n_th + 1):
        th = np.pi * it / n_th
        U = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                      np.full_like(ph, np.cos(th))])
        img = np.einsum("rab,bG->raG", B, U)
        G3 = np.einsum("raG,rbG->Gab", img, img)
        lam = np.linalg.eigvalsh(G3)[:, 0]
        i = int(np.argmin(lam))
        if lam[i] < best:
            best = float(lam[i])
            b_it, b_ip = it, i
    th, ph = np.pi * b_it / n_th, np.pi * b_ip / n_ph
    u = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
    return float(best), u
