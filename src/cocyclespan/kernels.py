"""Hot enumeration kernels and the certified minimizer, vectorised with numpy.

Outputs are bit-reproducible: arrays are indexed by lexicographic word rank,
every per-word value is independent of the block it is computed in, and every
sum runs over fully assembled arrays in a fixed order (a minimum, exact in any
order, may run block by block).

One certified minimizer, `lipschitz_bnb`: a batched Lipschitz branch and bound
over an angle box. It certifies the spannability circle and sphere and the
pair-quadratic margin. The gamma torus keeps its dense grid (`minimax_grid2`),
folded in blocks of at most `_GRID_ROWS` rows, so it holds two such blocks,
not three G x G arrays.

The only word-product engine: A_I = 2^exponent * unit, with an integer exponent
and the unit's Frobenius norm (within sqrt(d) of the operator norm) kept in
[0.5, 2], so `dense_products` is exact; log scales are exponent * ln 2. Every
word product the library reads comes from it, the connector ratios of the QM
table and of the kappa floor included (`quasimult.connector_minimum`).

Levels are built by one sweep: Lambda(m + 1) extends Lambda(m), starting from
the identity. `products_level_numpy` keeps only the last level; `level_products`
yields and `level_singvals` lists every level m = 0..n of one sweep, for
callers that read several levels. Every level of a sweep is bitwise equal to
the one-level call at that m. `word_singvals` streams its level in prefix
blocks of at most `_STREAM` words, each extended from one chunk of a head
level, so it holds 16 bytes per word of output (8 for d > 2) plus one block
of products; every word gets the bits of the whole-level sweep.

`_extend_level` is the closed form of the product, with no einsum and no BLAS:
unit(A_j A_I)[a, c] = 0.0 + sum over b = 0..d-1 of A_j[a, b] * unit(A_I)[b, c],
one product per term and in-place adds in that order, with no fused
multiply-add, so the bits do not depend on a library's kernel choice. The
words run in blocks of `_BLOCK`, transposed so that each product and add runs
over a contiguous block.
"""
from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)
BNB_MAX_EVALS = 2_000_000  # evaluation cap of `lipschitz_bnb`
_BNB_CELLS = 64           # coarse grid cells per axis
_BNB_BATCH = 4096         # open cells split per round; f sees at most 2^m times as many
_BLOCK = 4096             # words per block of `_extend_level`
_STREAM = 1 << 16         # most words `word_singvals` extends at once
_GRID_ROWS = 250          # most grid rows `minimax_grid2` folds at once


def _rescale_batch(units: np.ndarray, exps: np.ndarray) -> None:
    fro = np.sqrt(np.einsum("...ab,...ab->...", units, units))
    need = (fro < 0.5) | (fro > 2.0)
    if np.any(need):
        e = np.where(need, np.floor(np.log2(fro, where=fro > 0, out=np.zeros_like(fro))), 0.0)
        units *= 2.0 ** (-e)[..., None, None]
        exps += e


def _extend_level(gens: np.ndarray, units: np.ndarray, exps: np.ndarray):
    """Unit parts and exponents of A_j A_I for every word I of `units` and generator j.

    The closed form of the module docstring, into one preallocated (R, ell, d, d)
    array: new[:, j, a, c] = 0.0 + sum over b = 0..d-1 of gens[j, a, b] * units[:, b, c].
    """
    ell, d, _ = gens.shape
    R = units.shape[0]
    new = np.empty((R, ell * d, d))
    g = gens.reshape(ell * d, d)[:, :, None, None]  # g[:, b] is column b of every generator
    block = min(R, _BLOCK)
    ut = np.empty((d, d, block))         # ut[b, c, r] = units[r, b, c] over a block of words
    acc = np.empty((ell * d, d, block))  # acc[(j, a), c, r] = new[r, (j, a), c]
    term = np.empty_like(acc)
    for start in range(0, R, block):
        m = min(block, R - start)
        u, out, t = ut[..., :m], acc[..., :m], term[..., :m]
        u[...] = units[start:start + m].transpose(1, 2, 0)
        out[...] = 0.0
        for b in range(d):
            out += np.multiply(g[:, b], u[b], out=t)
        new[start:start + m] = out.transpose(2, 0, 1)
    new_units = new.reshape(-1, d, d)
    new_exps = np.repeat(exps, ell)
    _rescale_batch(new_units, new_exps)
    return new_units, new_exps


def level_products(gens: np.ndarray, n: int):
    """Yield the scaled products of Lambda(0), ..., Lambda(n), each extended from the last."""
    units, exps = np.eye(gens.shape[1])[None, :, :].copy(), np.zeros(1)
    yield units, exps
    for _ in range(n):
        units, exps = _extend_level(gens, units, exps)
        yield units, exps


def products_level_numpy(gens: np.ndarray, n: int):
    """Scaled products for all of Lambda(n), lexicographic: (units, integer-valued exps)."""
    for units, exps in level_products(gens, n):
        pass
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


def _log_singvals(units: np.ndarray, logs: np.ndarray):
    """Per-word (log sigma_1, log sigma_2) from unit parts and their log scales."""
    if units.shape[-1] == 2:
        s1, s2 = sigma12_2x2(units)
        return logs + np.log(s1), logs + np.log(s2)
    sv = np.linalg.svd(units, compute_uv=False)
    return logs + np.log(sv[..., 0]), None


def word_singvals(gens: np.ndarray, n: int):
    """Per-word (log sigma_1, log sigma_2) over Lambda(n), lexicographic rank order.

    The second array is None for d > 2 (only the norm is needed there). The
    level is streamed: the head level Lambda(n - b), with ell^b at most
    `_STREAM`, is built whole, and each chunk of head rows is extended b
    levels and written at its rank offset, since the words grown from head
    row r have ranks r * ell^b .. (r + 1) * ell^b - 1.
    """
    gens = np.ascontiguousarray(gens, dtype=float)
    ell, d = gens.shape[:2]
    b = 0
    while b < n and ell ** (b + 1) <= _STREAM:
        b += 1
    span = ell ** b
    head_units, head_exps = products_level_numpy(gens, n - b)
    logs1 = np.empty(len(head_exps) * span)
    logs2 = np.empty_like(logs1) if d == 2 else None
    rows = _STREAM // span
    for r0 in range(0, len(head_exps), rows):
        units, exps = head_units[r0:r0 + rows], head_exps[r0:r0 + rows]
        for _ in range(b):
            units, exps = _extend_level(gens, units, exps)
        l1, l2 = _log_singvals(units, np.multiply(exps, _LN2, out=exps))
        at = slice(r0 * span, r0 * span + len(l1))
        logs1[at] = l1
        if logs2 is not None:
            logs2[at] = l2
    return logs1, logs2


def level_singvals(gens: np.ndarray, n: int):
    """`word_singvals(gens, m)` for every m = 0..n, as a list, from one sweep."""
    return [_log_singvals(units, exps * _LN2)
            for units, exps in level_products(np.ascontiguousarray(gens, dtype=float), n)]


def minimax_grid2(kmats: np.ndarray, G: int = 2000):
    """Raw grid minimum over (w, u) angle pairs of max_K |w^T A_K u|.

    The w rows fold in near-equal blocks of at most `_GRID_ROWS`, never of one
    row unless G = 1: a one-row matmul may take a matrix-vector path with
    other bits. The first minimum of the first block holding the least block
    minimum is the row-major argmin of the whole grid.
    """
    kmats = np.ascontiguousarray(kmats, dtype=float)
    th = 2.0 * np.pi * np.arange(G) / G
    U = np.stack([np.cos(th), np.sin(th)])
    nb = -(-G // _GRID_ROWS)
    edges = [G * i // nb for i in range(nb + 1)]  # blocks of floor or ceil of G / nb rows
    acc = np.empty((-(-G // nb), G))
    v = np.empty_like(acc)
    mins, where = [], []
    for r0, r1 in zip(edges, edges[1:]):
        W, a, t = U.T[r0:r1], acc[:r1 - r0], v[:r1 - r0]
        np.abs(np.matmul(W, kmats[0] @ U, out=a), out=a)
        for K in kmats[1:]:
            np.maximum(a, np.abs(np.matmul(W, K @ U, out=t), out=t), out=a)
        i = int(np.argmin(a))
        mins.append(a.flat[i])
        where.append(r0 * G + i)
    j = int(np.argmin(mins))
    iw, iu = divmod(where[j], G)
    return float(mins[j]), iw, iu


def lipschitz_bnb(f, lip: float, lo, hi, tau: float, eps: float):
    """Certified floor of min f over the box [lo, hi] by Lipschitz branch and bound.

    `f` maps an (N, m) array of points to N values with
    |f(x) - f(y)| <= lip * |x - y|_1, so a cell with centre c and half-widths h
    satisfies f >= f(c) - lip * sum(h). The search evaluates the centres of a
    uniform grid of `_BNB_CELLS` cells per axis. A cell is kept once its bound
    is above `tau` and within `eps` of the best value found so far; of the
    other (open) cells, the `_BNB_BATCH` with the lowest centre values split
    into 2^m halves each round, so the search reaches the minimum early. It
    stops early once a centre value is <= tau, since the floor can then never
    clear tau, and before a round that would take it past `BNB_MAX_EVALS`.

    Returns (floor, best point, evaluations, capped). The floor bounds min f
    below in exact arithmetic; when no open cell is left it is above tau and
    at least the best value minus eps.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    m = lo.size
    h0 = (hi - lo) / (2 * _BNB_CELLS)
    grid = np.meshgrid(*[np.arange(_BNB_CELLS)] * m, indexing="ij")
    new_c = lo + (2 * np.stack(grid, axis=-1).reshape(-1, m) + 1) * h0
    new_d = np.zeros(len(new_c), dtype=np.int64)
    signs = np.array(np.meshgrid(*[(-1.0, 1.0)] * m, indexing="ij")).reshape(m, -1).T
    cen, val, dep = np.empty((0, m)), np.empty(0), np.empty(0, dtype=np.int64)  # open cells
    floor, best, best_x, evals = math.inf, math.inf, new_c[0], 0
    while True:
        new_v = f(new_c)
        evals += len(new_v)
        i = int(np.argmin(new_v))
        if new_v[i] < best:
            best, best_x = float(new_v[i]), new_c[i]
        cen, val, dep = (np.concatenate(p) for p in ((cen, new_c), (val, new_v), (dep, new_d)))
        bounds = val - lip * float(h0.sum()) * 0.5**dep
        if best <= tau:
            return min(floor, float(bounds.min())), best_x, evals, False
        keep = (bounds > tau) & (bounds >= best - eps)
        if keep.any():
            floor = min(floor, float(bounds[keep].min()))
            cen, val, dep, bounds = cen[~keep], val[~keep], dep[~keep], bounds[~keep]
        if not len(val):
            return floor, best_x, evals, False
        take = np.argsort(val, kind="stable")[:_BNB_BATCH]
        if evals + len(signs) * len(take) > BNB_MAX_EVALS:
            return min(floor, float(bounds.min())), best_x, evals, True
        new_d = np.repeat(dep[take] + 1, len(signs))
        half = h0 * 0.5**(dep[take] + 1)[:, None]
        new_c = (cen[take][:, None, :] + signs * half[:, None, :]).reshape(-1, m)
        rest = np.ones(len(val), dtype=bool)
        rest[take] = False
        cen, val, dep = cen[rest], val[rest], dep[rest]
