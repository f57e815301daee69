"""Hot enumeration kernels and the certified minimizer, vectorised with numpy.

Outputs are bit-reproducible: arrays are indexed by lexicographic word rank,
every per-word value is a function of its word alone, whatever block or
chunk it is computed in, and every sum has the bits of one np.sum over the
fully assembled array: `pairwise_sum` folds the scalar sums of its blocks in
numpy's own pairwise order (a minimum or maximum, exact in any order, may run in any
blocks).

One certified minimizer, `lipschitz_bnb`: a batched Lipschitz branch and bound
over an angle box. It certifies the d = 3 spannability sphere only. A d = 2
margin takes no search: min f = min sigma_2(X)^2 over unit X in M_k^perp,
read at the eigenvector of the least |eigenvalue| of det on M_k^perp (the
identity and its proof are in `spannability`). The gamma torus keeps its
dense grid (`minimax_grid2`) over one period, [0, pi)^2: |w^T A_K u| has
period pi in each angle, so G angles per axis at the step
pi / G hold every value that a full-period grid of 2G angles per axis holds,
at a quarter of its points. The grid is folded in
blocks of at most `_GRID_ROWS` rows, so it holds two such blocks, not three
G x G arrays. The blocks are small so that both stay in a core's L2 cache
while every K folds into them: two 0.25 MB blocks at the 1000 angles folded
(larger blocks took longer; BENCH_log_z_grid.json). Every block is a
matrix-matrix product of at least two rows, and the block size moved no bit
of (min, iw, iu) on E2, E3 and 20 random systems at k = 1..3.

The only word-product engine: A_I = 2^exponent * unit, with an integer
exponent. Every word product the library reads comes from it, the connector
ratios of the QM table and of the kappa floor included
(`quasimult.connector_minimum`). Products are carried structure-of-arrays, as
(d, d, R) units with R exponents, and rescaled by exact powers of two only
every L = `_cadence(gens)` levels: L = max(1, floor(60 / c)), where
c = max(log2 max_j |A_j|_inf, -log2(min_j sigma_min(A_j) / d)) (at least 1)
bounds how far one level moves the exponent of a unit's largest |entry|, so
entries stay within about 2^+-60 between rescales. Every read is of the
canonical form (`_normalise`, or the d = 2 readout with its bits): the unit
scaled by 2^-k, k the least integer with largest |entry| <= 2^k, which puts
that entry in (0.5, 1]. A max is exact in any order, and scaling by a power
of two commutes exactly with the product (no entry of a unit is subnormal),
so a read unit and exponent, and every log singular value, depend on the word
alone: not on the cadence, the chunk size or when a rescale happened. Log
scales are exponent * ln 2.

One dense entry, `dense_products`: it builds Lambda(n) whole (`_level`) and
scales each canonical unit back by its exponent, so its products carry the
engine's bits; they are exact where no sum rounds.

One readout, `_log_sigma1`, for every level and for the target words of
`thermo`, which `wordspace.product` builds one at a time. At d = 2 it takes
sigma_1 in closed form (`sigma1_2x2`) from any stack, canonical or unscaled,
and scales it by the 2^-k of the canonical form, so a level read unscaled has
the bits of a normalised read; at d > 2 it takes the SVD of a canonical stack. For d = 2,
log sigma_2 = log |det A_I| - log sigma_1, where log |det A_I| =
sum over letters j of (count of j in I) * log |det A_j|, folded in letter order
(`_log_det`): a function of the word's letter counts, so no cancelling
determinant of a unit is ever read. A level keeps only log sigma_1 and the
small `LogDets` table, from which log sigma_2 of any rank range is rebuilt
with the same bits.

`_extend_level` is the closed form of the product, with no einsum and no BLAS:
unit(A_j A_I)[a, c] = 0.0 + sum over b = 0..d-1 of A_j[a, b] * unit(A_I)[b, c],
one product per term and in-place adds in that order, with no fused
multiply-add, so the bits do not depend on a library's kernel choice. It is
generator-major: the words of each generator fill one contiguous run, so
every product, add, rescale and closed-form sigma_1 runs over contiguous rows
with no transposition. A level grown t levels from R rows this way holds word
(r, j_1, ..., j_t) at r + R * (j_1 + ell j_2 + ... + ell^(t-1) j_t);
`_rank_order` reads it out in rank order once per level or chunk.

The + 0.0 makes an all-(-0.0) sum +0.0. It runs on every level that is kept:
in `dense_products`, on the levels up to a sweep's head level, and on every
d > 2 level, whose SVD reads are not shown to be blind to a zero's sign. A
sweep's d = 2 chunk levels, discarded once read, leave it out: their only
reads are `sigma1_2x2`, which squares every sum it forms, and
`_top_exponents`, which takes |entry|, and a zero's sign reaches no nonzero
entry of a later level.

Levels are built by one sweep from the identity. `dense_products` keeps only
the last level. `_sweep` streams: a chunk holds ell^t words, t the most
levels with ell^t <= `_STREAM`, as ell^(t - b) rows of a head level
Lambda(n - b) grown b levels (`_chunk_depth`). `_sweep` builds the levels up to
the head level whole, then grows each chunk of head rows into three product
buffers that every chunk reuses, and writes each level it reads at the
chunk's rank offset. Every word is grown once. b leaves each chunk at least
`_CHUNK_ROWS` = 64 rows where the head level stays within `_STREAM` words, so
the small first levels of a chunk are few: at ell = 2, n = 20 a sweep takes
299 calls of `_extend_level`, and 413 at ell = 3, n = 13 (one-row chunks took
more; BENCH_deep_passes.json). A d = 2 level that is read but neither kept
nor due for a rescale is read unscaled. `word_singvals` reads Lambda(n) alone,
so it holds 8 bytes per word of output and a `LogDets` table of
(head rows) x (tail letter classes) entries, split at t levels
(`_tail_depth`), which keeps the head rows few; `level_singvals` reads every
level m = 0..n, 8 bytes per word of each, not whole unit stacks
(BENCH_level_sweep.json).

`thermo` sizes its log Z blocks apart from `_STREAM` (`thermo._BLOCK`, 2^16
words). At 2^15 words a d = 2 chunk buffer takes 1 MB, half of a core's
2 MB L2: on a 2-core x86-64 host, `word_singvals` at ell = 2, n = 20 took a
median 52 ms with a 12.3 MB traced peak, against 58 ms and 16.3 MB at 2^16
and 56 ms and 10.5 MB at 2^14; at ell = 3, n = 13 the peaks were 15.2, 19.5
and 14.4 MB, and the times (67 to 78 ms) were within the host's noise. A
chunk of ell^t words, not of up to `_STREAM` (at ell = 3, 19683 words, not
32562), keeps the traced peak over the level of `word_singvals` at ell = 3,
n = 13 near the one-row chunks' (2.5 MB against 2.3 MB; 4.0 MB with the
larger chunks).

`_sweep` runs under a ufunc buffer of `_SWEEP_BUFFER` = 512 elements, set by
np.setbufsize and restored on exit. numpy 2.4.6 takes the broadcast product of
`_extend_level`, a (d, 1, ell, 1) view of the generators times a (d, 1, R)
row of units, through its buffered iterator, and its inner loops run slowly
while R is below half of the buffer. On a 2-core x86-64 host, one such
product at ell = d = 2 took 7.7 and 5.4 ns per word of output at R = 1024
and 2048 under numpy's default 8192-element buffer, and 1.7 to 1.9 ns from
R = 4096 on; under 512 elements it took 2.8 and 2.0 ns at R = 1024 and 2048,
and under 65536 elements the slow range reached R = 16384. So the cost is in
the buffered iteration, not in the data. Under the default buffer the chunk
levels grown from R = 64..2048 rows (ell = 2, n = 20) and R = 81..2187 rows
(ell = 3, n = 13) fall in the slow range. An elementwise ufunc or a gather
gives the same bits at any buffer size, so no bit depends on it.
"""
from __future__ import annotations

import functools
import math

import numpy as np

_LN2 = math.log(2.0)
BNB_MAX_EVALS = 2_000_000  # evaluation cap of `lipschitz_bnb`
_BNB_CELLS = 64           # coarse grid cells per axis
_BNB_BATCH = 4096         # open cells split per round; f sees at most 2^m times as many
_DRIFT_BITS = 60          # a unit's largest entry stays within about 2^+-60 between rescales
_STREAM = 1 << 15         # most words a streamed level extends at once
_SWEEP_BUFFER = 512       # numpy's ufunc buffer size, in elements, inside `_sweep`
_CHUNK_ROWS = 64          # fewest head rows a streamed chunk grows, where the head level allows
_GRID_ROWS = 32           # most grid rows `minimax_grid2` folds at once


def _cadence(gens: np.ndarray) -> int:
    """Levels between rescales of a sweep over `gens`, from the generators alone."""
    d = gens.shape[1]
    up = math.log2(float(np.abs(gens).sum(axis=2).max()))
    down = -math.log2(float(np.linalg.svd(gens, compute_uv=False)[:, -1].min()) / d)
    return max(1, int(_DRIFT_BITS // max(up, down, 1.0)))


def _identity(d: int):
    return np.eye(d)[:, :, None].copy(), np.zeros(1)


def _top_exponents(units: np.ndarray):
    """(k, scratch): per unit of a (d, d, R) stack the least integer k such that its
    largest |entry| is <= 2^k, and a free array of R floats."""
    flat = units.reshape(units.shape[0] ** 2, -1)
    top, scale = np.abs(flat[0]), np.empty(flat.shape[1])
    for entries in flat[1:]:
        np.maximum(top, np.abs(entries, out=scale), out=top)
    k = np.empty(len(top), dtype=np.int32)
    np.frexp(top, out=(scale, k))
    k -= scale == 0.5
    return k, scale


def _normalise(units: np.ndarray, exps: np.ndarray) -> None:
    """Canonical form in place: each unit of a (d, d, R) stack times 2^-k, exps + k,
    with k from `_top_exponents`."""
    k, scale = _top_exponents(units)
    exps += k
    units *= np.ldexp(1.0, np.negative(k, out=k), out=scale)


def _extend_level(gens: np.ndarray, units: np.ndarray, out=None, term=None,
                  signed: bool = True) -> np.ndarray:
    """A_j A_I for every unit I of a (d, d, R) stack and generator j, unscaled.

    Generator-major (d, d, ell * R): column j * R + r holds A_j times unit r, by
    the closed form of the module docstring,
    new[a, c, j, r] = 0.0 + sum over b = 0..d-1 of gens[j, a, b] * units[b, c, r],
    computed as (sum over b) + 0.0, which has the same bits. With `signed`
    False the + 0.0 is left out, so a zero entry may be -0.0; every other bit
    is the same, since a zero's sign reaches no nonzero sum or product. The
    result and the products go into flat arrays `out` and `term` of at least
    d * d * ell * R entries when given.
    """
    ell, d, _ = gens.shape
    shape = (d, d, ell, units.shape[-1])
    size = d * d * ell * units.shape[-1]
    new = np.empty(shape) if out is None else out[:size].reshape(shape)
    term = np.empty(shape) if term is None else term[:size].reshape(shape)
    g = gens.transpose(2, 1, 0)[:, :, None, :, None]  # g[b][a, 0, j, 0] = gens[j, a, b]
    np.multiply(g[0], units[0, :, None, :], out=new)
    for b in range(1, d):
        new += np.multiply(g[b], units[b, :, None, :], out=term)
    if signed:
        new += 0.0  # an all -0.0 sum becomes +0.0, as from a sum started at +0.0
    return new.reshape(d, d, -1)


def _grow(gens: np.ndarray, units: np.ndarray, exps: np.ndarray, reads: list, cadence: int,
          bufs: list | None = None, keep: bool = True):
    """Canonical (units, exps) grown len(reads) levels generator-major from canonical
    ones, rescaled every `cadence` levels and normalised at the last.

    reads[t - 1] is None or an (out, order) pair: the log sigma_1 of level t
    (`_log_sigma1`) is then gathered by `order` into `out`. A d = 2 level is
    read unscaled unless it is rescaled anyway; a d > 2 level is normalised
    first. With `keep` False the caller discards the last level, so it is not
    rescaled and the pair returned is not canonical; at d = 2 no level then
    takes the zero-sign add of `_extend_level` (see the module docstring). With
    `bufs`, three flat arrays of d * d * W, d * d * W / ell and d * d * W
    entries, W the words of the last level: the last level goes into the first,
    the one before it into the second, and so on alternating; the third holds
    the products of `_extend_level`.
    """
    levels = len(reads)
    bufs = bufs or [None] * 3
    d = gens.shape[1]
    signed = keep or d != 2
    for i, read in enumerate(reads, 1):
        units = _extend_level(gens, units, bufs[(levels - i) % 2], bufs[2], signed)
        rescale = keep if i == levels else i % cadence == 0
        if rescale or (read is not None and d != 2):
            exps = exps[None].repeat(units.shape[-1] // len(exps), axis=0).ravel()
            _normalise(units, exps)
        if read is not None:
            np.take(_log_sigma1(units, exps), read[1], out=read[0], mode="clip")
    return units, exps


def _rank_order(ell: int, t: int, rows: int) -> np.ndarray:
    """Positions, in rank order, of the words that `rows` rows grow over t levels."""
    if ell == 1:  # one word per row: the orders agree (and t may exceed numpy's 64 axes)
        return np.arange(rows)
    grown = np.arange(ell**t * rows).reshape((ell,) * t + (rows,))  # axes (j_t, ..., j_1, r)
    return grown.transpose((t,) + tuple(range(t - 1, -1, -1))).ravel()


def _level(gens: np.ndarray, reads: list, cadence: int):
    """Canonical (units, exps) of Lambda(n), n = len(reads), in rank order, units as a
    (d, d, ell^n) stack, grown from the identity; levels 1..n are read as by `_grow`."""
    units, exps = _grow(gens, *_identity(gens.shape[1]), reads, cadence)
    order = _rank_order(gens.shape[0], len(reads), 1)
    return units[..., order], exps[order]


def _depth_within(ell: int, n: int, words: int) -> int:
    """The most levels b <= n with ell^b <= words."""
    b = 0
    while b < n and ell ** (b + 1) <= words:
        b += 1
    return b


def _tail_depth(ell: int, n: int) -> int:
    """Tail levels b <= n of the `LogDets` split of Lambda(n): the most with ell^b <= `_STREAM`,
    which gives the table the fewest head rows. The sweep's split is `_chunk_depth`."""
    return _depth_within(ell, n, _STREAM)


def _chunk_depth(ell: int, n: int) -> int:
    """Levels b <= n that each chunk of a streamed Lambda(n) grows.

    A chunk holds ell^t words, t = `_tail_depth(ell, n)`: ell^(t - b) head rows
    grown b levels. b is the most levels that leave at least `_CHUNK_ROWS` rows,
    unless the head level Lambda(n - b) would then hold more than `_STREAM`
    words: b then grows until it does not, up to t, where a chunk is one row.
    """
    tail = _tail_depth(ell, n)
    return min(tail, max(_depth_within(ell, n, ell**tail // _CHUNK_ROWS), n - tail))


def _sweep(gens: np.ndarray, outs: list, cadence: int) -> None:
    """log sigma_1 of Lambda(m) in rank order into outs[m], m = 0..n = len(outs) - 1,
    from one sweep; a level whose outs[m] is None is not read.

    The levels up to the head level Lambda(n - b), b = `_chunk_depth(ell, n)`, are
    built whole. Each chunk of head rows r0..r1-1 then grows b levels: the words
    grown t levels from it share their prefixes with it, so they are ranks
    r0 ell^t .. r1 ell^t - 1 of Lambda(n - b + t). Every chunk holds the same
    ell^t <= `_STREAM` words, t = `_tail_depth(ell, n)`, in three flat buffers
    that every chunk reuses, and its last level is read unscaled and discarded.
    """
    ell, d = gens.shape[:2]
    n = len(outs) - 1
    b = _chunk_depth(ell, n)
    order = functools.cache(functools.partial(_rank_order, ell))  # every chunk shares them

    def reads(m, r0, r1, levels):
        """Where levels m + 1..m + levels grown from rows r0..r1-1 of Lambda(m) are read."""
        return [None if out is None else (out[r0 * ell**t:r1 * ell**t], order(t, r1 - r0))
                for t, out in enumerate(outs[m + 1:m + levels + 1], 1)]

    if outs[0] is not None:
        outs[0][:] = _log_sigma1(*_identity(d))
    old = np.setbufsize(_SWEEP_BUFFER)  # see the module docstring; no bit depends on it
    try:
        units, exps = _level(gens, reads(0, 0, 1, n - b), cadence)
        rows = ell ** (_tail_depth(ell, n) - b)  # a divisor of the ell^(n - b) head rows
        size = d * d * rows * ell**b
        bufs = [np.empty(size), np.empty(size // ell), np.empty(size)]
        for r0 in range(0, len(exps), rows):
            r1 = r0 + rows
            _grow(gens, units[..., r0:r1], exps[r0:r1], reads(n - b, r0, r1, b), cadence, bufs,
                  keep=False)
    finally:
        np.setbufsize(old)


def dense_products(gens: np.ndarray, n: int) -> np.ndarray:
    """Exact unscaled products for all of Lambda(n), lexicographic: an (ell^n, d, d) stack."""
    gens = np.ascontiguousarray(gens, dtype=float)
    units, exps = _level(gens, [None] * n, _cadence(gens) if n > 1 else 1)  # one level: no rescale
    units = np.ascontiguousarray(units.transpose(2, 0, 1))
    return np.ldexp(units, exps.astype(np.int64)[:, None, None])


def sigma1_2x2(units: np.ndarray) -> np.ndarray:
    """sigma_1 of each matrix [[a, b], [c, d]] of a (2, 2, ...) stack, in closed form:
    (|(a + d, c - b)| + |(a - d, c + b)|) / 2, which cancels nowhere."""
    a, b, c, dd = units[0, 0], units[0, 1], units[1, 0], units[1, 1]
    p, q = a + dd, c - b
    p *= p
    p += np.multiply(q, q, out=q)
    np.sqrt(p, out=p)
    r = np.subtract(a, dd, out=q)
    r *= r
    t = c + b
    r += np.multiply(t, t, out=t)
    p += np.sqrt(r, out=r)
    p *= 0.5
    return p


def _log_sigma1(units: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """Per-word log sigma_1 of a (d, d, R) stack and its exponents: of a canonical
    stack, or at d = 2 of any stack, which is left as it is.

    At d = 2 sigma_1 of the unit is scaled by 2^-k, k from `_top_exponents`
    (0 on a canonical stack), which has the bits of `_normalise` before the
    read: every step of `sigma1_2x2` (sums, products, a square root of a sum
    of squares, halving) commutes exactly with a power of two while no entry
    is subnormal. `exps` holds one exponent per unit or, for a d = 2 level
    grown generator-major from fewer rows, one per row, repeated.
    """
    if units.shape[0] != 2:
        s1 = np.linalg.svd(units.transpose(2, 0, 1), compute_uv=False)[:, 0]
        return exps * _LN2 + np.log(s1)
    s1 = sigma1_2x2(units)
    k, _ = _top_exponents(units)
    read = (k.reshape(-1, len(exps)) + exps).ravel()
    np.ldexp(s1, np.negative(k, out=k), out=s1)
    read *= _LN2
    read += np.log(s1, out=s1)
    return read


def _count_classes(ell: int, n: int):
    """(letter counts of each class, class of each word of Lambda(n) in rank order);
    two words share a class when every letter occurs in them equally often."""
    classes, index = np.zeros((1, ell)), np.zeros(1, dtype=np.int64)
    for _ in range(n):
        ids = {}  # letter counts of each child (class, letter) -> its class, in order of appearance
        step = [ids.setdefault(row, len(ids)) for row in
                map(tuple, (classes[:, None, :] + np.eye(ell)).reshape(-1, ell).tolist())]
        classes, index = np.array(list(ids)), np.array(step).reshape(-1, ell)[index].ravel()
    return classes, index


def _letter_log_dets(gens: np.ndarray) -> np.ndarray:
    """log |det A_j| of each generator: the letter terms that `_log_det` folds."""
    return np.log(np.abs(np.linalg.det(gens)))


def _log_det(gens: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """log |det A_I| from letter counts (..., ell): sum over j of counts[..., j] * log |det A_j|."""
    acc = np.zeros(counts.shape[:-1])
    for j, ld in enumerate(_letter_log_dets(gens)):
        acc += counts[..., j] * ld
    return acc


class LogDets:
    """log |det A_I| of every word of Lambda(n), read by rank range.

    Word rank q * span + t, with q a head row (a word of Lambda(n - b)) and t a
    tail (a word of Lambda(b)), span = ell^b, has
    log |det A_I| = rows[q, tail_class[t]]: `rows` holds one `_log_det` per
    head row and tail letter class, so the table is small and every value a
    pure gather. `log_sigma2` then subtracts log sigma_1 exactly as a whole
    level array would.
    """

    def __init__(self, rows: np.ndarray, tail_class: np.ndarray):
        self.rows, self.tail_class = rows, tail_class

    def log_sigma2(self, logs1: np.ndarray, lo: int = 0, hi: int | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
        """log sigma_2 = log |det A_I| - log sigma_1 of ranks lo..hi-1, into `out[:hi - lo]`."""
        hi = len(logs1) if hi is None else hi
        out = np.empty(hi - lo) if out is None else out[:hi - lo]
        span = len(self.tail_class)
        at = lo
        while at < hi:
            q, t = divmod(at, span)
            end = min(hi, (q + 1) * span)
            np.take(self.rows[q], self.tail_class[t:t + end - at], out=out[at - lo:end - lo],
                    mode="clip")
            at = end
        return np.subtract(out, logs1[lo:hi], out=out)


def word_singvals(gens: np.ndarray, n: int):
    """(log sigma_1 per word of Lambda(n) in lexicographic rank order, `LogDets`).

    The `LogDets` table is None for d > 2 (only the norm is needed there). The
    level is streamed by `_sweep`, which reads no level but Lambda(n).
    """
    gens = np.ascontiguousarray(gens, dtype=float)
    ell, d = gens.shape[:2]
    logs1 = np.empty(ell**n)
    _sweep(gens, [None] * n + [logs1], _cadence(gens))
    log_dets = None
    if d == 2:
        b = _tail_depth(ell, n)
        head_classes, head_class = _count_classes(ell, n - b)
        classes, tail_class = _count_classes(ell, b)
        log_dets = LogDets(_log_det(gens, head_classes[:, None, :] + classes)[head_class],
                           tail_class)
    return logs1, log_dets


def level_singvals(gens: np.ndarray, n: int):
    """Yield log sigma_1 of Lambda(m) in rank order for m = 0..n, from one sweep.

    Each level is a new array, which the caller may overwrite. One `_sweep`
    fills every level before the first is yielded.
    """
    gens = np.ascontiguousarray(gens, dtype=float)
    outs = [np.empty(len(gens) ** m) for m in range(n + 1)]
    _sweep(gens, outs, _cadence(gens))
    yield from outs


def pairwise_sum(leaf, lo: int, hi: int, block: int) -> float:
    """np.sum's bits over the values of ranks lo..hi-1, never more than `block` at once.

    `leaf(a, b)` returns np.sum of the values of ranks a..b-1, a scalar. Above
    128 values numpy's pairwise sum splits n values at n2 = n // 2 rounded down
    to a multiple of 8; this recursion takes the same splits down to leaves of
    at most `block` values (`block` >= 128), so it adds the same partial sums
    in the same order.
    """
    n = hi - lo
    if n <= block:
        return leaf(lo, hi)
    n2 = n // 2
    n2 -= n2 % 8
    return pairwise_sum(leaf, lo, lo + n2, block) + pairwise_sum(leaf, lo + n2, hi, block)


def minimax_grid2(kmats: np.ndarray, G: int):
    """Raw grid minimum of max_K |w^T A_K u| over G x G (w, u) angle pairs in [0, pi)^2.

    The angles are pi j / G, j = 0..G-1. |w^T A_K u| has period pi in each
    angle (w -> -w and u -> -u flip its sign only), so this one period holds
    every value of the torus. The w rows fold in near-equal blocks of at most
    `_GRID_ROWS`, never of one row unless G = 1: a one-row matmul may take a
    matrix-vector path with other bits. Each block's two G-column arrays are sized to stay in cache
    across the fold over K (see the module docstring). The first minimum of
    the first block holding the least block minimum is the row-major argmin
    of the whole grid.
    """
    kmats = np.ascontiguousarray(kmats, dtype=float)
    th = np.pi * np.arange(G) / G
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
