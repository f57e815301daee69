"""Potentials, two-sided pressure brackets, and dimension root solvers.

Upper pressure bounds come from subadditivity: P <= (1/n) log Z_n. Lower
bounds iterate the connector supermultiplicativity Z_{n+k+m} >= C Z_n Z_m
(each pair (I, J) contributes the distinct word IKJ), which telescopes to
P >= (log Z_n + log C)/(n + k) whenever a positive constant C is available.
One function (`_ends`) forms both ends. Each root solver states its equation
once, as h(s, q_1, ...) increasing in every growth rate q_i, and its upper
and lower curves are h at the upper and at the lower ends. Root searches
therefore return intervals, not point estimates: uncertainty is structural.
One bracketing solver (`_root_bracket`, regula falsi with the Illinois step
and a bisection fallback) finds the root of each curve to 1e-6, and the
interval takes the outer end of each bracket, so it contains both roots as
computed in floats. Each search first finds its curve's root on a guide, a
histogram of the level's log sigma_1 (`_LevelData.guide_log_z`), and starts
from a pair of exact points either side of it: when the guide is right, a
curve costs one log Z pass per potential at each of the two. Every end is
still read off exact log Z passes.

`qm_source` supplies C: the connector constant `quasimult.ConnectorConstant`
at k = k_qm, or for conformal systems (all generators scalar multiples of
orthogonal matrices, so partition sums are exactly multiplicative) the exact
input k = 0, C = 1, which gives zero-width brackets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .hypotheses import HypothesisReport, check_hypotheses
from .kernels import _letter_log_dets, _log_det, _log_sigma1, pairwise_sum, word_singvals
from .quasimult import connector_constant
from .systems import GeneratorSystem
from .wordspace import DEFAULT_BUDGET, Word, check_budget, check_sweep, product, validate_word

S_MAX = 4.0          # root searches live on [0, S_MAX]
ROOT_TOL = 1e-6
_BLOCK = 1 << 16     # most words of Lambda(n) a log Z pass holds at once
_GUIDE_BINS = 4096   # equal bins of log sigma_1 in a level's guide (`_LevelData.guide_log_z`)
_GUIDE_STEP = 1e-9   # a guided search's exact pair lies this far either side of the guide's root

KINDS = ("norm_s", "sv_s", "sv_s_squared")


@dataclass(frozen=True)
class PotentialSpec:
    kind: str
    s: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown potential kind {self.kind!r}")
        if self.s < 0:
            raise InputError("s must be nonnegative")


def _log_phi(logs1: np.ndarray, logs2: np.ndarray | None, s: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """log of the singular value function phi^s from per-word log singular values.

    Written into `out` when given; `logs1` and `logs2` are only read.
    """
    if s < 1.0:
        return np.multiply(logs1, s, out=out)
    if s < 2.0:
        w = np.multiply(logs2, s - 1.0, out=out)
        return np.add(logs1, w, out=w)
    w = np.add(logs1, logs2, out=out)
    return np.multiply(w, s / 2.0, out=w)


def log_potential(logs1: np.ndarray, logs2: np.ndarray | None, spec: PotentialSpec,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Per-word log potential, written into `out` when given; the inputs are only read."""
    if spec.kind == "norm_s":
        return np.multiply(logs1, spec.s, out=out)
    if logs2 is None and spec.s >= 1.0:
        raise InputError("singular value potentials need d = 2 data")
    base = _log_phi(logs1, logs2, spec.s, out)
    return np.multiply(base, 2.0, out=base) if spec.kind == "sv_s_squared" else base


@dataclass(frozen=True)
class QMInput:
    """Supermultiplicativity input: Z_{n+k+m} >= C Z_n Z_m for the summed potential."""

    k: int
    C: float

    def __post_init__(self):
        if self.k < 0 or not self.C > 0:
            raise InputError("qm input needs k >= 0 and C > 0")


def conformal_qm_input(system: GeneratorSystem) -> QMInput | None:
    """Exact k = 0, C = 1 input for conformal systems, else None."""
    return QMInput(k=0, C=1.0) if system.is_conformal() else None


@dataclass(frozen=True)
class PressureBracket:
    """Pressure bracket at level n; `qm` is the phi-level input as given.

    `negated` is True for `sv_s_squared`, the square pressure
    P2 = -lim (1/n) log sum (phi^s)^2: its constant is qm.C squared, and the
    raw ends are negated and swapped, so `lower` is always valid (plain
    submultiplicativity) and `upper` needs the constant.
    """

    spec: PotentialSpec
    n: int
    lower: float
    upper: float
    lower_valid: bool
    log_zn: float
    qm: QMInput | None = None
    negated: bool = False

    def __post_init__(self):
        if self.lower_valid and self.lower > self.upper + 1e-9:
            raise AssertionError(
                f"bracket inverted: lower {self.lower} > upper {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower if self.lower_valid else math.inf


class _LevelData:
    """Per-word log sigma_1 at one level and its `LogDets` table, reusable across s.

    Lambda(n) costs 8 bytes per word: log sigma_2 of a block of ranks is
    rebuilt from the table when a potential reads it. `log_z` is memoised per
    potential: the two searches of a root share their end points s = 0 and
    S_MAX. Three counters, each per potential, say what the values cost:
    - `passes`: the potentials whose log Z_n summed over Lambda(n);
    - `sweeps`: the block passes over Lambda(n) they took, a sum pass per
      potential plus a max pass for phi^s at 1 <= s < 2;
    - `closed_forms`: the potentials whose log Z_n took no pass at all
      (`_closed_form`).
    The guide of the root searches (`guide_log_z`) is built on first use, in
    one more sweep.
    """

    def __init__(self, system: GeneratorSystem, n: int, *, budget: int = DEFAULT_BUDGET):
        if n < 1:
            raise InputError("level n must be >= 1")
        check_sweep(system.ell, n, budget)
        self.n = n
        self.logs1, self.log_dets = word_singvals(system.stacked(), n)
        self._letter_log_dets = (None if self.log_dets is None
                                 else _letter_log_dets(system.stacked()))
        size = min(len(self.logs1), _BLOCK)
        # at least 2: the guide's build splits the first buffer in two
        self._w, self._logs2 = np.empty(max(size, 2)), np.empty(size)
        self._max_logs1 = np.max(self.logs1)
        self._log_z: dict[PotentialSpec, float] = {}
        self._guide = None
        self.passes = self.sweeps = self.closed_forms = 0

    @staticmethod
    def _reads_sigma2(spec: PotentialSpec) -> bool:
        """phi^s reads log sigma_2 only from s = 1 on; the norm potential never does."""
        return spec.kind != "norm_s" and spec.s >= 1.0

    def _potential(self, spec: PotentialSpec, lo: int, hi: int) -> np.ndarray:
        """The log potential of ranks lo..hi-1, in the block buffer."""
        logs2 = None
        if self._reads_sigma2(spec) and self.log_dets is not None:
            logs2 = self.log_dets.log_sigma2(self.logs1, lo, hi, out=self._logs2)
        return log_potential(self.logs1[lo:hi], logs2, spec, out=self._w[:hi - lo])

    def _max_potential(self, spec: PotentialSpec) -> float:
        """max over Lambda(n) of the log potential.

        A potential that reads only log sigma_1 is fl(c * log sigma_1) with
        c = s or 2s, and c >= 0. Rounding to nearest is nondecreasing, so the
        largest rounded product is the rounded product of the largest
        log sigma_1 (up to the sign of a zero at s = 0, which no later step
        can see: w - m and m + log sum are unchanged by it). So m is the
        potential of the level's max log sigma_1, with no pass of its own.
        Only phi^s at 1 <= s < 2 reaches the pass that reads log sigma_2:
        s >= 2 has a closed form (`_closed_form`).
        """
        if not self._reads_sigma2(spec):
            return float(log_potential(np.array([self._max_logs1]), None, spec)[0])
        size, block = len(self.logs1), len(self._w)
        self.sweeps += 1
        return float(np.max([np.max(self._potential(spec, lo, min(lo + block, size)))
                             for lo in range(0, size, block)]))

    def _closed_form(self, spec: PotentialSpec) -> float | None:
        """log Z_n with no pass over Lambda(n) where the potential allows one, else None.

        At s = 0 every word weighs exp(+-0) = 1, so Z_n = ell^n, an integer
        below 2^53: log(ell^n) has the bits of the summed value. For phi^s of
        2x2 products at s >= 2, phi^s(A) = |det A|^(s/2) is multiplicative, so
        log Z_n = n log sum_j |det A_j|^c, c = s/2 (`sv_s`) or s
        (`sv_s_squared`), taken with a max shift from the letters'
        log |det A_j| that `kernels._log_det` folds. That is not the summed
        value's bits: both are within a few ulps of the exact value.
        """
        if spec.s == 0.0:
            return math.log(float(len(self.logs1)))
        if spec.kind == "norm_s" or spec.s < 2.0 or self._letter_log_dets is None:
            return None
        a = self._letter_log_dets * (spec.s / 2.0 if spec.kind == "sv_s" else spec.s)
        m = float(np.max(a))
        return self.n * (m + math.log(float(np.sum(np.exp(a - m)))))

    def log_z(self, spec: PotentialSpec) -> float:
        """log Z_n, from `_closed_form` where there is one, else m + log sum exp(w - m),
        m = max w, in one or two passes of block buffers.

        m is exact in any order: for phi^s at 1 <= s < 2 it takes a pass of
        its own; for a potential of log sigma_1 alone it is read from the
        level's max of log sigma_1 (`_max_potential`). The sum pass adds in
        `pairwise_sum`'s leaves, so log Z_n has the bits of one np.sum over
        the whole level.
        """
        if spec in self._log_z:
            return self._log_z[spec]
        value = self._closed_form(spec)
        if value is None:
            m = self._max_potential(spec)

            def leaf(lo: int, hi: int):
                u = self._potential(spec, lo, hi)
                u -= m
                return np.sum(np.exp(u, out=u))

            self.passes += 1
            self.sweeps += 1
            value = m + math.log(float(pairwise_sum(leaf, 0, len(self.logs1), len(self._w))))
        else:
            self.closed_forms += 1
        self._log_z[spec] = value
        return value

    def _build_guide(self):
        """(count N_b, mean mu_b, half variance v_b / 2) of log sigma_1 in each nonempty
        one of _GUIDE_BINS equal bins over [min, max], from one sweep in the block buffers.

        A word's place y = (x - min) * scale in the bins splits into its bin
        floor(y) and its offset y - floor(y) in [0, 1); offsets and their squares
        sum per bin, so a bin's mean and variance lose no more than its width
        allows. A block of y and its bins as integers fill the two halves of the
        buffer a log Z pass uses, so the build touches no memory a pass does
        not. A flat level (max = min) is one bin of variance 0.
        """
        lo = float(np.min(self.logs1))
        # below _GUIDE_BINS after rounding, so the max falls in the last bin
        scale = _GUIDE_BINS * (1.0 - 2.0**-40) / ((self._max_logs1 - lo) or 1.0)
        counts, sums, squares = (np.zeros(_GUIDE_BINS) for _ in range(3))
        size, block = len(self.logs1), len(self._w) // 2
        values, places = self._w[:block], self._w[block:2 * block].view(np.intp)
        self.sweeps += 1
        for start in range(0, size, block):
            stop = min(start + block, size)
            y = np.subtract(self.logs1[start:stop], lo, out=values[:stop - start])
            y *= scale
            bins = np.floor(y, out=places[:stop - start], casting="unsafe")
            y -= bins
            counts += np.bincount(bins, minlength=_GUIDE_BINS)
            sums += np.bincount(bins, y, minlength=_GUIDE_BINS)
            y *= y
            squares += np.bincount(bins, y, minlength=_GUIDE_BINS)
        full = counts > 0
        counts, offsets = counts[full], sums[full] / counts[full]
        variances = np.maximum(squares[full] / counts - offsets * offsets, 0.0)
        return counts, lo + (np.flatnonzero(full) + offsets) / scale, 0.5 * variances / scale**2

    def guide_log_z(self, spec: PotentialSpec) -> float:
        """log Z_n of a potential c * log sigma_1 estimated from the guide:
        m + log sum_b N_b e^(c mu_b - m) (1 + c^2 v_b / 2), m = max_b c mu_b.

        c = s, or 2s for `sv_s_squared`: the norm potential at any s, phi^s at
        s <= 1. Each bin's sum of e^(c x) is taken to second order about its
        mean, so a bin of one value is exact. The value only steers the root
        searches (`_dimension_root`); no end they report reads it.
        """
        if self._guide is None:
            self._guide = self._build_guide()
        counts, means, half_variances = self._guide
        c = spec.s * (2.0 if spec.kind == "sv_s_squared" else 1.0)
        t = c * means
        m = float(np.max(t))
        return m + math.log(float(np.sum(counts * np.exp(t - m) * (1.0 + c * c * half_variances))))


def _ends(spec: PotentialSpec, n: int, log_zn: float,
          qm: QMInput | None) -> tuple[float, float]:
    """(lower, upper) ends of the growth rate of log Z_n: ((log Z_n + c log C)/(n + k),
    log Z_n / n), the lower one -inf without a constant.

    c = 2 for `sv_s_squared`, whose constant is the square of the phi-level
    `qm.C`: 2 log C stays finite where C**2 would underflow.
    """
    c = 2 if spec.kind == "sv_s_squared" else 1
    lower = -math.inf if qm is None else (log_zn + c * math.log(qm.C)) / (n + qm.k)
    return lower, log_zn / n


def _bracket(spec: PotentialSpec, n: int, log_zn: float, qm: QMInput | None) -> PressureBracket:
    """Bracket from log Z_n; for `sv_s_squared` the square-pressure bracket of
    `PressureBracket.negated`."""
    lower, upper = _ends(spec, n, log_zn, qm)
    if spec.kind == "sv_s_squared":
        return PressureBracket(spec=spec, n=n, lower=-upper, upper=-lower, lower_valid=True,
                               log_zn=log_zn, qm=qm, negated=True)
    return PressureBracket(spec=spec, n=n, lower=lower, upper=upper,
                           lower_valid=qm is not None, log_zn=log_zn, qm=qm)


def pressure_brackets(system: GeneratorSystem, potential: str, n: int, s_values,
                      qm_inputs, *, budget: int = DEFAULT_BUDGET) -> list[PressureBracket]:
    """Brackets at every s of `s_values`, all from one enumeration of Lambda(n).

    `qm_inputs[i]` is the QM input at `s_values[i]` (None: no lower constant).
    """
    specs = [PotentialSpec(potential, s) for s in s_values]
    if potential != "norm_s" and system.dim != 2:
        raise InputError(f"{potential} needs a 2x2 system")
    data = _LevelData(system, n, budget=budget)
    return [_bracket(spec, n, data.log_z(spec), qm) for spec, qm in zip(specs, qm_inputs)]


@dataclass(frozen=True)
class TargetSequence:
    """Finite prefix (J_1, ..., J_T) of a target cylinder sequence."""

    words: tuple[Word, ...]
    tail_start: int = 1

    def __post_init__(self):
        if not self.words:
            raise InputError("target sequence is empty")
        if any(len(w) == 0 for w in self.words):
            raise InputError("target words must be nonempty")
        if not 1 <= self.tail_start <= len(self.words):
            raise InputError("tail_start outside the target list")

    def validate(self, ell: int) -> list[str]:
        warnings = []
        for w in self.words:
            validate_word(w, ell)
        lengths = [len(w) for w in self.words]
        if any(b < a for a, b in zip(lengths, lengths[1:])):
            warnings.append("target lengths are not nondecreasing")
        return warnings


def all_ones_targets(count: int, tail_start: int = 1, *,
                     budget: int = DEFAULT_BUDGET) -> TargetSequence:
    """Targets 1, 11, 111, ... of lengths 1..count; their total length must fit the budget."""
    check_budget(count * (count + 1) // 2, budget)
    return TargetSequence(words=tuple(tuple([1] * k) for k in range(1, count + 1)),
                          tail_start=tail_start)


class _TargetData:
    """log sigma_1 and log sigma_2 of each target word's product.

    log sigma_1 is the engine's one readout (`kernels._log_sigma1`), so a
    target word has the bits of the same word in Lambda(n). log sigma_2 =
    log |det A_J| - log sigma_1, with log |det A_J| from the word's letter
    counts (`kernels._log_det`), as for a level: it stays finite where sigma_2
    of the product's unit underflows.
    """

    def __init__(self, system: GeneratorSystem, targets: TargetSequence):
        self.lengths = np.array([len(w) for w in targets.words], dtype=float)
        prods = []
        prev, sp = (), None
        for w in targets.words:
            if w[:len(prev)] != prev:  # not an extension of the last target
                prev, sp = (), None
            sp = product(system, w[len(prev):], sp)
            prev = w
            prods.append(sp)
        counts = np.array([np.bincount(w, minlength=system.ell + 1)[1:] for w in targets.words])
        self.logs1 = _log_sigma1(np.stack([sp.unit for sp in prods], axis=2),
                                 np.array([float(sp.exponent) for sp in prods]))
        self.logs2 = _log_det(system.stacked(), counts) - self.logs1
        self.tail = targets.tail_start - 1

    def alpha(self, s: float) -> float:
        logphi = _log_phi(self.logs1, self.logs2, s)
        vals = -logphi / self.lengths
        return float(np.min(vals[self.tail:]))


@dataclass(frozen=True)
class BetaEstimate:
    value: float
    explicit: bool
    tail_start: int | None = None
    warnings: tuple[str, ...] = ()


def beta_hat(psi_table=None, beta: float | None = None,
             tail_start: int | None = None) -> BetaEstimate:
    """Tail-minimum proxy for liminf psi(n)/n, or a passthrough explicit beta;
    either must lie below 1, as the recurrence dimension needs."""
    if beta is not None:
        if beta < 0:
            raise InputError("beta must be nonnegative")
        if beta >= 1:
            raise InputError("recurrence dimension needs beta < 1")
        return BetaEstimate(value=float(beta), explicit=True)
    if not psi_table:
        raise InputError("provide either a psi table or an explicit beta")
    pairs = sorted((int(n), float(v)) for n, v in psi_table)
    if any(n <= 0 for n, _ in pairs):
        raise InputError("psi table needs positive n")
    if tail_start is None:
        tail_start = pairs[len(pairs) // 2][0]
    tail = [(n, v) for n, v in pairs if n >= tail_start]
    if not tail:
        raise InputError("tail_start leaves an empty tail")
    value = min(v / n for n, v in tail)
    if value >= 1:
        raise InputError("recurrence dimension needs beta < 1")
    warnings = []
    n_hi = pairs[-1][0]
    quart = [v / n for n, v in pairs if n >= n_hi - (n_hi - pairs[0][0]) / 4]
    if len(quart) >= 2 and max(quart) - min(quart) > 0.01:
        warnings.append("liminf proxy unstable: last-quartile spread above 0.01")
    return BetaEstimate(value=float(value), explicit=False, tail_start=tail_start,
                        warnings=tuple(warnings))


@dataclass(frozen=True)
class DimensionReport:
    kind: str  # shrinking_target | recurrence | affinity
    interval: tuple[float, float]
    dimension: tuple[float, float]  # interval clamped at 2
    clamped: bool
    boundary: str | None = None
    hypothesis_report: HypothesisReport | None = None
    warnings: tuple[str, ...] = ()
    details: dict = field(default_factory=dict)
    # per-end counts of the root searches; reported in `meta`, not in the result
    root_search: dict = field(default_factory=dict, repr=False)

    @property
    def width(self) -> float:
        return self.interval[1] - self.interval[0]


def _root_bracket(g, lo: float, hi: float, tol: float = ROOT_TOL):
    """Bracket (a, b) of the root of a decreasing g on [lo, hi]: g(a) > 0 >= g(b), b - a <= tol.

    Regula falsi with the Illinois step: when one end is kept twice in a row,
    its stored g value is halved. Each secant point lies at least tol/4 inside
    the bracket, so the bracket closes around an accurate estimate. A step
    bisects instead when an end value is not finite, when the bracket did not
    halve over the last two steps (the first step, from [lo, hi], aside), or
    when a secant step that left the bracket as it is could no longer be
    finished by bisection within B = 2 ceil(log2((hi - lo)/tol)) steps. So g
    is evaluated at most B + 2 times: at worst about twice as often as plain
    bisection.
    Returns (a, b, tag, counts). Without a sign change the tag is "at_lower"
    (g(lo) <= 0, a = b = lo) or "at_upper" (g(hi) > 0, a = b = hi), else None;
    `counts` holds the steps taken and how many of them bisected.
    """
    fa = g(lo)
    if fa <= 0:
        return lo, lo, "at_lower", {"steps": 0, "bisection_fallbacks": 0}
    fb = g(hi)
    if fb > 0:
        return hi, hi, "at_upper", {"steps": 0, "bisection_fallbacks": 0}
    a, b = lo, hi
    fallbacks = 0
    budget = 2 * math.ceil(math.log2((hi - lo) / tol))
    widths = []  # the bracket width after each step
    kept = None  # the end the last step kept
    while b - a > tol:
        w = b - a
        if (not (math.isfinite(fa) and math.isfinite(fb))
                or (len(widths) > 2 and w > widths[-3] / 2)
                or len(widths) + 1 + math.ceil(math.log2(w / tol)) > budget):
            x = 0.5 * (a + b)
            fallbacks += 1
        else:
            x = min(max(a + w * (fa / (fa - fb)), a + tol / 4), b - tol / 4)
        fx = g(x)
        if fx > 0:
            a, fa = x, fx
            if kept == "b":
                fb *= 0.5
            kept = "b"
        else:
            b, fb = x, fx
            if kept == "a":
                fa *= 0.5
            kept = "a"
        widths.append(b - a)
    return a, b, None, {"steps": len(widths), "bisection_fallbacks": fallbacks}


def _seed_bracket(g, points) -> tuple[float, float]:
    """The narrowest (a, b) of adjacent `points` with g(a) > 0 >= g(b), else (0, S_MAX).

    `points` hold 0 and S_MAX, where log Z takes closed forms, the points an
    earlier search sampled, where it is memoised, and a guide's pair. Without
    g(0) > 0 >= g(S_MAX) among them (a curve without a QM constant is -inf at
    0), [0, S_MAX] is kept, so `_root_bracket` reports the same boundary tag
    as an unseeded search.
    """
    xs = sorted(set(points))
    vals = [g(x) for x in xs]
    pairs = [(b - a, a, b) for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]) if fa > 0 >= fb]
    if not (vals[0] > 0 >= vals[-1] and pairs):
        return 0.0, S_MAX
    _, a, b = min(pairs)
    return a, b


def qm_source(system: GeneratorSystem, k_qm: int, *, budget: int = DEFAULT_BUDGET):
    """(qm_input(s, kind), description) of the lower pressure ends.

    Conformal systems get the exact k = 0, C = 1; any other system gets
    `ConnectorConstant.value` at k = k_qm, and no input where that is 0.
    """
    exact = conformal_qm_input(system)
    if exact is not None:
        return (lambda s, kind: exact), {"mode": "conformal", "k": 0, "C": 1.0}
    const = connector_constant(system, k_qm, budget=budget)

    def qm_input(s: float, kind: str) -> QMInput | None:
        c = const.value(s, kind)
        return QMInput(k=k_qm, C=c) if c > 0 else None

    return qm_input, {"mode": "gamma_minimax", "k": k_qm, "gamma": const.gamma.value,
                      "gamma_certified": const.gamma.certified, "min_det": const.min_det}


def _monotone_warnings(samples: list[tuple[float, float]], label: str,
                       decreasing: bool) -> list[str]:
    samples = sorted(samples)
    vals = [v for _s, v in samples]
    for a, b in zip(vals, vals[1:]):
        if decreasing and b > a + 1e-9:
            return [f"{label} not monotone along the root-search samples"]
        if not decreasing and b < a - 1e-9:
            return [f"{label} not monotone along the root-search samples"]
    return []


def _dimension_root(kind: str, system: GeneratorSystem, n: int, k_qm: int, kinds: tuple, h, *,
                    budget: int, details: dict, warnings=(),
                    late_warnings=lambda sampled: []) -> DimensionReport:
    """Bracket the root of h(s, q_1, ...) = 0, clamped at 2, where q_i is the growth
    rate of the potential kinds[i] at s and h increases in every q_i.

    h at every upper end (`_ends`) is the upper curve, h at every lower end the
    lower curve; both decrease in s. The lower curve needs a positive QM input
    and is -inf (root 0) without one. Each curve is first searched on its
    guide, the same h on `_LevelData.guide_log_z`, bracketed on [0, 1] to
    _GUIDE_STEP / 4, whose root s* gives the exact pair s* +- _GUIDE_STEP.
    Then `_seed_bracket` starts the exact search from the narrowest sign change
    among s = 0, S_MAX, the pair and, for the lower curve, the upper search's
    points, and `_root_bracket` closes it. A right guide costs the pair alone:
    one log Z pass per potential at each of its two points. A wrong one leaves
    regula falsi from the narrowest exact sign change. A curve with no sign
    change on [0, S_MAX] (a boundary tag) builds no guide, and one whose guide
    has no root in [0, 1] (phi^s reads log sigma_2 above s = 1) takes no pair.
    Every reported end is an end of an exact bracket: g(a) > 0 >= g(b) and
    b - a <= ROOT_TOL. The interval is outward: the left end of the lower
    curve's bracket and the right end of the upper curve's.
    `late_warnings(sampled)` runs after both searches, on the upper ends at
    the upper search's exact points.
    """
    hyp = check_hypotheses(system, "corollary_4_3", budget=budget)
    data = _LevelData(system, n, budget=budget)
    qm_input, qm_desc = qm_source(system, k_qm, budget=budget)

    def ends(s: float, qm: QMInput | None, log_z) -> tuple[tuple, tuple]:
        """(lower ends, upper ends) of the potentials `kinds` at s, from `log_z`."""
        specs = [PotentialSpec(kind, s) for kind in kinds]
        lowers, uppers = zip(*(_ends(spec, n, log_z(spec), qm) for spec in specs))
        return lowers, uppers

    def upper(s: float, log_z) -> float:
        return h(s, *ends(s, None, log_z)[1])

    def lower(s: float, log_z) -> float:
        qm = qm_input(s, "sv_s")
        return -math.inf if qm is None else h(s, *ends(s, qm, log_z)[0])

    def effort() -> dict:
        return {"passes": data.passes, "sweeps": data.sweeps, "closed_form": data.closed_forms}

    def search(curve, points):
        """(a, b, tag, exact points sampled, counts) of the root of `curve`."""
        before = effort()
        sampled = []

        def g(s: float) -> float:
            sampled.append(s)
            return curve(s, data.log_z)

        guide_root, pair = None, []
        if g(0.0) > 0 >= g(S_MAX):  # closed forms; a boundary tag needs no guide
            a, b, tag, _ = _root_bracket(lambda s: curve(s, data.guide_log_z), 0.0, 1.0,
                                         _GUIDE_STEP / 4)
            if tag is None:
                guide_root = 0.5 * (a + b)
                pair = [x for x in (guide_root - _GUIDE_STEP, guide_root + _GUIDE_STEP) if x > 0]
        seeds = {0.0, S_MAX, *points, *pair}
        start = _seed_bracket(g, seeds)
        a, b, tag, counts = _root_bracket(g, *start)
        spent = {key: now - before[key] for key, now in effort().items()}
        return a, b, tag, sampled, spent | counts | {
            "start": list(start), "seed_points": len(seeds), "guide_root": guide_root,
            "guide_closed": start == tuple(pair)}

    _, s_hi, b_hi, sampled, up_counts = search(upper, ())
    s_lo, _, b_lo, _, lo_counts = search(lower, sampled)
    warnings = list(warnings) + late_warnings({s: ends(s, None, data.log_z)[1] for s in sampled})
    if qm_desc["mode"] != "conformal" and qm_desc["gamma"] <= 0:
        warnings.append("no positive QM constant: lower root defaulted to 0")
    interval = (min(s_lo, s_hi), s_hi)
    dim = (min(2.0, interval[0]), min(2.0, interval[1]))
    return DimensionReport(
        kind=kind, interval=interval, dimension=dim,
        clamped=interval[1] > 2.0, boundary=b_hi or b_lo, hypothesis_report=hyp,
        warnings=tuple(warnings), details={"n": n, "qm": qm_desc, **details},
        root_search={"upper": up_counts, "lower": lo_counts})


def s0_interval(system: GeneratorSystem, targets: TargetSequence, n: int, k_qm: int,
                *, budget: int = DEFAULT_BUDGET) -> DimensionReport:
    """Interval for s0 = inf{s > 0 : P(s) <= alpha(s)}: the root of P - alpha, clamped at 2."""
    if system.dim != 2:
        raise InputError("shrinking-target dimension needs d = 2")
    warnings = targets.validate(system.ell)
    tdata = _TargetData(system, targets)

    def monotone_warnings(sampled: dict) -> list[str]:
        return (_monotone_warnings([(s, p) for s, (p,) in sampled.items()], "upper pressure",
                                   decreasing=True)
                + _monotone_warnings([(s, tdata.alpha(s)) for s in sampled], "alpha proxy",
                                     decreasing=False))

    return _dimension_root(
        "shrinking_target", system, n, k_qm, ("sv_s",), lambda s, p: p - tdata.alpha(s),
        budget=budget, warnings=warnings, late_warnings=monotone_warnings,
        details={"tail_start": targets.tail_start,
                 "proxy": "tail minimum of -(1/|J_k|) log phi^s(A_{J_k})"})


def r0_interval(system: GeneratorSystem, beta: float, n: int, k_qm: int, *,
                budget: int = DEFAULT_BUDGET) -> DimensionReport:
    """Interval for the root of (1 - beta) P(r) = beta P2(r), clamped at 2: of
    (1 - beta) p + beta q, q = -P2 the growth rate of the squared potential."""
    if system.dim != 2:
        raise InputError("recurrence dimension needs d = 2")
    if not 0.0 <= beta < 1.0:
        raise InputError("beta must lie in [0, 1)")
    return _dimension_root("recurrence", system, n, k_qm, ("sv_s", "sv_s_squared"),
                           lambda r, p, q: (1.0 - beta) * p + beta * q, budget=budget,
                           details={"beta": beta})


def affinity_dimension(system: GeneratorSystem, n: int, k_qm: int, *,
                       budget: int = DEFAULT_BUDGET) -> DimensionReport:
    """Interval for the root of P(s) = 0 (candidate attractor dimension)."""
    if system.dim != 2:
        raise InputError("affinity dimension needs d = 2")
    return _dimension_root("affinity", system, n, k_qm, ("sv_s",), lambda s, p: p,
                           budget=budget, details={})
