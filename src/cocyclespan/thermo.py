"""Potentials, two-sided pressure brackets, and dimension root solvers.

Upper pressure bounds come from subadditivity: P <= (1/n) log Z_n. Lower
bounds iterate the connector supermultiplicativity Z_{n+k+m} >= C Z_n Z_m
(each pair (I, J) contributes the distinct word IKJ), which telescopes to
P >= (log Z_n + log C)/(n + k) whenever a positive constant C is available.
Root searches therefore return intervals, not point estimates: uncertainty
is structural. One bracketing solver (`_root_bracket`, regula falsi with the
Illinois step and a bisection fallback) finds the root of each end function
to 1e-6, and the interval takes the outer end of each bracket, so it contains
both roots as computed in floats.

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
from .kernels import word_singvals
from .quasimult import connector_constant
from .systems import GeneratorSystem
from .wordspace import DEFAULT_BUDGET, Word, check_budget, check_sweep, product, validate_word, word_str

S_MAX = 4.0          # root searches live on [0, S_MAX]
ROOT_TOL = 1e-6

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

    def requires_d2(self) -> bool:
        return self.kind != "norm_s"


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
    if logs2 is None:
        raise InputError("singular value potentials need d = 2 data")
    base = _log_phi(logs1, logs2, spec.s, out)
    return np.multiply(base, 2.0, out=base) if spec.kind == "sv_s_squared" else base


def _phi_piece(l1: float, l2: float, s: float, piece: str) -> float:
    if piece == "low":
        return s * l1
    if piece == "mid":
        return l1 + (s - 1.0) * l2
    return (s / 2.0) * (l1 + l2)


def potential_value(A, spec: PotentialSpec) -> float:
    """phi-type potential of a single matrix; piece boundaries are cross-checked."""
    A = np.asarray(A, dtype=float)
    if spec.requires_d2() and A.shape != (2, 2):
        raise InputError(f"{spec.kind} is defined for 2x2 matrices only")
    sv = np.linalg.svd(A, compute_uv=False)
    l1 = math.log(sv[0])
    if spec.kind == "norm_s":
        return math.exp(spec.s * l1)
    l2 = math.log(sv[-1])
    if spec.s in (1.0, 2.0):
        below = _phi_piece(l1, l2, spec.s, "low" if spec.s == 1.0 else "mid")
        here = _phi_piece(l1, l2, spec.s, "mid" if spec.s == 1.0 else "high")
        if abs(below - here) > 1e-12 * max(1.0, abs(here)):
            raise AssertionError("potential pieces disagree at a boundary")
    val = _log_phi(np.array([l1]), np.array([l2]), spec.s)[0]
    return math.exp(2.0 * val if spec.kind == "sv_s_squared" else val)


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
    spec: PotentialSpec
    n: int
    lower: float
    upper: float
    lower_valid: bool
    log_zn: float
    qm: QMInput | None = None
    negated: bool = False  # True for the square-pressure sign convention

    def __post_init__(self):
        if self.lower_valid and self.lower > self.upper + 1e-9:
            raise AssertionError(
                f"bracket inverted: lower {self.lower} > upper {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower if self.lower_valid else math.inf

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper) if self.lower_valid else self.upper


class _LevelData:
    """Cached per-word log singular values at one level, reusable across s.

    `log_z` is memoised per potential: the two searches of a root share their
    end points s = 0 and S_MAX. `passes` counts the passes over Lambda(n) made.
    """

    def __init__(self, system: GeneratorSystem, n: int, *, budget: int = DEFAULT_BUDGET):
        if n < 1:
            raise InputError("level n must be >= 1")
        check_sweep(system.ell, n, budget)
        self.n = n
        self.logs1, self.logs2 = word_singvals(system.stacked(), n)
        self._scratch = np.empty_like(self.logs1)
        self._log_z: dict[PotentialSpec, float] = {}

    def log_z(self, spec: PotentialSpec) -> float:
        """log Z_n = m + log sum exp(w - m), m = max w, reduced in one scratch buffer."""
        if spec not in self._log_z:
            w = log_potential(self.logs1, self.logs2, spec, out=self._scratch)
            m = float(np.max(w))
            w -= m
            self._log_z[spec] = m + math.log(float(np.sum(np.exp(w, out=w))))
        return self._log_z[spec]

    @property
    def passes(self) -> int:
        return len(self._log_z)


def _bracket(spec: PotentialSpec, n: int, log_zn: float, qm: QMInput | None) -> PressureBracket:
    """Bracket from log Z_n; the square-pressure bracket of `square_pressure` for `sv_s_squared`."""
    square = spec.kind == "sv_s_squared"
    if square and qm is not None:
        qm = QMInput(k=qm.k, C=qm.C**2)
    upper = log_zn / n
    lower = -math.inf if qm is None else (log_zn + math.log(qm.C)) / (n + qm.k)
    if square:
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


def pressure_bracket(system: GeneratorSystem, spec: PotentialSpec, n: int,
                     qm_input: QMInput | None = None, *,
                     budget: int = DEFAULT_BUDGET) -> PressureBracket:
    """Two-sided pressure bracket of one potential; `sv_s_squared` gives the square pressure."""
    return pressure_brackets(system, spec.kind, n, [spec.s], [qm_input], budget=budget)[0]


def square_pressure(system: GeneratorSystem, s: float, n: int,
                    qm_input: QMInput | None = None, *,
                    budget: int = DEFAULT_BUDGET) -> PressureBracket:
    """Square-pressure bracket: P2 = -lim (1/n) log sum (phi^s)^2.

    `qm_input.C` is the phi-level constant; the squared potential inherits C^2.
    The raw bracket ends are negated and swapped, so `lower` is always valid
    (it comes from plain submultiplicativity) and `upper` needs the constant.
    """
    return pressure_brackets(system, "sv_s_squared", n, [s], [qm_input], budget=budget)[0]


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
    def __init__(self, system: GeneratorSystem, targets: TargetSequence):
        self.lengths = np.array([len(w) for w in targets.words], dtype=float)
        l1, l2 = [], []
        prev, sp = (), None
        for i, w in enumerate(targets.words, start=1):
            if w[:len(prev)] != prev:  # not an extension of the last target
                prev, sp = (), None
            sp = product(system, w[len(prev):], sp)
            prev = w
            sv = np.linalg.svd(sp.unit, compute_uv=False)
            if sv[-1] == 0.0:
                raise InputError(f"target word {i} (length {len(w)}): the smaller singular "
                                 f"value of its product underflows to 0")
            l1.append(sp.logscale + math.log(sv[0]))
            l2.append(sp.logscale + math.log(sv[-1]))
        self.logs1 = np.array(l1)
        self.logs2 = np.array(l2)
        self.tail = targets.tail_start - 1

    def alpha(self, s: float) -> float:
        logphi = _log_phi(self.logs1, self.logs2, s)
        vals = -logphi / self.lengths
        return float(np.min(vals[self.tail:]))


def alpha_hat(system: GeneratorSystem, targets: TargetSequence, s: float) -> float:
    """Tail-minimum proxy of the inverse lower pressure of the target sequence."""
    if system.dim != 2:
        raise InputError("alpha_hat needs d = 2")
    targets.validate(system.ell)
    return _TargetData(system, targets).alpha(s)


@dataclass(frozen=True)
class BetaEstimate:
    value: float
    explicit: bool
    tail_start: int | None = None
    warnings: tuple[str, ...] = ()


def beta_hat(psi_table=None, beta: float | None = None,
             tail_start: int | None = None) -> BetaEstimate:
    """Tail-minimum proxy for liminf psi(n)/n, or a passthrough explicit beta."""
    if beta is not None:
        if beta < 0:
            raise InputError("beta must be nonnegative")
        warn = () if beta < 1 else ("recurrence dimension needs beta < 1",)
        return BetaEstimate(value=float(beta), explicit=True, warnings=warn)
    if not psi_table:
        raise InputError("provide either a psi table or an explicit beta")
    pairs = sorted((int(n), float(v)) for n, v in psi_table)
    if any(n <= 0 for n, _ in pairs):
        raise InputError("psi table needs positive n")
    if tail_start is None:
        tail_start = pairs[max(0, len(pairs) // 2)][0]
    tail = [(n, v) for n, v in pairs if n >= tail_start]
    if not tail:
        raise InputError("tail_start leaves an empty tail")
    ratios = [v / n for n, v in tail]
    value = min(ratios)
    warnings = []
    n_hi = pairs[-1][0]
    quart = [v / n for n, v in pairs if n >= n_hi - (n_hi - pairs[0][0]) / 4]
    if len(quart) >= 2 and max(quart) - min(quart) > 0.01:
        warnings.append("liminf proxy unstable: last-quartile spread above 0.01")
    if value >= 1:
        warnings.append("recurrence dimension needs beta < 1")
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


def _dimension_root(kind: str, system: GeneratorSystem, n: int, k_qm: int, upper, lower, *,
                    seed: int, budget: int, details: dict, warnings=(),
                    late_warnings=lambda: []) -> DimensionReport:
    """Bracket a root between the upper and lower pressure ends, clamped at 2.

    `upper(data, s)` and `lower(data, s, qm)` are decreasing in s; the lower
    end needs a positive QM input and is -inf (root 0) without one. The
    interval is outward: the left end of the lower curve's bracket and the
    right end of the upper curve's. `late_warnings()` runs after both searches.
    """
    hyp = check_hypotheses(system, "corollary_4_3", seed=seed, budget=budget)
    data = _LevelData(system, n, budget=budget)
    qm_input, qm_desc = qm_source(system, k_qm, budget=budget)

    def g_lo(s: float) -> float:
        qm = qm_input(s, "sv_s")
        return -math.inf if qm is None else lower(data, s, qm)

    def search(g):
        passes = data.passes
        a, b, tag, counts = _root_bracket(g, 0.0, S_MAX)
        return a, b, tag, {"passes": data.passes - passes, **counts}

    _, s_hi, b_hi, up_counts = search(lambda s: upper(data, s))
    s_lo, _, b_lo, lo_counts = search(g_lo)
    warnings = list(warnings) + late_warnings()
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
                *, seed: int = 42, budget: int = DEFAULT_BUDGET) -> DimensionReport:
    """Interval for s0 = inf{s > 0 : P(s) <= alpha(s)}, clamped at 2."""
    if system.dim != 2:
        raise InputError("shrinking-target dimension needs d = 2")
    warnings = targets.validate(system.ell)
    tdata = _TargetData(system, targets)
    p_samples: list[tuple[float, float]] = []
    a_samples: list[tuple[float, float]] = []

    def upper(data: _LevelData, s: float) -> float:
        up = data.log_z(PotentialSpec("sv_s", s)) / n
        al = tdata.alpha(s)
        p_samples.append((s, up))
        a_samples.append((s, al))
        return up - al

    def lower(data: _LevelData, s: float, qm: QMInput) -> float:
        lz = data.log_z(PotentialSpec("sv_s", s))
        return (lz + math.log(qm.C)) / (n + qm.k) - tdata.alpha(s)

    def monotone_warnings() -> list[str]:
        return (_monotone_warnings(p_samples, "upper pressure", decreasing=True)
                + _monotone_warnings(a_samples, "alpha proxy", decreasing=False))

    return _dimension_root(
        "shrinking_target", system, n, k_qm, upper, lower, seed=seed, budget=budget,
        warnings=warnings, late_warnings=monotone_warnings,
        details={"tail_start": targets.tail_start,
                 "targets": [word_str(w, system.ell) for w in targets.words],
                 "proxy": "tail minimum of -(1/|J_k|) log phi^s(A_{J_k})"})


def r0_interval(system: GeneratorSystem, beta: float, n: int, k_qm: int, *,
                seed: int = 42, budget: int = DEFAULT_BUDGET) -> DimensionReport:
    """Interval for the root of (1 - beta) P(r) = beta P2(r), clamped at 2."""
    if system.dim != 2:
        raise InputError("recurrence dimension needs d = 2")
    if not 0.0 <= beta < 1.0:
        raise InputError("beta must lie in [0, 1)")

    def upper(data: _LevelData, r: float) -> float:
        # max of h: upper P, lower P2 (the always-valid subadditive end)
        up_p = data.log_z(PotentialSpec("sv_s", r)) / n
        p2_lo = -data.log_z(PotentialSpec("sv_s_squared", r)) / n
        return (1.0 - beta) * up_p - beta * p2_lo

    def lower(data: _LevelData, r: float, qm: QMInput) -> float:
        lz = data.log_z(PotentialSpec("sv_s", r))
        lo_p = (lz + math.log(qm.C)) / (n + qm.k)
        lq = data.log_z(PotentialSpec("sv_s_squared", r))
        p2_up = -(lq + 2.0 * math.log(qm.C)) / (n + qm.k)
        return (1.0 - beta) * lo_p - beta * p2_up

    return _dimension_root("recurrence", system, n, k_qm, upper, lower, seed=seed,
                           budget=budget, details={"beta": beta})


def affinity_dimension(system: GeneratorSystem, n: int, k_qm: int, *, seed: int = 42,
                       budget: int = DEFAULT_BUDGET) -> DimensionReport:
    """Interval for the root of P(s) = 0 (candidate attractor dimension)."""
    if system.dim != 2:
        raise InputError("affinity dimension needs d = 2")

    def upper(data: _LevelData, s: float) -> float:
        return data.log_z(PotentialSpec("sv_s", s)) / n

    def lower(data: _LevelData, s: float, qm: QMInput) -> float:
        return (data.log_z(PotentialSpec("sv_s", s)) + math.log(qm.C)) / (n + qm.k)

    return _dimension_root("affinity", system, n, k_qm, upper, lower, seed=seed,
                           budget=budget, details={})
