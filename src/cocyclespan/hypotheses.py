"""Irreducibility verdicts, power/wedge cocycles, and hypothesis checkers.

The decision cascade for a verdict:

* d = 2: exact path. A 2x2 tuple is reducible iff the line quadratics
  det(u | A_i u) share a real projective root; decided in Python ints, on the
  generators times one power of two (tolerance-based float twin, on float
  quadratics, for systems flagged inexact).
* any d: if the unital algebra generated by the tuple has dimension d^2 there
  is no invariant subspace even over C (Burnside), hence none over R.
* any d: randomized falsification; orbit spans seeded at real eigenvectors of
  short products. Finding a low-dimensional invariant orbit span certifies
  reducibility; not finding one leaves the verdict Inconclusive for d >= 3.

theorem_1_1 asks this of every power cocycle A^t, t | d, and every wedge
cocycle wedge^m A, 1 <= m < d. Its d >= 3 algebras are nested, so a closure
whose answer is already known is skipped. "Full" means that the algebra of an
n-dimensional cocycle is all of M_n. Rules (a)-(c) hold over any field:

(a) s | t: a length-t product is a product of length-s products, so
    Alg(A^t) ⊆ Alg(A^s). t = d is decided first; if full, every power is.
    Else t = 1 is; if it is not full, no power is. Only then is another t
    (t = 2 at d = 4) decided.
(b) wedge^{d-1} A_i = det(A_i) P A_i^{-T} P^{-1} for one signed permutation P;
    A_i^{-1} lies in Alg(A) (Cayley-Hamilton) and transposing keeps an
    algebra's dimension, so wedge m = d - 1 takes t = 1's answer.
(c) a witness W of dimension p for A gives every wedge^m A, 1 < m < d, the
    invariant subspace wedge^m W (m <= p) or W ∧ wedge^{m-p} R^d (m > p), so
    none of these is full. A subspace invariant under every A_i is invariant
    under every product, so W serves every power as well.
(d) `power_system(A, 1)` is A itself, as is `wedge_system(A, 1)`: wedge m = 1
    is power t = 1's cocycle and takes its verdict.
(e) the algebra closure reads only a rank, so each level's images are one
    stacked product of every generator with every basis matrix.

An implied full algebra gives what its closure would: IrreducibleCertified by
`algebra_dimension`, residual n^2. Every other check whose algebra is not
full, power t = d's included, is decided after t = 1: when t = 1 has a
witness W, rules (a) and (c) build that check's witness from W, and it is
reported (method `t1_witness`) if its invariance residual on the check's own
cocycle is at most WITNESS_TOL; otherwise, and when t = 1 has no witness, the
seeded orbit search runs as on the cocycle alone. Closures per theorem_1_1
op, against 3 at d = 3 and 5 at d = 4 without the rules: 1 at d = 3
irreducible (t = 3), 2 at d = 3 reducible (t = 3, t = 1), 2 at d = 4
irreducible (t = 4, m = 2) and 2 at d = 4 reducible (t = 4, t = 1). Orbit
searches per reducible op fall from 3 at d = 3 and 5 at d = 4 to 1, t = 1's.
`SubCheck.implied_by` names the check whose closure decided an implied one,
and `SubCheck.witness_from` the check whose witness a built one came from.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError
from .kernels import dense_products
from .linalg import (SubspaceBasis, invariance_residual, span_basis, stack_images,
                     wedge_index_sets, wedge_power)
from .rational2 import _times, common_root_line, integer_matrices
from .systems import GeneratorSystem, _DerivedSystem
from .wordspace import DEFAULT_BUDGET, check_sweep, product

IRREDUCIBLE = "IrreducibleCertified"
REDUCIBLE = "ReducibleWitness"
INCONCLUSIVE = "Inconclusive"

WITNESS_TOL = 1e-8


@dataclass(frozen=True)
class IrreducibilityVerdict:
    status: str
    method: str
    witness: SubspaceBasis | None = None
    residual: float = 0.0
    notes: tuple[str, ...] = ()
    # effort, left out of reports: image levels of the algebra test and words
    # drawn by the random-orbit search
    algebra_levels: int = field(default=0, repr=False, compare=False)
    orbit_tries: int = field(default=0, repr=False, compare=False)

    @property
    def reducible(self) -> bool:
        return self.status == REDUCIBLE


def power_system(system: GeneratorSystem, t: int, *, budget: int = DEFAULT_BUDGET) -> GeneratorSystem:
    """The cocycle generated by all length-t products, in lexicographic word order;
    t = 1 gives the system itself.

    Floats round a product wider than 53 bits, so a power of an exact d = 2
    system also keeps its products in Python ints (`_integer_stack`), which
    its exact verdict decides; the float products serve the witness residual.
    """
    if t < 1:
        raise InputError("power exponent must be >= 1")
    check_sweep(system.ell, t, budget)
    if t == 1:
        return system
    power = _DerivedSystem(tuple(dense_products(system.stacked(), t)), exact=system.exact)
    if system.exact and system.dim == 2:
        mats, scale = _integer_stack(system)
        prods = mats
        for _ in range(t - 1):  # words w + (j,) in lexicographic order: A_j times w's product
            prods = [_times(A, P, 2) for P in prods for A in mats]
        object.__setattr__(power, "_integers", (prods, scale ** t))
    return power


def _integer_stack(system: GeneratorSystem) -> tuple[list[list[int]], int]:
    """An exact d = 2 system's generators as integer matrices over one scale,
    as `integer_matrices` gives them: a power's exact products, else those of
    its stored doubles."""
    return getattr(system, "_integers", None) or integer_matrices(system.stacked())


def wedge_system(system: GeneratorSystem, m: int) -> GeneratorSystem:
    """Generators replaced by their m-th compound matrices."""
    if m == 1:
        return system
    return _DerivedSystem(tuple(wedge_power(A, m) for A in system.generators), exact=False)


def _span_closure(G: np.ndarray, start: np.ndarray, images=stack_images) -> tuple[SubspaceBasis, int]:
    """(span, levels): the smallest subspace containing `start` that every
    generator of the stack G maps into itself, `start` a vector or a d x d
    matrix (raveled in the span). Each level adds every generator's image of
    each basis element, `images(G, elements)` in generator-major order, and
    the loop stops when the span is full or stops growing: a span that one
    level leaves unchanged is invariant.
    """
    n = start.size
    basis = span_basis([start.ravel()], ambient=n)
    levels = 0
    while basis.dim < n:
        levels += 1
        imgs = images(G, basis.basis.T.reshape(-1, *start.shape)).reshape(-1, n)
        new = span_basis(np.concatenate([basis.basis.T, imgs]), ambient=n)
        if new.dim == basis.dim:
            break
        basis = new
    return basis, levels


def orbit_span(system: GeneratorSystem, v) -> SubspaceBasis:
    """Smallest subspace containing v invariant under every generator.

    The dimension grows by at least one per level until it stabilizes, so
    words of length <= d-1 suffice.
    """
    v = np.asarray(v, dtype=float).ravel()
    if np.linalg.norm(v) == 0:
        raise InputError("orbit span needs a nonzero vector")
    return _span_closure(system.stacked(), v)[0]


@dataclass(frozen=True)
class AlgebraDimension:
    dim: int
    certified: bool  # True iff dim == d^2, a sufficient irreducibility certificate
    levels: int = field(default=0, repr=False, compare=False)  # image levels formed


def algebra_dimension(system: GeneratorSystem) -> AlgebraDimension:
    """Dimension of the span of {A_I} with the identity, by incremental rank growth.

    The level-j span equals span of all words of length <= j plus the identity
    (at most d^2 growing levels). Only the rank is read, so a level's images
    are one stacked product of every generator with every basis matrix.
    """
    d = system.dim
    basis, levels = _span_closure(system.stacked(), np.eye(d), lambda G, B: G[:, None] @ B)
    return AlgebraDimension(dim=basis.dim, certified=basis.dim == d * d, levels=levels)


def _witness_from_line(system: GeneratorSystem, u: np.ndarray, method: str) -> IrreducibilityVerdict:
    W = span_basis([u], ambient=system.dim)
    res = invariance_residual(system.stacked(), W)
    if res > WITNESS_TOL:
        return IrreducibilityVerdict(
            status=INCONCLUSIVE, method=method, residual=res,
            notes=(f"candidate line failed invariance check ({res:.2e})",))
    return IrreducibilityVerdict(status=REDUCIBLE, method=method, witness=W, residual=res)


def _verdict_d2(system: GeneratorSystem) -> IrreducibilityVerdict:
    # det(u | A u) = c x^2 + (d - a) x y - b y^2 for u = (x, y): for an exact
    # system in integers, the entries times one power of two; else in floats,
    # where d - a is correctly rounded, as float() of the exact value
    if system.exact:
        mats, scale = _integer_stack(system)
        scales = [scale] * len(mats)
    else:
        mats, scales = system.stacked().reshape(-1, 4).tolist(), None
    quads = [(c, d - a, -b) for a, b, c, d in mats]
    u, method = common_root_line(quads, system.exact, scales)
    if u is None:
        return IrreducibilityVerdict(status=IRREDUCIBLE, method=method)
    return _witness_from_line(system, u, method)


def _real_eigenvectors(M: np.ndarray) -> list[np.ndarray]:
    vals, vecs = np.linalg.eig(M)
    out = []
    for i, lam in enumerate(vals):
        if abs(lam.imag) <= 1e-10 * max(1.0, abs(lam)):
            v = vecs[:, i].real
            nrm = np.linalg.norm(v)
            if nrm > 1e-12:
                out.append(v / nrm)
    return out


def _verdict_randomized(system: GeneratorSystem, seed: int) -> IrreducibilityVerdict:
    rng = np.random.default_rng(seed)
    d = system.dim
    for tries in range(1, 65):
        length = int(rng.integers(1, d + 1))
        word = tuple(int(s) for s in rng.integers(1, system.ell + 1, size=length))
        seeds = _real_eigenvectors(product(system, word).unit)
        if not seeds:
            v = rng.standard_normal(d)
            seeds = [v / np.linalg.norm(v)]
        for v in seeds:
            W = orbit_span(system, v)
            if 0 < W.dim < d:
                res = invariance_residual(system.stacked(), W)
                if res <= WITNESS_TOL:
                    return IrreducibilityVerdict(status=REDUCIBLE, method="random_orbit",
                                                 witness=W, residual=res, orbit_tries=tries)
    return IrreducibilityVerdict(status=INCONCLUSIVE, method="random_orbit",
                                 notes=("no invariant subspace found",), orbit_tries=tries)


def irreducibility_verdict(system: GeneratorSystem, *, seed: int = 42) -> IrreducibilityVerdict:
    """The verdict of the cascade in the module docstring: the exact path at
    d = 2, else the algebra test and then the seeded orbit search."""
    if system.dim == 2:
        return _verdict_d2(system)
    alg = algebra_dimension(system)
    if alg.certified:
        return _full_verdict(system, alg.levels)
    return replace(_verdict_randomized(system, seed), algebra_levels=alg.levels)


def _full_verdict(system: GeneratorSystem, levels: int) -> IrreducibilityVerdict:
    """The verdict of an algebra that is all of M_n, found by a closure of
    `levels` levels or, with 0, implied by another cocycle's (`_theorem_rules`)."""
    return IrreducibilityVerdict(status=IRREDUCIBLE, method="algebra_dimension",
                                 residual=float(system.dim ** 2), algebra_levels=levels)


def _t1_witness(label: str, sub: GeneratorSystem, W: SubspaceBasis) -> IrreducibilityVerdict | None:
    """The ReducibleWitness that power t=1's witness W gives the cocycle
    `label`, built by rule (a) or (c) of the module docstring, or None when
    its invariance residual on that cocycle's stack is above WITNESS_TOL.

    A power keeps W. Wedge m takes the columns of the m-th compound of an
    orthonormal Q = [W | W-perp] whose index sets lie in the first p = dim W
    indices (wedge^m W, m <= p) or contain them (W ^ wedge^{m-p} R^d, m > p):
    a compound of an orthogonal matrix is orthogonal (Cauchy-Binet), so they
    are orthonormal as they stand.
    """
    d, p = W.ambient, W.dim
    if label.startswith("power"):
        note = f"rule (a): W, the dim-{p} witness of power t=1"
    else:
        m = int(label.rpartition("=")[2])
        Q = np.linalg.svd(W.basis)[0]
        Q[:, :p] = W.basis
        sets = wedge_index_sets(d, m)
        cols = [i for i, S in enumerate(sets) if (S[-1] < p if m <= p else S[:p] == tuple(range(p)))]
        basis = wedge_power(Q, m)[:, cols]
        W = SubspaceBasis(ambient=len(sets), dim=len(cols), basis=basis)
        span = f"wedge^{m} W" if m <= p else f"W ^ wedge^{m - p} R^{d}"
        note = f"rule (c): {span}, W the dim-{p} witness of power t=1"
    res = invariance_residual(sub.stacked(), W)
    if res > WITNESS_TOL:
        return None
    return IrreducibilityVerdict(status=REDUCIBLE, method="t1_witness", witness=W,
                                 residual=res, notes=(note,))


@dataclass(frozen=True)
class SubCheck:
    label: str
    verdict: IrreducibilityVerdict | None = None
    passed: bool = True
    detail: str = ""
    # time spent deciding, left out of reports; a cocycle already decided
    # under another label (wedge m=1 is power t=1) spends next to none
    seconds: float = field(default=0.0, repr=False, compare=False)
    # the check whose algebra closure decided this one's algebra test, when
    # this one ran none (then its verdict's algebra_levels is 0); left out of reports
    implied_by: str | None = field(default=None, repr=False, compare=False)
    # the check whose witness this one's was built from (then its verdict's
    # orbit_tries is 0); left out of reports
    witness_from: str | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class HypothesisReport:
    mode: str
    overall: str  # Pass | Fail | Inconclusive
    checks: tuple[SubCheck, ...]
    warnings: tuple[str, ...] = ()
    witness: SubspaceBasis | None = None
    failed_at: str | None = None


def _divisors(d: int) -> list[int]:
    return [t for t in range(1, d + 1) if d % t == 0]


def _theorem_rules(d: int) -> dict[str, list[tuple[str, tuple[str, ...], bool]]]:
    """Rules (a)-(c) of the module docstring for theorem_1_1, as
    label -> [(source, statuses, full)]: once the check `source` is decided
    with a status in `statuses`, whether the label's algebra is full is
    `full`. At d >= 3 a verdict is IrreducibleCertified exactly when its
    cocycle's algebra is full; d = 2 verdicts come from the exact path, and
    there are no rules."""
    if d == 2:
        return {}
    divisors = _divisors(d)
    full, not_full = (IRREDUCIBLE,), (REDUCIBLE, INCONCLUSIVE)
    rules = {f"power t={t}": [(f"power t={s}", full, True) for s in divisors if s > t and s % t == 0]
             + [(f"power t={s}", not_full, False) for s in divisors if s < t and t % s == 0]
             for t in divisors}
    rules[f"wedge m={d - 1}"] = [("power t=1", full, True), ("power t=1", not_full, False)]
    rules.update({f"wedge m={m}": [("power t=1", (REDUCIBLE,), False)] for m in range(2, d - 1)})
    return rules


def _closure_label(check: SubCheck) -> str | None:
    """The check whose closure decided this check's algebra test; None without one (d = 2)."""
    return check.implied_by or (check.label if check.verdict.algebra_levels else None)


def _verdict_checks(cocycles: list[tuple[str, GeneratorSystem]], seed: int,
                    rules: dict) -> dict[str, SubCheck]:
    """label -> irreducibility check of each (label, cocycle), decided in the
    order given; a cocycle listed twice is decided once. A label whose
    `rules` (see `_theorem_rules`) already fix its algebra skips the closure.

    With rules (theorem_1_1 at d >= 3), a label other than power t=1 whose
    algebra is not full is decided last: by a witness built from power t=1's
    (`_t1_witness`) when t = 1 has one, else, or when that witness fails its
    residual, by the seeded orbit search.
    """
    checks: dict[str, SubCheck] = {}
    first: dict[int, SubCheck] = {}
    waiting = []  # (label, cocycle, algebra levels, implied_by, seconds so far)

    def record(label, sub, v, by, seconds, witness_from=None):
        checks[label] = SubCheck(label=label, verdict=v, passed=not v.reducible, implied_by=by,
                                 witness_from=witness_from, seconds=seconds)
        first.setdefault(id(sub), checks[label])

    for label, sub in cocycles:
        start = time.perf_counter()
        if id(sub) in first:
            src = first[id(sub)]
            record(label, sub, replace(src.verdict, algebra_levels=0, orbit_tries=0),
                   _closure_label(src), time.perf_counter() - start)
            continue
        if not rules:
            record(label, sub, irreducibility_verdict(sub, seed=seed), None,
                   time.perf_counter() - start)
            continue
        hint = next(((checks[s], full) for s, statuses, full in rules.get(label, ())
                     if s in checks and checks[s].verdict.status in statuses), None)
        if hint is None:
            alg = algebra_dimension(sub)
            full, levels, by = alg.certified, alg.levels, None
        else:
            full, levels, by = hint[1], 0, _closure_label(hint[0])
        if full:
            v = _full_verdict(sub, levels)
        elif label == "power t=1":
            v = replace(_verdict_randomized(sub, seed), algebra_levels=levels)
        else:
            waiting.append((label, sub, levels, by, time.perf_counter() - start))
            continue
        record(label, sub, v, by, time.perf_counter() - start)

    t1 = checks["power t=1"].verdict if waiting else None
    for label, sub, levels, by, spent in waiting:
        start = time.perf_counter()
        v = _t1_witness(label, sub, t1.witness) if t1.reducible else None
        source = "power t=1" if v else None
        v = replace(v or _verdict_randomized(sub, seed), algebra_levels=levels)
        record(label, sub, v, by, spent + time.perf_counter() - start, source)
    return checks


def check_hypotheses(system: GeneratorSystem, mode: str, *, seed: int = 42,
                     budget: int = DEFAULT_BUDGET) -> HypothesisReport:
    """Hypothesis checkers for the spannability theorem and the dimension corollaries.

    theorem_1_1: the power cocycle for every divisor t of d and every wedge
    cocycle (m = 1..d-1) must be irreducible; at d >= 3 they are decided in
    the order t = d, t = 1, other t, then the wedges, and a closure whose
    answer is known is skipped (module docstring). corollary_4_3: d = 2, the tuple
    and its square irreducible, every generator norm < 1/2. The first failed
    check names the failure; otherwise any Inconclusive verdict makes the
    report Inconclusive.
    """
    warnings = []
    if mode == "theorem_1_1":
        d = system.dim
        divisors = _divisors(d)
        # every cocycle is built before any verdict, so the budget check and the
        # InputError of a wedge past MAX_DIM come first; wedge m=1 is power t=1
        powers = {t: power_system(system, t, budget=budget) for t in divisors}
        cocycles = [(f"power t={t}", powers[t]) for t in [d, 1] + divisors[1:-1]]
        cocycles += [(f"wedge m={m}", wedge_system(system, m)) for m in range(1, d)]
        decided = _verdict_checks(cocycles, seed, _theorem_rules(d))
        checks = [decided[f"power t={t}"] for t in divisors]
        checks += [decided[f"wedge m={m}"] for m in range(1, d)]
    elif mode == "corollary_4_3":
        if system.dim != 2:
            raise InputError("corollary_4_3 mode needs d = 2")
        if system.translations is None:
            warnings.append("translations absent: the dimension statement concerns "
                            "Lebesgue-a.e. translation vectors, matrix hypotheses only")
        checks = list(_verdict_checks([("irreducible cocycle", system),
                                       ("irreducible square", power_system(system, 2, budget=budget))],
                                      seed, {}).values())
        start = time.perf_counter()
        norms = system.norms()
        checks.append(SubCheck(label="norms < 1/2", passed=all(nv < 0.5 for nv in norms),
                               detail=", ".join(f"{nv:.6g}" for nv in norms),
                               seconds=time.perf_counter() - start))
    else:
        raise InputError(f"unknown hypothesis mode {mode!r}")

    failed = next((c for c in checks if not c.passed), None)
    if failed is not None:
        overall = "Fail"
    elif any(c.verdict is not None and c.verdict.status == INCONCLUSIVE for c in checks):
        overall = "Inconclusive"
    else:
        overall = "Pass"
    return HypothesisReport(mode=mode, overall=overall, checks=tuple(checks),
                            warnings=tuple(warnings),
                            witness=failed.verdict.witness if failed and failed.verdict else None,
                            failed_at=failed.label if failed else None)
