"""Irreducibility verdicts, power/wedge cocycles, and hypothesis checkers.

The decision cascade for a verdict:

* d = 2: exact path. A 2x2 tuple is reducible iff the line quadratics
  det(u | A_i u) share a real projective root; decided in Python ints, on the
  generators times one power of two (tolerance-based float twin, on float
  quadratics, for systems flagged inexact).
* n >= 3: one closure spans the unital algebra A of the n x n tuple. If
  dim A = n^2 there is no invariant subspace even over C (Burnside). Else
  A's structure decides, from the closure's basis:
  - the radical of A is the kernel of its trace form tr(xy) (characteristic
    0; Friedl & Rónyai, STOC 1985), a nilpotent ideal: when it is not 0,
    rad A · R^n is a proper invariant subspace (method `radical`); if that
    image fails the gate below, only a commutant kernel may replace it;
  - else A is semisimple, and R^n is irreducible iff the commutant C, the null
    space of the stacked kron(A_i, I) - kron(I, A_i^T), is a division algebra
    (Schur, Wedderburn-Artin; Lam, GTM 131), iff the trace form of its
    traceless part is negative definite: a nonzero traceless element of R, C
    or H squares to a negative multiple of I, and an idempotent e != 0, I of C
    gives X = e - (tr e / n) I with tr X^2 = tr e (1 - tr e / n) > 0;
  - else the form's top direction X has a reducible minimal polynomial (an
    irreducible one makes X = 0 or tr X^2 < 0), so for an eigenvalue λ of X,
    p(X) = X - λ I (λ real) or X^2 - 2 Re(λ) X + |λ|^2 I is nonzero, singular
    and commutes with every A_i: its kernel is a proper invariant subspace
    (`commutant_kernel`);
  - a division C is R, C or H, c = dim C = 1, 2 or 4, with A = End_C(R^n), so
    dim A · c = n^2, and c = 1 makes A full: c in {2, 4} with that count is
    IrreducibleCertified (`division_commutant`). Any other case means rounding
    went wrong: Inconclusive (`commutant`). Notes give dim A and dim rad A or c.

Every witness passes one gate (`_gated_witness`): its span is proper, with an
invariance residual at most WITNESS_TOL; else the verdict is Inconclusive and
a note names the failed check. No verdict is random or takes a seed.

theorem_1_1 asks this of every power cocycle A^t, t | d, and every wedge
cocycle wedge^m A, 1 <= m < d. Its d >= 3 algebras are nested, so a closure
whose answer is already known is skipped. "Full" means that the algebra of an
n-dimensional cocycle is all of M_n, which at d >= 3 a verdict says exactly
when its method is `algebra_dimension`. Rules (a)-(c) hold over any field:

(a) s | t: a length-t product is a product of length-s products, so
    Alg(A^t) ⊆ Alg(A^s). t = d is decided first; if full, every power is.
    Else t = 1 is; if it is not full, no power is. Only then is another t
    (t = 2 at d = 4) decided.
(b) wedge^{d-1} A_i = det(A_i) P A_i^{-T} P^{-1} for one signed permutation P;
    A_i^{-1} lies in Alg(A) (Cayley-Hamilton) and transposing keeps an
    algebra's dimension, so wedge m = d - 1 is full exactly when t = 1 is.
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
witness W, rules (a) and (c) build that check's witness from W (method
`t1_witness`), if it passes the gate on the check's own cocycle; otherwise
the check is decided as its cocycle alone, reusing its closure if it ran one.
`SubCheck.implied_by` names the check whose closure decided an implied one,
`SubCheck.witness_from` the check whose witness a built one came from.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError
from .kernels import dense_products
from .linalg import (RANK_TOL, SubspaceBasis, invariance_residual, null_space, span_basis,
                     wedge_index_sets, wedge_power)
from .rational2 import _times, common_root_line, integer_matrices
from .systems import GeneratorSystem, _DerivedSystem
from .wordspace import DEFAULT_BUDGET, check_sweep

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
    # effort, left out of reports: image levels of the algebra closure
    algebra_levels: int = field(default=0, repr=False, compare=False)

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


def _algebra_closure(system: GeneratorSystem) -> tuple[SubspaceBasis, int]:
    """(basis, levels): the unital algebra the generators span, its n x n
    matrices raveled. Each level adds every generator's product with each
    basis matrix, one stacked product `G[:, None] @ B` (rule (e)), and the
    loop stops when the span is full or stops growing: a span that one level
    leaves unchanged is closed under the generators, hence an algebra. The
    level-j span is that of all words of length <= j with the identity."""
    G, n = system.stacked(), system.dim
    basis = span_basis([np.eye(n).ravel()], ambient=n * n)
    levels = 0
    while basis.dim < n * n:
        levels += 1
        imgs = (G[:, None] @ basis.basis.T.reshape(-1, n, n)).reshape(-1, n * n)
        new = span_basis(np.concatenate([basis.basis.T, imgs]), ambient=n * n)
        if new.dim == basis.dim:
            break
        basis = new
    return basis, levels


@dataclass(frozen=True)
class AlgebraDimension:
    dim: int
    certified: bool  # True iff dim == d^2, a sufficient irreducibility certificate
    levels: int = field(default=0, repr=False, compare=False)  # image levels formed


def algebra_dimension(system: GeneratorSystem) -> AlgebraDimension:
    """Dimension of the unital algebra the generators span (`_algebra_closure`)."""
    basis, levels = _algebra_closure(system)
    return AlgebraDimension(dim=basis.dim, certified=basis.dim == system.dim ** 2, levels=levels)


def _gated_witness(system: GeneratorSystem, vectors, method: str, what: str,
                   notes: tuple[str, ...] = ()) -> IrreducibilityVerdict:
    """The span W of the candidate `vectors` as the ReducibleWitness of
    `system` when W is proper and its invariance residual is at most
    WITNESS_TOL; else Inconclusive, a last note naming the failed check (a
    trivial or full span fails it with residual inf)."""
    n = system.dim
    W = span_basis(vectors, ambient=n)
    res = invariance_residual(system.stacked(), W) if 0 < W.dim < n else math.inf
    if res > WITNESS_TOL:
        return IrreducibilityVerdict(status=INCONCLUSIVE, method=method, residual=res, notes=notes + (
            f"candidate {what} failed invariance check ({res:.2e})",))
    return IrreducibilityVerdict(status=REDUCIBLE, method=method, witness=W, residual=res, notes=notes)


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
    return _gated_witness(system, [u], method, "line")


def _trace_form(mats: np.ndarray, n: int) -> np.ndarray:
    """[tr(X_i X_j)] for the raveled n x n matrices X_i, the rows of `mats`."""
    return mats @ mats.reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, n * n).T


def _structure_verdict(system: GeneratorSystem, alg: SubspaceBasis, levels: int) -> IrreducibilityVerdict:
    """The verdict of the algebra A whose closure gave `alg` in `levels`
    levels: full, else from its trace-form radical and its commutant C."""
    n, k = system.dim, alg.dim
    if k == n * n:
        return _full_verdict(system, levels)
    radical = null_space(_trace_form(alg.basis.T, n))
    failed = None  # a radical image that failed the gate; a commutant kernel may pass it
    if len(radical):  # rad A · R^n: the columns of a basis of rad A
        rad = (radical @ alg.basis.T).reshape(-1, n, n)
        failed = _gated_witness(system, rad.transpose(0, 2, 1).reshape(-1, n), "radical",
                                "radical image", (f"dim A = {k}, dim rad A = {len(radical)}",))
        if failed.reducible:
            return replace(failed, algebra_levels=levels)
    G = system.stacked()
    G = G / np.linalg.norm(G, axis=(1, 2), keepdims=True)
    eye = np.eye(n)
    # vec(X), row-major, for X A_i = A_i X
    C = null_space(np.concatenate([np.kron(A, eye) - np.kron(eye, A.T) for A in G]))
    note = f"dim A = {k}, dim C = {len(C)}"
    # C's rows are orthonormal, so those orthogonal to the trace functional's
    # coefficients, C @ vec(I), combine them into an orthonormal basis of C_0
    traceless = null_space((C @ eye.ravel())[None]) @ C
    w, V = np.linalg.eigh(_trace_form(traceless, n))
    if w.size and w[-1] > -RANK_TOL * np.abs(w).max():  # C is not a division algebra
        X = (V[:, -1] @ traceless).reshape(n, n)
        lam = np.linalg.eigvals(X)[0]
        P = X - lam.real * eye if lam.imag == 0 else X @ X - 2 * lam.real * X + abs(lam) ** 2 * eye
        v = _gated_witness(system, null_space(P), "commutant_kernel", "commutant kernel", (note,))
    elif failed is None and len(C) in (2, 4) and k * len(C) == n * n:
        v = IrreducibilityVerdict(status=IRREDUCIBLE, method="division_commutant", notes=(note,))
    else:
        v = IrreducibilityVerdict(status=INCONCLUSIVE, method="commutant", notes=(
            f"{note}: neither a commutant kernel nor a division commutant with dim A · dim C = n^2",))
    return replace(v if v.reducible or failed is None else failed, algebra_levels=levels)


def irreducibility_verdict(system: GeneratorSystem) -> IrreducibilityVerdict:
    """The verdict of the cascade in the module docstring: the exact path at
    d = 2, else the algebra closure and its structure."""
    if system.dim == 2:
        return _verdict_d2(system)
    return _structure_verdict(system, *_algebra_closure(system))


def _full_verdict(system: GeneratorSystem, levels: int) -> IrreducibilityVerdict:
    """The verdict of an algebra that is all of M_n, found by a closure of
    `levels` levels or, with 0, implied by another cocycle's (`_theorem_rules`)."""
    return IrreducibilityVerdict(status=IRREDUCIBLE, method="algebra_dimension",
                                 residual=float(system.dim ** 2), algebra_levels=levels)


def _t1_witness(label: str, sub: GeneratorSystem, W: SubspaceBasis) -> IrreducibilityVerdict | None:
    """The ReducibleWitness that power t=1's witness W gives the cocycle
    `label` by rule (a) or (c), or None when it fails the gate there. A power
    keeps W. Wedge m takes the columns of the m-th compound of an orthonormal
    Q = [W | W-perp] whose index sets lie in the first p = dim W indices
    (wedge^m W, m <= p) or contain them (W ^ wedge^{m-p} R^d, m > p)."""
    d, p = W.ambient, W.dim
    if label.startswith("power"):
        vectors, note = W.basis.T, f"rule (a): W, the dim-{p} witness of power t=1"
    else:
        m = int(label.rpartition("=")[2])
        Q = np.linalg.svd(W.basis)[0]
        Q[:, :p] = W.basis
        cols = [i for i, S in enumerate(wedge_index_sets(d, m))
                if (S[-1] < p if m <= p else S[:p] == tuple(range(p)))]
        vectors = wedge_power(Q, m)[:, cols].T
        span = f"wedge^{m} W" if m <= p else f"W ^ wedge^{m - p} R^{d}"
        note = f"rule (c): {span}, W the dim-{p} witness of power t=1"
    v = _gated_witness(sub, vectors, "t1_witness", "built witness", (note,))
    return v if v.reducible else None


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
    # the check whose witness this one's was built from; left out of reports
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


def _fullness(v: IrreducibilityVerdict) -> str:
    """What a d >= 3 verdict says of its algebra: "full", else "reducible"
    (a witness) or "proper"."""
    return "full" if v.method == "algebra_dimension" else "reducible" if v.reducible else "proper"


def _theorem_rules(d: int) -> dict[str, list[tuple[str, tuple[str, ...], bool]]]:
    """Rules (a)-(c) of the module docstring for theorem_1_1, as
    label -> [(source, kinds, full)]: once the check `source` is decided and
    its `_fullness` is one of `kinds`, whether the label's algebra is full is
    `full`. d = 2 verdicts come from the exact path, and there are no rules."""
    if d == 2:
        return {}
    divisors = _divisors(d)
    full, not_full = ("full",), ("reducible", "proper")
    rules = {f"power t={t}": [(f"power t={s}", full, True) for s in divisors if s > t and s % t == 0]
             + [(f"power t={s}", not_full, False) for s in divisors if s < t and t % s == 0]
             for t in divisors}
    rules[f"wedge m={d - 1}"] = [("power t=1", full, True), ("power t=1", not_full, False)]
    rules.update({f"wedge m={m}": [("power t=1", ("reducible",), False)] for m in range(2, d - 1)})
    return rules


def _closure_label(check: SubCheck) -> str | None:
    """The check whose closure decided this check's algebra test; None without one (d = 2)."""
    return check.implied_by or (check.label if check.verdict.algebra_levels else None)


def _verdict_checks(cocycles: list[tuple[str, GeneratorSystem]], rules: dict) -> dict[str, SubCheck]:
    """label -> irreducibility check of each (label, cocycle), decided in the
    order given; a cocycle listed twice is decided once. A label whose
    `rules` (see `_theorem_rules`) already fix its algebra skips the closure.

    With rules (theorem_1_1 at d >= 3), a label other than power t=1 whose
    algebra is not full is decided last: by a witness built from power t=1's
    (`_t1_witness`) when t = 1 has one and it passes the gate, else from the
    structure of its algebra, whose closure runs then if it has not.
    """
    checks: dict[str, SubCheck] = {}
    first: dict[int, SubCheck] = {}
    waiting = []  # (label, cocycle, closure basis or None, levels, implied_by, seconds so far)

    def record(label, sub, v, by, seconds, witness_from=None):
        checks[label] = SubCheck(label=label, verdict=v, passed=not v.reducible, implied_by=by,
                                 witness_from=witness_from, seconds=seconds)
        first.setdefault(id(sub), checks[label])

    for label, sub in cocycles:
        start = time.perf_counter()
        if id(sub) in first:
            src = first[id(sub)]
            record(label, sub, replace(src.verdict, algebra_levels=0), _closure_label(src),
                   time.perf_counter() - start)
            continue
        if not rules:
            record(label, sub, irreducibility_verdict(sub), None, time.perf_counter() - start)
            continue
        hint = next(((checks[s], full) for s, kinds, full in rules.get(label, ())
                     if s in checks and _fullness(checks[s].verdict) in kinds), None)
        if hint is None:
            alg, levels = _algebra_closure(sub)
            full, by = alg.dim == sub.dim ** 2, None
        else:
            alg, levels, full, by = None, 0, hint[1], _closure_label(hint[0])
        if full:
            v = _full_verdict(sub, levels)
        elif label == "power t=1":
            v = _structure_verdict(sub, alg, levels)
        else:
            waiting.append((label, sub, alg, levels, by, time.perf_counter() - start))
            continue
        record(label, sub, v, by, time.perf_counter() - start)

    t1 = checks["power t=1"].verdict if waiting else None
    for label, sub, alg, levels, by, spent in waiting:
        start = time.perf_counter()
        v = _t1_witness(label, sub, t1.witness) if t1.reducible else None
        if v is not None:
            v, source = replace(v, algebra_levels=levels), "power t=1"
        elif alg is not None:
            v, source = _structure_verdict(sub, alg, levels), None
        else:  # its algebra was implied: decided as its cocycle alone
            v, source, by = irreducibility_verdict(sub), None, None
        record(label, sub, v, by, spent + time.perf_counter() - start, source)
    return checks


def check_hypotheses(system: GeneratorSystem, mode: str, *,
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
        decided = _verdict_checks(cocycles, _theorem_rules(d))
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
                                      {}).values())
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
