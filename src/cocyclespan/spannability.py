"""k-uniform spannability: M_k spans, certificates, minimal k, failure diagnosis.

Spannability of a word length k asks that the images {A_I u : |I| = k} span
R^d for every nonzero u. Testing goes through M_k = span{A_I : |I| = k}: the
image space V_{u,k} equals M_k u, which collapses ell^k images into at most
d^2 basis elements and turns "for all u" into a minimax over one sphere.

Every margin, at every d and k, bounds f(u) = min over unit w of
|P(w u^T)|_F^2 from below, P the orthogonal projection onto M_k:
sigma_d(stack of Q_j u)^2 for any orthonormal basis Q_j of M_k, so the
margin is a property of M_k, not of the basis picked. A saturated level has
f = 1 at every unit u (`_certify`); the d = 3 sphere takes the Lipschitz
branch and bound (`kernels.lipschitz_bnb`). A d = 2 level of dimension 2 or 3
has min f = min sigma_2(X)^2 over unit X in M_k^perp (`_d2_margin`): for unit
w and u, |P(w u^T)|_F^2 = 1 - max over unit X in M_k^perp of (w^T X u)^2, the
max over w and u of (w^T X u)^2 is sigma_1(X)^2, and sigma_1^2 + sigma_2^2 =
|X|_F^2 = 1. As sigma_1 sigma_2 = |det X|, sigma_2 grows with |det X|, a
quadratic form H = R J R^T / 2 in the coordinates c of X = c R over an
orthonormal basis R of M_k^perp (vec(X)^T J vec(X) = 2 det X). If H is not
definite, some unit X has det X = 0 and min f = 0; else the least |det X| is
H's least |eigenvalue|, at its eigenvector.

A d = 2 status is decided by a common root of the basis pair quadratics. Exact
decisions run in the Python ints of `rational2`, the M_k sweep and that common
root on an exact system's rational basis included. The d >= 4 multistart
descends from one fixed start set, so every certificate is a function of the
system alone.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .errors import ContractViolation, InputError
from .kernels import lipschitz_bnb
from .linalg import (SubspaceBasis, canonical_sign, null_space, span_basis, subspace_distance,
                     wedge_index_sets, wedge_power)
from .rational2 import (_RationalSpan, _orthonormal_float, _times, common_root_line,
                        integer_matrices, pair_quadratic)
from .systems import GeneratorSystem
from .wordspace import DEFAULT_BUDGET, check_budget

from .hypotheses import IrreducibilityVerdict, irreducibility_verdict, power_system

TAU_SPAN = 1e-8  # threshold on f(u) = sigma_d(stack of Q_j u)^2, Q_j orthonormal
RESOLUTION = 1e-3  # in the sphere's angles: minimizer slack eps = Lipschitz constant * resolution
SATURATED_NOTE = "margin: 1, as sum_j Q_j u u^T Q_j^T = |u|^2 I over an orthonormal basis Q_j"
COMPLEMENT_NOTE = "margin: min sigma_2(X)^2 over unit X in M_k^perp, at the least |det X|"
# vec(X)^T _DET_FORM vec(X) = 2 det X for a 2 x 2 matrix X ravelled by rows
_DET_FORM = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=float)

SPANNABLE = "Spannable"
NOT_SPANNABLE = "NotSpannable"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class MkBasis:
    """Orthonormal basis of M_k = span{A_I : |I| = k}, matrices as d^2-vectors."""

    k: int
    dim: int
    basis: np.ndarray  # (dim, d, d)
    # an exact system's integer echelon rows of M_k, as `rational2._RationalSpan` keeps them
    rows: tuple | None = field(default=None, repr=False)

    @property
    def d(self) -> int:
        return self.basis.shape[1]


def mk_bases(system: GeneratorSystem, k_max: int, *,
             budget: int = DEFAULT_BUDGET) -> Iterator[MkBasis]:
    """M_1..M_{k_max} from one pass: M_1 = span generators, M_{j+1} = span{A_i B : B in M_j}.

    Each level extends the echelon rows of the last, in integers: the
    generators scaled by one power of two (`integer_matrices`) span the same
    levels with the same rational rows. Once M_j is the whole matrix space
    the later levels repeat it. The whole sweep, ell d^2 products per level,
    is checked against the budget before the first level.
    """
    d = system.dim
    full = d * d
    check_budget(system.ell * full * k_max, budget)
    gens, _ = integer_matrices(system.stacked())
    mk = None
    for k in range(1, k_max + 1):
        if mk is not None and rat.rank == full:
            mk = replace(mk, k=k)
            yield mk
            continue
        if mk is None:
            vecs = gens
        else:
            vecs = [_times(A, nums, d) for A in gens for _, nums, _ in rat.rows]
        rat = _RationalSpan()
        for v in vecs:
            rat.add(v)
        floats = span_basis([A.ravel() for A in system.generators] if mk is None else
                            [np.array([n / den for n in nums]) for _, nums, den in rat.rows],
                            ambient=full)
        if floats.dim != rat.rank:
            # trust the exact rank: orthogonalise the rational rows over Q, then
            # normalise in float, so every one of the rat.rank directions survives
            floats = SubspaceBasis(ambient=full, dim=rat.rank,
                                   basis=_orthonormal_float([nums for _, nums, _ in rat.rows]))
        basis = np.stack([floats.basis[:, j].reshape(d, d) for j in range(floats.dim)])
        mk = MkBasis(k=k, dim=floats.dim, basis=basis,
                     rows=tuple(rat.rows) if system.exact else None)
        yield mk


def mk_basis(system: GeneratorSystem, k: int, *, budget: int = DEFAULT_BUDGET) -> MkBasis:
    """M_k, the last level of `mk_bases`."""
    if k < 1:
        raise InputError("k must be >= 1")
    *_, mk = mk_bases(system, k, budget=budget)
    return mk


@dataclass(frozen=True)
class SpannabilityCertificate:
    k: int
    status: str
    margin: float
    exact: bool
    method: str
    witness: np.ndarray | None = None
    witness_residual: float | None = None
    margin_certified: bool = False
    notes: tuple[str, ...] = ()

    @property
    def spannable(self) -> bool:
        return self.status == SPANNABLE


def _stack_f(B: np.ndarray, u: np.ndarray):
    """sigma_d(stack of B_j u)^2, for one unit u or for each row of an (N, d) array.

    Over an orthonormal basis B_j of M_k this is f(u) = min over unit w of
    sum_j (w^T B_j u)^2 = |P(w u^T)|_F^2, the same for every such basis.
    """
    img = np.einsum("rab,...b->...ra", B, u)
    return np.linalg.eigvalsh(np.swapaxes(img, -1, -2) @ img)[..., 0]


def _angles_to_unit(x: np.ndarray) -> np.ndarray:
    """Unit vectors from sphere angles (theta, phi)."""
    th, ph = x[..., 0], x[..., 1]
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)


def _numeric_certificate(system: GeneratorSystem, mk: MkBasis) -> SpannabilityCertificate:
    d = system.dim
    B = mk.basis
    if d == 3:
        # For fixed unit w, |P(w u^T)|_F^2 has gradient 2 P(w u^T)^T w in u, of
        # norm <= 2 |P(w u^T)|_F <= 2 |u|; a minimum over w keeps the bound. The
        # projective sphere is theta, phi in [0, pi], where
        # |du| <= |dtheta| + |dphi|: L = 2 in the angles.
        lip = 2.0
        eps = lip * RESOLUTION
        cert, x, evals, capped = lipschitz_bnb(
            lambda X: _stack_f(B, _angles_to_unit(X)), lip, np.zeros(2), np.full(2, np.pi),
            TAU_SPAN, eps)
        notes = [f"sphere minimum: Lipschitz branch and bound, L = {lip:.6g}, eps = {eps:.6g}, "
                 f"{evals} evaluations"]
        if capped:
            notes.append(f"branch and bound stopped at its cap of {kernels.BNB_MAX_EVALS} "
                         f"evaluations (kernels.BNB_MAX_EVALS) after {evals}")
        # a capped search may still hold a floor above tau, but not one within
        # eps of the minimum it was asked for, so it certifies nothing
        if cert > TAU_SPAN and not capped:
            return SpannabilityCertificate(
                k=mk.k, status=SPANNABLE, margin=cert, exact=False,
                method="bnb_certified", margin_certified=True, notes=tuple(notes))
        starts = [_angles_to_unit(x)]
    else:
        rng = np.random.default_rng(42)  # one fixed start set
        starts = [u / np.linalg.norm(u) for u in rng.standard_normal((64, d))]
        cert = -np.inf
        notes = ["d >= 4: multistart search only, no certificate"]
    f_star, u_star = min((_project_descend(B, u) for u in starts), key=lambda fu: fu[0])
    if f_star <= TAU_SPAN:
        return SpannabilityCertificate(
            k=mk.k, status=NOT_SPANNABLE, margin=0.0, exact=False,
            method="numeric_minimizer", witness=canonical_sign(u_star),
            witness_residual=float(f_star), notes=tuple(notes))
    return SpannabilityCertificate(
        k=mk.k, status=INCONCLUSIVE, margin=max(float(cert), 0.0), exact=False,
        method="numeric", notes=tuple(notes) + (
            f"minimum {f_star:.3e} above tau but no certificate (floor {cert:.3e})",))


def _project_descend(B: np.ndarray, u: np.ndarray) -> tuple[float, np.ndarray]:
    step = 0.1
    f = _stack_f(B, u)
    for _ in range(120):
        img = np.einsum("rab,b->ra", B, u)
        g = img.T @ img
        _, V = np.linalg.eigh(g)
        q = V[:, 0]
        # f(u) = min eigenvalue of sum (B_j u)(B_j u)^T; grad = 2 sum (q.B_j u) B_j^T q
        grad = 2.0 * np.einsum("r,rab,a->b", img @ q, B, q)
        cand = u - step * grad
        nrm = np.linalg.norm(cand)
        if nrm == 0:
            break
        cand /= nrm
        fc = _stack_f(B, cand)
        if fc < f:
            u, f = cand, fc
            step *= 1.2
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return f, u


def _deficit_certificate(mk: MkBasis, exact: bool) -> SpannabilityCertificate:
    """dim M_k < d: every M_k u lies in a subspace of dimension < d, so any u witnesses."""
    w = np.eye(mk.d)[:, 0]
    return SpannabilityCertificate(
        k=mk.k, status=NOT_SPANNABLE, margin=0.0, exact=exact,
        method="d2_exact" if exact else "rank_deficit",
        witness=w, witness_residual=float(_stack_f(mk.basis, w)),
        notes=(f"dim M_k = {mk.dim} < d",))


def _exact_certificate(mk: MkBasis) -> SpannabilityCertificate:
    """A d = 2 level of dimension 2 or 3: Spannable unless the pair quadratics
    det(B_i u | B_j u) of its basis share a root line u."""
    exact = mk.rows is not None
    # an exact system's root is decided in integers: the pair quadratic of rows
    # nums_i / den_i and nums_j / den_j, times den_i den_j
    mats = ([((nums[0], nums[1]), (nums[2], nums[3])) for _, nums, _ in mk.rows] if exact
            else mk.basis.tolist())
    pairs = [(i, j) for i in range(len(mats)) for j in range(i + 1, len(mats))]
    quads = [pair_quadratic(mats[i], mats[j]) for i, j in pairs]
    scales = [mk.rows[i][2] * mk.rows[j][2] for i, j in pairs] if exact else None
    u, method = common_root_line(quads, exact, scales)
    if u is not None:
        return SpannabilityCertificate(
            k=mk.k, status=NOT_SPANNABLE, margin=0.0, exact=exact, method=method,
            witness=u, witness_residual=float(_stack_f(mk.basis, u)))
    return SpannabilityCertificate(
        k=mk.k, status=SPANNABLE, margin=_d2_margin(mk), exact=exact, method=method,
        margin_certified=True, notes=(COMPLEMENT_NOTE,))


def _d2_margin(mk: MkBasis) -> float:
    """min f of a d = 2 level of dimension 2 or 3 (module docstring); at dimension
    3, X is the unit matrix spanning M_k^perp, up to sign."""
    R = null_space(mk.basis.reshape(mk.dim, 4))
    lam, C = np.linalg.eigh(0.5 * R @ _DET_FORM @ R.T)
    if lam[0] <= 0.0 <= lam[-1]:
        return 0.0
    X = C[:, np.argmin(np.abs(lam))] @ R
    # the SVD, not (1 - sqrt(1 - 4 det^2)) / 2, whose rounded radicand can be < 0
    return float(np.linalg.svd(X.reshape(2, 2), compute_uv=False)[1] ** 2)


def _certify(system: GeneratorSystem, mk: MkBasis) -> SpannabilityCertificate:
    """The certificate for one level M_k, as `spannable_at` describes it.

    At a saturated level the basis Q_j is orthonormal in all d x d matrices,
    so sum_j Q_j u u^T Q_j^T = |u|^2 I and f = 1 at every unit u.
    """
    d = system.dim
    if mk.dim == d * d:
        return SpannabilityCertificate(
            k=mk.k, status=SPANNABLE, margin=1.0, exact=False, method="full_algebra",
            margin_certified=True, notes=("M_k saturates the matrix space", SATURATED_NOTE))
    if mk.dim < d:
        return _deficit_certificate(mk, exact=d == 2)
    if d == 2:
        return _exact_certificate(mk)
    return _numeric_certificate(system, mk)


def spannable_at(system: GeneratorSystem, k: int, *,
                 budget: int = DEFAULT_BUDGET) -> SpannabilityCertificate:
    """Certificate for k-uniform spannability.

    A saturated M_k (dim d^2) is immediately spannable, with margin 1;
    otherwise the d = 2 polynomial path decides exactly, the certified sphere
    minimization handles d = 3 and a multistart search d >= 4.
    """
    return _certify(system, mk_basis(system, k, budget=budget))


@dataclass(frozen=True)
class SpannabilitySearch:
    found: int | None
    k_max: int
    certificates: tuple[SpannabilityCertificate, ...]
    levels: tuple[MkBasis, ...] = field(repr=False)  # M_1.. of the sweep, left out of reports

    @property
    def not_found(self) -> bool:
        return self.found is None

    @property
    def inconclusive_ks(self) -> tuple[int, ...]:
        return tuple(c.k for c in self.certificates if c.status == INCONCLUSIVE)


def minimal_spannable_k(system: GeneratorSystem, k_max: int, *,
                        budget: int = DEFAULT_BUDGET) -> SpannabilitySearch:
    """Least spannable k <= k_max over one `mk_bases` sweep; monotone, so the first success wins."""
    if k_max < 1:
        raise InputError("k_max must be >= 1")
    certs, levels = [], []
    for mk in mk_bases(system, k_max, budget=budget):
        cert = _certify(system, mk)
        certs.append(cert)
        levels.append(mk)
        if cert.spannable:
            break
    return SpannabilitySearch(found=mk.k if cert.spannable else None, k_max=k_max,
                              certificates=tuple(certs), levels=tuple(levels))


@dataclass(frozen=True)
class FailureDiagnosis:
    witness: np.ndarray
    dims: tuple[int, ...]
    chain: tuple[SubspaceBasis, ...]
    case: str  # PeriodicSubspaces | WedgeEigenStructure | Undetermined
    period: int | None = None
    span_w: SubspaceBasis | None = None
    cross_check: IrreducibilityVerdict | None = None
    cross_check_consistent: bool | None = None
    wedge_order: int | None = None
    wedge_pair: tuple[int, int] | None = None
    eigenvalues: tuple[complex, ...] = ()
    eigen_residual: float | None = None
    notes: tuple[str, ...] = ()


def _plucker(W: SubspaceBasis) -> np.ndarray:
    """Unit Plucker coordinates of W, for 0 < dim W < ambient."""
    out = np.array([np.linalg.det(W.basis[list(rows), :])
                    for rows in wedge_index_sets(W.ambient, W.dim)])
    nrm = np.linalg.norm(out)
    return out / nrm if nrm > 0 else out


def diagnose_failure(system: GeneratorSystem, search: SpannabilitySearch, *,
                     budget: int = DEFAULT_BUDGET) -> FailureDiagnosis:
    """Classify a persistent spannability failure along the two proof cases.

    `search` is the `minimal_spannable_k` result for `system`; its last
    NotSpannable witness u gives the chain V_k = M_k u, k = 1..search.k_max,
    read from the search's own M_k levels. Case 1 detects a periodic chain and
    cross-checks that the matching power cocycle is reducible; Case 2 exhibits
    the eigen-structure of a non-scalar wedge quotient acting on the chain.
    The classification is heuristic evidence, certified only where stated.
    """
    if not search.not_found:
        raise ContractViolation(f"system is spannable at k = {search.found}")
    witness = None
    for cert in reversed(search.certificates):
        if cert.status == NOT_SPANNABLE and cert.witness is not None:
            witness = np.asarray(cert.witness, dtype=float)
            break
    if witness is None:
        return FailureDiagnosis(
            witness=np.zeros(system.dim), dims=(), chain=(), case="Undetermined",
            notes=("no NotSpannable witness available (all checks inconclusive)",))

    k_max = search.k_max
    chain = [span_basis([M @ witness for M in mk.basis], ambient=system.dim)
             for mk in search.levels]
    dims = [V.dim for V in chain]

    # Case 1: V_{k+t} = V_k along the whole chain
    for t in range(1, k_max):
        ok = all(
            dims[k] == dims[k + t] and subspace_distance(chain[k], chain[k + t]) <= 1e-6
            for k in range(k_max - t)
        )
        if ok:
            vecs = []
            for V in chain[:t]:
                vecs.extend(V.basis[:, j] for j in range(V.dim))
            W = span_basis(vecs, ambient=system.dim)
            cross = irreducibility_verdict(power_system(system, t, budget=budget))
            return FailureDiagnosis(
                witness=witness, dims=tuple(dims), chain=tuple(chain),
                case="PeriodicSubspaces", period=t, span_w=W, cross_check=cross,
                cross_check_consistent=cross.reducible)

    # Case 2: stabilized dimension, eigen-structure of a non-scalar wedge quotient
    gamma = dims[-1]
    if len(dims) < 3 or dims[-2] != gamma or dims[-3] != gamma or not 0 < gamma < system.dim:
        return FailureDiagnosis(
            witness=witness, dims=tuple(dims), chain=tuple(chain), case="Undetermined",
            notes=("chain dimension did not stabilize below d",))
    stabilized = [V for V, dim in zip(chain, dims) if dim == gamma]
    wv = [_plucker(V) for V in stabilized]
    N = wv[0].size
    wedges = [wedge_power(A, gamma) for A in system.generators]
    pair = None
    B = None
    for i in range(system.ell):
        for j in range(system.ell):
            if i == j:
                continue
            cand = np.linalg.solve(wedges[i], wedges[j])
            dev = np.abs(cand - (np.trace(cand) / N) * np.eye(N)).max()
            if dev > 1e-9 * max(1.0, np.abs(cand).max()):
                pair, B = (i + 1, j + 1), cand
                break
        if pair:
            break
    if pair is None:
        return FailureDiagnosis(
            witness=witness, dims=tuple(dims), chain=tuple(chain), case="Undetermined",
            notes=("every wedge quotient is scalar",))
    vals = np.linalg.eigvals(B)
    resid = 0.0
    for w in wv:
        r = min(np.linalg.norm(B @ w - lam.real * w) for lam in vals)
        resid = max(resid, r)
    return FailureDiagnosis(
        witness=witness, dims=tuple(dims), chain=tuple(chain),
        case="WedgeEigenStructure", wedge_order=gamma, wedge_pair=pair,
        eigenvalues=tuple(complex(v) for v in vals), eigen_residual=float(resid))
