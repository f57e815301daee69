import math
from fractions import Fraction

import numpy as np

from cocyclespan import GeneratorSystem
from cocyclespan.errors import InputError
from cocyclespan.gibbs import _lse
from cocyclespan.hypotheses import _algebra_closure, _structure_verdict
from cocyclespan.kernels import dense_products
from cocyclespan.linalg import canonical_sign
from cocyclespan.spannability import (INCONCLUSIVE, NOT_SPANNABLE, SPANNABLE, TAU_SPAN,
                                      SpannabilityCertificate, _project_descend)
from cocyclespan.thermo import _TargetData, _log_phi
from cocyclespan.wordspace import word_unrank

# a 3x3 system, for the checks that reject d != 2 before any work
D3 = GeneratorSystem((np.diag([1.0, 2.0, 3.0]),))


def random_2x2_system(rng, ell=2):
    """Generic invertible pair with standard normal entries."""
    while True:
        mats = tuple(rng.standard_normal((2, 2)) for _ in range(ell))
        try:
            return GeneratorSystem(mats)
        except InputError:
            continue


def random_integer_unimodular(rng):
    """Product of integer shears: exactly invertible over the integers."""
    P = np.eye(2)
    for _ in range(int(rng.integers(1, 4))):
        a = float(rng.integers(-3, 4))
        if rng.integers(2):
            P = P @ np.array([[1.0, a], [0.0, 1.0]])
        else:
            P = P @ np.array([[1.0, 0.0], [a, 1.0]])
    return P


def random_reducible_system(rng, ell=2):
    """Integer-conjugated upper triangular tuple: exact common invariant line."""
    P = random_integer_unimodular(rng)
    Pinv = np.round(np.linalg.inv(P))  # unimodular: integer inverse
    mats = []
    for _ in range(ell):
        diag = [float(rng.integers(1, 5)), float(rng.integers(1, 5))]
        upper = np.array([[diag[0], float(rng.integers(-3, 4))], [0.0, diag[1]]])
        mats.append(P @ upper @ Pinv)
    return GeneratorSystem(tuple(mats))


# Reference paths and oracles that no command reaches, for cross-checks.

def f_oracle(system, k, us):
    """f(u) = min over unit w of |P(w u^T)|_F^2 at each row u of `us` (d = 2),
    with P the projection onto the span of the ell^k word products, read off
    their SVD rather than the M_k sweep: |P(w u^T)|_F^2 = w^T G(u) w, where
    column c of E(u) is e_c (x) u, the ravelled e_c u^T, and G(u) = E(u)^T P E(u)."""
    words = dense_products(system.stacked(), k).reshape(-1, 4)
    V = np.linalg.svd(words)[2][:np.linalg.matrix_rank(words)]
    E = np.einsum("ac,ub->uabc", np.eye(2), us).reshape(len(us), 4, 2)
    return np.linalg.eigvalsh(np.swapaxes(E, 1, 2) @ (V.T @ V) @ E)[:, 0]


def sampled_min_f(system, k):
    """min of `f_oracle` over 2 * 10^4 angles of [0, pi), then twice over 2001
    angles within one step of the best so far."""
    step = np.pi / 20_000
    th = step * np.arange(20_000)
    for _ in range(2):
        f = f_oracle(system, k, np.stack([np.cos(th), np.sin(th)], axis=1))
        best = th[np.argmin(f)]
        th = best + np.linspace(-step, step, 2001)
    last = f_oracle(system, k, np.stack([np.cos(th), np.sin(th)], axis=1))
    return float(min(f.min(), last.min()))


def oracle_status(system, k):
    """The d = 2 spannability status of M_k from the dense circle oracle alone,
    for the exact path to be checked against: Spannable when the sampled min f
    is above TAU_SPAN."""
    return SPANNABLE if sampled_min_f(system, k) > TAU_SPAN else NOT_SPANNABLE


def seeded_multistart_certificate(system, mk, seed=42):
    """The d >= 4 certificate of M_k as the seeded multistart built it: 64
    starts drawn one at a time from rng(seed), for the fixed start set of
    `_numeric_certificate` to be checked against."""
    d = system.dim
    B = mk.basis
    rng = np.random.default_rng(seed)
    f_star, u_star = np.inf, None
    for _ in range(64):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        f, u = _project_descend(B, u)
        if f < f_star:
            f_star, u_star = f, u
    cert = -np.inf
    notes = ["d >= 4: multistart search only, no certificate"]
    if f_star <= TAU_SPAN:
        u_star = canonical_sign(u_star)
        return SpannabilityCertificate(
            k=mk.k, status=NOT_SPANNABLE, margin=0.0, exact=False,
            method="numeric_minimizer", witness=u_star, witness_residual=float(f_star),
            notes=tuple(notes))
    return SpannabilityCertificate(
        k=mk.k, status=INCONCLUSIVE, margin=max(float(cert), 0.0), exact=False,
        method="numeric", notes=tuple(notes) + (
            f"minimum {f_star:.3e} above tau but no certificate (floor {cert:.3e})",))


def algebra_structure_verdict(system):
    """The irreducibility verdict of the d >= 3 cascade at any d, the algebra
    closure and then its radical and commutant, for the exact d = 2 path to
    be checked against."""
    return _structure_verdict(system, *_algebra_closure(system))


def potential_value(A, spec):
    """The potential of a single matrix: |A|^s, or phi^s (squared for `sv_s_squared`) of a 2x2 A."""
    A = np.asarray(A, dtype=float)
    if spec.kind != "norm_s" and A.shape != (2, 2):
        raise InputError(f"{spec.kind} is defined for 2x2 matrices only")
    sv = np.linalg.svd(A, compute_uv=False)
    l1 = math.log(sv[0])
    if spec.kind == "norm_s":
        return math.exp(spec.s * l1)
    l2 = math.log(sv[-1])
    val = _log_phi(np.array([l1]), np.array([l2]), spec.s)[0]
    return math.exp(2.0 * val if spec.kind == "sv_s_squared" else val)


def alpha_hat(system, targets, s):
    """Tail-minimum proxy of the inverse lower pressure of the target sequence (d = 2)."""
    targets.validate(system.ell)
    return _TargetData(system, targets).alpha(s)


def rational(mk):
    """The echelon basis of M_k over Q as d x d Fraction matrices, same span;
    None for an inexact system."""
    if mk.rows is None:
        return None
    d = mk.d
    return tuple([[Fraction(n, den) for n in nums[i:i + d]] for i in range(0, d * d, d)]
                 for _, nums, den in mk.rows)


def psi_sup(lev, ell, L, gap, absolute=True):
    """The psi-mixing sup and its worst pair, each prefix mass folded afresh for
    every pair that reads it, for `gibbs._psi_sup` to be checked against."""
    sup = -math.inf
    worst = None
    for li in range(1, L + 1):
        for lj in range(1, L + 1):
            N = li + gap + lj
            big, z = lev[N]
            cube = big.reshape(ell**li, ell**gap, ell**lj)
            num = _lse(cube, axis=1)                       # (NI, NJ)
            mu_i = _lse(big.reshape(ell**li, -1), axis=1)  # prefix-I masses
            mu_j = _lse(big.reshape(ell**lj, -1), axis=1)  # prefix-J masses
            ratio = np.exp(num + z - mu_i[:, None] - mu_j[None, :])
            vals = np.abs(ratio - 1.0) if absolute else -ratio
            idx = int(np.argmax(vals))
            if float(vals.flat[idx]) > sup:
                sup = float(vals.flat[idx])
                bi, bj = divmod(idx, ell**lj)
                worst = (word_unrank(bi, ell, li), word_unrank(bj, ell, lj))
    return sup, worst
