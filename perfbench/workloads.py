"""Workload definitions and the seeded generators of their op pools.

A workload is a list of slots. Each slot has a pool of CLI configs (JSON
text) generated once, from a fixed pool seed, by `make_reference.py`, which
also records the output of every pool op on the reference commit. A run of
the benchmark draws `pick` ops from every slot's pool with the run's
`--seed`, so the seed alone fixes the inputs, and every input it can
choose has a recorded reference to check against.

A pass never draws a pool entry twice and nearly every entry has a system
of its own, so a cache kept across ops in one process can hardly make a pass
faster than separate CLI invocations would be.
"""
from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

POOL_SEED = 20221025  # seed of the committed pools; run seeds only select from them


@dataclass(frozen=True)
class Slot:
    name: str
    pick: int          # ops drawn per pass
    pool: int          # ops generated into the pool
    make: Callable     # make(rng, index) -> config dict, or raw text for broken JSON


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[Slot, ...]


# ---------------------------------------------------------------------------
# number formatting: decimal strings are part of the input contract

def dyadic(x: float, denom: int = 64) -> str:
    """Nearest multiple of 1/denom; its decimal text is exact in binary."""
    v = round(x * denom) / denom
    return repr(v + 0.0)


def decimal(x: float, digits: int = 3) -> str:
    """Short decimal text; most such values are not exact binary fractions."""
    return f"{x:.{digits}f}"


def mat_strings(M: np.ndarray, fmt) -> list[str]:
    return [fmt(float(x)) for x in np.asarray(M).ravel()]


def rot(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def config(gens: list[list[str]], command: str | None, options: dict,
           translations=None) -> dict:
    d = int(round(math.sqrt(len(gens[0]))))
    system = {"dimension": d, "generators": gens}
    if translations is not None:
        system["translations"] = translations
    cfg = {"system": system, "options": options}
    if command is not None:
        cfg["command"] = command
    return cfg


# ---------------------------------------------------------------------------
# system families

def contracting_l2(rng) -> list[list[str]]:
    """E3-like pair: near-diagonal contraction and a scaled near-quarter turn.

    Norms stay below 1/2, the pair and its square stay irreducible, so the
    dimension corollary's hypotheses hold.
    """
    a = 0.4 + rng.uniform(-0.05, 0.04)
    b = 0.1 + rng.uniform(-0.03, 0.03)
    c = rng.uniform(-0.03, 0.03)
    A1 = np.array([[a, c], [0.0, b]])
    A2 = (0.3 + rng.uniform(-0.04, 0.04)) * rot(math.pi / 2 + rng.uniform(-0.25, 0.25))
    return [mat_strings(A1, decimal), mat_strings(A2, decimal)]


def contracting_l3(rng) -> list[list[str]]:
    """Three contracting maps: diagonal, scaled rotation, and a shear."""
    A1 = np.diag([0.35 + rng.uniform(-0.04, 0.04), 0.12 + rng.uniform(-0.03, 0.03)])
    A2 = (0.28 + rng.uniform(-0.03, 0.03)) * rot(math.pi / 3 + rng.uniform(-0.2, 0.2))
    A3 = np.array([[0.22 + rng.uniform(-0.03, 0.03), 0.1 + rng.uniform(-0.04, 0.04)],
                   [rng.uniform(-0.02, 0.02), 0.25 + rng.uniform(-0.03, 0.03)]])
    return [mat_strings(A, decimal) for A in (A1, A2, A3)]


def e3_like(rng, index: int) -> list[list[str]]:
    if index == 0:
        return [["0.4", "0", "0", "0.1"], ["0", "-0.3", "0.3", "0"]]
    return contracting_l2(rng)


def e2_like(rng, index: int) -> list[list[str]]:
    """E2 (hyperbolic + quarter turn) and dyadic perturbations of it."""
    if index == 0:
        return [["2", "0", "0", "0.5"], ["0", "-1", "1", "0"]]
    H = np.diag([2.0 + rng.uniform(-0.3, 0.3), 0.5 + rng.uniform(-0.1, 0.1)])
    H[0, 1] = rng.uniform(-0.2, 0.2)
    R = (1.0 + rng.uniform(-0.15, 0.15)) * rot(math.pi / 2 + rng.uniform(-0.3, 0.3))
    return [mat_strings(H, dyadic), mat_strings(R, dyadic)]


def skew3(w) -> np.ndarray:
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def spannable_d3_l5(rng) -> list[list[str]]:
    """Five 3x3 generators whose span holds I and a spread of rotations' generators.

    Images u, w x u of every nonzero u span R^3 with room to spare, so the
    certified sphere minimum clears its Lipschitz slack: the op ends in a
    grid certificate, not Inconclusive.
    """
    gens = []
    for _ in range(5):
        w = rng.uniform(-1.0, 1.0, 3)
        M = (1.0 + rng.uniform(-0.3, 0.3)) * np.eye(3) + skew3(w) \
            + 0.15 * rng.uniform(-1.0, 1.0, (3, 3))
        gens.append(mat_strings(M, lambda x: dyadic(x, 32)))
    return gens


def random_exact2(rng, ell: int, scale: float = 1.0) -> list[list[str]]:
    gens = []
    while len(gens) < ell:
        M = rng.integers(-16, 17, (2, 2)) / 16.0 * scale
        if abs(np.linalg.det(M)) > 0.05 * scale * scale:
            gens.append(mat_strings(M, lambda x: repr(x + 0.0)))
    return gens


def random_inexact2(rng, ell: int, scale: float = 1.0) -> list[list[str]]:
    gens = []
    while len(gens) < ell:
        M = rng.uniform(-1.0, 1.0, (2, 2)) * scale
        if abs(np.linalg.det(M)) > 0.05 * scale * scale:
            gens.append(mat_strings(M, lambda x: decimal(x, 2)))
    return gens


def upper_triangular2(rng, ell: int, exact: bool) -> list[list[str]]:
    """Reducible pair: every generator fixes the line span(e1)."""
    fmt = (lambda x: repr(x + 0.0)) if exact else (lambda x: decimal(x, 2))
    gens = []
    for _ in range(ell):
        a = rng.choice([-1, 1]) * rng.integers(4, 17) / 16.0
        d = rng.choice([-1, 1]) * rng.integers(4, 17) / 16.0
        b = rng.integers(-16, 17) / 16.0
        if not exact:
            a, d, b = a + rng.uniform(-0.02, 0.02), d + rng.uniform(-0.02, 0.02), b + 0.01
        gens.append(mat_strings(np.array([[a, b], [0.0, d]]), fmt))
    return gens


def single_rotation2(rng, exact: bool) -> list[list[str]]:
    """One generator: M_k is one-dimensional, so no k is spannable."""
    if exact:
        choices = [np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([[0.5, -0.5], [0.5, 0.5]]),
                   np.array([[0.0, -2.0], [0.5, 0.0]]), np.array([[1.0, -1.0], [1.0, 0.0]])]
        M = choices[int(rng.integers(len(choices)))] * (2.0 ** int(rng.integers(-1, 2)))
        return [mat_strings(M, lambda x: repr(x + 0.0))]
    M = (0.5 + rng.uniform(0.0, 1.0)) * rot(rng.uniform(0.3, 2.8))
    return [mat_strings(M, lambda x: decimal(x, 2))]


def random_exact_d(rng, d: int, ell: int) -> list[list[str]]:
    gens = []
    while len(gens) < ell:
        M = rng.integers(-8, 9, (d, d)) / 8.0
        if abs(np.linalg.det(M)) > 0.05:
            gens.append(mat_strings(M, lambda x: repr(x + 0.0)))
    return gens


def block_reducible_d(rng, d: int, ell: int) -> list[list[str]]:
    """Block upper-triangular tuple: the first p coordinates span an invariant subspace."""
    p = int(rng.integers(1, d))
    gens = []
    while len(gens) < ell:
        M = rng.integers(-8, 9, (d, d)) / 8.0
        M[p:, :p] = 0.0
        if abs(np.linalg.det(M)) > 0.05:
            gens.append(mat_strings(M, lambda x: repr(x + 0.0)))
    return gens


# ---------------------------------------------------------------------------
# dimension-deep

def _dd_s0(rng, i):
    return config(e3_like(rng, i), "s0", {
        "targets": {"all_ones": int(rng.integers(8, 13))}, "n": 20, "k_qm": 1})


def _dd_r0(rng, i):
    return config(contracting_l2(rng), "r0", {
        "beta": round(float(rng.uniform(0.15, 0.45)), 2), "n": 20, "k_qm": 1})


def _dd_affinity(rng, i):
    return config(contracting_l2(rng), "affinity-dim", {"n": 20, "k_qm": 1})


def _dd_pressure(rng, i):
    grid = sorted(round(float(x), 2) for x in rng.uniform(0.3, 1.8, 4))
    return config(contracting_l2(rng), "pressure", {
        "potential": "sv_s", "n": 19, "s_grid": grid, "k_qm": 1})


def _dd_affinity_l3(rng, i):
    return config(contracting_l3(rng), "affinity-dim", {"n": 13, "k_qm": 1})


def _dd_s0_l3(rng, i):
    return config(contracting_l3(rng), "s0", {
        "targets": {"all_ones": int(rng.integers(6, 10))}, "n": 13, "k_qm": 1})


def _dd_mixing(rng, i):
    return config(contracting_l2(rng), "mixing", {
        "s": round(float(rng.uniform(0.6, 1.4)), 2), "L": 6, "gap": 6, "connector_k": 1})


# ---------------------------------------------------------------------------
# certify-minimizers

def _cm_qm(rng, i):
    return config(e3_like(rng, i), "qm", {"k": 7, "n_max": 3})


def _cm_pressure(rng, i):
    return config(e2_like(rng, i), "pressure", {
        "potential": "sv_s", "n": 6, "k_qm": 6,
        "s_grid": [round(float(rng.uniform(0.5, 1.5)), 2)]})


def _cm_spannability(rng, i):
    return config(spannable_d3_l5(rng), "spannability", {"k_max": 1})


# ---------------------------------------------------------------------------
# verdict-batch

def _vb_hyp_exact(rng, i):
    ell = int(rng.integers(1, 5))
    kind = i % 4
    if kind == 3:
        gens = upper_triangular2(rng, max(ell, 2), exact=True)
    else:
        gens = random_exact2(rng, ell, scale=0.5 if i % 2 else 1.0)
    mode = "corollary_4_3" if i % 2 else "theorem_1_1"
    return config(gens, "check-hypotheses", {"mode": mode})


def _vb_hyp_inexact(rng, i):
    ell = int(rng.integers(1, 5))
    gens = random_inexact2(rng, ell, scale=0.45 if i % 2 else 1.0)
    mode = "corollary_4_3" if i % 2 else "theorem_1_1"
    return config(gens, "check-hypotheses", {"mode": mode})


def _vb_span_exact(rng, i, ell):
    return config(random_exact2(rng, ell), "spannability",
                  {"k_max": int(rng.integers(2, 7))})


def _vb_span_inexact(rng, i):
    ell = int(rng.integers(2, 5))
    return config(random_inexact2(rng, ell), "spannability",
                  {"k_max": int(rng.integers(2, 7))})


def _vb_span_diagnose(rng, i, ell, k_max):
    exact = i % 3 != 2
    gens = single_rotation2(rng, exact) if ell == 1 else upper_triangular2(rng, ell, exact)
    return config(gens, "spannability", {"k_max": k_max})


def _vb_hyp_d34(rng, i, d, reducible):
    ell = 3 if d == 3 else 2
    gens = block_reducible_d(rng, d, ell) if reducible else random_exact_d(rng, d, ell)
    return config(gens, "check-hypotheses", {"mode": "theorem_1_1"})


def _vb_export(rng, i):
    gens = [["0.4", "0", "0", "0.4"], ["0.4", "0", "0", "0.4"]]
    tr = [["0", "0"], [decimal(0.45 + 0.05 * int(rng.integers(0, 5)), 2), "0"]]
    return config(gens, "export-attractor", {"depth": int(rng.integers(3, 7))},
                  translations=tr)


def _vb_pressure(rng, i, ell, n):
    gens = contracting_l2(rng) if ell == 2 else contracting_l3(rng)
    kind = ("norm_s", "sv_s", "sv_s_squared")[i % 3]
    grid = sorted(round(float(x), 2) for x in rng.uniform(0.3, 1.8, 2))
    return config(gens, "pressure", {
        "potential": kind, "n": n, "s_grid": grid, "qm": {"k": 1, "C": 1e-6}})


def _malformed(rng, i):
    """Configs whose documented outcome is exit 3 (input error)."""
    gens = random_exact2(rng, 2)
    good = config(gens, "spannability", {"k_max": 2})
    kind = i % 16
    if kind == 0:
        return json.dumps(good)[:-7]                       # truncated JSON
    if kind == 1:
        return {"command": "spannability", "options": {}}  # no system block
    if kind == 2:
        good["system"]["dimension"] = 1
    elif kind == 3:
        good["system"]["generators"] = []
    elif kind == 4:
        good["system"]["generators"][0][0] = 0.5            # number, not a string
    elif kind == 5:
        good["system"]["generators"][1][2] = "abc"
    elif kind == 6:
        good["system"]["generators"][0] = good["system"]["generators"][0][:3]
    elif kind == 7:
        good["system"]["generators"][1] = ["1", "2", "2", "4"]  # singular
    elif kind == 8:
        good["command"] = "spanability"
    elif kind == 9:
        good["options"] = [2]
    elif kind == 10:
        good = config(gens, "s0", {"targets": {"words": ["12", "13"]}, "n": 4})
    elif kind == 11:
        good["system"]["translations"] = [["0", "0"]]
    elif kind == 12:
        good = config(gens, "r0", {"beta": 1.5, "n": 4})
    elif kind == 13:
        good["options"] = {"k_max": 0}
    elif kind == 14:
        good = config(gens, "check-hypotheses", {"mode": "theorem"})
    else:
        good = config(gens, None, {})
    return good


def _bad_option_type(rng, i):
    """Options of the wrong type; the documented outcome is exit 3 (input error)."""
    gens = contracting_l2(rng)
    cases = [
        ("affinity-dim", {"n": "abc"}),
        ("affinity-dim", {"n": 6, "k_qm": "one"}),
        ("spannability", {"k_max": "x"}),
        ("mixing", {"s": "abc", "L": 2, "gap": 2}),
        ("mixing", {"s": 1.0, "L": [2], "gap": 2}),
        ("pressure", {"n": 4, "s_grid": ["a"], "qm": None}),
        ("s0", {"targets": {"all_ones": "ten"}, "n": 4}),
        ("qm", {"k": "seven", "n_max": 2}),
        ("check-hypotheses", {"seed": "x"}),
        ("spannability", {"k_max": 2, "budget": "big"}),
    ]
    command, options = cases[i % len(cases)]
    return config(gens, command, options)


WORKLOADS = {
    "dimension-deep": Workload(
        "dimension-deep",
        "word-product enumeration, log Z reductions, bisection and Gibbs levels do "
        "the work; gamma at k_qm = 1 is small, so minimizer changes should not move it",
        (Slot("s0-l2-n20", 1, 12, _dd_s0),
         Slot("r0-l2-n20", 1, 12, _dd_r0),
         Slot("affinity-l2-n20", 1, 12, _dd_affinity),
         Slot("pressure-l2-n19-4s", 1, 12, _dd_pressure),
         Slot("affinity-l3-n13", 1, 12, _dd_affinity_l3),
         Slot("s0-l3-n13", 1, 12, _dd_s0_l3),
         Slot("mixing-l2-L6-gap6", 1, 12, _dd_mixing)),
    ),
    # Runnable and part of baseline.py, but not listed in BENCHMARK.json: its
    # three ops take about 15 s a run, so at most 4 runs fit in a minute, and
    # the BLAS-threaded gamma grids follow the shared host's speed swings
    # differently from the speed probe; its calibrated wall time still spread
    # by 17 % over seeds.
    "certify-minimizers": Workload(
        "certify-minimizers",
        "the gamma torus and the certified S^2 sphere grid do the work and word "
        "enumeration is tiny, so word-engine changes should not move it",
        (Slot("qm-e3-k7", 1, 6, _cm_qm),
         Slot("pressure-e2-kqm6", 1, 6, _cm_pressure),
         Slot("spannability-d3-l5", 1, 6, _cm_spannability)),
    ),
    "verdict-batch": Workload(
        "verdict-batch",
        "hundreds of short ops: rational spans, the hypothesis cascade, linalg spans "
        "and CLI parse/serialize dominate; uses exact d = 2 spannability, not grids",
        # Slots fix the parameters that set an op's cost (ell, k_max, d, n), so
        # that a seed changes the instances a pass runs, not its cost mix.
        (Slot("hyp-exact-d2", 100, 300, _vb_hyp_exact),
         Slot("hyp-inexact-d2", 60, 180, _vb_hyp_inexact),
         Slot("span-exact-d2-l2", 27, 81, partial(_vb_span_exact, ell=2)),
         Slot("span-exact-d2-l3", 27, 81, partial(_vb_span_exact, ell=3)),
         Slot("span-exact-d2-l4", 26, 78, partial(_vb_span_exact, ell=4)),
         Slot("span-inexact-d2", 40, 120, _vb_span_inexact),
         Slot("span-diagnose-d2-l1-k6", 16, 48, partial(_vb_span_diagnose, ell=1, k_max=6)),
         Slot("span-diagnose-d2-l2-k5", 16, 48, partial(_vb_span_diagnose, ell=2, k_max=5)),
         Slot("span-diagnose-d2-l3-k4", 16, 48, partial(_vb_span_diagnose, ell=3, k_max=4)),
         Slot("hyp-theorem-d3-irreducible", 15, 45, partial(_vb_hyp_d34, d=3, reducible=False)),
         Slot("hyp-theorem-d3-reducible", 15, 45, partial(_vb_hyp_d34, d=3, reducible=True)),
         Slot("hyp-theorem-d4-irreducible", 15, 45, partial(_vb_hyp_d34, d=4, reducible=False)),
         Slot("hyp-theorem-d4-reducible", 15, 45, partial(_vb_hyp_d34, d=4, reducible=True)),
         Slot("export-e4", 16, 48, _vb_export),
         Slot("pressure-small-l2-n8", 20, 60, partial(_vb_pressure, ell=2, n=8)),
         Slot("pressure-small-l3-n6", 20, 60, partial(_vb_pressure, ell=3, n=6)),
         Slot("malformed", 48, 144, _malformed)),
    ),
    # Not listed in BENCHMARK.json: every op here crashes on the reference
    # commit (uncaught ValueError/TypeError, process exit 1), so it is kept
    # as a separate probe of the input contract instead of a timed workload.
    "bad-option-types": Workload(
        "bad-option-types",
        "options of the wrong type must end in exit 3; on the reference commit they "
        "raise uncaught exceptions, which the CLI reports as exit 1",
        (Slot("bad-option-types", 20, 20, _bad_option_type),),
    ),
}

TIMED_WORKLOADS = ("dimension-deep", "certify-minimizers", "verdict-batch")
PROBE = "bad-option-types"


def pool_texts(workload: Workload):
    """(slot, index, config text) for every pool op, from the fixed pool seed."""
    for slot in workload.slots:
        rng = np.random.default_rng([POOL_SEED, zlib.crc32(slot.name.encode())])
        for i in range(slot.pool):
            cfg = slot.make(rng, i)
            text = cfg if isinstance(cfg, str) else json.dumps(cfg, sort_keys=True)
            yield slot, i, text


def select(reference: dict, seed: int) -> list[dict]:
    """Ops of one pass for a run seed: `pick` distinct pool ops per slot, shuffled."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(reference["workload"].encode())])
    ops = []
    for slot in reference["slots"]:
        pool = slot["ops"]
        chosen = rng.choice(len(pool), size=slot["pick"], replace=False)
        ops.extend(pool[int(j)] for j in sorted(chosen))
    order = rng.permutation(len(ops))
    return [ops[int(j)] for j in order]
