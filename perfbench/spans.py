"""In-memory span tracing of the cocyclespan layers, installed from outside the package.

Each layer is one module of `src/cocyclespan`. The tracer wraps every
public function a layer defines, and the public methods (plus `__init__`
of plain classes and `__post_init__`) of its public classes. A wrapper is
installed under every name that refers to the function in any layer
module, so calls through `from .kernels import word_singvals` in `thermo`
and in-module calls such as `minimal_spannable_k` -> `spannable_at` both
record a span. No file of the package is changed.

A span is (op id, name, layer, start, end, parent). A layer's self time is
the sum over its spans of the span's duration minus the durations of its
direct children. Each op gets a root span of layer `harness`, so the self
times of all layers plus the harness add up to the time spent inside ops.

Counts come from call arguments and results (see `_COUNTERS`); bytes are
computed from array sizes, not measured.
"""
from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import math
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "thermo", "quasimult", "spannability", "hypotheses", "gibbs", "kernels",
          "wordspace", "linalg", "rational2", "systems")


def _key(system_or_gens) -> bytes:
    gens = getattr(system_or_gens, "generators", None)
    if gens is not None:
        return b"".join(np.ascontiguousarray(g).tobytes() for g in gens)
    return np.ascontiguousarray(system_or_gens).tobytes()


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Drop every span and count, e.g. those of the warm-up op."""
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts = defaultdict(float)
        self.gamma_values: list[float] = []
        self._seen: set = set()

    # -- spans --------------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op
        self._seen = set()

    def call(self, name: str, layer: str, fn, args, kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (self.op, name, layer, t0, t1, parent)
        hook = _COUNTERS.get(name)
        if hook is not None:
            try:
                hook(self, args, kwargs, result)
            except Exception:  # a changed signature must not fail the op it observes
                self.counts["trace.counter_errors"] += 1
        return result

    def root(self, fn, *args):
        return self.call("harness.op", "harness", fn, args, {})

    def seen(self, key) -> bool:
        """True when `key` was already recorded in the current op."""
        if key in self._seen:
            return True
        self._seen.add(key)
        return False

    # -- aggregation -------------------------------------------------------
    def layer_times(self) -> tuple[dict, dict, float]:
        """(self seconds per layer, calls per layer, summed root span seconds)."""
        child = [0.0] * len(self.spans)
        for op, name, layer, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = defaultdict(int)
        roots = 0.0
        for i, (op, name, layer, t0, t1, parent) in enumerate(self.spans):
            self_s[layer] += (t1 - t0) - child[i]
            calls[layer] += 1
            if parent < 0:
                roots += t1 - t0
        return self_s, calls, roots

    def total(self, name: str) -> float:
        return sum(t1 - t0 for _op, n, _l, t0, t1, _p in self.spans if n == name)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for op, name, layer, t0, t1, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "layer": layer,
                                     "start": t0, "end": t1, "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# counters derived from arguments and results

def _enumeration(tr, args, kwargs, result):
    gens = np.asarray(_arg(args, kwargs, 0, "gens"))
    n = int(_arg(args, kwargs, 1, "n"))
    words = float(gens.shape[0]) ** n
    tr.counts["kernels.words"] += words
    if tr.seen(("words", _key(gens), n)):
        tr.counts["kernels.words_repeated"] += words
    tr.counts["kernels.bytes_computed"] += sum(
        a.nbytes for a in result if isinstance(a, np.ndarray))


def _minimax_grid2(tr, args, kwargs, result):
    G = int(_arg(args, kwargs, 1, "G", 2000))
    tr.counts["kernels.grid_points"] += G * G
    tr.counts["kernels.bytes_computed"] += 8.0 * G * G


def _stack_min_grid2(tr, args, kwargs, result):
    B = np.asarray(_arg(args, kwargs, 0, "B"))
    G = int(_arg(args, kwargs, 1, "G"))
    tr.counts["kernels.grid_points"] += G
    tr.counts["kernels.bytes_computed"] += 8.0 * G * (2 * B.shape[0] + 3)


def _stack_min_grid3(tr, args, kwargs, result):
    B = np.asarray(_arg(args, kwargs, 0, "B"))
    res = float(_arg(args, kwargs, 1, "resolution", 1e-3))
    n = max(8, int(math.ceil(math.pi / res)))
    tr.counts["kernels.grid_points"] += (n + 1) * n
    tr.counts["kernels.bytes_computed"] += 8.0 * (n + 1) * n * (3 * B.shape[0] + 9)


def _qm_scan(tr, args, kwargs, result):
    units = np.asarray(_arg(args, kwargs, 0, "units"))
    kunits = np.asarray(_arg(args, kwargs, 2, "kunits"))
    N, M = units.shape[0], kunits.shape[0]
    tr.counts["kernels.qm_pairs"] += N * N
    tr.counts["kernels.bytes_computed"] += 8.0 * N * M * 4 * 2


def _gamma(tr, args, kwargs, result):
    system = _arg(args, kwargs, 0, "system")
    k = int(_arg(args, kwargs, 1, "k"))
    if tr.seen(("gamma", _key(system), k)):
        tr.counts["quasimult.gamma_repeated"] += 1
    tr.gamma_values.append(float(result.value))


def _spannable_at(tr, args, kwargs, result):
    system = _arg(args, kwargs, 0, "system")
    k = int(_arg(args, kwargs, 1, "k"))
    if tr.seen(("span", _key(system), k)):
        tr.counts["spannability.spannable_at_repeated"] += 1
    tr.counts["spannability.certificates"] += 1
    if result.status in ("Spannable", "NotSpannable"):
        tr.counts["spannability.decisive"] += 1


def _verdict(tr, args, kwargs, result):
    tr.counts["hypotheses.verdicts"] += 1
    if result.status == "Inconclusive":
        tr.counts["hypotheses.inconclusive"] += 1


_COUNTERS = {
    "kernels.word_singvals": _enumeration,
    "kernels.products_level_numpy": _enumeration,
    "kernels.minimax_grid2": _minimax_grid2,
    "kernels.stack_min_grid2": _stack_min_grid2,
    "kernels.stack_min_grid3": _stack_min_grid3,
    "kernels.qm_scan": _qm_scan,
    "quasimult.gamma_minimax": _gamma,
    "spannability.spannable_at": _spannable_at,
    "hypotheses.irreducibility_verdict": _verdict,
}


# ---------------------------------------------------------------------------
# installation

def _wrap(tracer: Tracer, name: str, layer: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, layer, fn, args, kwargs)
    return traced


def install(tracer: Tracer) -> int:
    """Wrap every public function and method of the layers; returns the wrapper count."""
    modules = {layer: importlib.import_module(f"cocyclespan.{layer}") for layer in LAYERS}
    wrappers = {}  # id(original function) -> wrapper
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrappers[id(obj)] = _wrap(tracer, f"{layer}.{attr}", layer, obj)
            elif inspect.isclass(obj):
                methods = [m for m, f in vars(obj).items() if inspect.isfunction(f)
                           and (not m.startswith("_") or m == "__post_init__"
                                or (m == "__init__" and not dataclasses.is_dataclass(obj)))]
                for m in methods:
                    setattr(obj, m, _wrap(tracer, f"{layer}.{attr}.{m}", layer, vars(obj)[m]))
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
    return len(wrappers)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    self_s, calls, roots = tracer.layer_times()
    c = tracer.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out["harness.self_s"] = self_s.get("harness", 0.0)
    out["trace.ops_s"] = roots
    for name in ("kernels.words", "kernels.words_repeated", "kernels.bytes_computed",
                 "kernels.grid_points", "kernels.qm_pairs", "quasimult.gamma_repeated",
                 "spannability.spannable_at_repeated"):
        out[name] = c.get(name, 0.0)
    out["quasimult.gamma_value"] = (sum(tracer.gamma_values) / len(tracer.gamma_values)
                                    if tracer.gamma_values else 0.0)
    out["spannability.decisive_share"] = (c["spannability.decisive"] / c["spannability.certificates"]
                                          if c.get("spannability.certificates") else 0.0)
    out["hypotheses.inconclusive_share"] = (c["hypotheses.inconclusive"] / c["hypotheses.verdicts"]
                                            if c.get("hypotheses.verdicts") else 0.0)
    out["cli.parse_s"] = tracer.total("cli.parse_config")
    out["cli.serialize_s"] = tracer.total("cli.report_canonical_json")
    return out
