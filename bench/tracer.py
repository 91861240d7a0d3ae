"""Spans and counters around the public functions of cuspcount's layers.

Installing a Tracer replaces each public function of the layer modules, in
every cuspcount namespace that imported it, by a wrapper that records a
span: name, start, end and the enclosing span.  A span's self time is its
duration minus the time its child spans cover.  Methods on hot paths get
counters only, credited to the innermost open span, because a clock read
per call would cost more than the call.  The spans are folded into
per-name totals as they close, so memory stays flat over a long run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "cuspcount"
LAYERS = ("intmat", "lattices", "discriminant", "isotropic", "genus", "counting", "cli")
OUTSIDE = "(outside)"

# Small matrix helpers called in inner loops.  They are not wrapped; their
# time is self time of the span that called them.
UNWRAPPED = frozenset(
    "intmat." + name
    for name in (
        "freeze", "thaw", "shape", "identity", "transpose", "matmul", "matvec",
        "columns", "from_columns", "xgcd", "vec_gcd",
    )
)

# Hot functions and methods that are counted, not timed:
# (module, class or None, attribute, counter name).
COUNTED = (
    ("intmat", None, "det", "intmat.det.calls"),
    ("discriminant", "FqfIsometry", "compose", "discriminant.FqfIsometry.compose.calls"),
    ("discriminant", "FqfIsometry", "__init__", "discriminant.FqfIsometry.constructed"),
    ("discriminant", "FiniteQuadraticForm", "q", "discriminant.FiniteQuadraticForm.q.calls"),
    ("discriminant", "FiniteQuadraticForm", "b", "discriminant.FiniteQuadraticForm.b.calls"),
    ("lattices", "EvenLattice", "norm", "norm_evals"),  # read per span
)

# Private candidate generators of the rank-2 genus sweep; the counter adds
# the number of candidates each returns.
CANDIDATE_HOOKS = (("genus", "_definite_candidates"), ("genus", "_indefinite_candidates"))

# Outcome counters read from a span's return value.
OUTCOMES = {
    "discriminant.fqf_isomorphism": ("found", lambda r: r is not None),
    "discriminant.is_isogenus": ("true", bool),
    "discriminant.aut_group": ("elements", lambda r: r.order()),
    "discriminant.double_coset_count": ("cosets", lambda r: r),
    "isotropic.enumerate_isotropic": ("found", len),
}


class Tracer:
    def __init__(self):
        self.stack = [[OUTSIDE, 0.0, 0.0]]  # frames: [name, start, time in child spans]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent span, child span) -> calls
        self.counts = Counter()  # (innermost span, counter) -> count
        self.missing = []  # hooks the package no longer has

    # --- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        stack, clock = self.stack, time.perf_counter
        calls, self_s, edges, counts = self.calls, self.self_s, self.edges, self.counts
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                parent[2] += duration
                calls[name] += 1
                self_s[name] += duration - frame[2]
                edges[parent[0], name] += 1
            if outcome is not None:
                counts[name, outcome[0]] += outcome[1](result)
            return result

        return wrapper

    def _counter(self, key, fn, amount=None):
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[stack[-1][0], key] += 1 if amount is None else amount(result)
            return result

        return wrapper

    # --- installation --------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        counted = {(m, a): key for m, cls, a, key in COUNTED if cls is None}
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in UNWRAPPED:
                    continue
                if (layer, attr) in counted:
                    wrapper = self._counter(counted[layer, attr], obj)
                else:
                    wrapper = self._span(name, obj)
                wrappers[id(obj)] = (obj, wrapper)
        # rebind in every namespace that imported the function
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
        for layer, cls_name, attr, key in COUNTED:
            if cls_name is None:
                continue
            cls = getattr(modules[layer], cls_name, None)
            if cls is None or attr not in vars(cls):
                self.missing.append(f"{layer}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self._counter(key, vars(cls)[attr]))
        for layer, attr in CANDIDATE_HOOKS:
            fn = getattr(modules[layer], attr, None)
            if fn is None:
                self.missing.append(f"{layer}.{attr}")
                continue
            setattr(modules[layer], attr, self._counter("candidates", fn, amount=len))

    # --- read-out --------------------------------------------------------------

    def counter_total(self, key):
        return sum(n for (_, k), n in self.counts.items() if k == key)

    def layer_self_s(self, layer):
        return sum(t for name, t in self.self_s.items() if name.split(".")[0] == layer)

    def total_self_s(self):
        return sum(self.self_s.values())


# Spans reported with calls and self time, then spans reported with self time only.
_TIMED_SPANS = (
    "genus.genus_representatives_rank2",
    "genus.equivalent_rank2",
    "discriminant.fqf_isomorphism",
    "discriminant.aut_group",
    "discriminant.double_coset_count",
    "isotropic.enumerate_isotropic",
    "isotropic.classify_i1_orbits",
    "isotropic.quotient_lattice",
    "discriminant.is_isogenus",
    "discriminant.discriminant_form",
    "intmat.snf_transforms",
    "intmat.kernel_basis",
    "lattices.signature",
)
_SELF_ONLY_SPANS = tuple(
    "counting." + name
    for name in (
        "ur_example", "count_fm", "count_fm_elliptic", "count_cusps_zero_dim",
        "derive_orbit_data", "mu1_fiber_ur",
    )
)
# lru_caches whose growth drives memory: (metric prefix, module, attribute)
_CACHES = (("cache.disc_data", "discriminant", "_disc_data"), ("cache.det", "lattices", "_det_cached"))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, query_s, stdout_bytes):
    """Per-layer metrics of a traced pass, as {name: (value, unit)}.

    query_s is the summed latency of the traced queries.
    """
    out = {}
    for span in _TIMED_SPANS:
        out[f"{span}.calls"] = (tracer.calls[span], "count")
        out[f"{span}.self_s"] = (tracer.self_s[span], "s")
    for span in _SELF_ONLY_SPANS:
        out[f"{span}.self_s"] = (tracer.self_s[span], "s")
    out["cli.main.calls"] = (tracer.calls["cli.main"], "count")
    out["cli.main.self_s"] = (tracer.self_s["cli.main"], "s")

    counts, calls = tracer.counts, tracer.calls
    grr = "genus.genus_representatives_rank2"
    out[f"{grr}.candidates"] = (counts[grr, "candidates"], "count")
    iso = "discriminant.fqf_isomorphism"
    out[f"{iso}.found_ratio"] = (_ratio(counts[iso, "found"], calls[iso]), "ratio")
    aut = "discriminant.aut_group"
    out[f"{aut}.elements"] = (counts[aut, "elements"], "count")
    dcc = "discriminant.double_coset_count"
    out[f"{dcc}.cosets"] = (counts[dcc, "cosets"], "count")
    for *_, key in COUNTED:
        if key != "norm_evals":
            out[key] = (tracer.counter_total(key), "count")
    enum = "isotropic.enumerate_isotropic"
    evals, found = counts[enum, "norm_evals"], counts[enum, "found"]
    out[f"{enum}.norm_evals"] = (evals, "count")
    out[f"{enum}.found"] = (found, "count")
    out[f"{enum}.found_per_eval"] = (_ratio(found, evals), "ratio")
    isog = "discriminant.is_isogenus"
    out["isotropic.classify_i1_orbits.isogeny_tests"] = (
        tracer.edges["isotropic.classify_i1_orbits", isog], "count",
    )
    out[f"{isog}.true_ratio"] = (_ratio(counts[isog, "true"], calls[isog]), "ratio")
    out["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    out["trace.query_s"] = (query_s, "s")
    out["trace.span_coverage"] = (_ratio(tracer.total_self_s(), query_s), "ratio")
    for prefix, layer, attr in _CACHES:
        cached = getattr(sys.modules[f"{PACKAGE}.{layer}"], attr, None)
        if cached is None:
            tracer.missing.append(f"{layer}.{attr}")
            info = None
        else:
            info = cached.cache_info()
        out[f"{prefix}.hits"] = (info.hits if info else 0, "count")
        out[f"{prefix}.misses"] = (info.misses if info else 0, "count")
    return out
