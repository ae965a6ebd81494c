"""Per-layer tracing of `iwt`, applied from outside the package.

`Tracer.install` replaces each traced function in its defining module and
in every `iwt` module that bound it with `from ... import`, and wraps the
`LambdaElement` methods in place.  Every call records a span (name,
parent, start, end in integer nanoseconds) in memory; `write` dumps them
when the run ends.  A span's self time is its duration minus the
durations of its direct children, so the self times of a finished trace
sum exactly to the durations of its root spans.

A traced name that the package no longer defines is skipped and listed in
the summary's `missing`, so the tracer keeps working across refactors and
the gap shows.  A function that is already a tracer wrapper when `install`
reaches it (two traced names bound to one function) is not wrapped again
and is listed in `install_problems`.

No layer of `iwt` has a queue, a lock or a worker pool: every span is
busy time on the one thread, and nothing is recorded as waiting.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

_clock = time.perf_counter_ns
SPAN_COST_ROUNDS = 2000
JOB_SPAN = "bench.job."  # prefix of the span around each benchmark job

# (module, attribute path) of every traced function
TRACED = (
    ("cli", "main"),
    ("mazur_tate", "ingest_modular_symbols"),
    ("mazur_tate", "build_theta"),
    ("mazur_tate", "validate_queue"),
    ("mazur_tate", "synthesize_queue"),
    ("padic_core", "teichmuller"),
    ("padic_core", "log_gamma"),
    ("padic_core", "padic_from_rational"),
    ("iwasawa_algebra", "LambdaElement.from_unit_basis"),
    ("iwasawa_algebra", "LambdaElement.to_unit_basis"),
    ("iwasawa_algebra", "LambdaElement.__mul__"),
    ("iwasawa_algebra", "exact_divide_by_phi"),
    ("iwasawa_algebra", "project_pi"),
    ("iwasawa_algebra", "lift_nu"),
    ("iwasawa_algebra", "vanishing_order"),
    ("iwasawa_algebra", "cyclotomic_phi"),
    ("iwasawa_algebra", "iwasawa_invariants"),
    ("polyops", "poly_mul"),
    ("polyops", "poly_divmod_monic"),
    ("sharp_flat", "decompose_pair"),
    ("sharp_flat", "recompose"),
    ("sharp_flat", "vector_vanishing_orders"),
    ("cyclotomic_ext", "eval_lambda_at_zeta"),
    ("logmatrix", "det_identity_check"),
    ("logmatrix", "functional_equation_check"),
    ("logmatrix", "make_matrix"),
    ("bsd_analytics", "rank_bound"),
    ("bsd_analytics", "modesty_map"),
    ("bsd_analytics", "sha_growth"),
)

MODULES = tuple(dict.fromkeys(module for module, _ in TRACED))

# lru_cache tables whose hits and misses are reported
CACHES = (
    ("iwasawa_algebra", "_reduction_poly"),
    ("iwasawa_algebra", "_modulus_poly"),
    ("iwasawa_algebra", "_binomial_triangle"),
    ("iwasawa_algebra", "_phi_coeffs"),
    ("padic_core", "_log_gamma_table"),
    ("cyclotomic_ext", "_eisenstein_modulus"),
)


def _trimmed_len(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return n


def _count_divmod_steps(num, den, modulus):
    # schoolbook work: one row of deg+1 updates per quotient coefficient
    deg = _trimmed_len(den) - 1
    return max(0, len(num) - deg) * (deg + 1)


def _count_packed_bits(a, b, modulus):
    # operand bits of a carry-free Kronecker product of the trimmed vectors
    la, lb = _trimmed_len(a), _trimmed_len(b)
    if not la or not lb:
        return 0
    slot_bits = (min(la, lb) * (modulus - 1) ** 2).bit_length()
    return (la + lb) * slot_bits


def _count_symbols(document, *args, **kwargs):
    return len(document["symbols"])


# work counters computed from a traced function's arguments
COUNTERS = {
    "polyops.poly_divmod_monic": ("steps", _count_divmod_steps),
    "polyops.poly_mul": ("packed_bits", _count_packed_bits),
    "mazur_tate.ingest_modular_symbols": ("symbols", _count_symbols),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}     # name -> index in self.names
        self.spans = []      # [name index, parent span index or -1, start, end]
        self._stack = []
        self.counters = {f"{name}.{counter}": 0
                         for name, (counter, _) in COUNTERS.items()}
        self.errors = {module: 0 for module in MODULES}
        self.missing = []            # traced names the package does not define
        self.install_problems = []
        self._error_type = None

    # -- spans -------------------------------------------------------------

    def _open(self, name_index):
        rec = [name_index, self._stack[-1] if self._stack else -1, _clock(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = _clock()
        self._stack.pop()

    def _name_index(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the benchmark's own code."""
        rec = self._open(self._name_index(name))
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name, module, fn):
        index = self._name_index(name)
        counter = COUNTERS.get(name)
        key = f"{name}.{counter[0]}" if counter else None
        counters, errors, error_type = self.counters, self.errors, self._error_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter:
                counters[key] += counter[1](*args, **kwargs)
            rec = self._open(index)
            try:
                return fn(*args, **kwargs)
            except error_type as exc:
                # count each error once, at the innermost traced layer
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    errors[module] += 1
                raise
            finally:
                self._close(rec)

        traced._bench_span = name
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch every traced function of the imported `iwt` package."""
        self._error_type = importlib.import_module("iwt.errors").IwtError
        loaded = [mod for key, mod in sys.modules.items()
                  if key.startswith("iwt.") and mod is not None]
        for module_name, path in TRACED:
            module = sys.modules.get(f"iwt.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            name = f"{module_name}.{path}"
            if raw is None:
                self.missing.append(name)
                continue
            already = getattr(getattr(raw, "__func__", raw), "_bench_span", None)
            if already:
                self.install_problems.append(f"{name} is already traced as {already}")
                continue
            if owner_name:
                self._wrap_method(owner, attr, raw, name, module_name)
                continue
            wrapped = self.wrap(name, module_name, raw)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)

    def _wrap_method(self, cls, attr, raw, name, module_name):
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, module_name, raw.__func__)))
            return
        wrapped = self.wrap(name, module_name, raw)
        # aliases such as __rmul__ = __mul__ share the wrapper
        for key, value in list(vars(cls).items()):
            if value is raw:
                setattr(cls, key, wrapped)

    # -- results -------------------------------------------------------------

    @staticmethod
    def span_cost_s():
        """Measured cost of opening and closing one span."""
        scratch = Tracer()
        index = scratch._name_index("calibration")
        t0 = _clock()
        for _ in range(SPAN_COST_ROUNDS):
            scratch._close(scratch._open(index))
        return (_clock() - t0) / SPAN_COST_ROUNDS / 1e9

    def self_times(self):
        """Self time of every span, in nanoseconds."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self):
        """Calls and self seconds per span name, counters, errors and cache stats.

        `layers` holds every traced name, called or not, and every other
        span name that was recorded, such as the benchmark's own job spans.
        """
        layers = {f"{m}.{p}": {"calls": 0, "self_s": 0.0} for m, p in TRACED}
        own = self.self_times()
        for (index, _, _, _), ns in zip(self.spans, own):
            entry = layers.setdefault(self.names[index], {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += ns / 1e9
        caches = {}
        for module_name, attr in CACHES:
            fn = getattr(sys.modules.get(f"iwt.{module_name}"), attr, None)
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            caches[f"{module_name}.{attr}"] = {
                "hits": info.hits if info else 0,
                "misses": info.misses if info else 0}
        root_count = sum(parent < 0 for _, parent, _, _ in self.spans)
        return {"layers": layers, "counters": dict(self.counters),
                "errors": dict(self.errors), "caches": caches,
                "missing": list(self.missing),
                "install_problems": list(self.install_problems),
                "negative_self_spans": sum(ns < 0 for ns in own),
                "spans": len(self.spans),
                # a job's clock, read around its root span, adds only that
                # span's own open and close; allow ten of those plus a tick
                "tolerance_s": 10 * self.span_cost_s() * root_count + 1e-3}

    def write(self, path):
        """Dump the spans as one JSON document: names and [name, parent, start, end]."""
        with open(path, "w") as fh:
            json.dump({"clock": "perf_counter_ns", "names": self.names,
                       "spans": self.spans}, fh)
