"""Per-layer tracing of `unitary_powers`, installed from outside the package.

`Tracer.install()` replaces public entry points of the package with
wrappers.  A span wrapper records (name, start, end, parent, case) for every
call; a counting wrapper only counts calls, for the hot paths (field
operations, matrix products, polynomial construction) where a span per call
would cost more than the call itself.  Spans stay in memory and are written
as JSON when the traced process ends; a layer's self time is the duration of
its spans minus the part covered by their child spans.

A target that the package no longer has is recorded in `missing`, with
the span, counter or cache name it feeds; a traced run reports it and drops
the metrics built on that name, so that a lost wrapper never reads as 0.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "unitary_powers"

_COUNTS_FUNCS = (
    "count_scim", "count_mtilde_scim", "count_irreducible", "count_pairs",
    "count_mpower_pairs", "s_tilde_prime", "s_prime", "count_record",
)
_GENFUN_FUNCS = (
    "series_for", "sep_class_series", "sep_elem_series", "cyc_class_series",
    "cyc_elem_series", "ss_class_series", "ss_elem_series",
)

# (module, attribute or Class.attribute, span name)
SPANS = (
    ("cli", "main", "cli"),
    ("oracle", "build_group", "oracle.build"),
    ("oracle", "GroupTable.classes", "oracle.classes"),
    ("oracle", "datum_of", "oracle.datum"),
    ("oracle", "power_image_counts", "oracle.power_map"),
    ("oracle", "MatrixRep.__pow__", "oracle.power_map"),
    ("polyalg", "factor", "polyalg.factor"),
    ("polyalg", "irreducible_polys", "polyalg.sieve"),
    ("polyalg", "classify", "polyalg.classify"),
    ("polyalg", "is_mtilde_power", "polyalg.power_test"),
    ("polyalg", "is_m_power_pair", "polyalg.power_test"),
    ("gf", "FieldDesc.__init__", "gf.field_build"),
    ("gf", "FieldDesc._ensure_tables", "gf.field_build"),
    *(("counts", name, "counts") for name in _COUNTS_FUNCS),
    ("series", "Series.__mul__", "series.mul"),
    ("series", "Series.__pow__", "series.pow"),
    ("series", "binom_factor", "series.factor_build"),
    ("series", "euler_factor", "series.factor_build"),
    *(("genfun", name, "genfun") for name in _GENFUN_FUNCS),
)

# (module, attribute or Class.attribute, counter name)
COUNTERS = (
    ("oracle", "MatrixRep.__mul__", "oracle.matmul_calls"),
    ("gf", "FieldDesc.mul_c", "gf.mul_ops"),
    ("gf", "FieldDesc.add_c", "gf.add_ops"),
    ("polyalg", "Poly.__init__", "polyalg.poly_inits"),
    ("_numth", "factorint", "numth.factorint_calls"),
)

# lru caches whose statistics are reported: (module, function, key)
CACHES = (
    ("polyalg", "factor", "polyalg.factor_cache"),
    ("polyalg", "irreducible_polys", "polyalg.sieve_cache"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, case]
        self.counts: Counter = Counter()
        self.case = ""
        self._stack: list[int] = []
        self._caches: dict = {}
        self._groups_seen: set = set()
        self.missing: set = set()  # (target, name) pairs that were not wrapped

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.case])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _classes_getter(self, fget):
        # Also tallies the codes held in class member sets, once per group.
        def getter(group):
            classes = fget(group)
            if id(group) not in self._groups_seen:
                self._groups_seen.add(id(group))
                if not all(hasattr(c, "member_codes") for c in classes):
                    self.missing.add(("oracle.ConjClass.member_codes",
                                      "oracle.class_member_codes"))
                self.counts["oracle.class_member_codes"] += sum(
                    len(getattr(c, "member_codes", ())) for c in classes
                )
            return classes

        return getter

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {}
        for mod, _, _ in SPANS + COUNTERS:
            modules[mod] = importlib.import_module(f"{PACKAGE}.{mod}")
        for mod, func, key in CACHES:
            fn = getattr(modules[mod], func, None)
            if fn is not None and hasattr(fn, "cache_info"):
                self._caches[key] = fn
            else:
                self.missing.add((f"{mod}.{func}.cache_info", key))
        for targets, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for mod, attr, name in targets:
                self._patch(modules[mod], attr, name, make)

    def _patch(self, module, attr, name, make):
        if "." in attr:
            cls_name, member = attr.split(".")
            cls = getattr(module, cls_name, None)
            original = cls.__dict__.get(member) if cls is not None else None
            if original is None:
                self.missing.add((f"{module.__name__}.{attr}", name))
                return
            if isinstance(original, property):
                getter = original.fget
                if member == "classes":
                    getter = self._classes_getter(getter)
                setattr(cls, member, property(make(name, getter)))
            else:
                setattr(cls, member, make(name, original))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add((f"{module.__name__}.{attr}", name))
            return
        wrapper = make(name, original)
        # the package imports names across its modules: replace every binding
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != PACKAGE:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    # -- results ------------------------------------------------------------

    def report(self) -> dict:
        """Self time and call count per span name, counters, cache statistics."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        caches = {}
        for key, fn in self._caches.items():
            info = fn.cache_info()
            caches[key] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "caches": caches,
            "spans": len(spans),
            "missing": sorted(self.missing),
        }

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "case"],
                    "spans": self.spans,
                },
                fh,
            )


def merge_reports(reports) -> dict:
    """Sum several `Tracer.report()` results (one per traced process)."""
    out = {"self_s": Counter(), "calls": Counter(), "counts": Counter(), "caches": {},
           "spans": 0, "missing": set()}
    for rep in reports:
        for key in ("self_s", "calls", "counts"):
            out[key].update(rep[key])
        for key, info in rep["caches"].items():
            acc = out["caches"].setdefault(key, Counter())
            acc.update(info)
        out["spans"] += rep["spans"]
        out["missing"].update(tuple(m) for m in rep["missing"])
    out["missing"] = sorted(out["missing"])
    out["caches"] = {k: dict(v) for k, v in out["caches"].items()}
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in out.items()}
