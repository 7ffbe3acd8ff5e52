"""Span tracing from outside the package.

The tracer replaces public qrlab functions with wrappers at runtime, on every
module attribute through which they are reached (``fourier`` imports
``eps3_spectral`` by name, ``reglab`` imports the group constructors by name,
and so on).  Each wrapped call records one span: metric name, start, end,
parent span and the id of the benchmark item it belongs to.  Spans stay in
memory and are written out once, when the run ends.

Self time of a span is its duration minus the time covered by its child
spans.  A metric's ``calls`` counts only spans that are not nested inside a
span of the same metric, so ``FieldOps.pow`` calling ``mul`` or
``additive_group`` calling ``make_group`` counts once.
"""

from __future__ import annotations

import functools
import hashlib
from collections import defaultdict
from time import perf_counter

# Per-layer metrics: name -> stats reported.  Order is the report order.
LAYER_METRICS = {
    "ffield.make_field": ("calls", "self_s"),
    "ffield.arith": ("calls", "self_s", "elems"),
    "ffield.tables": ("calls", "self_s"),
    "defform.parse": ("calls", "self_s"),
    "defform.evaluate": ("calls", "self_s", "cells"),
    "grp.build": ("calls", "self_s"),
    "grp.normal_subgroups_up_to_index": ("calls", "self_s", "returned"),
    "grp.cosets": ("calls", "self_s"),
    "grp.character_phases": ("calls", "self_s", "unique_ratio"),
    "grp.conjugacy_classes": ("calls", "self_s"),
    "quasi.cayley_bipartite": ("calls", "self_s"),
    "quasi.eps1_quasirandomness": ("calls", "self_s", "unique_ratio"),
    "quasi.eps2_exact": ("calls", "self_s"),
    "quasi.eps3_spectral": ("calls", "self_s", "unique_ratio"),
    "quasi.verify_gowers_relations": ("calls", "self_s"),
    "fourier.subset_qr_spectral": ("calls", "self_s"),
    "fourier.subset_qr_characters": ("calls", "self_s"),
    "fourier.abelian_characters": ("calls", "self_s"),
    "fourier.irrep_dimensions": ("calls", "self_s"),
    "reglab.instantiate": ("calls", "self_s"),
    "reglab.sweep": ("calls", "self_s"),
    "reglab.subgroup_search": ("calls", "self_s"),
    "reglab.translate_fourier_eps": ("calls", "self_s"),
    "reglab.estimate_dim_measure": ("calls", "self_s"),
    "reglab.check_ratio_stability": ("calls", "self_s"),
}
LAYERS = ("ffield", "defform", "grp", "quasi", "fourier", "reglab")

# Whole-run figures of the traced passes, reported next to the layer metrics.
RUN_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_self_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}

STAT_UNITS = {"calls": "count", "self_s": "s", "elems": "count",
              "cells": "count", "returned": "count", "unique_ratio": "ratio"}


def per_layer_units() -> dict:
    """Every per-layer metric name the traced run prints, with its unit."""
    units = {}
    for name, stats in LAYER_METRICS.items():
        for stat in stats:
            units[f"{name}.{stat}"] = STAT_UNITS[stat]
    for layer in LAYERS:
        units[f"{layer}.all.self_s"] = "s"
    units.update(RUN_METRICS)
    return units


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    """Records spans while ``active``; wrappers call straight through otherwise."""

    def __init__(self):
        self.active = False
        self.item = None
        self.spans = []   # [name, start, end, parent index, item id]
        self.extra = []   # per span: {stat: amount} or None
        self.keys = []    # per span: input digest for unique_ratio, or None
        self._stack = []

    def wrap(self, name, fn, key=None, extra=None):
        """Wrapper of fn recording a span named name.

        key(args, kwargs) gives the input digest, extra(args, kwargs, result)
        a {stat: amount} dict; both run outside the span's own interval.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            k = key(args, kwargs) if key else None
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.item]
            tracer.spans.append(span)
            tracer.keys.append(k)
            tracer.extra.append(None)
            tracer._stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if extra:
                tracer.extra[idx] = extra(args, kwargs, out)
            return out

        return traced

    def summarize(self, items=None) -> dict:
        """Per-metric stats over the spans whose item id is in items (all when
        None): calls, self_s, extra counters and unique_ratio."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out = defaultdict(lambda: defaultdict(float))
        distinct = defaultdict(set)
        for i, s in enumerate(spans):
            if items is not None and s[4] not in items:
                continue
            name = s[0]
            stats = out[name]
            stats["self_s"] += (s[2] - s[1]) - child_time[i]
            # outermost span of this metric: counts as a call
            p = s[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p >= 0:
                continue
            stats["calls"] += 1
            if self.extra[i]:
                for stat, amount in self.extra[i].items():
                    stats[stat] += amount
            if self.keys[i] is not None:
                distinct[name].add(self.keys[i])
        for name, keys in distinct.items():
            out[name]["unique_ratio"] = len(keys) / out[name]["calls"]
        return {name: dict(stats) for name, stats in out.items()}


def install(tracer: Tracer) -> None:
    """Replaces the public qrlab functions with traced wrappers."""
    from qrlab import defform, ffield, fourier, grp, quasi, reglab

    def patch(name, owner_attrs, key=None, extra=None):
        fn = getattr(*owner_attrs[0])
        wrapped = tracer.wrap(name, fn, key=key, extra=extra)
        for owner, attr in owner_attrs:
            if getattr(owner, attr) is not fn:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the "
                                   f"function traced as {name}")
            setattr(owner, attr, wrapped)

    group_key = lambda a, kw: _digest(a[0].table)
    graph_key = lambda a, kw: _digest(a[0].adj)

    def elems(a, kw, out):
        return {"elems": int(getattr(out, "size", 1))}

    def cells(a, kw, out):
        f, spec = a[0], a[1]
        return {"cells": spec.q ** (len(f.free_vars) + defform._max_depth(f.ast))}

    def returned(a, kw, out):
        return {"returned": len(out)}

    patch("ffield.make_field", [(ffield, "make_field"), (reglab, "make_field")])
    for op in ("add", "sub", "mul", "pow"):
        patch("ffield.arith", [(ffield.FieldOps, op)], extra=elems)
    for tab in ("add_table", "mul_table"):
        patch("ffield.tables", [(ffield.FieldOps, tab)])

    patch("defform.parse", [(defform, "parse")])
    patch("defform.evaluate", [(defform, "evaluate")], extra=cells)

    patch("grp.build", [(grp, "make_group")])
    for ctor in ("additive_group", "multiplicative_group", "sl2", "subgroup_group"):
        patch("grp.build", [(grp, ctor), (reglab, ctor)])
    for ctor in ("cyclic_group", "quotient_group"):
        patch("grp.build", [(grp, ctor)])
    patch("grp.normal_subgroups_up_to_index",
          [(grp, "normal_subgroups_up_to_index"),
           (reglab, "normal_subgroups_up_to_index")], extra=returned)
    patch("grp.cosets", [(grp, "cosets"), (reglab, "cosets")])
    patch("grp.character_phases", [(grp, "character_phases"),
                                   (fourier, "character_phases")], key=group_key)
    patch("grp.conjugacy_classes", [(grp, "conjugacy_classes"),
                                    (fourier, "conjugacy_classes")])

    patch("quasi.cayley_bipartite", [(quasi, "cayley_bipartite"),
                                     (fourier, "cayley_bipartite")])
    patch("quasi.eps1_quasirandomness", [(quasi, "eps1_quasirandomness"),
                                         (fourier, "eps1_quasirandomness")],
          key=graph_key)
    patch("quasi.eps2_exact", [(quasi, "eps2_exact")])
    patch("quasi.eps3_spectral", [(quasi, "eps3_spectral"),
                                  (fourier, "eps3_spectral")], key=graph_key)
    patch("quasi.verify_gowers_relations", [(quasi, "verify_gowers_relations")])

    patch("fourier.subset_qr_spectral", [(fourier, "subset_qr_spectral")])
    patch("fourier.subset_qr_characters", [(fourier, "subset_qr_characters")])
    patch("fourier.abelian_characters", [(fourier, "abelian_characters")])
    patch("fourier.irrep_dimensions", [(fourier, "irrep_dimensions")])

    patch("reglab.instantiate", [(reglab.Family, "instantiate")])
    patch("reglab.sweep", [(reglab, "sweep")])
    patch("reglab.subgroup_search", [(reglab, "subgroup_search")])
    patch("reglab.translate_fourier_eps", [(reglab, "_translate_fourier_eps")])
    patch("reglab.estimate_dim_measure", [(reglab, "estimate_dim_measure")])
    patch("reglab.check_ratio_stability", [(reglab, "check_ratio_stability")])
