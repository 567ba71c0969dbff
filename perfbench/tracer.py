"""Span tracing from outside the program: wrappers at geowl's binding sites.

`Tracer.install` replaces each function named in `BINDINGS` on the module
or class that calls it with a wrapper that records a span (name, start,
end, parent) and, for some sites, counts taken from the arguments or the
result.  Several sites may share a span name when modules import the same
function under their own names.  `Tracer.restore` puts the originals back.
Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

from geowl import oneshot, oracle, recon2d, recon_nd, wl

LAYERS = ("wl", "geometry", "recon2d", "recon_nd", "oneshot", "oracle")


# -- counters taken at a binding site: before(args) -> state, after(counts, state, result)

def _refine_before(args, kwargs):
    store = args[0]
    return store.interner, len(store.interner.kinds), store.n ** store.ell


def _refine_after(counts, state, result):
    interner, before, tuples = state
    counts["wl.tuples_refined"] += tuples
    counts["wl.classes_new"] += len(interner.kinds) - before


def _planar_after(counts, state, result):
    counts["recon2d.rounds"] += result.rounds
    counts["recon2d.round_bound"] += result.round_bound


def _profiles_after(counts, state, result):
    counts["recon_nd.enhanced_profiles.count"] += len(result)


def _nd_after(counts, state, result):
    c = result.counters
    counts["recon_nd.accepted"] += 1
    counts["recon_nd.candidates_tried"] += c.get("candidates_tried", 0)
    counts["recon_nd.candidates_total"] += c.get("total_candidates", 0)
    counts["recon_nd.depth"] += c.get("depth", 0)
    counts["recon_nd.gamma_bound"] += c.get("gamma_bound", 0)


def _oneshot_before(args, kwargs):
    return args[0].n


def _oneshot_after(counts, state, result):
    tried = result.counters.get("candidates_tried", 0)
    counts["oneshot.candidates_tried"] += tried
    counts["oneshot.tried_x_n"] += tried * state


def _oneshot_mirror_after(counts, state, result):
    counts["oneshot.mirror_pair.calls"] += 1


def _oracle_after(counts, state, result):
    counts["oracle.accepted"] += result is not None


# (owner, attribute, span name, before, after)
BINDINGS = [
    (wl, "run_wl", "wl.run_wl", None, None),
    (wl, "initial_coloring", "wl.initial_coloring", None, None),
    (wl, "store_from_sq_values", "wl.store_from_sq_values", None, None),
    (wl, "refine", "wl.refine", _refine_before, _refine_after),
    (wl, "fingerprint", "wl.fingerprint", None, None),
    (wl, "compare", "wl.compare", None, None),
    (recon_nd, "run_wl", "recon_nd.verify", None, None),
    (recon_nd, "run_wl_from_sq_values", "recon_nd.verify", None, None),
    (recon_nd, "fingerprint", "wl.fingerprint", None, None),
    (recon_nd, "compare", "wl.compare", None, None),
    (recon_nd, "mirror_pair", "geometry.mirror_pair", None, None),
    (recon_nd, "anchor_embed", "geometry.anchor_embed", None, None),
    (recon_nd, "solid_angle_mc", "geometry.solid_angle_mc", None, None),
    (recon_nd, "trilaterate", "geometry.trilaterate", None, None),
    (recon_nd, "reconstruct_nd", "recon_nd.reconstruct_nd", None, _nd_after),
    (recon_nd, "enhanced_profiles_from_wl3", "recon_nd.enhanced_profiles", None,
     _profiles_after),
    (recon_nd, "select_cone_tuple", "recon_nd.select", None, None),
    (recon_nd, "reconstruct_fulldim", "recon_nd.fulldim", None, None),
    (recon_nd, "reconstruct_lowdim", "recon_nd.lowdim", None, None),
    (recon_nd.ForbiddenRegion, "membership", "recon_nd.membership", None, None),
    (oneshot, "reconstruct_one_iter", "oneshot.reconstruct_one_iter", _oneshot_before,
     _oneshot_after),
    (oneshot, "mirror_pair", "geometry.mirror_pair", None, _oneshot_mirror_after),
    (oneshot, "anchor_embed", "geometry.anchor_embed", None, None),
    (oneshot, "trilaterate", "geometry.trilaterate", None, None),
    (recon2d, "reconstruct_planar", "recon2d.reconstruct_planar", None, None),
    (recon2d, "init2d", "recon2d.init2d", None, None),
    (recon2d, "reconstruct2d", "recon2d.reconstruct2d", None, _planar_after),
    (oracle, "search_indistinguishable", "oracle.search_indistinguishable", None, None),
    (oracle, "is_isometric", "oracle.is_isometric", None, _oracle_after),
]

# per-layer metric -> unit; every traced run reports all of them
PER_LAYER_UNITS = {
    "wl.initial_coloring.s": "s", "wl.refine.s": "s", "wl.refine.calls": "count",
    "wl.fingerprint.s": "s", "wl.compare.s": "s", "wl.tuples_refined": "count",
    "wl.classes_new": "count", "wl.intern_hit_ratio": "ratio", "wl.self_s": "s",
    "geometry.mirror_pair.calls": "count", "geometry.mirror_pair.s": "s",
    "geometry.anchor_embed.calls": "count", "geometry.anchor_embed.s": "s",
    "geometry.solid_angle_mc.calls": "count", "geometry.solid_angle_mc.s": "s",
    "geometry.trilaterate.calls": "count", "geometry.self_s": "s",
    "recon2d.init2d.s": "s", "recon2d.reconstruct2d.s": "s", "recon2d.rounds": "count",
    "recon2d.round_bound": "count", "recon2d.self_s": "s",
    "recon_nd.enhanced_profiles.s": "s", "recon_nd.enhanced_profiles.count": "count",
    "recon_nd.select.s": "s", "recon_nd.fulldim.s": "s", "recon_nd.fulldim.calls": "count",
    "recon_nd.lowdim.calls": "count", "recon_nd.membership.calls": "count",
    "recon_nd.membership.s": "s", "recon_nd.verify.s": "s",
    "recon_nd.candidates_tried": "count", "recon_nd.candidates_total": "count",
    "recon_nd.accept_ratio": "ratio", "recon_nd.depth": "count",
    "recon_nd.gamma_bound": "count", "recon_nd.self_s": "s",
    "oneshot.reconstruct_one_iter.s": "s", "oneshot.candidates_tried": "count",
    "oneshot.mirror_pair.useful_ratio": "ratio", "oneshot.self_s": "s",
    "oracle.is_isometric.s": "s", "oracle.is_isometric.calls": "count",
    "oracle.accept_ratio": "ratio", "oracle.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


class Tracer:
    """Spans and counts of one traced run, and the wrappers that record them."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name."""
        spans, stack = self.spans, self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def _wrap(self, name, fn, before, after):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            result = self.span(name, fn, *args, **kwargs)
            if after:
                after(counts, state, result)
            return result
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, before, after in BINDINGS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, before, after))

    def restore(self) -> list[tuple]:
        """Put the originals back; returns the (owner, attribute, original) list."""
        restored = []
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            restored.append((owner, attr, original))
        return restored


def originals_in_place(restored: list[tuple]) -> bool:
    return all(vars(owner)[attr] is original for owner, attr, original in restored)


def span_totals(spans: list[list], offset: int):
    """Total seconds, calls and self seconds per span name.

    `spans` are one pass's spans, the first of which has index `offset` in
    the tracer's list (parents refer to those indices).  A span's self time
    is its duration minus the durations of its child spans.
    """
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = defaultdict(float)
    calls = Counter()
    self_time = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans, start=offset):
        total[name] += end - start
        calls[name] += 1
        self_time[name] += end - start - child_time[i]
    return total, calls, self_time


def layer_metrics(spans: list[list], offset: int, counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counts."""
    counts = Counter(counts)
    total, calls, self_time = span_totals(spans, offset)
    self_by_layer = defaultdict(float)
    for name, t in self_time.items():
        self_by_layer[name.split(".", 1)[0]] += t

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "wl.initial_coloring.s": total["wl.initial_coloring"],
        "wl.refine.s": total["wl.refine"],
        "wl.refine.calls": calls["wl.refine"],
        "wl.fingerprint.s": total["wl.fingerprint"],
        "wl.compare.s": total["wl.compare"],
        "wl.tuples_refined": counts["wl.tuples_refined"],
        "wl.classes_new": counts["wl.classes_new"],
        "wl.intern_hit_ratio": (1.0 - ratio(counts["wl.classes_new"],
                                            counts["wl.tuples_refined"])
                                if counts["wl.tuples_refined"] else 0.0),
        "geometry.mirror_pair.calls": calls["geometry.mirror_pair"],
        "geometry.mirror_pair.s": total["geometry.mirror_pair"],
        "geometry.anchor_embed.calls": calls["geometry.anchor_embed"],
        "geometry.anchor_embed.s": total["geometry.anchor_embed"],
        "geometry.solid_angle_mc.calls": calls["geometry.solid_angle_mc"],
        "geometry.solid_angle_mc.s": total["geometry.solid_angle_mc"],
        "geometry.trilaterate.calls": calls["geometry.trilaterate"],
        "recon2d.init2d.s": total["recon2d.init2d"],
        "recon2d.reconstruct2d.s": total["recon2d.reconstruct2d"],
        "recon2d.rounds": counts["recon2d.rounds"],
        "recon2d.round_bound": counts["recon2d.round_bound"],
        "recon_nd.enhanced_profiles.s": total["recon_nd.enhanced_profiles"],
        "recon_nd.enhanced_profiles.count": counts["recon_nd.enhanced_profiles.count"],
        "recon_nd.select.s": total["recon_nd.select"],
        "recon_nd.fulldim.s": total["recon_nd.fulldim"],
        "recon_nd.fulldim.calls": calls["recon_nd.fulldim"],
        "recon_nd.lowdim.calls": calls["recon_nd.lowdim"],
        "recon_nd.membership.calls": calls["recon_nd.membership"],
        "recon_nd.membership.s": total["recon_nd.membership"],
        "recon_nd.verify.s": total["recon_nd.verify"],
        "recon_nd.candidates_tried": counts["recon_nd.candidates_tried"],
        "recon_nd.candidates_total": counts["recon_nd.candidates_total"],
        "recon_nd.accept_ratio": ratio(counts["recon_nd.accepted"],
                                       counts["recon_nd.candidates_tried"]),
        "recon_nd.depth": counts["recon_nd.depth"],
        "recon_nd.gamma_bound": counts["recon_nd.gamma_bound"],
        "oneshot.reconstruct_one_iter.s": total["oneshot.reconstruct_one_iter"],
        "oneshot.candidates_tried": counts["oneshot.candidates_tried"],
        "oneshot.mirror_pair.useful_ratio": ratio(counts["oneshot.tried_x_n"],
                                                  counts["oneshot.mirror_pair.calls"]),
        "oracle.is_isometric.s": total["oracle.is_isometric"],
        "oracle.is_isometric.calls": calls["oracle.is_isometric"],
        "oracle.accept_ratio": ratio(counts["oracle.accepted"],
                                     calls["oracle.is_isometric"]),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m
