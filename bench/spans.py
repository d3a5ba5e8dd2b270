"""Span tracing around the public functions of the powergenus modules.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``powergenus`` module that holds a reference to it, so calls that one
module makes into another (``genus`` -> ``embed.search_embedding``,
``classifier`` -> ``groups.is_isomorphic``) are traced as well as the
benchmark's own calls.  ``uninstall`` puts the original objects back.

Spans are kept in memory.  Each records its name, start, end, parent and
the item it belongs to; a span's self time is its duration minus the time
covered by its child spans.  The tracer keeps one span stack, so it assumes
that one traced call runs at a time: the CLI's classification pool runs with
a single worker while the main thread waits for it.
"""

from __future__ import annotations

import sys
import time
from statistics import median_low

#: Traced functions per layer.  The layers are the package modules.
TRACED = {
    "groups": ("named", "direct_product", "semidirect_product",
               "from_generators", "order_spectrum", "cyclic_subgroup",
               "cyclic_subgroups_of_order", "six_profile", "is_isomorphic"),
    "catalog": ("get", "build_recipe"),
    "powergraph": ("power_graph", "induced"),
    "classifier": ("classify", "replay_trail", "verdict_record"),
    "cli": ("main",),
    "genus": ("blocks", "is_planar", "genus_exact", "crosscap_exact",
              "compose_blocks"),
    "embed": ("search_embedding", "trace_faces", "certificate_to_text",
              "verify_certificate"),
}
LAYERS = tuple(TRACED)
#: Every per-layer metric, as the traced run reports it; a workload that
#: does not touch a layer reports 0 for it.
PER_LAYER = (
    "embed.nodes", "embed.search_s", "embed.nodes_per_s", "embed.search_calls",
    "embed.found", "embed.exhausted", "embed.capped", "embed.useful_ratio",
    "embed.trace_faces_s", "embed.trace_faces_calls", "embed.verify_s",
    "embed.self_s",
    "genus.planarity_s", "genus.planarity_calls", "genus.nonplanar_s",
    "genus.blocks_s", "genus.genus_exact_s", "genus.crosscap_exact_s",
    "genus.exact_blocks", "genus.bounds_blocks", "genus.blocks",
    "genus.repeat_blocks", "genus.nonplanar_blocks",
    "genus.repeat_nonplanar_blocks", "genus.formula_blocks", "genus.self_s",
    "catalog.build_s", "catalog.builds", "catalog.self_s",
    "groups.invariants_s", "groups.isomorphism_calls", "groups.self_s",
    "powergraph.power_graph_s", "powergraph.edges", "powergraph.self_s",
    "classifier.classify_s", "classifier.trail_steps", "classifier.replay_s",
    "classifier.self_s",
    "cli.classify_all_s", "cli.self_s",
    "trace.spans", "trace.overhead_s", "trace.overhead_share",
)
INVARIANTS = frozenset(f"groups.{f}" for f in (
    "order_spectrum", "cyclic_subgroup", "cyclic_subgroups_of_order",
    "six_profile"))


class Span:
    __slots__ = ("name", "parent", "item", "start", "end", "child_s", "result")

    def __init__(self, name: str, parent: "Span | None", item: int):
        self.name = name
        self.parent = parent
        self.item = item
        self.start = self.end = self.child_s = 0.0
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def within(self, names) -> bool:
        """True when some ancestor span has one of the given names."""
        p = self.parent
        while p is not None:
            if p.name in names:
                return True
            p = p.parent
        return False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.item = -1
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else None, tracer.item)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                tracer.spans.append(span)
            return span.result

        return traced

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if k == "powergenus" or k.startswith("powergenus.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"powergenus.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patched.append((mod, key, orig))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()


def _outer_time(spans, names) -> float:
    """Wall time covered by spans in ``names``, not counting a span twice
    when it runs inside another one of them."""
    return sum(s.duration for s in spans
               if s.name in names and not s.within(names))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer values for one pass, from its spans.  Values read from
    results count the calls that returned; a call that raised has already
    failed its item."""
    by: dict[str, list[Span]] = {}
    for s in spans:
        if s.result is not None:
            by.setdefault(s.name, []).append(s)

    def get(name):
        return by.get(name, [])

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s.self_s for s in spans
                                     if s.name.startswith(layer + "."))

    searches = get("embed.search_embedding")
    nodes = sum(s.result.nodes for s in searches)
    search_s = sum(s.duration for s in searches)
    status = [s.result.status for s in searches]
    out["embed.nodes"] = nodes
    out["embed.search_s"] = search_s
    out["embed.nodes_per_s"] = nodes / search_s if search_s > 0 else 0.0
    out["embed.search_calls"] = len(searches)
    out["embed.found"] = status.count("found")
    out["embed.exhausted"] = status.count("exhausted")
    out["embed.capped"] = status.count("budget")
    out["embed.useful_ratio"] = ((len(status) - status.count("budget"))
                                 / len(status) if status else 0.0)
    out["embed.trace_faces_s"] = _outer_time(spans, {"embed.trace_faces"})
    out["embed.trace_faces_calls"] = len(get("embed.trace_faces"))
    out["embed.verify_s"] = _outer_time(spans, {"embed.verify_certificate"})

    planar = get("genus.is_planar")
    out["genus.planarity_s"] = sum(s.duration for s in planar)
    out["genus.planarity_calls"] = len(planar)
    out["genus.nonplanar_s"] = sum(s.duration for s in planar
                                   if not s.result.planar)
    out["genus.blocks_s"] = _outer_time(spans, {"genus.blocks"})
    out["genus.genus_exact_s"] = sum(s.self_s for s in get("genus.genus_exact"))
    out["genus.crosscap_exact_s"] = sum(
        s.self_s for s in get("genus.crosscap_exact"))

    builds = [s for s in get("catalog.build_recipe")
              if not s.within({"catalog.build_recipe"})]
    out["catalog.build_s"] = _outer_time(
        spans, {"catalog.get", "catalog.build_recipe"})
    out["catalog.builds"] = len(builds)
    out["groups.invariants_s"] = _outer_time(spans, INVARIANTS)
    out["groups.isomorphism_calls"] = len(get("groups.is_isomorphic"))

    pgs = get("powergraph.power_graph")
    out["powergraph.power_graph_s"] = sum(s.duration for s in pgs)
    out["powergraph.edges"] = sum(s.result.m for s in pgs)

    out["classifier.classify_s"] = _outer_time(spans, {"classifier.classify"})
    out["classifier.trail_steps"] = sum(len(s.result.trail)
                                        for s in get("classifier.classify"))
    out["classifier.replay_s"] = _outer_time(spans, {"classifier.replay_trail"})
    out["cli.classify_all_s"] = _outer_time(spans, {"cli.main"})
    out["trace.spans"] = len(spans)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-pass value over the traced passes (the lower one
    of the middle two, so that it is a value some pass had)."""
    return {k: median_low(p[k] for p in per_pass) for k in per_pass[0]}
