"""The benchmark workloads: ``classify`` and ``sweep``.

Each workload builds its inputs from a seed, runs one item at a time through
the package's public functions, and checks every output it timed.  The
seed shuffles the item order and, for ``sweep``, renames the elements of
each group, which relabels the vertices of its power graph.  Seed 0 keeps
the original labels and order.  Answers do not depend on either.

A workload exposes:
  ``items``             the inputs of one pass, in order
  ``run(item)``         the timed call(s) for one item
  ``check(item, out)``  correctness of one output (False counts as failed)
  ``check_pass(outs)``  checks that need a whole pass
  ``exact(item, out)``  whether the item concluded exactly
and, for the traced run, ``pass_counters(outs)`` and ``properties()``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import warnings

import networkx as nx
import numpy as np

import powergenus.catalog as catalog
import powergenus.classifier as classifier
import powergenus.cli as cli
import powergenus.embed as embed
import powergenus.genus as genus
import powergenus.powergraph as powergraph
from powergenus.groups import FiniteGroup

#: Node cap per search level in ``sweep``.  The wall-clock cap is out of
#: reach, so whether a block comes out exact depends on node counts only.
#: The searches that complete in the sweep need 16-630 or 1,005 nodes,
#: whatever the labelling, so the cap sits clear of both.
SWEEP_NODES = 800


def _budget(nodes: int) -> embed.Budget:
    return embed.Budget(max_nodes=nodes, max_seconds=math.inf)


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{seed}:{salt}")


def _shuffled(items: list, seed: int) -> list:
    items = list(items)
    if seed:
        _rng(seed, "order").shuffle(items)
    return items


def _permutation(n: int, seed: int, salt: str) -> list[int]:
    """old index -> new index, keeping 0 (the identity) in place."""
    rest = list(range(1, n))
    if seed:
        _rng(seed, salt).shuffle(rest)
    return [0] + rest


def relabel_group(g: FiniteGroup, perm: list[int]) -> FiniteGroup:
    """The same group with element x renamed perm[x] (perm[0] == 0)."""
    inv = np.empty(len(perm), dtype=np.int64)
    inv[perm] = np.arange(len(perm))
    p = np.asarray(perm)
    return FiniteGroup(p[g.table[np.ix_(inv, inv)]], label=g.label)


class Workload:
    name = ""
    items: list = []

    def check_pass(self, results) -> bool:
        return True

    def pass_counters(self, results) -> dict[str, int]:
        return {}

    def properties(self) -> dict[str, int]:
        return {}


# ---------------------------------------------------------------------------
# classify: the cheap engine over the whole catalog, built cold
# ---------------------------------------------------------------------------

CLI_ARGS = ("classify", "--all-catalog", "--format", "records",
            "--no-timestamp")


class Classify(Workload):
    """Build, power graph, classify and replay each catalog group, then one
    in-process ``powergenus classify --all-catalog``.  Every item starts
    with an empty ``catalog.get`` cache, as a fresh process does, so its
    cost does not depend on the items before it."""

    name = "classify"

    def __init__(self, seed: int, small: bool = False):
        labels = [e.label for e in catalog.entries()]
        if small:
            labels = labels[:8]
        self.items = _shuffled(labels, seed) + ["cli"]
        self._cli_text: str | None = None
        # taken before any tracing wraps catalog.get
        self._clear_cache = catalog.get.cache_clear

    def run(self, item):
        self._clear_cache()
        if item == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(CLI_ARGS))
            return code, buf.getvalue()
        g = catalog.get(item)
        graph = powergraph.power_graph(g)
        v = classifier.classify(g)
        return g, graph, v, classifier.replay_trail(v.trail)

    def check(self, item, result) -> bool:
        if item == "cli":
            code, text = result
            if self._cli_text is None:
                self._cli_text = text
            return (code == 0 and text == self._cli_text
                    and len(text.splitlines()) == len(catalog.entries()))
        g, graph, v, replayed = result
        two = item in catalog.TABLE1_LABELS
        return (replayed and graph.n == g.order
                and (v.orientable == "two") == two
                and v.table1_label == (item if two else None))

    def check_pass(self, results) -> bool:
        """Each group's record line appears in the CLI output."""
        cli_lines = None
        records = []
        for item, result in results:
            if isinstance(result, BaseException):
                return False
            if item == "cli":
                cli_lines = set(result[1].splitlines())
            else:
                g, _, v, _ = result
                records.append(classifier.verdict_record(item, g, v))
        return cli_lines is not None and all(r in cli_lines for r in records)

    def exact(self, item, result) -> bool:
        return True


# ---------------------------------------------------------------------------
# sweep: the search engine over every block of every catalog power graph
# ---------------------------------------------------------------------------

def _engine_interval(per, composed):
    """(orientable, nonorientable) value intervals, composed the way
    ``classifier.cross_validate`` composes them."""
    if composed is not None:
        o, n = composed
        return {"orientable": (o.value, o.value),
                "nonorientable": (n.value, n.value)}
    o_lo = sum(og.lower for og, _ in per)
    o_hi = sum(og.upper for og, _ in per)
    n_lo = (1 - len(per) + sum(max(ng.lower, 1) for _, ng in per)
            if all(ng.lower >= 1 for _, ng in per) else 0)
    n_hi = sum(max(ng.upper, 2 * og.upper + 1) for og, ng in per)
    return {"orientable": (o_lo, o_hi), "nonorientable": (n_lo, n_hi)}


def _verdict_interval(kind, value):
    """Values compatible with a classifier verdict; None is unbounded."""
    return {"planar": (0, 0), "one": (1, 1), "two": (2, 2),
            "at_least_three": (3, None), "not_two": (3, None),
            "exact": (value, value), "other_with_bounds": (1, None)}[kind]


def _cert_ok(result, verified, orientable: bool) -> bool:
    """The upper certificate's embedding re-traces to the claimed value,
    and a search lower bound comes from a completed exhaustion."""
    lc = result.lower_certificate
    if lc.get("method") == "exhaustive_search" and lc.get("completed") is not True:
        return False
    ok, _ = verified
    tr = result.upper_certificate["trace"]
    if not ok:
        return False
    if result.upper == 0:
        return tr.euler_genus == 0
    if orientable:
        return tr.orientable and tr.euler_genus == 2 * result.upper
    return not tr.orientable and tr.euler_genus == result.upper


class Sweep(Workload):
    """blocks -> genus_exact / crosscap_exact per block -> compose_blocks,
    for every catalog group, with every embedding certificate verified."""

    name = "sweep"
    SMALL = ("[8,1]", "Q8", "[12,5]", "A4", "Z3xZ6")

    def __init__(self, seed: int, small: bool = False):
        labels = (list(self.SMALL) if small
                  else [e.label for e in catalog.entries()])
        self.groups = {}
        for label in labels:
            g = catalog.get(label)
            self.groups[label] = relabel_group(
                g, _permutation(g.order, seed, label))
        self.items = _shuffled(labels, seed)
        self.nodes = 300 if small else SWEEP_NODES
        self._verdicts: dict = {}

    def run(self, item):
        budget = _budget(self.nodes)
        per = []
        for b in genus.blocks(powergraph.power_graph(self.groups[item])):
            og = genus.genus_exact(b, budget)
            ng = genus.crosscap_exact(b, budget)
            per.append((b, og, ng))
        pairs = [(og, ng) for _, og, ng in per]
        composed = None
        if all(og.kind == "exact" and ng.kind == "exact" for og, ng in pairs):
            composed = genus.compose_blocks(pairs)
        verified = []
        for b, og, ng in per:
            verified.append(tuple(
                embed.verify_certificate(embed.certificate_to_text(
                    b, r.upper_certificate["rotation"],
                    r.upper_certificate["trace"]))
                for r in (og, ng)))
        return pairs, composed, verified

    def _verdict(self, item):
        if item not in self._verdicts:
            self._verdicts[item] = classifier.classify(self.groups[item])
        return self._verdicts[item]

    def check(self, item, result) -> bool:
        pairs, composed, verified = result
        for (og, ng), (vo, vn) in zip(pairs, verified):
            if not (_cert_ok(og, vo, True) and _cert_ok(ng, vn, False)):
                return False
        if composed is not None and composed[1].value == 2:
            return False
        engine = _engine_interval(pairs, composed)
        v = self._verdict(item)
        for surface, kind, value in (
                ("orientable", v.orientable, v.orientable_value),
                ("nonorientable", v.nonorientable, v.nonorientable_value)):
            lo, hi = _verdict_interval(kind, value)
            e_lo, e_hi = engine[surface]
            if (hi is not None and e_lo > hi) or e_hi < lo:
                return False
        return True

    def exact(self, item, result) -> bool:
        return result[1] is not None

    def pass_counters(self, results) -> dict[str, int]:
        exact = bounds = 0
        for _, result in results:
            if isinstance(result, BaseException):
                continue
            for og, ng in result[0]:
                if og.kind == "exact" and ng.kind == "exact":
                    exact += 1
                else:
                    bounds += 1
        return {"genus.exact_blocks": exact, "genus.bounds_blocks": bounds}

    def properties(self) -> dict[str, int]:
        """How much of the sweep a block cache or a K_n / K_{m,n} formula
        oracle could serve: blocks isomorphic to an earlier block, and
        nonplanar blocks that are complete or complete bipartite."""
        seen: dict[tuple, list[nx.Graph]] = {}
        total = repeat = nonplanar = repeat_nonplanar = formula = 0
        for item in self.items:
            graph = powergraph.power_graph(self.groups[item])
            for b in genus.blocks(graph):
                g = b.to_networkx()
                total += 1
                planar = nx.check_planarity(g)[0]
                with warnings.catch_warnings():
                    # networkx 3.5+ warns that its hash values changed
                    warnings.simplefilter("ignore", UserWarning)
                    wl_hash = nx.weisfeiler_lehman_graph_hash(g)
                key = (b.n, b.m, wl_hash)
                reps = seen.setdefault(key, [])
                again = any(nx.is_isomorphic(g, r) for r in reps)
                if again:
                    repeat += 1
                else:
                    reps.append(g)
                if not planar:
                    nonplanar += 1
                    repeat_nonplanar += again
                    formula += _is_complete_or_bipartite(g)
        return {"genus.blocks": total, "genus.repeat_blocks": repeat,
                "genus.nonplanar_blocks": nonplanar,
                "genus.repeat_nonplanar_blocks": repeat_nonplanar,
                "genus.formula_blocks": formula}


def _is_complete_or_bipartite(g: nx.Graph) -> bool:
    n, m = g.number_of_nodes(), g.number_of_edges()
    if m == n * (n - 1) // 2:
        return True
    if not nx.is_bipartite(g):
        return False
    a, b = nx.bipartite.sets(g)
    return m == len(a) * len(b)


WORKLOADS = {w.name: w for w in (Classify, Sweep)}
