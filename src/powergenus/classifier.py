"""Decision procedure mapping a finite group to genus verdicts.

Every verdict carries a trail of certificate steps.  Each step names a rule
from a fixed registry and records the concrete data it consumed (spectrum,
order-6 subgroup profile, reduction set), so the trail can be replayed:
re-running the rule on the recorded inputs reproduces the conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog as cat
from .errors import (InternalContradiction, OrderCapExceeded, UnknownRule)
from .genus import (Budget, GenusResult, blocks, compose_bounds,
                    crosscap_exact, genus_exact, kn_genus)
from .groups import (FiniteGroup, cyclic_subgroups_of_order, is_isomorphic,
                     order_spectrum, six_profile)
from .powergraph import power_graph

ORDER_CAP = 144

#: 2-groups whose power graph has orientable genus exactly two.
_GENUS_TWO_2GROUPS = ("[8,1]", "[16,7]", "[16,8]", "[16,9]")

_PLANAR_ORDERS = frozenset({1, 2, 3, 4})
_REDUCIBLE_ORDERS = frozenset({1, 2, 3, 4})

#: The power graph of a cyclic group of order 6 is K6 minus two disjoint
#: edges: nonplanar (13 > 3*6-6 edges) and a subgraph of K6, so its genus
#: and crosscap are both exactly 1.
_HEXAGON_GENUS = 1


# ---------------------------------------------------------------------------
# certificate trail
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateStep:
    """One applied rule: id, the data it consumed, and its conclusion."""

    rule_id: str
    inputs: dict
    conclusion: str


@dataclass(frozen=True)
class Verdict:
    """Genus classification of a group's power graph.

    ``orientable`` is one of planar, one, two, at_least_three,
    other_with_bounds (or None when only the nonorientable side was run);
    ``nonorientable`` is one of planar, one, not_two (or None).
    Exact values, when known, are in ``orientable_value`` /
    ``nonorientable_value``; a verdict of two also names the matched
    ``table1_label``.
    """

    orientable: str | None
    nonorientable: str | None
    trail: tuple[CertificateStep, ...]
    orientable_value: int | None = None
    nonorientable_value: int | None = None
    table1_label: str | None = None
    reason: str | None = None

    def __post_init__(self):
        assert self.trail, "verdict must carry a nonempty trail"


# ---------------------------------------------------------------------------
# rule registry: pure functions from recorded inputs to a conclusion string
# ---------------------------------------------------------------------------

def _rule_planarity(inp: dict) -> str:
    s = set(inp["spectrum"])
    if s <= _PLANAR_ORDERS:
        return "spectrum within {1,2,3,4}: power graph planar"
    return "spectrum not within {1,2,3,4}: power graph nonplanar"


def _rule_big_cyclic(inp: dict) -> str:
    m = inp["max_order"]
    if m >= 9:
        return (f"element of order {m} gives a K{m} subgraph: genus >= 3")
    return "no element of order >= 9: rule gives no bound"


def _rule_big_cyclic_crosscap(inp: dict) -> str:
    m = inp["max_order"]
    if m >= 7:
        return (f"element of order {m} gives a K{m} subgraph: crosscap >= 3")
    return "no element of order >= 7: rule gives no bound"


def _rule_five_seven(inp: dict) -> str:
    hits = sorted(set(inp["spectrum"]) & {5, 7})
    return (f"element order(s) {hits} present: genus != 2 by the Sylow "
            "eliminations; exact genus outside the classified range")


def _rule_sylow5_blocks(inp: dict) -> str:
    c = inp["five_subgroups"]
    return (f"{c} cyclic subgroups of order 5 give {c} K5 blocks sharing "
            f"the identity: crosscap {c} >= 3")


def _rule_reduction(inp: dict) -> str:
    outside = set(inp["outside_spectrum"])
    if not outside <= {2, 3, 4}:
        return "reduction not applicable: removed elements exceed orders {2,3,4}"
    surface = inp["surface"]
    r = inp["reduced_value"]
    name = "genus" if surface == "orientable" else "crosscap"
    return (f"S = union of {inp['subgroup_count']} subgroup(s) of orders "
            f"{list(inp['subgroup_orders'])}; element orders outside S within "
            f"{{2,3,4}}; {name} of whole graph = {name} {r} of the subgraph on S")


def _rule_two_six(inp: dict) -> str:
    return ("exactly 2 cyclic subgroups of order 6: no finite group has "
            "precisely two, so the input is not a finite group")


def _rule_three_six(inp: dict) -> str:
    pairwise = list(inp["pairwise_intersections"])
    if all(k == 3 for k in pairwise):
        return ("3 cyclic subgroups of order 6, all pairwise intersections of "
                "order 3: genus two")
    if any(k == 3 for k in pairwise):
        return ("3 cyclic subgroups of order 6 with mixed intersection orders "
                f"{pairwise}: impossible for a finite group")
    return ("3 cyclic subgroups of order 6, no pairwise intersection of order "
            "3: K1+3K4 subgraph of genus 3, so genus >= 3")


def _rule_table2(inp: dict) -> str:
    return (f"group matches catalog entry {inp['label']}, one of the seven "
            "groups with spectrum within {1,2,3,4,6}, exactly three cyclic "
            "subgroups of order 6 and an order-3 pairwise intersection")


def _rule_four_six_pairing(inp: dict) -> str:
    if inp["has_disjoint_pairing"]:
        return ("4 cyclic subgroups of order 6 admitting two disjoint pairs "
                "with order-3 intersections: no finite group admits this")
    return ("4 cyclic subgroups of order 6 without two disjoint order-3 "
            "pairs: genus >= 2 from the subgraph on their union, and genus 2 "
            "would require such a pairing, so genus >= 3")


def _rule_five_six(inp: dict) -> str:
    return (f"{inp['six_count']} >= 5 cyclic subgroups of order 6: genus >= 3")


def _rule_many_six_crosscap(inp: dict) -> str:
    return (f"{inp['six_count']} >= 3 cyclic subgroups of order 6: "
            "crosscap > 2")


def _rule_two_eight(inp: dict) -> str:
    c = inp["count8"]
    if c >= 2:
        return (f"{c} cyclic subgroups of order 8: the union of two contains "
                "K1+(K7 u K4), of genus 3, so genus >= 3")
    return "a unique cyclic subgroup of order 8: rule gives no bound"


def _rule_order24_fact(inp: dict) -> str:
    return ("an order-8 and an order-3 element with all orders <= 8 force a "
            "subgroup of order 24 with spectrum within {1,2,3,4,6,8} "
            "containing 3 and 8; no group of order 24 has such a spectrum "
            "(checked over the full order-24 catalog slice)")


def _rule_2group(inp: dict) -> str:
    label = inp.get("label")
    if label is not None:
        return (f"2-group with a unique cyclic subgroup of order 8 and "
                f"spectrum {{1,2,4,8}}: isomorphic to {label}, genus two")
    return ("2-group with a unique cyclic subgroup of order 8 and spectrum "
            "{1,2,4,8} matching none of the four classified groups: "
            "impossible for a finite group")


def _rule_sylow5_with_six(inp: dict) -> str:
    return ("a unique (hence normal) subgroup of order 5 together with an "
            "order-6 element forces a subgroup of order 30, which always has "
            "an order-15 element: impossible for a finite group")


_RULES = {
    "T2.4": _rule_planarity,
    "L4.1": _rule_big_cyclic,
    "L5.1": _rule_big_cyclic_crosscap,
    "MT1.57": _rule_five_seven,
    "MT2.5": _rule_sylow5_blocks,
    "MT2.56": _rule_sylow5_with_six,
    "L2.5": _rule_reduction,
    "L3.1": _rule_two_six,
    "L4.3": _rule_three_six,
    "T3.3": _rule_table2,
    "T3.4": _rule_four_six_pairing,
    "L4.5": _rule_five_six,
    "L5.2": _rule_many_six_crosscap,
    "L4.2a": _rule_two_eight,
    "F24": _rule_order24_fact,
    "L4.2": _rule_2group,
}


def replay_step(step: CertificateStep) -> str:
    """Recompute a step's conclusion from its recorded inputs."""
    if step.rule_id not in _RULES:
        raise UnknownRule(step.rule_id)
    return _RULES[step.rule_id](step.inputs)


def replay_trail(trail) -> bool:
    """True iff every step's conclusion is reproduced bit-for-bit."""
    return all(replay_step(s) == s.conclusion for s in trail)


def _step(trail: list, rule_id: str, inputs: dict) -> CertificateStep:
    s = CertificateStep(rule_id, inputs, _RULES[rule_id](inputs))
    trail.append(s)
    return s


# ---------------------------------------------------------------------------
# reduction set
# ---------------------------------------------------------------------------

def _reduction(g: FiniteGroup):
    """The cyclic subgroups of element order outside {1,2,3,4}, the set of
    their elements plus the identity, and the element orders outside it."""
    parts = []
    for k in sorted(set(int(v) for v in g.element_orders())):
        if k not in _REDUCIBLE_ORDERS:
            parts.extend(cyclic_subgroups_of_order(g, k))
    members = {0}
    for sub in parts:
        members.update(sub)
    orders = g.element_orders()
    outside = {int(orders[x]) for x in range(g.order) if x not in members}
    return parts, members, outside


def reduction_set(g: FiniteGroup) -> frozenset[int]:
    """Union of all cyclic subgroups of order outside {1,2,3,4}, plus the
    identity; element orders outside the set are verified to lie in {2,3,4}.
    """
    _, members, outside = _reduction(g)
    assert outside <= {2, 3, 4}
    return frozenset(members)


def _reduction_inputs(g: FiniteGroup, surface: str, reduced_value: int) -> dict:
    parts, members, outside = _reduction(g)
    return {
        "surface": surface,
        "subgroup_count": len(parts),
        "subgroup_orders": tuple(sorted(len(p) for p in parts)),
        "set_size": len(members),
        "outside_spectrum": tuple(sorted(outside)),
        "reduced_value": reduced_value,
    }


# ---------------------------------------------------------------------------
# classification: orientable surface
# ---------------------------------------------------------------------------

def _spectrum_inputs(g: FiniteGroup) -> dict:
    return {"spectrum": tuple(sorted(order_spectrum(g).as_set))}


def _match_catalog(g: FiniteGroup, labels) -> str | None:
    """The first label whose group is isomorphic to g; only candidates of
    g's order are built (``catalog.build`` checks each entry's order)."""
    for label in labels:
        if cat.entry(label).expected_order != g.order:
            continue
        if is_isomorphic(g, cat.get(label)):
            return label
    return None


def _six_inputs(prof) -> dict:
    return {"six_count": prof.count,
            "pairwise_intersections": tuple(prof.pairwise_intersections)}


def satisfies_table2(g: FiniteGroup) -> bool:
    """Table 2's condition: spectrum within {1,2,3,4,6}, exactly three cyclic
    subgroups of order 6, and two of them meeting in a subgroup of order 3."""
    if not order_spectrum(g).subset_of({1, 2, 3, 4, 6}):
        return False
    prof = six_profile(g)
    return prof.count == 3 and 3 in prof.pairwise_intersections


def _has_disjoint_pairing(subs) -> bool:
    """Two disjoint pairs of order-6 subgroups, each pair meeting in order 3."""
    assert len(subs) == 4
    for j in (1, 2, 3):
        rest = [k for k in (1, 2, 3) if k != j]
        if (len(subs[0] & subs[j]) == 3
                and len(subs[rest[0]] & subs[rest[1]]) == 3):
            return True
    return False


def classify_orientable(g: FiniteGroup) -> Verdict:
    if g.order > ORDER_CAP:
        raise OrderCapExceeded(
            f"classification checked for orders <= {ORDER_CAP}, got {g.order}")
    trail: list[CertificateStep] = []
    spectrum = order_spectrum(g)
    _step(trail, "T2.4", _spectrum_inputs(g))
    if spectrum.subset_of(_PLANAR_ORDERS):
        return Verdict("planar", None, tuple(trail), orientable_value=0)

    m = spectrum.max()
    if m >= 9:
        _step(trail, "L4.1", {"max_order": m})
        return Verdict("at_least_three", None, tuple(trail))

    if 5 in spectrum or 7 in spectrum:
        _step(trail, "MT1.57", _spectrum_inputs(g))
        return Verdict("other_with_bounds", None, tuple(trail),
                       reason="nonplanar and genus != 2; exact genus outside "
                              "the classified range")

    if 8 in spectrum:
        count8 = len(cyclic_subgroups_of_order(g, 8))
        step = _step(trail, "L4.2a", {"count8": count8})
        if count8 >= 2:
            return Verdict("at_least_three", None, tuple(trail))
        if 3 in spectrum or 6 in spectrum:
            step = _step(trail, "F24", _spectrum_inputs(g))
            raise InternalContradiction(step.conclusion)
        label = _match_catalog(g, _GENUS_TWO_2GROUPS)
        step = _step(trail, "L4.2", {"count8": count8, "label": label})
        if label is None:
            raise InternalContradiction(step.conclusion)
        _step(trail, "L2.5", _reduction_inputs(g, "orientable", kn_genus(8)))
        return Verdict("two", None, tuple(trail), orientable_value=2,
                       table1_label=label)

    # spectrum within {1,2,3,4,6} with an order-6 element
    prof = six_profile(g)
    assert prof.count >= 1
    if prof.count == 1:
        _step(trail, "L2.5",
              _reduction_inputs(g, "orientable", _HEXAGON_GENUS))
        return Verdict("one", None, tuple(trail), orientable_value=1)
    if prof.count == 2:
        step = _step(trail, "L3.1", _six_inputs(prof))
        raise InternalContradiction(step.conclusion)
    if prof.count == 3:
        step = _step(trail, "L4.3", _six_inputs(prof))
        if prof.all_pairwise_three():
            label = _match_catalog(g, cat.TABLE2_LABELS)
            if label is None:
                raise InternalContradiction(
                    "three order-6 subgroups with all pairwise intersections "
                    "of order 3, but no catalog match: impossible for a "
                    f"group of order {g.order} <= {ORDER_CAP}")
            _step(trail, "T3.3", {"label": label})
            _step(trail, "L2.5", _reduction_inputs(g, "orientable", 2))
            return Verdict("two", None, tuple(trail), orientable_value=2,
                           table1_label=label)
        if any(k == 3 for k in prof.pairwise_intersections):
            raise InternalContradiction(step.conclusion)
        return Verdict("at_least_three", None, tuple(trail))
    if prof.count == 4:
        subs = cyclic_subgroups_of_order(g, 6)
        pairing = _has_disjoint_pairing(subs)
        step = _step(trail, "T3.4",
                     {**_six_inputs(prof), "has_disjoint_pairing": pairing})
        if pairing:
            raise InternalContradiction(step.conclusion)
        return Verdict("at_least_three", None, tuple(trail))
    _step(trail, "L4.5", _six_inputs(prof))
    return Verdict("at_least_three", None, tuple(trail))


# ---------------------------------------------------------------------------
# classification: nonorientable surface
# ---------------------------------------------------------------------------

def classify_nonorientable(g: FiniteGroup) -> Verdict:
    if g.order > ORDER_CAP:
        raise OrderCapExceeded(
            f"classification checked for orders <= {ORDER_CAP}, got {g.order}")
    trail: list[CertificateStep] = []
    spectrum = order_spectrum(g)
    _step(trail, "T2.4", _spectrum_inputs(g))
    if spectrum.subset_of(_PLANAR_ORDERS):
        return Verdict(None, "planar", tuple(trail), nonorientable_value=0)

    m = spectrum.max()
    if m >= 7:
        _step(trail, "L5.1", {"max_order": m})
        return Verdict(None, "not_two", tuple(trail),
                       reason="crosscap >= 3")

    if 5 in spectrum:
        count5 = len(cyclic_subgroups_of_order(g, 5))
        if count5 > 1:
            _step(trail, "MT2.5", {"five_subgroups": count5})
            return Verdict(None, "not_two", tuple(trail),
                           reason=f"crosscap >= {count5}")
        if 6 in spectrum:
            step = _step(trail, "MT2.56", _spectrum_inputs(g))
            raise InternalContradiction(step.conclusion)
        _step(trail, "L2.5", _reduction_inputs(g, "nonorientable", 1))
        return Verdict(None, "one", tuple(trail), nonorientable_value=1)

    # spectrum within {1,2,3,4,6} with an order-6 element
    prof = six_profile(g)
    assert prof.count >= 1
    if prof.count == 1:
        _step(trail, "L2.5",
              _reduction_inputs(g, "nonorientable", _HEXAGON_GENUS))
        return Verdict(None, "one", tuple(trail), nonorientable_value=1)
    if prof.count == 2:
        step = _step(trail, "L3.1", _six_inputs(prof))
        raise InternalContradiction(step.conclusion)
    _step(trail, "L5.2", _six_inputs(prof))
    return Verdict(None, "not_two", tuple(trail), reason="crosscap > 2")


def classify(g: FiniteGroup) -> Verdict:
    """Both surfaces at once, with the two trails concatenated."""
    o = classify_orientable(g)
    n = classify_nonorientable(g)
    return Verdict(o.orientable, n.nonorientable, o.trail + n.trail,
                   orientable_value=o.orientable_value,
                   nonorientable_value=n.nonorientable_value,
                   table1_label=o.table1_label,
                   reason=o.reason or n.reason)


# ---------------------------------------------------------------------------
# engine cross-validation
# ---------------------------------------------------------------------------

def _category_interval(kind: str):
    """Genus values compatible with a verdict, as (lo, hi) with hi=None open."""
    if kind == "planar":
        return (0, 0)
    if kind == "one":
        return (1, 1)
    if kind == "two":
        return (2, 2)
    if kind == "at_least_three" or kind == "not_two":
        return (3, None)
    assert kind == "other_with_bounds"
    return (1, None)


def _compatible(cat_lo, cat_hi, lo, hi) -> bool:
    if cat_hi is not None and lo > cat_hi:
        return False
    if hi is not None and hi < cat_lo:
        return False
    return True


def cross_validate(g: FiniteGroup, budget: Budget | None = None) -> dict:
    """Independent check: per-block genus search composed over blocks,
    compared against the classifier verdict.  Bound-only engine results give
    status ``consistent-with`` instead of ``consistent``.
    """
    verdict = classify(g)
    graph = power_graph(g)
    per: list[tuple[GenusResult, GenusResult]] = []
    for b in blocks(graph):
        per.append((genus_exact(b, budget), crosscap_exact(b, budget)))
    all_exact = all(og.kind == "exact" and ng.kind == "exact"
                    for og, ng in per)
    orientable, nonorientable = compose_bounds(per)
    engine = {"orientable": orientable, "nonorientable": nonorientable}
    report = {"label": g.label, "order": g.order, "blocks": len(per),
              "exact": all_exact,
              "orientable_verdict": verdict.orientable,
              "nonorientable_verdict": verdict.nonorientable,
              "engine": engine}
    ok = True
    for surface, kind in (("orientable", verdict.orientable),
                          ("nonorientable", verdict.nonorientable)):
        cat_lo, cat_hi = _category_interval(kind)
        lo, hi = engine[surface]
        ok = ok and _compatible(cat_lo, cat_hi, lo, hi)
    report["status"] = ("MISMATCH" if not ok
                        else "consistent" if all_exact else "consistent-with")
    return report


# ---------------------------------------------------------------------------
# lemma registry checks over the catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaReport:
    rule_id: str
    passed: bool
    scanned: int
    witnesses: tuple[str, ...]
    detail: str


def _check_two_six() -> LemmaReport:
    entries = []
    for order in (12, 18, 36):
        entries.extend(cat.enumerate_complete(order))
    witnesses = tuple(e.label for e in entries
                      if six_profile(cat.get(e.label)).count == 2)
    return LemmaReport(
        "L3.1", not witnesses, len(entries), witnesses,
        "no group has exactly two cyclic subgroups of order 6 "
        "(complete orders 12, 18, 36)")


def _check_table2() -> LemmaReport:
    hits = {e.label for e in cat.entries() if satisfies_table2(cat.get(e.label))}
    expected = set(cat.TABLE2_LABELS)
    return LemmaReport(
        "T3.3", hits == expected, len(cat.entries()),
        tuple(sorted(hits ^ expected)),
        "exactly the seven classified groups satisfy: spectrum within "
        "{1,2,3,4,6}, three cyclic order-6 subgroups, an order-3 intersection")


def _check_four_six() -> LemmaReport:
    witnesses = []
    for entry in cat.entries():
        g = cat.get(entry.label)
        if six_profile(g).count == 4:
            subs = cyclic_subgroups_of_order(g, 6)
            if _has_disjoint_pairing(subs):
                witnesses.append(entry.label)
    return LemmaReport(
        "T3.4", not witnesses, len(cat.entries()), tuple(witnesses),
        "no group has four cyclic order-6 subgroups forming two disjoint "
        "pairs with order-3 intersections")


def _check_2groups() -> LemmaReport:
    hits = []
    for entry in cat.entries():
        if entry.expected_order & (entry.expected_order - 1):
            continue  # not a 2-group
        g = cat.get(entry.label)
        if (order_spectrum(g).as_set == frozenset({1, 2, 4, 8})
                and len(cyclic_subgroups_of_order(g, 8)) == 1):
            hits.append(entry.label)
    expected = set(_GENUS_TWO_2GROUPS)
    return LemmaReport(
        "L4.2", set(hits) == expected, len(cat.entries()),
        tuple(sorted(set(hits) ^ expected)),
        "exactly the four classified 2-groups have a unique cyclic order-8 "
        "subgroup with spectrum {1,2,4,8}")


#: The lemmas checked over the catalog, each with its check.
LEMMA_REGISTRY = {"L3.1": _check_two_six, "T3.3": _check_table2,
                  "T3.4": _check_four_six, "L4.2": _check_2groups}


def verify_lemma(rule_id: str) -> LemmaReport:
    if rule_id not in LEMMA_REGISTRY:
        raise UnknownRule(
            f"rule {rule_id!r} not in registry {tuple(LEMMA_REGISTRY)}")
    return LEMMA_REGISTRY[rule_id]()


# ---------------------------------------------------------------------------
# structured records
# ---------------------------------------------------------------------------

def verdict_record(label: str, g: FiniteGroup, v: Verdict) -> str:
    """One stable-field-order record line for regression diffs."""
    fields = [
        f"label={label}",
        f"order={g.order}",
        f"spectrum={order_spectrum(g)}",
        f"six={six_profile(g)}",
        f"orientable={v.orientable}",
        f"nonorientable={v.nonorientable}",
        f"table1={v.table1_label or '-'}",
        f"rules={'+'.join(s.rule_id for s in v.trail)}",
    ]
    return " ".join(fields)
