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

#: The verdict kinds of exact values 0, 1 and 2.
_KINDS = ("planar", "one", "two")


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
    Exact values and reasons, when known, are in ``orientable_value`` /
    ``nonorientable_value`` and ``orientable_reason`` /
    ``nonorientable_reason``; a verdict of two also names the matched
    ``table1_label``.
    """

    orientable: str | None
    nonorientable: str | None
    trail: tuple[CertificateStep, ...]
    orientable_value: int | None = None
    nonorientable_value: int | None = None
    table1_label: str | None = None
    orientable_reason: str | None = None
    nonorientable_reason: str | None = None

    def __post_init__(self):
        assert self.trail, "verdict must carry a nonempty trail"

    @property
    def reason(self) -> str | None:
        """The reason of a one-surface verdict (the orientable one's first)."""
        return self.orientable_reason or self.nonorientable_reason


# ---------------------------------------------------------------------------
# rule registry: pure functions from recorded inputs to (outcome, conclusion)
# ---------------------------------------------------------------------------

#: The outcome of a rule whose inputs no finite group can have.  Any other
#: outcome is the verdict kind the rule proves, or None for no bound.
_IMPOSSIBLE = "impossible"


def _rule_planarity(inp: dict) -> tuple[str | None, str]:
    if set(inp["spectrum"]) <= _PLANAR_ORDERS:
        return "planar", "spectrum within {1,2,3,4}: power graph planar"
    return None, "spectrum not within {1,2,3,4}: power graph nonplanar"


def _rule_big_cyclic(inp: dict) -> tuple[str | None, str]:
    m = inp["max_order"]
    if m >= 9:
        return ("at_least_three",
                f"element of order {m} gives a K{m} subgraph: genus >= 3")
    return None, "no element of order >= 9: rule gives no bound"


def _rule_big_cyclic_crosscap(inp: dict) -> tuple[str | None, str]:
    m = inp["max_order"]
    if m >= 7:
        return ("not_two",
                f"element of order {m} gives a K{m} subgraph: crosscap >= 3")
    return None, "no element of order >= 7: rule gives no bound"


def _rule_five_seven(inp: dict) -> tuple[str | None, str]:
    hits = sorted(set(inp["spectrum"]) & {5, 7})
    if not hits:
        return None, "no element of order 5 or 7: rule gives no bound"
    return ("other_with_bounds", f"element order(s) {hits} present: genus != 2 "
            "by the Sylow eliminations; exact genus outside the classified range")


def _rule_sylow5_blocks(inp: dict) -> tuple[str | None, str]:
    c = inp["five_subgroups"]
    if c <= 1:
        return None, "a unique cyclic subgroup of order 5: rule gives no bound"
    return ("not_two", f"{c} cyclic subgroups of order 5 give {c} K5 blocks "
            f"sharing the identity: crosscap {c} >= 3")


def _rule_reduction(inp: dict) -> tuple[str | None, str]:
    outside = set(inp["outside_spectrum"])
    if not outside <= {2, 3, 4}:
        return (_IMPOSSIBLE, "reduction not applicable: removed elements "
                "exceed orders {2,3,4}")
    surface = inp["surface"]
    r = inp["reduced_value"]
    name = "genus" if surface == "orientable" else "crosscap"
    return (_KINDS[r], f"S = union of {inp['subgroup_count']} subgroup(s) of "
            f"orders {list(inp['subgroup_orders'])}; element orders outside S "
            f"within {{2,3,4}}; {name} of whole graph = {name} {r} of the "
            "subgraph on S")


def _rule_two_six(inp: dict) -> tuple[str | None, str]:
    return (_IMPOSSIBLE, "exactly 2 cyclic subgroups of order 6: no finite "
            "group has precisely two, so the input is not a finite group")


def _rule_three_six(inp: dict) -> tuple[str | None, str]:
    pairwise = list(inp["pairwise_intersections"])
    if all(k == 3 for k in pairwise):
        return ("two", "3 cyclic subgroups of order 6, all pairwise "
                "intersections of order 3: genus two")
    if any(k == 3 for k in pairwise):
        return (_IMPOSSIBLE, "3 cyclic subgroups of order 6 with mixed "
                f"intersection orders {pairwise}: impossible for a finite group")
    return ("at_least_three", "3 cyclic subgroups of order 6, no pairwise "
            "intersection of order 3: K1+3K4 subgraph of genus 3, so genus >= 3")


def _rule_table2(inp: dict) -> tuple[str | None, str]:
    return ("two", f"group matches catalog entry {inp['label']}, one of the "
            "seven groups with spectrum within {1,2,3,4,6}, exactly three "
            "cyclic subgroups of order 6 and an order-3 pairwise intersection")


def _rule_four_six_pairing(inp: dict) -> tuple[str | None, str]:
    if inp["has_disjoint_pairing"]:
        return (_IMPOSSIBLE, "4 cyclic subgroups of order 6 admitting two "
                "disjoint pairs with order-3 intersections: no finite group "
                "admits this")
    return ("at_least_three", "4 cyclic subgroups of order 6 without two "
            "disjoint order-3 pairs: genus >= 2 from the subgraph on their "
            "union, and genus 2 would require such a pairing, so genus >= 3")


def _rule_five_six(inp: dict) -> tuple[str | None, str]:
    c = inp["six_count"]
    if c < 5:
        return (_IMPOSSIBLE, f"{c} < 5 cyclic subgroups of order 6: the "
                "classification reaches this rule only from five on")
    return ("at_least_three", f"{c} >= 5 cyclic subgroups of order 6: genus >= 3")


def _rule_many_six_crosscap(inp: dict) -> tuple[str | None, str]:
    c = inp["six_count"]
    if c < 3:
        return (_IMPOSSIBLE, f"{c} < 3 cyclic subgroups of order 6: the "
                "classification reaches this rule only from three on")
    return ("not_two", f"{c} >= 3 cyclic subgroups of order 6: crosscap > 2")


def _rule_two_eight(inp: dict) -> tuple[str | None, str]:
    c = inp["count8"]
    if c >= 2:
        return ("at_least_three", f"{c} cyclic subgroups of order 8: the "
                "union of two contains K1+(K7 u K4), of genus 3, so genus >= 3")
    return None, "a unique cyclic subgroup of order 8: rule gives no bound"


def _rule_order24_fact(inp: dict) -> tuple[str | None, str]:
    return (_IMPOSSIBLE, "an order-8 and an order-3 element with all orders "
            "<= 8 force a subgroup of order 24 with spectrum within "
            "{1,2,3,4,6,8} containing 3 and 8; no group of order 24 has such "
            "a spectrum (checked over the full order-24 catalog slice)")


def _rule_2group(inp: dict) -> tuple[str | None, str]:
    label = inp.get("label")
    if label is not None:
        return ("two", "2-group with a unique cyclic subgroup of order 8 and "
                f"spectrum {{1,2,4,8}}: isomorphic to {label}, genus two")
    return (_IMPOSSIBLE, "2-group with a unique cyclic subgroup of order 8 and "
            "spectrum {1,2,4,8} matching none of the four classified groups: "
            "impossible for a finite group")


def _rule_sylow5_with_six(inp: dict) -> tuple[str | None, str]:
    return (_IMPOSSIBLE, "a unique (hence normal) subgroup of order 5 together "
            "with an order-6 element forces a subgroup of order 30, which "
            "always has an order-15 element: impossible for a finite group")


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
    return _RULES[step.rule_id](step.inputs)[1]


def replay_trail(trail) -> bool:
    """True iff every step's conclusion is reproduced bit-for-bit."""
    return all(replay_step(s) == s.conclusion for s in trail)


#: Rules whose step is recorded only when they give a bound.
_FIRED_ONLY = frozenset({"L4.1", "L5.1", "MT1.57", "MT2.5"})


def _apply(trail: list, rule_id: str, inputs: dict) -> str | None:
    """Record a rule's step and return its outcome; raise if impossible."""
    outcome, conclusion = _RULES[rule_id](inputs)
    if outcome is not None or rule_id not in _FIRED_ONLY:
        trail.append(CertificateStep(rule_id, inputs, conclusion))
    if outcome == _IMPOSSIBLE:
        raise InternalContradiction(conclusion)
    return outcome


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
# classification
# ---------------------------------------------------------------------------

def _spectrum_inputs(spectrum) -> dict:
    return {"spectrum": tuple(sorted(spectrum.as_set))}


def _match_catalog(g: FiniteGroup, labels) -> str | None:
    """The first label whose group is isomorphic to g; only candidates of
    g's order are built (``catalog.get`` checks each entry's claims)."""
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


def _hexagons(g: FiniteGroup, trail: list, surface: str):
    """Spectrum within {1,2,3,4,6} with an order-6 element: one hexagon
    decides the surface (L2.5), two cannot occur (L3.1).  Returns the
    six-profile and the outcome, None from three hexagons on."""
    prof = six_profile(g)
    assert prof.count >= 1
    if prof.count == 1:
        return prof, _apply(trail, "L2.5",
                            _reduction_inputs(g, surface, _HEXAGON_GENUS))
    if prof.count == 2:
        _apply(trail, "L3.1", _six_inputs(prof))
    return prof, None


def _orientable(g: FiniteGroup, spectrum, trail: list) -> str:
    kind = (_apply(trail, "L4.1", {"max_order": spectrum.max()})
            or _apply(trail, "MT1.57", _spectrum_inputs(spectrum)))
    if kind:
        return kind
    if 8 in spectrum:
        count8 = len(cyclic_subgroups_of_order(g, 8))
        if kind := _apply(trail, "L4.2a", {"count8": count8}):
            return kind
        if 3 in spectrum or 6 in spectrum:
            _apply(trail, "F24", _spectrum_inputs(spectrum))
        label = _match_catalog(g, _GENUS_TWO_2GROUPS)
        _apply(trail, "L4.2", {"count8": count8, "label": label})
        return _apply(trail, "L2.5",
                      _reduction_inputs(g, "orientable", kn_genus(8)))

    prof, kind = _hexagons(g, trail, "orientable")
    if kind:
        return kind
    if prof.count == 3:
        if (kind := _apply(trail, "L4.3", _six_inputs(prof))) != "two":
            return kind
        label = _match_catalog(g, cat.TABLE2_LABELS)
        if label is None:
            raise InternalContradiction(
                "three order-6 subgroups with all pairwise intersections "
                "of order 3, but no catalog match: impossible for a "
                f"group of order {g.order} <= {ORDER_CAP}")
        _apply(trail, "T3.3", {"label": label})
        return _apply(trail, "L2.5", _reduction_inputs(g, "orientable", 2))
    if prof.count == 4:
        pairing = _has_disjoint_pairing(cyclic_subgroups_of_order(g, 6))
        return _apply(trail, "T3.4",
                      {**_six_inputs(prof), "has_disjoint_pairing": pairing})
    return _apply(trail, "L4.5", _six_inputs(prof))


def _nonorientable(g: FiniteGroup, spectrum, trail: list) -> str:
    if kind := _apply(trail, "L5.1", {"max_order": spectrum.max()}):
        return kind
    if 5 in spectrum:
        count5 = len(cyclic_subgroups_of_order(g, 5))
        if kind := _apply(trail, "MT2.5", {"five_subgroups": count5}):
            return kind
        if 6 in spectrum:
            _apply(trail, "MT2.56", _spectrum_inputs(spectrum))
        return _apply(trail, "L2.5", _reduction_inputs(g, "nonorientable", 1))
    prof, kind = _hexagons(g, trail, "nonorientable")
    return kind or _apply(trail, "L5.2", _six_inputs(prof))


#: A verdict's reason, by the rule that ends its trail.
_REASONS = {"MT1.57": "nonplanar and genus != 2; exact genus outside the "
                      "classified range",
            "L5.1": "crosscap >= 3", "MT2.5": "crosscap >= {five_subgroups}",
            "L5.2": "crosscap > 2"}


def _classify(g: FiniteGroup, rest):
    """The order cap and T2.4, then ``rest`` for a nonplanar group.  Returns
    the kind, its exact value, the trail and the reason read off it."""
    if g.order > ORDER_CAP:
        raise OrderCapExceeded(
            f"classification checked for orders <= {ORDER_CAP}, got {g.order}")
    trail: list[CertificateStep] = []
    spectrum = order_spectrum(g)
    kind = (_apply(trail, "T2.4", _spectrum_inputs(spectrum))
            or rest(g, spectrum, trail))
    last = trail[-1]
    reason = _REASONS.get(last.rule_id, "").format(**last.inputs) or None
    return kind, _KINDS.index(kind) if kind in _KINDS else None, trail, reason


def classify_orientable(g: FiniteGroup) -> Verdict:
    kind, value, trail, reason = _classify(g, _orientable)
    label = next((s.inputs["label"] for s in trail if "label" in s.inputs), None)
    return Verdict(kind, None, tuple(trail), orientable_value=value,
                   table1_label=label, orientable_reason=reason)


def classify_nonorientable(g: FiniteGroup) -> Verdict:
    kind, value, trail, reason = _classify(g, _nonorientable)
    return Verdict(None, kind, tuple(trail), nonorientable_value=value,
                   nonorientable_reason=reason)


def classify(g: FiniteGroup) -> Verdict:
    """Both surfaces at once, with the two trails concatenated."""
    o = classify_orientable(g)
    n = classify_nonorientable(g)
    return Verdict(o.orientable, n.nonorientable, o.trail + n.trail,
                   orientable_value=o.orientable_value,
                   nonorientable_value=n.nonorientable_value,
                   table1_label=o.table1_label,
                   orientable_reason=o.orientable_reason,
                   nonorientable_reason=n.nonorientable_reason)


# ---------------------------------------------------------------------------
# engine cross-validation
# ---------------------------------------------------------------------------

def _category_interval(kind: str):
    """Genus values compatible with a verdict, as (lo, hi) with hi=None open."""
    if kind in _KINDS:
        return (_KINDS.index(kind), _KINDS.index(kind))
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
