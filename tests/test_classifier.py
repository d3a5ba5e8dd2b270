import hashlib

import pytest

import powergenus.catalog as cat
import powergenus.classifier as cls
import powergenus.groups as gr
from powergenus.errors import (InternalContradiction, OrderCapExceeded,
                               UnknownRule)
from powergenus.genus import Budget


def test_reduction_set_q16():
    q16 = gr.dicyclic(4)
    s = cls.reduction_set(q16)
    assert len(s) == 8  # the unique Z8
    assert 0 in s and all(q16.table[x, y] in s for x in s for y in s)
    orders = q16.element_orders()
    assert {int(orders[x]) for x in range(16) if x not in s} == {4}


def test_reduction_set_z2xz6():
    g = cat.get("[12,5]")
    assert len(cls.reduction_set(g)) == 12  # three hexagons cover the group


def test_match_catalog_builds_only_same_order(monkeypatch):
    """Classifying a Table-2 group of order 24 builds only the order-24
    catalog candidates, not the other orders of Table 2."""
    g = cat.get("[24,8]")
    built = []
    real = cat.get

    def recording(label):
        built.append(label)
        return real(label)

    monkeypatch.setattr(cat, "get", recording)
    v = cls.classify(g)
    assert v.orientable == "two" and v.table1_label == "[24,8]"
    assert built == ["[24,7]", "[24,8]"]
    assert all(cat.entry(label).expected_order == 24 for label in built)


def test_reduction_set_s3():
    assert len(cls.reduction_set(gr.symmetric(3))) == 1


def test_orientable_examples():
    v = cls.classify_orientable(cat.get("[8,1]"))
    assert v.orientable == "two" and v.table1_label == "[8,1]"

    v = cls.classify_orientable(cat.get("[12,5]"))
    assert v.orientable == "two" and v.table1_label == "[12,5]"
    assert any(s.rule_id == "L4.3" for s in v.trail)
    assert any(s.rule_id == "T3.3" for s in v.trail)

    assert cls.classify_orientable(gr.cyclic(12)).orientable == "at_least_three"
    assert cls.classify_orientable(gr.symmetric(3)).orientable == "planar"
    assert cls.classify_orientable(gr.dihedral(12)).orientable == "one"
    assert cls.classify_orientable(gr.cyclic(7)).orientable == "other_with_bounds"


def test_nonorientable_examples():
    v = cls.classify_nonorientable(cat.get("[12,5]"))
    assert v.nonorientable == "not_two"
    assert any(s.rule_id == "L5.2" for s in v.trail)

    v = cls.classify_nonorientable(gr.cyclic(8))
    assert v.nonorientable == "not_two"
    assert any(s.rule_id == "L5.1" for s in v.trail)

    assert cls.classify_nonorientable(gr.cyclic(4)).nonorientable == "planar"
    v = cls.classify_nonorientable(gr.dihedral(10))
    assert v.nonorientable == "one" and v.nonorientable_value == 1


def test_never_exact_two_nonorientable():
    for e in cat.entries():
        v = cls.classify_nonorientable(cat.get(e.label))
        assert not (v.nonorientable == "exact" and v.nonorientable_value == 2)
        assert v.nonorientable_value != 2


def test_table1_exactly():
    twos = []
    for e in cat.entries():
        v = cls.classify_orientable(cat.get(e.label))
        if v.orientable == "two":
            twos.append((e.label, v.table1_label))
    assert sorted(lbl for lbl, _ in twos) == sorted(cat.TABLE1_LABELS)
    assert all(lbl == named for lbl, named in twos)


def test_trail_replay():
    for label in ("[8,1]", "[12,5]", "Z12", "S4", "[72,43]"):
        v = cls.classify(cat.get(label))
        assert cls.replay_trail(v.trail)
        # a corrupted conclusion is detected
        bad = cls.CertificateStep(v.trail[0].rule_id, v.trail[0].inputs,
                                  "something else")
        assert not cls.replay_trail([bad])


def test_replay_unknown_rule():
    with pytest.raises(UnknownRule):
        cls.replay_step(cls.CertificateStep("L99", {}, "x"))


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        cls.classify_orientable(gr.cyclic(145))
    with pytest.raises(OrderCapExceeded):
        cls.classify_nonorientable(gr.cyclic(145))


def test_verify_lemma_registry():
    for rule in cls.LEMMA_REGISTRY:
        report = cls.verify_lemma(rule)
        assert report.passed, (rule, report.witnesses)
    with pytest.raises(UnknownRule):
        cls.verify_lemma("L9.9")


def test_lemma_31_scan_size():
    report = cls.verify_lemma("L3.1")
    assert report.scanned == 24 and not report.witnesses


def test_cross_validate_consistency():
    budget = Budget(max_nodes=200_000, max_seconds=60)
    for g in (gr.symmetric(3), gr.cyclic(7), cat.get("D12"),
              cat.get("[12,5]")):
        report = cls.cross_validate(g, budget)
        assert report["status"] in ("consistent", "consistent-with"), report


def test_cross_validate_bounds_only():
    # a tiny budget forces bound-only engine results on the K8 block
    report = cls.cross_validate(gr.cyclic(8), Budget(max_nodes=20,
                                                     max_seconds=60))
    assert report["status"] == "consistent-with"
    assert not report["exact"]


def test_cross_validate_bounds_keep_nonplanar_blocks():
    """Z2xZ8's power graph has two planar blocks and one nonplanar one; a
    planar block does not erase the nonplanar block's crosscap bound."""
    report = cls.cross_validate(cat.get("Z2xZ8"), Budget(max_nodes=20))
    assert report["blocks"] == 3 and not report["exact"]
    assert report["engine"]["nonorientable"][0] >= 3
    assert report["status"] == "consistent-with"


def test_verdict_record_stable():
    g = cat.get("[18,3]")
    v = cls.classify(g)
    rec = cls.verdict_record("[18,3]", g, v)
    assert rec.startswith("label=[18,3] order=18 spectrum={1,2,3,6}")
    assert "orientable=two" in rec and "table1=[18,3]" in rec


def test_planarity_criterion_matches_spectrum():
    from powergenus.genus import is_planar
    from powergenus.powergraph import power_graph
    for e in cat.entries():
        g = cat.get(e.label)
        planar = is_planar(power_graph(g)).planar
        assert planar == gr.order_spectrum(g).subset_of({1, 2, 3, 4})


def _pinned_groups():
    """The catalog plus constructed groups that reach every surface branch
    the catalog leaves out (orders 5 and 7, many order-5 subgroups, the
    order cap)."""
    groups = [(e.label, cat.get(e.label)) for e in cat.entries()]
    groups += [(f"Z{n}", gr.cyclic(n)) for n in range(1, 40)]
    groups += [(f"D{n}", gr.dihedral(n)) for n in range(2, 59, 2)]
    groups += [(f"Dic{n}", gr.dicyclic(n)) for n in range(2, 20)]
    groups += [(f"S{n}", gr.symmetric(n)) for n in range(1, 6)]
    groups += [(f"A{n}", gr.alternating(n)) for n in range(1, 6)]
    groups += [(f"Z{a}xZ{b}", gr.direct_product(gr.cyclic(a), gr.cyclic(b)))
               for a in range(2, 9) for b in range(2, 9)]
    groups += [("Z5xZ5", gr.direct_product(gr.cyclic(5), gr.cyclic(5))),
               ("S3xZ5", gr.direct_product(gr.symmetric(3), gr.cyclic(5))),
               ("Z145", gr.cyclic(145))]
    return groups


#: sha256 of every classification of ``_pinned_groups``, as hashed below.
TRAIL_DIGEST = \
    "7d32ca2198186e593e5906cddc96ce56da7e151ac2684a0e707cc530fee103a1"


def test_trails_pinned():
    """Every verdict field and trail step (rule id, inputs, conclusion) of
    both surfaces, on 204 groups, hashed into one digest."""
    h = hashlib.sha256()
    groups = _pinned_groups()
    assert len(groups) == 204
    for name, g in groups:
        for fn in (cls.classify, cls.classify_orientable,
                   cls.classify_nonorientable):
            try:
                v = fn(g)
            except OrderCapExceeded as exc:
                rec = (name, fn.__name__, type(exc).__name__, str(exc))
            else:
                rec = (name, fn.__name__,
                       (v.orientable, v.nonorientable, v.orientable_value,
                        v.nonorientable_value, v.table1_label, v.reason),
                       [(s.rule_id, sorted(s.inputs.items()), s.conclusion)
                        for s in v.trail])
            h.update(repr(rec).encode() + b"\n")
    assert h.hexdigest() == TRAIL_DIGEST


def _contradiction(classify, g, rule_id, inputs):
    """classify(g) raises InternalContradiction with the rule's conclusion
    on ``inputs`` as its message."""
    expected = cls.replay_step(cls.CertificateStep(rule_id, inputs, ""))
    with pytest.raises(InternalContradiction) as info:
        classify(g)
    assert str(info.value) == expected


@pytest.mark.parametrize("classify", [cls.classify_orientable,
                                      cls.classify_nonorientable])
def test_two_hexagons_contradict(monkeypatch, classify):
    monkeypatch.setattr(cls, "six_profile", lambda g: gr.SixProfile(2, (3,)))
    _contradiction(classify, gr.cyclic(6), "L3.1",
                   {"six_count": 2, "pairwise_intersections": (3,)})


def test_three_hexagons_mixed_intersections_contradict(monkeypatch):
    monkeypatch.setattr(cls, "six_profile",
                        lambda g: gr.SixProfile(3, (3, 1, 1)))
    _contradiction(cls.classify_orientable, cat.get("[12,5]"), "L4.3",
                   {"six_count": 3, "pairwise_intersections": (3, 1, 1)})


def test_four_hexagons_disjoint_pairing_contradicts(monkeypatch):
    monkeypatch.setattr(cls, "_has_disjoint_pairing", lambda subs: True)
    _contradiction(cls.classify_orientable, cat.get("Z3xZ6"), "T3.4",
                   {"six_count": 4, "pairwise_intersections": (2,) * 6,
                    "has_disjoint_pairing": True})


def test_unmatched_2group_contradicts(monkeypatch):
    monkeypatch.setattr(cls, "_match_catalog", lambda g, labels: None)
    _contradiction(cls.classify_orientable, cat.get("[8,1]"), "L4.2",
                   {"count8": 1, "label": None})


def test_unmatched_table2_group_contradicts(monkeypatch):
    monkeypatch.setattr(cls, "_match_catalog", lambda g, labels: None)
    with pytest.raises(InternalContradiction) as info:
        cls.classify_orientable(cat.get("[12,5]"))
    assert str(info.value) == (
        "three order-6 subgroups with all pairwise intersections of order 3, "
        "but no catalog match: impossible for a group of order 12 <= 144")


def test_replay_checks_premises():
    """A step whose inputs fail its rule's premise does not replay to the
    rule's firing conclusion."""
    tampered = [
        cls.CertificateStep(
            "MT2.5", {"five_subgroups": 1},
            "1 cyclic subgroups of order 5 give 1 K5 blocks sharing the "
            "identity: crosscap 1 >= 3"),
        cls.CertificateStep(
            "MT1.57", {"spectrum": (1, 2, 3, 6)},
            "element order(s) [] present: genus != 2 by the Sylow "
            "eliminations; exact genus outside the classified range"),
    ]
    for step in tampered:
        assert not cls.replay_trail([step])
        assert "rule gives no bound" in cls.replay_step(step)


def test_replay_checks_six_count_premises():
    """L4.5 and L5.2 test their own premise, five and three cyclic
    subgroups of order 6: a step with a smaller count does not replay to
    the rule's conclusion, and the rule names the failed premise."""
    tampered = [
        cls.CertificateStep(
            "L4.5", {"six_count": 4, "pairwise_intersections": (2,) * 6},
            "4 >= 5 cyclic subgroups of order 6: genus >= 3"),
        cls.CertificateStep(
            "L5.2", {"six_count": 2, "pairwise_intersections": (3,)},
            "2 >= 3 cyclic subgroups of order 6: crosscap > 2"),
    ]
    for step, premise in zip(tampered, ("4 < 5", "2 < 3")):
        assert not cls.replay_trail([step])
        assert cls.replay_step(step).startswith(premise)
        assert cls._RULES[step.rule_id](step.inputs)[0] == cls._IMPOSSIBLE
    for rule_id, count in (("L4.5", 5), ("L5.2", 3)):
        assert cls._RULES[rule_id]({"six_count": count})[0] is not None
