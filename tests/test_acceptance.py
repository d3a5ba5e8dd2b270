"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest -v`` to see per-criterion results, or ``pytest -s`` to see
the printed summary lines.
"""

import math

import powergenus.catalog as cat
import powergenus.classifier as cls
import powergenus.genus as gn
import powergenus.groups as gr
import powergenus.powergraph as pg
from powergenus.genus import Budget

from conftest import b1_graph, hexagon_union

#: Per-level budget of the catalog-wide engine scans.  Only the node cap
#: decides between exact and bounds, so the outcome does not depend on the
#: machine; the scan after criterion 7 is served from the block cache.
SCAN_BUDGET = Budget(max_nodes=30_000, max_seconds=math.inf)


def _line(n: int, ok: bool, desc: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_1_formula_oracle_vs_search():
    ok = True
    for n in range(3, 8):
        ok = ok and gn.genus_exact(pg.complete_graph(n)).value == gn.kn_genus(n)
    for m, n in ((3, 3), (3, 4), (3, 5), (3, 6), (4, 4)):
        ok = ok and (gn.genus_exact(pg.complete_bipartite(m, n)).value
                     == gn.kmn_genus(m, n))
    for n in range(3, 7):
        ok = ok and (gn.crosscap_exact(pg.complete_graph(n)).value
                     == gn.kn_crosscap(n))
    for m, n in ((3, 3), (3, 5)):
        ok = ok and (gn.crosscap_exact(pg.complete_bipartite(m, n)).value
                     == gn.kmn_crosscap(m, n))
    _line(1, ok, "search genus/crosscap equals closed-form values for "
                 "K_n and K_{m,n}")


def test_criterion_2_subgraph_targets():
    ok = gn.genus_exact(pg.complete_bipartite(3, 6)).value == 1
    ok = ok and gn.kmn_genus(3, 8) == 2
    delta = hexagon_union(2)
    ok = ok and gn.genus_exact(delta).value == 1
    ok = ok and gn.crosscap_exact(delta).value == 2
    ok = ok and gn.crosscap_exact(b1_graph()).lower >= 2
    _line(2, ok, "two-hexagon union has genus 1 / crosscap 2; its "
                 "involution-free core obstructs the projective plane")


def test_criterion_3_block_composition():
    def exact(g, k):
        return (gn.GenusResult("exact", g, g), gn.GenusResult("exact", k, k))

    # apex joined to three disjoint K4s: the blocks really are three K5s
    edges = []
    for b in range(3):
        vs = [1 + 4 * b + i for i in range(4)] + [0]
        edges.extend((min(u, v), max(u, v))
                     for i, u in enumerate(vs) for v in vs[i + 1:])
    apex3k4 = pg.Graph(13, tuple(edges))
    bs = gn.blocks(apex3k4)
    ok = len(bs) == 3 and all(b.n == 5 and b.m == 10 for b in bs)

    k5 = exact(gn.kn_genus(5), gn.kn_crosscap(5))
    og, _ = gn.compose_blocks([k5] * 3)
    ok = ok and og.value == 3
    og, _ = gn.compose_blocks([exact(gn.kn_genus(8), gn.kn_crosscap(8)),
                               exact(gn.kn_genus(5), gn.kn_crosscap(5))])
    ok = ok and og.value == 3  # K1+(K7 u K4): a K8 block and a K5 block
    og, _ = gn.compose_blocks([exact(gn.kn_genus(7), gn.kn_crosscap(7))] * 8)
    ok = ok and og.value == 8  # K1+8K6: eight K7 blocks
    _, ng = gn.compose_blocks([k5] * 3)
    ok = ok and ng.value == 3  # three K5 blocks at a cut vertex
    _line(3, ok, "block composition reproduces the quoted apex-join values")


def test_criterion_4_table1():
    twos = []
    for e in cat.entries():
        v = cls.classify_orientable(cat.get(e.label))
        if v.orientable == "two":
            twos.append(e.label)
    ok = sorted(twos) == sorted(cat.TABLE1_LABELS)
    _line(4, ok, "exactly the 11 genus-two labels over the full catalog")


def test_criterion_5_table2():
    expected_spectra = {
        "[12,5]": {1, 2, 3, 6}, "[18,3]": {1, 2, 3, 6},
        "[24,7]": {1, 2, 3, 4, 6}, "[24,8]": {1, 2, 3, 4, 6},
        "[24,14]": {1, 2, 3, 6}, "[36,11]": {1, 2, 3, 6},
        "[72,43]": {1, 2, 3, 4, 6},
    }
    hits = {}
    for e in cat.entries():
        g = cat.get(e.label)
        if not gr.order_spectrum(g).subset_of({1, 2, 3, 4, 6}):
            continue
        prof = gr.six_profile(g)
        if prof.count == 3 and any(k == 3 for k in prof.pairwise_intersections):
            hits[e.label] = set(gr.order_spectrum(g).as_set)
    ok = hits == expected_spectra
    _line(5, ok, "exactly the 7 three-hexagon labels, spectra matching")


def test_criterion_6_two_six_sweep():
    report = cls.verify_lemma("L3.1")
    ok = report.passed and report.scanned == 24
    _line(6, ok, "no group among the complete order-12/18/36 slices has "
                 "exactly two cyclic order-6 subgroups")


def test_criterion_7_crosscap_never_two():
    budget = SCAN_BUDGET
    ok = True
    exact_checked = 0
    for e in cat.entries():
        g = cat.get(e.label)
        v = cls.classify_nonorientable(g)
        ok = ok and v.nonorientable_value != 2
        per = [(gn.genus_exact(b, budget), gn.crosscap_exact(b, budget))
               for b in gn.blocks(pg.power_graph(g))]
        if all(o.kind == "exact" and c.kind == "exact" for o, c in per):
            _, total = gn.compose_blocks(per)
            ok = ok and total.value != 2
            exact_checked += 1
    ok = ok and exact_checked >= 10
    _line(7, ok, f"no crosscap-two verdict or engine value "
                 f"({exact_checked} groups engine-exact)")


def test_cross_validation_counts():
    """cross_validate over the catalog at the scan budget: no mismatch, and
    the counts of exact groups and of engine intervals that lie inside the
    verdict's interval, which may only rise."""
    reports = [cls.cross_validate(cat.get(e.label), SCAN_BUDGET)
               for e in cat.entries()]
    assert len(reports) == 56
    assert not [r["label"] for r in reports if r["status"] == "MISMATCH"]
    assert sum(r["status"] == "consistent" for r in reports) >= 15
    for surface, least in (("orientable", 41), ("nonorientable", 43)):
        inside = 0
        for r in reports:
            lo, hi = cls._category_interval(r[f"{surface}_verdict"])
            e_lo, e_hi = r["engine"][surface]
            inside += lo <= e_lo and (hi is None or e_hi <= hi)
        assert inside >= least, (surface, inside)


def test_criterion_8_structural_invariants():
    ok = True
    for e in cat.entries():
        g = cat.get(e.label)
        inv = gr.count_involutions(g)
        ok = ok and (inv % 2 == 1 if g.order % 2 == 0 else inv == 0)
        for p in (2, 3, 5, 7):
            if g.order % p == 0:
                ok = ok and len(gr.cyclic_subgroups_of_order(g, p)) % p == 1
        planar = gn.is_planar(pg.power_graph(g)).planar
        ok = ok and planar == gr.order_spectrum(g).subset_of({1, 2, 3, 4})
    _line(8, ok, "involution parity, Sylow congruence, planarity criterion "
                 "over all 56 catalog groups")


def test_criterion_9_stretch_three_hexagons():
    res = gn.genus_exact(hexagon_union(3))
    ok = res.kind == "exact" and res.value == 2
    ok = ok and res.lower_certificate["method"] == "exhaustive_search"
    ok = ok and res.lower_certificate.get("completed") is True
    _line(9, ok, "12-vertex three-hexagon union: exact genus 2 with a "
                 "completed genus-1 exhaustion certificate")
