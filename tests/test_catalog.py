import pytest

import powergenus.catalog as cat
import powergenus.groups as gr
from powergenus.errors import (ParseError, UnknownLabel, UnsupportedOrder,
                               ValidationFailed)


def test_catalog_validates():
    report = cat.validate_all()
    assert report.ok, report.failures


def test_entry_counts():
    ents = cat.entries()
    by_order = {}
    for e in ents:
        by_order[e.expected_order] = by_order.get(e.expected_order, 0) + 1
    assert by_order[12] == 5 and by_order[18] == 5 and by_order[36] == 14
    assert by_order[24] == 15  # every group of order 24
    assert by_order[72] == 1


def test_enumerate_complete():
    assert len(cat.enumerate_complete(12)) == 5
    assert len(cat.enumerate_complete(18)) == 5
    assert len(cat.enumerate_complete(36)) == 14
    with pytest.raises(UnsupportedOrder):
        cat.enumerate_complete(24)


def test_complete_slices_pairwise_nonisomorphic():
    groups = [cat.get(e.label) for e in cat.enumerate_complete(12)]
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            assert not gr.is_isomorphic(groups[i], groups[j])


def test_order24_pairwise_nonisomorphic(monkeypatch):
    # S3xZ4 has the order and spectrum claimed for Z3xD8, so only the
    # pairwise isomorphism check can catch the duplicate
    dup = tuple(cat.CatalogEntry(e.label, "direct(sym(3),cyclic(4))",
                                 e.expected_order, e.expected_spectrum, e.tags)
                if e.label == "Z3xD8" else e for e in cat.entries())
    monkeypatch.setattr(cat, "_ENTRIES", dup)
    assert cat.validate_all().failures == ("Z3xD8 and S3xZ4 are isomorphic",)


def test_get_relabels():
    g = cat.get("[16,9]")
    assert g.label == "[16,9]" and g.order == 16
    with pytest.raises(UnknownLabel):
        cat.get("[999,1]")


def test_table_labels():
    assert len(cat.TABLE1_LABELS) == 11
    assert len(cat.TABLE2_LABELS) == 7
    assert set(cat.TABLE2_LABELS) <= set(cat.TABLE1_LABELS)
    assert cat.TABLE1_LABELS[-1] == "[72,43]"


def test_table2_spectra():
    expected = {
        "[12,5]": {1, 2, 3, 6},
        "[18,3]": {1, 2, 3, 6},
        "[24,7]": {1, 2, 3, 4, 6},
        "[24,8]": {1, 2, 3, 4, 6},
        "[24,14]": {1, 2, 3, 6},
        "[36,11]": {1, 2, 3, 6},
        "[72,43]": {1, 2, 3, 4, 6},
    }
    for label, spectrum in expected.items():
        assert cat.entry(label).expected_spectrum == frozenset(spectrum)


def test_build_recipe_families():
    assert cat.build_recipe("cyclic(6)").order == 6
    assert cat.build_recipe("direct(cyclic(2),cyclic(2),sym(3))").order == 24
    assert cat.build_recipe("semidirect(cyclic(3),cyclic(8),invert)").order == 24
    assert cat.build_recipe("perm(3; (0 1); (0 1 2))").order == 6


def test_build_recipe_errors():
    with pytest.raises(ParseError):
        cat.build_recipe("nonsense[")
    with pytest.raises(ParseError):
        cat.build_recipe("cyclic(two)")


def test_build_recipe_resolves_labels_against_given_entries():
    ents = cat.from_text("Q8 | cyclic(4) | 4 | 1,2,4 |\n"
                         "L | direct(L,cyclic(2)) | 8 | 1,2,4 |\n"
                         "X | cyclic(4) | 5 | 1,2,4 |\n")
    assert cat.build_recipe("direct(Q8,cyclic(2))").order == 16
    assert cat.build_recipe("direct(Q8,cyclic(2))", ents).order == 8
    assert cat.build_recipe("Q8", ents).label == "Q8"
    with pytest.raises(ParseError, match="L -> L"):
        cat.build_recipe("L", ents)
    with pytest.raises(ValidationFailed, match="X: order 4 != expected 5"):
        cat.build_recipe("direct(X,cyclic(2))", ents)
    with pytest.raises(UnknownLabel):
        cat.build_recipe("direct([8,1],cyclic(2))", ents)


def test_build_recipe_builds_each_file_label_once(monkeypatch):
    """Labels forming a DAG of depth 30, each referring twice to the one
    below: every label is built and checked once, not once per path."""
    text = "A0 | cyclic(1) | 1 | 1 |\n" + "".join(
        f"A{i} | direct(A{i - 1},A{i - 1}) | 1 | 1 |\n" for i in range(1, 31))
    ents = cat.from_text(text)
    calls = []
    checked = cat._checked

    def counting(ent, g):
        calls.append(ent.label)
        return checked(ent, g)

    monkeypatch.setattr(cat, "_checked", counting)
    assert cat.build_recipe("A30", ents).label == "A30"
    assert sorted(calls) == sorted(f"A{i}" for i in range(31))


def test_72_43_structure():
    g = cat.get("[72,43]")
    prof = gr.six_profile(g)
    assert prof.count == 3 and prof.pairwise_intersections == (3, 3, 3)
    assert not gr.is_isomorphic(
        g, gr.direct_product(gr.cyclic(3), gr.symmetric(4)))


def test_text_roundtrip():
    text = cat.to_text()
    back = cat.from_text(text)
    assert back == cat.entries()
    assert cat.from_text(cat.to_text(())) == ()
    with pytest.raises(ParseError):
        cat.from_text("only | four | fields | here\n")
