import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import powergenus.catalog as cat
import powergenus.groups as gr
import powergenus.powergraph as pg
from powergenus.errors import (ClosureCapExceeded, InvalidParameter,
                               NotAHomomorphism, NotAnAutomorphism,
                               OrderCapExceeded, ParseError, PowerGenusError)


def test_cyclic_orders():
    g = gr.cyclic(12)
    assert g.order == 12
    assert sorted(set(gr.order_spectrum(g).orders)) == [1, 2, 3, 4, 6, 12]


def test_cyclic_element_order_counts():
    g = gr.cyclic(12)
    mult = gr.order_spectrum(g).multiplicities
    # phi(d) elements of order d for each divisor d
    assert mult == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}


def test_dihedral():
    g = gr.dihedral(12)
    assert g.order == 12
    assert gr.count_involutions(g) == 7
    assert sorted(gr.order_spectrum(g).as_set) == [1, 2, 3, 6]


def test_dicyclic_unique_involution():
    for n in (2, 3, 4):
        g = gr.dicyclic(n)
        assert g.order == 4 * n
        assert gr.count_involutions(g) == 1


def test_semidihedral_spectrum():
    g = gr.semidihedral(16)
    assert g.order == 16
    assert sorted(gr.order_spectrum(g).as_set) == [1, 2, 4, 8]


def test_symmetric_alternating():
    assert gr.symmetric(4).order == 24
    assert gr.alternating(4).order == 12
    assert sorted(gr.order_spectrum(gr.symmetric(4)).as_set) == [1, 2, 3, 4]
    assert sorted(gr.order_spectrum(gr.alternating(4)).as_set) == [1, 2, 3]


def test_from_generators_s3():
    a = gr.parse_cycles("(0 1)", 3)
    b = gr.parse_cycles("(0 1 2)", 3)
    g = gr.from_generators(3, [a, b])
    assert g.order == 6
    assert gr.is_isomorphic(g, gr.symmetric(3))


def test_from_generators_cap():
    big = gr.parse_cycles("(0 1 2 3 4 5 6)", 7)
    swap = gr.parse_cycles("(0 1)", 7)
    with pytest.raises(ClosureCapExceeded):
        gr.from_generators(7, [big, swap])  # S7 has order 5040


def test_direct_product():
    g = gr.direct_product(gr.cyclic(2), gr.cyclic(6))
    assert g.order == 12
    assert sorted(gr.order_spectrum(g).as_set) == [1, 2, 3, 6]


def test_semidirect_rejects_non_automorphism():
    c5 = gr.cyclic(5)
    c2 = gr.cyclic(2)
    bad = {0: tuple(range(5)), 1: (0, 2, 1, 3, 4)}  # not a homomorphic image
    with pytest.raises(NotAnAutomorphism):
        gr.semidirect_product(c5, c2, bad)


C5_INVERT = (0, 4, 3, 2, 1)
C5_DOUBLE = (0, 2, 4, 1, 3)  # x -> 2x, an automorphism of order 4


@pytest.mark.parametrize("h_order, action, error", [
    # not a bijection of N
    (2, {0: tuple(range(5)), 1: (0, 0, 0, 0, 0)}, NotAnAutomorphism),
    (2, {0: tuple(range(5)), 1: (0, 1, 2, 3)}, NotAnAutomorphism),
    # a bijection that does not respect the product of N
    (2, {0: tuple(range(5)), 1: (0, 1, 2, 4, 3)}, NotAnAutomorphism),
    # the identity of H acts nontrivially
    (2, {0: C5_INVERT, 1: C5_INVERT}, NotAHomomorphism),
    # every map is an automorphism, but h -> action(h) is not a homomorphism
    (2, {0: tuple(range(5)), 1: C5_DOUBLE}, NotAHomomorphism),
    (3, {0: tuple(range(5)), 1: C5_INVERT, 2: tuple(range(5))},
     NotAHomomorphism),
])
def test_semidirect_rejects_bad_action(h_order, action, error):
    with pytest.raises(error):
        gr.semidirect_product(gr.cyclic(5), gr.cyclic(h_order), action)


def test_semidirect_checks_automorphisms_before_the_action():
    # h = 0 acts nontrivially and h = 1 is no automorphism: the
    # automorphism check of every map comes first
    action = {0: C5_INVERT, 1: (0, 2, 1, 3, 4)}
    with pytest.raises(NotAnAutomorphism):
        gr.semidirect_product(gr.cyclic(5), gr.cyclic(2), action)


def test_cyclic_action_rejects_non_cyclic_h():
    klein = gr.direct_product(gr.cyclic(2), gr.cyclic(2))
    with pytest.raises(NotAHomomorphism, match="not cyclic"):
        gr.cyclic_action(gr.cyclic(5), klein, C5_INVERT)


def test_cyclic_action_rejects_generator_order_not_dividing_h():
    with pytest.raises(NotAHomomorphism, match="does not divide"):
        gr.cyclic_action(gr.cyclic(5), gr.cyclic(2), C5_DOUBLE)
    # order 4 divides |Z4|, and Z5 x| Z4 by x -> 2x is the Frobenius group F20
    g = gr.semidirect_product(gr.cyclic(5), gr.cyclic(4),
                              gr.cyclic_action(gr.cyclic(5), gr.cyclic(4),
                                               C5_DOUBLE))
    assert g.order == 20 and len(gr.center(g)) == 1


def test_semidirect_dihedral():
    c5 = gr.cyclic(5)
    c2 = gr.cyclic(2)
    inv = tuple(c5.inverses().tolist())
    act = gr.cyclic_action(c5, c2, inv)
    g = gr.semidirect_product(c5, c2, act)
    assert gr.is_isomorphic(g, gr.dihedral(10))


def test_named_families():
    assert gr.named("cyclic", 6).order == 6
    assert gr.named("dicyclic", 4).order == 16
    with pytest.raises(InvalidParameter):
        gr.named("sporadic", 1)


def test_parse_cycles_errors():
    assert gr.parse_cycles("(0 1)(2 3)", 4) == (1, 0, 3, 2)
    with pytest.raises(ParseError):
        gr.parse_cycles("(0 9)", 4)


def test_from_text_parse():
    g = gr.from_text("group 3 C3\n1 2 0\n2 0 1\n0 1 2\n")  # identity is 2
    assert g.label == "C3" and g.order == 3
    assert gr.is_isomorphic(g, gr.cyclic(3))
    assert gr.from_text(gr.to_text(gr.dihedral(6))) == gr.dihedral(6)
    with pytest.raises(ParseError):
        gr.from_text("group 2\n0 1\n1 x\n")
    with pytest.raises(InvalidParameter):
        gr.from_text("group 3\n9 0 1\n0 1 2\n1 2 0\n")


def _reference_from_table(t):
    """from_table's relabelling by the transposition (0 e), entry by entry."""
    n = len(t)
    ident = next(e for e in range(n)
                 if all(t[e][x] == x and t[x][e] == x for x in range(n)))
    swap = list(range(n))
    swap[0], swap[ident] = ident, 0
    new = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        for j in range(n):
            new[swap[i], swap[j]] = swap[t[i][j]]
    return new


@pytest.mark.parametrize("label", ["D8", "[16,9]", "SL(2,3)"])
def test_from_table_moves_identity_to_zero(label):
    g = cat.get(label)
    n = g.order
    rng = np.random.default_rng(7)
    for _ in range(3):
        # rename x as perm[x]; the identity lands at a nonzero index
        perm = rng.permutation(n)
        if perm[0] == 0:
            perm[[0, 1]] = perm[[1, 0]]
        inv = np.argsort(perm)
        t = perm[g.table[np.ix_(inv, inv)]]
        built = gr.from_table(t.tolist(), label="x")
        assert np.array_equal(built.table, _reference_from_table(t.tolist()))
        assert gr.is_isomorphic(built, g)


def test_inverse_and_power():
    g = gr.cyclic(10)
    assert g.table[np.arange(10), g.inverses()].tolist() == [0] * 10
    powers = g.powers()
    assert len(powers) == 11 and powers[10].tolist() == [0] * 10


def test_six_profile_z2xz6():
    g = gr.direct_product(gr.cyclic(2), gr.cyclic(6))
    prof = gr.six_profile(g)
    assert prof.count == 3
    assert prof.pairwise_intersections == (3, 3, 3)


def test_involution_parity():
    # even-order groups have an odd number of involutions
    for g in (gr.cyclic(8), gr.dihedral(12), gr.dicyclic(3), gr.symmetric(4)):
        assert gr.count_involutions(g) % 2 == 1
    assert gr.count_involutions(gr.cyclic(9)) == 0


def test_prime_subgroup_congruence():
    g = gr.symmetric(4)
    assert len(gr.cyclic_subgroups_of_order(g, 2)) % 2 == 1
    assert len(gr.cyclic_subgroups_of_order(g, 3)) % 3 == 1


def test_center_and_centralizer():
    q8 = gr.dicyclic(2)
    assert len(gr.center(q8)) == 2
    s3 = gr.symmetric(3)
    assert len(gr.center(s3)) == 1


def test_is_isomorphic():
    assert gr.is_isomorphic(gr.cyclic(6),
                            gr.direct_product(gr.cyclic(2), gr.cyclic(3)))
    assert not gr.is_isomorphic(gr.cyclic(8), gr.dihedral(8))
    assert not gr.is_isomorphic(gr.dihedral(8), gr.dicyclic(2))


def test_is_isomorphic_cap():
    with pytest.raises(OrderCapExceeded):
        gr.is_isomorphic(gr.cyclic(150), gr.cyclic(150))


def test_table_validation():
    bad = np.zeros((3, 3), dtype=np.int64)  # constant rows: not a Cayley table
    with pytest.raises(Exception):
        gr.FiniteGroup(bad)


def test_table_validation_names_a_missing_inverse():
    # every column holds one 0, but row 1 holds two and row 2 none:
    # element 2 has a left inverse and no right inverse
    t = np.array([[0, 1, 2], [1, 0, 0], [2, 2, 1]])
    with pytest.raises(InvalidParameter, match="no two-sided inverse"):
        gr.FiniteGroup(t)


def test_table_validation_rejects_non_associative_loop():
    # Z200 with one intercalate swapped is still a Latin square with
    # identity 0 and two-sided inverses, so only associativity fails; at
    # this order the check is Light's test on the generating set {1}
    n = 200
    t = np.add.outer(np.arange(n), np.arange(n)) % n
    for a in (n - 3, n // 2 - 3):
        t[a, 1], t[a, 1 + n // 2] = t[a, 1 + n // 2], t[a, 1]
    with pytest.raises(InvalidParameter, match="not associative"):
        gr.FiniteGroup(t)


def _ref_associative(t) -> bool:
    """(x*y)*z == x*(y*z) over every triple, one at a time."""
    t = t.tolist()
    r = range(len(t))
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in r for y in r for z in r)


def _swap_intercalates(t, rng, swaps):
    """t with ``swaps`` intercalates off row and column 0 swapped: rows a, b
    and columns c, d with t[a, c] == t[b, d] and t[a, d] == t[b, c] trade
    their two values.  The result is still a Latin square with identity 0."""
    t = t.copy()
    n = len(t)
    while swaps:
        a, b = rng.choice(np.arange(1, n), size=2, replace=False)
        cols = np.arange(n)
        d = np.argsort(t[b])[t[a]]  # t[b, d[c]] == t[a, c]
        ok = (cols != 0) & (d != 0) & (cols != d) & (t[a, d] == t[b])
        if ok.any():
            c = rng.choice(np.flatnonzero(ok))
            for row in (a, b):
                t[row, [c, d[c]]] = t[row, [d[c], c]]
            swaps -= 1
    return t


Z2_4 = gr.direct_product(gr.direct_product(gr.cyclic(2), gr.cyclic(2)),
                         gr.direct_product(gr.cyclic(2), gr.cyclic(2)))


# orders up to 40 take the all-triples check, larger ones Light's test;
# with light_only every table takes Light's test
@pytest.mark.parametrize("light_only", [False, True])
@pytest.mark.parametrize("build, tables", [
    pytest.param(lambda: gr.dihedral(8), 40, id="D8"),
    pytest.param(lambda: gr.direct_product(gr.cyclic(2), gr.cyclic(6)), 30,
                 id="Z2xZ6"),
    pytest.param(lambda: Z2_4, 30, id="Z2^4"),
    pytest.param(lambda: gr.dihedral(36), 20, id="D36"),
    pytest.param(lambda: gr.dihedral(48), 10, id="D48"),
    pytest.param(lambda: gr.direct_product(Z2_4, gr.cyclic(4)), 10,
                 id="Z2^4xZ4"),
])
def test_associativity_check_matches_triple_loop(build, tables, light_only,
                                                 monkeypatch):
    if light_only:
        monkeypatch.setattr(gr, "_FULL_ASSOC_MAX", 0)
    g = build()
    rng = np.random.default_rng(g.order)
    outcomes = set()
    for _ in range(tables):
        t = _swap_intercalates(_relabelled(g, rng.integers(1 << 30)).table,
                               rng, rng.integers(3))
        associative = _ref_associative(t)
        outcomes.add(associative)
        if associative:
            assert np.array_equal(gr.FiniteGroup(t).table, t)
        else:
            with pytest.raises(InvalidParameter, match="not associative"):
                gr.FiniteGroup(t)
    assert outcomes == {True, False}


def test_table_generators_need_four_for_z2_4():
    gens = gr._table_generators(Z2_4.table)
    assert len(gens) == 4
    assert len(gr._word_tree(Z2_4.table.tolist(), gens)[1]) == 16
    # Light's test on all four: swapping an intercalate is caught
    t = _swap_intercalates(Z2_4.table, np.random.default_rng(4), 1)
    assert not _ref_associative(t)
    assert not np.array_equal(t[t[:, gens]], t[:, t[gens]])


def test_largest_tables_build():
    assert gr.cyclic(gr.MAX_ORDER).order == gr.MAX_ORDER
    assert gr.symmetric(6).order == 720


def _z_n_swapped(n):
    """Z_n with one intercalate swapped: a Latin square."""
    t = np.add.outer(np.arange(n), np.arange(n)) % n
    a = n // 2 - 3
    for row in (a, a + n // 2):
        t[row, [1, 1 + n // 2]] = t[row, [1 + n // 2, 1]]
    return t


def _max_plus(n, step):
    """max(x, y) + step (at most n - 1) off the diagonal and 0 on it, with
    the identity in row and column 0: one 0 per column, but rows repeat."""
    idx = np.arange(n)
    t = np.minimum(np.maximum.outer(idx, idx) + step, n - 1)
    t[0], t[:, 0] = idx, idx
    t[idx, idx] = 0
    return t


@pytest.mark.parametrize("build", [
    _z_n_swapped,
    lambda n: _max_plus(n, 0),  # each generator adds one element
    lambda n: _max_plus(n, 1),  # each round of closing adds one element
], ids=["Z_n-swapped", "max", "max+1"])
def test_non_associative_table_of_largest_order_refused(build):
    assert not _ref_associative(build(48))
    with pytest.raises(InvalidParameter, match="not associative"):
        gr.FiniteGroup(build(gr.MAX_ORDER))


@pytest.mark.parametrize("build", [
    lambda: gr.cyclic(gr.MAX_ORDER + 1),
    lambda: gr.dihedral(2 * gr.MAX_ORDER),
    lambda: gr.symmetric(7),
    lambda: gr.direct_product(gr.cyclic(40), gr.cyclic(40)),
    lambda: gr.from_table(np.zeros((gr.MAX_ORDER + 1,) * 2, dtype=np.int32)),
])
def test_order_above_table_limit_refused(build):
    with pytest.raises(InvalidParameter):
        build()


#: Per family: parameters, builder, and for the two-coset families the
#: presentation <a, b | a^m = 1, b^2 = a^z, b a b^-1 = a^r> as (m, r, z).
TABLE_FAMILIES = {
    "dihedral": (range(2, 80, 2), gr.dihedral, lambda o: (o // 2, -1, 0)),
    "dicyclic": (range(2, 30), gr.dicyclic, lambda n: (2 * n, -1, n)),
    "semidihedral": ((16, 32, 64, 128), gr.semidihedral,
                     lambda o: (o // 2, o // 4 - 1, 0)),
    "symmetric": (range(1, 6), gr.symmetric, None),
    "alternating": (range(1, 6), gr.alternating, None),
    "catalog": ([e.label for e in cat.entries()], cat.get, None),
}


def _check_presentation(g, m, r, z):
    """a = index 2 and b = index 1 satisfy the relations, a has order m,
    and a^i b^j sits at index 2i + j."""
    a, b = 2 % g.order, 1
    t, p = g.table, g.powers()
    assert g.element_orders()[a] == m
    assert p[2, b] == p[z, a]
    assert t[t[b, a], g.inverses()[b]] == p[r % m, a]
    for x in range(g.order):
        i, j = divmod(x, 2)
        assert t[p[i, a], p[j, b]] == x


#: sha256 over each family's ``table.tobytes()`` in parameter order: the
#: element numbering that labels, edge lists and certificates rest on.
TABLE_DIGESTS = {
    "dihedral": "6a4014de0c8e26fafa41c112ae05b1d751be052fd327fe66432a33a9327f8892",
    "dicyclic": "188197be32c3904648b8248885f6d2ff312c762c849417583b24841f4081c528",
    "semidihedral": "2459b6ef46118ce08466d96a996be06ef804edac7180391a18b5856f289ab4da",
    "symmetric": "96169d56f47e0c7f71ed071a45b7bb78f71d572f1256059029acdd9bba309189",
    "alternating": "39b6060b70e8763aa80a6eb1b26b4a3097a40e134400d119f833e6e4a25a63a3",
    "catalog": "3a1b6db6c25cffef2ef5284d86cee40299d287c270a5a6e5799bb2e383c2699d",
}


@pytest.mark.parametrize("family", TABLE_FAMILIES)
def test_element_indexing_pinned(family):
    """A builder that renumbers elements changes the digest even when
    orders and spectra stay the same."""
    params, build, presentation = TABLE_FAMILIES[family]
    h = hashlib.sha256()
    for p in params:
        g = build(p)
        h.update(g.table.tobytes())
        if presentation is not None:
            _check_presentation(g, *presentation(p))
    assert h.hexdigest() == TABLE_DIGESTS[family]


# ---------------------------------------------------------------------------
# whole-table queries against element-by-element reference code
# ---------------------------------------------------------------------------

def _relabelled(g, seed):
    """g with element x renamed perm[x], perm a seeded shuffle fixing 0."""
    rng = np.random.default_rng(seed)
    perm = np.concatenate([[0], 1 + rng.permutation(g.order - 1)])
    inv = np.argsort(perm)
    return gr.FiniteGroup(perm[g.table[np.ix_(inv, inv)]], label=g.label)


def _ref_cyclic_subgroup(t, x):
    """<x> by products in the table t, as nested lists."""
    members, acc = [0], x
    while acc != 0:
        members.append(acc)
        acc = t[acc][x]
    return frozenset(members)


def _check_against_reference(g):
    n, t = g.order, g.table.tolist()
    subgroups = [_ref_cyclic_subgroup(t, x) for x in range(n)]
    orders = [len(s) for s in subgroups]
    assert g.element_orders().tolist() == orders
    assert [gr.cyclic_subgroup(g, x) for x in range(n)] == subgroups
    counts = {}
    for k in orders:
        counts[k] = counts.get(k, 0) + 1
    spectrum = gr.order_spectrum(g)
    assert spectrum.multiplicities == counts
    assert spectrum.orders == tuple(sorted(counts))
    inv = [t[x].index(0) for x in range(n)]
    classes = [frozenset(t[t[inv[h]][x]][h] for h in range(n))
               for x in range(n)]
    assert gr._fingerprints(g) == [(k, len(c)) for k, c in zip(orders, classes)]
    edges = tuple((x, y) for x in range(n) for y in range(x + 1, n)
                  if x in subgroups[y] or y in subgroups[x])
    assert pg.power_graph(g).edges == edges


@pytest.mark.parametrize("label", [e.label for e in cat.entries()])
def test_queries_match_elementwise_reference(label):
    g = cat.get(label)
    _check_against_reference(g)
    _check_against_reference(_relabelled(g, seed=sum(map(ord, label))))


def test_isomorphism_over_catalog():
    """Each catalog group matches its relabelled copy (a true match with
    unequal tables), and no two same-order catalog groups match."""
    groups = [cat.get(e.label) for e in cat.entries()]
    for g in groups:
        copy = _relabelled(g, seed=g.order)
        assert not np.array_equal(copy.table, g.table)
        assert gr.is_isomorphic(g, copy) and gr.is_isomorphic(copy, g)
    for a, b in itertools.combinations(groups, 2):
        if a.order == b.order:
            assert not gr.is_isomorphic(a, b), (a.label, b.label)


def test_equal_tables_isomorphic_without_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(gr, "_iso_search", no_search)
    g = cat.get("SL(2,3)")
    assert gr.is_isomorphic(g, gr.FiniteGroup(g.table.copy()))


def test_power_table_rows_are_powers():
    g = _relabelled(cat.get("[16,9]"), seed=3)
    powers = g.powers()
    assert not powers.flags.writeable
    # rows 1 .. exponent - 1 each hold a non-identity power
    assert (powers[-1] == 0).all() and (powers[1:-1] != 0).any(axis=1).all()
    t, acc = g.table.tolist(), [0] * g.order
    for row in powers:
        assert row.tolist() == acc
        acc = [t[y][x] for x, y in enumerate(acc)]


# ---------------------------------------------------------------------------
# the trust boundary: tables from outside are validated, constructor
# outputs are groups by construction and are validated only here
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label", [e.label for e in cat.entries()])
def test_catalog_tables_are_groups(label):
    cat.get(label).validate()


def test_catalog_build_never_validates(monkeypatch):
    calls = []
    monkeypatch.setattr(gr.FiniteGroup, "validate",
                        lambda self: calls.append(self.label))
    for ent in cat.entries():
        cat.build_recipe(ent.recipe)
    assert calls == []


def _metacyclic_table(m, r, z):
    """The table ``_metacyclic`` builds, without its parameter check."""
    i, j = np.divmod(np.arange(2 * m), 2)
    twist = np.where(j == 1, r, 1)[:, None]
    jj = j[:, None] + j[None, :]
    return 2 * ((i[:, None] + twist * i[None, :] + z * (jj // 2)) % m) + jj % 2


def test_metacyclic_guard_matches_validation():
    """(m, r, z) passes ``_metacyclic``'s O(1) check exactly when its table
    passes ``validate``, on every triple with m <= 12."""
    accepted = 0
    for m in range(1, 13):
        for r in range(m):
            for z in range(m):
                t = _metacyclic_table(m, r, z)
                try:
                    gr.FiniteGroup(t)
                    is_group = True
                except InvalidParameter:
                    is_group = False
                try:
                    g = gr._metacyclic(m, r, z, "")
                except InvalidParameter:
                    assert not is_group, (m, r, z)
                    continue
                assert is_group and np.array_equal(g.table, t), (m, r, z)
                accepted += 1
    assert 0 < accepted < sum(m * m for m in range(1, 13))


@pytest.mark.parametrize("table, message", [
    (np.zeros((2, 3)), "multiplication table must be square"),
    ([[0, 1], [1, 2]], "table entries out of range"),
    ([[1, 0], [0, 1]], "element 0 is not a two-sided identity"),
    ([[0, 1, 2], [1, 0, 0], [2, 2, 1]], "some element has no two-sided inverse"),
    (_z_n_swapped(8), "table is not associative"),
])
def test_outside_tables_still_validated(table, message):
    with pytest.raises(InvalidParameter, match=message):
        gr.FiniteGroup(table)


@pytest.mark.parametrize("table, message", [
    (np.array([[0, 2**32 + 1], [2**32 + 1, 0]]), "out of range"),
    ([[0, 2**31], [1, 0]], "out of range"),
    ([[0, 2**70], [1, 0]], "must be integers"),
    ([[0.7, 1.2], [1.9, 0.1]], "must be integers"),
    ([[0.0, 1.0], [1.0, 0.0]], "must be integers"),
    ([["0", "1"], ["1", "0"]], "must be integers"),
    ([[True, False], [False, True]], "must be integers"),
    ([[0, 1], [1]], "must be square"),
    ([], "must be square"),
    (np.zeros((0, 0), dtype=np.int64), "must be square"),
], ids=["int64-wraps", "int32-overflow", "huge", "float", "whole-float",
        "strings", "bool", "ragged", "empty", "zero-by-zero"])
def test_outside_table_entries_checked_before_the_cast(table, message):
    """Entries a cast to int32 would wrap, truncate or overflow, and tables
    the cast cannot shape, are refused by both entry points."""
    for build in (gr.FiniteGroup, gr.from_table):
        with pytest.raises(InvalidParameter, match=message):
            build(table)


def test_from_text_entry_out_of_int32_range():
    with pytest.raises(InvalidParameter, match="out of range"):
        gr.from_text("group 2\n0 2147483648\n1 0\n")


def test_degree_above_max_order_refused():
    """Degrees above MAX_ORDER are refused before any degree-length tuple
    is built; MAX_ORDER itself is accepted."""
    for call in (lambda: gr.parse_cycles("()", gr.MAX_ORDER + 1),
                 lambda: gr.from_generators(gr.MAX_ORDER + 1, [])):
        with pytest.raises(InvalidParameter, match="permutation degree"):
            call()
    swap = gr.parse_cycles("(0 1)", gr.MAX_ORDER)
    assert gr.from_generators(gr.MAX_ORDER, [swap]).order == 2


@pytest.mark.parametrize("table, message", [
    ([[0, 1, 2], [1, 0, 0], [2, 2, 1]], "some element has no two-sided inverse"),
    (_z_n_swapped(8), "table is not associative"),
])
def test_from_table_still_validated(table, message):
    with pytest.raises(InvalidParameter, match=message):
        gr.from_table(table)
    with pytest.raises(InvalidParameter, match=message):
        gr.from_text(gr.to_text(gr.FiniteGroup(table, validate=False)))


def _power_action(n):
    """(recipe of N, action, order of the action) for x -> x^k on Z_n,
    over every unit k mod n."""
    out = []
    for k in range(2, n):
        if np.gcd(k, n) == 1:
            order = next(e for e in range(1, n) if pow(k, e, n) == 1)
            out.append((f"cyclic({n})", f"power{k}", order))
    return out


#: (N, named action, order of the action on N); H = cyclic(a multiple of it)
_ACTIONS = [(f"cyclic({n})", "invert", 2) for n in range(3, 9)]
_ACTIONS += [a for n in range(5, 10) for a in _power_action(n)]
_ACTIONS += [
    ("direct(cyclic(2),cyclic(4))", "invert", 2),
    ("direct(cyclic(3),cyclic(3))", "invert", 2),
    ("direct(cyclic(3),cyclic(3))", "rot90", 4),
    ("direct(cyclic(2),cyclic(2))", "cycle3", 3),
    ("direct(cyclic(3),direct(cyclic(2),cyclic(2)))", "invert_swap", 2),
]

_FACTORS = st.one_of(
    st.integers(1, 6).map(lambda n: f"cyclic({n})"),
    st.integers(1, 5).map(lambda n: f"dihedral({2 * n})"),
    st.integers(2, 3).map(lambda n: f"dicyclic({n})"),
    # one or two cycles generating a subgroup of S4, through the closure
    st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=4, unique=True),
             min_size=1, max_size=2).map(
        lambda cs: "perm(4; " + "; ".join(
            "(" + " ".join(map(str, c)) + ")" for c in cs) + ")"),
)
_SEMIDIRECT = st.builds(
    lambda action, mult: (f"semidirect({action[0]},cyclic({action[2] * mult}),"
                          f"{action[1]})"),
    st.sampled_from(_ACTIONS), st.integers(1, 2))
_RECIPES = st.one_of(
    _SEMIDIRECT,
    st.builds(lambda a, b: f"direct({a},{b})",
              st.one_of(_FACTORS, _SEMIDIRECT), _FACTORS))


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_RECIPES)
def test_constructor_outputs_are_groups(recipe):
    """Direct and semidirect products of small cyclic, dihedral, dicyclic
    and permutation groups, under every named action, are groups without
    being validated when built."""
    try:
        g = cat.build_recipe(recipe)
    except PowerGenusError:
        assume(False)  # e.g. perm(...) arguments that are not cycles
    g.validate()
