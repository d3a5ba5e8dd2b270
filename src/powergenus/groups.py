"""Finite group kernel: Cayley tables, their inverse and power tables,
subgroup machinery.

Groups are stored as full multiplication tables (orders stay <= 144 in every
catalog use); constructors refuse orders above ``MAX_ORDER`` before
allocating a table.  Products, inverses and powers come only from
``FiniteGroup.table``, ``inverses()`` and ``powers()``.  Validation and the
isomorphism invariants are whole-table numpy operations.
The identity is always normalized to index 0, and all values are immutable
after construction.

A table is validated where it enters from outside the package:
``FiniteGroup(table)`` and ``from_table``/``from_text``.  The constructors
below build groups by construction from groups or from checked parameters,
so they pass ``validate=False``; each docstring says why its table is a
group.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClosureCapExceeded,
    EmptyGeneratorList,
    InvalidParameter,
    NotAHomomorphism,
    NotAnAutomorphism,
    OrderCapExceeded,
    ParseError,
)

ISO_ORDER_CAP = 144

# Constructors refuse larger orders before allocating the n x n table
# (4 MiB of int32 at this order).
MAX_ORDER = 1024
# FiniteGroup.validate compares all n^3 triples in one gather up to this
# order, where that is cheaper than Light's test on a generating set
_FULL_ASSOC_MAX = 40


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise InvalidParameter(f"order {n} exceeds the table limit {MAX_ORDER}")


def _outside_table(table) -> np.ndarray:
    """A table from outside the package as a square int32 array.  Ragged,
    empty or non-square tables and entries that are not integers in
    0..n-1 are refused before the cast, which would wrap, truncate or
    overflow them."""
    try:
        t = np.asarray(table)
    except ValueError:  # ragged rows
        t = None
    if t is None or t.ndim != 2 or t.shape[0] != t.shape[1] or not t.size:
        raise InvalidParameter("multiplication table must be square")
    if t.dtype.kind not in "iu":
        raise InvalidParameter("table entries must be integers")
    if t.min() < 0 or t.max() >= len(t):
        raise InvalidParameter("table entries out of range")
    return t.astype(np.int32, copy=False)


def _table_generators(t: np.ndarray) -> list[int] | None:
    """Elements that generate the table under its product, read off the
    table itself, or None when the table is no group.

    Start from the closure C = {0}: add the first element outside C, then
    close C under products until it stops growing, until C is everything.
    C grows only by products, so the elements added generate it.  In a
    group, C is a subgroup H before each addition and at least H and the
    coset Hg after it, so C doubles; and C_k, after k rounds of C * C,
    holds every product of 2^k elements, so closing takes at most
    n.bit_length() + 1 rounds.  A table that breaks either bound is no
    group, and its work stays O(n^2 log^2 n).
    """
    n = len(t)
    member = np.zeros(n, dtype=bool)
    member[0] = True
    gens, size = [], 1
    while size < n:
        gens.append(int(np.argmin(member)))
        member[gens[-1]] = True
        for _ in range(n.bit_length() + 1):
            c = np.flatnonzero(member)
            member[t[np.ix_(c, c)]] = True
            if np.count_nonzero(member) == len(c):
                break
        else:
            return None
        if len(c) < 2 * size:
            return None
        size = len(c)
    return gens


class FiniteGroup:
    """A finite group given by its multiplication table.

    ``table[i, j]`` is the index of the product i*j; element 0 is the
    identity; inverses and powers are rows of the cached ``inverses()`` and
    ``powers()``.  Instances are immutable and hashable by identity of content.
    """

    __slots__ = ("table", "label", "_orders", "_inv", "_powers", "_hash")

    def __init__(self, table: np.ndarray, label: str = "", validate: bool = True):
        table = (_outside_table(table) if validate
                 else np.asarray(table, dtype=np.int32))
        table.setflags(write=False)
        self.table = table
        self.label = label
        self._orders = None
        self._inv = None
        self._powers = None
        self._hash = None
        if validate:
            self.validate()

    # -- basic protocol ------------------------------------------------------

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.table.tobytes())
        return self._hash

    def __repr__(self) -> str:
        name = self.label or "?"
        return f"FiniteGroup(order={self.order}, label={name!r})"

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Identity, inverse and associativity checks on a table whose
        entries are in range (``_outside_table`` checks that).

        Associativity is Light's test.  Let A be the set of g with
        (x*g)*y == x*(g*y) for all x, y.  A holds the identity and is closed
        under products: for a, b in A, (x*(a*b))*y = ((x*a)*b)*y =
        (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y).  So A is the whole table
        once it holds a generating set S, and only the g in S are checked.
        An associative table that passed the identity and inverse checks
        (every element has a left and a right inverse) is a group, so a
        table for which ``_table_generators`` finds no group is not
        associative either.
        Small tables compare all triples in one gather instead.
        """
        t = self.table
        n = self.order
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise InvalidParameter("element 0 is not a two-sided identity")
        # exactly one identity in every row and every column: a unique
        # right and a unique left inverse for each element
        zero = t == 0
        if not ((zero.sum(axis=0) == 1).all() and (zero.sum(axis=1) == 1).all()):
            raise InvalidParameter("some element has no two-sided inverse")
        if n <= _FULL_ASSOC_MAX:
            # [x, g, y] -> (x*g)*y against x*(g*y), over every g
            associative = np.array_equal(t[t], t[:, t])
        else:
            s = _table_generators(t)
            # per g: [x, y] -> (x*g)*y against x*(g*y)
            associative = s is not None and all(
                np.array_equal(t[t[:, g]], t[:, t[g]]) for g in s)
        if not associative:
            raise InvalidParameter("table is not associative")

    # -- inverses, powers and element orders ---------------------------------

    def inverses(self) -> np.ndarray:
        """Read-only array holding the inverse of every element."""
        if self._inv is None:
            inv = np.empty(self.order, dtype=np.int32)
            rows, cols = np.nonzero(self.table == 0)
            inv[rows] = cols
            inv.setflags(write=False)
            self._inv = inv
        return self._inv

    def powers(self) -> np.ndarray:
        """Read-only table whose row k holds x^k for every element x, for
        k = 0 .. exponent (the last row is all identity)."""
        if self._powers is None:
            t, cols = self.table, np.arange(self.order)
            rows = [np.zeros(self.order, dtype=np.int32), cols.astype(np.int32)]
            while rows[-1].any():
                rows.append(t[rows[-1], cols])
            powers = np.stack(rows)
            powers.setflags(write=False)
            self._powers = powers
        return self._powers

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            # the first k >= 1 with x^k = e; row exponent is all identity
            orders = (np.argmax(self.powers()[1:] == 0, axis=0) + 1).astype(np.int32)
            orders.setflags(write=False)
            self._orders = orders
        return self._orders


@dataclass(frozen=True)
class OrderSpectrum:
    """The set of element orders of a group, with multiplicities."""

    orders: tuple[int, ...]
    multiplicities: dict[int, int] = field(compare=False)

    @property
    def as_set(self) -> frozenset[int]:
        return frozenset(self.orders)

    def subset_of(self, allowed) -> bool:
        return self.as_set <= frozenset(allowed)

    def __contains__(self, k: int) -> bool:
        return k in self.as_set

    def max(self) -> int:
        return max(self.orders)

    def __str__(self) -> str:
        return "{" + ",".join(str(k) for k in self.orders) + "}"


@dataclass(frozen=True)
class SixProfile:
    """Cyclic order-6 subgroup data: the pivot of the genus classification.

    ``pairwise_intersections`` lists |H_i ∩ H_j| over all unordered pairs of
    distinct cyclic subgroups of order 6.
    """

    count: int
    pairwise_intersections: tuple[int, ...]

    def __post_init__(self):
        expect = self.count * (self.count - 1) // 2
        assert len(self.pairwise_intersections) == expect
        assert all(k in (1, 2, 3) for k in self.pairwise_intersections)

    def __str__(self) -> str:
        return f"({self.count};{','.join(map(str, self.pairwise_intersections))})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def from_table(table, label: str = "") -> FiniteGroup:
    """Build a group from a raw table, normalizing the identity to index 0."""
    t = _outside_table(table)
    n = t.shape[0]
    _check_order(n)
    idx = np.arange(n)
    two_sided = (t == idx).all(axis=1) & (t == idx[:, None]).all(axis=0)
    if not two_sided.any():
        raise InvalidParameter("table has no two-sided identity")
    ident = int(np.argmax(two_sided))
    if ident != 0:
        perm = idx.copy()
        perm[[0, ident]] = perm[[ident, 0]]  # relabel by the transposition (0 e)
        new = np.empty_like(t)
        new[np.ix_(perm, perm)] = perm[t]
        t = new
    return FiniteGroup(t, label=label)


def _perm_group(perms, label: str) -> FiniteGroup:
    """The group of the given distinct permutations (closed under
    composition), with the identity at index 0 and the others in their
    given order.

    Not re-validated: a finite set of permutations closed under
    composition is a subgroup of the symmetric group, since composition is
    associative and each permutation's powers reach its inverse.
    """
    arr = np.asarray(perms, dtype=np.int64)
    ident = np.arange(arr.shape[1])
    arr = np.vstack([ident, arr[(arr != ident).any(axis=1)]])
    n, degree = arr.shape
    _check_order(n)
    # each permutation as one opaque scalar, so whole rows sort and match
    row = np.dtype((np.void, arr.itemsize * degree))
    keys = np.ascontiguousarray(arr).view(row).ravel()
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    # (p*q)(i) = p(q(i)): entry [i, j] of the gather is perms[i] o perms[j]
    products = np.ascontiguousarray(arr[:, arr]).view(row).ravel()
    pos = np.minimum(np.searchsorted(sorted_keys, products), n - 1)
    if not np.array_equal(sorted_keys[pos], products):
        raise InvalidParameter("permutations are not closed under composition")
    return FiniteGroup(by_key[pos].reshape(n, n), label=label, validate=False)


def _check_degree(degree: int) -> None:
    """1 to ``MAX_ORDER``: by Cayley's theorem every group of order at most
    ``MAX_ORDER`` acts faithfully on that many points."""
    if not 1 <= degree <= MAX_ORDER:
        raise InvalidParameter(f"permutation degree must be in 1..{MAX_ORDER}, got {degree}")


def from_generators(degree: int, generators, label: str = "") -> FiniteGroup:
    """Closure of a set of permutations of {0..degree-1} under composition;
    ClosureCapExceeded as soon as it has more than ``MAX_ORDER`` elements."""
    _check_degree(degree)
    gens = [tuple(g) for g in generators]
    if not gens:
        raise EmptyGeneratorList("need at least one generator")
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise InvalidParameter(f"not a permutation of degree {degree}: {g}")
    gens = np.array(gens, dtype=np.int64)
    ident = np.arange(degree)
    elems, seen, frontier = [ident], {ident.tobytes()}, ident[None]
    while len(frontier):
        # every p o g, p in the frontier and g in gens, in (p, g) order
        nxt = []
        for q in frontier[:, gens].reshape(len(frontier) * len(gens), len(ident)):
            key = q.tobytes()
            if key not in seen:
                if len(seen) >= MAX_ORDER:
                    raise ClosureCapExceeded(
                        f"closure exceeded {MAX_ORDER} elements")
                seen.add(key)
                nxt.append(q)
        elems.extend(nxt)
        frontier = np.array(nxt).reshape(len(nxt), len(ident))
    return _perm_group(elems, label)


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group Z_n; not re-validated, the table is addition mod n."""
    if n < 1:
        raise InvalidParameter("cyclic: n >= 1")
    _check_order(n)
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, label=f"Z{n}",
                       validate=False)


def _metacyclic(m: int, r: int, z: int, label: str) -> FiniteGroup:
    """<a, b | a^m = 1, b^2 = a^z, b a b^-1 = a^r> with a^i b^j at index
    2i + j, so a^i1 b^j1 * a^i2 b^j2 = a^(i1 + r^j1 i2 + z [j1 + j2 = 2])
    b^((j1 + j2) mod 2).

    Not re-validated: the presentation defines a group of order 2m exactly
    when conjugation by b is an automorphism of <a> of order dividing 2
    (r^2 = 1 mod m) that fixes b^2 = a^z (r z = z mod m), the extension
    condition for a cyclic group by Z2; any other (r, z) is refused.
    """
    if (r * r - 1) % m or (r * z - z) % m:
        raise InvalidParameter(
            f"metacyclic: need r^2 = 1 and r*z = z mod {m}, got r={r}, z={z}")
    _check_order(2 * m)
    i, j = np.divmod(np.arange(2 * m), 2)
    twist = np.where(j == 1, r, 1)[:, None]
    jj = j[:, None] + j[None, :]
    ii = (i[:, None] + twist * i[None, :] + z * (jj // 2)) % m
    return FiniteGroup(2 * ii + jj % 2, label=label, validate=False)


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group D_order (parameter is the group order 2n, n >= 1)."""
    if order < 2 or order % 2:
        raise InvalidParameter("dihedral: order must be even and >= 2")
    return _metacyclic(order // 2, -1, 0, f"D{order}")


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: <a,b : a^2n = 1, b^2 = a^n, b a b^-1 = a^-1>.

    dicyclic(2) is the quaternion group Q8 and dicyclic(4) is Q16.
    """
    if n < 2:
        raise InvalidParameter("dicyclic: n >= 2")
    label = "Q8" if n == 2 else ("Q16" if n == 4 else f"Dic{n}")
    return _metacyclic(2 * n, -1, n, label)


def semidihedral(order: int) -> FiniteGroup:
    """Semidihedral group of order 2^k (k >= 4): <a,b : a^m=b^2=1, bab=a^(m/2-1)>."""
    if order < 16 or order & (order - 1):
        raise InvalidParameter("semidihedral: order must be a power of two >= 16")
    m = order // 2
    return _metacyclic(m, m // 2 - 1, 0, f"QD{order}")


def symmetric(n: int) -> FiniteGroup:
    if not 1 <= n <= 6:  # S7 and A7 exceed MAX_ORDER
        raise InvalidParameter("symmetric: 1 <= n <= 6")
    return _perm_group(list(itertools.permutations(range(n))), f"S{n}")


def _perm_sign(p) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if not seen[i]:
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
    return sign


def alternating(n: int) -> FiniteGroup:
    if not 1 <= n <= 6:  # S7 and A7 exceed MAX_ORDER
        raise InvalidParameter("alternating: 1 <= n <= 6")
    return _perm_group([p for p in itertools.permutations(range(n))
                        if _perm_sign(p) == 1], f"A{n}")


_FAMILIES = {
    "cyclic": cyclic,
    "dihedral": dihedral,
    "dicyclic": dicyclic,
    "semidihedral": semidihedral,
    "symmetric": symmetric,
    "alternating": alternating,
}


def named(family: str, parameter: int) -> FiniteGroup:
    """Construct a member of a named family; see the family constructors."""
    try:
        ctor = _FAMILIES[family]
    except KeyError:
        raise InvalidParameter(f"unknown family {family!r}") from None
    return ctor(parameter)


def direct_product(a: FiniteGroup, b: FiniteGroup, label: str = "") -> FiniteGroup:
    """A x B with the componentwise product; not re-validated, the product
    of two groups is a group."""
    na, nb = a.order, b.order
    _check_order(na * nb)
    ta = np.asarray(a.table)
    tb = np.asarray(b.table)
    # index (x, y) -> x*nb + y; componentwise product
    table = (ta[:, None, :, None] * nb + tb[None, :, None, :]).reshape(na * nb, na * nb)
    lbl = label or (f"{a.label}x{b.label}" if a.label and b.label else "")
    return FiniteGroup(table, label=lbl, validate=False)


def _check_automorphism(n_grp: FiniteGroup, img: np.ndarray) -> None:
    t, idx = n_grp.table, np.arange(n_grp.order)
    if img.shape != idx.shape or not np.array_equal(np.sort(img), idx):
        raise NotAnAutomorphism("action map is not a bijection")
    if not np.array_equal(img[t], t[np.ix_(img, img)]):
        raise NotAnAutomorphism("action map is not a homomorphism")


def semidirect_product(n_grp: FiniteGroup, h_grp: FiniteGroup, action,
                       label: str = "") -> FiniteGroup:
    """N ⋊ H with multiplication (n1,h1)(n2,h2) = (n1 * h1.n2, h1 h2).

    ``action`` maps each element of H to an automorphism of N (a sequence of
    element images).  Both the automorphism property of every action(h) and
    the homomorphism property of the action itself are verified; the table
    is then a group by construction and is not re-validated.
    """
    nn, nh = n_grp.order, h_grp.order
    _check_order(nn * nh)
    maps = [np.asarray(tuple(action[h]), dtype=np.int64) for h in range(nh)]
    for img in maps:
        _check_automorphism(n_grp, img)
    m = np.stack(maps)
    if not np.array_equal(m[0], np.arange(nn)):
        raise NotAHomomorphism("action of the identity is not the identity map")
    # m[h1 h2] == m[h1] o m[h2] for every pair (h1, h2)
    th = h_grp.table
    if not np.array_equal(m[th], m[np.arange(nh)[:, None, None], m[None, :, :]]):
        raise NotAHomomorphism("action is not a homomorphism H -> Aut(N)")
    # (x1, h1)(x2, h2) = (x1 * m[h1][x2], h1 h2) with (x, h) at index x*nh + h
    twisted = n_grp.table[:, m]  # [x1, h1, x2] -> x1 * m[h1][x2]
    table = twisted[:, :, :, None] * nh + th[None, :, None, :]
    return FiniteGroup(table.reshape(nn * nh, nn * nh), label=label,
                       validate=False)


def cyclic_action(n_grp: FiniteGroup, h_grp: FiniteGroup, gen_auto):
    """Action of a cyclic H: its max-order element acts by ``gen_auto``.

    Raises NotAHomomorphism when gen_auto's order does not divide |H| as
    required for a well-defined action of the chosen generator.
    """
    orders = h_grp.element_orders()
    gen = int(np.argmax(orders))
    if orders[gen] != h_grp.order:
        raise NotAHomomorphism("H is not cyclic")
    gen_auto = np.asarray(tuple(gen_auto), dtype=np.int64)
    maps = {}
    m = np.arange(n_grp.order)
    for h in h_grp.powers()[:h_grp.order, gen].tolist():
        maps[h] = tuple(m.tolist())
        m = gen_auto[m]
    if not np.array_equal(m, np.arange(n_grp.order)):
        raise NotAHomomorphism("generator automorphism order does not divide |H|")
    return maps


# ---------------------------------------------------------------------------
# element / subgroup queries
# ---------------------------------------------------------------------------

def order_spectrum(g: FiniteGroup) -> OrderSpectrum:
    counts = np.bincount(g.element_orders())
    vals = np.nonzero(counts)[0].tolist()
    return OrderSpectrum(tuple(vals), {v: int(counts[v]) for v in vals})


def cyclic_subgroup(g: FiniteGroup, x: int) -> frozenset[int]:
    return frozenset(g.powers()[:g.element_orders()[x], x].tolist())


def cyclic_subgroups_of_order(g: FiniteGroup, k: int) -> list[frozenset[int]]:
    """The distinct cyclic subgroups of order k, in order of their first
    generator's index."""
    if k < 1:
        raise InvalidParameter("k >= 1")
    gens = np.nonzero(g.element_orders() == k)[0]
    return list(dict.fromkeys(cyclic_subgroup(g, int(x)) for x in gens))


def six_profile(g: FiniteGroup) -> SixProfile:
    subs = cyclic_subgroups_of_order(g, 6)
    inters = tuple(len(a & b) for a, b in itertools.combinations(subs, 2))
    return SixProfile(len(subs), inters)


def center(g: FiniteGroup) -> frozenset[int]:
    t = g.table
    return frozenset(int(v) for v in np.nonzero((t == t.T).all(axis=1))[0])


def count_involutions(g: FiniteGroup) -> int:
    return int(np.count_nonzero(g.element_orders() == 2))


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def _fingerprints(g: FiniteGroup) -> list[tuple[int, int]]:
    """(element order, conjugacy class size) per element."""
    t, n = g.table, g.order
    # conj[h, x] = h^-1 x h: column x lists x's conjugates, with repeats
    conj = np.sort(t[t[g.inverses()], np.arange(n)[:, None]], axis=0)
    sizes = 1 + np.count_nonzero(conj[1:] != conj[:-1], axis=0)
    return list(zip(g.element_orders().tolist(), sizes.tolist()))


def _word_tree(ta: list[list[int]], gens):
    """BFS expressions of every element as (parent, generator-slot) pairs,
    with ``ta`` the group's table as nested lists."""
    parent = {0: None}
    order = [0]
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = ta[x]
            for slot, s in enumerate(gens):
                y = row[s]
                if y not in parent:
                    parent[y] = (x, slot)
                    order.append(y)
                    nxt.append(y)
        frontier = nxt
    return parent, order


def _extend_map(tb: list[list[int]], images, parent, bfs_order):
    """Extend generator images along the word tree, with ``tb`` the target
    group's table as nested lists: phi[x] for every element x, or None if
    phi is not injective."""
    phi = [0] * len(bfs_order)
    for x in bfs_order[1:]:
        px, slot = parent[x]
        phi[x] = tb[phi[px]][images[slot]]
    return phi if len(set(phi)) == len(phi) else None


def _is_hom(a: FiniteGroup, b: FiniteGroup, phi: list[int]) -> bool:
    p = np.asarray(phi)
    return np.array_equal(p[a.table], b.table[np.ix_(p, p)])


def _iso_search(a: FiniteGroup, b: FiniteGroup, fpa, fpb):
    """Backtracking generator-image search, with candidate images matched
    by the fingerprints ``fpa`` of a and ``fpb`` of b; the first
    isomorphism map, or None when there is none."""
    gens = _table_generators(a.table)
    cand = []
    for s in gens:
        cs = [y for y in range(b.order) if fpb[y] == fpa[s]]
        if not cs:
            return None
        cand.append(cs)
    parent, bfs_order = _word_tree(a.table.tolist(), gens)
    tb = b.table.tolist()
    for images in itertools.product(*cand):
        phi = _extend_map(tb, images, parent, bfs_order)
        if phi is not None and _is_hom(a, b, phi):
            return phi
    return None


def is_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    if a.order != b.order:
        return False
    if a.order > ISO_ORDER_CAP or b.order > ISO_ORDER_CAP:
        raise OrderCapExceeded(f"isomorphism search capped at order {ISO_ORDER_CAP}")
    if np.array_equal(a.table, b.table):
        return True  # the identity map
    fpa, fpb = _fingerprints(a), _fingerprints(b)
    if sorted(fpa) != sorted(fpb):
        return False
    return _iso_search(a, b, fpa, fpb) is not None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_text(g: FiniteGroup) -> str:
    lines = [f"group {g.order} {g.label}".rstrip()]
    for row in g.table:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> FiniteGroup:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("group "):
        raise ParseError("expected 'group <order> [label]' header")
    head = lines[0].split(maxsplit=2)
    try:
        n = int(head[1])
    except (IndexError, ValueError):
        raise ParseError("bad group header") from None
    label = head[2] if len(head) > 2 else ""
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} table rows, got {len(lines) - 1}")
    try:
        table = [[int(v) for v in ln.split()] for ln in lines[1:]]
    except ValueError:
        raise ParseError("non-integer table entry") from None
    if any(len(row) != n for row in table):
        raise ParseError("ragged table row")
    return from_table(table, label=label)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Parse cycle notation like ``(0 1 2)(3 4)`` into a permutation tuple."""
    _check_degree(degree)
    text = text.strip()
    if text in ("()", "e", "id", ""):
        return tuple(range(degree))
    if not re.fullmatch(r"(\([^()]*\))+", text):
        raise ParseError(f"bad cycle notation: {text!r}")
    perm = list(range(degree))
    for body in _CYCLE_RE.findall(text):
        pts = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
        if len(set(pts)) != len(pts) or any(not 0 <= p < degree for p in pts):
            raise ParseError(f"bad cycle: ({body})")
        for i, p in enumerate(pts):
            perm[p] = pts[(i + 1) % len(pts)]
    return tuple(perm)
