"""Curated, validated group catalogs.

Complete enumerations for orders 12, 18, and 36, plus the named groups of
orders 8, 16, 24, and 72 the genus classification refers to.  Every entry
is a constructor recipe treated as a claim: ``build_recipe`` resolves a
label, whole or nested in a recipe, by building the entry's recipe and
checking its claimed order and order spectrum (``get`` memoises the
built-in ones), and ``validate_all`` additionally verifies pairwise
non-isomorphism of the complete slices and of the 15 groups of order 24.

Recipe grammar (shared with the CLI):
  cyclic(n) dihedral(order) dicyclic(n) semidihedral(order) sym(n) alt(n)
  direct(a,b,...)                 iterated direct product
  semidirect(N,H,action)          H cyclic; action by name, see below
  perm(degree; cycles; cycles...) permutation-generator closure

Named actions (the generator of H acts by):
  invert       x -> x^-1 on any abelian N
  power<k>     x -> x^k on cyclic N (e.g. power5 on cyclic(8))
  rot90        (x,y) -> (-y,x) on direct(cyclic(3),cyclic(3))
  cycle3       cycles the three involutions of direct(cyclic(2),cyclic(2))
  invert_swap  (x,u,v) -> (x^-1,v,u) on direct(cyclic(3),direct(cyclic(2),cyclic(2)))
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import (InvalidParameter, ParseError, UnknownLabel,
                     UnsupportedOrder, ValidationFailed)
from .groups import (FiniteGroup, cyclic_action, direct_product,
                     from_generators, is_isomorphic, named, order_spectrum,
                     parse_cycles, semidirect_product)


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog record: a label, a constructor recipe, and the claimed
    order and order spectrum, checked at build time."""

    label: str
    recipe: str
    expected_order: int
    expected_spectrum: frozenset[int]
    tags: frozenset[str]

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags


def _e(label, recipe, order, spectrum, *tags) -> CatalogEntry:
    return CatalogEntry(label, recipe, order, frozenset(spectrum), frozenset(tags))


_ENTRIES: tuple[CatalogEntry, ...] = (
    # --- order 8 (curated) --------------------------------------------------
    _e("[8,1]", "cyclic(8)", 8, {1, 2, 4, 8}, "table1", "order8-curated"),
    _e("Z4xZ2", "direct(cyclic(4),cyclic(2))", 8, {1, 2, 4}, "no-gap-id", "order8-curated"),
    _e("Z2^3", "direct(cyclic(2),cyclic(2),cyclic(2))", 8, {1, 2}, "no-gap-id", "order8-curated"),
    _e("D8", "dihedral(8)", 8, {1, 2, 4}, "no-gap-id", "order8-curated"),
    _e("Q8", "dicyclic(2)", 8, {1, 2, 4}, "no-gap-id", "order8-curated"),
    # --- order 12 (complete: 5 groups) --------------------------------------
    _e("Z12", "cyclic(12)", 12, {1, 2, 3, 4, 6, 12}, "no-gap-id", "order12-complete"),
    _e("[12,5]", "direct(cyclic(2),cyclic(6))", 12, {1, 2, 3, 6},
       "table1", "table2", "order12-complete"),
    _e("D12", "dihedral(12)", 12, {1, 2, 3, 6}, "no-gap-id", "order12-complete"),
    _e("A4", "alt(4)", 12, {1, 2, 3}, "no-gap-id", "order12-complete"),
    _e("Dic3", "dicyclic(3)", 12, {1, 2, 3, 4, 6}, "no-gap-id", "order12-complete"),
    # --- order 16 (curated) -------------------------------------------------
    _e("Z16", "cyclic(16)", 16, {1, 2, 4, 8, 16}, "no-gap-id", "order16-curated"),
    _e("Z2xZ8", "direct(cyclic(2),cyclic(8))", 16, {1, 2, 4, 8}, "no-gap-id", "order16-curated"),
    _e("Z4xZ4", "direct(cyclic(4),cyclic(4))", 16, {1, 2, 4}, "no-gap-id", "order16-curated"),
    _e("Z2^2xZ4", "direct(cyclic(2),cyclic(2),cyclic(4))", 16, {1, 2, 4},
       "no-gap-id", "order16-curated"),
    _e("Z2^4", "direct(cyclic(2),cyclic(2),cyclic(2),cyclic(2))", 16, {1, 2},
       "no-gap-id", "order16-curated"),
    _e("[16,7]", "dihedral(16)", 16, {1, 2, 4, 8}, "table1", "order16-curated"),
    _e("[16,8]", "semidihedral(16)", 16, {1, 2, 4, 8}, "table1", "order16-curated"),
    _e("[16,9]", "dicyclic(4)", 16, {1, 2, 4, 8}, "table1", "order16-curated"),
    _e("M16", "semidirect(cyclic(8),cyclic(2),power5)", 16, {1, 2, 4, 8},
       "no-gap-id", "order16-curated"),
    _e("Z2xD8", "direct(cyclic(2),dihedral(8))", 16, {1, 2, 4}, "no-gap-id", "order16-curated"),
    _e("Z2xQ8", "direct(cyclic(2),dicyclic(2))", 16, {1, 2, 4}, "no-gap-id", "order16-curated"),
    # --- order 18 (complete: 5 groups) --------------------------------------
    _e("Z18", "cyclic(18)", 18, {1, 2, 3, 6, 9, 18}, "no-gap-id", "order18-complete"),
    _e("Z3xZ6", "direct(cyclic(3),cyclic(6))", 18, {1, 2, 3, 6}, "no-gap-id", "order18-complete"),
    _e("D18", "dihedral(18)", 18, {1, 2, 3, 9}, "no-gap-id", "order18-complete"),
    _e("[18,3]", "direct(cyclic(3),sym(3))", 18, {1, 2, 3, 6},
       "table1", "table2", "order18-complete"),
    _e("GD18", "semidirect(direct(cyclic(3),cyclic(3)),cyclic(2),invert)", 18,
       {1, 2, 3}, "no-gap-id", "order18-complete"),
    # --- order 24 (curated: all 15 isomorphism types) -----------------------
    _e("Z24", "cyclic(24)", 24, {1, 2, 3, 4, 6, 8, 12, 24}, "no-gap-id", "order24-curated"),
    _e("Z12xZ2", "direct(cyclic(12),cyclic(2))", 24, {1, 2, 3, 4, 6, 12},
       "no-gap-id", "order24-curated"),
    _e("Z2^2xZ6", "direct(cyclic(2),cyclic(2),cyclic(6))", 24, {1, 2, 3, 6},
       "no-gap-id", "order24-curated"),
    _e("S4", "sym(4)", 24, {1, 2, 3, 4}, "no-gap-id", "order24-curated"),
    _e("SL(2,3)", "perm(8; (0 3 6)(1 7 4); (0 5 1 2)(3 6 7 4))", 24,
       {1, 2, 3, 4, 6}, "no-gap-id", "order24-curated"),
    _e("Z2xA4", "direct(cyclic(2),alt(4))", 24, {1, 2, 3, 6}, "no-gap-id", "order24-curated"),
    _e("D24", "dihedral(24)", 24, {1, 2, 3, 4, 6, 12}, "no-gap-id", "order24-curated"),
    _e("Dic6", "dicyclic(6)", 24, {1, 2, 3, 4, 6, 12}, "no-gap-id", "order24-curated"),
    _e("Z3:Z8", "semidirect(cyclic(3),cyclic(8),invert)", 24, {1, 2, 3, 4, 6, 8, 12},
       "no-gap-id", "order24-curated"),
    _e("Z3xD8", "direct(cyclic(3),dihedral(8))", 24, {1, 2, 3, 4, 6, 12},
       "no-gap-id", "order24-curated"),
    _e("Z3xQ8", "direct(cyclic(3),dicyclic(2))", 24, {1, 2, 3, 4, 6, 12},
       "no-gap-id", "order24-curated"),
    _e("S3xZ4", "direct(sym(3),cyclic(4))", 24, {1, 2, 3, 4, 6, 12},
       "no-gap-id", "order24-curated"),
    _e("[24,7]", "direct(cyclic(2),dicyclic(3))", 24, {1, 2, 3, 4, 6},
       "table1", "table2", "order24-curated"),
    _e("[24,8]",
       "semidirect(direct(cyclic(3),direct(cyclic(2),cyclic(2))),cyclic(2),invert_swap)",
       24, {1, 2, 3, 4, 6}, "table1", "table2", "order24-curated"),
    _e("[24,14]", "direct(cyclic(2),cyclic(2),sym(3))", 24, {1, 2, 3, 6},
       "table1", "table2", "order24-curated"),
    # --- order 36 (complete: 14 groups) -------------------------------------
    _e("Z36", "cyclic(36)", 36, {1, 2, 3, 4, 6, 9, 12, 18, 36},
       "no-gap-id", "order36-complete"),
    _e("Z18xZ2", "direct(cyclic(18),cyclic(2))", 36, {1, 2, 3, 6, 9, 18},
       "no-gap-id", "order36-complete"),
    _e("Z12xZ3", "direct(cyclic(12),cyclic(3))", 36, {1, 2, 3, 4, 6, 12},
       "no-gap-id", "order36-complete"),
    _e("Z6xZ6", "direct(cyclic(6),cyclic(6))", 36, {1, 2, 3, 6},
       "no-gap-id", "order36-complete"),
    _e("D36", "dihedral(36)", 36, {1, 2, 3, 6, 9, 18}, "no-gap-id", "order36-complete"),
    _e("Dic9", "dicyclic(9)", 36, {1, 2, 3, 4, 6, 9, 18}, "no-gap-id", "order36-complete"),
    _e("Z2^2:Z9", "semidirect(direct(cyclic(2),cyclic(2)),cyclic(9),cycle3)", 36,
       {1, 2, 3, 6, 9}, "no-gap-id", "order36-complete"),
    _e("S3xS3", "direct(sym(3),sym(3))", 36, {1, 2, 3, 6}, "no-gap-id", "order36-complete"),
    _e("[36,11]", "direct(cyclic(3),alt(4))", 36, {1, 2, 3, 6},
       "table1", "table2", "order36-complete"),
    _e("Z3xDic3", "direct(cyclic(3),dicyclic(3))", 36, {1, 2, 3, 4, 6, 12},
       "no-gap-id", "order36-complete"),
    _e("Z6xS3", "direct(cyclic(6),sym(3))", 36, {1, 2, 3, 6}, "no-gap-id", "order36-complete"),
    _e("Z3^2:Z4i", "semidirect(direct(cyclic(3),cyclic(3)),cyclic(4),invert)", 36,
       {1, 2, 3, 4, 6}, "no-gap-id", "order36-complete"),
    _e("Z3^2:Z4f", "semidirect(direct(cyclic(3),cyclic(3)),cyclic(4),rot90)", 36,
       {1, 2, 3, 4}, "no-gap-id", "order36-complete"),
    _e("Z2xGD18",
       "direct(cyclic(2),semidirect(direct(cyclic(3),cyclic(3)),cyclic(2),invert))",
       36, {1, 2, 3, 6}, "no-gap-id", "order36-complete"),
    # --- order 72 (curated) -------------------------------------------------
    _e("[72,43]", "perm(7; (4 5 6); (0 1 2); (0 1)(2 3); (0 1)(5 6))", 72,
       {1, 2, 3, 4, 6}, "table1", "table2", "order72-curated"),
)

_BY_LABEL = {e.label: e for e in _ENTRIES}
assert len(_BY_LABEL) == len(_ENTRIES)

TABLE1_LABELS = ("[8,1]", "[12,5]", "[16,7]", "[16,8]", "[16,9]", "[18,3]",
                 "[24,7]", "[24,8]", "[24,14]", "[36,11]", "[72,43]")
TABLE2_LABELS = ("[12,5]", "[18,3]", "[24,7]", "[24,8]", "[24,14]",
                 "[36,11]", "[72,43]")


def entries() -> tuple[CatalogEntry, ...]:
    return _ENTRIES


def entry(label: str) -> CatalogEntry:
    try:
        return _BY_LABEL[label]
    except KeyError:
        raise UnknownLabel(f"no catalog entry {label!r}") from None


# ---------------------------------------------------------------------------
# recipe grammar
# ---------------------------------------------------------------------------

_FAMILY_NAMES = {"cyclic": "cyclic", "dihedral": "dihedral",
                 "dicyclic": "dicyclic", "semidihedral": "semidihedral",
                 "sym": "symmetric", "alt": "alternating"}


def _split_args(body: str, sep: str = ",") -> list[str]:
    """Split at top-level separators only (parentheses and the brackets of
    catalog labels nest)."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {body!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {body!r}")
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _action_map(name: str, n_grp: FiniteGroup) -> tuple[int, ...]:
    if name == "invert":
        return tuple(n_grp.inverses().tolist())
    m = re.fullmatch(r"power(\d+)", name)
    if m:
        try:
            k = int(m.group(1))
        except ValueError:  # past Python's limit on digits in int()
            raise ParseError(f"power exponent too long: {name[:20]}...") from None
        # the last row is x^exponent = e, so the reduced exponent acts alike
        powers = n_grp.powers()
        return tuple(powers[k % (len(powers) - 1)].tolist())
    if name == "rot90":
        if n_grp.order != 9:
            raise InvalidParameter("rot90 acts on direct(cyclic(3),cyclic(3))")
        return tuple((((3 - (i % 3)) % 3) * 3 + i // 3) for i in range(9))
    if name == "cycle3":
        if n_grp.order != 4:
            raise InvalidParameter("cycle3 acts on direct(cyclic(2),cyclic(2))")
        return (0, 2, 3, 1)
    if name == "invert_swap":
        if n_grp.order != 12:
            raise InvalidParameter(
                "invert_swap acts on direct(cyclic(3),direct(cyclic(2),cyclic(2)))")
        return tuple(((3 - i // 4) % 3) * 4 + (0, 2, 1, 3)[i % 4]
                     for i in range(12))
    raise InvalidParameter(f"unknown semidirect action {name!r}")


#: Deepest nesting of constructors and labels in one recipe: deeper ones
#: are refused well before Python's recursion limit.
_MAX_NESTING = 100


def build_recipe(expr: str, entries=None) -> FiniteGroup:
    """Construct a group from a recipe expression or a catalog label; the
    one place a label becomes a group.

    Labels, whole or nested, resolve against ``entries`` (the built-in
    catalog, through ``get``, when None), each built from its recipe and
    checked against its claims, even one that reads like a constructor
    call, and built once per call.  A label whose recipe leads back to
    itself, or nesting deeper than ``_MAX_NESTING``, is a ParseError.
    """
    by_label = (_BY_LABEL if entries is None or entries is _ENTRIES
                else {e.label: e for e in entries})
    resolving: list[str] = []  # labels whose recipes are being built
    built: dict[str, FiniteGroup] = {}  # file labels built in this call

    def label_group(label: str, depth: int) -> FiniteGroup:
        if by_label is _BY_LABEL:
            return get(label)
        if label in built:
            return built[label]
        if label not in by_label:
            raise UnknownLabel(f"no catalog entry {label!r}")
        if label in resolving:
            chain = " -> ".join(resolving[resolving.index(label):] + [label])
            raise ParseError(f"catalog labels refer to themselves: {chain}")
        resolving.append(label)
        g = recipe(by_label[label].recipe, depth + 1)
        resolving.pop()
        built[label] = _checked(by_label[label], g)
        return built[label]

    def recipe(expr: str, depth: int) -> FiniteGroup:
        if depth > _MAX_NESTING:
            raise ParseError(f"recipe nests deeper than {_MAX_NESTING} levels")
        expr = expr.strip()
        if expr in by_label or expr.startswith("["):
            return label_group(expr, depth)
        m = re.fullmatch(r"([a-z_]+[a-z_0-9]*)\((.*)\)", expr, re.DOTALL)
        if not m:
            raise ParseError(f"cannot parse recipe {expr!r}")
        name, body = m.group(1), m.group(2)
        if name in _FAMILY_NAMES:
            try:
                param = int(body.strip())
            except ValueError:
                raise ParseError(f"{name} expects an integer, got {body!r}") from None
            return named(_FAMILY_NAMES[name], param)
        if name == "direct":
            args = _split_args(body)
            if len(args) < 2:
                raise ParseError("direct needs at least two factors")
            out = recipe(args[0], depth + 1)
            for a in args[1:]:
                out = direct_product(out, recipe(a, depth + 1))
            return out
        if name == "semidirect":
            args = _split_args(body)
            if len(args) != 3:
                raise ParseError("semidirect needs (N, H, action)")
            n_grp = recipe(args[0], depth + 1)
            h_grp = recipe(args[1], depth + 1)
            amap = _action_map(args[2], n_grp)
            return semidirect_product(n_grp, h_grp, cyclic_action(n_grp, h_grp, amap))
        if name == "perm":
            parts = _split_args(body, ";")
            try:
                degree = int(parts[0])
            except ValueError:
                raise ParseError(f"perm expects a degree, got {parts[0]!r}") from None
            gens = [parse_cycles(p, degree) for p in parts[1:]]
            return from_generators(degree, gens)
        raise ParseError(f"unknown constructor {name!r}")

    return recipe(expr, 0)


# ---------------------------------------------------------------------------
# lookup and validation
# ---------------------------------------------------------------------------

def _checked(ent: CatalogEntry, g: FiniteGroup) -> FiniteGroup:
    """g under the entry's label, once its claimed order and spectrum hold."""
    g = FiniteGroup(g.table, label=ent.label, validate=False)
    fails = []
    if g.order != ent.expected_order:
        fails.append(f"{ent.label}: order {g.order} != expected {ent.expected_order}")
    got = frozenset(order_spectrum(g).orders)
    if got != ent.expected_spectrum:
        fails.append(f"{ent.label}: spectrum {sorted(got)} != "
                     f"expected {sorted(ent.expected_spectrum)}")
    if fails:
        raise ValidationFailed("; ".join(fails))
    return g


@lru_cache(maxsize=None)
def get(label: str) -> FiniteGroup:
    """The built-in catalog group with this label, built once."""
    ent = entry(label)
    return _checked(ent, build_recipe(ent.recipe))


_COMPLETE_COUNTS = {12: 5, 18: 5, 36: 14}
#: Catalog slices that list every isomorphism type of their order once.
_ALL_TYPES = {12: "order12-complete", 18: "order18-complete",
              24: "order24-curated", 36: "order36-complete"}


def enumerate_complete(order: int) -> list[CatalogEntry]:
    """The complete classification of groups of order 12, 18, or 36."""
    if order not in _COMPLETE_COUNTS:
        raise UnsupportedOrder(f"complete enumeration only for {sorted(_COMPLETE_COUNTS)}")
    out = [e for e in _ENTRIES if e.has_tag(f"order{order}-complete")]
    assert len(out) == _COMPLETE_COUNTS[order]
    return out


@dataclass(frozen=True)
class ValidationReport:
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_all() -> ValidationReport:
    """Rebuild and check every entry; verify pairwise non-isomorphism of the
    complete slices and of the 15 groups of order 24, and the Table 1/2 tag
    sets."""
    fails: list[str] = []
    built: dict[str, FiniteGroup] = {}
    for ent in _ENTRIES:
        try:
            built[ent.label] = _checked(ent, build_recipe(ent.recipe))
        except ValidationFailed as ex:
            fails.append(str(ex))
        except Exception as ex:  # report, do not abort
            fails.append(f"{ent.label}: build failed: {ex}")
    for order, tag in _ALL_TYPES.items():
        ents = [e for e in _ENTRIES if e.has_tag(tag)]
        if order in _COMPLETE_COUNTS and len(ents) != _COMPLETE_COUNTS[order]:
            fails.append(f"order {order}: expected {_COMPLETE_COUNTS[order]} "
                         f"entries, found {len(ents)}")
        for i, a in enumerate(ents):
            for b in ents[i + 1:]:
                if a.label in built and b.label in built and \
                        is_isomorphic(built[a.label], built[b.label]):
                    fails.append(f"{a.label} and {b.label} are isomorphic")
    t1 = tuple(e.label for e in _ENTRIES if e.has_tag("table1"))
    t2 = tuple(e.label for e in _ENTRIES if e.has_tag("table2"))
    if t1 != TABLE1_LABELS:
        fails.append(f"table1 tags {t1} != expected {TABLE1_LABELS}")
    if t2 != TABLE2_LABELS:
        fails.append(f"table2 tags {t2} != expected {TABLE2_LABELS}")
    return ValidationReport(len(_ENTRIES), tuple(fails))


# ---------------------------------------------------------------------------
# catalog file round-trip
# ---------------------------------------------------------------------------

def to_text(ents=None) -> str:
    """Line-oriented dump: label | recipe | order | spectrum | tags."""
    lines = []
    for e in _ENTRIES if ents is None else ents:
        spectrum = ",".join(str(k) for k in sorted(e.expected_spectrum))
        tags = ",".join(sorted(e.tags))
        lines.append(f"{e.label} | {e.recipe} | {e.expected_order} | {spectrum} | {tags}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> tuple[CatalogEntry, ...]:
    """Parse the ``to_text`` layout; a label may appear only once."""
    out: dict[str, CatalogEntry] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = [p.strip() for p in ln.split("|")]
        if len(parts) != 5:
            raise ParseError(f"expected 5 '|'-separated fields: {ln!r}")
        label, recipe, order_s, spectrum_s, tags_s = parts
        try:
            order = int(order_s)
            spectrum = frozenset(int(k) for k in spectrum_s.split(","))
        except ValueError:
            raise ParseError(f"bad numeric field in {ln!r}") from None
        if label in out:
            raise ParseError(f"catalog label {label!r} appears twice")
        tags = frozenset(t for t in tags_s.split(",") if t)
        out[label] = CatalogEntry(label, recipe, order, spectrum, tags)
    return tuple(out.values())
