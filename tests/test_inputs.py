"""Every text parser that reads outside input fails only with the package's
own errors: on arbitrary text, on lines of its format's tokens, and on text
laid out in its format, each may raise ``PowerGenusError`` and nothing
else."""

import re
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import powergenus.catalog as cat
import powergenus.embed as em
import powergenus.powergraph as pg
from powergenus.errors import PowerGenusError

#: Numbers that stress a parser: negatives, floats, values past int32 and
#: int64, and more digits than Python's int() accepts by default.
_NUMBERS = ["0", "1", "2", "3", "5", "-1", "1.5", "1e3", "2147483648",
            "18446744073709551617", "9" * 5000]


def _numbers(small):
    """Numbers of the format, 0 to ``small``, and the stressing ones."""
    return st.one_of(st.integers(0, small).map(str), st.sampled_from(_NUMBERS))


def _lines(words):
    """Lines of numbers and the format's words."""
    token = st.sampled_from(_NUMBERS + words)
    line = st.lists(token, max_size=6).map(" ".join)
    return st.lists(line, max_size=10).map("\n".join)


_ACTIONS = st.sampled_from(["invert", "power2", "power" + "5" * 5000,
                             "rot90", "cycle3", "invert_swap", "x"])
_RECIPES = st.recursive(
    st.one_of(_numbers(8), _ACTIONS, st.sampled_from(
        ["", "()", "(0 1)", "(0 1 2)", "(0 0)", "[8,1]", "[16,9]", "[999,9]",
         "Z4", "(", ")"])),
    lambda inner: st.one_of(
        st.builds(lambda name, args, sep: f"{name}({sep.join(args)})",
                  st.sampled_from(["cyclic", "dihedral", "dicyclic",
                                   "semidihedral", "symmetric", "alternating",
                                   "direct", "semidirect", "perm", "bogus"]),
                  st.lists(inner, max_size=4),
                  st.sampled_from([",", ";", "; "])),
        st.builds(lambda n, h, action: f"semidirect({n},{h},{action})",
                  inner, inner, _ACTIONS)),
    max_leaves=8)


def _edge_texts():
    """An 'n m' header and m edge lines."""
    def edges(m):
        pair = st.tuples(_numbers(4), _numbers(4)).map(" ".join)
        return st.tuples(_numbers(5), st.lists(pair, min_size=m, max_size=m)
                         ).map(lambda t: "\n".join([f"{t[0]} {m}"] + t[1]))
    return st.integers(0, 6).flatmap(edges)


def _certificate_texts():
    """A header and its edge lines, then rotation, signs and claim lines
    in any order and number."""
    def body(nmk):
        n, m, kind = nmk
        pair = st.tuples(_numbers(n), _numbers(n)).map(" ".join)
        darts = st.lists(_numbers(2 * m), max_size=4).map(" ".join)
        line = st.one_of(
            st.tuples(_numbers(n), darts).map(lambda t: f"rot {t[0]}: {t[1]}"),
            st.lists(st.sampled_from(["1", "-1", "0", "x"]), max_size=m + 1)
            .map(lambda s: " ".join(["signs"] + s)),
            st.tuples(_numbers(4), _numbers(4),
                      st.sampled_from(["orientable", "nonorientable", ""]))
            .map(lambda t: f"claim faces={t[0]} euler_genus={t[1]} {t[2]}"))
        return st.tuples(st.lists(pair, min_size=m, max_size=m),
                         st.lists(line, max_size=8)).map(
            lambda t: "\n".join([f"embedding {n} {m} {kind}"] + t[0] + t[1]))
    return st.tuples(st.integers(0, 4), st.integers(0, 5),
                     st.sampled_from(["orientable", "signed"])).flatmap(body)


@st.composite
def _layout_certificate_texts(draw):
    """The layout ``certificate_to_text`` writes: a header, m edge lines in
    order, ``rot v:`` for v = 0 .. n-1, a signs line exactly when signed,
    and the claim.  One number or word in 4 to 256 is fuzzed, and the
    rotations are often true ones, so the checks of each line, the
    re-trace and the claim comparison are all reached."""
    rate = 1 / draw(st.sampled_from([4, 16, 64, 256]))
    rnd = draw(st.randoms(use_true_random=True))

    def fuzz(text, wrong):
        return draw(wrong) if rnd.random() < rate else text

    def word(w):
        return fuzz(w, st.sampled_from(["", "x", w + "-1", w + ":", "0"]))

    def num(x, small):
        return fuzz(str(x), _numbers(small))

    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["orientable", "signed"]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.lists(st.sampled_from(pairs), min_size=1,
                                 unique=True)))
    m = len(edges)
    darts = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        darts[u].append(2 * e)
        darts[v].append(2 * e + 1)
    lines = [f"{word('embedding')} {num(n, 5)} {num(m, 6)} {word(kind)}"]
    lines += [f"{num(u, n)} {num(v, n)}" for u, v in edges]
    for v in range(n):
        rot = draw(st.one_of(st.permutations(darts[v]),
                             st.lists(st.integers(0, 2 * m), max_size=4)))
        lines.append(f"{word('rot')} {num(v, n)}{word(':')} "
                     + " ".join(num(d, 2 * m) for d in rot))
    if kind == "signed":
        lines.append(word("signs") + "".join(
            " " + fuzz(draw(st.sampled_from(["1", "-1"])),
                       st.sampled_from(["0", "x", "2"])) for _ in edges))
    faces, euler = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    orient = draw(st.sampled_from(["orientable", "nonorientable"]))
    lines.append(f"{word('claim')} {word('faces')}={num(faces, 6)} "
                 f"{word('euler_genus')}={num(euler, 4)} {word(orient)}")
    return "\n".join(lines) + "\n"


def _catalog_texts():
    """Lines of five '|'-separated fields, the recipe from ``_RECIPES``."""
    line = st.tuples(st.sampled_from(["[8,1]", "x", ""]), _RECIPES,
                     _numbers(8), st.lists(_numbers(8), max_size=3),
                     st.sampled_from(["", "two", "a,b"])).map(
        lambda t: " | ".join([t[0], t[1], t[2], ",".join(t[3]), t[4]]))
    return st.lists(line, max_size=4).map("\n".join)


#: parser, then its token lines and its formatted texts
_PARSERS = {
    "catalog.from_text": (cat.from_text,
                          _lines(["|", ",", "[8,1]", "cyclic(4)", "two", "#"]),
                          _catalog_texts()),
    "catalog.build_recipe": (cat.build_recipe, _RECIPES, _RECIPES),
    "powergraph.from_edge_list": (pg.from_edge_list, _lines(["#"]),
                                  _edge_texts()),
    "embed.verify_certificate": (
        em.verify_certificate,
        _lines(["embedding", "orientable", "signed", "rot", "rot 0:", "rot 1:",
                "signs", "claim", "faces=2", "euler_genus=0", "nonorientable",
                ":"]),
        _certificate_texts()),
}


@pytest.mark.parametrize("name", list(_PARSERS))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_parsers_raise_only_package_errors(name, data):
    parse, tokens, formatted = _PARSERS[name]
    text = data.draw(st.one_of(st.text(), tokens, formatted), label="text")
    try:
        parse(text)
    except PowerGenusError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_layout_certificate_texts())
def test_layout_certificates_raise_only_package_errors(text):
    """Certificates in the writer's layout, numbers and words fuzzed, get
    past the line count to each line's own check; they too may raise
    ``PowerGenusError`` and nothing else."""
    try:
        em.verify_certificate(text)
    except PowerGenusError:
        pass


#: tokens ``int`` reads that the writer never writes (a leading zero, a
#: plus, an underscore, a negative, a non-ASCII digit) and a number past
#: int64; ``{}`` is the number they replace
_NONCANONICAL = ["0{}", "+{}", "1_0", "1" * 25, "-{}", "\u0661"]


@st.composite
def _mutated_certificate_texts(draw):
    """Certificates that ``certificate_to_text`` writes, for random graphs
    with no isolated vertex (whose empty rotation the bulk reader leaves
    to the line reader) and random rotations, signed or not, and a true or
    false claim; then at most one change: edge lines out of order or the
    last written ``v u`` (the darts numbered by line, so each rotation
    still lists its darts at their tails), one edge line more than the
    header and the rotations count, the header's kind swapped, two ``rot``
    lines' vertex numbers swapped, a number made non-canonical, a doubled
    space, a blank line, one rotation's last dart moved to another vertex,
    or a sign 2, dropped or added (always signed then)."""
    change = draw(st.sampled_from(["none", "edges", "extra", "kind",
                                   "label", "number", "space", "blank",
                                   "dart", "sign"]))
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # an edge from each vertex v to another vertex, then any more edges
    partners = draw(st.lists(st.integers(1, n - 1), min_size=n, max_size=n))
    edges = sorted({tuple(sorted((v, (v + k) % n)))
                    for v, k in enumerate(partners)}.union(
        draw(st.lists(st.sampled_from(pairs), unique=True))))
    if change == "edges" and draw(st.booleans()):
        edges = draw(st.permutations(edges))
    elif change == "edges":  # the only edge a reversal leaves in key order
        edges[-1] = edges[-1][::-1]
    darts = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        darts[u].append(2 * e)
        darts[v].append(2 * e + 1)
    rots = [list(draw(st.permutations(ds))) for ds in darts]
    signs = st.lists(st.sampled_from([1, -1]), min_size=len(edges),
                     max_size=len(edges))
    signs = draw(signs if change == "sign" else st.none() | signs)
    try:
        tr = em.trace_faces(pg.Graph(n, tuple(edges)), em.RotationSystem(
            tuple(map(tuple, rots)), signs and tuple(signs)))
    except PowerGenusError:
        tr = em.FaceTrace(1, 0, True)
    if draw(st.booleans()):
        tr = em.FaceTrace(tr.face_count + draw(st.sampled_from([-1, 1])),
                          tr.euler_genus, tr.orientable)
    if change == "dart":
        v, w = draw(st.permutations(range(n)))[:2]
        if rots[v]:
            rots[w].append(rots[v].pop())
    m = len(edges)
    if change == "extra" and m > 1:  # the last edge's darts go too
        m -= 1
        rots = [[d for d in rot if d < 2 * m] for rot in rots]
    if change == "sign" and signs:
        i = draw(st.integers(0, len(signs) - 1))
        signs[i:i + 1] = draw(st.sampled_from([[2], [], [1, 1]]))
    # the writer reads only n, m and the edges of its graph
    graph = SimpleNamespace(n=n, m=m, edges=edges)
    text = em.certificate_to_text(graph, em.RotationSystem(
        tuple(map(tuple, rots)), signs and tuple(signs)), tr)
    if change == "kind":
        kind = "orientable" if signs else "signed"
        text = re.sub("[a-z]+\n", kind + "\n", text, count=1)
    if change == "label":
        v, w = draw(st.permutations(range(n)))[:2]
        text = re.sub(f"rot ({v}|{w}):", lambda r: f"rot {v + w - int(r[1])}:",
                      text)
    if change in ("number", "space", "blank"):
        spans = {"number": [m.span() for m in re.finditer("[0-9]+", text)],
                 "space": [(i, i) for i, c in enumerate(text) if c == " "],
                 "blank": [(i, i) for i, c in enumerate(text) if c == "\n"]}
        i, j = draw(st.sampled_from(spans[change]))
        new = {"space": " ", "blank": "\n"}.get(change) or draw(
            st.sampled_from(_NONCANONICAL)).format(text[i:j])
        text = text[:i] + new + text[j:]
    return text


def _outcome(verify, text):
    """``verify``'s (ok, message), or the type and message it raised."""
    try:
        return verify(text)
    except Exception as exc:
        return type(exc), str(exc)


def _line_reader_verify(text):
    """``verify_certificate`` with the bulk reader off, so that every text
    goes through ``certificate_from_text`` and ``trace_faces``."""
    with mock.patch.object(em, "_read_flat", return_value=None):
        return em.verify_certificate(text)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(text=st.one_of(_certificate_texts(), _layout_certificate_texts(),
                      _mutated_certificate_texts()))
@example(text="embedding 3 3 orientable\n0 1\n0 2\n2 1\nrot 0: 0 2\n"
         "rot 1: 1 5\nrot 2: 3 4\nclaim faces=3 euler_genus=0 orientable\n")
def test_bulk_reader_matches_line_reader(text):
    """``verify_certificate`` answers every certificate text as the line
    reader and ``trace_faces`` do: the same (ok, message), or the same
    exception type and message."""
    assert (_outcome(em.verify_certificate, text)
            == _outcome(_line_reader_verify, text))
