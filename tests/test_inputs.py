"""Every text parser that reads outside input fails only with the package's
own errors: on arbitrary text, on lines of its format's tokens, and on text
laid out in its format, each may raise ``PowerGenusError`` and nothing
else."""

import pytest
from hypothesis import given, settings
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
