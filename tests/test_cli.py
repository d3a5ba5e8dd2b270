import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import powergenus.catalog as cat
import powergenus.cli as cli
import powergenus.embed as em
import powergenus.powergraph as pg

from conftest import k33_with_path


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_info(capsys):
    code, out, _ = run(capsys, "group-info", "[16,9]", "--no-timestamp")
    assert code == 0
    assert "order:        16" in out and "{1,2,4,8}" in out


def test_group_info_recipe_records(capsys):
    code, out, _ = run(capsys, "group-info", "direct(cyclic(2),cyclic(6))",
                       "--format", "records", "--no-timestamp")
    assert code == 0
    assert "six=(3;3,3,3)" in out


def test_group_info_bracketed_label_in_recipe(capsys):
    code, out, _ = run(capsys, "group-info", "direct([8,1],cyclic(2))",
                       "--no-timestamp")
    assert code == 0 and "order:        16" in out


def test_unknown_label_errors(capsys):
    code, _, err = run(capsys, "group-info", "[999,9]", "--no-timestamp")
    assert code == 1 and "error" in err


def test_group_info_order_above_table_limit(capsys):
    code, out, err = run(capsys, "group-info", "cyclic(20000)",
                         "--no-timestamp")
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [("classify", "--bogus"), ("genus",),
                                  ("genus", "k33.edges", "--orientable"),
                                  ("powergraph", "cyclic(6)", "--edges")])
def test_usage_errors_exit_1(capsys, argv):
    """A usage error is an error (1), not the bounds-only code (2)."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "usage: powergenus" in err


@pytest.mark.parametrize("argv", [("--help",), ("classify", "--help")])
def test_help_exits_0(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("usage: powergenus")


def test_powergraph_edges(capsys):
    code, out, _ = run(capsys, "powergraph", "cyclic(8)", "--no-timestamp")
    assert code == 0
    assert out.splitlines()[0] == "8 28"


def test_powergraph_dot(capsys):
    code, out, _ = run(capsys, "powergraph", "cyclic(6)", "--dot",
                       "--no-timestamp")
    assert code == 0 and out.startswith("graph")


def test_genus_exact_and_verify(tmp_path, capsys):
    edge_file = tmp_path / "k5.edges"
    edge_file.write_text(pg.to_edge_list(pg.complete_graph(5)))
    cert = tmp_path / "k5.cert"
    code, out, _ = run(capsys, "genus", str(edge_file), "--certificate",
                       str(cert), "--no-timestamp")
    assert code == 0 and "genus exact 1" in out
    code, out, _ = run(capsys, "verify", str(cert), "--no-timestamp")
    assert code == 0 and out.startswith("verified")


def test_verify_refuses_repeated_lines(tmp_path, capsys):
    """A later rotation or claim line may not overwrite an earlier one: the
    first ones here are false, the second ones true."""
    cert = tmp_path / "triangle.cert"
    cert.write_text("embedding 3 3 orientable\n0 1\n0 2\n1 2\n"
                    "rot 0: 7 7 7\nrot 0: 0 2\nrot 1: 1 4\nrot 2: 3 5\n"
                    "claim faces=9 euler_genus=5 nonorientable\n"
                    "claim faces=2 euler_genus=0 orientable\n")
    code, out, err = run(capsys, "verify", str(cert), "--no-timestamp")
    assert code == 1 and out == "" and "repeated" in err


@pytest.mark.parametrize("edit", ["reversed", "swapped-ends", "duplicate"])
def test_verify_refuses_edge_lines_out_of_order(tmp_path, capsys, edit):
    """Darts are numbered by edge line, so a certificate whose edge lines
    are not pairs u < v in strictly increasing order would state another
    rotation system than the one traced.  K4's six edge lines reversed
    (which verified before this check), one line written "1 0", and one
    line repeated are refused."""
    k4 = pg.complete_graph(4)
    rs = em.rotation_from_adjacency(k4)
    lines = em.certificate_to_text(k4, rs, em.trace_faces(k4, rs)).splitlines()
    edges = lines[1:7]
    assert edges == ["0 1", "0 2", "0 3", "1 2", "1 3", "2 3"]
    cert = tmp_path / "k4.cert"
    cert.write_text("\n".join(lines) + "\n")
    assert run(capsys, "verify", str(cert), "--no-timestamp")[0] == 0
    if edit == "reversed":
        edges = edges[::-1]
    elif edit == "swapped-ends":
        edges[0] = "1 0"
    else:
        edges[1] = edges[0]
    cert.write_text("\n".join([lines[0], *edges, *lines[7:]]) + "\n")
    code, out, err = run(capsys, "verify", str(cert), "--no-timestamp")
    assert code == 1 and out == ""
    assert err.startswith("error: edge lines must be pairs u < v")


@pytest.mark.parametrize("old, new", [
    ("rot 0:", "rot 0 7:"),
    ("rot 0: 0 2\nrot 1: 1 4\n", "rot 1: 1 4\nrot 0: 0 2\n"),
    ("faces=2 euler_genus=0 orientable", "euler_genus=0 orientable faces=2"),
    ("faces=2", "faces=+0_2"),
    ("rot 1: 1 4", "rot 1: 1 0_4"),
    ("rot 2: 3 5", "rot 2: \uff13 5"),
], ids=["rot-extra-word", "rot-lines-swapped", "claim-reordered",
        "plus-underscored-count", "underscored-dart", "full-width-digit"])
def test_verify_refuses_lines_out_of_layout(tmp_path, capsys, old, new):
    """A certificate is read in the layout certificate_to_text writes, each
    line at its place and each number as the writer writes it: a rotation
    line naming a second vertex, the rotations of vertices 0 and 1
    swapped, the claim's words reordered, and numbers that ``int`` reads
    but the writer never writes (``+0_2``, ``0_4``, a full-width 3) are
    refused, though each states a true embedding."""
    k3 = pg.complete_graph(3)
    rs = em.rotation_from_adjacency(k3)
    text = em.certificate_to_text(k3, rs, em.trace_faces(k3, rs))
    assert text == ("embedding 3 3 orientable\n0 1\n0 2\n1 2\n"
                    "rot 0: 0 2\nrot 1: 1 4\nrot 2: 3 5\n"
                    "claim faces=2 euler_genus=0 orientable\n")
    cert = tmp_path / "triangle.cert"
    cert.write_text(text)
    assert run(capsys, "verify", str(cert), "--no-timestamp")[0] == 0
    cert.write_text(text.replace(old, new))
    code, out, err = run(capsys, "verify", str(cert), "--no-timestamp")
    assert code == 1 and out == ""
    assert err.startswith("error: unexpected certificate line ")


@pytest.mark.parametrize("flag", [("--budget-nodes", "5"),
                                  ("--format", "records"), ("--catalog", "x")])
def test_verify_refuses_flags_it_does_not_read(tmp_path, capsys, flag):
    edge_file = tmp_path / "k5.edges"
    edge_file.write_text(pg.to_edge_list(pg.complete_graph(5)))
    cert = tmp_path / "k5.cert"
    run(capsys, "genus", str(edge_file), "--certificate", str(cert))
    code, out, err = run(capsys, "verify", *flag, str(cert), "--no-timestamp")
    assert code == 1 and out == "" and "unrecognized arguments" in err


def test_python_m_powergenus():
    """``python -m powergenus`` runs the CLI and exits with its code."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def module_run(*argv):
        return subprocess.run([sys.executable, "-m", "powergenus", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    proc = module_run("group-info", "[16,9]", "--no-timestamp")
    assert proc.returncode == 0 and "order:        16" in proc.stdout
    assert module_run("classify", "--bogus").returncode == 1


def test_genus_nonorientable(tmp_path, capsys):
    edge_file = tmp_path / "k33.edges"
    edge_file.write_text(pg.to_edge_list(pg.complete_bipartite(3, 3)))
    code, out, _ = run(capsys, "genus", str(edge_file), "--nonorientable",
                       "--no-timestamp")
    assert code == 0 and "crosscap exact 1" in out


def test_genus_bounds_exit_code(tmp_path, capsys):
    edge_file = tmp_path / "k8.edges"
    edge_file.write_text(pg.to_edge_list(pg.complete_graph(8)))
    code, out, _ = run(capsys, "genus", str(edge_file), "--budget-nodes", "50",
                       "--no-timestamp")
    assert code == 2 and "bounds" in out


def test_genus_fallback_at_lower_bound_exits_0(tmp_path, capsys):
    """K3,3 under a one-node budget: the fallback embedding reaches the
    Euler bound, so the value is exact."""
    edge_file = tmp_path / "k33.edges"
    edge_file.write_text(pg.to_edge_list(pg.complete_bipartite(3, 3)))
    code, out, _ = run(capsys, "genus", str(edge_file), "--budget-nodes", "1",
                       "--no-timestamp")
    assert code == 0 and out.splitlines()[0] == "genus exact 1"


def test_genus_deep_pendant_path(tmp_path, capsys):
    """The search's depth is the edge count: 1,109 edges here."""
    edge_file = tmp_path / "k33path.edges"
    edge_file.write_text(pg.to_edge_list(k33_with_path(1100)))
    code, out, _ = run(capsys, "genus", str(edge_file), "--no-timestamp")
    assert code == 0 and out.startswith("genus exact 1\n")


def test_genus_header_beyond_edges(tmp_path, capsys):
    edge_file = tmp_path / "huge.edges"
    edge_file.write_text("10000000 1\n0 1\n")
    code, out, err = run(capsys, "genus", str(edge_file), "--no-timestamp")
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("text", ["3 2\n0 1\n1 0\n",
                                  "3 3\n0 1\n1 2\n2 1\n"],
                         ids=["one-edge-twice", "last-edge-twice"])
def test_genus_refuses_edge_written_both_ways(tmp_path, capsys, text):
    """"1 0" stands for "0 1", so these files name fewer distinct edges than
    their headers claim."""
    edge_file = tmp_path / "twice.edges"
    edge_file.write_text(text)
    code, out, err = run(capsys, "genus", str(edge_file), "--no-timestamp")
    assert code == 1 and out == "" and err.startswith("error: header claims")


def test_classify_single(capsys):
    code, out, _ = run(capsys, "classify", "[24,8]", "--no-timestamp")
    assert code == 0
    assert "orientable:    two (Table 1 label [24,8])" in out
    assert "trail:" in out


_MT157 = "nonplanar and genus != 2; exact genus outside the classified range"


@pytest.mark.parametrize("group, orientable, nonorientable", [
    ("cyclic(5)", f"other_with_bounds ({_MT157})", "one"),
    ("cyclic(7)", f"other_with_bounds ({_MT157})", "not_two (crosscap >= 3)"),
    ("cyclic(10)", "at_least_three", "not_two (crosscap >= 3)"),
])
def test_classify_reason_beside_its_surface(capsys, group, orientable,
                                            nonorientable):
    """Each surface's reason follows its own verdict line: MT1.57's is an
    orientable reason, L5.1's a nonorientable one."""
    code, out, _ = run(capsys, "classify", group, "--no-timestamp")
    assert code == 0
    assert out.splitlines()[1:3] == [f"orientable:    {orientable}",
                                     f"nonorientable: {nonorientable}"]


def test_classify_all_deterministic(capsys):
    argv = ("classify", "--all-catalog", "--format", "records",
            "--no-timestamp")
    code, out1, _ = run(capsys, *argv)
    assert code == 0 and len(out1.splitlines()) == 56
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_classify_all_builds_each_group_once(capsys):
    """The CLI loop and the classifier's catalog matches share
    ``catalog.get``: a cold run builds each of the 56 groups once."""
    cat.get.cache_clear()
    with mock.patch.object(cat, "_checked", wraps=cat._checked) as checked:
        assert run(capsys, "classify", "--all-catalog", "--no-timestamp")[0] == 0
    assert checked.call_count == len(cat.entries()) == 56


#: sha256 of the stdout of these commands: every verdict, value and trail
#: byte of the catalog-wide output.
CLI_DIGESTS = {
    ("classify", "--all-catalog", "--format", "records", "--no-timestamp"):
        "20384eaa400a880a7b3d255e6d4694475eec2ffac8dd55e5b1e1199366de55a8",
    ("classify", "--all-catalog", "--no-timestamp"):
        "d5c925f3656fe47d4ad75e75d0b832f09fe8fcbf4c299b0b6d255a65f33993d0",
    ("report", "table1", "--no-timestamp"):
        "21a03f563d394ff190c0421ea31cbba4b586adead7da5c0598ddf663307fb564",
    ("report", "table2", "--no-timestamp"):
        "daba0dadf91f923f7c44612bfffe7ac869d3a42d0d89a91b9f39ba26adb31824",
}


@pytest.mark.parametrize("argv", CLI_DIGESTS, ids=" ".join)
def test_catalog_output_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[argv]


def test_report_table1(capsys):
    code, out, _ = run(capsys, "report", "table1", "--no-timestamp")
    rows = out.strip().splitlines()
    assert code == 0 and len(rows) == 11
    assert rows[0].startswith("[8,1]")
    assert rows[-1].startswith("[72,43]")


def test_report_table2(capsys):
    code, out, _ = run(capsys, "report", "table2", "--no-timestamp")
    rows = out.strip().splitlines()
    assert code == 0 and len(rows) == 7
    assert all("pairwise3=yes" in r for r in rows)


def test_report_lemma(capsys):
    code, out, _ = run(capsys, "report", "lemma", "L3.1", "--no-timestamp")
    assert code == 0
    assert "PASS: 0 witnesses in 24 groups scanned" in out


def test_report_lemma_unknown(capsys):
    code, _, err = run(capsys, "report", "lemma", "L9.9", "--no-timestamp")
    assert code == 1 and "error" in err


def test_custom_catalog(tmp_path, capsys):
    path = tmp_path / "mini.catalog"
    path.write_text("[8,1] | cyclic(8) | 8 | 1,2,4,8 | table1\n")
    code, out, _ = run(capsys, "classify", "--all-catalog", "--catalog",
                       str(path), "--format", "records", "--no-timestamp")
    assert code == 0 and len(out.strip().splitlines()) == 1
    assert "label=[8,1]" in out


@pytest.mark.parametrize("claim", ["9 | 1,2,4,8", "8 | 1,2,4"])
def test_custom_catalog_checked(tmp_path, capsys, claim):
    path = tmp_path / "wrong.catalog"
    path.write_text(f"[8,1] | cyclic(8) | {claim} | table1\n")
    code, out, err = run(capsys, "classify", "--all-catalog", "--catalog",
                         str(path), "--no-timestamp")
    assert code == 1 and out == "" and err.startswith("error:")


NESTED_CATALOG = """\
Q8 | cyclic(4) | 4 | 1,2,4 |
W | direct(Q8,cyclic(2)) | 8 | 1,2,4 |
L | direct(L,cyclic(2)) | 8 | 1,2,4 |
A | direct(B,cyclic(2)) | 8 | 1,2,4 |
B | direct(A,cyclic(2)) | 8 | 1,2,4 |
"""


def test_catalog_file_labels_nest(tmp_path, capsys):
    """A label nested in a --catalog recipe is that file's entry (here a
    'Q8' of order 4), not the built-in one."""
    path = tmp_path / "nested.catalog"
    path.write_text(NESTED_CATALOG)
    code, out, _ = run(capsys, "group-info", "W", "--catalog", str(path),
                       "--no-timestamp")
    assert code == 0 and "order:        8" in out
    code, out, _ = run(capsys, "group-info", "direct(W,cyclic(3))",
                       "--catalog", str(path), "--no-timestamp")
    assert code == 0 and "order:        24" in out


@pytest.mark.parametrize("label, chain", [("L", "L -> L"),
                                          ("A", "A -> B -> A")])
def test_catalog_file_label_cycles(tmp_path, capsys, label, chain):
    path = tmp_path / "nested.catalog"
    path.write_text(NESTED_CATALOG)
    code, out, err = run(capsys, "group-info", label, "--catalog", str(path),
                         "--no-timestamp")
    assert code == 1 and out == ""
    assert err == f"error: catalog labels refer to themselves: {chain}\n"


@pytest.mark.parametrize("argv", [("group-info", "A"),
                                  ("classify", "--all-catalog")])
def test_catalog_file_repeats_a_label(tmp_path, capsys, argv):
    """A --catalog file names each group once: a second 'A' is refused,
    not silently taken in place of the first."""
    path = tmp_path / "twice.catalog"
    path.write_text("A | cyclic(4) | 4 | 1,2,4 |\n"
                    "A | direct(cyclic(2),cyclic(2)) | 4 | 1,2 |\n")
    code, out, err = run(capsys, *argv, "--catalog", str(path),
                         "--no-timestamp")
    assert code == 1 and out == ""
    assert err == "error: catalog label 'A' appears twice\n"


def test_catalog_label_reading_as_a_constructor(tmp_path, capsys):
    """An expression that is a label of the active catalog is that entry,
    whole or nested, even when it reads like a constructor call."""
    path = tmp_path / "odd.catalog"
    path.write_text("cyclic(4) | direct(cyclic(2),cyclic(2)) | 4 | 1,2 |\n")
    flags = ("--catalog", str(path), "--no-timestamp")
    code, out, _ = run(capsys, "classify", "--all-catalog", "--format",
                       "records", *flags)
    assert code == 0 and len(out.splitlines()) == 1
    assert "label=cyclic(4)" in out and "spectrum={1,2}" in out
    code, out, _ = run(capsys, "group-info", "cyclic(4)", *flags)
    assert code == 0 and "spectrum:     {1,2}" in out
    code, out, _ = run(capsys, "group-info", "direct(cyclic(4),cyclic(3))",
                       *flags)
    assert code == 0 and "spectrum:     {1,2,3,6}" in out


@pytest.mark.parametrize("recipe", ["perm(0; ())", "perm(-1; ())"])
def test_perm_degree_below_one(capsys, recipe):
    code, out, err = run(capsys, "group-info", recipe, "--no-timestamp")
    assert code == 1 and out == "" and err.startswith("error: permutation degree")


@pytest.mark.parametrize("recipe, error", [
    ("perm(3000000; ())", "error: permutation degree must be in 1..1024"),
    ("perm(1025; (0 1))", "error: permutation degree must be in 1..1024"),
    ("perm(7; (0 1 2 3 4 5 6); (0 1))", "error: closure exceeded 1024"),
    ("semidirect(cyclic(3),cyclic(2),power" + "5" * 5000 + ")",
     "error: power exponent too long"),
])
def test_oversized_recipe_refused(capsys, recipe, error):
    code, out, err = run(capsys, "group-info", recipe, "--no-timestamp")
    assert code == 1 and out == "" and err.startswith(error)


def test_semidirect_power_exponent_reduced(capsys):
    """A power<k> action raises each element of N to k mod |N|, which
    acts alike since x^|N| = e; a 2,000-digit exponent costs nothing."""
    recipe = "semidirect(cyclic(1000),cyclic(2),power" + "7" * 2000 + ")"
    start = time.perf_counter()
    code, out, err = run(capsys, "group-info", recipe, "--no-timestamp")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert "generator automorphism order does not divide |H|" in err


def test_recipe_nested_too_deep(capsys):
    recipe = "cyclic(1)"
    for _ in range(1200):
        recipe = f"direct(cyclic(1),{recipe})"
    code, out, err = run(capsys, "group-info", recipe, "--no-timestamp")
    assert code == 1 and out == "" and "nests deeper than" in err


def test_timestamp_header(capsys):
    _, out, _ = run(capsys, "report", "table2")
    assert out.startswith("# generated ")
