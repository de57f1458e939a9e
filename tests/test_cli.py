"""Command-line interface: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from flatklein import (CutPolytope, catalog, classify, cli, format_rat,
                       minimal_lifts, project)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_distance_text(capsys):
    code, out = run(capsys, "distance", "--P", "1/4,0", "--Q", "1/4,5/8",
                    "--format", "text")
    assert code == 0
    assert out == "d^2 = 25/64\nd   = 0.625000000000\n"


def test_distance_json_and_digits(capsys):
    code, out = run(capsys, "distance", "--P", "0,0", "--Q", "1/4,1/2")
    assert code == 0
    data = json.loads(out)
    assert data == {"d_squared": "5/16", "d": "0.559016994374"}

    _, out = run(capsys, "distance", "--P", "0,0", "--Q", "1/4,1/2",
                 "--digits", "4", "--format", "text")
    assert "d   = 0.5590\n" in out


def test_geodesics_text(capsys):
    code, out = run(capsys, "geodesics", "--P", "1/4,0", "--Q", "1/4,5/8",
                    "--format", "text")
    assert code == 0
    assert out == ("3 minimal geodesic(s) from (1/4, 0):\n"
                   "  -> (-1/4, -3/8)\n"
                   "  -> (1/4, 5/8)\n"
                   "  -> (3/4, -3/8)\n")


def test_geodesics_json_matches_library(capsys):
    code, out = run(capsys, "geodesics", "--P", "1/4,0", "--Q", "1/4,5/8")
    assert code == 0
    lifts = minimal_lifts(project((F(1, 4), F(0))).rep, project((F(1, 4), F(5, 8))))
    assert json.loads(out) == {
        "count": len(lifts), "lifts": [[format_rat(c) for c in q] for q in lifts]}
    assert json.loads(out)["count"] == 3


def test_polytope_text_and_json(capsys):
    code, out = run(capsys, "polytope", "--P", "1/4,0", "--format", "text")
    assert code == 0
    assert out == ("cell at P = (1/4, 0)\n"
                   "  halfspaces: 8\n"
                   "  vertices:   6 (StandardMinus 3, StandardPlus 3)\n"
                   "  faces:      dim 0: 6, dim 1: 6, dim 2: 1\n")

    code, out = run(capsys, "polytope", "--P", "1/4,0")
    data = json.loads(out)
    assert data["n"] == 2
    assert len(data["vertices"]) == 6


def test_polytope_n6_json(capsys):
    code, out = run(capsys, "polytope", "--P", "1/10,1/5,2/7,1/3,2/9,1/3")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 600
    assert len(data["faces"]) == 7873
    assert len(data["equiv"]["faces"]) == 1296


def test_polytope_n8_is_refused_quickly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "flatklein.cli", "polytope",
         "--P", "1/10,1/5,2/7,1/3,2/9,1/3,3/7,1/5"],
        capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert "n <= 7" in proc.stderr and "4374 vertices" in proc.stderr


def test_strata_classify_text(capsys):
    code, out = run(capsys, "strata", "--P", "1/4,1/4,1/4,1/4,1/4,1/4,1/3",
                    "--format", "text")
    assert code == 0
    assert "domain  iiiiii|i" in out
    assert "dim     1" in out
    assert "negs    [[0, 1, 2, 3, 4, 5]]" in out
    assert "coincidence stratum" in out


def test_strata_json_matches_library(capsys):
    code, out = run(capsys, "strata", "--P", "1/3,1/5", "--format", "json")
    assert code == 0
    assert json.loads(out) == classify((F(1, 3), F(1, 5))).to_json()
    code, out = run(capsys, "strata", "--catalog", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == [s.to_json() for s in catalog(3)]
    assert len(json.loads(out)) == 8


def test_strata_projects_its_point(capsys):
    for fmt in ("text", "json"):
        code, canonical = run(capsys, "strata", "--P", "1/4,0", "--format", fmt)
        assert code == 0
        code, out = run(capsys, "strata", "--P", "5/4,0", "--format", fmt)
        assert code == 0
        assert out == canonical


def test_strata_catalog_table(capsys):
    code, out = run(capsys, "strata", "--catalog", "2", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "4 strata for n = 2"
    assert lines[2].startswith("i|i       2")
    assert lines[5].startswith("p|.       0")


def test_plan_text(capsys):
    code, out = run(capsys, "plan", "--P", "1/4,0", "--Q", "1/4,5/8",
                    "--format", "text", "--samples", "3")
    assert code == 0
    assert out == ("index    1 (stratum 1 + face 0)\n"
                   "face     ['s+0', 's+1']\n"
                   "lift     (1/4, 5/8)\n"
                   "  sample (1/4, 0)\n"
                   "  sample (1/4, 5/16)\n"
                   "  sample (1/4, 5/8)\n")


def test_plan_n7_json(capsys):
    code, out = run(capsys, "plan", "--P", "1/10,1/5,2/7,1/3,2/9,3/11,1/3",
                    "--Q", "3/4,1/2,1/8,5/9,0,2/3,1/5")
    assert code == 0
    data = json.loads(out)
    assert 0 <= data["index"] <= 14
    assert data["index"] == data["stratum_dim"] + data["face_dim"]
    assert len(data["lift"]) == 7


def test_figure_svg_labels(capsys):
    code, out = run(capsys, "figure", "--kind", "hexagon")
    assert code == 0
    assert out.startswith("<svg ")
    assert out.endswith("</svg>\n")
    for label in ("V+", "V-", "C--", "C-+", "C+-", "C++", ">P<"):
        assert label in out


def test_figure_mesh_off(capsys):
    code, out = run(capsys, "figure", "--kind", "mesh")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "18 12 28"
    # every facet row references valid vertex ids and closes a polygon
    for row in lines[2 + 18:]:
        k, *ids = row.split()
        assert int(k) == len(ids) >= 3
        assert all(0 <= int(i) < 18 for i in ids)


def test_outputs_are_deterministic(capsys):
    _, first = run(capsys, "figure", "--kind", "hexagon")
    _, second = run(capsys, "figure", "--kind", "hexagon")
    assert first == second
    _, v1 = run(capsys, "verify", "--n", "2", "--samples", "2", "--seed", "3")
    _, v2 = run(capsys, "verify", "--n", "2", "--samples", "2", "--seed", "3")
    assert v1 == v2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "cell.svg"
    code, out = run(capsys, "polytope", "--P", "1/4,0", "--format", "svg",
                    "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("<svg ")


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--n", "3", "--samples", "3", "--seed", "7")
    assert code == 0
    assert out.rstrip().endswith("pass")
    assert out.count("trial") == 3
    assert "FAIL" not in out


def test_verify_certifies_above_n5(capsys):
    code, out = run(capsys, "verify", "--n", "6", "--samples", "1", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2 and lines[-1] == "pass"
    assert lines[0].startswith("trial   0: P = (")
    assert lines[0].endswith(" edges: ok")


def test_verify_reports_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "brute_distance", lambda y, z: F(999))
    code, out = run(capsys, "verify", "--n", "2", "--samples", "1", "--seed", "0")
    assert code == 1
    assert "FAIL" in out
    assert "distance mismatch" in out


class _CellMissingAVertex:
    """A cell whose claimed vertex list lacks its first vertex."""

    def __init__(self, cell):
        self.cell = cell

    def vertices(self):
        return self.cell.vertices()[1:]

    def integer_rows(self):
        return self.cell.integer_rows()


@pytest.mark.parametrize("n, detail", [(3, "exhaustive"), (6, "edges")])
def test_verify_reports_vertex_mismatch(monkeypatch, capsys, n, detail):
    # n <= 5 goes to brute_vertices, n >= 6 to the certifier; either way
    # the failure names the dropped vertex
    real = cli.cut_polytope
    cells = []

    def missing(p):
        cells.append(_CellMissingAVertex(real(p)))
        return cells[-1]

    monkeypatch.setattr(cli, "cut_polytope", missing)
    code, out = run(capsys, "verify", "--n", str(n), "--samples", "1", "--seed", "1")
    assert code == 1
    trial, verdict, failure = out.splitlines()
    assert trial.startswith("trial   0: P = (")
    assert trial.endswith(f" {detail}: FAIL")
    assert verdict == "FAIL"
    base = trial[len("trial   0: P = "):].split(":")[0]
    dropped = cells[0].cell.vertices()[0].coords
    if n <= 5:
        text = "(" + ", ".join(map(format_rat, dropped)) + ")"
        assert failure == f"vertex mismatch at P = {base}: missing vertex {text}"
    else:
        assert failure.startswith(f"vertex mismatch at P = {base}: edge from (")
        assert failure.endswith(f" reaches unlisted vertex {dropped}")


def test_verify_names_an_extra_point(monkeypatch, capsys):
    # the exhaustive oracle loses a vertex: the claimed list has one more
    real = cli.brute_vertices
    lost = []

    def short(pairs):
        verts = real(pairs)
        lost.append(verts.pop(len(verts) // 2))
        return verts

    monkeypatch.setattr(cli, "brute_vertices", short)
    code, out = run(capsys, "verify", "--n", "3", "--samples", "1", "--seed", "1")
    assert code == 1
    trial, verdict, failure = out.splitlines()
    assert trial.endswith(" exhaustive: FAIL") and verdict == "FAIL"
    base = trial[len("trial   0: P = "):].split(":")[0]
    text = "(" + ", ".join(map(format_rat, lost[0])) + ")"
    assert failure == f"vertex mismatch at P = {base}: extra point {text}"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_refuses_no_samples(capsys, samples):
    code = cli.main(["verify", "--n", "3", "--samples", samples])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: --samples must be at least 1, got {samples}\n"


def test_verify_refuses_a_cell_too_large(capsys):
    # refused before any cell is built: at n = 30 one would hold about
    # 2 * 3^29 vertices
    start = time.perf_counter()
    code = cli.main(["verify", "--n", "30", "--samples", "1"])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == ("error: verify is limited to n <= 10: the cell at n = 30 "
                   f"has about {2 * 3 ** 29} vertices\n")


def test_distance_refuses_negative_digits(capsys):
    code = cli.main(["distance", "--P", "1/4,0", "--Q", "3/4,1/2", "--digits", "-1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: --digits must be at least 0, got -1\n"
    code, out = run(capsys, "distance", "--P", "1/4,0", "--Q", "3/4,1/2",
                    "--digits", "0", "--format", "text")
    assert (code, out) == (0, "d^2 = 1/4\nd   = 0\n")


def test_malformed_point_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["distance", "--P", "1/4,nope", "--Q", "0,0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_dimension_mismatch_exits_2(capsys):
    assert cli.main(["distance", "--P", "1/4,0", "--Q", "0,0,0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dimension mismatch\n"


def test_value_error_exits_2(capsys):
    code = cli.main(["polytope", "--P", "1/4,0", "--format", "off"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_svg_of_a_3_cell_exits_2(capsys):
    code = cli.main(["polytope", "--P", "1/4,1/3,0", "--format", "svg"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: SVG output needs a 2-dimensional cell\n"


def test_invariant_error_exits_3(capsys, monkeypatch):
    # listing the prism coordinate twice makes the vertex families collide
    broken = CutPolytope(project((F(0), F(1, 3))))
    broken.prism = (0, 0)
    monkeypatch.setattr(cli, "cut_polytope", lambda p: broken)
    code = cli.main(["polytope", "--P", "0,1/3", "--format", "text"])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: vertex coordinates collide in the cell at "
                          "P = 0,1/3: ")
    assert err.count("\n") == 1


def test_strata_requires_exactly_one_mode(capsys):
    for argv, got in ((["strata", "--format", "text"], "neither"),
                      (["strata", "--P", "1/4,0", "--catalog", "2"], "both")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: strata takes exactly one of --P and --catalog, "
                       f"got {got}\n")


@pytest.mark.parametrize("argv", [
    ["strata", "--P", ",".join(["1/3"] * 19)],
    ["plan", "--P", ",".join(["1/3"] * 19), "--Q", ",".join(["1/5"] * 19)]])
def test_classify_and_plan_limit_exits_2(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == ("error: classify and plan are limited to n <= 18: the point "
                   "at n = 19 has up to 2^18 = 262144 sign subsets\n")
