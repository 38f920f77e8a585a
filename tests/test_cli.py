import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import scythe
from scythe import morse
from scythe.cli import _emit, build_parser, main
from scythe.complexes import circle_subdivided, filled_triangle, torus_grid
from scythe.field import RATIONAL
from scythe.matrix import Matrix, mat_mul, matvec, try_invert
from scythe.nerve import Cover, nerve
from scythe.serialize import (
    complex_to_json, cover_to_json, dumps, loads, param_to_json, parse,
    reduced_to_json, sheaf_to_json,
)
from scythe.sheaf import CellularSheaf, compile_sheaf, constant_sheaf

from oracles import dense_coboundary


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_on_shipped_torus(capsys, data_dir):
    torus = str(data_dir / "torus.json")
    code, out, err = run_cli(capsys, "compute", torus)
    assert code == 0 and err == ""
    assert json.loads(out) == {"betti": [1, 2, 1]}
    again = run_cli(capsys, "compute", torus)
    assert again == (code, out, err)
    for extra in (["--field", "fp:2"], ["--no-reduce"], ["--iterate"]):
        c2, o2, _ = run_cli(capsys, "compute", torus, *extra)
        assert c2 == 0 and json.loads(o2)["betti"] == [1, 2, 1]


def test_compute_sheaf_flags(capsys, data_dir):
    torus = str(data_dir / "torus.json")
    _, out, _ = run_cli(capsys, "compute", torus, "--sheaf", "constant:2")
    assert json.loads(out)["betti"] == [2, 4, 2]
    cells = json.loads((data_dir / "torus.json").read_text())["cells"]
    square = next(c["id"] for c in cells if c["dim"] == 2)
    _, out, _ = run_cli(capsys, "compute", torus, "--sheaf", "skyscraper:" + square)
    assert json.loads(out)["betti"] == [0, 0, 1]
    ring = ",".join(sorted(c["id"] for c in cells
                           if c["id"][0] in "vw" and c["id"][3:5] == "00"))
    _, out, _ = run_cli(capsys, "compute", torus, "--sheaf", "pushforward:" + ring)
    assert json.loads(out)["betti"] == [1, 1, 0]


def test_compute_lifted_generators_are_cocycles(capsys, data_dir):
    circle8 = str(data_dir / "circle8.json")
    code, out, _ = run_cli(capsys, "compute", circle8, "--lift")
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [1, 1]
    cw = parse(loads((data_dir / "circle8.json").read_text()))
    cx = compile_sheaf(constant_sheaf(cw)).assemble()
    for n_str, grid in doc["generators"].items():
        n = int(n_str)
        assert len(grid) == cx.rank_c(n)
        assert len(grid[0]) == doc["betti"][n]
        for j in range(len(grid[0])):
            vec = [RATIONAL.parse(row[j]) for row in grid]
            image = matvec(dense_coboundary(cx, n), vec)
            assert all(v == RATIONAL.zero for v in image)


# one run of each command whose output is byte-stable (bench prints timings)
OUTPUT_RUNS = [
    ["compute", "torus.json", "--generators"],
    ["compute", "torus.json", "--lift"],
    ["reduce", "torus.json", "--equivalence"],
    ["nerve", "circle8.json", "two_arc_cover.json"],
    ["cech", "circle6.json", "three_arc_cover.json"],
    ["leray", "torus.json", "torus_reeb.json"],
    ["validate", "torus_reeb.json", "--base", "torus.json"],
]


def test_output_flag_matches_stdout(capsys, data_dir, tmp_path):
    # the writer streams to stdout or to the -o file: the same bytes
    dest = tmp_path / "result.json"
    for argv in OUTPUT_RUNS:
        argv = [str(data_dir / a) if a.endswith(".json") else a for a in argv]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.endswith("}\n")
        code, silent, _ = run_cli(capsys, *argv, "-o", str(dest))
        assert code == 0 and silent == ""
        assert dest.read_bytes() == out.encode("utf-8")


def test_reduce_report_and_equivalence(capsys, data_dir):
    torus = str(data_dir / "torus.json")
    code, out, err = run_cli(capsys, "reduce", torus)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "reduced"
    assert doc["matching"] and {"lower", "upper"} == set(doc["matching"][0])
    assert "equivalence" not in doc
    report = json.loads(err[: err.index("\ncells") + 1])
    assert report["n"] == 72 and report["omega"] == 3
    assert sum(report["m_k"]) + 2 * len(doc["matching"]) == 72
    assert "cells (n)" in err and "time: reduce" in err

    _, out, _ = run_cli(capsys, "reduce", torus, "--iterate", "--equivalence",
                        "--policy", "relaxed")
    doc = json.loads(out)
    assert set(doc["equivalence"]) == {
        "psi", "phi", "theta", "source_cells", "target_cells"
    }


# sha256 of stdout for the transport and equivalence outputs, fixed bytes
PINNED_STDOUT = [
    (["compute", "circle8.json", "--lift"],
     "9cefc8bc50bbc88bc931db1072c9fd36faea08004d763698ed1444b9a2e09133"),
    (["compute", "torus.json", "--lift"],
     "1380599eeed786012a7c0e7422b772148e899c3495ec4a229c34bb8ed37cd662"),
    (["reduce", "torus.json", "--equivalence"],
     "972e0540318a54c53a5bcedb1f4d5688c383e0aa8a19b30e5470eee45aba825a"),
    (["reduce", "torus.json", "--equivalence", "--iterate", "--policy", "relaxed"],
     "972e0540318a54c53a5bcedb1f4d5688c383e0aa8a19b30e5470eee45aba825a"),
    (["reduce", "genus2_surface.json", "--equivalence", "--field", "fp:5"],
     "d2461e40fcad313a62634528cacea370e57118471fbd43d0288597fd567e5040"),
    # stalks of rank > 1: multi-row inverses in the folded psi/phi/theta
    (["reduce", "torus.json", "--sheaf", "constant:2", "--equivalence"],
     "1096ca080a385cfee765f9ec849c500211653f9958cca85a225b45e1d406a4e3"),
    (["reduce", "circle8.json", "--sheaf", "constant:3", "--field", "fp:5",
      "--equivalence"],
     "aeb0745dd2b293e1c60ade34883f88a10656463b21a2b541e6fbdb81dae12474"),
    (["compute", "genus2_surface.json", "--sheaf", "constant:2", "--lift"],
     "9b7cca663d84071303f8dd871c2f001893ff45da2497f59573ef5b3a02d900f1"),
    # the parametrization document with its matching, and plain generators
    (["reduce", "torus.json"],
     "a06081469d9883f026788039b89e6fb08690646f7fda457f901799445a1dea5c"),
    (["compute", "torus.json", "--generators"],
     "ef16b4cdacb6216d2b7d1c4b1c9d3b8bd00dc2db49b2878b34670bb3a4efef74"),
    (["nerve", "circle6.json", "three_arc_cover.json"],
     "4cd223c30f79f40a7a2784d0b240d7104206c0ebb250c8ff6c4479718129840e"),
    # formatted Fractions such as 1/2 and -3/4 throughout the document
    (["reduce", "conjugated_circle6.json", "--equivalence"],
     "5f22f600cff293eee2df1adddba28e5638dff6d56c7d47170666afd338b866d5"),
]


def conjugated_circle6(data_dir):
    """circle6's constant rank-2 sheaf seen in a rational basis per cell.

    Cell i's stalk gets the gauge g_i = [[a, b], [0, c]] from a short
    cycle, and the map on s < t becomes g_t g_s^{-1}: still a sheaf whose
    coboundary squares to zero, with entries such as 1/2 and -3/4.
    """
    cw = parse(loads((data_dir / "circle6.json").read_text()))
    shapes = [(2, 1, 1), (Fraction(-3, 2), 0, 4), (1, Fraction(1, 2), -2),
              (Fraction(4, 3), -1, Fraction(3, 4))]
    gauge = {
        cell: Matrix(RATIONAL, 2, 2, [[a, b], [0, c]])
        for cell, (a, b, c) in zip(cw.cells(), shapes * len(cw.cells()))
    }
    maps = {(s, t): mat_mul(gauge[t], try_invert(gauge[s]))
            for s, t in cw.incidence}
    sheaf = CellularSheaf(cw, RATIONAL, {c: 2 for c in cw.cells()}, maps)
    return sheaf_to_json(sheaf)


# documents the pinned commands read that no fixture ships
WRITTEN_DOCS = {"conjugated_circle6.json": conjugated_circle6}


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT,
                         ids=["_".join(a) for a, _ in PINNED_STDOUT])
def test_lift_and_equivalence_bytes_are_pinned(capsys, data_dir, tmp_path,
                                               argv, digest):
    for name, build in WRITTEN_DOCS.items():
        if name in argv:
            (tmp_path / name).write_text(dumps(build(data_dir)))
    argv = [str((tmp_path if a in WRITTEN_DOCS else data_dir) / a)
            if a.endswith(".json") else a for a in argv]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of stdout for the pipelines on every shipped cover and fibering,
# taken when fibers were still computed unreduced
PINNED_PIPELINES = [
    (["cech", "circle6.json", "three_arc_cover.json"],
     "4788214f93c1e35c91fe1196046d6fa2a6482234d05626c5c7bf37fbd2e43429"),
    (["cech", "circle8.json", "two_arc_cover.json"],
     "834d7c5c32fb9daa60b793a9cbf16565ab017471be893918361850f479845dd0"),
    (["leray", "torus.json", "torus_reeb.json"],
     "aedad592e54b180fefdb8becccb1668bca5156c6e2e3b1fe4a150322c945bd21"),
    (["leray", "genus2_surface.json", "genus2_reeb.json"],
     "12fd5d136b0e9687ce694125c90889d6153476e8ea0c3992b5cab3e6aaa72303"),
]
PIPELINE_FLAGS = [[], ["--field", "fp:5"], ["--field", "fp:2"],
                  ["--no-reduce"], ["--workers", "8"]]


@pytest.mark.parametrize("flags", PIPELINE_FLAGS,
                         ids=["_".join(f) or "plain" for f in PIPELINE_FLAGS])
@pytest.mark.parametrize("argv,digest", PINNED_PIPELINES,
                         ids=["_".join(a) for a, _ in PINNED_PIPELINES])
def test_pipeline_bytes_are_pinned(capsys, data_dir, argv, digest, flags):
    argv = [str(data_dir / a) if a.endswith(".json") else a for a in argv]
    code, out, _ = run_cli(capsys, *argv, *flags)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_nerve_command(capsys, data_dir):
    code, out, _ = run_cli(capsys, "nerve", str(data_dir / "circle8.json"),
                           str(data_dir / "two_arc_cover.json"))
    assert code == 0
    doc = json.loads(out)
    assert sorted(c["id"] for c in doc["cells"]) == ["A", "A|B", "B"]
    assert doc["supports"]["A|B"] == ["v00", "v04"]


def test_cech_command_and_worker_determinism(capsys, data_dir):
    argv = ["cech", str(data_dir / "circle6.json"),
            str(data_dir / "three_arc_cover.json")]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["profile"]["betti"] == [1, 1]
    assert doc["estimate"]["n_cells"] == 12
    _, out8, _ = run_cli(capsys, *argv, "--workers", "8")
    assert out8 == out


def test_leray_command(capsys, data_dir):
    code, out, _ = run_cli(capsys, "leray", str(data_dir / "torus.json"),
                           str(data_dir / "torus_reeb.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["profile"]["betti"] == [1, 2, 1]
    assert doc["estimate"]["pipeline_cost"] < doc["estimate"]["direct_cost"]
    _, out8, _ = run_cli(capsys, "leray", str(data_dir / "genus2_surface.json"),
                         str(data_dir / "genus2_reeb.json"), "--workers", "4")
    assert json.loads(out8)["profile"]["betti"] == [1, 4, 1]


@pytest.mark.parametrize("graph_cells, fibers", [
    ([{"id": "a", "dim": 0}], {"a": []}),
    ([], {}),
], ids=["empty-fiber-over-vertex", "empty-graph"])
def test_leray_on_an_empty_complex_prints_one_document(capsys, tmp_path,
                                                       graph_cells, fibers):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"kind": "complex", "cells": [], "covers": []}))
    path = tmp_path / "fibers.json"
    path.write_text(json.dumps({
        "kind": "fibers", "fibers": fibers,
        "graph": {"kind": "complex", "cells": graph_cells, "covers": []}}))
    code, out, err = run_cli(capsys, "leray", str(empty), str(path))
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "profile": {"betti": []},
        "estimate": {"n_cells": 0, "graph_cells": len(graph_cells),
                     "max_fiber": 0, "dim": -1, "pipeline_cost": 0,
                     "direct_cost": 0, "ratio": None},
    }
    assert run_cli(capsys, "compute", str(empty)) == (
        0, dumps({"betti": []}), "")


def test_validate_command(capsys, data_dir, tmp_path):
    ok, out, _ = run_cli(capsys, "validate", str(data_dir / "torus.json"))
    assert ok == 0 and json.loads(out) == {"ok": True, "kind": "complex"}
    ok, out, _ = run_cli(capsys, "validate", str(data_dir / "two_arc_cover.json"),
                         "--base", str(data_dir / "circle8.json"))
    assert ok == 0 and json.loads(out)["kind"] == "cover"
    ok, out, _ = run_cli(capsys, "validate", str(data_dir / "torus_reeb.json"),
                         "--base", str(data_dir / "torus.json"))
    assert ok == 0 and json.loads(out)["kind"] == "fibers"

    code, _, err = run_cli(capsys, "validate",
                           str(data_dir / "two_arc_cover.json"))
    assert code == 2 and "needs --base" in err

    sheaf_doc = {
        "kind": "sheaf",
        "cells": [{"id": "u", "dim": 0, "rank": 2}],
        "covers": [],
    }
    path = tmp_path / "point.json"
    path.write_text(dumps(sheaf_doc))
    ok, out, _ = run_cli(capsys, "validate", str(path))
    assert ok == 0 and json.loads(out)["kind"] == "sheaf"


def test_exit_codes(capsys, data_dir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(dumps({
        "kind": "complex",
        "cells": [{"id": "u", "dim": 0}, {"id": "e", "dim": 1}],
        "covers": [{"from": "u", "to": "e", "incidence": 1},
                   {"from": "w", "to": "e", "incidence": -1}],
    }))
    code, _, err = run_cli(capsys, "compute", str(bad))
    assert code == 2 and err.startswith("error:") and "'w'" in err

    fibers = json.loads((data_dir / "torus_reeb.json").read_text())
    fibers["fibers"]["a0"] = sorted(set(fibers["fibers"]["a0"]) | {"v0000"})
    broken = tmp_path / "fibers.json"
    broken.write_text(dumps(fibers))
    code, _, err = run_cli(capsys, "leray", str(data_dir / "torus.json"),
                           str(broken))
    assert code == 3 and err.startswith("theorem precondition failed:")

    code, _, err = run_cli(capsys, "compute", str(tmp_path / "missing.json"))
    assert code == 2 and err.startswith("error:")

    code, _, err = run_cli(capsys, "compute", str(data_dir / "torus.json"),
                           "--field", "fp:4")
    assert code == 2 and "prime" in err


# documents written next to the shipped ones for the refusals below
WRITTEN_DOCUMENTS = {
    "sheaf.json": dumps(sheaf_to_json(constant_sheaf(circle_subdivided(6)))),
    "profile.json": '{"betti": [1, 1]}',
    "array.json": "[1, 2]",
}
FLAG_AND_KIND_ERRORS = [
    (["compute", "circle6.json", "--field", "fp:x"],
     "--field fp wants an integer modulus, got 'fp:x'"),
    (["compute", "circle6.json", "--field", "real"],
     "--field takes rational or fp:<p>, got 'real'"),
    (["compute", "circle6.json", "--sheaf", "constant:x"],
     "--sheaf constant:<rank> wants an integer"),
    (["compute", "sheaf.json", "--sheaf", "constant"],
     "--sheaf only applies to bare complex documents"),
    (["compute", "torus_reeb.json"],
     "input document is not a complex, sheaf, or parametrization"),
    (["compute", "profile.json"],
     "input document is not a complex, sheaf, or parametrization"),
    (["validate", "array.json"], "top level: expected an object"),
]


@pytest.mark.parametrize("argv, message", FLAG_AND_KIND_ERRORS,
                         ids=[" ".join(a) for a, _ in FLAG_AND_KIND_ERRORS])
def test_bad_flags_and_document_kinds_exit_2(capsys, data_dir, tmp_path, argv,
                                             message):
    for name, text in WRITTEN_DOCUMENTS.items():
        (tmp_path / name).write_text(text)
    paths = [str((tmp_path if a in WRITTEN_DOCUMENTS else data_dir) / a)
             if a.endswith(".json") else a for a in argv]
    assert run_cli(capsys, *paths) == (2, "", "error: %s\n" % message)


def test_field_rational_is_the_default(capsys, data_dir):
    circle = str(data_dir / "circle6.json")
    assert (run_cli(capsys, "compute", circle, "--field", "rational")
            == run_cli(capsys, "compute", circle))


def test_modulus_past_2_64_exits_2_fast(capsys, data_dir, tmp_path):
    # a 30-digit modulus; trial division up to its square root never ends
    modulus = 10 ** 30 + 57
    want = "error: fp modulus must be a prime below 2^64, got one of 100 bits\n"
    circle = data_dir / "circle6.json"
    doc = json.loads(circle.read_text())
    doc["field"] = {"kind": "fp", "p": modulus}
    in_doc = tmp_path / "big_modulus.json"
    in_doc.write_text(json.dumps(doc))
    start = time.perf_counter()
    runs = [("compute", str(circle), "--field", "fp:%d" % modulus),
            ("compute", str(in_doc)), ("validate", str(in_doc))]
    for argv in runs:
        assert run_cli(capsys, *argv) == (2, "", want)
    assert time.perf_counter() - start < 1.0


def test_deep_cover_exits_3_fast(capsys, tmp_path):
    base = circle_subdivided(8)
    doc, cover = tmp_path / "circle8.json", tmp_path / "deep.json"
    doc.write_text(dumps(complex_to_json(base)))
    cover.write_text(dumps(cover_to_json(
        Cover(base, [("P%02d" % i, base.cells()) for i in range(16)]))))
    want = ("theorem precondition failed: nerve has a 15-simplex; "
            "the decomposition needs dimension <= 1\n")
    start = time.perf_counter()
    assert run_cli(capsys, "cech", str(doc), str(cover)) == (3, "", want)
    assert time.perf_counter() - start < 1.0


# a vertex and an edge of rank 10^8 with no cover between them
WIDE_DOCUMENT = (
    '{"cells":[{"dim":1,"id":"e","rank":100000000},'
    '{"dim":0,"id":"v","rank":1}],"covers":[],'
    '"field":{"kind":"rational"},"kind":"reduced","matching":[]}')


def test_out_of_memory_exits_2(tmp_path):
    # the generators of the edge's 10^8-dimensional H^1 are the columns of
    # a dense kernel basis, far beyond the cap
    resource = pytest.importorskip("resource")
    doc = tmp_path / "wide.json"
    doc.write_text(WIDE_DOCUMENT)
    limit = 300 * 2 ** 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(pathlib.Path(scythe.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "scythe.cli", "compute", str(doc),
         "--generators"],
        capture_output=True, text=True, preexec_fn=cap_address_space,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: out of memory\n")


def test_rank_of_an_uncovered_stalk_costs_no_memory(tmp_path):
    # no block touches the edge's 10^8 coordinates, so elimination stores
    # no row for them and Betti is read off the layout totals
    resource = pytest.importorskip("resource")
    doc = tmp_path / "wide.json"
    doc.write_text(WIDE_DOCUMENT)
    limit = 2 ** 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(pathlib.Path(scythe.__file__).resolve().parent.parent)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "scythe.cli", "compute", str(doc)],
        capture_output=True, text=True, preexec_fn=cap_address_space,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"betti": [1, 100000000]}


def test_compute_rejects_sheaf_that_does_not_square_to_zero(capsys, tmp_path):
    tri = filled_triangle()
    maps = {pair: Matrix.identity(RATIONAL, 1) for pair in tri.incidence}
    maps[("u", "uv")] = Matrix.from_rows(RATIONAL, [[2]])
    sheaf = CellularSheaf(tri, RATIONAL, {c: 1 for c in tri.cells()}, maps)
    doc = tmp_path / "broken.json"
    doc.write_text(dumps(sheaf_to_json(sheaf)))
    want = ("error: compiled coboundary does not square to zero; "
            "blocks: [(0, 'f', 'u')]\n")
    for command in ("compute", "reduce", "validate"):
        assert run_cli(capsys, command, str(doc)) == (2, "", want)
    # and as its own process: exit code 2, the message, no traceback
    src = str(pathlib.Path(scythe.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "scythe.cli", "compute", str(doc)],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)


def test_compiled_documents_scythe_writes_are_read_back(capsys, tmp_path):
    # incidence 1 on every cover: the CW sign identity fails on a surface,
    # so compiled documents are held to d^2 of their maps instead
    doc = param_to_json(compile_sheaf(constant_sheaf(filled_triangle())))
    path = tmp_path / "triangle.json"
    path.write_text(dumps(doc))
    assert run_cli(capsys, "compute", str(path)) == (
        0, dumps({"betti": [1, 0, 0]}), "")
    assert run_cli(capsys, "validate", str(path)) == (
        0, dumps({"kind": "parametrization", "ok": True}), "")
    code, out, _ = run_cli(capsys, "reduce", str(path))
    assert code == 0
    reduced = tmp_path / "reduced.json"
    reduced.write_text(out)
    assert run_cli(capsys, "compute", str(reduced))[:2] == (
        0, dumps({"betti": [1, 0, 0]}))  # one vertex is left, of top 2

    doc["covers"][0]["map"] = [["2"]]
    path.write_text(dumps(doc))
    want = ("error: compiled coboundary does not square to zero; "
            "blocks: [(0, 'f', 'u')]\n")
    for command in ("compute", "reduce", "validate"):
        assert run_cli(capsys, command, str(path)) == (2, "", want)


@pytest.mark.parametrize("flags", [[], ["--generators"], ["--lift"]],
                         ids=["plain", "generators", "lift"])
def test_validate_reads_what_compute_writes(capsys, data_dir, tmp_path, flags):
    code, out, _ = run_cli(capsys, "compute", str(data_dir / "torus.json"),
                           *flags)
    assert code == 0
    path = tmp_path / "profile.json"
    path.write_text(out)
    assert run_cli(capsys, "validate", str(path)) == (
        0, dumps({"kind": "profile", "ok": True}), "")


def test_validate_base_checks_the_cells_of_every_fiber(capsys, data_dir,
                                                       tmp_path):
    torus = str(data_dir / "torus.json")
    original = json.loads((data_dir / "torus_reeb.json").read_text())
    edits = [(lambda cells: cells + ["zzz"],
              "error: fiber of 'u0': no cell 'zzz' in the complex\n"),
             (lambda cells: [c for c in cells if c != "v0000"],
              "error: fiber of 'u0': cell 'h0000' kept but its face 'v0000'"
              " dropped\n")]
    for edit, want in edits:
        doc = json.loads(json.dumps(original))
        doc["fibers"]["u0"] = edit(doc["fibers"]["u0"])
        path = tmp_path / "fibers.json"
        path.write_text(dumps(doc))
        assert run_cli(capsys, "leray", torus, str(path)) == (2, "", want)
        assert run_cli(capsys, "validate", str(path), "--base", torus) == (
            2, "", want)
    sheaf = tmp_path / "sheaf.json"
    sheaf.write_text(dumps(sheaf_to_json(constant_sheaf(torus_grid(2, 2)))))
    for doc in ("torus_reeb.json", "two_arc_cover.json"):
        assert run_cli(capsys, "validate", str(data_dir / doc),
                       "--base", str(sheaf)) == (
            2, "", "error: validate --base wants a bare complex document\n")


def test_leray_refuses_fibers_that_miss_a_cell(capsys, data_dir, tmp_path):
    # an empty fiber over one vertex, and the empty graph, cover none of
    # the torus: no answer, exit 3, naming its least cell
    torus = str(data_dir / "torus.json")
    want = ("theorem precondition failed: no vertex fiber holds cell 'h0000'"
            " of the complex\n")
    for cells, fibers in (([{"id": "a", "dim": 0}], {"a": []}), ([], {})):
        path = tmp_path / "fibers.json"
        path.write_text(dumps({"kind": "fibers", "fibers": fibers, "graph": {
            "kind": "complex", "cells": cells, "covers": []}}))
        assert run_cli(capsys, "leray", torus, str(path)) == (3, "", want)
        assert run_cli(capsys, "validate", str(path), "--base", torus) == (
            3, "", want)


@pytest.mark.parametrize("graph, fibers, want", [
    ({"cells": [{"id": "u0", "dim": 0}, {"id": "u1", "dim": 0},
                {"id": "a", "dim": 1}],
      "covers": [{"from": "u0", "to": "a", "incidence": -1},
                 {"from": "u1", "to": "a", "incidence": 1}]},
     {"u0": "all", "u1": "all", "a": ["v00"]},
     "cell 'e00' lies in vertex fibers ['u0', 'u1'] and edge fibers []"),
    ({"cells": [{"id": "u", "dim": 0}, {"id": "a", "dim": 1}],
      "covers": [{"from": "u", "to": "a", "incidence": 1}]},
     {"u": "all", "a": ["v00"]},
     "cell 'v00' lies in vertex fibers ['u'] and edge fibers ['a']"),
], ids=["wedge", "loop"])
def test_leray_refuses_fibers_that_do_not_present_the_space(
        capsys, data_dir, tmp_path, graph, fibers, want):
    # two whole circles glued at v00 are a wedge, and a loop edge at the one
    # vertex of a whole circle glues it to itself: neither diagram is the
    # circle, so no answer, exit 3, naming the least offending cell
    circle = str(data_dir / "circle6.json")
    whole = [cell["id"] for cell in
             json.loads((data_dir / "circle6.json").read_text())["cells"]]
    path = tmp_path / "fibers.json"
    path.write_text(dumps({
        "kind": "fibers", "graph": dict(graph, kind="complex"),
        "fibers": {c: whole if f == "all" else f for c, f in fibers.items()}}))
    want = "theorem precondition failed: %s\n" % want
    assert run_cli(capsys, "leray", circle, str(path)) == (3, "", want)
    assert run_cli(capsys, "validate", str(path), "--base", circle) == (
        3, "", want)


# the option strings each subcommand accepts; a new flag edits this table
FLAG_ROWS = {
    "compute": ["--field", "--sheaf", "--iterate", "--no-reduce",
                "--generators", "--lift", "-o", "--output"],
    "reduce": ["--field", "--sheaf", "--iterate", "--equivalence", "--policy",
               "-o", "--output"],
    "nerve": ["-o", "--output"],
    "cech": ["--field", "--no-reduce", "--workers", "-o", "--output"],
    "leray": ["--field", "--no-reduce", "--workers", "-o", "--output"],
    "bench": ["--field", "--seed", "-o", "--output"],
    "validate": ["--field", "--base", "-o", "--output"],
}
POSITIONALS = {"compute": ["torus.json"], "reduce": ["torus.json"],
               "nerve": ["circle8.json", "two_arc_cover.json"],
               "cech": ["circle8.json", "two_arc_cover.json"],
               "leray": ["torus.json", "torus_reeb.json"], "bench": [],
               "validate": ["torus.json"]}
# the flags every subcommand once accepted, with a value where one is taken
SHARED_FLAGS = {"--field": ["fp:5"], "--workers": ["2"], "--iterate": [],
                "--no-reduce": [], "--equivalence": [], "--generators": [],
                "--seed": ["4"], "-o": ["out.json"]}
UNREAD = [(command, flag) for command, row in FLAG_ROWS.items()
          for flag in SHARED_FLAGS if flag not in row]


def test_each_subcommand_accepts_exactly_its_row_of_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    accepted = {
        command: [s for a in p._actions for s in a.option_strings
                  if s not in ("-h", "--help")]
        for command, p in sub.choices.items()
    }
    assert accepted == FLAG_ROWS
    assert len(UNREAD) == 33


@pytest.mark.parametrize("command,flag", UNREAD,
                         ids=["%s_%s" % pair for pair in UNREAD])
def test_a_flag_outside_the_row_is_refused(capsys, data_dir, command, flag):
    argv = [command, *(str(data_dir / a) for a in POSITIONALS[command]),
            flag, *SHARED_FLAGS[flag]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "usage:" in captured.err and flag in captured.err


def test_no_reduce_and_iterate_exclude_each_other(capsys, data_dir):
    with pytest.raises(SystemExit) as exc:
        main(["compute", str(data_dir / "torus.json"), "--no-reduce",
              "--iterate"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "not allowed with argument" in err


def test_validate_applies_field_as_compute_does(capsys, tmp_path):
    doc = {"kind": "sheaf",
           "cells": [{"id": "a", "dim": 0, "rank": 1},
                     {"id": "b", "dim": 0, "rank": 1},
                     {"id": "e", "dim": 1, "rank": 1}],
           "covers": [{"from": "a", "to": "e", "incidence": -1, "map": [["1"]]},
                      {"from": "b", "to": "e", "incidence": 1,
                       "map": [["1/2"]]}]}
    half = tmp_path / "half.json"
    half.write_text(dumps(doc))
    assert run_cli(capsys, "validate", str(half))[0] == 0
    refused = run_cli(capsys, "compute", str(half), "--field", "fp:2")
    assert refused[0] == 2 and "bad F_2 literal '1/2'" in refused[2]
    assert run_cli(capsys, "validate", str(half), "--field", "fp:2") == refused


def test_validate_refuses_base_where_it_is_not_read(capsys, data_dir, tmp_path):
    torus = str(data_dir / "torus.json")
    cw = torus_grid(2, 2)
    docs = {"complex": complex_to_json(cw),
            "sheaf": sheaf_to_json(constant_sheaf(cw)),
            "parametrization": param_to_json(compile_sheaf(constant_sheaf(cw)))}
    for kind, doc in docs.items():
        (tmp_path / (kind + ".json")).write_text(dumps(doc))
    for kind, command in (("reduced", "reduce"), ("profile", "compute")):
        code, out, _ = run_cli(capsys, command, torus)
        assert code == 0
        (tmp_path / (kind + ".json")).write_text(out)
    want = (2, "", "error: --base only applies to cover and fiber documents\n")
    for kind in ("complex", "sheaf", "parametrization", "reduced", "profile"):
        path = str(tmp_path / (kind + ".json"))
        assert run_cli(capsys, "validate", path)[:2] == (
            0, dumps({"kind": kind, "ok": True}))
        assert run_cli(capsys, "validate", path, "--base", torus) == want


def test_readme_commands_exit_0(capsys, data_dir):
    root = pathlib.Path(__file__).resolve().parent.parent
    text = (root / "README.md").read_text(encoding="utf-8")
    block = text.split("```sh\nDATA=", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
                if line.startswith("scythe ")]
    assert len(commands) >= 9
    for argv in commands:
        argv = [a.replace("$DATA", str(data_dir)) for a in argv]
        assert run_cli(capsys, *argv)[0] == 0, argv


def _support_sheaves(data_dir):
    """--sheaf specs on torus.json whose reduction empties some degree."""
    cells = json.loads((data_dir / "torus.json").read_text())["cells"]
    ring = ",".join(sorted(c["id"] for c in cells
                           if c["id"][0] in "vw" and c["id"][3:5] == "00"))
    return [["--sheaf", "skyscraper:q0000"], ["--sheaf", "pushforward:" + ring]]


@pytest.mark.parametrize("mode", ["--generators", "--lift"])
def test_results_span_every_degree_reduced_or_not(capsys, data_dir, tmp_path,
                                                  mode):
    triangle = tmp_path / "filled_triangle.json"
    triangle.write_text(dumps(complex_to_json(filled_triangle())))
    runs = [[str(triangle)]] + [[str(data_dir / "torus.json"), *spec]
                                for spec in _support_sheaves(data_dir)]
    for argv in runs:
        reduced = json.loads(run_cli(capsys, "compute", *argv, mode)[1])
        direct = json.loads(run_cli(capsys, "compute", *argv, mode,
                                    "--no-reduce")[1])
        assert reduced["betti"] == direct["betti"]
        assert len(reduced["betti"]) == 3
        assert sorted(reduced["generators"]) == sorted(direct["generators"])
        assert sorted(direct["generators"]) == ["0", "1", "2"]


def test_lift_bytes_ignore_no_reduce_on_filled_triangle(capsys, tmp_path):
    triangle = tmp_path / "filled_triangle.json"
    triangle.write_text(dumps(complex_to_json(filled_triangle())))
    reduced = run_cli(capsys, "compute", str(triangle), "--lift")
    assert reduced[0] == 0
    assert run_cli(capsys, "compute", str(triangle), "--lift",
                   "--no-reduce") == reduced


# each run prints the first offending cell and face of a cell set; the
# cells are read in sorted order, so the line must not follow the hash seed
HASH_SEED_PROBE = """
import contextlib, io, json, sys
from scythe.cli import build_parser, main
from scythe.complexes import torus_grid
from scythe.cw import subcomplex
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        code = main(argv)
    print(code, err.getvalue(), end="")
try:
    subcomplex(torus_grid(2, 2), {"q0000"})
except Exception as exc:
    print(type(exc).__name__, exc)
"""


def test_face_closure_errors_do_not_follow_the_hash_seed(data_dir, tmp_path):
    torus = tmp_path / "torus.json"
    torus.write_text(dumps(complex_to_json(torus_grid(2, 2))))
    cover = tmp_path / "cover.json"
    cover.write_text(dumps({"kind": "cover", "pieces": [
        {"name": "A", "cells": ["q0000"]},
        {"name": "B", "cells": torus_grid(2, 2).cells()}]}))
    runs = json.dumps([
        ["compute", str(data_dir / "torus.json"),
         "--sheaf", "pushforward:q0000,q0101,h0202"],
        ["nerve", str(torus), str(cover)]])
    src = str(pathlib.Path(scythe.__file__).resolve().parent.parent)
    outputs = set()
    for seed in range(8):
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_PROBE, runs],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
        )
        assert proc.returncode == 0 and proc.stderr == ""
        outputs.add(proc.stdout)
    assert outputs == {
        "2 error: cell 'h0202' kept but its face 'v0202' dropped\n"
        "2 error: piece 'A': cell 'q0000' kept but its face 'h0000' dropped\n"
        "NotASubcomplex cell 'q0000' kept but its face 'h0000' dropped\n"
    }


def test_cech_builds_its_nerve_once(capsys, data_dir, tmp_path):
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is nerve.__code__:
            calls.append(frame)

    circle8 = str(data_dir / "circle8.json")
    base = circle_subdivided(8)
    deep = tmp_path / "deep.json"
    deep.write_text(dumps(cover_to_json(
        Cover(base, [("P%02d" % i, base.cells()) for i in range(3)]))))
    for cover, want in ((data_dir / "two_arc_cover.json", (0, 1)),
                        (deep, (3, 0))):
        calls.clear()
        sys.setprofile(count)
        try:
            code = main(["cech", circle8, str(cover)])
        finally:
            sys.setprofile(None)
        capsys.readouterr()
        assert (code, len(calls)) == want


@pytest.mark.parametrize("payload, message", [
    (b'{"kind": "complex", "cells": [{"id": "u", "dim": '
     + b"9" * 4301 + b'}], "covers": []}', "not JSON: Exceeds the limit"),
    (b"[" * 200000, "not JSON: nested too deeply"),
    (b'\xff\xfe{"kind": "complex"}', "is not UTF-8 text"),
], ids=["long-integer", "deep-nesting", "not-utf8"])
def test_malformed_documents_exit_2(capsys, tmp_path, payload, message):
    doc = tmp_path / "malformed.json"
    doc.write_bytes(payload)
    code, out, err = run_cli(capsys, "compute", str(doc))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("literal", ["1e5000", "1e-5000", "1e999999999"])
def test_rational_exponent_beyond_digit_limit_exits_2(capsys, tmp_path,
                                                      digit_limit, literal):
    sheaf = sheaf_to_json(constant_sheaf(filled_triangle(), 1, RATIONAL))
    sheaf["covers"][0]["map"] = [[literal]]
    doc = tmp_path / "exponent.json"
    doc.write_text(dumps(sheaf))
    code, out, err = run_cli(capsys, "compute", str(doc))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "exponent beyond" in err


def test_element_beyond_digit_limit_exits_2_when_written(capsys, tmp_path,
                                                        data_dir, digit_limit):
    cw = parse(loads((data_dir / "circle6.json").read_text()))
    sheaf = sheaf_to_json(constant_sheaf(cw, 1, RATIONAL))
    sheaf["covers"][0]["map"] = [["1e4300"]]  # 4301 digits, one past the limit
    doc = tmp_path / "huge.json"
    doc.write_text(dumps(sheaf))
    want = ("error: cannot write an element of more than 4300 digits, "
            "the limit of sys.get_int_max_str_digits()\n")
    code, out, err = run_cli(capsys, "reduce", str(doc), "--equivalence")
    assert (code, out, err) == (2, "", want)
    # commands that never format the entry print as before; the huge map
    # twists the circle, so no section survives
    code, out, _ = run_cli(capsys, "compute", str(doc))
    assert code == 0 and json.loads(out) == {"betti": [0, 0]}
    code, out, _ = run_cli(capsys, "validate", str(doc))
    assert code == 0 and json.loads(out) == {"ok": True, "kind": "sheaf"}
    # and as its own process: exit code 2, the message, no traceback
    src = str(pathlib.Path(scythe.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONINTMAXSTRDIGITS="4300")
    proc = subprocess.run(
        [sys.executable, "-m", "scythe.cli", "reduce", str(doc), "--equivalence"],
        capture_output=True, text=True, env=env,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)
    assert "Traceback" not in proc.stderr


def test_failed_run_leaves_the_output_file_untouched(capsys, tmp_path,
                                                     data_dir, digit_limit):
    # every entry is formatted before the -o file is opened
    cw = parse(loads((data_dir / "circle6.json").read_text()))
    sheaf = sheaf_to_json(constant_sheaf(cw, 1, RATIONAL))
    sheaf["covers"][0]["map"] = [["1e4300"]]
    doc = tmp_path / "huge.json"
    doc.write_text(dumps(sheaf))
    existing = tmp_path / "existing.json"
    existing.write_bytes(b'{"kept": true}\n')
    code, out, err = run_cli(capsys, "reduce", str(doc), "--equivalence",
                             "-o", str(existing))
    assert (code, out, err) == (
        2, "", "error: cannot write an element of more than 4300 digits, "
        "the limit of sys.get_int_max_str_digits()\n")
    assert existing.read_bytes() == b'{"kept": true}\n'


def test_writing_the_equivalence_document_holds_no_matrix(tmp_path):
    # the 16x16 rank-2 document is 15.3 MiB of text; its rows are made as
    # the writer streams them to the -o file
    data = morse.scythe(compile_sheaf(constant_sheaf(torus_grid(16, 16), 2)),
                        track_equivalence=True)
    data.equivalence.psi_vecs(0)  # fold the steps before the trace
    args = argparse.Namespace(output=str(tmp_path / "eq.json"))
    tracemalloc.start()
    try:
        _emit(args, reduced_to_json(data, equivalence=data.equivalence))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert os.path.getsize(args.output) > 15 * 2 ** 20
    assert peak < 2 ** 20


def test_writing_the_equivalence_document_shares_its_empty_rows(tmp_path):
    # 1 984 of the 2 560 rows of phi^1, phi^2 and Theta^2 at 16x16 rank 2
    # are empty; a dict each put the write peak at 0.45 MiB, one shared
    # read-only mapping puts it at 0.33 MiB
    data = morse.scythe(compile_sheaf(constant_sheaf(torus_grid(16, 16), 2)),
                        track_equivalence=True)
    eq = data.equivalence
    empty = [vec for vecs in (eq.phi_vecs(1), eq.phi_vecs(2), eq.theta_vecs(2))
             for vec in vecs if not vec]
    assert len(empty) == 1984 and all(vec is empty[0] for vec in empty)
    with pytest.raises(TypeError):
        empty[0][0] = 1
    args = argparse.Namespace(output=str(tmp_path / "eq.json"))
    tracemalloc.start()
    try:
        _emit(args, reduced_to_json(data, equivalence=eq))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20 / 8


def test_bench_emits_growing_sizes(capsys):
    code, out, _ = run_cli(capsys, "bench", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 7
    sizes = [row["n"] for row in doc["interval"]]
    assert sizes == sorted(sizes) and len(sizes) == 4
    assert len(set(sizes)) == 4
    assert all(row["seconds"] >= 0 for row in doc["interval"] + doc["torus"])
    torus_sizes = [row["n"] for row in doc["torus"]]
    assert torus_sizes == sorted(torus_sizes) and len(torus_sizes) == 3


@pytest.mark.skipif(shutil.which("scythe") is None,
                    reason="console script not on PATH")
def test_console_script(data_dir):
    proc = subprocess.run(
        ["scythe", "compute", str(data_dir / "torus.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"betti": [1, 2, 1]}


def test_cli_digests_match_the_committed_listing():
    # a change that alters CLI bytes on purpose edits tests/cli_digests.txt
    root = pathlib.Path(__file__).resolve().parent.parent
    src = str(pathlib.Path(scythe.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "cli_digests.py")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    want = (root / "tests" / "cli_digests.txt").read_text().splitlines()
    assert proc.stdout.splitlines() == want
