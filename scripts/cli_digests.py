"""Print the sha256 of the output and the exit code of a fixed matrix of CLI runs.

Each line is `sha256 exit-code argv`, with fixture paths written as their
file names, so two checkouts compare with one diff:

    PYTHONPATH=src python scripts/cli_digests.py > after.txt
    PYTHONPATH=../old/src python scripts/cli_digests.py > before.txt
    diff before.txt after.txt

The commands run in-process over the fixtures shipped in scythe/data and
over a few malformed documents, complex documents that break one poset or
sign check each, two compiled documents whose maps do not square to zero,
a filled triangle with the reduced document `reduce` writes for it,
a cover whose nerve is too big, two fiber assignments over the torus
that are not face-closed, one whose fibers overlap and so do not present
the torus (refused), a twisted sheaf on the torus whose blocks are not
all invertible, and two sheaves on the torus in changed stalk bases
(rank 2 over Q with non-integral inverted blocks, rank 3 over F7), an
empty complex with two fiber assignments over it (one vertex with an
empty fiber, and an empty graph), which leray and validate --base also
read over the torus, and two fiber assignments over circle6.json that do
not present it (a wedge of two circles and a loop edge, refused), written
to a temporary directory.  A run that succeeds has its stdout hashed; the
stderr run report of `reduce` carries wall times and appears only on
success.  A run that fails has stdout and its one-line stderr message
hashed, so error text is covered.
"""

import contextlib
import copy
import hashlib
import io
import json
import pathlib
import tempfile

import scythe
from scythe import (RATIONAL, CellularSheaf, Matrix, constant_sheaf, fp,
                    mat_mul, skyscraper_sheaf, try_invert)
from scythe.cli import main
from scythe.serialize import dumps, parse, sheaf_to_json

DATA = pathlib.Path(scythe.__file__).resolve().parent / "data"

COMPLEXES = ["circle6.json", "circle8.json", "torus.json", "genus2_surface.json"]
COVERS = [("circle6.json", "three_arc_cover.json"),
          ("circle8.json", "two_arc_cover.json")]
FIBERINGS = [("torus.json", "torus_reeb.json"),
             ("genus2_surface.json", "genus2_reeb.json")]

# coefficient variants crossed with every compute and reduce mode
COEFFICIENTS = [[], ["--field", "fp:5"], ["--field", "fp:2"],
                ["--sheaf", "constant:2"], ["--sheaf", "constant:3"]]
COMPUTE_MODES = [[], ["--lift"], ["--generators"], ["--no-reduce"],
                 ["--iterate"], ["--iterate", "--lift"]]
REDUCE_MODES = [[], ["--equivalence"], ["--iterate"], ["--policy", "relaxed"],
                ["--equivalence", "--iterate", "--policy", "relaxed"]]
PIPELINE_FLAGS = [[], ["--field", "fp:5"], ["--field", "fp:2"],
                  ["--no-reduce"], ["--workers", "8"]]

# a small valid sheaf document and edits that each break one reader check
SHEAF = {"kind": "sheaf",
         "cells": [{"id": "a", "dim": 0, "rank": 1},
                   {"id": "b", "dim": 0, "rank": 1},
                   {"id": "e", "dim": 1, "rank": 1}],
         "covers": [{"from": "a", "to": "e", "incidence": -1, "map": [["1"]]},
                    {"from": "b", "to": "e", "incidence": 1, "map": [["1"]]}]}
MALFORMED = {
    "bad_map_type.json": (("covers", 1, "map"), "1"),
    "bad_map_row.json": (("covers", 1, "map"), [[]]),
    "bad_map_float.json": (("covers", 1, "map"), [[1.5]]),
    "bad_map_zero_denominator.json": (("covers", 1, "map"), [["1/0"]]),
    "bad_rank_bool.json": (("cells", 2, "rank"), True),
    "bad_dim_float.json": (("cells", 2, "dim"), 1.0),
    "bad_id_list.json": (("cells", 1, "id"), ["b"]),
    "bad_endpoint.json": (("covers", 1, "from"), "zz"),
    "bad_incidence.json": (("covers", 1, "incidence"), 2),
    "bad_cells_object.json": (("cells",), {"a": 0}),
    "bad_covers_null.json": (("covers",), None),
}

# a triangle complex a, b, c < ab, bc, ac < f and edits that each break one
# check of its cells, covers or signs: the reader's poset checks and the CW
# sign identity, reported for complex documents
TRIANGLE = {"kind": "complex",
            "cells": [{"id": c, "dim": d} for c, d in (
                ("a", 0), ("b", 0), ("c", 0), ("ab", 1), ("bc", 1), ("ac", 1),
                ("f", 2))],
            "covers": [{"from": s, "to": t, "incidence": i} for s, t, i in (
                ("a", "ab", -1), ("b", "ab", 1), ("b", "bc", -1),
                ("c", "bc", 1), ("a", "ac", -1), ("c", "ac", 1),
                ("ab", "f", 1), ("bc", "f", 1), ("ac", "f", -1))]}
POSET_FAULTS = {
    "bad_duplicate_id.json":
        lambda doc: doc["cells"].append({"id": "a", "dim": 0}),
    "bad_dangling_endpoint.json":
        lambda doc: doc["covers"][0].update({"from": "zz"}),
    "bad_nongraded_cover.json":
        lambda doc: doc["covers"].append(
            {"from": "a", "to": "f", "incidence": 1}),
    "bad_sign_identity.json":
        lambda doc: doc["covers"][6].update(incidence=-1),
}

# a compiled document of a square a < x, y < f with +1 on every cover and
# every map [["1"]]: every block is an identity, yet d^2 from a to f is 2,
# so compute and validate must exit 2 naming the block (0, 'f', 'a')
SQUARE = "bad_square_parametrization.json"
SQUARE_DOC = {
    "kind": "parametrization",
    "cells": [{"id": c, "dim": d, "rank": 1}
              for c, d in (("a", 0), ("x", 1), ("y", 1), ("f", 2))],
    "covers": [{"from": s, "to": t, "incidence": 1, "map": [["1"]]}
               for s, t in (("a", "x"), ("a", "y"), ("x", "f"), ("y", "f"))]}

# twelve identical whole-circle pieces of circle8.json: the nerve is an
# 11-simplex, so cech exits 3 with the NerveTooBig text
DEEP_COVER = "deep_cover.json"
CIRCLE8_CELLS = ["%s%02d" % (kind, i) for kind in "ve" for i in range(8)]
# torus_reeb.json with one fiber that is not face-closed: leray and
# validate --base exit 2 naming the unknown cell or the dropped face
FIBER_FAULTS = {
    "bad_fiber_unknown_cell.json":
        lambda fibers: fibers["u0"].append("zz"),
    "bad_fiber_dropped_face.json":
        lambda fibers: fibers["a0"].remove("v0001"),
}
# torus_reeb.json with every vertex fiber the whole torus and a2 widened to
# a0 | a2, so the edge fibers a0 and a2 overlap at u0: its diagram is not
# the torus, so leray and validate --base refuse it with exit 3
OVERLAP = "overlapping_fibers.json"
# the constant line plus a skyscraper at TWISTED_CELL on torus.json, each
# rank-2 stalk conjugated by the transvection [[1, 1], [0, 1]]: its blocks
# at TWISTED_CELL are not invertible, so the sweeps leave pairs behind that
# a constant sheaf would take, and the two policies part
TWISTED = "twisted_torus_sheaf.json"
TWISTED_CELL = "w0001"
TWISTED_RUNS = [["compute"], ["compute", "--lift"], ["reduce"],
                ["reduce", "--equivalence"], ["reduce", "--policy", "relaxed"],
                ["reduce", "--equivalence", "--iterate", "--policy", "relaxed"]]
# TRIANGLE itself, and the reduced document `reduce` writes for it: its
# one surviving vertex is of a complex of top degree 2, so compute on it
# prints three Betti numbers
FILLED = "filled_triangle.json"
FILLED_REDUCED = "filled_triangle_reduced.json"
# TRIANGLE as a compiled document with +1 and [["1"]] on every cover: each
# vertex reaches f along two edges, so d^2 fails at (a, f), (b, f), (c, f)
UNSIGNED = "unsigned_triangle_parametrization.json"
# the constant sheaf on torus.json in stalk bases that change from cell to
# cell: rank 2 over Q with bases [[a, 1], [0, b]] for a, b in 1..3, so the
# inverted blocks and the equivalence hold entries like "-2/3", and rank 3
# over F7 with unitriangular bases scaled by a unit
FRACTIONAL = "fractional_torus_sheaf.json"
RANK3_F7 = "rank3_f7_torus_sheaf.json"
REBASED_RUNS = [["reduce", "--equivalence"], ["compute", "--lift"]]
# a complex with no cells, and fibers over it on a one-vertex graph and on
# the empty graph: reduce --equivalence writes no degree, and leray's
# estimate has no fiber to take the largest of and no direct cost
EMPTY = "empty_complex.json"
EMPTY_FIBERS = {
    "empty_fiber_over_vertex.json": ([{"id": "a", "dim": 0}], {"a": []}),
    "empty_graph_fibers.json": ([], {}),
}
# circle6.json over two vertices whose fibers are the whole circle, joined
# by an edge with fiber v00 (a wedge of two circles), and over one vertex
# with the whole circle and a loop edge with fiber v00: neither presents
# the circle, so leray and validate --base exit 3
CIRCLE6_CELLS = ["%s%02d" % (kind, i) for kind in "ev" for i in range(6)]
UNPRESENTED = {
    "wedge_fibers.json": (
        [("u0", 0), ("u1", 0), ("a", 1)], [("u0", "a", -1), ("u1", "a", 1)],
        {"u0": CIRCLE6_CELLS, "u1": CIRCLE6_CELLS, "a": ["v00"]}),
    "loop_fibers.json": (
        [("u", 0), ("a", 1)], [("u", "a", 1)],
        {"u": CIRCLE6_CELLS, "a": ["v00"]}),
}
WRITTEN = {DEEP_COVER, SQUARE, OVERLAP, TWISTED, FILLED, FILLED_REDUCED,
           UNSIGNED, FRACTIONAL, RANK3_F7, EMPTY, *MALFORMED, *POSET_FAULTS,
           *FIBER_FAULTS, *EMPTY_FIBERS, *UNPRESENTED}


def commands():
    for name in COMPLEXES:
        for coeff in COEFFICIENTS:
            for mode in COMPUTE_MODES:
                yield ["compute", name, *mode, *coeff]
            for mode in REDUCE_MODES:
                yield ["reduce", name, *mode, *coeff]
        yield ["validate", name]
    for base, cover in COVERS:
        yield ["validate", cover, "--base", base]
        yield ["validate", cover]  # exits 2: a cover needs --base
        yield ["nerve", base, cover]
        for flags in PIPELINE_FLAGS:
            yield ["cech", base, cover, *flags]
    for base, fibers in FIBERINGS:
        yield ["validate", fibers, "--base", base]
        yield ["validate", fibers]
        for flags in PIPELINE_FLAGS:
            yield ["leray", base, fibers, *flags]
    # failures: a composite modulus, an unknown --sheaf spec
    yield ["compute", "torus.json", "--field", "fp:4"]
    yield ["compute", "circle8.json", "--sheaf", "nonsense"]
    for name in MALFORMED:
        yield ["compute", name]
        yield ["validate", name]
    yield ["cech", "circle8.json", DEEP_COVER]
    yield ["compute", SQUARE]
    yield ["validate", SQUARE]
    for name in POSET_FAULTS:
        yield ["compute", name]
        yield ["validate", name]
    for name in FIBER_FAULTS:
        yield ["leray", "torus.json", name]
        yield ["validate", name, "--base", "torus.json"]
    for flags in ([], ["--field", "fp:2"], ["--no-reduce"]):
        yield ["leray", "torus.json", OVERLAP, *flags]
    yield ["validate", OVERLAP, "--base", "torus.json"]
    for command, *flags in TWISTED_RUNS:
        yield [command, TWISTED, *flags]
    yield ["reduce", FILLED]
    yield ["compute", FILLED_REDUCED]
    yield ["compute", UNSIGNED]
    for name in (FRACTIONAL, RANK3_F7):
        for command, *flags in REBASED_RUNS:
            yield [command, name, *flags]
    yield ["reduce", FILLED, "--equivalence"]
    yield ["reduce", EMPTY, "--equivalence"]
    for name in EMPTY_FIBERS:
        yield ["leray", EMPTY, name]
    # the same fibers over the torus miss every cell: exit 3
    for name in EMPTY_FIBERS:
        yield ["leray", "torus.json", name]
        yield ["validate", name, "--base", "torus.json"]
    for name in UNPRESENTED:
        yield ["leray", "circle6.json", name]
        yield ["validate", name, "--base", "circle6.json"]


def twisted_sheaf(base):
    """constant_sheaf(base) plus skyscraper_sheaf(base, TWISTED_CELL),
    block by block, with every stalk of rank 2 conjugated by the integer
    transvection T = [[1, 1], [0, 1]]: F_st becomes T_t . F_st . T_s^-1."""
    line = constant_sheaf(base)
    sky = skyscraper_sheaf(base, TWISTED_CELL)
    field = line.field
    stalks = {c: line.stalk_rank[c] + sky.stalk_rank[c] for c in base.cells()}

    def basis(c, shear):
        if stalks[c] == 2:
            return Matrix.from_rows(field, [[1, shear], [0, 1]])
        return Matrix.identity(field, stalks[c])

    maps = {}
    for (s, t), a in line.restriction.items():
        b = sky.restriction[(s, t)]
        rows = ([row + [0] * b.cols for row in a.data]
                + [[0] * a.cols + row for row in b.data])
        block = Matrix.from_rows(field, rows)
        maps[(s, t)] = mat_mul(basis(t, 1), mat_mul(block, basis(s, -1)))
    return CellularSheaf(base, field, stalks, maps)


def rebased_sheaf(base, rank, field, basis):
    """constant_sheaf(base, rank, field) with F_st become B_t . F_st . B_s^-1,
    where basis(i) gives B_c as integer rows for the i-th cell of base in
    sorted-id order."""
    sheaf = constant_sheaf(base, rank, field)
    bases = {c: Matrix.from_rows(field, basis(i))
             for i, c in enumerate(sorted(base.cells()))}
    maps = {(s, t): mat_mul(bases[t], mat_mul(m, try_invert(bases[s])))
            for (s, t), m in sheaf.restriction.items()}
    return CellularSheaf(base, field, sheaf.stalk_rank, maps)


def fractional_basis(i):
    return [[1 + i % 3, 1], [0, 1 + i // 3 % 3]]


def rank3_basis(i):
    unit = 1 + i % 6
    return [[unit, i % 7, 0], [0, 1, (i + 3) % 7], [0, 0, 1]]


def write_documents(directory):
    for name, (path, value) in MALFORMED.items():
        doc = copy.deepcopy(SHEAF)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")
    for name, edit in POSET_FAULTS.items():
        doc = copy.deepcopy(TRIANGLE)
        edit(doc)
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")
    (directory / SQUARE).write_text(json.dumps(SQUARE_DOC), encoding="utf-8")
    pieces = [{"name": "P%02d" % i, "cells": CIRCLE8_CELLS} for i in range(12)]
    (directory / DEEP_COVER).write_text(
        json.dumps({"kind": "cover", "pieces": pieces}), encoding="utf-8")
    reeb = json.loads((DATA / "torus_reeb.json").read_text(encoding="utf-8"))
    for name, edit in FIBER_FAULTS.items():
        doc = copy.deepcopy(reeb)
        edit(doc["fibers"])
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")
    torus = json.loads((DATA / "torus.json").read_text(encoding="utf-8"))
    doc = copy.deepcopy(reeb)
    fibers = doc["fibers"]
    for vertex in ("u0", "u1", "u2"):
        fibers[vertex] = [cell["id"] for cell in torus["cells"]]
    fibers["a2"] = sorted(set(fibers["a0"]) | set(fibers["a2"]))
    (directory / OVERLAP).write_text(json.dumps(doc), encoding="utf-8")
    (directory / TWISTED).write_text(
        dumps(sheaf_to_json(twisted_sheaf(parse(torus)))), encoding="utf-8")
    (directory / FILLED).write_text(json.dumps(TRIANGLE), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        main(["reduce", str(directory / FILLED)])
    (directory / FILLED_REDUCED).write_text(out.getvalue(), encoding="utf-8")
    unsigned = {"kind": "parametrization",
                "cells": [dict(cell, rank=1) for cell in TRIANGLE["cells"]],
                "covers": [dict(cover, incidence=1, map=[["1"]])
                           for cover in TRIANGLE["covers"]]}
    (directory / UNSIGNED).write_text(json.dumps(unsigned), encoding="utf-8")
    base = parse(torus)
    for name, sheaf in (
            (FRACTIONAL, rebased_sheaf(base, 2, RATIONAL, fractional_basis)),
            (RANK3_F7, rebased_sheaf(base, 3, fp(7), rank3_basis))):
        (directory / name).write_text(dumps(sheaf_to_json(sheaf)),
                                      encoding="utf-8")
    (directory / EMPTY).write_text(
        json.dumps({"kind": "complex", "cells": [], "covers": []}),
        encoding="utf-8")
    for name, (cells, fibers) in EMPTY_FIBERS.items():
        graph = {"kind": "complex", "cells": cells, "covers": []}
        (directory / name).write_text(
            json.dumps({"kind": "fibers", "graph": graph, "fibers": fibers}),
            encoding="utf-8")
    for name, (cells, covers, fibers) in UNPRESENTED.items():
        graph = {"kind": "complex",
                 "cells": [{"id": c, "dim": d} for c, d in cells],
                 "covers": [{"from": s, "to": t, "incidence": i}
                            for s, t, i in covers]}
        (directory / name).write_text(
            json.dumps({"kind": "fibers", "graph": graph, "fibers": fibers}),
            encoding="utf-8")


def run(argv, scratch):
    resolved = [str((scratch if a in WRITTEN else DATA) / a)
                if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    text = out.getvalue()
    if code != 0:
        text += err.getvalue()
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), code


def report():
    with tempfile.TemporaryDirectory() as tmp:
        scratch = pathlib.Path(tmp)
        write_documents(scratch)
        for argv in commands():
            digest, code = run(argv, scratch)
            print(digest, code, " ".join(argv), flush=True)


if __name__ == "__main__":
    report()
