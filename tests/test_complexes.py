import importlib.util
import pathlib

import pytest

from scythe.cohomology import betti, sheaf_cohomology
from scythe.complexes import (
    circle,
    circle_subdivided,
    filled_triangle,
    genus2_reeb,
    genus2_surface,
    interval,
    path_complex,
    point,
    theta_graph,
    three_arc_cover_cells,
    torus_grid,
    torus_reeb,
    torus_reeb_fine,
    two_arc_cover_cells,
)
from scythe.field import fp
from scythe.nerve import validate_fibers
from scythe.sheaf import compile_sheaf, constant_sheaf


def cell_counts(cw):
    out = {}
    for c in cw.cells():
        out[cw.dim(c)] = out.get(cw.dim(c), 0) + 1
    return out


def test_small_fixtures():
    assert cell_counts(point()) == {0: 1}
    assert cell_counts(interval()) == {0: 2, 1: 1}
    assert cell_counts(circle()) == {0: 2, 1: 2}
    assert cell_counts(filled_triangle()) == {0: 3, 1: 3, 2: 1}
    assert cell_counts(theta_graph()) == {0: 2, 1: 3}
    assert cell_counts(path_complex(4)) == {0: 5, 1: 4}
    assert cell_counts(circle_subdivided(7)) == {0: 7, 1: 7}


def test_torus_grid_counts():
    t = torus_grid(3, 6)
    assert cell_counts(t) == {0: 18, 1: 36, 2: 18}


def test_genus2_counts_and_characteristic():
    g = genus2_surface()
    counts = cell_counts(g)
    assert counts == {0: 70, 1: 152, 2: 80}
    assert counts[0] - counts[1] + counts[2] == -2


def test_genus2_is_closed_surface():
    g = genus2_surface()
    # every edge bounds exactly two 2-cells and joins exactly two vertices
    for c in g.cells():
        if g.dim(c) == 1:
            assert len(g.poset.x_plus(c)) == 2
            assert len(g.poset.x_minus(c)) == 2


def test_genus2_orientable():
    # H^2 over F_2 and over Q both rank 1 exactly when orientable and closed
    g = genus2_surface()
    assert sheaf_cohomology(constant_sheaf(g)).betti == [1, 4, 1]
    assert sheaf_cohomology(constant_sheaf(g, 1, fp(2))).betti == [1, 4, 1]


def test_genus2_fibers_valid():
    surface, graph, fibers = genus2_reeb()
    checked = validate_fibers(surface, graph, fibers)
    assert set(checked) == set(graph.cells())
    covered = set()
    for cells in checked.values():
        covered |= cells
    assert covered == set(surface.cells())
    assert cell_counts(graph) == {0: 6, 1: 7}
    # double theta: two loops meeting the 4 saddle nodes
    assert betti(compile_sheaf(constant_sheaf(graph)).assemble()).betti == [1, 2]


def test_torus_reeb_fibers_valid():
    for make in (torus_reeb, torus_reeb_fine):
        surface, graph, fibers = make()
        checked = validate_fibers(surface, graph, fibers)
        covered = set()
        for cells in checked.values():
            covered |= cells
        assert covered == set(surface.cells())
        assert betti(compile_sheaf(constant_sheaf(graph)).assemble()).betti == [1, 1]


def test_cover_fixture_cells():
    cw, raw = two_arc_cover_cells()
    pieces = dict(raw)
    assert set(pieces) == {"A", "B"}
    assert set(pieces["A"]) & set(pieces["B"]) == {"v00", "v04"}
    union = set(pieces["A"]) | set(pieces["B"])
    assert union == set(cw.cells())

    cw3, raw3 = three_arc_cover_cells()
    pieces3 = dict(raw3)
    assert set(pieces3) == {"A", "B", "C"}
    for a, b, common in (("A", "B", {"v02"}), ("B", "C", {"v04"}),
                         ("A", "C", {"v00"})):
        assert set(pieces3[a]) & set(pieces3[b]) == common


def test_shipped_fixtures_are_what_their_builders_write(tmp_path, monkeypatch,
                                                        capsys):
    # scripts/generate_data.py writes src/scythe/data from these builders,
    # and tests/cli_digests.txt hashes CLI runs over its files
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "generate_data", root / "scripts" / "generate_data.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    capsys.readouterr()
    shipped = root / "src" / "scythe" / "data"
    names = sorted(p.name for p in shipped.iterdir() if p.suffix == ".json")
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        written = (tmp_path / name).read_bytes()
        assert written == (shipped / name).read_bytes(), name
