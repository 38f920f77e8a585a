import random
import re
from fractions import Fraction

import pytest

import scythe.parametrization

from scythe.cohomology import (
    _coboundary_rows,
    betti,
    class_coordinates,
    cocycle_basis,
    CohomologyProfile,
    induced_map,
    sheaf_cohomology,
)
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
    torus_grid,
    torus_reeb,
)
from scythe.cw import subcomplex
from scythe.errors import InvalidSheafData, SolveFailed, UnknownCell
from scythe.field import RATIONAL, fp
from scythe.matrix import Matrix, mat_mul, matvec
from scythe.parametrization import CochainComplex, Layout, Parametrization
from scythe.sheaf import (
    compile_sheaf,
    constant_sheaf,
    pushforward_constant,
    skyscraper_sheaf,
)

from oracles import (
    coboundary_grid,
    dense_coboundary,
    ref_betti,
    ref_class_coordinates,
    ref_d_squared_witnesses,
)
from randgen import random_parametrization, random_simplicial

CASES = [
    (point, [1]),
    (interval, [1, 0]),
    (circle, [1, 1]),
    (filled_triangle, [1, 0, 0]),
    (theta_graph, [1, 2]),
    (lambda: path_complex(6), [1, 0]),
    (lambda: circle_subdivided(5), [1, 1]),
    (lambda: torus_grid(3, 3), [1, 2, 1]),
    (genus2_surface, [1, 4, 1]),
]


@pytest.mark.parametrize("make,expected", CASES)
def test_constant_matches_ordinary_cohomology(make, expected):
    cx = compile_sheaf(constant_sheaf(make())).assemble()
    assert betti(cx).betti == expected
    assert ref_betti(cx) == expected


def test_skyscraper_concentrates_at_cell_dimension():
    t = torus_grid(2, 3)
    for cell in t.cells():
        prof = sheaf_cohomology(skyscraper_sheaf(t, cell), reduce_first=False)
        want = [0, 0, 0]
        want[t.dim(cell)] = 1
        assert prof.betti == want


def test_pushforward_computes_subcomplex_cohomology():
    t = torus_grid(3, 4)
    ring = {c for c in t.cells()
            if c[0] in "vw" and c[3:5] == "00"}
    prof = sheaf_cohomology(pushforward_constant(t, ring), reduce_first=False)
    assert prof.betti == [1, 1, 0]
    direct = betti(compile_sheaf(constant_sheaf(subcomplex(t, ring))).assemble())
    assert prof.betti[:2] == direct.betti


def test_profile_equality_and_json():
    p = CohomologyProfile([1, 2])
    assert p == CohomologyProfile([1, 2])
    assert p != CohomologyProfile([1, 2, 1])
    assert p.to_json() == {"betti": [1, 2]}
    assert repr(p) == "CohomologyProfile([1, 2])"  # printed by a failed ==
    g = betti(compile_sheaf(constant_sheaf(circle())).assemble(), generators=True)
    j = g.to_json()
    assert set(j) == {"betti", "generators"}
    assert j["generators"]["1"]


def test_generators_are_independent_cocycles():
    cx = compile_sheaf(constant_sheaf(torus_grid(3, 3))).assemble()
    prof = betti(cx, generators=True)
    for n, m in prof.generators.items():
        assert m.cols == prof.betti[n]
        if n < cx.top:
            assert mat_mul(dense_coboundary(cx, n), m).is_zero()
        for j in range(m.cols):
            coords = class_coordinates(cx, m.column(j), n)
            assert coords[j] == cx.field.one


def test_parametrization_refuses_maps_that_do_not_square_to_zero():
    # identity on every cover with no incidence signs: each vertex reaches
    # the face along two edges, and the two paths add up to 2; were it
    # built, a sweep would pair (v, uv), (w, uw), (vw, f) and leave [1, 0, 0]
    tri = filled_triangle()
    one = Matrix.identity(RATIONAL, 1)
    ranks = {c: 1 for c in tri.cells()}
    maps = {pair: one for pair in tri.incidence}
    want = [(0, "f", "u"), (0, "f", "v"), (0, "f", "w")]
    assert ref_d_squared_witnesses(scythe.parametrization._built(
        RATIONAL, dict(tri.poset.dims), ranks, maps).assemble()) == want
    with pytest.raises(InvalidSheafData,
                       match=re.escape("blocks: %r" % (want,)) + "$"):
        Parametrization(RATIONAL, tri.poset, ranks, maps)


def test_elimination_walks_no_d_squared(monkeypatch):
    # every complex comes from a Parametrization, which squares to zero
    calls = []
    walk = scythe.parametrization.d_squared_witnesses

    def counted(*args):
        calls.append(args)
        return walk(*args)

    cxs = [compile_sheaf(constant_sheaf(make(), 2)).assemble()
           for make in (circle, filled_triangle, lambda: torus_grid(3, 3))]
    monkeypatch.setattr(scythe.parametrization, "d_squared_witnesses", counted)
    for cx in cxs:
        prof = betti(cx, generators=True)
        for n in range(cx.top + 1):
            basis = cocycle_basis(cx, n)
            for j in basis.flagged:
                class_coordinates(cx, basis.matrix.column(j), n)
            assert induced_map(cx, cx, None, n).rows == prof.betti[n]
    assert calls == []


@pytest.mark.parametrize("field", [RATIONAL, fp(5)], ids=["Q", "F5"])
def test_unreduced_betti_equals_reduced_on_large_tori(field):
    # elimination on the unreduced complex against the sweep first
    for k in (16, 24):
        sheaf = constant_sheaf(torus_grid(k, k), 1, field)
        assert sheaf_cohomology(sheaf, reduce_first=False).betti == \
            sheaf_cohomology(sheaf).betti == [1, 2, 1]


def test_class_coordinates_rejects_non_cocycles():
    cx = compile_sheaf(constant_sheaf(filled_triangle())).assemble()
    vec = [cx.field.one] + [cx.field.zero] * (cx.rank_c(1) - 1)
    assert not matvec(dense_coboundary(cx, 1), vec) == \
        [cx.field.zero] * cx.rank_c(2)
    with pytest.raises(SolveFailed):
        class_coordinates(cx, vec, 1)


def test_coboundary_of_anything_has_zero_class():
    cx = compile_sheaf(constant_sheaf(torus_grid(2, 3))).assemble()
    f = cx.field
    rng = random.Random(3)
    for _ in range(5):
        v0 = [f.from_int(rng.randint(-3, 3)) for _ in range(cx.rank_c(0))]
        db = matvec(dense_coboundary(cx, 0), v0)
        coords = class_coordinates(cx, db, 1)
        assert all(c == f.zero for c in coords)


def _class_complexes():
    """Constant sheaves on the fixtures and seeded random parametrizations,
    assembled, over Q and F5."""
    for field in (RATIONAL, fp(5)):
        for make, _ in CASES:
            yield compile_sheaf(constant_sheaf(make(), 1, field)).assemble()
        yield compile_sheaf(constant_sheaf(torus_grid(2, 3), 2, field)).assemble()
    rng = random.Random(23)
    for trial in range(20):
        field = fp(5) if trial % 2 else RATIONAL
        yield random_parametrization(rng, random_simplicial(rng), field).assemble()


def test_stacked_coboundaries_match_reference_grids():
    # the eliminator reads the rows of d^n from the covering-pair blocks;
    # the oracle stacks the same blocks on its own, one degree past each
    # end too, and every entry keeps its type
    for cx in _class_complexes():
        for n in range(-1, cx.top + 2):
            rows = _coboundary_rows(cx, n)
            height, width = cx.rank_c(n + 1), cx.rank_c(n)
            assert all(0 <= i < height and 0 <= j < width
                       for i, row in rows.items() for j in row)
            stacked = [[rows.get(i, {}).get(j, 0) for j in range(width)]
                       for i in range(height)]
            assert repr(stacked) == repr(coboundary_grid(cx, n))


def test_rows_hold_only_the_nonzero_entries():
    # a rank-3 identity block puts one entry in each of its rows, not three
    cx = compile_sheaf(constant_sheaf(circle_subdivided(4), 3)).assemble()
    rows = _coboundary_rows(cx, 0)
    assert len(rows) == 12
    assert all(len(row) == 2 and all(row.values()) for row in rows.values())
    # a stored zero of another type than the field's zero stays, as a
    # computed one does in elimination
    block = Matrix(RATIONAL, 1, 3, [[Fraction(0), 1, 0]])
    cx = CochainComplex(RATIONAL, {0: Layout([("a", 3)]), 1: Layout([("e", 1)])},
                        {("a", "e"): block})
    assert repr(_coboundary_rows(cx, 0)) == repr({0: {0: Fraction(0), 1: 1}})


def test_class_coordinates_match_reference_solve():
    # a kernel combination plus a coboundary, solved for against
    # [d^{n-1} | flagged representatives] by plain elimination
    rng = random.Random(17)
    checked = nonzero = 0
    for cx in _class_complexes():
        f = cx.field
        for n in range(cx.top + 1):
            basis = cocycle_basis(cx, n)
            reps = [basis.matrix.column(j) for j in basis.flagged]
            vecs = []
            for _ in range(3):
                vec = [f.zero] * cx.rank_c(n)
                if n > 0:
                    below = [f.from_int(rng.randint(-2, 2))
                             for _ in range(cx.rank_c(n - 1))]
                    vec = matvec(dense_coboundary(cx, n - 1), below)
                for j in range(basis.matrix.cols):
                    c = f.from_int(rng.randint(-2, 2))
                    vec = [f.add(v, f.mul(c, k))
                           for v, k in zip(vec, basis.matrix.column(j))]
                vecs.append(vec)
            want = ref_class_coordinates(cx, reps, vecs, n, f.p)
            for vec, coords in zip(vecs, want):
                assert class_coordinates(cx, vec, n) == coords
                checked += 1
                nonzero += any(coords)
    assert checked > 300 and nonzero > 100


def test_induced_map_identity_inclusion():
    t = torus_grid(2, 3)
    cx = compile_sheaf(constant_sheaf(t)).assemble()
    m = induced_map(cx, cx, None, 1)
    assert m.data == Matrix.identity(cx.field, m.rows).data


def test_induced_map_circle_into_annulus():
    t = torus_grid(3, 4)
    annulus = {c for c in t.cells()
               if c[0] in "vw" and c[3:5] in ("00", "01")
               or c[0] in "hq" and c[3:5] == "00"}
    ring = {c for c in t.cells() if c[0] in "vw" and c[3:5] == "00"}
    big = compile_sheaf(constant_sheaf(subcomplex(t, annulus))).assemble()
    small = compile_sheaf(constant_sheaf(subcomplex(t, ring))).assemble()
    m = induced_map(big, small, None, 1)
    # inclusion of the boundary circle into the annulus is an H^1 iso
    assert m.rows == 1 and m.cols == 1
    assert m.data[0][0] != big.field.zero


def test_induced_map_refuses_an_embedding_that_does_not_fit():
    line = compile_sheaf(constant_sheaf(circle())).assemble()
    plane = compile_sheaf(constant_sheaf(circle(), 2)).assemble()
    names = dict.fromkeys(line.layout(0).cells, "zz")
    with pytest.raises(UnknownCell,
                       match=r"^embedding target 'zz' missing at dimension 0$"):
        induced_map(line, line, names, 0)
    with pytest.raises(SolveFailed,
                       match=r"^stalk ranks differ across the embedding at "):
        induced_map(plane, line, None, 0)


# H^n(vertex fiber) -> H^n(edge fiber) on every cover of the shipped Reeb
# graphs, for n = 0, 1, 2, as matrix JSON; pinned, and the same over Q and F5
REEB_INDUCED = {
    "genus2": {
        ("gb", "ge0"): [[["1"]], [[]], []],
        ("gs1", "ge0"): [[["1"]], [["1", "1"]], []],
        ("gs1", "gea"): [[["1"]], [["1", "0"]], []],
        ("gs1", "geb"): [[["1"]], [["0", "1"]], []],
        ("gs2", "ge1"): [[["1"]], [["1", "1"]], []],
        ("gs2", "gea"): [[["1"]], [["1", "0"]], []],
        ("gs2", "geb"): [[["1"]], [["0", "1"]], []],
        ("gs3", "ge1"): [[["1"]], [["1", "1"]], []],
        ("gs3", "gec"): [[["1"]], [["1", "0"]], []],
        ("gs3", "ged"): [[["1"]], [["0", "1"]], []],
        ("gs4", "ge2"): [[["1"]], [["1", "1"]], []],
        ("gs4", "gec"): [[["1"]], [["1", "0"]], []],
        ("gs4", "ged"): [[["1"]], [["0", "1"]], []],
        ("gt", "ge2"): [[["1"]], [[]], []],
    },
    "torus": {
        ("u0", "a0"): [[["1"]], [["1"]], []],
        ("u0", "a2"): [[["1"]], [["1"]], []],
        ("u1", "a0"): [[["1"]], [["1"]], []],
        ("u1", "a1"): [[["1"]], [["1"]], []],
        ("u2", "a1"): [[["1"]], [["1"]], []],
        ("u2", "a2"): [[["1"]], [["1"]], []],
    },
}


@pytest.mark.parametrize("name,make", [("genus2", genus2_reeb),
                                       ("torus", torus_reeb)])
def test_induced_maps_on_reeb_fibers_are_pinned(name, make):
    surface, graph, fibers = make()
    for field in (RATIONAL, fp(5)):
        cx = {c: compile_sheaf(constant_sheaf(subcomplex(surface, cells), 1,
                                              field)).assemble()
              for c, cells in fibers.items()}
        got = {(s, t): [induced_map(cx[s], cx[t], None, n).to_json()
                        for n in range(3)]
               for s, t in graph.poset.covers()}
        assert got == REEB_INDUCED[name]


def test_betti_against_reference_on_random_instances():
    rng = random.Random(99)
    for trial in range(30):
        base = random_simplicial(rng)
        field = RATIONAL if trial % 2 else fp(5)
        p = None if trial % 2 else 5
        param = random_parametrization(rng, base, field)
        cx = param.assemble()
        assert betti(cx).betti == ref_betti(cx, p)


def test_euler_characteristic_consistency():
    rng = random.Random(41)
    for _ in range(20):
        base = random_simplicial(rng)
        param = random_parametrization(rng, base, RATIONAL)
        cx = param.assemble()
        prof = betti(cx)
        chi_cells = sum((-1) ** n * cx.rank_c(n) for n in range(cx.top + 1))
        chi_betti = sum((-1) ** n * b for n, b in enumerate(prof.betti))
        assert chi_cells == chi_betti
