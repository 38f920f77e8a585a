import importlib
import itertools
import random
import time

import pytest

from oracles import ref_degree_sheaf
from randgen import random_face_closed, random_simplicial
from scythe.cohomology import (
    betti,
    class_coordinates,
    cocycle_basis,
    sheaf_cohomology,
)
from scythe.complexes import (
    circle_subdivided,
    filled_triangle,
    genus2_reeb,
    interval,
    three_arc_cover_cells,
    torus_grid,
    torus_reeb,
    torus_reeb_fine,
    two_arc_cover_cells,
)
from scythe.cw import build_cw, subcomplex
from scythe.equivalence import Equivalence, lift_cocycle
from scythe.errors import (
    FiberInclusionViolated,
    FibersDoNotPresent,
    NerveTooBig,
    NotACover,
    NotASubcomplex,
    UnknownCell,
    ValidationError,
)
from scythe.field import RATIONAL, fp
from scythe.matrix import Matrix, mat_mul, try_invert
from scythe.morse import scythe
from scythe.nerve import (
    Cover,
    cech_sheaf,
    cohomology_via_cech,
    cohomology_via_leray,
    complexity_estimate,
    leray_sheaf,
    nerve,
    nerve_theorem_check,
    parallel_stalks,
    validate_fibers,
    _stalk_tables,
    _support,
)
from scythe.sheaf import compile_sheaf, constant_sheaf
import scythe.morse as morse_module

# the package's attribute nerve is the function, so the module is imported
nerve_module = importlib.import_module("scythe.nerve")


def two_arc_cover():
    cw, pieces = two_arc_cover_cells()
    return cw, Cover(cw, pieces)


def three_arc_cover():
    cw, pieces = three_arc_cover_cells()
    return cw, Cover(cw, pieces)


def test_cover_validation():
    cw = interval()
    whole = ["u", "v", "e"]
    Cover(cw, [("A", whole)])
    with pytest.raises(NotACover):
        Cover(cw, [("A|B", whole)])
    with pytest.raises(NotACover):
        Cover(cw, [("", whole)])
    with pytest.raises(NotACover):
        Cover(cw, [("A", whole), ("A", whole)])
    with pytest.raises(NotACover):
        Cover(cw, [("A", [])])
    with pytest.raises(NotACover):
        Cover(cw, [("A", ["u", "zz", "e", "v"])])
    with pytest.raises(NotACover):
        Cover(cw, [("A", ["u", "e"])])
    with pytest.raises(NotACover):
        Cover(cw, [("A", ["u"])])
    with pytest.raises(NotACover, match=r"^a cover needs at least one piece$"):
        Cover(cw, [])


def test_nerve_shapes():
    _, cov2 = two_arc_cover()
    nv2 = nerve(cov2)
    assert sorted(nv2.cw.cells()) == ["A", "A|B", "B"]
    assert nv2.dim == 1
    assert nv2.supports["A|B"] == frozenset({"v00", "v04"})
    assert nv2.cw.sign("A", "A|B") == -1
    assert nv2.cw.sign("B", "A|B") == 1

    _, cov3 = three_arc_cover()
    nv3 = nerve(cov3)
    assert sorted(nv3.cw.cells()) == ["A", "A|B", "A|C", "B", "B|C", "C"]
    assert betti(compile_sheaf(constant_sheaf(nv3.cw)).assemble()).betti == [1, 1]


def test_nerve_with_triple_overlap_is_two_dimensional():
    cw = interval()
    cov = Cover(cw, [("A", ["u", "v", "e"]), ("B", ["u"]), ("C", ["u", "v", "e"])])
    nv = nerve(cov)
    assert nv.dim == 2
    assert "A|B|C" in nv.supports
    with pytest.raises(NerveTooBig):
        cohomology_via_cech(cw, cov)


def test_cech_precondition_agrees_with_the_nerve_on_random_covers():
    base = circle_subdivided(8)
    cells = base.cells()
    rng = random.Random(12)

    def closed(chosen):
        return set(chosen).union(*(base.poset.x_minus(c) for c in chosen))

    for _ in range(40):
        pieces = [closed(rng.sample(cells, rng.randint(1, 6)))
                  for _ in range(rng.randint(1, 5))]
        pieces.append(closed(set(cells).difference(*pieces)) or pieces[0])
        cov = Cover(base, [("P%d" % i, p) for i, p in enumerate(pieces)])
        top = nerve(cov).dim
        if top > 1:
            with pytest.raises(NerveTooBig,
                               match="^nerve has a %d-simplex;" % top):
                cohomology_via_cech(base, cov)
        else:
            assert cohomology_via_cech(base, cov).betti == [1, 1]


def test_deep_cover_is_refused_before_its_nerve_is_built():
    # sixteen pieces share every cell: the nerve is a 15-simplex with
    # 2^16 - 1 faces, none of which is needed to refuse it
    base = circle_subdivided(8)
    cov = Cover(base, [("P%02d" % i, base.cells()) for i in range(16)])
    start = time.perf_counter()
    with pytest.raises(NerveTooBig) as info:
        cohomology_via_cech(base, cov)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == ("nerve has a 15-simplex; the decomposition "
                               "needs dimension <= 1")


def test_cech_sheaf_stalks_two_arc():
    _, cov = two_arc_cover()
    over = cech_sheaf(cov, 0)
    assert over.degree == 0
    assert over.sheaf.stalk_rank == {"A": 1, "B": 1, "A|B": 2}
    m = over.sheaf.restriction[("A", "A|B")]
    assert m.rows == 2 and m.cols == 1
    # degree 1: arcs and their overlap are all H^1-trivial
    over1 = cech_sheaf(cov, 1)
    assert set(over1.sheaf.stalk_rank.values()) == {0}


def test_cech_degree_zero_is_constant_for_acyclic_cover():
    _, cov = three_arc_cover()
    over = cech_sheaf(cov, 0)
    assert all(r == 1 for r in over.sheaf.stalk_rank.values())
    for m in over.sheaf.restriction.values():
        assert m.data == [[RATIONAL.one]]
    over1 = cech_sheaf(cov, 1)
    assert set(over1.sheaf.stalk_rank.values()) == {0}


def test_cech_profiles():
    cw2, cov2 = two_arc_cover()
    assert cohomology_via_cech(cw2, cov2).betti == [1, 1]
    assert cohomology_via_cech(cw2, cov2, reduce_first=False).betti == [1, 1]
    cw3, cov3 = three_arc_cover()
    assert cohomology_via_cech(cw3, cov3).betti == [1, 1]
    assert cohomology_via_cech(cw3, cov3, field=fp(5)).betti == [1, 1]


def test_cech_rejects_mismatched_complex():
    cw2, cov2 = two_arc_cover()
    with pytest.raises(NotACover):
        cohomology_via_cech(circle_subdivided(6), cov2)


def test_nerve_theorem_check_reports():
    _, cov3 = three_arc_cover()
    good = nerve_theorem_check(cov3)
    assert good.all_acyclic and good.betti_match and bool(good)
    assert good.failures == []
    assert "betti_match" in repr(good)

    _, cov2 = two_arc_cover()
    bad = nerve_theorem_check(cov2)
    assert not bad.all_acyclic
    assert bad.betti_match is None
    assert not bool(bad)
    names = [name for name, _ in bad.failures]
    assert names == ["A|B"]
    assert bad.failures[0][1].betti[0] == 2


def test_leray_fixture_profiles():
    surface, graph, fibers = genus2_reeb()
    assert cohomology_via_leray(surface, graph, fibers).betti == [1, 4, 1]
    t, tg, tf = torus_reeb()
    assert cohomology_via_leray(t, tg, tf).betti == [1, 2, 1]
    tf_, tgf, tff = torus_reeb_fine()
    assert cohomology_via_leray(tf_, tgf, tff).betti == [1, 2, 1]
    assert cohomology_via_leray(t, tg, tf, field=fp(2)).betti == [1, 2, 1]
    assert cohomology_via_leray(t, tg, tf, reduce_first=False).betti == [1, 2, 1]


def test_leray_sheaf_stalk_table():
    surface, graph, fibers = genus2_reeb()
    over0 = leray_sheaf(surface, graph, fibers, 0)
    assert all(r == 1 for r in over0.sheaf.stalk_rank.values())
    over1 = leray_sheaf(surface, graph, fibers, 1)
    ranks = over1.sheaf.stalk_rank
    # caps are disks, saddle chunks are pants, interfaces are circles
    assert ranks["gb"] == 0 and ranks["gt"] == 0
    assert all(ranks["gs%d" % i] == 2 for i in (1, 2, 3, 4))
    for cell in graph.cells():
        if graph.dim(cell) == 1:
            assert ranks[cell] == 1
    over2 = leray_sheaf(surface, graph, fibers, 2)
    assert set(over2.sheaf.stalk_rank.values()) == {0}


def test_validate_fibers_errors():
    t, tg, tf = torus_reeb()
    checked = validate_fibers(t, tg, tf)
    assert all(isinstance(v, frozenset) for v in checked.values())

    with pytest.raises(NerveTooBig):
        validate_fibers(t, filled_triangle(), {})

    missing = dict(tf)
    del missing["a0"]
    with pytest.raises(ValidationError):
        validate_fibers(t, tg, missing)

    extra = dict(tf)
    extra["zz"] = set()
    with pytest.raises(ValidationError):
        validate_fibers(t, tg, extra)

    broken = dict(tf)
    broken["a0"] = broken["a0"] | {"v0000"}
    with pytest.raises(FiberInclusionViolated):
        validate_fibers(t, tg, broken)


def test_fibers_that_miss_a_cell_are_refused():
    # the diagram of such fibers does not present X, so every entry that
    # validates them fails the precondition, naming the least missed cell
    t, tg, tf = torus_reeb()
    holed = dict(tf, u0=tf["u0"] - {"q0000", "q0100"})
    want = "no vertex fiber holds cell 'q0000' of the complex"
    for call in (lambda: validate_fibers(t, tg, holed),
                 lambda: cohomology_via_leray(t, tg, holed),
                 lambda: cohomology_via_leray(t, tg, holed, reduce_first=False),
                 lambda: leray_sheaf(t, tg, holed, 1),
                 lambda: complexity_estimate(t, tg, holed)):
        with pytest.raises(FibersDoNotPresent, match=want):
            call()
    # a fiber that is not face-closed is a validation error, and wins
    with pytest.raises(UnknownCell, match="'zzz'"):
        validate_fibers(t, tg, dict(holed, u1=tf["u1"] | {"zzz"}))


# torus_reeb fibers that present the torus by the counts but are not
# face-closed, each with the validation error every entry owes
NOT_FACE_CLOSED = {
    "unknown_cell": (lambda tf: dict(tf, u0=tf["u0"] | {"zzz"}), UnknownCell,
                     "fiber of 'u0': no cell 'zzz' in the complex"),
    "dropped_face": (lambda tf: dict(tf, u0=tf["u0"] - {"v0001"},
                                     a0=tf["a0"] - {"v0001"}),
                     NotASubcomplex,
                     "fiber of 'a0': cell 'w0001' kept but its face 'v0001'"
                     " dropped"),
}


@pytest.mark.parametrize("name", sorted(NOT_FACE_CLOSED))
def test_fibers_that_are_not_face_closed_are_refused_by_every_entry(name):
    edit, error, want = NOT_FACE_CLOSED[name]
    t, tg, tf = torus_reeb()
    fibers = edit(tf)
    for call in (lambda: validate_fibers(t, tg, fibers),
                 lambda: complexity_estimate(t, tg, fibers),
                 lambda: leray_sheaf(t, tg, fibers, 1),
                 lambda: cohomology_via_leray(t, tg, fibers),
                 lambda: cohomology_via_leray(t, tg, fibers,
                                              reduce_first=False)):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == want


def test_parallel_stalks_deterministic():
    surface, graph, fibers = genus2_reeb()
    tasks = [(fibers[c], n) for c in sorted(fibers) for n in (0, 1)]
    one = parallel_stalks(surface, tasks, workers=1)
    eight = parallel_stalks(surface, tasks, workers=8)
    assert [p.betti for p in one] == [p.betti for p in eight]
    for (cells, degree), p in zip(tasks, one):
        assert len(p.betti) >= degree + 1


def test_parallel_stalks_raises_lowest_index_failure():
    t, tg, tf = torus_reeb()
    tasks = [
        (tf["u0"], 0),
        ({"q0000"}, 0),      # not face-closed
        ({"missing"}, 0),    # unknown cell
    ]
    for workers in (1, 8):
        with pytest.raises(NotASubcomplex):
            parallel_stalks(t, tasks, workers=workers)
    with pytest.raises(UnknownCell):
        parallel_stalks(t, [(tf["u0"], 0), ({"missing"}, 0)], workers=8)
    # parallel_stalks fails as subcomplex does: same class, same text,
    # naming the least offending cell and the least face it misses
    faults = [
        ({"missing"}, UnknownCell, "no cell 'missing' in the complex"),
        ({"q0000"}, NotASubcomplex,
         "cell 'q0000' kept but its face 'h0000' dropped"),
        (set(tf["a0"]) - {"v0001"}, NotASubcomplex,
         "cell 'w0001' kept but its face 'v0001' dropped"),
        # several faults: the least cell in sorted order decides
        ({"q0000", "zz", "w0001"}, NotASubcomplex,
         "cell 'q0000' kept but its face 'h0000' dropped"),
        (set(tf["u0"]) | {"zz", "q0001"}, NotASubcomplex,
         "cell 'q0001' kept but its face 'h0001' dropped"),
        (set(tf["u0"]) | {"zz", "missing"}, UnknownCell,
         "no cell 'missing' in the complex"),
    ]
    for cells, error, text in faults:
        with pytest.raises(error) as want:
            subcomplex(t, cells)
        assert str(want.value) == text
        with pytest.raises(error) as got:
            parallel_stalks(t, [(tf["u0"], 0), (cells, 0)])
        assert str(got.value) == text


def _support_cases():
    """(base, cells) for every fixture fiber, every nerve support of the two
    arc covers, random face closures, the empty set and each whole complex."""
    cases = []
    for make in (torus_reeb, genus2_reeb):
        base, _, fibers = make()
        cases += [(base, fibers[name]) for name in sorted(fibers)]
        cases += [(base, set()), (base, set(base.cells()))]
    for make in (three_arc_cover, two_arc_cover):
        base, cover = make()
        supports = cover.nerve.supports
        cases += [(base, supports[name]) for name in sorted(supports)]
    rng = random.Random(20)
    for base in [torus_grid(3, 4), filled_triangle()] + [
            random_simplicial(rng) for _ in range(30)]:
        cases += [(base, random_face_closed(rng, base)) for _ in range(3)]
        cases += [(base, set()), (base, set(base.cells()))]
    return cases


def test_support_is_the_compiled_constant_sheaf_of_the_subcomplex():
    for base, cells in _support_cases():
        for field in (RATIONAL, fp(5)):
            got = _support(base, cells, field)
            want = compile_sheaf(constant_sheaf(subcomplex(base, cells), 1,
                                                field))
            assert list(got.maps.items()) == list(want.maps.items())
            assert list(got.poset.dims.items()) == list(want.poset.dims.items())
            assert got.poset.up == want.poset.up
            assert got.poset.down == want.poset.down
            assert list(got.stalk_rank.items()) == list(want.stalk_rank.items())
            assert got.top == want.top
            assert got.field is field
            # the base's adjacency is copied, never shared
            for c in got.poset.dims:
                assert got.poset.up[c] is not base.poset.up[c]
                assert got.poset.down[c] is not base.poset.down[c]
            a = scythe(got, track_equivalence=True)
            b = scythe(want, track_equivalence=True)
            assert a.matching.pairs == b.matching.pairs
            assert list(a.reduced.maps.items()) == list(b.reduced.maps.items())
            assert a.reduced.poset.dims == b.reduced.poset.dims
            ra, rb = a.equivalence.dst_complex, b.equivalence.dst_complex
            assert ra.blocks == rb.blocks
            assert ({n: lay.cells for n, lay in ra.layouts.items()}
                    == {n: lay.cells for n, lay in rb.layouts.items()})


def test_complexity_estimate_numbers():
    surface, graph, fibers = genus2_reeb()
    est = complexity_estimate(surface, graph, fibers)
    assert est.n_cells == 302
    assert est.graph_cells == 13
    assert est.max_fiber == max(len(v) for v in fibers.values())
    assert est.dim == 2
    assert est.pipeline_cost == est.max_fiber ** 3 + 13 ** 3 * 2 ** 3
    assert est.direct_cost == 302 ** 3
    assert 0 < est.ratio < 1
    j = est.to_json()
    assert j["pipeline_cost"] == est.pipeline_cost


def test_complexity_estimate_of_an_empty_complex():
    empty = build_cw([], {})
    for graph_cells, fibers in (([("a", 0)], {"a": []}), ([], {})):
        graph = build_cw(graph_cells, {})
        est = complexity_estimate(empty, graph, fibers)
        assert (est.max_fiber, est.dim) == (0, -1)
        assert est.pipeline_cost == est.direct_cost == 0
        assert est.ratio is None and est.to_json()["ratio"] is None


def test_finer_graph_lowers_estimate():
    t, tg, tf = torus_reeb()
    tfine, tgf, tff = torus_reeb_fine()
    coarse = complexity_estimate(t, tg, tf)
    fine = complexity_estimate(tfine, tgf, tff)
    assert fine.max_fiber < coarse.max_fiber
    assert fine.pipeline_cost < coarse.pipeline_cost


def _leray_case(make):
    X, graph, fibers = make()
    return X, graph, fibers, lambda n, f: leray_sheaf(X, graph, fibers, n, f)


def _cech_case(cells):
    base, pieces = cells()
    cover = Cover(base, pieces)
    nv = nerve(cover)
    return base, nv.cw, nv.supports, lambda n, f: cech_sheaf(cover, n, f)


def _torus_reeb_overlap():
    """torus_reeb with every vertex fiber the whole torus and a2 widened to
    a0 | a2, so the edge fibers a0 and a2 share a circle at u0."""
    X, graph, fibers = torus_reeb()
    whole = set(X.cells())
    return X, graph, dict(fibers, u0=whole, u1=whole, u2=whole,
                          a2=fibers["a0"] | fibers["a2"])


def _triple_overlap_cells():
    """The interval under three pieces that all hold u: a 2-simplex nerve."""
    return interval(), [("A", ["u", "v", "e"]), ("B", ["u"]),
                        ("C", ["u", "v", "e"])]


def _circle_fibering(graph_cells, incidence, fibers):
    """circle_subdivided(6) fibered over the graph given as for build_cw;
    a fiber "all" is the whole circle."""
    X = circle_subdivided(6)
    whole = set(X.cells())
    return X, build_cw(graph_cells, incidence), {
        c: whole if cells == "all" else set(cells)
        for c, cells in fibers.items()}


def _circle_wedge():
    """Two whole circles glued at v00: the wedge of two circles, not X."""
    return _circle_fibering([("u0", 0), ("u1", 0), ("a", 1)],
                            {("u0", "a"): -1, ("u1", "a"): 1},
                            {"u0": "all", "u1": "all", "a": ["v00"]})


def _circle_loop():
    """One whole circle and a loop edge at its vertex with fiber v00."""
    return _circle_fibering([("u", 0), ("a", 1)], {("u", "a"): 1},
                            {"u": "all", "a": ["v00"]})


def _arc(first, last):
    """The cells of circle_subdivided(6) from v(first) up to v(last)."""
    return (["v%02d" % (i % 6) for i in range(first, last + 1)]
            + ["e%02d" % (i % 6) for i in range(first, last)])


def _circle_three_fibers():
    """Three arcs over a 3-cycle, with the middle arc widened by v00, which
    then lies in all three vertex fibers."""
    return _circle_fibering(
        [("u0", 0), ("u1", 0), ("u2", 0), ("a0", 1), ("a1", 1), ("a2", 1)],
        {("u0", "a0"): -1, ("u1", "a0"): 1, ("u1", "a1"): -1,
         ("u2", "a1"): 1, ("u2", "a2"): -1, ("u0", "a2"): 1},
        {"u0": _arc(0, 2), "u1": _arc(2, 4) + ["v00"], "u2": _arc(4, 6),
         "a0": ["v02"], "a1": ["v04"], "a2": ["v00"]})


def _circle_parallel_edges():
    """Two arcs joined by parallel edges a and b whose fibers share v00."""
    return _circle_fibering(
        [("u0", 0), ("u1", 0), ("a", 1), ("b", 1)],
        {("u0", "a"): -1, ("u1", "a"): 1, ("u0", "b"): 1, ("u1", "b"): -1},
        {"u0": _arc(0, 3), "u1": _arc(3, 6), "a": ["v00"],
         "b": ["v00", "v03"]})


# fiberings whose diagram is not X, each with the refusal naming its least
# offending cell
NOT_PRESENTING = {
    "overlap": (_torus_reeb_overlap, "cell 'h0000' lies in vertex fibers"
                " ['u0', 'u1', 'u2'] and edge fibers []"),
    "wedge": (_circle_wedge,
              "cell 'e00' lies in vertex fibers ['u0', 'u1'] and edge fibers []"),
    "loop": (_circle_loop,
             "cell 'v00' lies in vertex fibers ['u'] and edge fibers ['a']"),
    "three_vertex_fibers": (_circle_three_fibers, "cell 'v00' lies in vertex"
                            " fibers ['u0', 'u1', 'u2'] and edge fibers ['a2']"),
    "parallel_edges_share_a_cell": (_circle_parallel_edges, "cell 'v00' lies"
                                    " in vertex fibers ['u0', 'u1'] and edge"
                                    " fibers ['a', 'b']"),
}


@pytest.mark.parametrize("name", sorted(NOT_PRESENTING))
def test_fibers_that_do_not_present_the_space_are_refused(name):
    make, want = NOT_PRESENTING[name]
    X, graph, fibers = make()
    for call in (lambda: validate_fibers(X, graph, fibers),
                 lambda: cohomology_via_leray(X, graph, fibers),
                 lambda: leray_sheaf(X, graph, fibers, 1),
                 lambda: complexity_estimate(X, graph, fibers)):
        with pytest.raises(FibersDoNotPresent) as info:
            call()
        assert str(info.value) == want
    # a fiber that is not face-closed is a validation error, and wins
    last = graph.poset.elements_of_dim(0)[-1]
    with pytest.raises(UnknownCell, match="'zzz'"):
        validate_fibers(X, graph, dict(fibers, **{last: fibers[last] | {"zzz"}}))


def test_cech_sheaf_refuses_a_nerve_above_dimension_one():
    base, pieces = _triple_overlap_cells()
    cover = Cover(base, pieces)
    with pytest.raises(NerveTooBig) as via:
        cohomology_via_cech(base, cover)
    with pytest.raises(NerveTooBig) as sheaf:
        cech_sheaf(cover, 0)
    assert str(sheaf.value) == str(via.value) == (
        "nerve has a 2-simplex; the decomposition needs dimension <= 1")
    assert "nerve" not in vars(cover)  # refused before the nerve is built


PIPELINE_CASES = {
    "genus2_reeb": lambda: _leray_case(genus2_reeb),
    "torus_reeb": lambda: _leray_case(torus_reeb),
    "torus_reeb_fine": lambda: _leray_case(torus_reeb_fine),
    # two vertices joined by two parallel edges
    "fibered_torus_2": lambda: _leray_case(
        lambda: _fibered_torus(random.Random(0), 2)),
    "two_arc_cover": lambda: _cech_case(two_arc_cover_cells),
    "three_arc_cover": lambda: _cech_case(three_arc_cover_cells),
}


def _recorded_tables(monkeypatch, graph, base, supports, field):
    """_stalk_tables, with each support's run recorded as an Equivalence:
    the support as compiled, before any step, then every StepMaps that a
    removal on it returned, replays and sweeps alike."""
    compile_support, remove = nerve_module._support, morse_module._reduce_pair
    runs, steps = [], {}

    def support(*args):
        param = compile_support(*args)
        runs.append((param, param.assemble()))
        steps[id(param)] = []
        return param

    def reduce_pair(param, *args):
        step = remove(param, *args)
        steps[id(param)].append(step)
        return step

    with monkeypatch.context() as patch:
        patch.setattr(nerve_module, "_support", support)
        patch.setattr(morse_module, "_reduce_pair", reduce_pair)
        reduced, _ = _stalk_tables(graph, base, supports, field)
    return {name: Equivalence(src, steps[id(param)], reduced[name])
            for name, (param, src) in zip(sorted(supports), runs)}


def _change_of_basis(eq, cx, n):
    """Columns: classes in cx of eq's reduced generators, lifted to cx."""
    basis = cocycle_basis(eq.dst_complex, n)
    lifts = [lift_cocycle(eq, basis.matrix.column(j), n) for j in basis.flagged]
    cols = [class_coordinates(cx, vec, n) for vec in lifts]
    size = len(cols)
    return Matrix(cx.field, size, size,
                  [[col[i] for col in cols] for i in range(size)])


@pytest.mark.parametrize("name", sorted(PIPELINE_CASES))
def test_transported_restrictions_are_induced_maps_in_reduced_bases(
        name, monkeypatch):
    # R . B_sigma = B_tau . T on every cover, where T is the pipeline's
    # restriction, R the induced map on unreduced fibers and B a fiber's
    # invertible change of basis from its reduced generators, lifted
    # through the steps its reduction recorded
    base, graph, supports, sheaf_of = PIPELINE_CASES[name]()
    nonzero = 0
    for field in (RATIONAL, fp(5), fp(2)):
        equivalences = _recorded_tables(monkeypatch, graph, base, supports,
                                        field)
        for n in range(base.poset.max_dim() + 1):
            sheaf = sheaf_of(n, field).sheaf
            complexes, ranks, ref = ref_degree_sheaf(base, graph, supports, n,
                                                     field)
            assert sheaf.stalk_rank == ranks
            assert set(sheaf.restriction) == set(ref)
            change = {c: _change_of_basis(equivalences[c], complexes[c], n)
                      for c in graph.poset.dims}
            for c, b in change.items():
                assert b.rows == ranks[c]
                assert b.rows == 0 or try_invert(b) is not None
            for (s, t), r in ref.items():
                got = sheaf.restriction[(s, t)]
                assert mat_mul(r, change[s]) == mat_mul(change[t], got)
                nonzero += not r.is_zero()
    assert nonzero > 0


@pytest.mark.parametrize("name", sorted(PIPELINE_CASES))
def test_reduced_supports_nest_along_every_cover(name):
    # for each cover sigma < tau, R(tau) is R(sigma) cut down to R(tau)'s
    # cells: the same cells in the same order in each degree, and the same
    # blocks into them, none from elsewhere; and the edge supports at each
    # vertex are disjoint, which lets every edge support be swept plainly
    base, graph, supports, _ = PIPELINE_CASES[name]()
    for field in (RATIONAL, fp(2)):
        reduced, _ = _stalk_tables(graph, base, supports, field)
        cells = {name: {c for lay in cx.layouts.values() for c in lay.cells}
                 for name, cx in reduced.items()}
        for sigma, tau in graph.poset.covers():
            big, small = reduced[sigma], reduced[tau]
            for n, lay in small.layouts.items():
                assert [c for c in big.layout(n).cells if c in lay] == lay.cells
            assert {k: m for k, m in big.blocks.items()
                    if k[1] in cells[tau]} == small.blocks
        for vertex in graph.poset.elements_of_dim(0):
            for e, f in itertools.combinations(graph.poset.x_plus(vertex), 2):
                assert not supports[e] & supports[f]


def _annulus(rows, cols, first, last):
    """The cells of torus_grid(rows, cols) in columns first to last, taken
    mod cols: the vertical circles at each column and the squares between."""
    cells = set()
    for j in range(first, last + 1):
        j %= cols
        cells |= {"%s%02d%02d" % (kind, i, j) for kind in ("v", "w")
                  for i in range(rows)}
    for j in range(first, last):
        j %= cols
        cells |= {"%s%02d%02d" % (kind, i, j) for kind in ("h", "q")
                  for i in range(rows)}
    return cells


def _fibered_torus(rng, k=None):
    """A seeded torus_grid fibered over a cycle graph of k vertices, 3 to 6
    seeded if k is None.

    Vertex fibers are annuli of seeded widths starting at a seeded column;
    neighbours overlap in an annulus of 2 * gap + 1 columns (gap 0 or 1),
    which is the edge fiber.
    """
    if k is None:
        k = rng.randint(3, 6)
    gap = rng.randint(0, 1)
    widths = [rng.randint(2 * gap + 1, 2 * gap + 2) for _ in range(k)]
    rows, cols = rng.randint(2, 3), sum(widths)
    offset = rng.randrange(cols)

    cuts = [offset + sum(widths[:t]) for t in range(k + 1)]
    elements, incidence, fibers = [], {}, {}
    for t in range(k):
        u, nxt, a = "u%d" % t, "u%d" % ((t + 1) % k), "a%d" % t
        elements += [(u, 0), (a, 1)]
        incidence[(u, a)] = -1
        incidence[(nxt, a)] = 1
        fibers[u] = _annulus(rows, cols, cuts[t] - gap, cuts[t + 1] + gap)
        fibers[a] = _annulus(rows, cols, cuts[t + 1] - gap, cuts[t + 1] + gap)
    return torus_grid(rows, cols), build_cw(elements, incidence), fibers


def _two_annuli():
    """torus_grid(3, 6) as the annuli of columns 0-3 and 3-6 over one edge,
    whose fiber is the two vertical circles they share: a path graph with
    a disconnected edge fiber."""
    circles = {"%s%02d%02d" % (kind, i, j) for kind in ("v", "w")
               for i in range(3) for j in (0, 3)}
    graph = build_cw([("u0", 0), ("u1", 0), ("a", 1)],
                     {("u0", "a"): -1, ("u1", "a"): 1})
    return torus_grid(3, 6), graph, {
        "u0": _annulus(3, 6, 0, 3), "u1": _annulus(3, 6, 3, 6), "a": circles}


@pytest.mark.parametrize("seed", range(6))
def test_pipelines_agree_with_direct_cohomology_on_fibered_tori(seed):
    _check_pipelines_against_direct(*_fibered_torus(random.Random(seed)))


def test_pipelines_agree_with_direct_over_a_disconnected_edge_fiber():
    _check_pipelines_against_direct(*_two_annuli())


def _check_pipelines_against_direct(X, graph, fibers):
    cover = Cover(X, [(c, fibers[c]) for c in graph.poset.elements_of_dim(0)])
    for field in (RATIONAL, fp(5), fp(2)):
        direct = sheaf_cohomology(constant_sheaf(X, 1, field)).betti
        assert direct == [1, 2, 1]
        for reduce_first in (True, False):
            assert cohomology_via_leray(
                X, graph, fibers, field=field, reduce_first=reduce_first
            ).betti == direct
            assert cohomology_via_cech(
                X, cover, field=field, reduce_first=reduce_first
            ).betti == direct


def _fault(X, graph, fibers):
    """The oracle: the error class validate_fibers owes, or None.  After
    the inclusions, each fiber in sorted order is scanned for a cell not in
    X or missing a face; then every cell of X for the vertex and edge
    fibers that hold it."""
    ends = {e: set(graph.poset.x_minus(e))
            for e in graph.poset.elements_of_dim(1)}
    if any(not fibers[e] <= fibers[v] for e in ends for v in ends[e]):
        return FiberInclusionViolated
    for name in sorted(fibers):
        for cell in sorted(fibers[name]):
            if cell not in X:
                return UnknownCell
            if not set(X.poset.x_minus(cell)) <= set(fibers[name]):
                return NotASubcomplex
    for cell in X.cells():
        held = {v for v in graph.poset.elements_of_dim(0) if cell in fibers[v]}
        joins = [ends[e] for e in ends if cell in fibers[e]]
        if not (len(held) == 1 and not joins
                or len(held) == 2 and joins == [held]):
            return FibersDoNotPresent
    return None


def _regraphed(graph, edge, ends):
    """graph with one more edge, its faces and signs given by ends."""
    cells = [(c, graph.dim(c)) for c in graph.cells()] + [(edge, 1)]
    signs = {cover: graph.sign(*cover) for cover in graph.poset.covers()}
    signs.update({(end, edge): sign for end, sign in ends.items()})
    return build_cw(cells, signs)


def _widen_vertex(rng, X, graph, fibers):
    edge = rng.choice(graph.poset.elements_of_dim(1))
    v, w = rng.sample(sorted(graph.poset.x_minus(edge)), 2)
    return graph, dict(fibers, **{v: fibers[v] | fibers[w]})


def _drop_lone_top_cell(rng, X, graph, fibers):
    top = X.poset.elements_of_dim(X.poset.max_dim())
    holders = {c: [v for v in graph.poset.elements_of_dim(0)
                   if c in fibers[v]] for c in top}
    cell = rng.choice([c for c in top if len(holders[c]) == 1])
    v = holders[cell][0]
    return graph, dict(fibers, **{v: fibers[v] - {cell}})


def _merge_edges(rng, X, graph, fibers):
    forks = [v for v in graph.poset.elements_of_dim(0)
             if len(graph.poset.x_plus(v)) > 1]
    if not forks:  # a path of one edge has no two edges to merge
        return graph, fibers
    v = rng.choice(forks)
    e, f = rng.sample(sorted(graph.poset.x_plus(v)), 2)
    both = fibers[e] | fibers[f]
    return graph, dict(fibers, **{e: both, f: both})


def _add_loop(rng, X, graph, fibers):
    v = rng.choice(graph.poset.elements_of_dim(0))
    point = rng.choice(sorted(c for c in fibers[v] if X.dim(c) == 0))
    return _regraphed(graph, "loop", {v: 1}), dict(fibers, loop={point})


def _add_parallel_edge(rng, X, graph, fibers):
    e = rng.choice(graph.poset.elements_of_dim(1))
    ends = {s: graph.sign(s, e) for s in graph.poset.x_minus(e)}
    return _regraphed(graph, "twin", ends), dict(fibers, twin=fibers[e])


def _open_a_fiber(rng, X, graph, fibers):
    name = rng.choice(graph.cells())
    cell = rng.choice(sorted(c for c in fibers[name] if X.poset.x_minus(c)))
    face = rng.choice(sorted(X.poset.x_minus(cell)))
    return graph, dict(fibers, **{name: fibers[name] - {face}})


def _name_a_cell_not_in_X(rng, X, graph, fibers):
    name = rng.choice(graph.cells())
    return graph, dict(fibers, **{name: fibers[name] | {"zzz"}})


MUTATIONS = [_widen_vertex, _drop_lone_top_cell, _merge_edges, _add_loop,
             _add_parallel_edge, _open_a_fiber, _name_a_cell_not_in_X]
MUTATED = {"fibered_torus_%d" % k: (lambda k=k: _fibered_torus(
    random.Random(k), k)) for k in range(2, 7)}
MUTATED.update(torus_reeb=torus_reeb, genus2_reeb=genus2_reeb,
               two_annuli=_two_annuli)


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_validate_fibers_agrees_with_a_cell_scan_and_leray_with_direct(name):
    # each mutant changes the fibering one way, three seeded times per
    # mutation; the unmutated input is kept, so leray meets at least one
    # diagram that presents X
    X, graph, fibers = MUTATED[name]()
    rng = random.Random(name)
    mutants = [(graph, fibers)] + [
        mutate(rng, X, graph, fibers) for mutate in MUTATIONS for _ in range(3)]
    direct = {field: sheaf_cohomology(constant_sheaf(X, 1, field)).betti
              for field in (RATIONAL, fp(2), fp(5))}
    for g, f in mutants:
        fault = _fault(X, g, f)
        if fault is not None:
            with pytest.raises(fault) as info:
                validate_fibers(X, g, f)
            assert type(info.value) is fault
            continue
        validate_fibers(X, g, f)
        for field, betti in direct.items():
            assert cohomology_via_leray(X, g, f, field=field).betti == betti
