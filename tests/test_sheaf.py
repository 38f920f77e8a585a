import random
import re

import pytest

import scythe.parametrization
from scythe.complexes import (
    circle,
    filled_triangle,
    genus2_surface,
    interval,
    torus_grid,
)
from scythe.cw import incidence_violations
from scythe.errors import (
    InvalidSheafData, NotASubcomplex, UnknownCell, ValidationError,
)
from scythe.field import RATIONAL, fp
from scythe.matrix import Matrix
from scythe.parametrization import (
    Parametrization,
    d_squared_witnesses,
    verify_d_squared,
)
from scythe.poset import build_poset
from scythe.sheaf import (
    CellularSheaf,
    compile_sheaf,
    constant_sheaf,
    pushforward_constant,
    skyscraper_sheaf,
)

from oracles import adjacency_sets, dense_coboundary, ref_d_squared_witnesses
from randgen import (
    TWISTED_SUMS, random_sheaf, random_simplicial, twisted_torus_sum,
)


def test_constant_sheaf_shape():
    tri = filled_triangle()
    sh = constant_sheaf(tri, 2)
    assert all(r == 2 for r in sh.stalk_rank.values())
    assert all(m.rows == 2 and m.cols == 2 for m in sh.restriction.values())
    with pytest.raises(ValidationError, match=r"^rank must be nonnegative$"):
        constant_sheaf(tri, -1)


def test_sheaf_validation():
    tri = filled_triangle()
    with pytest.raises(InvalidSheafData):
        CellularSheaf(tri, RATIONAL, {c: 1 for c in tri.cells() if c != "u"}, {})
    stalks = {c: 1 for c in tri.cells()}
    with pytest.raises(InvalidSheafData):
        CellularSheaf(tri, RATIONAL, stalks,
                      {("u", "vw"): Matrix.identity(RATIONAL, 1)})
    with pytest.raises(InvalidSheafData):
        CellularSheaf(tri, RATIONAL, stalks,
                      {("u", "uv"): Matrix.zeros(RATIONAL, 2, 1)})
    with pytest.raises(InvalidSheafData, match="over the wrong field"):
        CellularSheaf(tri, RATIONAL, stalks,
                      {("u", "uv"): Matrix.identity(fp(5), 1)})


@pytest.mark.parametrize("ranks, maps, message", [
    ({"u": 1, "v": 1}, {},
     "missing or negative stalk rank on 'e'"),
    ({"u": 1, "v": 1, "e": 1}, {("u", "v"): Matrix.identity(RATIONAL, 1)},
     "map on non-covering pair (u, v)"),
    ({"u": 1, "v": 1, "e": 1}, {("u", "e"): Matrix.zeros(RATIONAL, 2, 1)},
     "map (u, e) has shape 2x1, stalks demand 1x1"),
    ({"u": 1, "v": 1, "e": 1}, {("u", "e"): Matrix.identity(fp(5), 1)},
     "map (u, e) over the wrong field"),
], ids=["rank", "cover", "shape", "field"])
def test_parametrization_built_from_outside_checks_its_blocks(ranks, maps,
                                                              message):
    with pytest.raises(InvalidSheafData, match="^%s$" % re.escape(message)):
        Parametrization(RATIONAL, interval().poset.copy(), ranks, maps)


def test_skyscraper_needs_known_cell():
    with pytest.raises(UnknownCell):
        skyscraper_sheaf(interval(), "nope")


def test_pushforward_needs_face_closed():
    tri = filled_triangle()
    with pytest.raises(NotASubcomplex):
        pushforward_constant(tri, ["uv"])
    with pytest.raises(UnknownCell):
        pushforward_constant(tri, ["zz"])


def test_compile_folds_signs():
    cw = interval()
    sh = constant_sheaf(cw, 1)
    param = compile_sheaf(sh)
    # [u:e] = +1 keeps the identity, [v:e] = -1 negates it
    assert param.maps[("u", "e")].data[0][0] == RATIONAL.one
    assert param.maps[("v", "e")].data[0][0] == RATIONAL.neg(RATIONAL.one)


def test_compile_drops_zero_maps():
    cw = torus_grid(2, 2)
    sky = skyscraper_sheaf(cw, "q0000")
    param = compile_sheaf(sky)
    assert param.maps == {}
    assert param.poset.covers() == []
    assert param.stalk_rank["q0000"] == 1
    # the poset keeps every cell even though all covers are gone
    assert len(param.poset) == len(cw.poset)


def test_compile_rejects_broken_d_squared():
    tri = filled_triangle()
    stalks = {c: 1 for c in tri.cells()}
    one = Matrix.identity(RATIONAL, 1)
    two = Matrix.from_rows(RATIONAL, [[2]])
    maps = {pair: one for pair in tri.incidence}
    maps[("u", "uv")] = two
    # over u < f: [u:uv]*2*[uv:f] + [u:uw]*1*[uw:f] = -2 + 1
    want = "blocks: [(0, 'f', 'u')]"
    with pytest.raises(InvalidSheafData, match=re.escape(want)):
        compile_sheaf(CellularSheaf(tri, RATIONAL, stalks, maps))


def test_missing_restriction_means_zero():
    cw = interval()
    stalks = {"u": 1, "v": 1, "e": 1}
    sh = CellularSheaf(cw, RATIONAL, stalks,
                       {("u", "e"): Matrix.identity(RATIONAL, 1)})
    param = compile_sheaf(sh)
    assert ("v", "e") not in param.maps
    cx = param.assemble()
    assert dense_coboundary(cx, 0).data == \
        [[RATIONAL.one, RATIONAL.zero]]


def _unchecked_param(sheaf):
    """The Parametrization compile_sheaf builds, minus its d-squared check,
    which Parametrization(...) would make."""
    base = sheaf.base
    maps = {}
    for pair, raw in sheaf.restriction.items():
        signed = raw if base.incidence[pair] == 1 else raw.neg()
        if not signed.is_zero():
            maps[pair] = signed
    return scythe.parametrization._built(sheaf.field, dict(base.poset.dims),
                                         dict(sheaf.stalk_rank), maps)


def _perturbed(rng, sheaf):
    """A copy of sheaf with one nonempty restriction changed, or None."""
    pairs = sorted(p for p, m in sheaf.restriction.items() if m.rows and m.cols)
    if not pairs:
        return None
    pair = rng.choice(pairs)
    old = sheaf.restriction[pair]
    f = sheaf.field
    new = old
    while new == old:
        new = Matrix(f, old.rows, old.cols,
                     [[f.from_int(rng.randint(-2, 2)) for _ in range(old.cols)]
                      for _ in range(old.rows)])
    maps = dict(sheaf.restriction)
    maps[pair] = new
    return CellularSheaf(sheaf.base, f, sheaf.stalk_rank, maps)


def _rebased(rng, sheaf):
    """sheaf in new stalk bases, each coordinate scaled by a nonzero
    element: a fraction over Q, so the blocks hold non-integral Fractions,
    and a residue over F_p."""
    f = sheaf.field

    def scale():
        if f.p is None:
            return f.parse("%d/%d" % (rng.choice((1, -1, 2, -3)),
                                      rng.choice((1, 2, 3, 5))))
        return f.from_int(rng.randrange(1, f.p))

    scales = {c: [scale() for _ in range(n)]
              for c, n in sheaf.stalk_rank.items()}
    maps = {}
    for (s, t), m in sheaf.restriction.items():
        ds, dt = scales[s], scales[t]
        maps[(s, t)] = Matrix(f, m.rows, m.cols, [
            [f.mul(f.mul(dt[i], v), f.inv(ds[j])) for j, v in enumerate(row)]
            for i, row in enumerate(m.data)])
    return CellularSheaf(sheaf.base, f, sheaf.stalk_rank, maps)


def _path_shapes(cx, witnesses):
    """The shape of every two-step path through a witnessed interval:
    "1x1x1", "2x2x2", "3x3x3" or "mixed", by the ranks of tau, lambda and
    sigma."""
    ranks = {c: layout.ranks[c] for layout in cx.layouts.values()
             for c in layout.cells}
    above = {}
    for x, y in cx.blocks:
        above.setdefault(x, set()).add(y)
    shapes = set()
    for _, tau, sigma in witnesses:
        for lam in above.get(sigma, ()):
            if tau in above.get(lam, ()):
                shape = {ranks[tau], ranks[lam], ranks[sigma]}
                shapes.add("%dx%dx%d" % ((min(shape),) * 3)
                           if len(shape) == 1 else "mixed")
    return shapes


def _walk_inputs():
    """25 random sheaves over Q and F5; 12 over F2, where a sum can pass 2
    and still vanish; and twisted sums on a 3x3 torus, rank-3 stalks
    among them, in fractional bases over Q, F5 and F2."""
    rng = random.Random(7)
    for _ in range(25):
        base = random_simplicial(rng)
        field = RATIONAL if rng.random() < 0.5 else fp(5)
        yield random_sheaf(rng, base, field)[0]
    rng = random.Random(17)
    for _ in range(12):
        yield random_sheaf(rng, random_simplicial(rng), fp(2))[0]
    for field in (RATIONAL, fp(5), fp(2)):
        for kinds in TWISTED_SUMS + ((("constant",),) * 3,):
            yield _rebased(rng, twisted_torus_sum(rng, 3, 3, kinds, field))


def test_random_sheaves_compile():
    twist = random.Random(11)
    broken = 0
    shapes = set()
    for sheaf in _walk_inputs():
        param = compile_sheaf(sheaf)
        assert param.field == sheaf.field
        # the interval walk names the same blocks, in the same order, as
        # the dense product, with and without a broken restriction
        p = sheaf.field.p
        for candidate in (sheaf, _perturbed(twist, sheaf)):
            if candidate is None:
                continue
            cx = _unchecked_param(candidate).assemble()
            want = ref_d_squared_witnesses(cx, p)
            assert verify_d_squared(cx) == want
            if want:
                broken += 1
                shapes |= _path_shapes(cx, want)
                with pytest.raises(InvalidSheafData,
                                   match=re.escape("blocks: %r" % (want,))):
                    compile_sheaf(candidate)
            else:
                assert compile_sheaf(candidate).maps == cx.blocks
    assert broken >= 5
    # each form of the walk's sums meets a failing interval
    assert {"1x1x1", "2x2x2", "mixed"} <= shapes


@pytest.mark.parametrize("field", [RATIONAL, fp(5), fp(2)],
                         ids=["Q", "F5", "F2"])
def test_d_squared_sums_an_interval_across_its_middle_cells(field):
    # sigma < l1, l2 < tau with rank-2 stalks: each path's product is
    # invertible, and only the sum over both middle cells vanishes; over
    # F_p that sum is a nonzero multiple of p until it is reduced
    f = field
    if f.p is None:
        a = [["1", "1/2"], ["-2", "3/4"]]
        b = [["2/3", "1"], ["0", "-5"]]
    else:
        a = [["1", "1"], ["0", "1"]]
        b = [["1", "0"], ["1", "1"]]
    a, b = (Matrix(f, 2, 2, [[f.parse(v) for v in row] for row in g])
            for g in (a, b))
    dims = {"s": 0, "l1": 1, "l2": 1, "t": 2}
    maps = {("s", "l1"): a, ("l1", "t"): b, ("s", "l2"): a,
            ("l2", "t"): b.neg()}
    one_path = {("s", "l1"): a, ("l1", "t"): b}
    bumped = dict(maps)
    bumped[("l2", "t")] = b.neg().add(Matrix.from_rows(f, [[1, 0], [0, 0]]))
    for blocks, want in ((maps, []), (one_path, [(0, "t", "s")]),
                         (bumped, [(0, "t", "s")])):
        assert d_squared_witnesses(f, blocks, dims) == want
        cx = scythe.parametrization._built(
            f, dict(dims), dict.fromkeys(dims, 2), blocks).assemble()
        assert ref_d_squared_witnesses(cx, f.p) == want


def _fixtures_and_random_complexes(seed, count):
    rng = random.Random(seed)
    bases = [interval(), circle(), filled_triangle(), torus_grid(3, 4),
             genus2_surface()]
    return bases + [random_simplicial(rng) for _ in range(count)]


@pytest.mark.parametrize("field", [RATIONAL, fp(5)], ids=["Q", "F5"])
def test_constant_d_squared_fails_exactly_where_the_sign_identity_does(field):
    # compile skips the walk on identity blocks because of this equivalence;
    # a flipped sign cannot live in a CWComplex, so the flipped bases are
    # built as bare posets and walked
    rng = random.Random(41)
    broken = 0
    for cw in _fixtures_and_random_complexes(43, 30):
        pairs = sorted(cw.incidence)
        for flip in [None] + rng.sample(pairs, min(2, len(pairs))):
            incidence = dict(cw.incidence)
            if flip is not None:
                incidence[flip] = -incidence[flip]
            poset = build_poset([(c, cw.dim(c)) for c in cw.cells()], incidence)
            violations = incidence_violations(poset, incidence)
            broken += bool(violations)
            for rank in (1, 2):
                ident = Matrix.identity(field, rank)
                maps = {pair: ident if sign == 1 else ident.neg()
                        for pair, sign in incidence.items()}
                witnesses = d_squared_witnesses(field, maps, poset.dims)
                assert (witnesses == []) == (violations == [])
                assert sorted((s, t) for _, t, s in witnesses) == violations
    assert broken >= 20


@pytest.mark.parametrize("field", [RATIONAL, fp(5), fp(2)],
                         ids=["Q", "F5", "F2"])
def test_compiling_a_constant_sheaf_without_the_walk_matches_the_walk(field):
    for cw in _fixtures_and_random_complexes(47, 20):
        for rank in (0, 1, 2):
            sheaf = constant_sheaf(cw, rank, field)
            ref = _unchecked_param(sheaf)
            assert d_squared_witnesses(field, ref.maps, ref.poset.dims) == []
            param = compile_sheaf(sheaf)
            assert list(param.maps.items()) == list(ref.maps.items())
            assert param.poset.dims == ref.poset.dims
            assert (adjacency_sets(param.poset.up)
                    == adjacency_sets(ref.poset.up))
            assert (adjacency_sets(param.poset.down)
                    == adjacency_sets(ref.poset.down))
            assert param.stalk_rank == ref.stalk_rank
            assert param.top == ref.top


def test_compile_walks_d_squared_only_off_identity_blocks(monkeypatch):
    calls = []
    walk = scythe.parametrization.d_squared_witnesses

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(scythe.parametrization, "d_squared_witnesses",
                        counted)
    torus = torus_grid(6, 6)
    for rank, field in ((1, RATIONAL), (2, RATIONAL), (1, fp(5))):
        compile_sheaf(constant_sheaf(torus, rank, field))
    assert calls == []
    twisted = twisted_torus_sum(random.Random(5), 6, 6,
                                [("constant",), ("row",)], RATIONAL)
    compile_sheaf(twisted)
    assert len(calls) == 1
    compile_sheaf(skyscraper_sheaf(torus, torus.cells()[0]))
    assert len(calls) == 2
    # identity blocks on all covers but one: the missing map is zero, so
    # the sums around it are no longer sign sums
    constant = constant_sheaf(torus, 1)
    maps = dict(constant.restriction)
    del maps[min(maps)]
    with pytest.raises(InvalidSheafData, match="does not square to zero"):
        compile_sheaf(CellularSheaf(torus, RATIONAL, constant.stalk_rank, maps))
    assert len(calls) == 3
