import random
import re

import pytest

from scythe.complexes import circle, filled_triangle, interval, torus_grid
from scythe.errors import InvalidSheafData, NotASubcomplex, UnknownCell
from scythe.field import RATIONAL, fp
from scythe.matrix import Matrix
from scythe.parametrization import Parametrization, verify_d_squared
from scythe.sheaf import (
    CellularSheaf,
    compile_sheaf,
    constant_sheaf,
    pushforward_constant,
    skyscraper_sheaf,
)

from oracles import ref_d_squared_witnesses
from randgen import random_sheaf, random_simplicial


def test_constant_sheaf_shape():
    tri = filled_triangle()
    sh = constant_sheaf(tri, 2)
    assert all(r == 2 for r in sh.stalk_rank.values())
    assert all(m.rows == 2 and m.cols == 2 for m in sh.restriction.values())


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
    assert cx.d(0).data == [[RATIONAL.one, RATIONAL.zero]]


def _unchecked_param(sheaf):
    """The Parametrization compile_sheaf builds, minus its d-squared check."""
    base = sheaf.base
    maps = {}
    for pair, raw in sheaf.restriction.items():
        signed = raw if base.incidence[pair] == 1 else raw.neg()
        if not signed.is_zero():
            maps[pair] = signed
    poset = base.poset.copy()
    for pair in base.incidence:
        if pair not in maps:
            poset.remove_cover(*pair)
    return Parametrization(sheaf.field, poset, dict(sheaf.stalk_rank), maps)


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


def test_random_sheaves_compile():
    rng = random.Random(7)
    twist = random.Random(11)
    broken = 0
    for _ in range(25):
        base = random_simplicial(rng)
        field = RATIONAL if rng.random() < 0.5 else fp(5)
        sheaf, _ = random_sheaf(rng, base, field)
        param = compile_sheaf(sheaf)
        assert param.field == field
        # the interval walk names the same blocks, in the same order, as
        # the dense product, with and without a broken restriction
        p = field.p
        for candidate in (sheaf, _perturbed(twist, sheaf)):
            if candidate is None:
                continue
            cx = _unchecked_param(candidate).assemble()
            want = ref_d_squared_witnesses(cx, p)
            assert verify_d_squared(cx).witnesses == want
            if want:
                broken += 1
                with pytest.raises(InvalidSheafData,
                                   match=re.escape("blocks: %r" % (want,))):
                    compile_sheaf(candidate)
            else:
                assert compile_sheaf(candidate).maps == cx.blocks
    assert broken >= 5
