import random

import pytest

from scythe.cw import (
    CWComplex,
    build_cw,
    check_face_closed,
    incidence_violations,
    subcomplex,
)
from scythe.errors import (
    DanglingId,
    IncidenceIdentityViolation,
    NonGradedCover,
    NotASubcomplex,
    UnknownCell,
    ValidationError,
)
from scythe.poset import build_poset

from scythe.complexes import (
    filled_triangle,
    genus2_surface,
    interval,
    torus_grid,
)

from randgen import random_face_closed, random_simplicial
from test_morse import FIXTURES


def test_build_poset_basics():
    p = build_poset([("a", 0), ("b", 0), ("e", 1)], [("a", "e"), ("b", "e")])
    assert len(p) == 3
    assert p.dim("e") == 1
    assert p.max_dim() == 1
    assert p.elements_of_dim(0) == ["a", "b"]
    assert p.x_minus("e") == {"a", "b"}
    assert p.x_plus("a") == {"e"}
    assert p.has_cover("a", "e")
    assert not p.has_cover("e", "a")
    assert p.p() == 1
    assert p.covers() == [("a", "e"), ("b", "e")]


def test_build_poset_rejects_bad_input():
    with pytest.raises(ValidationError):
        build_poset([("a", 0), ("a", 1)], [])
    with pytest.raises(DanglingId):
        build_poset([("a", 0)], [("a", "e")])
    with pytest.raises(DanglingId):
        build_poset([("e", 1)], [("a", "e")])
    with pytest.raises(NonGradedCover):
        build_poset([("a", 0), ("f", 2)], [("a", "f")])
    with pytest.raises(ValidationError):
        build_poset([("a", -1)], [])


def test_poset_copy_isolated():
    p = build_poset([("a", 0), ("e", 1)], [("a", "e")])
    q = p.copy()
    q.remove_pair("a", "e") if hasattr(q, "remove_pair") else None
    assert "a" in p


def test_build_cw_validates_signs():
    with pytest.raises(ValidationError):
        build_cw([("a", 0), ("e", 1)], {("a", "e"): 2})


def test_incidence_identity_enforced():
    # edges run around the cycle, so the face takes every edge with +1
    elements = [("a", 0), ("b", 0), ("c", 0), ("d", 0),
                ("ab", 1), ("bc", 1), ("cd", 1), ("da", 1), ("f", 2)]
    incidence = {
        ("a", "ab"): -1, ("b", "ab"): 1,
        ("b", "bc"): -1, ("c", "bc"): 1,
        ("c", "cd"): -1, ("d", "cd"): 1,
        ("d", "da"): -1, ("a", "da"): 1,
        ("ab", "f"): 1, ("bc", "f"): 1, ("cd", "f"): 1, ("da", "f"): 1,
    }
    cw = build_cw(elements, incidence)
    assert not incidence_violations(cw.poset, cw.incidence)

    bad = dict(incidence)
    bad[("ab", "f")] = -1
    with pytest.raises(IncidenceIdentityViolation) as err:
        build_cw(elements, bad)
    assert err.value.pairs


def test_hand_built_complex_lists_every_sign_violation():
    # a square whose face takes [ab:f] = -1: the two paths from a to f and
    # the two from b to f no longer cancel, those from c and d still do
    elements = [("a", 0), ("b", 0), ("c", 0), ("d", 0),
                ("ab", 1), ("bc", 1), ("cd", 1), ("da", 1), ("f", 2)]
    incidence = {
        ("a", "ab"): -1, ("b", "ab"): 1,
        ("b", "bc"): -1, ("c", "bc"): 1,
        ("c", "cd"): -1, ("d", "cd"): 1,
        ("d", "da"): -1, ("a", "da"): 1,
        ("ab", "f"): -1, ("bc", "f"): 1, ("cd", "f"): 1, ("da", "f"): 1,
    }
    poset = build_poset(elements, incidence)
    with pytest.raises(IncidenceIdentityViolation) as err:
        CWComplex(poset, incidence)
    assert err.value.pairs == [("a", "f"), ("b", "f")]
    assert str(err.value) == "incidence identity fails for: (a, f), (b, f)"
    with pytest.raises(ValidationError, match=r"^incidence \[a:ab\] must be"):
        CWComplex(poset, {**incidence, ("a", "ab"): 2})


def test_hand_built_complex_refuses_an_incidence_off_the_covers():
    poset = build_poset([("a", 0), ("b", 0), ("e", 1)], [("a", "e"), ("b", "e")])
    with pytest.raises(ValidationError,
                       match=r"^incidence \[a:b\] on a pair that is not a cover$"):
        CWComplex(poset, {("a", "e"): -1, ("b", "e"): 1, ("a", "b"): 1})


def test_hand_built_complex_refuses_a_cover_without_incidence():
    poset = build_poset([("a", 0), ("b", 0), ("e", 1)], [("a", "e"), ("b", "e")])
    with pytest.raises(ValidationError, match=r"^cover \(b, e\) has no incidence$"):
        CWComplex(poset, {("a", "e"): -1})
    # with both faults the least pair is named
    with pytest.raises(ValidationError, match=r"^incidence \[a:b\] on a pair"):
        CWComplex(poset, {("a", "e"): -1, ("a", "b"): 1})


def test_subcomplex_is_build_cw_over_its_cells():
    rng = random.Random(31)
    bases = [torus_grid(3, 4), filled_triangle()]
    bases += [random_simplicial(rng) for _ in range(40)]
    bases += [make() for make in FIXTURES]
    for base in bases:
        picks = [random_face_closed(rng, base) for _ in range(3)]
        for cells in picks + [set(base.cells())]:
            sub = subcomplex(base, cells)
            ref = build_cw(
                [(c, base.dim(c)) for c in cells],
                {pair: sign for pair, sign in base.incidence.items()
                 if pair[0] in cells and pair[1] in cells},
            )
            assert sub.poset.dims == ref.poset.dims
            assert sub.poset.up == ref.poset.up
            assert sub.poset.down == ref.poset.down
            assert sub.incidence == ref.incidence
            # built cell by cell in sorted order, whatever the set order
            assert list(sub.incidence) == sorted(ref.incidence,
                                                 key=lambda p: (p[1], p[0]))


def _sorted_scan(cw, cells):
    """The oracle: the (class, text) of the first fault met reading cells
    in sorted order, or None."""
    for cell in sorted(cells):
        if cell not in cw.poset.dims:
            return UnknownCell, "no cell %r in the complex" % (cell,)
        missed = cw.poset.down[cell] - cells
        if missed:
            return NotASubcomplex, ("cell %r kept but its face %r dropped"
                                    % (cell, min(missed)))
    return None


def _faulted(rng, base, cells):
    """cells with zero to three seeded faults: an unknown cell, a dropped
    face of a kept cell, or a cell added without its faces."""
    cells = set(cells)
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            cells.add(rng.choice(["a", "zz", "q0000x", "h9"]))
        elif kind == 1:
            faces = sorted(f for c in cells if c in base.poset.dims
                           for f in base.poset.down[c] if f in cells)
            if faces:
                cells.discard(rng.choice(faces))
        else:
            cells.add(rng.choice([c for c in base.cells()
                                  if base.dim(c) > 0]))
    return cells


def test_check_face_closed_names_what_a_sorted_scan_names():
    rng = random.Random(41)
    seen = set()
    for base in (torus_grid(3, 4), genus2_surface()):
        for _ in range(150):
            cells = _faulted(rng, base, random_face_closed(rng, base))
            want = _sorted_scan(base, cells)
            if want is None:
                check_face_closed(base, cells)
                seen.add(None)
                continue
            with pytest.raises(want[0]) as got:
                check_face_closed(base, cells)
            assert str(got.value) == want[1]
            faults = sum(c not in base.poset.dims
                         or not base.poset.down[c] <= cells for c in cells)
            seen.add((want[0], faults > 1))
    assert seen == {None, (UnknownCell, False), (UnknownCell, True),
                    (NotASubcomplex, False), (NotASubcomplex, True)}


def test_cw_accessors():
    cw = interval()
    assert set(cw.cells()) == {"u", "v", "e"}
    assert cw.dim("e") == 1
    assert cw.sign("u", "e") == 1
    assert cw.sign("u", "v") == 0
    assert "u" in cw and "zz" not in cw


def test_subcomplex():
    tri = filled_triangle()
    boundary = [c for c in tri.cells() if tri.dim(c) < 2]
    sub = subcomplex(tri, boundary)
    assert set(sub.cells()) == set(boundary)
    assert sub.sign("u", "uv") == tri.sign("u", "uv")
    with pytest.raises(UnknownCell):
        subcomplex(tri, ["nope"])
    with pytest.raises(NotASubcomplex):
        subcomplex(tri, [c for c in tri.cells() if tri.dim(c) != 1])


def test_torus_grid_shape():
    t = torus_grid(2, 2)
    by_dim = {}
    for c in t.cells():
        by_dim[t.dim(c)] = by_dim.get(t.dim(c), 0) + 1
    assert by_dim == {0: 4, 1: 8, 2: 4}
    with pytest.raises(ValueError):
        torus_grid(1, 5)
