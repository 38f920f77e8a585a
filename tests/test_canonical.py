"""Canonical rationals: every value computed over Q is an int when it is
integral and of the one non-integral type otherwise, and elimination does
not depend on the order of its rows."""

import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scythe.cohomology import betti
from scythe.equivalence import StepMaps, lift_cocycle, project_cocycle
from scythe.field import RATIONAL
from scythe.matrix import (
    EchelonSolver, Matrix, mat_mul, matvec, mul_sub, try_invert,
)
from scythe.morse import scythe
from scythe.sheaf import compile_sheaf

from randgen import TWISTED_SUMS, twisted_torus_sum
from test_field_matrix import _ECHELON_FIELDS, _grids, _mixed_entries
from test_sheaf import _rebased

# the type of a non-integral rational, read off a value rather than named
RATIO = type(RATIONAL.parse("1/2"))


def _elements(obj):
    """Every field element inside obj: matrices, step records, and the
    values of dicts, lists and tuples."""
    if isinstance(obj, Matrix):
        for row in obj.data:
            yield from row
    elif isinstance(obj, StepMaps):
        yield from _elements([obj.inv, obj.up, obj.down])
    elif isinstance(obj, Mapping):
        for v in obj.values():
            yield from _elements(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _elements(v)
    elif obj is not None:
        yield obj


def _stray(obj):
    """The elements of obj that are not canonical: an integral Fraction, or
    a non-integral value of another type than RATIO."""
    return [v for v in _elements(obj) if type(v) is not int
            and (type(v) is not RATIO or v.denominator == 1)]


def test_stray_finds_what_is_not_canonical():
    assert _stray([Matrix(RATIONAL, 1, 2, [[1, Fraction(1, 2)]]),
                   {"a": [RATIONAL.inv(3)]}]) == []
    assert _stray([[Fraction(2, 1)], (Fraction(1, 2),)]) == [
        Fraction(2), Fraction(1, 2)]


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_kernels_over_q_compute_only_canonical_values(r, k, c, data):
    a = Matrix(RATIONAL, r, k, data.draw(_grids(r, k)))
    b = Matrix(RATIONAL, k, c, data.draw(_grids(k, c)))
    cm = Matrix(RATIONAL, r, c, data.draw(_grids(r, c)))
    square = Matrix(RATIONAL, r, r, data.draw(_grids(r, r)))
    ech = EchelonSolver(a)
    x = [RATIONAL.from_int(v) for v in data.draw(_grids(1, k))[0]]
    assert _stray([mul_sub(cm, a, b), mul_sub(None, a, b), mat_mul(a, b),
                   try_invert(square), ech._reduced, ech.kernel_basis(),
                   ech.solve(matvec(a, x))]) == []


def test_other_operands_get_fractions_own_answer():
    # floats are no field elements, but mixing one in behaves as Fraction
    half = RATIONAL.parse("1/2")
    assert (half + 0.25, 2.0 * half, -half / 0.5) == (0.75, 1.0, -1.0)
    assert type(half * 2.0) is float
    with pytest.raises(TypeError):
        half + "1"


def _tracked(param):
    """A tracked sweep's blocks, steps and fold, then the projection and
    the lift of every flagged generator."""
    eq = scythe(param, track_equivalence=True).equivalence
    moved = []
    for cx, transport in ((eq.src_complex, project_cocycle),
                          (eq.dst_complex, lift_cocycle)):
        for n, gens in betti(cx, generators=True).generators.items():
            moved += [transport(eq, gens.column(j), n) for j in range(gens.cols)]
    return [param.maps, eq.steps, eq._maps(), moved]


@given(st.integers(0, 2 ** 32), st.sampled_from(TWISTED_SUMS),
       st.integers(3, 4))
@settings(max_examples=20, deadline=None)
def test_sweep_fold_and_transport_over_q_compute_only_canonical_values(
        seed, kinds, cols):
    rng = random.Random(seed)
    sheaf = _rebased(rng, twisted_torus_sum(rng, 3, cols, kinds, RATIONAL))
    param = compile_sheaf(sheaf)
    assert _stray(param.maps) == []
    assert _stray(_tracked(param)) == []


def _echelon_view(ech, b):
    """What an echelon must give whatever the order of its rows: rank,
    pivots, the reduced rows on A's columns, the kernel basis and the
    solution of A.x = b."""
    reduced = [sorted((j, v) for j, v in row.items() if j < ech.cols)
               for row in ech._reduced]
    return repr((ech.rank, ech.pivots, reduced, ech.kernel_basis().data,
                 ech.solve(b)))


@given(st.sampled_from(sorted(_ECHELON_FIELDS)), st.integers(1, 5),
       st.integers(1, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_does_not_depend_on_the_order_of_rows(name, r, c, data):
    f = _ECHELON_FIELDS[name]
    entries = (_mixed_entries if f.p is None
               else st.integers(0, f.p - 1))
    grid = data.draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    order = data.draw(st.permutations(range(r)))
    m = Matrix(f, r, c, grid)
    shuffled = Matrix(f, r, c, [grid[i] for i in order])
    x = [f.from_int(v) for v in data.draw(
        st.lists(entries, min_size=c, max_size=c))]
    b = matvec(m, x)
    assert (_echelon_view(EchelonSolver(m), b)
            == _echelon_view(EchelonSolver(shuffled), [b[i] for i in order]))
