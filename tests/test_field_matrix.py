import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scythe.errors import NotInvertible, ParseError, SolveFailed
from scythe.field import RATIONAL, FieldSpec, fp
from scythe.matrix import EchelonSolver, Matrix, mat_mul, matvec, try_invert

from oracles import ref_rank


def test_field_kinds():
    assert RATIONAL.kind == "rational"
    assert fp(5).p == 5
    with pytest.raises(ParseError):
        fp(6)
    with pytest.raises(ParseError):
        fp(1)
    with pytest.raises(ParseError):
        FieldSpec("real")
    with pytest.raises(ParseError):
        FieldSpec("rational", 7)


def test_field_arithmetic_rational():
    f = RATIONAL
    a = f.parse("3/4")
    b = f.parse("-2")
    assert f.add(a, b) == Fraction(-5, 4)
    assert f.mul(a, b) == Fraction(-3, 2)
    assert f.inv(a) == Fraction(4, 3)
    assert f.format(f.parse("6/4")) == "3/2"
    with pytest.raises(ParseError):
        f.parse("x")


def test_field_arithmetic_fp():
    f = fp(7)
    assert f.parse("-1") == 6
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.format(f.parse("10")) == "3"


def test_field_json_roundtrip():
    for f in (RATIONAL, fp(2), fp(97)):
        assert FieldSpec.from_json(f.to_json()) == f
    with pytest.raises(ParseError):
        FieldSpec.from_json({"kind": "fp", "p": 4})
    with pytest.raises(ParseError):
        FieldSpec.from_json("rational")


@given(st.fractions(max_denominator=50))
@settings(max_examples=60, deadline=None)
def test_rational_format_parse_roundtrip(q):
    assert RATIONAL.parse(RATIONAL.format(q)) == q


def test_matrix_basics():
    f = RATIONAL
    m = Matrix.from_rows(f, [[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert mat_mul(m, Matrix.identity(f, 2)).data == m.data
    assert matvec(m, [f.one, f.zero]) == [Fraction(1), Fraction(3)]
    assert m.sub(m).is_zero()
    assert m.add(m.neg()).is_zero()
    assert m.transpose().data[0][1] == Fraction(3)
    assert Matrix.zeros(f, 0, 3).is_zero()


def test_try_invert():
    f = RATIONAL
    m = Matrix.from_rows(f, [[2, 1], [1, 1]])
    inv = try_invert(m)
    assert mat_mul(m, inv).data == Matrix.identity(f, 2).data
    assert mat_mul(inv, m).data == Matrix.identity(f, 2).data
    assert try_invert(Matrix.from_rows(f, [[1, 2], [2, 4]])) is None
    assert try_invert(Matrix.from_rows(f, [[1, 2, 3], [4, 5, 6]])) is None
    empty = try_invert(Matrix.zeros(f, 0, 0))
    assert empty is not None and empty.rows == 0


def test_rank_against_reference():
    rng = random.Random(11)
    for trial in range(60):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        grid = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        f = RATIONAL if trial % 2 == 0 else fp(5)
        p = None if trial % 2 == 0 else 5
        m = Matrix.from_rows(f, grid)
        assert EchelonSolver(m).rank == ref_rank(grid, p)


def test_solver_kernel_and_image():
    f = RATIONAL
    m = Matrix.from_rows(f, [[1, 2, 3], [2, 4, 6]])
    s = EchelonSolver(m)
    assert s.rank == 1
    basis = s.kernel_basis()
    assert basis.cols == 2
    for j in range(basis.cols):
        assert all(x == f.zero for x in matvec(m, basis.column(j)))
    sol = s.solve([f.from_int(1), f.from_int(2)])
    assert matvec(m, sol) == [Fraction(1), Fraction(2)]
    assert s.in_image([f.from_int(1), f.from_int(2)])
    assert not s.in_image([f.from_int(1), f.from_int(3)])
    assert s.solve([f.from_int(1), f.from_int(3)]) is None
    with pytest.raises(SolveFailed):
        s.solve([f.from_int(1)])


def test_solver_random_consistency():
    rng = random.Random(23)
    for trial in range(40):
        f = fp(5) if trial % 3 == 0 else RATIONAL
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        grid = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        m = Matrix.from_rows(f, grid)
        s = EchelonSolver(m)
        assert s.rank + s.kernel_basis().cols == cols
        x = [f.from_int(rng.randint(-2, 2)) for _ in range(cols)]
        b = matvec(m, x)
        sol = s.solve(b)
        assert matvec(m, sol) == b


def test_matrix_json():
    f = fp(7)
    m = Matrix.from_rows(f, [[-1, 9], [3, 0]])
    assert m.to_json() == [["6", "2"], ["3", "0"]]
    q = Matrix.from_rows(RATIONAL, [[Fraction(1, 2)]])
    assert q.to_json() == [["1/2"]]
