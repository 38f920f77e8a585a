import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scythe import matrix
from scythe.cohomology import _solver, cocycle_basis
from scythe.errors import NotInvertible, ParseError, SolveFailed
from scythe.field import RATIONAL, FieldSpec, fp
from scythe.matrix import (
    EchelonSolver, Matrix, mat_mul, matvec, mul_sub, try_invert,
)

from oracles import (
    DenseEchelon, dense_coboundary, loop_mat_mul, loop_mul_sub, ref_product,
    ref_rank, ref_solve,
)
from test_morse import _record_inputs


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
    with pytest.raises(ParseError, match=r"^unknown field kind 'real'$"):
        FieldSpec.from_json({"kind": "real"})


def test_field_and_matrix_reprs():
    # pytest prints these when a comparison fails
    assert repr(RATIONAL) == "FieldSpec('rational')"
    assert repr(fp(5)) == "FieldSpec('fp', 5)"
    m = Matrix.from_rows(RATIONAL, [[1, 0], [0, -1]])
    assert repr(m.add(Matrix(RATIONAL, 2, 2, [[0, Fraction(1, 2)], [0, 0]]))) \
        == "Matrix(2x2 [1 1/2; 0 -1])"


@given(st.fractions(max_denominator=50))
@settings(max_examples=60, deadline=None)
def test_rational_format_parse_roundtrip(q):
    assert RATIONAL.parse(RATIONAL.format(q)) == q


@pytest.mark.parametrize("text", [
    "3", "-0", "+3", " 7 ", "2/4", "4/2", "1.5", "1e3", "1_0", "\u0663",
    "--3", "+-3", "0x10", "", "1/0",
])
def test_rational_parse_matches_fraction(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError):
            RATIONAL.parse(text)
        return
    assert RATIONAL.parse(text) == want


def test_integral_rationals_are_ints():
    f = RATIONAL
    integral = [f.zero, f.one, f.parse("4/2"), f.parse("1e3"), f.parse("-0"),
                f.parse("1.0"), f.from_int(-5), f.from_int(Fraction(6, 3)),
                f.inv(1), f.inv(-1), f.inv(Fraction(1, 2)), f.inv(Fraction(-1))]
    assert all(type(v) is int for v in integral)
    assert integral[-4:] == [1, -1, 2, -1]
    assert type(f.inv(2)) is Fraction and f.inv(2) == Fraction(1, 2)
    assert type(f.parse("2/4")) is Fraction
    assert f.format(Fraction(3)) == f.format(3) == "3"
    assert f.format(Fraction(-6, 4)) == "-3/2"


@pytest.mark.parametrize("text", [
    "1e5000", "1e-5000", "1e999999999", "1" + "0" * 5000,
])
def test_rational_literal_beyond_digit_limit_fails_fast(digit_limit, text):
    start = time.perf_counter()
    with pytest.raises(ParseError):
        RATIONAL.parse(text)
    assert time.perf_counter() - start < 1.0


def test_rational_exponent_bound_follows_digit_limit(digit_limit):
    assert RATIONAL.parse("1e4300") == 10 ** 4300
    assert RATIONAL.parse("1e-4300") == Fraction(1, 10 ** 4300)
    sys.set_int_max_str_digits(0)  # disabled: exponents are unbounded
    assert RATIONAL.parse("1e5000") == 10 ** 5000


def test_rational_literal_with_a_non_integer_exponent_is_refused(digit_limit):
    # "x" after the e is no exponent, so Fraction gives the verdict
    with pytest.raises(ParseError, match=r"^bad rational literal '1ex'$"):
        RATIONAL.parse("1ex")


_mixed_entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def _grids(rows, cols):
    return st.lists(st.lists(_mixed_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _mixed(grid, cols):
    return Matrix(RATIONAL, len(grid), cols, [list(r) for r in grid])


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_mat_mul_on_mixed_entries_matches_fraction_reference(r, k, c, data):
    a = data.draw(_grids(r, k))
    b = data.draw(_grids(k, c))
    assert mat_mul(_mixed(a, k), _mixed(b, c)).data == ref_product(a, b, c)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_echelon_on_mixed_entries_matches_fraction_reference(r, c, data):
    grid = data.draw(_grids(r, c))
    rhs = data.draw(st.lists(_mixed_entries, min_size=r, max_size=r))
    m = _mixed(grid, c)
    s = EchelonSolver(m)
    assert s.rank == ref_rank(grid)
    assert s.solve(rhs) == ref_solve(grid, [rhs])[0]
    kernel = s.kernel_basis()
    assert kernel.cols == c - s.rank
    assert not any(any(v) for v in ref_product(grid, kernel.data, kernel.cols))


@given(st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_try_invert_on_mixed_entries_matches_fraction_reference(n, data):
    grid = data.draw(_grids(n, n))
    inv = try_invert(_mixed(grid, n))
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    columns = ref_solve(grid, units)
    if ref_rank(grid) < n:
        assert inv is None
    else:
        assert inv.data == [[columns[j][i] for j in range(n)] for i in range(n)]


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
    assert s.solve([f.from_int(1), f.from_int(3)]) is None
    with pytest.raises(SolveFailed):
        s.solve([f.from_int(1)])


def _assert_echelons_agree(sparse, dense, rhs):
    """The sparse echelon against the dense oracle: rank, pivots and the
    kernel basis by repr, so an int and an integral Fraction differ, and
    solve by value on each right-hand side."""
    assert (sparse.rank, sparse.pivots) == (dense.rank, dense.pivots)
    assert repr(sparse.kernel_basis().data) == repr(dense.kernel_basis().data)
    for b in rhs:
        assert sparse.solve(b) == dense.solve(b)


_ECHELON_FIELDS = {"Q": RATIONAL, "F2": fp(2), "F5": fp(5)}


@given(st.sampled_from(sorted(_ECHELON_FIELDS)), st.integers(0, 5),
       st.integers(0, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_echelon_matches_dense_oracle(name, r, c, data):
    # over Q the entries mix ints, non-unit Fractions and stored
    # Fraction(0); try_invert reads the transform from 4x4 up, so its
    # inverse is pinned too.  Rows given without their int zeros make the
    # eliminator read its implicit zeros as well
    f = _ECHELON_FIELDS[name]
    if f.p is None:
        entries = st.one_of(st.just(0), _mixed_entries, st.just(Fraction(0)))
    else:
        entries = st.integers(0, f.p - 1)
    grid = data.draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                              min_size=r, max_size=r))
    m = Matrix(f, r, c, grid)
    x = data.draw(st.lists(entries, min_size=c, max_size=c))
    b = data.draw(st.lists(entries, min_size=r, max_size=r))
    dense = DenseEchelon(m)
    rows = {i: {j: v for j, v in enumerate(row) if v or type(v) is not int}
            for i, row in enumerate(grid)}
    for sparse in (EchelonSolver(m), EchelonSolver.of_rows(f, r, c, rows, True)):
        _assert_echelons_agree(sparse, dense, [matvec(m, x), b])
    if r == c > 3 and dense.rank == r:
        assert repr(try_invert(m).data) == repr(dense.transform)


def test_sparse_echelons_of_record_inputs_match_dense_oracle():
    # the echelons cohomology builds from the blocks of every record
    # input, against the oracle on the stacked d^n and [d^{n-1} | kernel]
    rng = random.Random(31)
    for f in (RATIONAL, fp(5)):
        for param in _record_inputs(f):
            cx = param.assemble()
            for n in range(cx.top + 1):
                dense = DenseEchelon(dense_coboundary(cx, n))
                _assert_echelons_agree(_solver(cx, n), dense, [])
                basis = cocycle_basis(cx, n)
                bound = dense_coboundary(cx, n - 1)
                stacked = Matrix(f, bound.rows, bound.cols + basis.matrix.cols,
                                 [u + v for u, v in zip(bound.data,
                                                        basis.matrix.data)])
                below = [f.from_int(rng.randint(-2, 2))
                         for _ in range(bound.cols)]
                noise = [f.from_int(rng.randint(-2, 2))
                         for _ in range(bound.rows)]
                rhs = [matvec(bound, below), noise]
                rhs += [basis.matrix.column(j)
                        for j in range(basis.matrix.cols)]
                # the classes rows drop the kernel's zeros, so only the
                # pivots and the solutions, both read by value, must agree
                classes = DenseEchelon(stacked)
                assert basis.classes.pivots == classes.pivots
                for b in rhs:
                    assert basis.classes.solve(b) == classes.solve(b)


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


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division():
    from scythe.field import _is_prime
    assert [n for n in range(20000) if _is_prime(n)] == [
        n for n in range(20000) if _trial_division(n)]
    # strong pseudoprimes to the leading bases, Carmichael numbers, and
    # primes next to the 2^64 bound
    for n in (3215031751, 3825123056546413051, 561, 41041, 2 ** 64 - 1):
        assert not _is_prime(n)
    for n in (2 ** 61 - 1, 2 ** 64 - 59, 100000000000031):
        assert _is_prime(n)


@pytest.mark.parametrize("p", [100000000000031, 10000000000000061])
def test_large_prime_modulus_builds_fast(p):
    start = time.perf_counter()
    assert fp(p).p == p
    assert time.perf_counter() - start < 0.1


def test_modulus_of_2_64_or_more_is_refused():
    assert fp(2 ** 64 - 59).p == 2 ** 64 - 59
    for p in (2 ** 64, 10 ** 30 + 57, 10 ** 5000):
        with pytest.raises(ParseError, match=r"below 2\^64"):
            fp(p)


def _fp_grids(rows, cols, p):
    return st.lists(st.lists(st.integers(0, p - 1), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


def _field_of(p):
    return RATIONAL if p is None else fp(p)


# products of a 1x1, 1xk or kx1 block, beside general shapes
_PRODUCT_SHAPES = st.one_of(
    st.just((1, 1, 1)),
    st.tuples(st.just(1), st.integers(1, 4), st.just(1)),
    st.tuples(st.integers(1, 4), st.just(1), st.integers(1, 4)),
    st.tuples(st.just(1), st.just(1), st.integers(2, 4)),
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
)


@pytest.mark.parametrize("p", [5, 2])
@given(_PRODUCT_SHAPES, st.data())
@settings(max_examples=80, deadline=None)
def test_mat_mul_over_fp_matches_reference(p, shape, data):
    r, k, c = shape
    a = data.draw(_fp_grids(r, k, p))
    b = data.draw(_fp_grids(k, c, p))
    want = [[int(v) % p for v in row] for row in ref_product(a, b, c)]
    f = fp(p)
    assert mat_mul(Matrix(f, r, k, a), Matrix(f, k, c, b)).data == want


@pytest.mark.parametrize("p", [5, 2])
@given(st.one_of(st.just(1), st.integers(0, 4)), st.data())
@settings(max_examples=80, deadline=None)
def test_try_invert_over_fp_matches_reference(p, n, data):
    grid = data.draw(_fp_grids(n, n, p))
    inv = try_invert(Matrix(fp(p), n, n, grid))
    units = [[int(i == j) for i in range(n)] for j in range(n)]
    columns = ref_solve(grid, units, p)
    if ref_rank(grid, p) < n:
        assert inv is None
    else:
        assert inv.data == [[columns[j][i] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("p", [None, 5, 2])
@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 3), (3, 1)])
def test_try_invert_small_blocks(p, rows, cols):
    f = _field_of(p)
    zero = Matrix.zeros(f, rows, cols)
    assert try_invert(zero) is None
    ones = Matrix.from_rows(f, [[1] * cols for _ in range(rows)])
    assert (try_invert(ones) is None) == (rows != 1 or cols != 1)
    if rows == cols == 1 and p != 2:
        assert try_invert(Matrix.from_rows(f, [[2]])).data == [[f.inv(2)]]


@pytest.mark.parametrize("p", [None, 5, 2])
@given(st.integers(-9, 9), st.integers(-9, 9), st.fractions(max_denominator=6))
@settings(max_examples=60, deadline=None)
def test_one_by_one_add_sub_neg_match_plain_arithmetic(p, x, y, q):
    f = _field_of(p)
    if p is None:
        x = x + q  # a Fraction on one side, an int on the other
        reduce = lambda v: v  # noqa: E731
    else:
        reduce = lambda v: v % p  # noqa: E731
    a = Matrix(f, 1, 1, [[reduce(x)]])
    b = Matrix(f, 1, 1, [[reduce(y)]])
    assert a.add(b).data == [[reduce(x + y)]]
    assert a.sub(b).data == [[reduce(x - y)]]
    assert a.neg().data == [[reduce(-x)]]
    assert mat_mul(a, b).data == [[reduce(x * y)]]


# the correction kernel's shapes: 1x1 beside everything up to 3x3x3
_MUL_SUB_SHAPES = st.one_of(
    st.just((1, 1, 1)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)


@pytest.mark.parametrize("p", [None, 5, 2])
@given(_MUL_SUB_SHAPES, st.sampled_from(["none", "drawn", "product"]),
       st.data())
@settings(max_examples=80, deadline=None)
def test_mul_sub_matches_sub_of_product(p, shape, c_kind, data):
    # c is absent, arbitrary, or exactly a.b, so zero results are common
    r, k, c = shape
    f = _field_of(p)
    if p is None:
        grids = _grids
    else:
        grids = lambda rows, cols: _fp_grids(rows, cols, p)  # noqa: E731
    a = Matrix(f, r, k, [list(row) for row in data.draw(grids(r, k))])
    b = Matrix(f, k, c, [list(row) for row in data.draw(grids(k, c))])
    if c_kind == "none":
        cm = None
    elif c_kind == "product":
        cm = mat_mul(a, b)
    else:
        cm = Matrix(f, r, c, [list(row) for row in data.draw(grids(r, c))])
    want = (cm or Matrix.zeros(f, r, c)).sub(mat_mul(a, b))
    got = mul_sub(cm, a, b)
    if want.is_zero():
        assert got is None
    else:
        assert got == want
        assert (got.rows, got.cols) == (r, c)


def _typed_entries(p):
    """Entries of Q (zeros, +-1, ints, non-integral Fractions) or of F_p
    (zeros, 1, p - 1, any residue)."""
    if p is None:
        return st.one_of(
            st.sampled_from([0, 1, -1]),
            st.integers(-10 ** 6, 10 ** 6),
            st.fractions(min_value=-9, max_value=9, max_denominator=12)
            .filter(lambda q: q.denominator != 1),
        )
    return st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))


def _reprs(grid):
    return [[repr(v) for v in row] for row in grid]


@pytest.mark.parametrize("p", [None, 2, 5, 2 ** 61 - 1],
                         ids=["Q", "F2", "F5", "F_M61"])
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(["none", "drawn", "product"]), st.data())
@settings(max_examples=100, deadline=None)
def test_product_kernels_give_the_loops_entries_and_types(p, r, k, c, c_kind,
                                                         data):
    # == cannot tell an int from an integral Fraction; repr can
    f = _field_of(p)

    def draw(rows, cols):
        grid = data.draw(st.lists(
            st.lists(_typed_entries(p), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows))
        return Matrix(f, rows, cols, grid)

    a, b = draw(r, k), draw(k, c)
    product = loop_mat_mul(a, b)
    got = mat_mul(a, b)
    assert (got.rows, got.cols) == (r, c)
    assert _reprs(got.data) == _reprs(product)
    if c_kind == "none":
        cm = None
    elif c_kind == "product":
        cm = Matrix(f, r, c, product)
    else:
        cm = draw(r, c)
    want = loop_mul_sub(cm, a, b)
    got = mul_sub(cm, a, b)
    if want is None:
        assert got is None
    else:
        assert (got.rows, got.cols) == (r, c)
        assert _reprs(got.data) == _reprs(want)


def test_add_sub_mat_mul_and_matvec_refuse_mismatched_operands():
    f = RATIONAL
    a, b = Matrix.identity(f, 2), Matrix.zeros(f, 2, 3)
    for op in (a.add, a.sub):
        with pytest.raises(ValueError, match=r"^shape mismatch 2x2 vs 2x3$"):
            op(b)
        with pytest.raises(ValueError, match=r"^field mismatch$"):
            op(Matrix.identity(fp(5), 2))
    with pytest.raises(ValueError, match=r"^inner dimensions 3 vs 2$"):
        mat_mul(b, a)
    with pytest.raises(ValueError, match=r"^field mismatch$"):
        mat_mul(a, Matrix.zeros(fp(5), 2, 3))
    with pytest.raises(ValueError, match=r"^vector length 2, matrix wants 3$"):
        matvec(b, [1, 0])


def test_solve_needs_zero_right_hand_side_on_rows_never_made():
    # row 1 holds no entry, so A.x has a zero there whatever x is
    ech = EchelonSolver.of_rows(RATIONAL, 2, 1, {0: {0: 2}}, True)
    assert ech.solve([4, 0]) == [2]
    assert ech.solve([4, 1]) is None


SOLVE_WITHOUT_TRANSFORM = """
from scythe.errors import SolveFailed
from scythe.field import RATIONAL
from scythe.matrix import EchelonSolver
ech = EchelonSolver.of_rows(RATIONAL, 2, 2, {0: {0: 2}, 1: {1: 3}}, False)
try:
    ech.solve([2, 3])
except SolveFailed as e:
    print(e)
"""


def test_solve_refuses_an_echelon_made_without_its_transform():
    ech = EchelonSolver.of_rows(RATIONAL, 2, 2, {0: {0: 2}, 1: {1: 3}}, False)
    with pytest.raises(SolveFailed,
                       match=r"^echelon made without its transform$"):
        ech.solve([2, 3])


def test_solve_refuses_it_under_optimisation_too():
    # python -O strips assert statements; the check must not be one
    src = str(pathlib.Path(matrix.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SOLVE_WITHOUT_TRANSFORM],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "echelon made without its transform\n", "")


def test_mul_sub_refuses_mismatched_operands():
    f = RATIONAL
    a, b = Matrix.identity(f, 2), Matrix.zeros(f, 2, 3)
    with pytest.raises(ValueError, match="inner dimensions"):
        mul_sub(None, b, a)
    with pytest.raises(ValueError, match="shape mismatch"):
        mul_sub(Matrix.zeros(f, 3, 2), a, b)
    with pytest.raises(ValueError, match="field mismatch"):
        mul_sub(None, a, Matrix.zeros(fp(5), 2, 3))
    with pytest.raises(ValueError, match="field mismatch"):
        mul_sub(Matrix.zeros(fp(5), 2, 3), a, b)


@pytest.mark.parametrize("p", [None, 5, 2])
@pytest.mark.parametrize("grid", [
    [[1, 2], [2, 4]], [[0, 1], [1, 0]], [[0, 1], [0, 1]], [[1, 1], [0, 1]],
    [[2, 0], [0, 3]], [[0, 0], [0, 0]], [[3, 1], [1, 2]],
    # 3x3: a permutation, unitriangular, singular over every field, det 5,
    # det 2, zero, and det 25 (a Fraction inverse over Q)
    [[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[1, 2, 3], [0, 1, 4], [0, 0, 1]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]], [[2, 1, 0], [1, 3, 0], [0, 0, 1]],
    [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[2, 0, 1], [1, 3, 0], [0, 1, 4]],
])
def test_two_by_two_inverse_is_closed_form(p, grid, monkeypatch):
    f = _field_of(p)
    m = Matrix.from_rows(f, grid)
    n = len(grid)

    def refuse(a):
        raise AssertionError("EchelonSolver built for a %dx%d inverse" % (n, n))

    monkeypatch.setattr(matrix, "EchelonSolver", refuse)
    inv = try_invert(m)
    monkeypatch.undo()
    if ref_rank(grid, p) < n:
        assert inv is None
    else:
        assert mat_mul(m, inv) == Matrix.identity(f, n)
        assert mat_mul(inv, m) == Matrix.identity(f, n)


def test_rational_inverse_table():
    inv = RATIONAL.inv
    assert inv(-1) == -1 and type(inv(-1)) is int
    assert inv(1) == 1 and type(inv(1)) is int
    assert inv(4) == Fraction(1, 4)
    assert inv(-4) == Fraction(-1, 4)
    assert inv(Fraction(1, 3)) == 3 and type(inv(Fraction(1, 3))) is int
    assert inv(Fraction(-2, 3)) == Fraction(-3, 2)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            inv(zero)


@pytest.mark.parametrize("build", [
    lambda: Matrix(RATIONAL, 2, 2, [[1, 2], [3]]),
    lambda: Matrix(RATIONAL, 2, 2, [[1, 2]]),
    lambda: Matrix(RATIONAL, 1, 1, [[1, 2]]),
    lambda: Matrix(fp(5), 1, 2, [[1]]),
    lambda: Matrix.from_rows(RATIONAL, [[1, 2], [3]]),
    lambda: Matrix.from_rows(fp(2), [[1], [0, 1]]),
], ids=["short-row", "missing-row", "long-row", "fp-short-row",
        "from-rows", "from-rows-fp"])
def test_ragged_grid_from_outside_raises(build):
    with pytest.raises(ValueError, match="entry grid does not match"):
        build()


def test_element_operations_never_read_the_kind():
    # the constructor fixes the arithmetic; overwriting kind afterwards
    # changes none of it
    q, f5 = FieldSpec("rational"), fp(5)
    for field in (q, f5):
        field.kind = "neither"
    assert [q.add(2, 4), q.sub(1, 3), q.mul(3, 4), q.neg(1), q.inv(2),
            q.from_int(7), q.parse("6/4"), q.format(Fraction(3, 2))] == [
        6, -2, 12, -1, Fraction(1, 2), 7, Fraction(3, 2), "3/2"]
    assert [f5.add(2, 4), f5.sub(1, 3), f5.mul(3, 4), f5.neg(1), f5.inv(2),
            f5.from_int(7), f5.parse("-1"), f5.format(4)] == [
        1, 3, 2, 4, 3, 2, 4, "4"]
