"""Exact matrices over a FieldSpec, the sweep's kernels and a sparse echelon.

Blocks coming off a reduction are small but often mostly zero, so the
inner loops skip zero entries; asymptotically this is still the naive
cubic algorithm (reports quote omega = 3).  Most blocks are 1x1 (every
rank-1 stalk), 2x2 or 3x3, so try_invert answers these in closed form,
with one field inverse and no echelon form, and matvec_add answers the
1x1 shape as scalars.  mul_sub, c - a.b, is the one product kernel with
small-block forms: the 1x1 shape as scalars, a 2x2 by 2x2 product fully
unrolled and a product with three columns one row at a time, its three
entries in locals; other shapes run the generic loop.  Every form makes
each entry with the loop's field operations in the loop's order: k
ascending, a product skipped when either factor is zero.  So an entry is
the same int or Fraction whichever form made it.  mul_sub builds no
matrix for a.b itself and reports a zero result as None; a reduction
step forms each head F_xz.inv with it, as 0 - F_xz.(-inv), and corrects
each surviving block with it.  mat_mul is the generic loop alone.  A
Matrix built from outside has its grid checked against its shape; the
kernels here (zeros, identity, add, sub, neg, transpose, mat_mul,
mul_sub, try_invert) and the JSON reader, which checks each row, build
with _built, which skips the re-check of a grid they shaped.
"""

from itertools import compress

from .errors import SolveFailed


class Matrix:
    """An immutable rows x cols matrix with entries in a fixed field.

    Entries are stored row-major as a list of row lists.  Nothing mutates
    a Matrix after construction; every operation returns a fresh one.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entry grid does not match %dx%d" % (rows, cols))
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def zeros(field, rows, cols):
        z = field.zero
        return _built(field, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field, n):
        z, o = field.zero, field.one
        data = [[z] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = o
        return _built(field, n, n, data)

    @classmethod
    def from_rows(cls, field, rows_of_ints):
        data = [[field.from_int(v) for v in row] for row in rows_of_ints]
        r = len(data)
        c = len(data[0]) if data else 0
        return cls(field, r, c, data)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.format(v) for v in row) for row in self.data
        )
        return "Matrix(%dx%d [%s])" % (self.rows, self.cols, body)

    def is_zero(self):
        return not any(map(any, self.data))

    def copy_data(self):
        return [row[:] for row in self.data]

    def transpose(self):
        data = [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return _built(self.field, self.cols, self.rows, data)

    def add(self, other):
        _check_same_shape(self, other)
        f = self.field
        data = [
            [f.add(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)
        ]
        return _built(f, self.rows, self.cols, data)

    def sub(self, other):
        _check_same_shape(self, other)
        f = self.field
        data = [
            [f.sub(a, b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)
        ]
        return _built(f, self.rows, self.cols, data)

    def neg(self):
        f = self.field
        data = [[f.neg(v) for v in row] for row in self.data]
        return _built(f, self.rows, self.cols, data)

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def to_json(self):
        f = self.field
        zero = f.format(f.zero)
        return [[f.format(v) if v else zero for v in row] for row in self.data]


def _built(field, rows, cols, data):
    """A Matrix over a grid a kernel shaped itself: no re-check of the shape."""
    m = object.__new__(Matrix)
    m.field = field
    m.rows = rows
    m.cols = cols
    m.data = data
    return m


def _check_same_shape(a, b):
    if a.field is not b.field and a.field != b.field:
        raise ValueError("field mismatch")
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch %dx%d vs %dx%d" % (a.rows, a.cols, b.rows, b.cols))


def mat_mul(a, b):
    """Exact matrix product, skipping products with a zero factor."""
    f = a.field
    if f is not b.field and f != b.field:
        raise ValueError("field mismatch")
    if a.cols != b.rows:
        raise ValueError("inner dimensions %d vs %d" % (a.cols, b.rows))
    add, mul, zero = f.add, f.mul, f.zero
    out = []
    for arow in a.data:
        orow = [zero] * b.cols
        for aik, brow in zip(arow, b.data):
            if aik:
                for j, bkj in enumerate(brow):
                    if bkj:
                        orow[j] = add(orow[j], mul(aik, bkj))
        out.append(orow)
    return _built(f, a.rows, b.cols, out)


def mul_sub(c, a, b):
    """c - a.b as a new Matrix, or None when it is zero.

    A c of None stands for the zero map of a's rows and b's columns.  The
    product is subtracted entry by entry as it is formed, skipping zero
    entries of either factor, so no matrix holds a.b itself.  The 1x1,
    2x2 and three-column shapes skip the loop after the checks (see the
    module docstring).
    """
    f = a.field
    if f is not b.field and f != b.field:
        raise ValueError("field mismatch")
    if a.cols != b.rows:
        raise ValueError("inner dimensions %d vs %d" % (a.cols, b.rows))
    if c is not None:
        if c.field is not f and c.field != f:
            raise ValueError("field mismatch")
        if c.rows != a.rows or c.cols != b.cols:
            raise ValueError("shape mismatch %dx%d vs %dx%d"
                             % (c.rows, c.cols, a.rows, b.cols))
    sub, mul = f.sub, f.mul
    if a.rows == 1 and a.cols == 1 and b.cols == 1:
        v = f.zero if c is None else c.data[0][0]
        x = a.data[0][0]
        y = b.data[0][0]
        if x and y:
            v = sub(v, mul(x, y))
        return _built(f, 1, 1, [[v]]) if v else None
    if a.rows == 2 and a.cols == 2 and b.cols == 2:
        (p, q), (r, s) = a.data
        (t, u), (v, w) = b.data
        if c is None:
            e00 = e01 = e10 = e11 = f.zero
        else:
            (e00, e01), (e10, e11) = c.data
        if p and t:
            e00 = sub(e00, mul(p, t))
        if q and v:
            e00 = sub(e00, mul(q, v))
        if p and u:
            e01 = sub(e01, mul(p, u))
        if q and w:
            e01 = sub(e01, mul(q, w))
        if r and t:
            e10 = sub(e10, mul(r, t))
        if s and v:
            e10 = sub(e10, mul(s, v))
        if r and u:
            e11 = sub(e11, mul(r, u))
        if s and w:
            e11 = sub(e11, mul(s, w))
        if e00 or e01 or e10 or e11:
            return _built(f, 2, 2, [[e00, e01], [e10, e11]])
        return None
    z = f.zero
    if b.cols == 3:
        out = []
        for arow, (e0, e1, e2) in zip(a.data, [(z, z, z)] * a.rows
                                      if c is None else c.data):
            for x, (y0, y1, y2) in zip(arow, b.data):
                if x:
                    if y0:
                        e0 = sub(e0, mul(x, y0))
                    if y1:
                        e1 = sub(e1, mul(x, y1))
                    if y2:
                        e2 = sub(e2, mul(x, y2))
            out.append([e0, e1, e2])
    else:
        if c is None:
            out = [[z] * b.cols for _ in range(a.rows)]
        else:
            out = [row[:] for row in c.data]
        for arow, orow in zip(a.data, out):
            for aik, brow in zip(arow, b.data):
                if aik:
                    for j, bkj in enumerate(brow):
                        if bkj:
                            orow[j] = sub(orow[j], mul(aik, bkj))
    if any(map(any, out)):
        return _built(f, a.rows, b.cols, out)
    return None


def matvec(a, vec):
    """Apply a to a coordinate vector given as a plain list."""
    if len(vec) != a.cols:
        raise ValueError("vector length %d, matrix wants %d" % (len(vec), a.cols))
    out = [a.field.zero] * a.rows
    matvec_add(a, vec, out)
    return out


def matvec_add(a, vec, target):
    """target += a . vec over a's field, in place, skipping zero work."""
    f = a.field
    if a.rows == 1 and a.cols == 1:
        x = a.data[0][0]
        v = vec[0]
        if x and v:
            target[0] = f.add(target[0], f.mul(x, v))
        return
    for i, row in enumerate(a.data):
        acc = target[i]
        for rv, v in zip(row, vec):
            if rv and v:
                acc = f.add(acc, f.mul(rv, v))
        target[i] = acc


def try_invert(a):
    """Exact two-sided inverse, or None when the matrix has none.

    Non-square input also yields None; the caller decides whether that is
    exceptional.  Up to 3x3 the inverse is the adjugate over the
    determinant, with one field inverse and no echelon form: a 1x1 matrix
    is inverted entrywise, a 2x2 one [[p, q], [r, s]] as
    det^-1 . [[s, -q], [-r, p]] with det = ps - qr, and a 3x3 one from its
    nine 2x2 cofactors.  A larger square matrix of full rank reduces to the
    identity, so its echelon transform is the inverse.
    """
    if a.rows != a.cols:
        return None
    f = a.field
    if a.rows == 1:
        v = a.data[0][0]
        return _built(f, 1, 1, [[f.inv(v)]]) if v else None
    if a.rows == 2:
        (p, q), (r, s) = a.data
        mul, neg, z = f.mul, f.neg, f.zero
        det = mul(p, s) if p and s else z
        if q and r:
            det = f.sub(det, mul(q, r))
        if not det:
            return None
        d = f.inv(det)
        return _built(f, 2, 2, [
            [mul(d, s) if s else z, neg(mul(d, q)) if q else z],
            [neg(mul(d, r)) if r else z, mul(d, p) if p else z],
        ])
    if a.rows == 3:
        (p, q, r), (s, t, u), (v, w, x) = a.data
        adj = [[_det2(f, t, u, w, x), _det2(f, r, q, x, w), _det2(f, q, r, t, u)],
               [_det2(f, u, s, x, v), _det2(f, p, r, v, x), _det2(f, r, p, u, s)],
               [_det2(f, s, t, v, w), _det2(f, q, p, w, v), _det2(f, p, q, s, t)]]
        det = f.zero
        for e, c in ((p, adj[0][0]), (q, adj[1][0]), (r, adj[2][0])):
            if e and c:
                det = f.add(det, f.mul(e, c))
        if not det:
            return None
        d = f.inv(det)
        mul, z = f.mul, f.zero
        return _built(f, 3, 3, [[mul(d, c) if c else z for c in row]
                                for row in adj])
    ech = EchelonSolver(a)
    if ech.rank != a.rows:
        return None
    return _built(a.field, a.rows, a.cols, [
        [row.get(a.cols + j, rz) for j in range(a.rows)] for row, rz in ech._reduced])


def _det2(f, p, q, r, s):
    """ps - qr, skipping products with a zero factor."""
    d = f.mul(p, s) if p and s else f.zero
    return f.sub(d, f.mul(q, r)) if q and r else d


class EchelonSolver:
    """Reduced row echelon form of one matrix, by Gauss-Jordan on sparse rows.

    Rows are {column: entry} dicts with an implicit zero each, made only
    for rows some entry reaches: an echelon costs its entries, not its
    shape.  Each entry gets the dense loop's value and type (int or
    Fraction): the pivot is the first row in the current order at or below
    r holding a nonzero, rows swap places as in a grid, scaling scales the
    implicit zero too (0 becomes Fraction(0) under a Fraction inverse), and
    a computed zero is dropped only where the implicit zero reads the same.
    An echelon that solves (that of a Matrix, whose E try_invert reads as
    the inverse, or of_rows when asked) carries E, with E.A reduced, as the
    columns cols + i, from an identity entry per stored row.
    """

    def __init__(self, a):
        rows = {i: dict(enumerate(row)) for i, row in enumerate(a.data)}
        self._eliminate(a.field, a.rows, a.cols, rows, True)

    @classmethod
    def of_rows(cls, field, nrows, ncols, rows, transform):
        """The echelon of rows, {row: {column: entry}}, taken over."""
        ech = object.__new__(cls)
        ech._eliminate(field, nrows, ncols, rows, transform)
        return ech

    def _eliminate(self, f, nrows, ncols, rows, transform):
        self.field, self.rows, self.cols = f, nrows, ncols
        self._solves, self._rows = transform, rows
        pivots, one, mul, sub = [], f.one, f.mul, f.sub
        zero = self._zero = dict.fromkeys(rows, f.zero)
        holders = {}  # column of A -> rows that have held a nonzero there
        for i, row in rows.items():
            for j in compress(row, row.values()):
                holders.setdefault(j, set()).add(i)
            if transform:
                row[ncols + i] = one
        place = self._place = {i: i for i in rows}  # row -> position
        at = dict(place)  # position -> row, None where an unmade row sits
        for col in sorted(holders):
            r = len(pivots)
            held = [i for i in holders.pop(col) if rows[i].get(col)]
            below = [i for i in held if place[i] >= r]
            if not below:
                continue
            best = below[0] if len(below) == 1 else min(below, key=place.get)
            if place[best] != r:
                moved = at[place[best]] = at.get(r)
                if moved is not None:
                    place[moved] = place[best]
                at[r], place[best] = best, r
            wr = rows[best]
            if wr[col] != one:
                pinv = f.inv(wr[col])
                for j, v in wr.items():
                    wr[j] = mul(pinv, v)
                zero[best] = mul(pinv, zero[best])
            live = [(j, v) for j, v in wr.items() if v]
            for i in held:
                wi, zi, factor = rows[i], zero[i], rows[i][col]
                for j, v in live if i != best else ():
                    new = sub(wi.get(j, zi), mul(factor, v))
                    if new:
                        if j < ncols:
                            holders[j].add(i)
                    elif type(new) is type(zi):
                        wi.pop(j, None)
                        continue
                    wi[j] = new
            pivots.append(col)
        self.pivots, self.rank = pivots, len(pivots)
        self._reduced = [(rows[at[p]], zero[at[p]]) for p in range(self.rank)]

    def kernel_basis(self):
        """Columns spanning the kernel as a Matrix, one per free column j
        with a 1 in slot j, so distinct vectors are visibly independent."""
        f, free = self.field, sorted(set(range(self.cols)) - set(self.pivots))
        data = [[f.zero] * len(free) for _ in range(self.cols)]
        for k, j in enumerate(free):
            data[j][k] = f.one
            for pc, (row, rz) in zip(self.pivots, self._reduced):
                data[pc][k] = f.neg(row.get(j, rz))
        return Matrix(f, self.cols, len(free), data)

    def solve(self, b):
        """One solution x of A.x = b (free variables zero), or None if none:
        E.b must vanish past the rank, and so must b on rows never made.
        Raises SolveFailed if b has the wrong length or the echelon was made
        without its transform."""
        if len(b) != self.rows:
            raise SolveFailed("rhs length %d, expected %d" % (len(b), self.rows))
        if not self._solves:
            raise SolveFailed("echelon made without its transform")
        f, n = self.field, self.cols
        if any(i not in self._rows for i in compress(range(len(b)), b)):
            return None
        x = [f.zero] * n
        for i, row in self._rows.items():
            acc = f.zero
            for j, t in row.items():
                if j >= n and t and b[j - n]:
                    acc = f.add(acc, f.mul(t, b[j - n]))
            if self._place[i] < self.rank:
                x[self.pivots[self._place[i]]] = acc
            elif acc:
                return None
        return x
