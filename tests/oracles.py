"""Independent reference computations the tests check the library against.

Everything here is written from scratch on purpose: plain Gaussian
elimination over Fraction or ints mod p, and Betti numbers straight from
the rank-nullity count, with coboundaries stacked here from a complex's
covering-pair blocks.  No imports from scythe's linear algebra.  The
exceptions are ref_degree_sheaf, the pipelines' degree sheaves built the
direct way on unreduced fibers with scythe's induced_map, kept as the
reference the transported restrictions are compared with; psi_matrix,
phi_matrix and theta_matrix, which densify an equivalence's sparse rows
into scythe Matrix objects for the law checks; loop_mat_mul and
loop_mul_sub, the product kernels' generic loops, which pin the value and
the type of every entry the kernels' small-block forms give; and
dense_coboundary and DenseEchelon, the stacked d^n as a scythe Matrix and
Gauss-Jordan on a dense grid with a dense transform, which pin the value
and the type of every entry the sparse echelon gives.
"""

from fractions import Fraction

from scythe.cohomology import betti, induced_map
from scythe.cw import subcomplex
from scythe.errors import SolveFailed
from scythe.matrix import Matrix
from scythe.sheaf import compile_sheaf, constant_sheaf


def adjacency_sets(adjacency):
    """{element: set of its neighbours}: a poset's up or down as the
    relation it holds, whether its values are tuples or sets."""
    return {x: set(ys) for x, ys in adjacency.items()}


def ref_rank(grid, p=None):
    """Rank by row reduction; grid is a list of rows of ints/Fractions."""
    if not grid or not grid[0]:
        return 0
    rows = [list(r) for r in grid]
    if p is None:
        rows = [[Fraction(v) for v in r] for r in rows]
    else:
        rows = [[int(v) % p for v in r] for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = (Fraction(1) / rows[rank][col] if p is None
               else pow(rows[rank][col], -1, p))
        rows[rank] = [v * inv if p is None else (v * inv) % p
                      for v in rows[rank]]
        for r in range(nrows):
            if r == rank or rows[r][col] == 0:
                continue
            c = rows[r][col]
            if p is None:
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[rank])]
            else:
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def ref_product(a, b, cols):
    """The product of grids a and b (b has cols columns), over Fraction."""
    inner = len(b)
    return [[sum((Fraction(row[k]) * Fraction(b[k][j]) for k in range(inner)),
                 Fraction(0))
             for j in range(cols)] for row in a]


def betti_from_deltas(deltas, dims, p=None):
    """Betti numbers from coboundary grids; dims[n] is the rank of C^n.

    deltas[n] maps C^n to C^{n+1} as a list-of-rows grid (possibly []).
    """
    top = len(dims) - 1
    out = []
    for n in range(top + 1):
        r_n = ref_rank(deltas[n], p) if n < top else 0
        r_prev = ref_rank(deltas[n - 1], p) if n > 0 else 0
        out.append(dims[n] - r_n - r_prev)
    return out


def coboundary_grid(cx, n):
    """d^n of cx as a plain grid, stacked here from its layouts and blocks.

    Rows run over the cells of dimension n + 1 and columns over those of
    dimension n, each cell spanning its stalk rank in layout order; a
    dimension without a layout contributes no rows or columns.
    """
    def offsets(k):
        layout = cx.layouts.get(k)
        out, total = {}, 0
        for c in (layout.cells if layout is not None else []):
            out[c] = total
            total += layout.ranks[c]
        return out, total

    (cols, width), (rows, height) = offsets(n), offsets(n + 1)
    grid = [[0] * width for _ in range(height)]
    for (x, y), m in cx.blocks.items():
        if x in cols and y in rows:
            for i in range(m.rows):
                for j in range(m.cols):
                    grid[rows[y] + i][cols[x] + j] = m.data[i][j]
    return grid


def dense_coboundary(cx, n):
    """d^n of cx as a scythe Matrix over its field, stacked by
    coboundary_grid: zero-shaped outside the degree range."""
    return Matrix(cx.field, cx.rank_c(n + 1), cx.rank_c(n),
                  coboundary_grid(cx, n))


def complex_to_grids(cx):
    """The complex's coboundaries as plain grids, stacked from its blocks."""
    dims = [cx.rank_c(n) for n in range(cx.top + 1)]
    return [coboundary_grid(cx, n) for n in range(cx.top + 1)], dims


def ref_betti(cx, p=None):
    """Betti numbers of an assembled complex, via the reference elimination."""
    deltas, dims = complex_to_grids(cx)
    return betti_from_deltas(deltas, dims, p)


def ref_d_squared_witnesses(cx, p=None):
    """(n, target cell, source cell) for every nonzero block of d^{n+1} d^n.

    Multiplies the assembled coboundaries as plain grids and scans the
    product block by block, target cells then source cells in layout
    order: the dense check the library made before it checked d-squared
    one interval at a time.
    """
    deltas, dims = complex_to_grids(cx)
    witnesses = []
    for n in range(len(dims) - 2):
        first, second = deltas[n], deltas[n + 1]
        prod = []
        for row in second:
            out = []
            for j in range(dims[n]):
                v = sum(row[k] * first[k][j] for k in range(dims[n + 1]))
                out.append(v if p is None else v % p)
            prod.append(out)
        src, dst = cx.layout(n), cx.layout(n + 2)
        for t in dst.cells:
            r0, r1 = slot(dst, t)
            for s in src.cells:
                c0, c1 = slot(src, s)
                if any(prod[i][j] != 0
                       for i in range(r0, r1) for j in range(c0, c1)):
                    witnesses.append((n, t, s))
    return witnesses


def slot(layout, cell):
    """The coordinates [start, stop) of cell's block in layout."""
    off = layout.offsets[cell]
    return off, off + layout.ranks[cell]


def ref_coboundary(cx, vec, n, p=None):
    """d^n vec as a plain list, by the dense row-times-vector sum.

    vec is a cochain of C^n; beyond the top dimension the image is empty.
    """
    if n >= cx.top:
        return []
    deltas, _ = complex_to_grids(cx)
    out = []
    for row in deltas[n]:
        v = sum(a * b for a, b in zip(row, vec))
        out.append(v if p is None else v % p)
    return out


def ref_solve(grid, rhs, p=None):
    """For each right-hand side b, one x with grid . x = b, or None.

    grid is a list of rows and every b has one entry per row; the solution
    has its free variables zero.  One plain reduction of the rows augmented
    by all the right-hand sides to reduced echelon form.
    """
    ncols = len(grid[0]) if grid else 0
    conv = Fraction if p is None else (lambda v: int(v) % p)
    rows = [[conv(v) for v in row] + [conv(b[i]) for b in rhs]
            for i, row in enumerate(grid)]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = (Fraction(1) / rows[r][col] if p is None
               else pow(rows[r][col], -1, p))
        rows[r] = [v * inv if p is None else (v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i == r or c == 0:
                continue
            rows[i] = [a - c * b if p is None else (a - c * b) % p
                       for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    out = []
    for k in range(ncols, ncols + len(rhs)):
        if any(row[k] != 0 for row in rows[len(pivots):]):
            out.append(None)
            continue
        x = [0] * ncols
        for i, col in enumerate(pivots):
            x[col] = rows[i][k]
        out.append(x)
    return out


def ref_class_coordinates(cx, reps, vecs, n, p=None):
    """Coordinates of each vec on reps in [d^{n-1} | reps] . x = vec.

    reps are the flagged cocycle representatives at dimension n as plain
    columns; each solve has free variables zero, and a vec's coordinates
    are the entries of its x on the representative columns (None when
    there is no x).
    """
    deltas, dims = complex_to_grids(cx)
    bound = deltas[n - 1] if n > 0 else [[] for _ in range(dims[n])]
    grid = [list(bound[i]) + [rep[i] for rep in reps] for i in range(dims[n])]
    width = len(bound[0]) if bound else 0
    return [None if x is None else x[width:]
            for x in ref_solve(grid, vecs, p)]


def ref_degree_sheaf(base, graph, supports, n, field):
    """Degree-n stalk ranks and restrictions on graph, on unreduced fibers.

    Every support's constant sheaf is assembled without reduction; a cover
    sigma < tau with a nonzero stalk at either end gets induced_map of the
    inclusion, written in the unreduced fibers' flagged bases.  Returns the
    assembled fiber complexes, the ranks and the restrictions.
    """
    complexes = {
        name: compile_sheaf(constant_sheaf(subcomplex(base, cells), 1,
                                           field)).assemble()
        for name, cells in supports.items()
    }
    ranks = {}
    for name, cx in complexes.items():
        numbers = betti(cx).betti
        ranks[name] = numbers[n] if n < len(numbers) else 0
    restriction = {
        (s, t): induced_map(complexes[s], complexes[t], None, n)
        for s, t in graph.poset.covers() if ranks[s] or ranks[t]
    }
    return complexes, ranks, restriction


def ref_fold(eq, p=None):
    """Dense psi, phi and theta of an equivalence, folded from its steps.

    The dense fold the library made before it kept sparse rows: full-length
    psi rows and phi columns per cell, starting from the identity, and full
    theta rows, each step updated in place in removal order.  A step's
    projection blocks -F_xz.inv and lift blocks -inv.F_wy are multiplied
    out here from its inv, up and down.  Returns
    {n: grid} dicts psi, phi and theta shaped as psi_matrix(n),
    phi_matrix(n) and theta_matrix(n), for every dimension of the source.
    """
    def axpy(target, coeff, source):
        if coeff == 0:
            return
        for i, s in enumerate(source):
            if s != 0:
                v = target[i] + coeff * s
                target[i] = v if p is None else v % p

    def neg_product(a, b):
        out = [[0] * len(b[0]) for _ in a]
        for i, row in enumerate(a):
            for t, coeff in enumerate(row):
                axpy(out[i], -coeff, b[t])
        return out

    layouts = eq.src_complex.layouts
    psi, phi, theta = {}, {}, {}
    for n, layout in layouts.items():
        psi[n], phi[n] = {}, {}
        for c in layout.cells:
            vecs = []
            for i in range(layout.ranks[c]):
                vec = [0] * layout.total
                vec[layout.offsets[c] + i] = 1
                vecs.append(vec)
            psi[n][c] = vecs
            phi[n][c] = [list(v) for v in vecs]
        prev = layouts[n - 1].total if n - 1 in layouts else 0
        theta[n] = [[0] * layout.total for _ in range(prev)]
    for step in eq.steps:
        ky, kx = step.dimy, step.dimx
        rows_y = psi[ky].pop(step.y)
        cols_x = phi[kx].pop(step.x)
        del psi[kx][step.x]
        del phi[ky][step.y]
        inv = step.inv.data
        for t1, col in enumerate(cols_x):
            mid = [0] * len(rows_y[0])
            for t, row in enumerate(rows_y):
                axpy(mid, inv[t1][t], row)
            for i, coeff in enumerate(col):
                axpy(theta[ky][i], coeff, mid)
        for z, fxz in step.up.items():
            blk = neg_product(fxz.data, inv)
            for i in range(len(blk)):
                for t in range(len(blk[i])):
                    axpy(psi[ky][z][i], blk[i][t], rows_y[t])
        for w, fwy in step.down.items():
            blk = neg_product(inv, fwy.data)
            for j in range(len(blk[0])):
                for t in range(len(blk)):
                    axpy(phi[kx][w][j], blk[t][j], cols_x[t])
    psi_grids, phi_grids = {}, {}
    for n, layout in layouts.items():
        cells = eq.dst_complex.layout(n).cells
        psi_grids[n] = [r for c in cells for r in psi[n][c]]
        cols = [v for c in cells for v in phi[n][c]]
        phi_grids[n] = [[col[i] for col in cols] for i in range(layout.total)]
    return psi_grids, phi_grids, theta


def psi_matrix(eq, n):
    """Dense projection C^n(original) -> C^n(reduced) of an equivalence."""
    return _dense(eq.field, eq.psi_vecs(n), eq.src_complex.rank_c(n))


def phi_matrix(eq, n):
    """Dense lift C^n(reduced) -> C^n(original) of an equivalence."""
    return _dense(eq.field, eq.phi_vecs(n), eq.dst_complex.rank_c(n))


def theta_matrix(eq, n):
    """Dense homotopy C^n(original) -> C^{n-1}(original) of an equivalence."""
    return _dense(eq.field, eq.theta_vecs(n), eq.src_complex.rank_c(n))


def _dense(field, vecs, width):
    """The Matrix whose rows are the {coordinate: value} dicts vecs."""
    rows = [[field.zero] * width for _ in vecs]
    for row, vec in zip(rows, vecs):
        for i, v in vec.items():
            row[i] = v
    return Matrix(field, len(rows), width, rows)


def loop_mat_mul(a, b):
    """The grid of a.b, by the generic loop of scythe's mat_mul.

    Each entry starts at zero and adds a[i][k] * b[k][j] for k ascending,
    skipping a product when either factor is zero, with the field's own
    operations: the value and the type (int or Fraction) every entry of
    the kernel must have.
    """
    f = a.field
    out = []
    for arow in a.data:
        orow = [f.zero] * b.cols
        for aik, brow in zip(arow, b.data):
            if aik:
                for j, bkj in enumerate(brow):
                    if bkj:
                        orow[j] = f.add(orow[j], f.mul(aik, bkj))
        out.append(orow)
    return out


def loop_mul_sub(c, a, b):
    """The grid of c - a.b by the same loop, or None when it is all zero.

    c of None stands for zero; each entry subtracts its products from c's
    entry for k ascending, skipping a product with a zero factor.
    """
    f = a.field
    if c is None:
        out = [[f.zero] * b.cols for _ in range(a.rows)]
    else:
        out = [row[:] for row in c.data]
    for arow, orow in zip(a.data, out):
        for aik, brow in zip(arow, b.data):
            if aik:
                for j, bkj in enumerate(brow):
                    if bkj:
                        orow[j] = f.sub(orow[j], f.mul(aik, bkj))
    return out if any(map(any, out)) else None


class DenseEchelon:
    """Gauss-Jordan on a dense grid, carrying a dense rows x rows transform.

    E.A is the reduced echelon form, with the pivot columns and the rank.
    Every row is scaled whole by the pivot's inverse and every nonzero of
    the pivot row is eliminated from every other row, so each entry has
    the value and the type (int or Fraction) that the sparse EchelonSolver
    must give it.
    """

    def __init__(self, a):
        f = a.field
        work = a.copy_data()
        trans = Matrix.identity(f, a.rows).copy_data()
        pivots = []
        r = 0
        for col in range(a.cols):
            pivot = None
            for i in range(r, a.rows):
                if work[i][col]:
                    pivot = i
                    break
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            trans[r], trans[pivot] = trans[pivot], trans[r]
            pv = work[r][col]
            if pv != f.one:
                pinv = f.inv(pv)
                work[r] = [f.mul(pinv, v) for v in work[r]]
                trans[r] = [f.mul(pinv, v) for v in trans[r]]
            wr, tr = work[r], trans[r]
            for i in range(a.rows):
                if i == r:
                    continue
                factor = work[i][col]
                if not factor:
                    continue
                wi, ti = work[i], trans[i]
                for j in range(a.cols):
                    if wr[j]:
                        wi[j] = f.sub(wi[j], f.mul(factor, wr[j]))
                for j in range(a.rows):
                    if tr[j]:
                        ti[j] = f.sub(ti[j], f.mul(factor, tr[j]))
            pivots.append(col)
            r += 1
        self.field = f
        self.rows = a.rows
        self.cols = a.cols
        self.rref = work
        self.transform = trans
        self.pivots = pivots
        self.rank = r

    def kernel_basis(self):
        """One kernel column per free column j, with a 1 in slot j."""
        f = self.field
        pivot_set = set(self.pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        cols = []
        for j in free:
            vec = [f.zero] * self.cols
            vec[j] = f.one
            for i, pc in enumerate(self.pivots):
                vec[pc] = f.neg(self.rref[i][j])
            cols.append(vec)
        return Matrix(f, len(free), self.cols, cols).transpose()

    def solve(self, b):
        """One x with A.x = b (free variables zero), or None if none."""
        if len(b) != self.rows:
            raise SolveFailed("rhs length %d, expected %d" % (len(b), self.rows))
        f = self.field
        eb = []
        for ti in self.transform:
            acc = f.zero
            for tij, bj in zip(ti, b):
                if tij and bj:
                    acc = f.add(acc, f.mul(tij, bj))
            eb.append(acc)
        if any(eb[self.rank:]):
            return None
        x = [f.zero] * self.cols
        for i, pc in enumerate(self.pivots):
            x[pc] = eb[i]
        return x
