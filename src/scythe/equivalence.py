"""The cochain equivalence of a reduction, kept as the list of its steps.

Removing one pair (x, y) is recorded as the inverse of F_xy and the blocks
around the pair, F_xz above x and F_wy below y; they define a projection
psi onto the surviving complex, a lift phi back, and a homotopy Theta, and
a full reduction's equivalence is the composite of its steps in removal
order.  Cocycles are transported by replaying the steps on cell-indexed
vectors.  When psi/phi/Theta are first asked for (the written equivalence
document and the law checks), the steps are folded once into sparse rows
and columns, kept as {coordinate: value} dicts.  The document is written
straight from the fold: each row starts as the one shared zero string and
only its nonzero entries are formatted (serialize.equivalence_to_json).
Only psi_matrix, phi_matrix and theta_matrix densify into field elements.
"""

from .errors import NotACocycle
from .matrix import Matrix, matvec, matvec_add, mul_sub
from .parametrization import is_cocycle


class StepMaps:
    """The record of one reduction step: the removed pair (x, y) and its star.

    inv is the inverse of the matched map F_xy; up[z] is the block F_xz for
    each survivor z above x and down[w] the block F_wy for each survivor w
    below y, read before the removal.  The step projects the y coordinate
    into z by -F_xz.inv, lifts the x coordinate from w by -inv.F_wy, and
    inv doubles as the homotopy block from y back to x.  An invertible
    block is square, so x and y both have rank inv.rows.
    """

    def __init__(self, x, y, dimx, dimy, inv, up, down):
        self.x = x
        self.y = y
        self.dimx = dimx
        self.dimy = dimy
        self.inv = inv
        self.up = up
        self.down = down


class Equivalence:
    """Composite projection/lift/homotopy between a complex and its reduction.

    steps are the StepMaps of the reduction in removal order, src_complex
    the complex before the first and dst_complex the one after the last.
    """

    def __init__(self, src_complex, steps, dst_complex):
        self.src_complex = src_complex
        self.steps = steps
        self.dst_complex = dst_complex
        self.field = src_complex.field
        self._folded = None

    def _maps(self):
        """Sparse psi rows, phi columns and theta rows, folded once."""
        if self._folded is None:
            self._folded = _fold(self.field, self.src_complex.layouts, self.steps)
        return self._folded

    def psi_rows(self, n, zero, entry):
        """The rows of psi^n: zero where the fold holds no entry, entry(v)
        where it holds v."""
        psi = self._maps()[0].get(n, {})
        vecs = [r for c in self.dst_complex.layout(n).cells for r in psi[c]]
        return _rows(vecs, self.src_complex.rank_c(n), zero, entry)

    def phi_rows(self, n, zero, entry):
        """The rows of phi^n, scattered from the fold's columns."""
        phi = self._maps()[1].get(n, {})
        cols = [v for c in self.dst_complex.layout(n).cells for v in phi[c]]
        rows = [[zero] * len(cols) for _ in range(self.src_complex.rank_c(n))]
        for j, col in enumerate(cols):
            for i, v in col.items():
                rows[i][j] = entry(v)
        return rows

    def theta_rows(self, n, zero, entry):
        """The rows of Theta^n, one per coordinate of C^{n-1}."""
        theta = self._maps()[2].get(n, {})
        vecs = [theta.get(i, {}) for i in range(self.src_complex.rank_c(n - 1))]
        return _rows(vecs, self.src_complex.rank_c(n), zero, entry)

    def psi_matrix(self, n):
        """Dense projection C^n(original) -> C^n(reduced)."""
        return self._matrix(self.psi_rows(n, self.field.zero, _same),
                            self.src_complex.rank_c(n))

    def phi_matrix(self, n):
        """Dense lift C^n(reduced) -> C^n(original)."""
        return self._matrix(self.phi_rows(n, self.field.zero, _same),
                            self.dst_complex.rank_c(n))

    def theta_matrix(self, n):
        """Dense homotopy C^n(original) -> C^{n-1}(original)."""
        return self._matrix(self.theta_rows(n, self.field.zero, _same),
                            self.src_complex.rank_c(n))

    def _matrix(self, rows, width):
        return Matrix(self.field, len(rows), width, rows)


def _same(v):
    return v


def _rows(vecs, width, zero, entry):
    """Rows of width entries, one per {coordinate: value} dict of vecs:
    entry(value) at its coordinates and the one shared zero elsewhere."""
    rows = [[zero] * width for _ in vecs]
    for row, vec in zip(rows, vecs):
        for i, v in vec.items():
            row[i] = entry(v)
    return rows


def _fold(field, layouts, steps):
    """The steps folded into sparse psi rows, phi columns and theta rows.

    Each row or column is a {coordinate: value} dict holding its nonzero
    entries, starting from the identity on layouts.  Rows of psi and
    columns of phi are kept grouped by surviving cell, so a step only
    touches the cells it removes or corrects; theta[n] maps a row index of
    C^{n-1} to its row.
    """
    psi, phi, theta = {}, {}, {}
    for n, layout in layouts.items():
        psi[n], phi[n] = {}, {}
        for c in layout.cells:
            off = layout.offsets[c]
            psi[n][c] = [{off + i: field.one} for i in range(layout.ranks[c])]
            phi[n][c] = [{off + i: field.one} for i in range(layout.ranks[c])]
    for step in steps:
        _apply_step(field, psi, phi, theta, step)
    return psi, phi, theta


def _apply_step(f, psi, phi, theta, step):
    """Fold one reduction step into the sparse composite, in place."""
    ky, kx = step.dimy, step.dimx
    rows_y = psi[ky].pop(step.y)
    cols_x = phi[kx].pop(step.x)
    del psi[kx][step.x]
    del phi[ky][step.y]
    # homotopy first: it needs the lift/projection from before this step
    rows = theta.setdefault(ky, {})
    for inv_row, col in zip(step.inv.data, cols_x):
        mid = {}
        for coeff, row_y in zip(inv_row, rows_y):
            _axpy(f, mid, coeff, row_y)
        for i, coeff in col.items():
            _axpy(f, rows.setdefault(i, {}), coeff, mid)
    for z, fxz in step.up.items():
        blk = mul_sub(None, fxz, step.inv)  # -F_xz.inv, None when zero
        if blk is None:
            continue
        for row_z, blk_row in zip(psi[ky][z], blk.data):
            for coeff, row_y in zip(blk_row, rows_y):
                _axpy(f, row_z, coeff, row_y)
    for w, fwy in step.down.items():
        blk = mul_sub(None, step.inv, fwy)  # -inv.F_wy, None when zero
        if blk is None:
            continue
        for j, col_w in enumerate(phi[kx][w]):
            for blk_row, col_x in zip(blk.data, cols_x):
                _axpy(f, col_w, blk_row[j], col_x)


def _axpy(field, target, coeff, source):
    """target += coeff * source on {coordinate: value} dicts, dropping zeros."""
    if not coeff:
        return
    for i, s in source.items():
        v = field.add(target.get(i, field.zero), field.mul(coeff, s))
        if v:
            target[i] = v
        else:
            target.pop(i, None)


def _to_blocks(layout, vec):
    return {
        c: list(vec[layout.offsets[c]:layout.offsets[c] + layout.ranks[c]])
        for c in layout.cells
    }


def _from_blocks(layout, blocks):
    return [v for c in layout.cells for v in blocks[c]]


def _check_cocycle(cx, vec, n):
    if not is_cocycle(cx, vec, n):
        raise NotACocycle("input at dimension %d is not killed by d" % n)


def project_cocycle(eq, vec, n):
    """Push a cocycle of the original complex down to the reduced one.

    Replays each step's projection in removal order: the y block v_y
    leaves, and each z above x gains F_xz.u with u = -inv.v_y.  Raises
    NotACocycle when d does not kill vec.
    """
    _check_cocycle(eq.src_complex, vec, n)
    f = eq.field
    blocks = _to_blocks(eq.src_complex.layout(n), vec)
    for step in eq.steps:
        if step.dimy == n:
            vy = blocks.pop(step.y)
            if any(vy):
                u = [f.neg(v) for v in matvec(step.inv, vy)]
                for z, fxz in step.up.items():
                    matvec_add(fxz, u, blocks[z])
        elif step.dimx == n:
            del blocks[step.x]
    return _from_blocks(eq.dst_complex.layout(n), blocks)


def lift_cocycle(eq, vec, n):
    """Lift a cocycle of the reduced complex back to the original one.

    Replays each step's lift, last step first: the x block is set to
    -inv.sum_w F_wy.v_w over the w below y, and the y block to zero.
    Raises NotACocycle when d does not kill vec.
    """
    _check_cocycle(eq.dst_complex, vec, n)
    f = eq.field
    blocks = _to_blocks(eq.dst_complex.layout(n), vec)
    for step in reversed(eq.steps):
        if step.dimx == n:
            acc = [f.zero] * step.inv.rows
            for w, fwy in step.down.items():
                matvec_add(fwy, blocks[w], acc)
            if any(acc):
                acc = [f.neg(v) for v in matvec(step.inv, acc)]
            blocks[step.x] = acc
        elif step.dimy == n:
            blocks[step.y] = [f.zero] * step.inv.rows
    return _from_blocks(eq.src_complex.layout(n), blocks)
