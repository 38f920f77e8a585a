"""The cochain equivalence of a reduction, kept as the list of its steps.

Removing one pair (x, y) is recorded as the inverse of F_xy and the blocks
around the pair, F_xz above x and F_wy below y; they define a projection
psi onto the surviving complex, a lift phi back, and a homotopy Theta, and
a full reduction's equivalence is the composite of its steps in removal
order.  Cocycles are transported by replaying the steps on the cochain's
nonzero cells only, kept as {cell: block} (parametrization.nonzero_blocks
finds them), and zero-filled on the way out.  When psi/phi/Theta are first
asked for (the written equivalence document and the law checks), the
steps are folded once into sparse rows and columns, kept as
{coordinate: value} dicts.  The fold keeps no psi row for a cell some step
removes as its lower cell and no phi column for one removed as its upper
cell: neither is read before it is deleted.  The document is written
straight from the fold's rows (psi_vecs, phi_vecs, theta_vecs), each made
into a row of strings only when the writer reaches it (see
serialize.equivalence_to_json), so writing holds the sparse fold, its
rows as dicts and one dense row, never a dense matrix.  Every empty phi
or Theta row is one shared read-only mapping.
"""

from types import MappingProxyType

from .errors import NotACocycle
from .matrix import matvec, matvec_add, mul_sub
from .parametrization import d_kills, nonzero_blocks

_EMPTY = MappingProxyType({})


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

    def psi_vecs(self, n):
        """The rows of psi^n, each a {coordinate: value} dict of its nonzero
        entries, C^n(original) wide."""
        psi = self._maps()[0].get(n, {})
        return [r for c in self.dst_complex.layout(n).cells for r in psi[c]]

    def phi_vecs(self, n):
        """The rows of phi^n as dicts, scattered from the fold's columns;
        C^n(reduced) wide.  A row with no entry is the shared empty one."""
        phi = self._maps()[1].get(n, {})
        rows = [_EMPTY] * self.src_complex.rank_c(n)
        cols = (v for c in self.dst_complex.layout(n).cells for v in phi[c])
        for j, col in enumerate(cols):
            for i, v in col.items():
                row = rows[i]
                if row is _EMPTY:
                    row = rows[i] = {}
                row[j] = v
        return rows

    def theta_vecs(self, n):
        """The rows of Theta^n as dicts, one per coordinate of C^{n-1};
        C^n(original) wide.  A row Theta lacks is the shared empty one."""
        theta = self._maps()[2].get(n, {})
        return [theta.get(i, _EMPTY)
                for i in range(self.src_complex.rank_c(n - 1))]


def _fold(field, layouts, steps):
    """The steps folded into sparse psi rows, phi columns and theta rows.

    Each row or column is a {coordinate: value} dict holding its nonzero
    entries, starting from the identity on layouts.  Rows of psi and
    columns of phi are kept grouped by surviving cell, so a step only
    touches the cells it removes or corrects; theta[n] maps a row index of
    C^{n-1} to its row.  Only a cell removed as an upper cell y has its psi
    row read, and only one removed as a lower cell x its phi column, so a
    cell some step removes as x gets no psi row and one removed as y no phi
    column: neither would be read before it was deleted.
    """
    lower = {step.x for step in steps}
    upper = {step.y for step in steps}
    psi, phi, theta = {}, {}, {}
    for n, layout in layouts.items():
        psi[n], phi[n] = {}, {}
        for c in layout.cells:
            off, rank = layout.offsets[c], layout.ranks[c]
            if c not in lower:
                psi[n][c] = [{off + i: field.one} for i in range(rank)]
            if c not in upper:
                phi[n][c] = [{off + i: field.one} for i in range(rank)]
    for step in steps:
        _apply_step(field, psi, phi, theta, step)
    return psi, phi, theta


def _apply_step(f, psi, phi, theta, step):
    """Fold one reduction step into the sparse composite, in place.

    A psi row or phi column the fold does not keep (see _fold) is skipped.
    """
    ky, kx = step.dimy, step.dimx
    rows_y = psi[ky].pop(step.y)
    cols_x = phi[kx].pop(step.x)
    # homotopy first: it needs the lift/projection from before this step
    rows = theta.setdefault(ky, {})
    for inv_row, col in zip(step.inv.data, cols_x):
        mid = {}
        for coeff, row_y in zip(inv_row, rows_y):
            _axpy(f, mid, coeff, row_y)
        for i, coeff in col.items():
            _axpy(f, rows.setdefault(i, {}), coeff, mid)
    kept = psi[ky]
    for z, fxz in step.up.items():
        rows_z = kept.get(z)
        if rows_z is None:
            continue
        blk = mul_sub(None, fxz, step.inv)  # -F_xz.inv
        for row_z, blk_row in zip(rows_z, blk.data):
            for coeff, row_y in zip(blk_row, rows_y):
                _axpy(f, row_z, coeff, row_y)
    kept = phi[kx]
    for w, fwy in step.down.items():
        cols_w = kept.get(w)
        if cols_w is None:
            continue
        blk = mul_sub(None, step.inv, fwy)  # -inv.F_wy
        for j, col_w in enumerate(cols_w):
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


def _cocycle_blocks(cx, vec, n):
    """vec's nonzero blocks in C^n of cx, as lists the replay may edit;
    NotACocycle unless d kills vec."""
    blocks = nonzero_blocks(cx, list(vec), n)
    if not d_kills(cx, blocks):
        raise NotACocycle("input at dimension %d is not killed by d" % n)
    return blocks


def _scatter(layout, blocks, zero):
    """The vector of layout holding blocks at their cells, zero elsewhere."""
    vec = [zero] * layout.total
    for c, block in blocks.items():
        off = layout.offsets[c]
        vec[off:off + len(block)] = block
    return vec


def project_cocycle(eq, vec, n):
    """Push a cocycle of the original complex down to the reduced one.

    Replays each step's projection in removal order on the nonzero blocks
    only: the y block v_y leaves, and each z above x gains F_xz.u with
    u = -inv.v_y.  Raises NotACocycle when d does not kill vec.
    """
    blocks = _cocycle_blocks(eq.src_complex, vec, n)
    f = eq.field
    for step in eq.steps:
        if step.dimy == n:
            vy = blocks.pop(step.y, None)
            if vy is not None and any(vy):
                u = [f.neg(v) for v in matvec(step.inv, vy)]
                for z, fxz in step.up.items():
                    vz = blocks.get(z)
                    if vz is None:
                        vz = blocks[z] = [f.zero] * fxz.rows
                    matvec_add(fxz, u, vz)
        elif step.dimx == n:
            blocks.pop(step.x, None)
    return _scatter(eq.dst_complex.layout(n), blocks, f.zero)


def lift_cocycle(eq, vec, n):
    """Lift a cocycle of the reduced complex back to the original one.

    Replays each step's lift, last step first, on the nonzero blocks only:
    the x block is set to -inv.sum_w F_wy.v_w over the w below y, and the y
    block stays zero.  Raises NotACocycle when d does not kill vec.
    """
    blocks = _cocycle_blocks(eq.dst_complex, vec, n)
    f = eq.field
    for step in reversed(eq.steps):
        if step.dimx != n:
            continue
        acc = None
        for w, fwy in step.down.items():
            vw = blocks.get(w)
            if vw is not None:
                if acc is None:
                    acc = [f.zero] * fwy.rows
                matvec_add(fwy, vw, acc)
        if acc is not None and any(acc):
            blocks[step.x] = [f.neg(v) for v in matvec(step.inv, acc)]
    return _scatter(eq.src_complex.layout(n), blocks, f.zero)
