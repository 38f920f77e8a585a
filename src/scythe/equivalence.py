"""Explicit cochain equivalences accumulated across reduction steps.

Removing one pair (x, y) defines a projection psi onto the surviving
complex, a lift phi back, and a homotopy Theta; composing these over a full
reduction yields maps that transport cocycles between the original complex
and its reduced form.  The dense accumulator is the default; a step-list
variant trades speed for memory and can materialize on demand.
"""

from .errors import NotACocycle
from .matrix import Matrix, mat_mul, matvec
from .parametrization import Layout


class StepMaps:
    """Single-step equivalence data for removing the pair (x, y).

    psi_blocks[z] sends the y coordinate into survivor z; phi_blocks[w]
    rebuilds the x coordinate from survivor w; inv is the inverse of the
    matched map and doubles as the homotopy block from y back to x.
    """

    def __init__(self, x, y, dimx, dimy, inv, psi_blocks, phi_blocks, layouts):
        self.x = x
        self.y = y
        self.dimx = dimx
        self.dimy = dimy
        self.inv = inv
        self.psi_blocks = psi_blocks
        self.phi_blocks = phi_blocks
        self.layouts = layouts

    def _layout_after(self, n):
        gone = {self.x, self.y}
        before = self.layouts.get(n)
        if before is None:
            return Layout([])
        return Layout(
            [(c, before.ranks[c]) for c in before.cells if c not in gone]
        )

    def psi(self, n):
        """Dense projection at dimension n, before-basis to after-basis."""
        field = self.inv.field
        before = self.layouts.get(n, Layout([]))
        after = self._layout_after(n)
        z0 = field.zero
        data = [[z0] * before.total for _ in range(after.total)]
        for c in after.cells:
            r0, _ = after.slot(c)
            c0, _ = before.slot(c)
            for i in range(after.ranks[c]):
                data[r0 + i][c0 + i] = field.one
        if n == self.dimy:
            y0, _ = before.slot(self.y)
            for z, blk in self.psi_blocks.items():
                r0, _ = after.slot(z)
                for i in range(blk.rows):
                    for j in range(blk.cols):
                        data[r0 + i][y0 + j] = blk.data[i][j]
        return Matrix(field, after.total, before.total, data)

    def phi(self, n):
        """Dense lift at dimension n, after-basis to before-basis."""
        field = self.inv.field
        before = self.layouts.get(n, Layout([]))
        after = self._layout_after(n)
        z0 = field.zero
        data = [[z0] * after.total for _ in range(before.total)]
        for c in after.cells:
            r0, _ = before.slot(c)
            c0, _ = after.slot(c)
            for i in range(after.ranks[c]):
                data[r0 + i][c0 + i] = field.one
        if n == self.dimx:
            x0, _ = before.slot(self.x)
            for w, blk in self.phi_blocks.items():
                c0, _ = after.slot(w)
                for i in range(blk.rows):
                    for j in range(blk.cols):
                        data[x0 + i][c0 + j] = blk.data[i][j]
        return Matrix(field, before.total, after.total, data)

    def theta(self, n):
        """Dense homotopy at dimension n, before-basis n to before-basis n-1."""
        field = self.inv.field
        src = self.layouts.get(n, Layout([]))
        dst = self.layouts.get(n - 1, Layout([]))
        out = Matrix.zeros(field, dst.total, src.total).copy_data()
        if n == self.dimy:
            r0, _ = dst.slot(self.x)
            c0, _ = src.slot(self.y)
            for i in range(self.inv.rows):
                for j in range(self.inv.cols):
                    out[r0 + i][c0 + j] = self.inv.data[i][j]
        return Matrix(field, dst.total, src.total, out)


def step_maps(param, x, y, inv):
    """Equivalence data for removing (x, y) from param, read before mutation.

    inv is the inverse of the pair's map, as found when the pair was matched.
    """
    poset = param.poset
    psi_blocks = {}
    for z in sorted(poset.x_plus(x) - {y}):
        fxz = param.maps.get((x, z))
        if fxz is not None:
            psi_blocks[z] = mat_mul(fxz, inv).neg()
    phi_blocks = {}
    for w in sorted(poset.x_minus(y) - {x}):
        fwy = param.maps.get((w, y))
        if fwy is not None:
            phi_blocks[w] = mat_mul(inv, fwy).neg()
    layouts = {n: param.layout(n) for n in range(param.max_dim() + 1)}
    return StepMaps(
        x, y, poset.dim(x), poset.dim(y), inv, psi_blocks, phi_blocks, layouts
    )


def _axpy(field, target, coeff, source):
    """target += coeff * source over field, skipping zero work."""
    if coeff == field.zero:
        return
    for i, s in enumerate(source):
        if s != field.zero:
            target[i] = field.add(target[i], field.mul(coeff, s))


class Equivalence:
    """Composite projection/lift/homotopy between a complex and its reduction.

    Rows of psi and columns of phi are kept grouped by surviving cell, so a
    reduction step only touches the cells it removes or corrects.
    """

    def __init__(self, field, src_layouts, psi, phi, theta):
        self.field = field
        self.src_layouts = src_layouts
        self._psi = psi
        self._phi = phi
        self._theta = theta
        self.src_complex = None
        self.dst_complex = None
        self._dense = {}

    @classmethod
    def identity(cls, field, layouts):
        psi, phi, theta = {}, {}, {}
        zero = field.zero
        one = field.one
        for n, layout in layouts.items():
            psi[n] = {}
            phi[n] = {}
            for c in layout.cells:
                off = layout.offsets[c]
                rows = []
                cols = []
                for i in range(layout.ranks[c]):
                    vec = [zero] * layout.total
                    vec[off + i] = one
                    rows.append(vec)
                    cols.append(vec[:])
                psi[n][c] = rows
                phi[n][c] = cols
            if n - 1 in layouts:
                prev = layouts[n - 1].total
                theta[n] = [[zero] * layout.total for _ in range(prev)]
        return cls(field, layouts, psi, phi, theta)

    def copy(self):
        psi = {n: {c: [r[:] for r in rows] for c, rows in grp.items()}
               for n, grp in self._psi.items()}
        phi = {n: {c: [v[:] for v in cols] for c, cols in grp.items()}
               for n, grp in self._phi.items()}
        theta = {n: [r[:] for r in m] for n, m in self._theta.items()}
        out = Equivalence(self.field, self.src_layouts, psi, phi, theta)
        out.src_complex = self.src_complex
        out.dst_complex = self.dst_complex
        return out

    def apply_step(self, step):
        """Fold one reduction step into the composite, in place."""
        f = self.field
        ky, kx = step.dimy, step.dimx
        rows_y = self._psi[ky].pop(step.y)
        cols_x = self._phi[kx].pop(step.x)
        del self._psi[kx][step.x]
        del self._phi[ky][step.y]
        self._dense.clear()
        # homotopy first: it needs the lift/projection from before this step
        if ky in self._theta:
            inv = step.inv
            mid = []
            for i in range(inv.rows):
                acc = [f.zero] * (len(rows_y[0]) if rows_y else 0)
                for t in range(inv.cols):
                    _axpy(f, acc, inv.data[i][t], rows_y[t])
                mid.append(acc)
            theta = self._theta[ky]
            for t1, col in enumerate(cols_x):
                row_src = mid[t1]
                for i, coeff in enumerate(col):
                    _axpy(f, theta[i], coeff, row_src)
        for z, blk in step.psi_blocks.items():
            rows_z = self._psi[ky][z]
            for i in range(blk.rows):
                for t in range(blk.cols):
                    _axpy(f, rows_z[i], blk.data[i][t], rows_y[t])
        for w, blk in step.phi_blocks.items():
            cols_w = self._phi[kx][w]
            for j in range(blk.cols):
                col_wj = cols_w[j]
                for t in range(blk.rows):
                    _axpy(f, col_wj, blk.data[t][j], cols_x[t])

    def dst_cells(self, n):
        return sorted(self._psi.get(n, {}))

    def psi_matrix(self, n):
        """Dense projection C^n(original) -> C^n(reduced)."""
        key = ("psi", n)
        if key not in self._dense:
            src_total = self._src_total(n)
            rows = []
            for c in self.dst_cells(n):
                rows.extend(self._psi[n][c])
            self._dense[key] = Matrix(
                self.field, len(rows), src_total, [r[:] for r in rows]
            )
        return self._dense[key]

    def phi_matrix(self, n):
        """Dense lift C^n(reduced) -> C^n(original)."""
        key = ("phi", n)
        if key not in self._dense:
            src_total = self._src_total(n)
            cols = []
            for c in self.dst_cells(n):
                cols.extend(self._phi[n][c])
            data = [[col[i] for col in cols] for i in range(src_total)]
            self._dense[key] = Matrix(self.field, src_total, len(cols), data)
        return self._dense[key]

    def theta_matrix(self, n):
        """Dense homotopy C^n(original) -> C^{n-1}(original)."""
        key = ("theta", n)
        if key not in self._dense:
            if n in self._theta:
                data = [r[:] for r in self._theta[n]]
                self._dense[key] = Matrix(
                    self.field, self._src_total(n - 1), self._src_total(n), data
                )
            else:
                self._dense[key] = Matrix.zeros(
                    self.field, self._src_total(n - 1), self._src_total(n)
                )
        return self._dense[key]

    def _src_total(self, n):
        layout = self.src_layouts.get(n)
        return layout.total if layout is not None else 0


def start_tracking(param, keep_steps=False):
    """Begin equivalence bookkeeping for a reduction of param."""
    src_complex = param.assemble()
    if keep_steps:
        return _StepTracker(src_complex)
    layouts = {n: param.layout(n) for n in range(param.max_dim() + 1)}
    eq = Equivalence.identity(param.field, layouts)
    eq.src_complex = src_complex
    return _DenseTracker(eq)


class _DenseTracker:
    def __init__(self, eq):
        self.eq = eq

    def apply_step(self, step):
        self.eq.apply_step(step)

    def finalize(self, param):
        self.eq.dst_complex = param.assemble()
        return self.eq


class _StepTracker:
    def __init__(self, src_complex):
        self.src_complex = src_complex
        self.steps = []

    def apply_step(self, step):
        self.steps.append(step)

    def finalize(self, param):
        return SteppedEquivalence(self.src_complex, self.steps, param.assemble())


class SteppedEquivalence:
    """Equivalence kept as the list of reduction steps.

    Transports cochains by replaying step blocks on cell-indexed vectors;
    materialize() folds the steps into a dense Equivalence when the full
    matrices are wanted.
    """

    def __init__(self, src_complex, steps, dst_complex):
        self.src_complex = src_complex
        self.steps = steps
        self.dst_complex = dst_complex
        self._materialized = None

    def materialize(self):
        if self._materialized is None:
            layouts = dict(self.src_complex.layouts)
            eq = Equivalence.identity(self.src_complex.field, layouts)
            eq.src_complex = self.src_complex
            for step in self.steps:
                eq.apply_step(step)
            eq.dst_complex = self.dst_complex
            self._materialized = eq
        return self._materialized

    def _to_blocks(self, layout, vec):
        return {
            c: list(vec[layout.offsets[c]:layout.offsets[c] + layout.ranks[c]])
            for c in layout.cells
        }

    def project_vector(self, vec, n):
        f = self.src_complex.field
        blocks = self._to_blocks(self.src_complex.layout(n), vec)
        for step in self.steps:
            if step.dimy == n:
                vy = blocks.pop(step.y)
                for z, blk in step.psi_blocks.items():
                    tgt = blocks[z]
                    for i in range(blk.rows):
                        acc = tgt[i]
                        for t in range(blk.cols):
                            acc = f.add(acc, f.mul(blk.data[i][t], vy[t]))
                        tgt[i] = acc
            elif step.dimx == n:
                blocks.pop(step.x)
        layout = self.dst_complex.layout(n)
        out = []
        for c in layout.cells:
            out.extend(blocks[c])
        return out

    def lift_vector(self, vec, n):
        f = self.dst_complex.field
        blocks = self._to_blocks(self.dst_complex.layout(n), vec)
        for step in reversed(self.steps):
            if step.dimx == n:
                ranks = step.layouts[n].ranks
                val = [f.zero] * ranks[step.x]
                for w, blk in step.phi_blocks.items():
                    vw = blocks[w]
                    for i in range(blk.rows):
                        for j in range(blk.cols):
                            if blk.data[i][j] != f.zero and vw[j] != f.zero:
                                val[i] = f.add(val[i], f.mul(blk.data[i][j], vw[j]))
                blocks[step.x] = val
            elif step.dimy == n:
                blocks[step.y] = [f.zero] * step.layouts[n].ranks[step.y]
        layout = self.src_complex.layout(n)
        out = []
        for c in layout.cells:
            out.extend(blocks[c])
        return out


def compose(eq, step):
    """A new Equivalence extending eq by one reduction step."""
    out = eq.copy()
    out.apply_step(step)
    return out


def _check_cocycle(cx, vec, n):
    image = matvec(cx.d(n), vec)
    if any(v != cx.field.zero for v in image):
        raise NotACocycle("input at dimension %d is not killed by d" % n)


def project_cocycle(eq, vec, n):
    """Push a cocycle of the original complex down to the reduced one."""
    if isinstance(eq, SteppedEquivalence):
        _check_cocycle(eq.src_complex, vec, n)
        return eq.project_vector(vec, n)
    _check_cocycle(eq.src_complex, vec, n)
    return matvec(eq.psi_matrix(n), vec)


def lift_cocycle(eq, vec, n):
    """Lift a cocycle of the reduced complex back to the original one."""
    if isinstance(eq, SteppedEquivalence):
        _check_cocycle(eq.dst_complex, vec, n)
        return eq.lift_vector(vec, n)
    _check_cocycle(eq.dst_complex, vec, n)
    return matvec(eq.phi_matrix(n), vec)
