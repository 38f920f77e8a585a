"""Checks of the program's outputs, computed apart from the program.

The coboundary here is assembled from a sheaf's raw restriction maps and
the base complex's incidence signs, and the elimination is written out
with plain Fraction or modular integer arithmetic; neither calls into the
reduction, compilation or cohomology code under test.  Every check returns
None when the output passes and a one-line reason when it does not.
"""

from fractions import Fraction


class Arithmetic:
    """Field operations for a FieldSpec, written out independently."""

    def __init__(self, field):
        self.p = field.p if field.kind == "fp" else None
        self.zero = 0 if self.p else Fraction(0)

    def norm(self, a):
        return a % self.p if self.p else Fraction(a)

    def inv(self, a):
        return pow(a, -1, self.p) if self.p else 1 / a


def cochain_layout(sheaf, n):
    """Cells of dimension n sorted by id, with offsets into C^n."""
    poset = sheaf.base.poset
    offsets, total = {}, 0
    for c in sorted(x for x, d in poset.dims.items() if d == n):
        offsets[c] = total
        total += sheaf.stalk_rank[c]
    return offsets, total


def coboundary(sheaf, n, vec):
    """delta^n of a cochain: sum of [s:t] F_st v_s over covers (s, t)."""
    ar = Arithmetic(sheaf.field)
    src, src_total = cochain_layout(sheaf, n)
    dst, dst_total = cochain_layout(sheaf, n + 1)
    if len(vec) != src_total:
        raise ValueError("cochain of length %d, C^%d has %d" % (len(vec), n, src_total))
    out = [ar.zero] * dst_total
    for (s, t), sign in sheaf.base.incidence.items():
        if s not in src or t not in dst:
            continue
        m = sheaf.restriction.get((s, t))
        if m is None:
            continue
        for i, row in enumerate(m.data):
            acc = sum(a * vec[src[s] + j] for j, a in enumerate(row) if a)
            out[dst[t] + i] = ar.norm(out[dst[t] + i] + sign * acc)
    return out


def coboundary_rows(sheaf, n):
    """delta^n as a list of rows, for the elimination below."""
    _, src_total = cochain_layout(sheaf, n)
    cols = []
    for j in range(src_total):
        unit = [0] * src_total
        unit[j] = 1
        cols.append(coboundary(sheaf, n, unit))
    dst_total = len(cols[0]) if cols else cochain_layout(sheaf, n + 1)[1]
    return [[col[i] for col in cols] for i in range(dst_total)]


def rank(rows, field):
    """Rank by forward elimination on a copy of rows."""
    ar = Arithmetic(field)
    work = [[ar.norm(v) for v in row] for row in rows]
    r = 0
    width = len(work[0]) if work else 0
    for col in range(width):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        scale = ar.inv(work[r][col])
        for i in range(r + 1, len(work)):
            f = work[i][col]
            if f:
                k = f * scale
                work[i] = [ar.norm(a - k * b) for a, b in zip(work[i], work[r])]
        r += 1
    return r


def betti_by_elimination(sheaf, top):
    """Betti numbers from the coboundary above; cubic, for small inputs."""
    ranks = [rank(coboundary_rows(sheaf, n), sheaf.field) for n in range(top + 1)]
    dims = [cochain_layout(sheaf, n)[1] for n in range(top + 1)]
    return [dims[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(top + 1)]


# -- checks ------------------------------------------------------------------


def check_profile(got, expected):
    if list(got) != list(expected):
        return "betti %r, expected %r" % (list(got), list(expected))
    return None


def check_euler(betti, dims):
    chi_b = sum((-1) ** n * b for n, b in enumerate(betti))
    chi_c = sum((-1) ** n * d for n, d in enumerate(dims))
    if chi_b != chi_c:
        return "euler characteristic %d from betti, %d from cochains" % (chi_b, chi_c)
    return None


def check_cocycle(sheaf, n, vec):
    if any(coboundary(sheaf, n, vec)):
        return "lifted degree-%d generator is not a cocycle" % n
    return None


def check_round_trip(original, returned, n):
    if list(original) != list(returned):
        return "project(lift(g)) != g in degree %d" % n
    return None


def torus_loops(rows, cols):
    """Edges of grid row 0 and grid column 0, each run in its own direction."""
    row = ["h%02d%02d" % (0, j) for j in range(cols)]
    col = ["w%02d%02d" % (i, 0) for i in range(rows)]
    return row, col


def check_torus_pairing(sheaf, rows, cols, rank_r, generators):
    """Lifted H^1 generators of a rank-r constant sheaf on a torus grid,
    paired with a row loop and a column loop, give an invertible 2r x 2r
    matrix: they span H^1 = F^r (+) F^r."""
    offsets, _ = cochain_layout(sheaf, 1)
    ar = Arithmetic(sheaf.field)
    matrix = []
    for loop in torus_loops(rows, cols):
        for k in range(rank_r):
            matrix.append([ar.norm(sum(g[offsets[e] + k] for e in loop))
                           for g in generators])
    if len(generators) != 2 * rank_r or rank(matrix, sheaf.field) != 2 * rank_r:
        return "H^1 generators pair singularly with the torus loops"
    return None


def check_agree(profiles, expected):
    """Profiles from several pipelines agree with each other and expected."""
    for name, got in profiles:
        bad = check_profile(got, expected)
        if bad:
            return "%s: %s" % (name, bad)
    return None
