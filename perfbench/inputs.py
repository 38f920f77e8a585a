"""Seeded benchmark inputs built from scythe's public builders only.

Every input carries the Betti profile it must have by construction, so
the checks never ask the program under test what the answer is:

- constant sheaf of rank r on a torus grid: [r, 2r, r];
- constant sheaf of rank r on the genus-2 surface: [r, 4r, r];
- skyscraper on a k-cell: 1 in degree k, 0 elsewhere;
- pushforward of the constant sheaf on a closed cell: [1];
- pushforward on a grid circle (one row or column loop): [1, 1];
- a stalkwise-conjugated direct sum: the sum of its summands' profiles.

Only the seed chooses the cells a summand sits on and the conjugating
bases; the kinds of summands and all sizes are fixed, so two seeds give
inputs of the same shape and nearly the same cost.
"""

from scythe import (
    CellularSheaf,
    Matrix,
    build_cw,
    constant_sheaf,
    mat_mul,
    pushforward_constant,
    skyscraper_sheaf,
)
from scythe.complexes import genus2_reeb, torus_grid

TOP = 2  # every base in the benchmark is a surface


def padded(profile, top=TOP):
    out = list(profile) + [0] * (top + 1 - len(profile))
    return out[:top + 1]


def add_profiles(profiles):
    return [sum(col) for col in zip(*(padded(p) for p in profiles))]


def torus_tag(i, j, rows, cols):
    return "%02d%02d" % (i % rows, j % cols)


def row_circle(rows, cols, i):
    """Vertices and horizontal edges of grid row i: a circle on the torus."""
    return ({"v" + torus_tag(i, j, rows, cols) for j in range(cols)}
            | {"h" + torus_tag(i, j, rows, cols) for j in range(cols)})


def column_circle(rows, cols, j):
    """Vertices and vertical edges of grid column j: a circle on the torus."""
    return ({"v" + torus_tag(i, j, rows, cols) for i in range(rows)}
            | {"w" + torus_tag(i, j, rows, cols) for i in range(rows)})


def band(rows, cols, j):
    """Horizontal edges and squares between grid columns j and j + 1."""
    return ({"h" + torus_tag(i, j, rows, cols) for i in range(rows)}
            | {"q" + torus_tag(i, j, rows, cols) for i in range(rows)})


def closure(cw, cells):
    out = set()
    stack = list(cells)
    while stack:
        c = stack.pop()
        if c not in out:
            out.add(c)
            stack.extend(cw.poset.x_minus(c))
    return out


# -- twisted sums ------------------------------------------------------------

# Summand kinds, by name: ("constant",), ("skyscraper", k) on a k-cell,
# ("cell", k) pushforward on the closure of a k-cell, ("row",)/("column",)
# pushforward on a grid circle.
PROFILES = {
    "constant": [1, 2, 1],
    "cell": [1],
    "row": [1, 1],
    "column": [1, 1],
}


def summand_profile(kind):
    if kind[0] == "skyscraper":
        return padded([0] * kind[1] + [1])
    return padded(PROFILES[kind[0]])


def summand(rng, cw, rows, cols, kind, field):
    """One basic sheaf of the given kind, placed by rng."""
    name = kind[0]
    if name == "constant":
        return constant_sheaf(cw, 1, field)
    if name in ("skyscraper", "cell"):
        cell = rng.choice(cw.poset.elements_of_dim(kind[1]))
        if name == "skyscraper":
            return skyscraper_sheaf(cw, cell, field)
        return pushforward_constant(cw, closure(cw, [cell]), field)
    if name == "row":
        return pushforward_constant(cw, row_circle(rows, cols, rng.randrange(rows)),
                                    field)
    if name == "column":
        return pushforward_constant(
            cw, column_circle(rows, cols, rng.randrange(cols)), field)
    raise ValueError("unknown summand kind %r" % (kind,))


def change_of_basis(rng, field, n):
    """A random invertible n x n matrix and its inverse, both exact.

    Built from 2n elementary row operations; the inverse replays their
    negations in reverse, so no elimination is involved.
    """
    ops = []
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        c = rng.randint(-2, 2)
        if i != j and c:
            ops.append((i, j, c))

    def build(steps):
        data = Matrix.identity(field, n).copy_data()
        for i, j, c in steps:
            coeff = field.from_int(c)
            data[i] = [field.add(a, field.mul(coeff, b))
                       for a, b in zip(data[i], data[j])]
        return Matrix(field, n, n, data)

    return build(ops), build([(i, j, -c) for i, j, c in reversed(ops)])


def twisted_sum(rng, cw, rows, cols, kinds, field):
    """Direct sum of basic sheaves, conjugated by a random basis per stalk."""
    parts = [summand(rng, cw, rows, cols, kind, field) for kind in kinds]
    cells = cw.cells()
    stalks = {c: sum(p.stalk_rank[c] for p in parts) for c in cells}
    basis = {c: change_of_basis(rng, field, stalks[c]) for c in cells}
    maps = {}
    for pair in sorted(cw.incidence):
        s, t = pair
        data = Matrix.zeros(field, stalks[t], stalks[s]).copy_data()
        ro = co = 0
        for p in parts:
            block = p.restriction[pair]
            for i in range(block.rows):
                data[ro + i][co:co + block.cols] = block.data[i]
            ro += block.rows
            co += block.cols
        raw = Matrix(field, stalks[t], stalks[s], data)
        maps[pair] = mat_mul(basis[t][0], mat_mul(raw, basis[s][1]))
    return CellularSheaf(cw, field, stalks, maps)


# -- inputs ------------------------------------------------------------------


class SheafInput:
    """A named sheaf with the Betti profile it has by construction.

    text is its CLI document: a bare complex for constant sheaves (the
    rank then goes in rank, as with --sheaf constant:r), a sheaf document
    otherwise.
    """

    def __init__(self, name, sheaf, expected, rank=None, grid=None):
        self.name = name
        self.sheaf = sheaf
        self.expected = expected
        self.rank = rank
        self.grid = grid

    @property
    def field(self):
        return self.sheaf.field

    def cochain_dims(self):
        dims = [0] * (TOP + 1)
        for c, r in self.sheaf.stalk_rank.items():
            dims[self.sheaf.base.poset.dim(c)] += r
        return dims


def constant_on_torus(rows, cols, rank, field):
    cw = torus_grid(rows, cols)
    return SheafInput("const%d_torus%dx%d" % (rank, rows, cols),
                      constant_sheaf(cw, rank, field), [rank, 2 * rank, rank],
                      rank=rank, grid=(rows, cols))


def constant_on_genus2(rank, field):
    cw = genus2_reeb()[0]
    return SheafInput("const%d_genus2" % rank, constant_sheaf(cw, rank, field),
                      [rank, 4 * rank, rank], rank=rank)


def twisted_on_torus(rng, rows, cols, kinds, field):
    cw = torus_grid(rows, cols)
    sheaf = twisted_sum(rng, cw, rows, cols, kinds, field)
    label = "+".join("".join(str(k) for k in kind) for kind in kinds)
    expected = add_profiles([summand_profile(k) for k in kinds])
    return SheafInput("twisted[%s]_torus%dx%d" % (label, rows, cols), sheaf,
                      expected, grid=(rows, cols))


# -- fibered spaces ----------------------------------------------------------


class Fibering:
    """A surface over a cycle graph (or the genus-2 Reeb graph), with the
    matching column-annulus cover for the Čech pipeline when there is one."""

    def __init__(self, name, surface, graph, fibers, pieces, expected):
        self.name = name
        self.surface = surface
        self.graph = graph
        self.fibers = fibers
        self.pieces = pieces
        self.expected = expected


def torus_over_cycle(rows, cols, vertices, offset=0):
    """torus_grid(rows, cols) over a cycle graph of the given length.

    Vertex t's fiber is the closed annulus of cols // vertices grid
    columns starting at column offset + t * (cols // vertices); edge t's
    fiber is the column circle where annuli t and t + 1 meet.  The same
    annuli, pairwise meeting only in consecutive circles, are the Čech
    cover.
    """
    if cols % vertices or vertices < 3:
        raise ValueError("need at least 3 vertices dividing the column count")
    width = cols // vertices
    surface = torus_grid(rows, cols)
    elements, incidence = [], {}
    for t in range(vertices):
        elements += [("u%02d" % t, 0), ("a%02d" % t, 1)]
        incidence[("u%02d" % t, "a%02d" % t)] = -1
        incidence[("u%02d" % ((t + 1) % vertices), "a%02d" % t)] = 1
    graph = build_cw(elements, incidence)
    fibers, pieces = {}, []
    for t in range(vertices):
        start = offset + t * width
        annulus = set()
        for j in range(start, start + width):
            annulus |= column_circle(rows, cols, j) | band(rows, cols, j)
        annulus |= column_circle(rows, cols, start + width)
        fibers["u%02d" % t] = annulus
        fibers["a%02d" % t] = column_circle(rows, cols, start + width)
        pieces.append(("P%02d" % t, sorted(annulus)))
    return Fibering("torus%dx%d_over_C%d" % (rows, cols, vertices), surface,
                    graph, fibers, pieces, [1, 2, 1])


def genus2_fibering():
    surface, graph, fibers = genus2_reeb()
    return Fibering("genus2_reeb", surface, graph, fibers, None, [1, 4, 1])
