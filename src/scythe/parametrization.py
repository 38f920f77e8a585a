"""Poset-parametrized cochain complexes, stored as covering-pair blocks.

A Parametrization attaches a free module of some rank to each poset element
and a nonzero matrix to each covering pair; a pair that is not a cover has
the zero map.  assemble snapshots the blocks with one layout per degree,
ordering cells by id, over the degree range fixed when the parametrization
was built.
d-squared, the cocycle test and cocycle transport read the blocks one
interval at a time; elimination reads them into sparse rows.

This module owns d^2 = 0 and the one nonzero block per cover.
Parametrization(...) checks d^2 and drops zero blocks; compile_sheaf, the
reader and nerve._support build both in; the sweep preserves both.  Every
parametrization, copies included, is made by _built, the one code that
indexes its poset: from the keys of its maps, in the sets the sweep
edits.  So elimination never checks d^2, and the sweep finds a block on
every cover.
"""

from itertools import compress

from .errors import InvalidSheafData
from .matrix import matvec_add
from .poset import GradedPoset


class Layout:
    """Ordered coordinates of one graded piece: cells sorted by id with offsets.

    owners(), the cell of each coordinate, is built on first use.
    """

    _owners = None

    def __init__(self, cells_with_ranks):
        self.cells = []
        self.offsets = {}
        self.ranks = {}
        total = 0
        for cell, rank in cells_with_ranks:
            self.cells.append(cell)
            self.offsets[cell] = total
            self.ranks[cell] = rank
            total += rank
        self.total = total

    def owners(self):
        """The list of the cell owning each coordinate."""
        if self._owners is None:
            self._owners = [c for c in self.cells for _ in range(self.ranks[c])]
        return self._owners

    def __contains__(self, cell):
        return cell in self.offsets


class Parametrization:
    """Stalk ranks and covering-pair matrices over a graded poset.

    Only the reduction engine may mutate one, and it requires exclusive
    ownership; everything else treats instances as read-only.  top is the
    greatest degree of the poset it was built on; copies keep it.  The
    constructor checks the blocks and d^2 = 0 (InvalidSheafData), then
    drops zero blocks with their covers and takes the fields _built makes
    over copies of the cells, ranks and blocks, so it shares nothing its
    caller may edit; the program's own builders call _built, having made
    sure of all this already.
    """

    def __init__(self, field, poset, stalk_rank, maps):
        check_blocks(field, poset, stalk_rank, maps)
        check_d_squared(field, maps, poset.dims)
        maps = {pair: m for pair, m in maps.items() if not m.is_zero()}
        built = _built(field, dict(poset.dims), dict(stalk_rank), maps)
        self.__dict__.update(built.__dict__)

    def copy(self):
        return _built(self.field, dict(self.poset.dims), dict(self.stalk_rank),
                      dict(self.maps), self.top)

    def layout(self, n):
        cells = self.poset.elements_of_dim(n)
        return Layout([(c, self.stalk_rank[c]) for c in cells])

    def max_dim(self):
        return self.top

    def max_stalk_rank(self):
        """Largest stalk rank, the parameter d of the complexity bound."""
        return max(self.stalk_rank.values(), default=0)

    def assemble(self):
        """The layouts of degrees 0..top and the blocks, as a CochainComplex."""
        layouts = {n: self.layout(n) for n in range(self.top + 1)}
        return CochainComplex(self.field, layouts, dict(self.maps))


def check_blocks(field, poset, stalk_rank, maps):
    """Raise InvalidSheafData unless every element has a rank >= 0 and every
    map sits on a cover, has the shape its ranks demand and is over field."""
    for x in poset.dims:
        r = stalk_rank.get(x)
        if r is None or r < 0:
            raise InvalidSheafData("missing or negative stalk rank on %r" % (x,))
    for (x, y), m in maps.items():
        if not poset.has_cover(x, y):
            raise InvalidSheafData("map on non-covering pair (%s, %s)" % (x, y))
        if m.rows != stalk_rank[y] or m.cols != stalk_rank[x]:
            raise InvalidSheafData(
                "map (%s, %s) has shape %dx%d, stalks demand %dx%d"
                % (x, y, m.rows, m.cols, stalk_rank[y], stalk_rank[x])
            )
        if m.field is not field and m.field != field:
            raise InvalidSheafData("map (%s, %s) over the wrong field" % (x, y))


def _built(field, dims, stalk_rank, maps, top=None):
    """A Parametrization over blocks checked where they were made, d^2
    included: no re-check.  It takes over its arguments and indexes its
    poset over dims from the keys of maps, in sets, which the sweep edits
    in place; its degrees run to top, by default the largest of dims."""
    up = {x: set() for x in dims}
    down = {x: set() for x in dims}
    for x, y in maps:
        up[x].add(y)
        down[y].add(x)
    poset = object.__new__(GradedPoset)
    poset.dims, poset.up, poset.down = dims, up, down
    param = object.__new__(Parametrization)
    param.field = field
    param.poset = poset
    param.stalk_rank = stalk_rank
    param.maps = maps
    param.top = poset.max_dim() if top is None else top
    return param


class CochainComplex:
    """Covering-pair blocks of a complex with the layouts indexing them.

    Made only by Parametrization.assemble, so the blocks square to zero.
    blocks maps (lower cell, upper cell) to its matrix; absent pairs are
    zero blocks.  The blocks indexed by their lower cell are built on
    first request and cached with the echelons in _cache.
    """

    def __init__(self, field, layouts, blocks):
        self.field = field
        self.layouts = layouts
        self.blocks = blocks
        self.top = max(layouts, default=-1)
        self._cache = {}

    def layout(self, n):
        if n in self.layouts:
            return self.layouts[n]
        return Layout([])

    def rank_c(self, n):
        return self.layout(n).total

    def blocks_from(self):
        """{cell x: [(y, F_xy), ...]}, the blocks leaving each cell."""
        out = self._cache.get("from")
        if out is None:
            out = self._cache["from"] = {}
            for (x, y), m in self.blocks.items():
                out.setdefault(x, []).append((y, m))
        return out


def nonzero_blocks(cx, vec, n):
    """{cell: its block of vec} for the cells of C^n where vec is nonzero,
    in layout order.

    The nonzero coordinates are found by one C-level scan (compress) and
    mapped to their cells by the layout's owners(), so a sparse vector
    costs its nonzero cells.  Raises ValueError unless vec has the rank of
    C^n.
    """
    layout = cx.layout(n)
    if len(vec) != layout.total:
        raise ValueError(
            "vector length %d, C^%d has rank %d" % (len(vec), n, layout.total)
        )
    owners, offsets, ranks = layout.owners(), layout.offsets, layout.ranks
    blocks = {}
    last = None
    for i in compress(range(len(vec)), vec):
        c = owners[i]
        if c != last:
            last = c
            off = offsets[c]
            blocks[c] = vec[off:off + ranks[c]]
    return blocks


def d_kills(cx, blocks):
    """Whether d sends the cochain with these nonzero blocks to zero.

    Only the blocks of cx leaving those cells are applied, read from the
    complex's index of blocks by lower cell; no coboundary matrix is read.
    """
    z = cx.field.zero
    leaving = cx.blocks_from()
    image = {}
    for x, part in blocks.items():
        for y, m in leaving.get(x, ()):
            matvec_add(m, part, image.setdefault(y, [z] * m.rows))
    return not any(map(any, image.values()))


def d_squared_witnesses(field, maps, dims):
    """The intervals sigma < tau over which the two-step map sums are nonzero.

    maps holds the blocks F_xy keyed (x, y), absent pairs being zero, and
    dims gives each cell's dimension.  d^{n+1} d^n vanishes exactly when
    sum over lambda of F_lambda,tau . F_sigma,lambda is zero for every sigma
    of dimension n and every tau of dimension n + 2, so only those sums are
    formed: one walk over the two-step paths, linear in the covers.  Returns
    (n, tau, sigma) for each nonzero sum, sorted.

    A witness depends only on whether the exact sum is zero, so the sums
    use plain + and *, in any order: F_p residues are summed as plain ints
    and reduced only when a sum is tested.  A 1x1 sum is one scalar, and a
    2x2x2 path adds its four entries in closed form; other paths run the
    loop.
    """
    up = {}
    for (x, y), m in maps.items():
        up.setdefault(x, []).append((y, m.cols, m.data))
    z = field.zero

    def nonzero(v):
        return v and field.add(v, z) != z

    witnesses = []
    for sigma, steps in up.items():
        scalars, sums = {}, {}
        for lam, cols, first in steps:
            for tau, _, second in up.get(lam, ()):
                if cols == 1 and len(second) == 1:
                    # a 1x1 sum is one scalar, whatever the rank of lam
                    if len(first) == 1:
                        t = second[0][0] * first[0][0]
                    else:
                        t = sum(s * f for s, (f,) in zip(second[0], first))
                    scalars[tau] = scalars.get(tau, 0) + t
                    continue
                acc = sums.get(tau)
                if acc is None:
                    acc = sums[tau] = [[0] * cols for _ in second]
                if cols == 2 and len(first) == 2 and len(second) == 2:
                    (p, q), (r, s) = second
                    (t, u), (v, w) = first
                    row0, row1 = acc
                    row0[0] += p * t + q * v
                    row0[1] += p * u + q * w
                    row1[0] += r * t + s * v
                    row1[1] += r * u + s * w
                    continue
                for arow, srow in zip(acc, second):
                    for k, s in enumerate(srow):
                        if s:
                            for j, f in enumerate(first[k]):
                                arow[j] += s * f
        for tau, acc in scalars.items():
            if nonzero(acc):
                witnesses.append((dims[sigma], tau, sigma))
        for tau, acc in sums.items():
            if any(nonzero(v) for row in acc for v in row):
                witnesses.append((dims[sigma], tau, sigma))
    witnesses.sort()
    return witnesses


def check_d_squared(field, maps, dims):
    """Raise InvalidSheafData naming each block where maps fail d^2 = 0."""
    witnesses = d_squared_witnesses(field, maps, dims)
    if witnesses:
        raise InvalidSheafData(
            "compiled coboundary does not square to zero; blocks: %r"
            % (witnesses,)
        )


def verify_d_squared(cx):
    """Check d^{n+1} . d^n = 0 for all n, one codimension-two interval at a time.

    Walks the complex's covering-pair blocks (see d_squared_witnesses); no
    coboundary matrices are multiplied.  Returns the sorted witnesses, so
    an empty list means d^2 = 0: (n, target cell, source cell) naming the
    offending block of the composite from C^n into C^{n+2}.
    """
    dims = {c: n for n, layout in cx.layouts.items() for c in layout.cells}
    return d_squared_witnesses(cx.field, cx.blocks, dims)
