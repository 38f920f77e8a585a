"""Cohomology of assembled complexes: Betti numbers, cocycle bases, and the
maps induced on cohomology by inclusions of complexes.

Elimination reads the covering-pair blocks straight into sparse rows; no
dense coboundary is stacked.  Each complex caches two echelons per
dimension n next to it: that of d^n, with no transform, which every rank
and kernel reuses, and that of [d^{n-1} | kernel], whose pivots flag the
cohomology representatives and whose transform solves for class
coordinates.  The cocycle checks read the blocks.  A complex is not
checked for d-squared here: every Parametrization squares to zero from
construction (see parametrization), and assemble is the only maker of one.
"""

from .errors import SolveFailed, UnknownCell
from .matrix import EchelonSolver, Matrix
from .morse import scythe
from .parametrization import d_kills, nonzero_blocks
from .sheaf import compile_sheaf


class CohomologyProfile:
    """Betti numbers by dimension, optionally with generator matrices."""

    def __init__(self, betti, generators=None):
        self.betti = list(betti)
        self.generators = generators

    def __eq__(self, other):
        return isinstance(other, CohomologyProfile) and self.betti == other.betti

    def __repr__(self):
        return "CohomologyProfile(%r)" % (self.betti,)

    def to_json(self):
        out = {"betti": self.betti}
        if self.generators is not None:
            out["generators"] = {
                str(n): m.to_json() for n, m in sorted(self.generators.items())
            }
        return out


def sheaf_cohomology(sheaf, reduce_first=True):
    """Betti profile of a cellular sheaf, via a reduction sweep by default.

    The profile spans degrees 0 through the base complex dimension, as the
    parametrization keeps its degree range through the reduction.
    """
    param = compile_sheaf(sheaf)
    if reduce_first:
        scythe(param)
    return betti(param.assemble())


def _solver(cx, n):
    key = ("echelon", n)
    if key not in cx._cache:
        cx._cache[key] = EchelonSolver.of_rows(
            cx.field, cx.rank_c(n + 1), cx.rank_c(n), _coboundary_rows(cx, n), False)
    return cx._cache[key]


def _coboundary_rows(cx, n):
    """d^n as {row: {column: entry}} with the blocks' entries.

    A stored zero of the field zero's type is left out, as elimination
    leaves out the zeros it computes, so a rank-r identity block costs r
    entries, not r^2; a zero of another type (Fraction(0)) stays.
    """
    src, dst = cx.layout(n), cx.layout(n + 1)
    leaving, rows = cx.blocks_from(), {}
    zero = cx.field.zero
    zero_type = type(zero)
    for x, c0 in src.offsets.items():
        for y, m in leaving.get(x, ()):
            cols = range(c0, c0 + m.cols)
            for i, entries in enumerate(m.data, dst.offsets[y]):
                pairs = zip(cols, entries)
                if zero in entries:
                    pairs = ((j, v) for j, v in pairs
                             if v or type(v) is not zero_type)
                rows.setdefault(i, {}).update(pairs)
    return rows


def betti(cx, generators=False):
    """Betti numbers of every dimension of the complex.

    With generators=True the profile also carries, per dimension, the
    flagged cocycle representatives as matrix columns.
    """
    numbers = []
    gens = {} if generators else None
    for n in range(cx.top + 1):
        numbers.append(cx.rank_c(n) - _solver(cx, n).rank
                       - (_solver(cx, n - 1).rank if n else 0))
        if generators:
            basis = cocycle_basis(cx, n)
            gens[n] = Matrix(cx.field, cx.rank_c(n), len(basis.flagged),
                             [[row[j] for j in basis.flagged] for row in basis.matrix.data])
    return CohomologyProfile(numbers, gens)


class CocycleBasis:
    """Kernel representatives at one dimension.

    matrix columns span the cocycles; flagged lists the column indices that
    stay independent after quotienting by coboundaries.  classes is the
    echelon of [d^{n-1} | matrix] the flags were read from.
    """

    def __init__(self, matrix, flagged, classes):
        self.matrix = matrix
        self.flagged = flagged
        self.classes = classes


def cocycle_basis(cx, n):
    key = ("basis", n)
    if key not in cx._cache:
        kernel = _solver(cx, n).kernel_basis()
        offset, rows = cx.rank_c(n - 1), _coboundary_rows(cx, n - 1)
        for i, entries in enumerate(kernel.data):
            rows.setdefault(i, {}).update(
                (offset + j, v) for j, v in enumerate(entries) if v)
        classes = EchelonSolver.of_rows(
            cx.field, kernel.rows, offset + kernel.cols, rows, True)
        flagged = [j - offset for j in classes.pivots if j >= offset]
        cx._cache[key] = CocycleBasis(kernel, flagged, classes)
    return cx._cache[key]


def class_coordinates(cx, vec, n):
    """Coordinates of a cocycle's class in the flagged basis at dimension n.

    The pivot columns of [d^{n-1} | kernel] span the cocycles, so a cocycle
    has one expression in them; its coefficients on the flagged kernel
    columns are the coordinates.
    """
    if not d_kills(cx, nonzero_blocks(cx, vec, n)):
        raise SolveFailed("vector at dimension %d is not a cocycle" % n)
    basis = cocycle_basis(cx, n)
    sol = basis.classes.solve(vec)
    if sol is None:
        raise SolveFailed("cocycle not spanned by coboundaries and representatives")
    return [sol[cx.rank_c(n - 1) + j] for j in basis.flagged]


def induced_map(big, small, embedding, n):
    """Matrix of H^n(big) -> H^n(small) for an inclusion of complexes.

    embedding maps each cell of small to the corresponding cell of big;
    None means the ids coincide.  Restriction copies each small cell's block
    out of the big representative, then the class is solved for in small's
    flagged basis.
    """
    src = big.layout(n)
    dst = small.layout(n)
    spots = []
    for c in dst.cells:
        b = embedding[c] if embedding is not None else c
        if b not in src.offsets:
            raise UnknownCell("embedding target %r missing at dimension %d" % (b, n))
        if src.ranks[b] != dst.ranks[c]:
            raise SolveFailed(
                "stalk ranks differ across the embedding at %r" % (c,)
            )
        spots.append((dst.offsets[c], src.offsets[b], dst.ranks[c]))
    big_basis = cocycle_basis(big, n)
    cols = []
    for j in big_basis.flagged:
        rep = big_basis.matrix.column(j)
        restricted = [small.field.zero] * dst.total
        for doff, soff, r in spots:
            restricted[doff:doff + r] = rep[soff:soff + r]
        cols.append(class_coordinates(small, restricted, n))
    small_flags = len(cocycle_basis(small, n).flagged)
    data = [[col[i] for col in cols] for i in range(small_flags)]
    return Matrix(small.field, small_flags, len(cols), data)
