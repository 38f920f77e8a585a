"""Cohomology of assembled complexes: Betti numbers, cocycle bases, and the
maps induced on cohomology by inclusions of complexes.

Elimination is the one reader of dense coboundaries: it asks the complex
for d^n, which is stacked from the covering-pair blocks on first request.
Each complex caches two echelon factorizations per dimension n next to it:
that of d^n, which every rank and kernel reuses, and that of
[d^{n-1} | kernel], which flags the cohomology representatives and solves
for class coordinates.  The cocycle checks read the blocks.  A complex is
not checked for d-squared here: every Parametrization squares to zero from
construction (see parametrization), and assemble is the only maker of one.
"""

from .errors import SolveFailed, UnknownCell
from .matrix import EchelonSolver, Matrix
from .morse import scythe
from .parametrization import is_cocycle
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
        cx._cache[key] = EchelonSolver(cx.d(n))
    return cx._cache[key]


def betti(cx, generators=False):
    """Betti numbers of every dimension of the complex.

    With generators=True the profile also carries, per dimension, the
    flagged cocycle representatives as matrix columns.
    """
    numbers = []
    gens = {} if generators else None
    for n in range(cx.top + 1):
        kernel_dim = cx.rank_c(n) - _solver(cx, n).rank
        image_dim = _solver(cx, n - 1).rank if n > 0 else 0
        numbers.append(kernel_dim - image_dim)
        if generators:
            basis = cocycle_basis(cx, n)
            cols = [basis.matrix.column(j) for j in basis.flagged]
            gens[n] = Matrix(cx.field, len(cols), cx.rank_c(n), cols).transpose()
    return CohomologyProfile(numbers, gens)


class CocycleBasis:
    """Kernel representatives at one dimension.

    matrix columns span the cocycles; flagged lists the column indices that
    stay independent after quotienting by coboundaries.  classes is the
    echelon of [d^{n-1} | matrix] the flags were read from, whose first
    offset columns are the coboundaries.
    """

    def __init__(self, matrix, flagged, classes, offset):
        self.matrix = matrix
        self.flagged = flagged
        self.classes = classes
        self.offset = offset


def cocycle_basis(cx, n):
    key = ("basis", n)
    if key in cx._cache:
        return cx._cache[key]
    if 0 <= n <= cx.top:
        kernel = _solver(cx, n).kernel_basis()
        bound = cx.d(n - 1)
    else:
        kernel = bound = Matrix.zeros(cx.field, 0, 0)
    total = kernel.rows
    data = [bound.data[i] + kernel.data[i] for i in range(total)]
    classes = EchelonSolver(
        Matrix(cx.field, total, bound.cols + kernel.cols, data)
    )
    flagged = [j - bound.cols for j in classes.pivots if j >= bound.cols]
    out = CocycleBasis(kernel, flagged, classes, bound.cols)
    cx._cache[key] = out
    return out


def class_coordinates(cx, vec, n):
    """Coordinates of a cocycle's class in the flagged basis at dimension n.

    The pivot columns of [d^{n-1} | kernel] span the cocycles, so a cocycle
    has one expression in them; its coefficients on the flagged kernel
    columns are the coordinates.
    """
    if not is_cocycle(cx, vec, n):
        raise SolveFailed("vector at dimension %d is not a cocycle" % n)
    basis = cocycle_basis(cx, n)
    sol = basis.classes.solve(vec)
    if sol is None:
        raise SolveFailed("cocycle not spanned by coboundaries and representatives")
    return [sol[basis.offset + j] for j in basis.flagged]


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
