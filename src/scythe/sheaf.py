"""Cellular sheaves over CW complexes and their compiled parametrizations.

A sheaf stores stalk ranks and raw restriction maps on covering pairs;
compiling folds the incidence sign into each map and drops the pairs whose
signed map is zero, so absence always means the zero map downstream.
"""

from .cw import check_face_closed
from .errors import InvalidSheafData, UnknownCell, ValidationError
from .field import RATIONAL
from .matrix import Matrix
from .parametrization import Parametrization, d_squared_witnesses


class CellularSheaf:
    """Stalk ranks and restriction matrices over the cells of a CWComplex."""

    def __init__(self, base, field, stalk_rank, restriction):
        for cell in base.poset.dims:
            r = stalk_rank.get(cell)
            if r is None or r < 0:
                raise InvalidSheafData("missing or negative stalk rank on %r" % (cell,))
        for (s, t), m in restriction.items():
            if not base.poset.has_cover(s, t):
                raise InvalidSheafData(
                    "restriction on non-covering pair (%s, %s)" % (s, t)
                )
            if m.rows != stalk_rank[t] or m.cols != stalk_rank[s]:
                raise InvalidSheafData(
                    "restriction (%s, %s) has shape %dx%d, stalks demand %dx%d"
                    % (s, t, m.rows, m.cols, stalk_rank[t], stalk_rank[s])
                )
        self.base = base
        self.field = field
        self.stalk_rank = stalk_rank
        self.restriction = restriction


def constant_sheaf(base, rank=1, field=RATIONAL):
    """Rank-k stalk on every cell, identity on every covering pair."""
    if rank < 0:
        raise ValidationError("rank must be nonnegative")
    ident = Matrix.identity(field, rank)
    stalks = {cell: rank for cell in base.poset.dims}
    maps = {pair: ident for pair in base.incidence}
    return CellularSheaf(base, field, stalks, maps)


def skyscraper_sheaf(base, cell, field=RATIONAL):
    """Rank 1 on the named cell, zero everywhere else."""
    if cell not in base.poset.dims:
        raise UnknownCell("no cell %r in the base complex" % (cell,))
    stalks = {c: 0 for c in base.poset.dims}
    stalks[cell] = 1
    maps = {
        pair: Matrix.zeros(field, stalks[pair[1]], stalks[pair[0]])
        for pair in base.incidence
    }
    return CellularSheaf(base, field, stalks, maps)


def pushforward_constant(base, subcomplex, field=RATIONAL):
    """Constant rank-1 sheaf on a face-closed cell subset, zero outside it."""
    cells = set(subcomplex)
    check_face_closed(base, cells)
    stalks = {c: (1 if c in cells else 0) for c in base.poset.dims}
    one = Matrix.identity(field, 1)
    maps = {}
    for pair in base.incidence:
        s, t = pair
        if s in cells and t in cells:
            maps[pair] = one
        else:
            maps[pair] = Matrix.zeros(field, stalks[t], stalks[s])
    return CellularSheaf(base, field, stalks, maps)


def check_sheaf(sheaf):
    """Fold incidence signs into the restrictions and check d-squared.

    Returns the signed maps, keyed by covering pair, with the maps that
    vanish dropped.  Raises InvalidSheafData unless, over every sigma < tau
    two dimensions apart, the signed maps along the paths through the
    cells between them sum to zero; the cost is linear in the covers.
    """
    base = sheaf.base
    maps = {}
    for pair, raw in sheaf.restriction.items():
        signed = raw if base.incidence[pair] == 1 else raw.neg()
        if not signed.is_zero():
            maps[pair] = signed
    witnesses = d_squared_witnesses(sheaf.field, maps, base.poset.dims)
    if witnesses:
        raise InvalidSheafData(
            "compiled coboundary does not square to zero; blocks: %r"
            % (witnesses,)
        )
    return maps


def compile_sheaf(sheaf):
    """Fold incidence signs into the restrictions and build a Parametrization.

    Signed maps that vanish are dropped with their covering pair, so the
    resulting poset records only the pairs that actually carry a map.  The
    signed maps are checked to square to zero per codimension-two interval
    (see check_sheaf) before anything is built; nothing is assembled.
    """
    base = sheaf.base
    maps = check_sheaf(sheaf)
    poset = base.poset.copy()
    for pair in base.incidence:
        if pair not in maps:
            poset.remove_cover(*pair)
    return Parametrization(sheaf.field, poset, dict(sheaf.stalk_rank), maps)
