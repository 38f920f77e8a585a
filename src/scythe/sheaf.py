"""Cellular sheaves over CW complexes and their compiled parametrizations.

A sheaf stores stalk ranks and raw restriction maps on covering pairs;
compiling folds the incidence sign into each map and drops the pairs whose
signed map is zero, so absence always means the zero map downstream; the
signed maps go to parametrization._built, which indexes the compiled poset
from them.
"""

from .cw import check_face_closed
from .errors import UnknownCell, ValidationError
from .field import RATIONAL
from .matrix import Matrix
from . import parametrization
from .parametrization import check_blocks, check_d_squared


class CellularSheaf:
    """Stalk ranks and restriction matrices over the cells of a CWComplex."""

    def __init__(self, base, field, stalk_rank, restriction):
        check_blocks(field, base.poset, stalk_rank, restriction)
        self.base = base
        self.field = field
        self.stalk_rank = stalk_rank
        self.restriction = restriction


def _built(base, field, stalk_rank, restriction):
    """A CellularSheaf over blocks checked where they were read, or made by
    the program itself: no re-check."""
    sheaf = object.__new__(CellularSheaf)
    sheaf.base = base
    sheaf.field = field
    sheaf.stalk_rank = stalk_rank
    sheaf.restriction = restriction
    return sheaf


def constant_sheaf(base, rank=1, field=RATIONAL):
    """Rank-k stalk on every cell, identity on every covering pair."""
    if rank < 0:
        raise ValidationError("rank must be nonnegative")
    ident = Matrix.identity(field, rank)
    stalks = {cell: rank for cell in base.poset.dims}
    maps = {pair: ident for pair in base.incidence}
    return _built(base, field, stalks, maps)


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
    return _built(base, field, stalks, maps)


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
    return _built(base, field, stalks, maps)


def check_sheaf(sheaf):
    """Fold incidence signs into the restrictions and check d-squared.

    Returns the signed maps, keyed by covering pair, with the maps that
    vanish dropped; each distinct restriction is signed and zero-tested
    once, so a constant sheaf shares one -I.  When every cover carries an
    identity block, each codimension-two sum is I times a sign sum that
    CWComplex holds to zero, so the walk of check_d_squared is skipped.
    """
    base = sheaf.base
    signed = {}
    maps = {}
    walk = len(sheaf.restriction) != len(base.incidence)
    for pair, raw in sheaf.restriction.items():
        key = (id(raw), base.incidence[pair])
        if key not in signed:
            signed[key] = None if raw.is_zero() else raw if key[1] == 1 else raw.neg()
            walk = walk or raw != Matrix.identity(raw.field, raw.rows)
        if signed[key] is not None:
            maps[pair] = signed[key]
    if walk:
        check_d_squared(sheaf.field, maps, base.poset.dims)
    return maps


def compile_sheaf(sheaf):
    """Fold incidence signs into the restrictions and build a Parametrization.

    Signed maps that vanish are dropped with their covering pair, so the
    resulting poset records only the pairs that actually carry a map.  The
    signed maps are checked to square to zero (see check_sheaf); the blocks,
    checked when the sheaf was built, are not checked again.
    """
    maps = check_sheaf(sheaf)
    return parametrization._built(sheaf.field, dict(sheaf.base.poset.dims),
                                  dict(sheaf.stalk_rank), maps)
