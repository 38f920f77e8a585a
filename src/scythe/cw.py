"""Regular CW complexes as graded posets with signed incidence numbers.

Incidence values live in {+1, -1} and sit on exactly the covering pairs of
the poset.  Construction checks both, then the codimension-two identity,
reporting every pair that breaks it; a face-closed subcomplex inherits all
three.  Over each sigma < tau with dim tau = dim sigma + 2,

    sum over lambda with sigma < lambda < tau of [sigma:lambda][lambda:tau] = 0.

A complex never changes, so its poset keeps each cell's covers in tuples,
and one that build_cw or subcomplex returns holds one id object per cell:
every incidence key and every adjacency entry is the cell's own id.
"""

from .errors import IncidenceIdentityViolation, NotASubcomplex, UnknownCell, ValidationError
from .poset import GradedPoset, _graded


class CWComplex:
    """A graded poset plus the incidence sign of every covering pair."""

    def __init__(self, poset, incidence):
        _check_signs(incidence)
        covers = {(x, y) for x, ys in poset.up.items() for y in ys}
        stray = covers.symmetric_difference(incidence)
        if stray:
            pair = min(stray)
            what = ("cover (%s, %s) has no incidence" if pair in covers
                    else "incidence [%s:%s] on a pair that is not a cover")
            raise ValidationError(what % pair)
        _check_identity(poset, incidence)
        self.poset = poset
        self.incidence = incidence

    def __contains__(self, cell):
        return cell in self.poset

    def cells(self):
        return self.poset.elements()

    def dim(self, cell):
        return self.poset.dim(cell)

    def sign(self, sigma, tau):
        return self.incidence.get((sigma, tau), 0)


def _check_signs(incidence):
    for (sigma, tau), sign in incidence.items():
        if sign not in (1, -1):
            raise ValidationError(
                "incidence [%s:%s] must be +1 or -1, got %r" % (sigma, tau, sign)
            )


def _check_identity(poset, incidence):
    bad = incidence_violations(poset, incidence)
    if bad:
        raise IncidenceIdentityViolation(bad)


def _signed(poset, incidence):
    """A CWComplex over incidences its caller held to +-1 and to the covers
    of poset (the JSON reader, build_cw): the sign identity is checked, the
    rest is not checked again."""
    _check_identity(poset, incidence)
    return _new(poset, incidence)


def _new(poset, incidence):
    cw = object.__new__(CWComplex)
    cw.poset = poset
    cw.incidence = incidence
    return cw


def incidence_violations(poset, incidence):
    """All (sigma, tau) pairs two dimensions apart whose sign sums are nonzero."""
    up = poset.up
    bad = []
    for sigma, lams in up.items():
        sums = {}
        for lam in lams:
            s1 = incidence[(sigma, lam)]
            for tau in up[lam]:
                sums[tau] = sums.get(tau, 0) + s1 * incidence[(lam, tau)]
        if any(sums.values()):
            bad.extend((sigma, tau) for tau, total in sums.items() if total)
    return sorted(bad)


def check_face_closed(cw, cells):
    """Raise unless the set cells holds only cells of cw and all their faces.

    The offending cells are gathered and the least one is named, so the
    error is the same on every run: UnknownCell for an unknown cell, or
    NotASubcomplex for a cell missing a face, naming the least face it
    misses.
    """
    dims, down = cw.poset.dims, cw.poset.down
    held = cells.issuperset
    bad = [c for c in cells if c not in dims or not held(down[c])]
    if bad:
        cell = min(bad)
        if cell not in dims:
            raise UnknownCell("no cell %r in the complex" % (cell,))
        missed = min(f for f in down[cell] if f not in cells)
        raise NotASubcomplex("cell %r kept but its face %r dropped"
                             % (cell, missed))


def subcomplex(cw, cells):
    """The full subcomplex on a face-closed cell subset.

    Cell ids carry over unchanged, so inclusions into the ambient complex
    are identity maps on ids, and nothing checked in cw is checked again.
    Since cw's incidences sit on exactly its covers, the kept covers are
    the faces of the kept cells, read in sorted order.  The result holds
    cw's id objects, not the caller's.
    """
    cells = set(cells)
    check_face_closed(cw, cells)
    poset = cw.poset
    kept = sorted(c for c in poset.dims if c in cells)
    incidence = {(f, c): cw.incidence[(f, c)]
                 for c in kept for f in sorted(poset.down[c])}
    dims = {c: poset.dims[c] for c in kept}
    return _new(GradedPoset(dims, incidence), incidence)


def build_cw(elements, signed_incidence):
    """A CWComplex on cells (id, dim) whose covers are the keys of
    {pair: sign}.

    The covers keep the caller's order, each endpoint the id object that
    elements declares it with.
    """
    signs = dict(signed_incidence)
    dims, pairs = _graded(elements, signs)
    incidence = dict(zip(pairs, signs.values()))
    _check_signs(incidence)
    return _signed(GradedPoset(dims, incidence), incidence)
