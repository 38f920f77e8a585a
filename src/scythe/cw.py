"""Regular CW complexes as graded posets with signed incidence numbers.

Incidence values live in {+1, -1}; a zero incidence is recorded by leaving
the covering pair out entirely.  Construction checks the codimension-two
identity and reports every pair that breaks it; a face-closed subcomplex
inherits it.  Over each sigma < tau with dim tau = dim sigma + 2,

    sum over lambda with sigma < lambda < tau of [sigma:lambda][lambda:tau] = 0.
"""

from .errors import IncidenceIdentityViolation, NotASubcomplex, UnknownCell, ValidationError
from .poset import GradedPoset, build_poset


class CWComplex:
    """A graded poset plus the incidence sign of every covering pair."""

    def __init__(self, poset, incidence):
        for (sigma, tau), sign in incidence.items():
            if sign not in (1, -1):
                raise ValidationError(
                    "incidence [%s:%s] must be +1 or -1, got %r" % (sigma, tau, sign)
                )
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


def _check_identity(poset, incidence):
    bad = incidence_violations(poset, incidence)
    if bad:
        raise IncidenceIdentityViolation(bad)


def _signed(poset, incidence):
    """A CWComplex over incidences its caller held to +-1 (the JSON reader):
    the sign identity is checked, the signs are not checked again."""
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

    Cells are read in sorted order, so the error is the same on every run:
    UnknownCell for the first unknown cell, or NotASubcomplex for the first
    cell missing a face, naming the least face it misses.
    """
    poset = cw.poset
    faces = poset.x_minus
    for cell in sorted(cells):
        if cell not in poset:
            raise UnknownCell("no cell %r in the complex" % (cell,))
        if not faces(cell) <= cells:
            raise NotASubcomplex("cell %r kept but its face %r dropped"
                                 % (cell, min(faces(cell) - cells)))


def subcomplex(cw, cells):
    """The full subcomplex on a face-closed cell subset.

    Cell ids carry over unchanged, so inclusions into the ambient complex
    are identity maps on ids, and nothing checked in cw is checked again.
    """
    keep = set(cells)
    check_face_closed(cw, keep)
    incidence = {
        pair: sign
        for pair, sign in cw.incidence.items()
        if pair[0] in keep and pair[1] in keep
    }
    dims = {c: cw.poset.dims[c] for c in sorted(keep)}
    return _new(GradedPoset(dims, incidence), incidence)


def build_cw(elements, signed_incidence):
    """A CWComplex on cells (id, dim) whose covers are the keys of {pair: sign}."""
    incidence = dict(signed_incidence)
    return CWComplex(build_poset(elements, incidence), incidence)
