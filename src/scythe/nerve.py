"""Covers, nerves, and sheaf cohomology pipelines over one-dimensional bases.

The decomposition theorems here compute H^n of a space from H^0 and H^1 of
sheaves living on a nerve or Reeb graph.  They are valid only when that base
is at most one-dimensional, so higher nerves are refused, not approximated.
Stalk computations are independent tasks; they run in task order in one
process.  Each fiber (support) is compiled straight from the base complex,
in one pass over its cells, as the rank-1 constant sheaf with a shared +I or
-I block on each kept cover.  It needs no d-squared walk: for +-I blocks d^2
is the sign identity of the base, which every face-closed subset inherits.
Supports are reduced so that each edge support's reduced complex sits
inside its endpoints', with the same cells and blocks: a pair outside an
edge support never corrects a block into it.  A restriction H^n(sigma) ->
H^n(tau) is then the map induced by copying tau's cells out of sigma's
reduced complex, in the flagged bases of the reduced fibers; the degree
sheaf of those maps is made here and is not checked again.  A base must be
a graph over which the supports present the space; others are refused.
"""

from collections import Counter
from functools import cached_property

from .cohomology import CohomologyProfile, betti, induced_map, sheaf_cohomology
from .cw import build_cw, check_face_closed
from .errors import (
    FiberInclusionViolated,
    FibersDoNotPresent,
    NerveTooBig,
    NotACover,
    NotASubcomplex,
    UnknownCell,
    ValidationError,
)
from .field import RATIONAL
from .matrix import Matrix
from .morse import _sweep, reduce_pair, scythe
from . import parametrization
from .poset import _indexed
from .sheaf import _built as _built_sheaf, constant_sheaf


class Cover:
    """A finite cover of a CW complex by face-closed pieces.

    Pieces are named; names become nerve vertex ids and are joined with "|"
    for higher simplices, so the bar is reserved.
    """

    def __init__(self, base, pieces):
        seen = {}
        for name, cells in pieces:
            if not name or "|" in name:
                raise NotACover("bad piece name %r" % (name,))
            if name in seen:
                raise NotACover("duplicate piece name %r" % (name,))
            cells = frozenset(cells)
            if not cells:
                raise NotACover("piece %r is empty" % (name,))
            seen[name] = cells
        if not seen:
            raise NotACover("a cover needs at least one piece")
        for name in sorted(seen):
            try:
                check_face_closed(base, seen[name])
            except (UnknownCell, NotASubcomplex) as exc:
                raise NotACover("piece %r: %s" % (name, exc)) from None
        missed = set(base.poset.dims) - frozenset().union(*seen.values())
        if missed:
            raise NotACover("cells not covered: %s" % (sorted(missed),))
        self.base = base
        self.pieces = {name: seen[name] for name in sorted(seen)}

    def names(self):
        return list(self.pieces)

    @cached_property
    def nerve(self):
        """nerve(self), built on first use and kept: a cover does not change."""
        return nerve(self)


class Nerve:
    """The nerve as a simplicial CWComplex plus the support of each simplex."""

    def __init__(self, cw, supports):
        self.cw = cw
        self.supports = supports

    @property
    def dim(self):
        return self.cw.poset.max_dim()


def nerve(cover):
    """All piece collections with nonempty intersection, as a complex.

    Simplex ids join the sorted piece names with "|"; incidence signs are
    the alternating ones of the induced vertex order.
    """
    level = {(name,): cover.pieces[name] for name in cover.names()}
    found = dict(level)
    while level:
        grown = {}
        for tup, supp in level.items():
            for name in cover.names():
                if name <= tup[-1]:
                    continue
                shared = supp & cover.pieces[name]
                if shared:
                    grown[tup + (name,)] = shared
        found.update(grown)
        level = grown
    elements = [("|".join(tup), len(tup) - 1) for tup in found]
    incidence = {}
    for tup in found:
        if len(tup) == 1:
            continue
        for i in range(len(tup)):
            face = tup[:i] + tup[i + 1:]
            incidence[("|".join(face), "|".join(tup))] = (-1) ** i
    cw = build_cw(elements, incidence)
    supports = {"|".join(tup): frozenset(supp) for tup, supp in found.items()}
    return Nerve(cw, supports)


def parallel_stalks(base, tasks, field=RATIONAL, workers=1):
    """Cohomology profiles of face-closed subsets, one per (cells, degree) task.

    Each subset is checked for face closure, then its constant sheaf is
    compiled in one pass (see _support) and reduced before its Betti numbers
    are taken.  Tasks run in order in one process, so results come back in
    task order and the first failing task raises.  workers is accepted and
    selects nothing.  Profiles are padded with zeros up to the requested
    degree so profile.betti[degree] always exists.
    """
    results = []
    for cells, degree in tasks:
        cells = set(cells)
        check_face_closed(base, cells)
        param = _support(base, cells, field)
        scythe(param)
        profile = betti(param.assemble())
        while len(profile.betti) <= degree:
            profile.betti.append(0)
        results.append(profile)
    return results


def _support(base, cells, field):
    """compile_sheaf(constant_sheaf(subcomplex(base, cells), 1, field)), built
    in one pass over the set cells, which its caller has checked face-closed.

    Each cell, in sorted order, gets rank 1 and its kept covers, and each
    face f of a cell c, in sorted order, the shared +I or -I block of the
    sign [f:c].  No CWComplex or CellularSheaf is built and nothing is
    walked for d^2: the blocks are +-I, so d^2 = 0 is the sign identity
    that base holds and the face-closed cells inherit, as check_sheaf
    reasons for constant sheaves.
    """
    poset, incidence = base.poset, base.incidence
    one = Matrix.identity(field, 1)
    block = {1: one, -1: one.neg()}
    dims, up, down, maps = {}, {}, {}, {}
    for c in sorted(cells):
        dims[c] = poset.dims[c]
        up[c] = poset.up[c] & cells
        down[c] = faces = set(poset.down[c])
        for f in sorted(faces):
            maps[(f, c)] = block[incidence[(f, c)]]
    return parametrization._built(field, _indexed(dims, up, down),
                                  dict.fromkeys(dims, 1), maps)


def _stalk_tables(graph, base, supports, field):
    """Reduced complex and its Betti profile for the support of every cell
    of graph, reduced so that each edge's sits inside its endpoints'.

    Supports are checked fibers or a cover's pieces and their intersections,
    each compiled in one pass from base (see _support).  Each edge support
    is swept plainly.  Each vertex support replays its edges' pairs, in
    sorted edge order, through reduce_pair, whose cover and inverse checks
    assert the nesting, and is swept with all its edges' cells frozen.
    Edge supports at a vertex are disjoint and a frozen cell is never
    paired, so a pair (x, y) outside an edge support only corrects blocks
    (w, z) with z above x, so z outside it too: the edge's reduced complex
    is the vertex's restricted to its cells, blocks included, and the
    vertex's lift restricts to the edge's.
    """
    params = {name: _support(base, supports[name], field)
              for name in sorted(supports)}
    edges_at = graph.poset.x_plus
    pairs = {tau: scythe(params[tau]).matching.pairs
             for tau in graph.poset.elements_of_dim(1)}
    for sigma in graph.poset.elements_of_dim(0):
        for tau in sorted(edges_at(sigma)):
            for x, y in pairs[tau]:
                reduce_pair(params[sigma], x, y)
        _sweep(params[sigma], True, True, [], None,
               set().union(*(supports[e] for e in edges_at(sigma))))
    reduced = {name: param.assemble() for name, param in params.items()}
    return reduced, {name: betti(cx) for name, cx in reduced.items()}


def _entry(profile, n):
    return profile.betti[n] if 0 <= n < len(profile.betti) else 0


def _degree_sheaf(cw, reduced, profiles, n, field):
    """The sheaf on cw whose stalks are degree-n cohomologies of supports.

    Stalks are in the flagged bases of the reduced supports, and each
    restriction is the induced map of the copy-out of the smaller reduced
    complex from the larger (see _stalk_tables).
    """
    ranks = {cell: _entry(profiles[cell], n) for cell in cw.poset.dims}
    restriction = {
        (sigma, tau): induced_map(reduced[sigma], reduced[tau], None, n)
        for sigma, tau in cw.poset.covers() if ranks[sigma] or ranks[tau]
    }
    return _built_sheaf(cw, field, ranks, restriction)


class SheafOverNerve:
    """A degree tag, a cellular sheaf on the nerve, and the supports used."""

    def __init__(self, degree, sheaf, supports):
        self.degree = degree
        self.sheaf = sheaf
        self.supports = supports

    @property
    def base(self):
        return self.sheaf.base


def _graph_nerve(cover):
    """cover.nerve, refused before it is built if a cell is in three pieces."""
    top = max(Counter(c for cells in cover.pieces.values()
                      for c in cells).values()) - 1
    if top > 1:
        raise NerveTooBig("nerve has a %d-simplex; the decomposition needs"
                          " dimension <= 1" % top)
    return cover.nerve


def cech_sheaf(cover, n, field=RATIONAL, workers=1):
    """Degree-n cohomology of supports arranged as a sheaf on the nerve.

    Refuses a nerve above dimension 1 (see _graph_nerve).  Stalks are in the
    reduced supports' flagged bases, and restrictions copy the smaller
    reduced support out of the larger (see _stalk_tables).  workers is
    accepted and selects nothing; stalks are computed in order.
    """
    nv = _graph_nerve(cover)
    reduced, profiles = _stalk_tables(nv.cw, cover.base, nv.supports, field)
    sheaf = _degree_sheaf(nv.cw, reduced, profiles, n, field)
    return SheafOverNerve(n, sheaf, dict(nv.supports))


def _decompose(base, graph, supports, field, reduce_first):
    """Betti numbers of base from the degree sheaves of supports on graph.

    graph is at most one-dimensional, so H^n(base) is H^0 of the degree-n
    sheaf plus H^1 of the degree-(n-1) sheaf, for n up to base's dimension.
    Each support is reduced once, nested in its neighbours (see
    _stalk_tables), and every degree sheaf copies its restrictions out of
    those reduced complexes.
    """
    reduced, profiles = _stalk_tables(graph, base, supports, field)
    out = []
    carry = 0
    for n in range(base.poset.max_dim() + 1):
        sheaf = _degree_sheaf(graph, reduced, profiles, n, field)
        b0 = b1 = 0
        if any(sheaf.stalk_rank.values()):
            profile = sheaf_cohomology(sheaf, reduce_first=reduce_first)
            b0, b1 = _entry(profile, 0), _entry(profile, 1)
        out.append(b0 + carry)
        carry = b1
    return CohomologyProfile(out)


def cohomology_via_cech(X, cover, field=RATIONAL, workers=1, reduce_first=True):
    """Betti numbers of X out of H^0/H^1 of its Čech sheaves on the nerve.

    The nerve must be a graph (see _graph_nerve).  Nerve-level sheaf
    cohomology runs through a reduction sweep unless reduce_first is off.
    workers is accepted and selects nothing; stalks are computed in order.
    """
    base = cover.base
    if X is not None and set(X.poset.dims) != set(base.poset.dims):
        raise NotACover("cover does not cover the given complex")
    nv = _graph_nerve(cover)
    return _decompose(base, nv.cw, nv.supports, field, reduce_first)


def validate_fibers(X, gamma, fibers):
    """Check a fiber assignment and return it with frozen cell sets.

    Every cell of gamma needs a fiber, no extras, and each edge fiber must
    be contained in both endpoint fibers.  Each fiber must then be
    face-closed in X; they are checked in sorted order, the order leray
    compiles them.  Last, the fibers must present X: each cell lies in one
    vertex fiber and no edge fiber, or in two vertex fibers and the fiber of
    one edge that joins them.  Four counts over the unions check that; on a
    fault FibersDoNotPresent names the least offending cell.  This is the
    one check of a fibering: the pipelines trust what it returns.
    """
    if gamma.poset.max_dim() > 1:
        raise NerveTooBig(
            "graph has dimension %d; the decomposition needs dimension <= 1"
            % gamma.poset.max_dim()
        )
    checked = {}
    for cell in gamma.cells():
        if cell not in fibers:
            raise ValidationError("no fiber assigned to graph cell %r" % (cell,))
        checked[cell] = frozenset(fibers[cell])
    for cell in fibers:
        if cell not in gamma.poset:
            raise ValidationError("fiber assigned to unknown graph cell %r" % (cell,))
    ends = gamma.poset.x_minus
    verts, edges = gamma.poset.elements_of_dim(0), gamma.poset.elements_of_dim(1)
    for edge in edges:
        for end in sorted(ends(edge)):
            stray = sorted(checked[edge] - checked[end])
            if stray:
                raise FiberInclusionViolated(
                    "fiber of edge %r reaches outside the fiber of endpoint %r:"
                    " cell %r" % (edge, end, stray[0])
                )
    for cell in sorted(checked):
        check_face_closed(X, checked[cell])
    held = set().union(*(checked[v] for v in verts))
    joined = set().union(*(checked[e] for e in edges))
    if (X.poset.dims.keys() - held
            or sum(len(checked[e]) for e in edges) != len(joined)
            or sum(len(checked[v]) for v in verts) - len(held) != len(joined)
            or any(checked[e] and len(ends(e)) != 2 for e in edges)):
        for cell in sorted(X.poset.dims):
            vs = [v for v in verts if cell in checked[v]]
            es = [e for e in edges if cell in checked[e]]
            if not vs:
                raise FibersDoNotPresent(
                    "no vertex fiber holds cell %r of the complex" % (cell,))
            if ((len(vs), len(es)) not in ((1, 0), (2, 1))
                    or es and set(vs) != ends(es[0])):
                raise FibersDoNotPresent(
                    "cell %r lies in vertex fibers %r and edge fibers %r"
                    % (cell, vs, es))
    return checked


def leray_sheaf(X, gamma, fibers, n, field=RATIONAL, workers=1):
    """Degree-n cohomology of the fibers as a sheaf on the graph gamma.

    fibers maps every cell of gamma to a face-closed subset of X and must
    present X (see validate_fibers).  Stalks are in the reduced fibers'
    flagged bases, and restrictions copy each edge's reduced fiber out of
    its endpoints' (see _stalk_tables).  workers is accepted and selects
    nothing; stalks are computed in order.
    """
    checked = validate_fibers(X, gamma, fibers)
    reduced, profiles = _stalk_tables(gamma, X, checked, field)
    sheaf = _degree_sheaf(gamma, reduced, profiles, n, field)
    return SheafOverNerve(n, sheaf, checked)


def cohomology_via_leray(X, gamma, fibers, field=RATIONAL, workers=1,
                         reduce_first=True):
    """Betti numbers of X from sheaves of fiber cohomology on a graph.

    workers is accepted and selects nothing; stalks are computed in order.
    """
    checked = validate_fibers(X, gamma, fibers)
    return _decompose(X, gamma, checked, field, reduce_first)


class NerveReport:
    """Outcome of the acyclicity hypothesis check for a cover.

    failures lists (simplex id, betti profile) for every non-acyclic
    support; betti_match is None when the check was skipped for that reason.
    """

    def __init__(self, all_acyclic, failures, nerve_betti, base_betti,
                 betti_match):
        self.all_acyclic = all_acyclic
        self.failures = failures
        self.nerve_betti = nerve_betti
        self.base_betti = base_betti
        self.betti_match = betti_match

    def __bool__(self):
        return self.all_acyclic and bool(self.betti_match)

    def __repr__(self):
        return ("NerveReport(all_acyclic=%r, failures=%r, betti_match=%r)"
                % (self.all_acyclic, self.failures, self.betti_match))


def _trimmed(profile):
    out = list(profile.betti)
    while out and out[-1] == 0:
        out.pop()
    return out


def _acyclic(profile):
    return _trimmed(profile) == [1]


def nerve_theorem_check(cover, field=RATIONAL, workers=1):
    """Check every support is acyclic; if so compare nerve and base Betti.

    workers is accepted and selects nothing; supports are checked in order.
    """
    nv = cover.nerve
    names = sorted(nv.supports)
    results = parallel_stalks(
        cover.base, [(nv.supports[name], 0) for name in names],
        field=field, workers=workers,
    )
    failures = [
        (name, profile) for name, profile in zip(names, results)
        if not _acyclic(profile)
    ]
    nerve_betti = sheaf_cohomology(constant_sheaf(nv.cw, 1, field))
    base_betti = sheaf_cohomology(constant_sheaf(cover.base, 1, field))
    match = None
    if not failures:
        match = _trimmed(nerve_betti) == _trimmed(base_betti)
    return NerveReport(not failures, failures, nerve_betti, base_betti, match)


class ComplexityEstimate:
    """Pipeline versus direct cost in the units of the cubic bounds, for
    fibers over graph already checked (see validate_fibers); with no fibers
    K is 0, and on an empty complex d (-1) counts as 0 and the ratio is
    None."""

    def __init__(self, X, graph, fibers):
        self.n_cells = len(X.poset)
        self.graph_cells = len(graph.poset)
        self.max_fiber = max(map(len, fibers.values()), default=0)
        self.dim = X.poset.max_dim()
        self.pipeline_cost = (self.max_fiber ** 3
                              + self.graph_cells ** 3 * max(self.dim, 0) ** 3)
        self.direct_cost = self.n_cells ** 3
        self.ratio = (self.pipeline_cost / self.direct_cost
                      if self.direct_cost else None)

    def to_json(self):
        return {
            "n_cells": self.n_cells,
            "graph_cells": self.graph_cells,
            "max_fiber": self.max_fiber,
            "dim": self.dim,
            "pipeline_cost": self.pipeline_cost,
            "direct_cost": self.direct_cost,
            "ratio": self.ratio,
        }


def complexity_estimate(X, gamma, fibers):
    """Cell counts and the K^3 + g^3 d^3 versus N^3 comparison of fibers
    that validate_fibers accepts (see ComplexityEstimate)."""
    return ComplexityEstimate(X, gamma, validate_fibers(X, gamma, fibers))
