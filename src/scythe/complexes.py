"""Fixture complexes: spheres of small ambition, tori, and a genus-2 surface
fibered over its Reeb graph.

Each builder returns a CWComplex (plus fiber data for the Reeb fixtures).
Two-cells follow one orientation convention throughout: traverse the bottom
boundary forward, climb the right side, cross the top backward, descend the
left side.  Interfaces between pieces then cancel, which keeps the surfaces
orientable.
"""

from .cw import build_cw


def point():
    return build_cw([("v", 0)], {})


def interval():
    """One edge with endpoints u, v; compiled constant maps are [1], [-1]."""
    elements = [("u", 0), ("v", 0), ("e", 1)]
    incidence = {("u", "e"): 1, ("v", "e"): -1}
    return build_cw(elements, incidence)


def path_complex(k):
    """A segment subdivided into k edges; contractible at any size."""
    elements = [("v%03d" % i, 0) for i in range(k + 1)]
    elements += [("e%03d" % i, 1) for i in range(k)]
    incidence = {}
    for i in range(k):
        incidence[("v%03d" % i, "e%03d" % i)] = -1
        incidence[("v%03d" % (i + 1), "e%03d" % i)] = 1
    return build_cw(elements, incidence)


def circle():
    """The two-vertex, two-edge circle; both edges run from a to b."""
    elements = [("a", 0), ("b", 0), ("e", 1), ("f", 1)]
    incidence = {
        ("a", "e"): 1,
        ("b", "e"): -1,
        ("a", "f"): -1,
        ("b", "f"): 1,
    }
    return build_cw(elements, incidence)


def circle_subdivided(k):
    """A circle of k vertices and k edges, edge i running v_i to v_{i+1}."""
    if k < 2:
        raise ValueError("need at least 2 edges")
    elements = [("v%02d" % i, 0) for i in range(k)]
    elements += [("e%02d" % i, 1) for i in range(k)]
    incidence = {}
    for i in range(k):
        incidence[("v%02d" % i, "e%02d" % i)] = -1
        incidence[("v%02d" % ((i + 1) % k), "e%02d" % i)] = 1
    return build_cw(elements, incidence)


def filled_triangle():
    """Three vertices, three edges, one 2-cell."""
    elements = [("u", 0), ("v", 0), ("w", 0),
                ("uv", 1), ("uw", 1), ("vw", 1), ("f", 2)]
    incidence = {
        ("u", "uv"): -1, ("v", "uv"): 1,
        ("u", "uw"): -1, ("w", "uw"): 1,
        ("v", "vw"): -1, ("w", "vw"): 1,
        ("uv", "f"): 1, ("vw", "f"): 1, ("uw", "f"): -1,
    }
    return build_cw(elements, incidence)


def theta_graph():
    """Two vertices joined by three parallel edges."""
    elements = [("a", 0), ("b", 0), ("e1", 1), ("e2", 1), ("e3", 1)]
    incidence = {}
    for e in ("e1", "e2", "e3"):
        incidence[("a", e)] = -1
        incidence[("b", e)] = 1
    return build_cw(elements, incidence)


def _torus_ids(i, j, rows, cols):
    return "%02d%02d" % (i % rows, j % cols)


def torus_grid(rows, cols):
    """Product torus as a rows x cols grid of squares.

    h edges run along a row (second index), w edges along a column; square
    q(i,j) has corners (i,j) through (i+1,j+1), indices wrapping.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 columns")
    elements = []
    incidence = {}
    for i in range(rows):
        for j in range(cols):
            tag = _torus_ids(i, j, rows, cols)
            elements += [("v" + tag, 0), ("h" + tag, 1), ("w" + tag, 1),
                         ("q" + tag, 2)]
    for i in range(rows):
        for j in range(cols):
            tag = _torus_ids(i, j, rows, cols)
            right = _torus_ids(i, j + 1, rows, cols)
            below = _torus_ids(i + 1, j, rows, cols)
            incidence[("v" + tag, "h" + tag)] = -1
            incidence[("v" + right, "h" + tag)] = 1
            incidence[("v" + tag, "w" + tag)] = -1
            incidence[("v" + below, "w" + tag)] = 1
            incidence[("h" + tag, "q" + tag)] = 1
            incidence[("w" + right, "q" + tag)] = 1
            incidence[("h" + below, "q" + tag)] = -1
            incidence[("w" + tag, "q" + tag)] = -1
    return build_cw(elements, incidence)


class _Builder:
    """Accumulates cells and signs for the pieced-together surfaces."""

    def __init__(self):
        self.elements = []
        self.incidence = {}

    def cell(self, name, dim):
        self.elements.append((name, dim))
        return name

    def sign(self, face, cell, s):
        self.incidence[(face, cell)] = s

    def circle(self, prefix, s):
        vs = [self.cell("%sv%d" % (prefix, i), 0) for i in range(s)]
        es = [self.cell("%se%d" % (prefix, i), 1) for i in range(s)]
        for i in range(s):
            self.sign(vs[i], es[i], -1)
            self.sign(vs[(i + 1) % s], es[i], 1)
        return vs, es

    def vertical(self, name, bottom_v, top_v):
        self.cell(name, 1)
        self.sign(bottom_v, name, -1)
        self.sign(top_v, name, 1)
        return name

    def square(self, name, bottom_e, right_e, top_e, left_e):
        self.cell(name, 2)
        self.sign(bottom_e, name, 1)
        self.sign(right_e, name, 1)
        self.sign(top_e, name, -1)
        self.sign(left_e, name, -1)
        return name

    def ring(self, prefix, bottom, top):
        """Annulus between two circles of equal size; returns its new cells."""
        bvs, bes = bottom
        tvs, tes = top
        s = len(bvs)
        rs = [self.vertical("%sr%d" % (prefix, i), bvs[i], tvs[i])
              for i in range(s)]
        cells = list(rs)
        for i in range(s):
            cells.append(self.square("%sq%d" % (prefix, i),
                                     bes[i], rs[(i + 1) % s], tes[i], rs[i]))
        return cells

    def cap(self, prefix, rim, apex_on_top):
        """Disk coning off a rim circle; returns its new cells."""
        vs, es = rim
        s = len(vs)
        apex = self.cell(prefix + "p", 0)
        rads = []
        for i in range(s):
            name = "%sr%d" % (prefix, i)
            if apex_on_top:
                rads.append(self.vertical(name, vs[i], apex))
            else:
                rads.append(self.vertical(name, apex, vs[i]))
        cells = [apex] + list(rads)
        for i in range(s):
            name = "%st%d" % (prefix, i)
            self.cell(name, 2)
            if apex_on_top:
                self.sign(es[i], name, 1)
                self.sign(rads[(i + 1) % s], name, 1)
                self.sign(rads[i], name, -1)
            else:
                self.sign(rads[(i + 1) % s], name, 1)
                self.sign(es[i], name, -1)
                self.sign(rads[i], name, -1)
            cells.append(name)
        return cells

    def figure_eight(self, prefix):
        """Wedge of two 4-edge loops sharing the vertex n."""
        n = self.cell(prefix + "n", 0)
        la = [n] + [self.cell("%sa%d" % (prefix, i), 0) for i in (1, 2, 3)]
        lb = [n] + [self.cell("%sb%d" % (prefix, i), 0) for i in (1, 2, 3)]
        ea, eb = [], []
        for i in range(4):
            e = self.cell("%sx%d" % (prefix, i), 1)
            self.sign(la[i], e, -1)
            self.sign(la[(i + 1) % 4], e, 1)
            ea.append(e)
        for i in range(4):
            e = self.cell("%sy%d" % (prefix, i), 1)
            self.sign(lb[i], e, -1)
            self.sign(lb[(i + 1) % 4], e, 1)
            eb.append(e)
        tau = la + lb
        phi = ea + eb
        cells = la[1:] + lb[1:] + [n] + ea + eb
        return {"tau": tau, "phi": phi, "loop_a": (la, ea), "loop_b": (lb, eb),
                "cells": cells}

    def wedge_piece(self, prefix, waist, fig8, fig8_on_top):
        """The saddle piece: an 8-circle sweeping once around a figure eight."""
        wvs, wes = waist
        tau, phi = fig8["tau"], fig8["phi"]
        ms = []
        for i in range(8):
            name = "%sm%d" % (prefix, i)
            if fig8_on_top:
                ms.append(self.vertical(name, wvs[i], tau[i]))
            else:
                ms.append(self.vertical(name, tau[i], wvs[i]))
        cells = list(ms)
        for i in range(8):
            name = "%sq%d" % (prefix, i)
            if fig8_on_top:
                cells.append(self.square(name, wes[i], ms[(i + 1) % 8],
                                         phi[i], ms[i]))
            else:
                cells.append(self.square(name, phi[i], ms[(i + 1) % 8],
                                         wes[i], ms[i]))
        return cells

    def pants(self, prefix, waist, cuff_a, cuff_b, waist_at_bottom):
        """Pair of pants joining an 8-circle waist to two 4-circle cuffs."""
        fig8 = self.figure_eight(prefix + "w")
        cells = list(fig8["cells"])
        cells += self.wedge_piece(prefix + "s", waist, fig8,
                                  fig8_on_top=waist_at_bottom)
        if waist_at_bottom:
            cells += self.ring(prefix + "ka", fig8["loop_a"], cuff_a)
            cells += self.ring(prefix + "kb", fig8["loop_b"], cuff_b)
        else:
            cells += self.ring(prefix + "ka", cuff_a, fig8["loop_a"])
            cells += self.ring(prefix + "kb", cuff_b, fig8["loop_b"])
        return cells

    def build(self):
        return build_cw(self.elements, self.incidence)


def _circle_cells(circle_pair):
    vs, es = circle_pair
    return set(vs) | set(es)


def genus2_surface():
    """Closed orientable genus-2 surface, assembled from caps and pants."""
    return genus2_reeb()[0]


def genus2_reeb():
    """The genus-2 fixture with its Reeb graph and fiber assignment.

    Returns (surface, graph, fibers) where the graph is the double-theta
    Reeb graph of the height function and fibers maps each graph cell to a
    face-closed subset of the surface: caps and pants over the nodes, the
    interface circles over the edges.
    """
    b = _Builder()
    c1 = b.circle("c1", 8)
    c2 = b.circle("c2", 8)
    c3 = b.circle("c3", 8)
    a1 = b.circle("a1", 4)
    b1 = b.circle("b1", 4)
    e1 = b.circle("e1", 4)
    f1 = b.circle("f1", 4)
    cap_bottom = b.cap("db", c1, apex_on_top=False)
    p1 = b.pants("p1", c1, a1, b1, waist_at_bottom=True)
    p2 = b.pants("p2", c2, a1, b1, waist_at_bottom=False)
    p3 = b.pants("p3", c2, e1, f1, waist_at_bottom=True)
    p4 = b.pants("p4", c3, e1, f1, waist_at_bottom=False)
    cap_top = b.cap("dt", c3, apex_on_top=True)
    surface = b.build()

    graph = build_cw(
        [("gb", 0), ("gs1", 0), ("gs2", 0), ("gs3", 0), ("gs4", 0), ("gt", 0),
         ("ge0", 1), ("gea", 1), ("geb", 1), ("ge1", 1),
         ("gec", 1), ("ged", 1), ("ge2", 1)],
        {
            ("gb", "ge0"): -1, ("gs1", "ge0"): 1,
            ("gs1", "gea"): -1, ("gs2", "gea"): 1,
            ("gs1", "geb"): -1, ("gs2", "geb"): 1,
            ("gs2", "ge1"): -1, ("gs3", "ge1"): 1,
            ("gs3", "gec"): -1, ("gs4", "gec"): 1,
            ("gs3", "ged"): -1, ("gs4", "ged"): 1,
            ("gs4", "ge2"): -1, ("gt", "ge2"): 1,
        },
    )
    ring1, ring2, ring3 = _circle_cells(c1), _circle_cells(c2), _circle_cells(c3)
    cuff_a, cuff_b = _circle_cells(a1), _circle_cells(b1)
    cuff_e, cuff_f = _circle_cells(e1), _circle_cells(f1)
    fibers = {
        "gb": set(cap_bottom) | ring1,
        "gs1": set(p1) | ring1 | cuff_a | cuff_b,
        "gs2": set(p2) | cuff_a | cuff_b | ring2,
        "gs3": set(p3) | ring2 | cuff_e | cuff_f,
        "gs4": set(p4) | cuff_e | cuff_f | ring3,
        "gt": set(cap_top) | ring3,
        "ge0": ring1,
        "gea": cuff_a,
        "geb": cuff_b,
        "ge1": ring2,
        "gec": cuff_e,
        "ged": cuff_f,
        "ge2": ring3,
    }
    return surface, graph, fibers


def _strip(kinds, j):
    """Cells of the given kinds in column j, wrapped, of the 3x6 torus grid.

    "vw" is the vertical circle at j; "hq" is the band of h edges and
    squares to its right.
    """
    return {"%s%02d%02d" % (kind, i, j % 6) for kind in kinds for i in range(3)}


def torus_reeb():
    """Product torus projected to a 3-vertex circle graph.

    Fibers over graph vertices are 3-column annuli of the 3x6 grid; fibers
    over graph edges are the single shared vertical circles.
    """
    surface = torus_grid(3, 6)
    graph = build_cw(
        [("u0", 0), ("u1", 0), ("u2", 0), ("a0", 1), ("a1", 1), ("a2", 1)],
        {
            ("u0", "a0"): -1, ("u1", "a0"): 1,
            ("u1", "a1"): -1, ("u2", "a1"): 1,
            ("u2", "a2"): -1, ("u0", "a2"): 1,
        },
    )
    fibers = {}
    for t in range(3):
        center = 2 * t
        fibers["u%d" % t] = (_strip("vw", center - 1) | _strip("vw", center)
                             | _strip("vw", center + 1)
                             | _strip("hq", center - 1) | _strip("hq", center))
        fibers["a%d" % t] = _strip("vw", center + 1)
    return surface, graph, fibers


def torus_reeb_fine():
    """Same torus, projected to a 6-vertex circle graph instead.

    One graph vertex per column of squares, so the vertex fibers are the
    smallest annuli the grid supports.
    """
    cols = 6
    surface = torus_grid(3, cols)
    elements = []
    incidence = {}
    for j in range(cols):
        elements += [("u%d" % j, 0), ("a%d" % j, 1)]
        incidence[("u%d" % j, "a%d" % j)] = -1
        incidence[("u%d" % ((j + 1) % cols), "a%d" % j)] = 1
    graph = build_cw(elements, incidence)
    fibers = {}
    for j in range(cols):
        fibers["u%d" % j] = (_strip("vw", j) | _strip("hq", j)
                             | _strip("vw", j + 1))
        fibers["a%d" % j] = _strip("vw", j + 1)
    return surface, graph, fibers


def two_arc_cover_cells():
    """The 8-cell circle split into two overlapping arcs meeting at v00, v04."""
    base = circle_subdivided(8)
    arc_a = {"v00", "v01", "v02", "v03", "v04", "e00", "e01", "e02", "e03"}
    arc_b = {"v04", "v05", "v06", "v07", "v00", "e04", "e05", "e06", "e07"}
    return base, [("A", arc_a), ("B", arc_b)]


def three_arc_cover_cells():
    """The 6-cell circle split into three arcs with single-vertex overlaps."""
    base = circle_subdivided(6)
    arc_a = {"v00", "v01", "v02", "e00", "e01"}
    arc_b = {"v02", "v03", "v04", "e02", "e03"}
    arc_c = {"v04", "v05", "v00", "e04", "e05"}
    return base, [("A", arc_a), ("B", arc_b), ("C", arc_c)]
