"""Seeded random instances for the property tests.

Random bases are downward-closed simplicial complexes, so the incidence
identity holds by construction.  Random sheaves are direct sums of the
three basic shapes conjugated by a random change of basis on every stalk;
that keeps d^2 = 0 automatic while producing plenty of non-invertible
blocks, and the expected Betti numbers are just the sums over summands.
"""

import random
from fractions import Fraction

from scythe.complexes import torus_grid
from scythe.cw import CWComplex, build_cw
from scythe.matrix import Matrix, mat_mul, try_invert
from scythe.sheaf import (
    CellularSheaf,
    compile_sheaf,
    constant_sheaf,
    pushforward_constant,
    skyscraper_sheaf,
)


def random_simplicial(rng, max_vertices=7, max_dim=3, max_cells=20):
    """Random downward-closed simplex set, returned as a CWComplex."""
    nv = rng.randint(1, max_vertices)
    simplices = {(v,) for v in range(nv)}
    budget = rng.randint(0, max_cells)
    attempts = budget * 3
    while len(simplices) < budget and attempts > 0:
        attempts -= 1
        k = rng.randint(1, max_dim)
        verts = tuple(sorted(rng.sample(range(nv), min(k + 1, nv))))
        if len(verts) < 2 or verts in simplices:
            continue
        closure = set()
        stack = [verts]
        while stack:
            s = stack.pop()
            if s in simplices or s in closure:
                continue
            closure.add(s)
            if len(s) > 1:
                stack.extend(s[:i] + s[i + 1:] for i in range(len(s)))
        if len(simplices) + len(closure) <= max_cells:
            simplices |= closure
    return simplicial_to_cw(simplices)


def simplicial_to_cw(simplices):
    def name(s):
        return "s" + "_".join(str(v) for v in s)

    elements = [(name(s), len(s) - 1) for s in simplices]
    incidence = {}
    for s in simplices:
        if len(s) == 1:
            continue
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            incidence[(name(face), name(s))] = (-1) ** i
    return build_cw(elements, incidence)


def random_face_closed(rng, base):
    """Downward closure of a random cell subset; may be empty."""
    cells = sorted(base.cells())
    chosen = {c for c in cells if rng.random() < 0.4}
    out = set()
    stack = list(chosen)
    while stack:
        c = stack.pop()
        if c in out:
            continue
        out.add(c)
        stack.extend(base.poset.x_minus(c))
    return out


def random_invertible(rng, field, n):
    """Random change of basis, built from elementary operations."""
    m = Matrix.identity(field, n)
    data = [row[:] for row in m.data]
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = field.parse(str(rng.randint(-2, 2)))
        for k in range(n):
            data[i][k] = field.add(data[i][k], field.mul(c, data[j][k]))
    out = Matrix(field, n, n, data)
    assert try_invert(out) is not None
    return out


def random_sheaf(rng, base, field, max_rank=3):
    """Direct sum of basic sheaves, conjugated stalkwise.

    Returns (sheaf, expected), where expected is the Betti profile the sum
    decomposition predicts (computed from the summand supports by the
    caller's own counting, not by this library).
    """
    cells = sorted(base.cells())
    k = rng.randint(1, max_rank)
    summands = []
    for _ in range(k):
        kind = rng.choice(("constant", "skyscraper", "pushforward"))
        if kind == "constant":
            summands.append(constant_sheaf(base, 1, field))
        elif kind == "skyscraper":
            summands.append(skyscraper_sheaf(base, rng.choice(cells), field))
        else:
            sub = random_face_closed(rng, base)
            if not sub:
                summands.append(skyscraper_sheaf(base, rng.choice(cells), field))
            else:
                summands.append(pushforward_constant(base, sub, field))

    return conjugated_sum(rng, base, field, summands), summands


def conjugated_sum(rng, base, field, summands):
    """Direct sum of sheaves on base, conjugated by random stalk bases."""
    cells = sorted(base.cells())
    stalks = {c: sum(s.stalk_rank[c] for s in summands) for c in cells}
    maps = {}
    for pair in base.incidence:
        s, t = pair
        rows, cols = stalks[t], stalks[s]
        data = [[field.zero] * cols for _ in range(rows)]
        ro = co = 0
        for sm in summands:
            block = sm.restriction[pair]
            for i in range(block.rows):
                for j in range(block.cols):
                    data[ro + i][co + j] = block.data[i][j]
            ro += block.rows
            co += block.cols
        maps[pair] = Matrix(field, rows, cols, data)

    basis = {c: random_invertible(rng, field, stalks[c]) for c in cells}
    inverse = {c: try_invert(basis[c]) for c in cells}
    twisted = {}
    for (s, t), m in maps.items():
        twisted[(s, t)] = mat_mul(basis[t], mat_mul(m, inverse[s]))
    return CellularSheaf(base, field, stalks, twisted)


def random_parametrization(rng, base, field, max_rank=3):
    sheaf, _ = random_sheaf(rng, base, field, max_rank)
    return compile_sheaf(sheaf)


# the summands of the twisted sums that the benchmark's surface_direct
# workload reads as sheaf documents
TWISTED_SUMS = (
    (("constant",), ("skyscraper", 1)),
    (("constant",), ("row",), ("cell", 2)),
    (("constant",), ("constant",)),
    (("constant",), ("column",), ("skyscraper", 0)),
    (("constant",), ("constant",), ("skyscraper", 2)),
    (("row",), ("column",), ("cell", 1)),
)


def twisted_torus_sum(rng, rows, cols, kinds, field):
    """conjugated_sum of basic sheaves on torus_grid(rows, cols).

    kinds names the summands: ("constant",), ("skyscraper", k) on a random
    k-cell, ("cell", k) pushed forward from the closure of a random k-cell,
    and ("row",) or ("column",) pushed forward from a random grid circle.
    """
    cw = torus_grid(rows, cols)

    def tag(i, j):
        return "%02d%02d" % (i % rows, j % cols)

    def summand(kind):
        if kind[0] == "constant":
            return constant_sheaf(cw, 1, field)
        if kind[0] == "row":
            i = rng.randrange(rows)
            cells = {p + tag(i, j) for j in range(cols) for p in "vh"}
            return pushforward_constant(cw, cells, field)
        if kind[0] == "column":
            j = rng.randrange(cols)
            cells = {p + tag(i, j) for i in range(rows) for p in "vw"}
            return pushforward_constant(cw, cells, field)
        cell = rng.choice(cw.poset.elements_of_dim(kind[1]))
        if kind[0] == "skyscraper":
            return skyscraper_sheaf(cw, cell, field)
        closure, stack = set(), [cell]
        while stack:
            c = stack.pop()
            if c not in closure:
                closure.add(c)
                stack.extend(cw.poset.x_minus(c))
        return pushforward_constant(cw, closure, field)

    return conjugated_sum(rng, cw, field, [summand(kind) for kind in kinds])
