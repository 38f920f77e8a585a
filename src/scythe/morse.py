"""Acyclic matchings and the queue-driven reduction of parametrized complexes.

The engine repeatedly picks a critical seed cell, then breadth-first
searches its neighborhood for covering pairs (x, y) whose map is invertible
and removes them, correcting the surviving maps so cohomology is untouched.
A removal is one pass over the pair's star: it reads the blocks around the
pair while it unlinks the pair from the poset's dims, up and down, the maps
and the stalk ranks, which the engine edits itself, and then corrects the
blocks between survivors.  Dead keys are only ever deleted, so the
surviving maps keep their insertion order.  Each removal returns its step
record: the pair, the inverse of its map and the blocks around it as they
stood.  Their list is all a run records: the matching is read off it at
the end, a tracked run keeps it as the equivalence, and no poset is
copied.  A dual top-down sweep and an iterated mode are provided.

A run checks its policy once, and a sweep resolves its direction once into
the adjacency it searches and the one it queues from; the per-cell loop
only orders each candidate pair's key by it.
"""

from collections import deque

from .errors import NotACover, NotInvertible, ValidationError
from .matrix import _built, mul_sub, try_invert
from . import equivalence as _equiv


class Matching:
    """Matched pairs in removal order; the survivors are the reduced poset."""

    def __init__(self, pairs=None):
        self.pairs = list(pairs) if pairs else []

    def __len__(self):
        return len(self.pairs)


class MorseData:
    """Result of a reduction: the mutated parametrization and its bookkeeping."""

    def __init__(self, matching, reduced, equivalence=None):
        self.matching = matching
        self.reduced = reduced
        self.equivalence = equivalence

    def critical_counts(self):
        """Cells surviving per dimension, the m_k of the complexity bound,
        over the degree range the reduced parametrization keeps."""
        counts = {}
        for x, d in self.reduced.poset.dims.items():
            counts[d] = counts.get(d, 0) + 1
        return [counts.get(k, 0) for k in range(self.reduced.top + 1)]


def reduce_pair(param, x, y):
    """Remove the covering pair (x, y), folding its map into the survivors.

    For every z above x and w below y, the map from w to z picks up the
    correction -F_xz . F_xy^{-1} . F_wy, creating the cover (w, z) when it
    was absent; covers whose maps cancel to zero are deleted outright.  The
    removed cells leave the poset, the maps and the stalk ranks.
    """
    if not param.poset.has_cover(x, y):
        raise NotACover("(%s, %s) is not a covering pair" % (x, y))
    inv = try_invert(param.maps[(x, y)])
    if inv is None:
        raise NotInvertible("map of (%s, %s) has no inverse" % (x, y))
    _reduce_pair(param, x, y, inv)


def _reduce_pair(param, x, y, inv):
    """reduce_pair for a checked cover whose map has the inverse inv.

    Returns the step's StepMaps: the pair, inv and the star of the pair as
    it stood, up[z] = F_xz for z above x and down[w] = F_wy for w below y.
    One pass over the star reads it and unlinks the pair: each F_xz and
    F_wy is popped off the maps as it is read, in sorted order, and x or y
    leaves the neighbour's adjacency set at once; then the faces of x and
    the cofaces of y are unlinked.  The correction loop edits only keys
    (w, z) of survivors, so no dead key is ever inserted again and the
    surviving maps keep their insertion order.

    Each z's head F_xz.inv is formed once.  A 1x1 pair corrects a rank-1
    w and z with scalars inline, the field operations of mul_sub on 1x1
    blocks in their order; the scalar head becomes a 1x1 matrix once, for
    the first w of another rank.  Every other head is mul_sub(None, F_xz,
    -inv), 0 - F_xz.(-inv): the entries of F_xz.inv, each the same int or
    Fraction the generic product loop gives.  F_xz is nonzero and inv
    invertible, so no head is zero.  Every other correction is one
    mul_sub.  Skipping the kernels' checks is safe: check_blocks fixed
    every block's field and shape when the parametrization was built, and
    the kernels' results keep them.
    """
    poset = param.poset
    dims, above, below = poset.dims, poset.up, poset.down
    maps = param.maps
    pop = maps.pop
    up = {}
    for z in sorted(above.pop(x)):
        if z != y:
            below[z].discard(x)
            up[z] = pop((x, z))
    down = {}
    for w in sorted(below.pop(y)):
        if w != x:
            above[w].discard(y)
            down[w] = pop((w, y))
    pop((x, y))
    for s in below.pop(x):
        above[s].discard(x)
        pop((s, x))
    for t in above.pop(y):
        below[t].discard(y)
        pop((y, t))
    step = _equiv.StepMaps(x, y, dims.pop(x), dims.pop(y), inv, up, down)
    del param.stalk_rank[x], param.stalk_rank[y]
    # a step with nothing below y corrects no block, so it forms no F_xz.inv
    if not down:
        return step
    f = param.field
    mul, sub, zero = f.mul, f.sub, f.zero
    # a 1x1 pair's head F_xz.inv for a rank-1 z is the scalar h, and head
    # is None until a w of another rank asks for it as a matrix
    iv = inv.data[0][0] if inv.rows == 1 else None
    ninv = None
    corrections = []
    for z, fxz in up.items():
        if iv is not None and fxz.rows == 1:
            corrections.append([z, mul(fxz.data[0][0], iv), None])
        else:
            if ninv is None:
                ninv = inv.neg()
            corrections.append([z, None, mul_sub(None, fxz, ninv)])
    get = maps.get
    for w, fwy in down.items():
        b = fwy.data[0][0] if iv is not None and fwy.cols == 1 else None
        ahead = above[w]
        for correction in corrections:
            z, h, head = correction
            if h is not None and b is not None:
                fwz = get((w, z))
                v = sub(zero if fwz is None else fwz.data[0][0], mul(h, b))
                updated = _built(f, 1, 1, [[v]]) if v else None
            else:
                if head is None:
                    head = correction[2] = _built(f, 1, 1, [[h]])
                updated = mul_sub(get((w, z)), head, fwy)
            if updated is None:
                if z in ahead:
                    ahead.discard(z)
                    below[z].discard(w)
                    pop((w, z))
            else:
                if z not in ahead:
                    ahead.add(z)
                    below[z].add(w)
                maps[(w, z)] = updated
    return step


def _sweep(param, upward, strict, steps, observer, frozen=()):
    """One full reduction sweep in the given direction.

    The direction picks, once, which adjacency holds the cells behind each
    dequeued cell y, where its partner is sought, and which the cells
    ahead, which are queued; seeds are visited in one sorted pass,
    dimension descending for the dual sweep.  y pairs with the one
    non-critical cell behind it whose block is invertible; strict also asks
    that cell to be the only non-critical one, relaxed refuses y when two
    blocks are invertible.  Each removal appends its StepMaps record to the
    list steps.  The cells of frozen start out critical, so they are never
    paired, queued or seeded.
    """
    poset = param.poset
    dims = poset.dims
    maps = param.maps
    if upward:
        ahead, behind, sign = poset.up, poset.down, 1
    else:
        ahead, behind, sign = poset.down, poset.up, -1
    critical = set(frozen)
    for _, c in sorted([(sign * d, x) for x, d in dims.items()]):
        if c not in dims or c in critical:
            continue
        critical.add(c)
        if observer is not None:
            observer.select(c)
        flags = {c}
        queue = deque([c])
        while queue:
            y = queue.popleft()
            if y not in dims:
                continue
            if observer is not None:
                observer.dequeue(y)
            free = [e for e in behind[y] if e not in critical]
            hit = None
            if not strict or len(free) == 1:
                for e in free:
                    inv = try_invert(maps[(e, y) if upward else (y, e)])
                    if inv is not None:
                        if hit is not None:
                            hit = None
                            break
                        hit = e, inv
            # y itself is flagged, so the partner's cells skip it
            for e in sorted(ahead[y] if hit is None else ahead[hit[0]]):
                if e not in critical and e not in flags:
                    flags.add(e)
                    queue.append(e)
                    if observer is not None:
                        observer.enqueue(e)
            if hit is None:
                continue
            partner, inv = hit
            x, top = (partner, y) if upward else (y, partner)
            comeback = sorted(ahead[y])
            if observer is not None:
                observer.pair(x, top)
            steps.append(_reduce_pair(param, x, top, inv))
            for e in comeback:
                if e not in critical and e not in flags:
                    flags.add(e)
                    queue.append(e)
                    if observer is not None:
                        observer.enqueue(e)


def _run(param, upward, policy, track_equivalence, observer, until_stable):
    """Sweep param once, or until_stable until a sweep removes nothing.

    Each sweep starts with every surviving cell non-critical again and
    appends its steps to the run's one list; the matching's pairs are read
    off that list at the end.  An unknown policy is refused before
    anything is read.
    """
    if policy not in ("strict", "relaxed"):
        raise ValidationError("unknown pairing policy %r" % (policy,))
    strict = policy == "strict"
    src = param.assemble() if track_equivalence else None
    steps = []
    while True:
        done = len(steps)
        _sweep(param, upward, strict, steps, observer)
        if not until_stable or len(steps) == done:
            break
    matching = Matching([(s.x, s.y) for s in steps])
    eq = (_equiv.Equivalence(src, steps, param.assemble())
          if track_equivalence else None)
    return MorseData(matching, param, eq)


def scythe(param, policy="strict", track_equivalence=False, observer=None):
    """Reduce param in place, seeding from minimal cells upward.

    Seeds are chosen by least dimension then id.  The default policy pairs
    y with x only when x is the sole non-critical cell under y and the map
    F_xy is invertible; policy="relaxed" instead asks for a unique
    invertible partner among possibly many non-critical faces (the emitted
    matching then lives on the reduced order, and the monotone-removal
    guarantee of the strict reading is not asserted).  To check the
    matching, copy param.poset first: the run keeps no copy of it.
    """
    return _run(param, True, policy, track_equivalence, observer, False)


def coscythe(param, policy="strict", track_equivalence=False, observer=None):
    """Dual sweep: seeds maximal cells (greatest dimension, then id) and
    searches above each dequeued cell for its unique partner."""
    return _run(param, False, policy, track_equivalence, observer, False)


def iterate_scythe(param, policy="strict", track_equivalence=False,
                   observer=None):
    """Run upward reduction sweeps until the critical poset stops shrinking."""
    return _run(param, True, policy, track_equivalence, observer, True)
