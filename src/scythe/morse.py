"""Acyclic matchings and the queue-driven reduction of parametrized complexes.

The engine repeatedly picks a critical seed cell, then breadth-first
searches its neighborhood for covering pairs (x, y) whose map is invertible
and removes them, correcting the surviving maps so cohomology is untouched.
Each removal returns its step record: the pair, the inverse of its map and
the blocks around it as they stood.  Their list is all a run records: the
matching is read off it at the end, a tracked run keeps it as the
equivalence, and no poset is copied.  A dual top-down sweep and an
iterated mode are provided, with a gradient-path oracle to cross-check.

Policy and direction are decided once, when a run and a sweep start; the
per-cell loop tests neither.
"""

from collections import deque
import heapq

from .errors import CyclicMatching, NotACover, NotInvertible, ValidationError
from .matrix import mat_mul, mul_sub, try_invert
from . import equivalence as _equiv


class Matching:
    """Matched pairs in removal order plus the surviving critical set."""

    def __init__(self, pairs=None, critical=None):
        self.pairs = list(pairs) if pairs else []
        self.critical = set(critical) if critical else set()

    def __len__(self):
        return len(self.pairs)

    def matched_elements(self):
        out = set()
        for x, y in self.pairs:
            out.add(x)
            out.add(y)
        return out


class MorseData:
    """Result of a reduction: the mutated parametrization and its bookkeeping."""

    def __init__(self, matching, reduced, equivalence=None):
        self.matching = matching
        self.reduced = reduced
        self.equivalence = equivalence

    def critical_counts(self):
        """Cells surviving per dimension, the m_k of the complexity bound."""
        counts = {}
        for x, d in self.reduced.poset.dims.items():
            counts[d] = counts.get(d, 0) + 1
        top = max(counts, default=-1)
        return [counts.get(k, 0) for k in range(top + 1)]

    def m_tilde(self):
        return sum(m * m for m in self.critical_counts())


def reduce_pair(param, x, y):
    """Remove the covering pair (x, y), folding its map into the survivors.

    For every z above x and w below y, the map from w to z picks up the
    correction -F_xz . F_xy^{-1} . F_wy, creating the cover (w, z) when it
    was absent; covers whose maps cancel to zero are deleted outright.  The
    removed cells leave the poset, the maps and the stalk ranks.
    """
    if not param.poset.has_cover(x, y):
        raise NotACover("(%s, %s) is not a covering pair" % (x, y))
    inv = try_invert(param.map_of(x, y))
    if inv is None:
        raise NotInvertible("map of (%s, %s) has no inverse" % (x, y))
    _reduce_pair(param, x, y, inv)


def _reduce_pair(param, x, y, inv):
    """reduce_pair for a checked cover whose map has the inverse inv.

    Returns the step's StepMaps: the pair, inv and the star of the pair as
    it stood, up[z] = F_xz for z above x and down[w] = F_wy for w below y.
    """
    poset = param.poset
    maps = param.maps
    get = maps.get
    up = {}
    for z in sorted(poset.up[x]):
        if z != y:
            fxz = get((x, z))
            if fxz is not None:
                up[z] = fxz
    down = {}
    for w in sorted(poset.down[y]):
        if w != x:
            fwy = get((w, y))
            if fwy is not None:
                down[w] = fwy
    step = _equiv.StepMaps(x, y, poset.dims[x], poset.dims[y], inv, up, down)
    # a step with nothing below y corrects no block, so it forms no F_xz.inv
    corrections = ([(z, mat_mul(fxz, inv)) for z, fxz in up.items()]
                   if down else [])
    for w, fwy in down.items():
        above = poset.up[w]
        for z, head in corrections:
            updated = mul_sub(get((w, z)), head, fwy)
            if updated is None:
                if z in above:
                    poset.remove_cover(w, z)
                    maps.pop((w, z), None)
            else:
                if z not in above:
                    poset.add_cover(w, z)
                maps[(w, z)] = updated
    for dead in (x, y):
        for t in poset.up[dead]:
            maps.pop((dead, t), None)
        for s in poset.down[dead]:
            maps.pop((s, dead), None)
        poset.remove_element(dead)
        del param.stalk_rank[dead]
    return step


def _pairing_candidate(param, critical, y, behind, orient, strict):
    """The unique partner of y among behind(y), with the inverse of the
    pair's map, as (partner, inverse); or None.

    orient(partner, y) orders the pair.  The relaxed policy asks for one
    invertible pair among the non-critical neighbours; strict is that
    search restricted to a single non-critical neighbour.
    """
    free = [e for e in behind(y) if e not in critical]
    if strict and len(free) != 1:
        return None
    hit = None
    for e in free:
        inv = try_invert(param.map_of(*orient(e, y)))
        if inv is not None:
            if hit is not None:
                return None
            hit = e, inv
    return hit


def _sweep(param, upward, strict, steps, observer, frozen=()):
    """One full reduction sweep in the given direction.

    The direction is resolved once, here: partners are sought behind each
    dequeued cell, the cells ahead of it are queued, and seeds are visited
    in one sorted pass, dimension descending for the dual sweep.  Each
    removal appends its StepMaps record to the list steps.  The cells of
    frozen start out critical, so they are never paired, queued or seeded.
    """
    poset = param.poset
    dims = poset.dims
    if upward:
        ahead, behind, sign = poset.x_plus, poset.x_minus, 1
        orient = lambda partner, y: (partner, y)
    else:
        ahead, behind, sign = poset.x_minus, poset.x_plus, -1
        orient = lambda partner, y: (y, partner)
    critical = set(frozen)
    for _, c in sorted([(sign * d, x) for x, d in dims.items()]):
        if c not in dims or c in critical:
            continue
        critical.add(c)
        if observer is not None:
            observer.select(c)
        flags = {c}
        queue = deque([c])

        def enqueue(cells):
            for e in sorted(cells):
                if e in dims and e not in critical and e not in flags:
                    flags.add(e)
                    queue.append(e)
                    if observer is not None:
                        observer.enqueue(e)

        while queue:
            y = queue.popleft()
            if y not in dims:
                continue
            if observer is not None:
                observer.dequeue(y)
            hit = _pairing_candidate(param, critical, y, behind, orient, strict)
            if hit is None:
                enqueue(ahead(y))
                continue
            partner, inv = hit
            x, top = orient(partner, y)
            enqueue(ahead(partner) - {y})
            comeback = sorted(ahead(y))
            if observer is not None:
                observer.pair(x, top)
            steps.append(_reduce_pair(param, x, top, inv))
            enqueue(comeback)


def _run(param, upward, policy, track_equivalence, observer, until_stable,
         frozen=()):
    """Sweep param once, or until_stable until a sweep removes nothing.

    Each sweep starts with every surviving cell outside frozen non-critical
    again and appends its steps to the run's one list; the matching's pairs
    are read off that list at the end.  An unknown policy is refused before
    anything is read.
    """
    if policy not in ("strict", "relaxed"):
        raise ValidationError("unknown pairing policy %r" % (policy,))
    strict = policy == "strict"
    src = param.assemble() if track_equivalence else None
    steps = []
    while True:
        done = len(steps)
        _sweep(param, upward, strict, steps, observer, frozen)
        if not until_stable or len(steps) == done:
            break
    matching = Matching([(s.x, s.y) for s in steps], param.poset.dims)
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


class AcyclicReport:
    """Outcome of an acyclicity check; .order is a topological sort of the
    pairs when acyclic, .cycle a witness list of pairs when not."""

    def __init__(self, order=None, cycle=None):
        self.order = order
        self.cycle = cycle

    def __bool__(self):
        return self.cycle is None


def verify_acyclic(matching, poset):
    """Topologically sort the pair relation; report an order or a cycle.

    Pair (x, y) precedes (x', y') when x lies under y' in the poset; a
    matching is acyclic exactly when this relation has no directed cycle.
    """
    pairs = sorted(set(matching.pairs))
    index = {p: i for i, p in enumerate(pairs)}
    succ = [[] for _ in pairs]
    indeg = [0] * len(pairs)
    for i, (x, _) in enumerate(pairs):
        if x not in poset.dims:
            continue
        for y2 in poset.x_plus(x):
            for p2 in pairs:
                if p2[1] == y2 and index[p2] != i:
                    succ[i].append(index[p2])
                    indeg[index[p2]] += 1
    ready = sorted(i for i in range(len(pairs)) if indeg[i] == 0)
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(pairs[i])
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) == len(pairs):
        return AcyclicReport(order=order)
    leftover = {i for i in range(len(pairs)) if indeg[i] > 0}
    start = min(leftover)
    seen = {}
    walk = []
    i = start
    while i not in seen:
        seen[i] = len(walk)
        walk.append(i)
        i = next(j for j in succ[i] if j in leftover)
    cycle = [pairs[j] for j in walk[seen[i]:]]
    return AcyclicReport(cycle=cycle)


def verify_matching_axioms(matching, poset):
    """Check the dimension and partition axioms against the given poset."""
    seen = set()
    for x, y in matching.pairs:
        if not poset.has_cover(x, y):
            return False
        if x in seen or y in seen:
            return False
        seen.add(x)
        seen.add(y)
    return True


def verify_monotone_removal(matching, poset, top_down=False):
    """Check pairs were removed in an order compatible with the pair relation.

    poset must be the snapshot from before the sweep; returns True when no
    pair precedes one removed earlier.  The upward sweep removes relation
    predecessors first; the dual sweep removes successors first and is
    checked with top_down=True, which reads the pair list in reverse.
    """
    pairs = matching.pairs
    if top_down:
        pairs = list(reversed(pairs))
    for j in range(len(pairs)):
        yj = pairs[j][1]
        below = poset.x_minus(yj) if yj in poset.dims else set()
        for i in range(j + 1, len(pairs)):
            if pairs[i][0] in below:
                return False
    return True


def _validate_for_oracle(original, matching):
    if not verify_matching_axioms(matching, original.poset):
        raise ValidationError("matching violates the dimension/partition axioms")
    report = verify_acyclic(matching, original.poset)
    if not report:
        raise CyclicMatching(report.cycle)
    inverses = {}
    for x, y in matching.pairs:
        inv = try_invert(original.map_of(x, y))
        if inv is None:
            raise NotInvertible("matched map (%s, %s) has no inverse" % (x, y))
        inverses[(x, y)] = inv
    return inverses


def morse_coboundary_oracle(original, matching):
    """Blocks of the reduced coboundary via explicit gradient-path sums.

    For critical cells m, m' one dimension apart, sums the direct map F_mm'
    with one term per gradient path: the chain of matched-pair inverses
    (each negated) interleaved with the covering maps along the path.
    Exponential in the worst case; intended for cross-validation on small
    inputs.  Returns only the nonzero blocks, keyed by (m, m').
    """
    inverses = _validate_for_oracle(original, matching)
    poset = original.poset
    field = original.field
    matched = matching.matched_elements()
    critical = sorted(x for x in poset.dims if x not in matched)
    upper_pair = {y: (x, y) for x, y in matching.pairs}
    blocks = {}

    def accumulate(m, mp, contribution):
        key = (m, mp)
        if key in blocks:
            blocks[key] = blocks[key].add(contribution)
        else:
            blocks[key] = contribution

    for m in critical:
        for mp in sorted(poset.x_plus(m)):
            if mp not in matched:
                accumulate(m, mp, original.map_of(m, mp))
        for y1 in sorted(poset.x_plus(m)):
            if y1 not in upper_pair:
                continue
            first = upper_pair[y1]
            fm = original.map_of(m, y1)
            stack = [(first, mat_mul(inverses[first].neg(), fm), {first})]
            while stack:
                (x, y), acc, on_path = stack.pop()
                for mp in sorted(poset.x_plus(x)):
                    if mp in matched:
                        if mp in upper_pair:
                            nxt = upper_pair[mp]
                            if nxt == (x, y):
                                continue
                            if nxt in on_path:
                                raise CyclicMatching(sorted(on_path))
                            step = mat_mul(
                                inverses[nxt].neg(),
                                mat_mul(original.map_of(x, mp), acc),
                            )
                            stack.append((nxt, step, on_path | {nxt}))
                    else:
                        accumulate(m, mp, mat_mul(original.map_of(x, mp), acc))
    return {
        key: blk for key, blk in sorted(blocks.items()) if not blk.is_zero()
    }
