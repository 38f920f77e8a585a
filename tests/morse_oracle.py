"""Legality checks of a matching and the gradient-path oracle of the
reduced coboundary, for the tests to cross-check the sweep against.

The checks read a matching against the poset it was made on: the
dimension and partition axioms, acyclicity of the pair relation and the
removal order.  The oracle sums the reduced coboundary over gradient
paths, independently of the engine's corrections, and raises
CyclicMatching on a matching whose pair relation has a cycle.  Unlike
oracles.py, this module uses scythe's own linear algebra.
"""

import heapq

from scythe.errors import NotInvertible, ValidationError
from scythe.matrix import Matrix, mat_mul, try_invert


def map_of(param, x, y):
    """The block of param on (x, y); a pair that is not a cover has the
    zero map."""
    m = param.maps.get((x, y))
    if m is None:
        return Matrix.zeros(param.field, param.stalk_rank[y],
                            param.stalk_rank[x])
    return m


class CyclicMatching(ValidationError):
    """A matching whose induced order relation has a cycle.

    Carries one witness cycle, a list of matched pairs, in .cycle.
    """

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("matching induces a cycle through %d pairs" % len(self.cycle))


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
        inv = try_invert(map_of(original, x, y))
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
    matched = {c for pair in matching.pairs for c in pair}
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
                accumulate(m, mp, map_of(original, m, mp))
        for y1 in sorted(poset.x_plus(m)):
            if y1 not in upper_pair:
                continue
            first = upper_pair[y1]
            fm = map_of(original, m, y1)
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
                                mat_mul(map_of(original, x, mp), acc),
                            )
                            stack.append((nxt, step, on_path | {nxt}))
                    else:
                        accumulate(m, mp, mat_mul(map_of(original, x, mp), acc))
    return {
        key: blk for key, blk in sorted(blocks.items()) if not blk.is_zero()
    }
