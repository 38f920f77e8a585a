"""Finite graded posets presented by their covering relation.

Elements carry a dimension; a cover (x, y) means x is immediately below y
and must raise dimension by exactly one.  Ids are opaque strings ordered
lexicographically, and that order breaks every tie downstream.

A poset is never edited, so it keeps each element's covers in a frozen
tuple, and copy() gives such a poset too.  The one exception is the poset
of a Parametrization, which the reduction engine edits in place:
parametrization._built indexes it, over sets.
"""

from .errors import DanglingId, NonGradedCover, ValidationError


class GradedPoset:
    """Elements with dimensions plus up/down adjacency of the cover relation.

    covers are distinct (x, y) pairs of elements of dims, which build_poset
    checks; up[x] and down[x] are tuples, in the order they were given.
    Treat instances as immutable.  The reduction engine alone edits dims,
    up and down in place, on the poset of the parametrization it reduces,
    whose adjacency is sets (see parametrization._built), and keeps the
    three describing the same cells and covers.
    """

    def __init__(self, dims, covers):
        up = {x: [] for x in dims}
        down = {x: [] for x in dims}
        for x, y in covers:
            up[x].append(y)
            down[y].append(x)
        self.dims = dims
        self.up = {x: tuple(ys) for x, ys in up.items()}
        self.down = {y: tuple(xs) for y, xs in down.items()}

    def __contains__(self, x):
        return x in self.dims

    def __len__(self):
        return len(self.dims)

    def elements(self):
        return sorted(self.dims)

    def covers(self):
        return sorted((x, y) for x in self.up for y in self.up[x])

    def dim(self, x):
        return self.dims[x]

    def x_plus(self, x):
        return self.up[x]

    def x_minus(self, x):
        return self.down[x]

    def max_dim(self):
        return max(self.dims.values(), default=-1)

    def elements_of_dim(self, k):
        return sorted(x for x, d in self.dims.items() if d == k)

    def p(self):
        """Largest up-degree, the parameter p of the complexity bound."""
        return max((len(s) for s in self.up.values()), default=0)

    def copy(self):
        """A snapshot: the same dims and covers, in tuples of its own."""
        return GradedPoset(dict(self.dims), self.covers())

    def has_cover(self, x, y):
        return x in self.up and y in self.up[x]


def build_poset(elements, covers):
    """Validate and index a graded poset.

    elements is an iterable of (id, dim) with unique ids; covers is an
    iterable of (x, y) pairs whose dimensions must differ by one.  A cover
    given twice is kept once, where it first appears.
    """
    dims, pairs = _graded(elements, covers)
    return GradedPoset(dims, dict.fromkeys(pairs))


def _graded(elements, covers):
    """The dims of elements and the list of covers, checked, each endpoint
    replaced by the key object of dims that equals it, so a poset built
    from them holds one id object per element."""
    dims = {}
    for x, d in elements:
        if x in dims:
            raise duplicate_id(x)
        if not isinstance(d, int) or d < 0:
            raise ValidationError("dimension of %r must be a nonneg integer" % (x,))
        dims[x] = d
    own = {x: x for x in dims}.get
    pairs = []
    for x, y in covers:
        x, y = own(x, x), own(y, y)
        dx = dims.get(x)
        if dx is None or dims.get(y) != dx + 1:
            raise cover_fault(dims, x, y)
        pairs.append((x, y))
    return dims, pairs


# The two checks below are made by build_poset and by the JSON reader,
# which indexes its cells and covers in its own loops; both raise these.

def duplicate_id(x, error=ValidationError):
    """The error for an element id declared twice."""
    return error("duplicate element id %r" % (x,))


def cover_fault(dims, x, y):
    """The error for a cover (x, y) with an undeclared endpoint or whose
    dimensions do not differ by one; call it only for such a cover."""
    for end in (x, y):
        if end not in dims:
            return DanglingId("cover endpoint %r not declared" % (end,))
    return NonGradedCover(
        "cover (%s, %s) spans dims %d -> %d" % (x, y, dims[x], dims[y])
    )
