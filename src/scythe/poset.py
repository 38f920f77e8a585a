"""Finite graded posets presented by their covering relation.

Elements carry a dimension; a cover (x, y) means x is immediately below y
and must raise dimension by exactly one.  Ids are opaque strings ordered
lexicographically, and that order breaks every tie downstream.
"""

from .errors import DanglingId, NonGradedCover, ValidationError


class GradedPoset:
    """Elements with dimensions plus up/down adjacency of the cover relation.

    Treat instances as immutable; only the reduction engine mutates them,
    and it owns its copy.
    """

    def __init__(self, dims, covers):
        self.dims = dims
        self.up = {x: set() for x in dims}
        self.down = {x: set() for x in dims}
        for x, y in covers:
            self.up[x].add(y)
            self.down[y].add(x)

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
        cp = GradedPoset.__new__(GradedPoset)
        cp.dims = dict(self.dims)
        cp.up = {x: set(s) for x, s in self.up.items()}
        cp.down = {x: set(s) for x, s in self.down.items()}
        return cp

    def has_cover(self, x, y):
        return x in self.up and y in self.up[x]

    # Mutators below are reserved for the reduction engine.

    def add_cover(self, x, y):
        self.up[x].add(y)
        self.down[y].add(x)

    def remove_cover(self, x, y):
        self.up[x].discard(y)
        self.down[y].discard(x)

    def remove_element(self, x):
        for y in self.up.pop(x):
            self.down[y].discard(x)
        for w in self.down.pop(x):
            self.up[w].discard(x)
        del self.dims[x]


def build_poset(elements, covers):
    """Validate and index a graded poset.

    elements is an iterable of (id, dim) with unique ids; covers is an
    iterable of (x, y) pairs whose dimensions must differ by one.
    """
    dims = {}
    for x, d in elements:
        if x in dims:
            raise ValidationError("duplicate element id %r" % (x,))
        if not isinstance(d, int) or d < 0:
            raise ValidationError("dimension of %r must be a nonneg integer" % (x,))
        dims[x] = d
    cov = set()
    for x, y in covers:
        if x not in dims:
            raise DanglingId("cover endpoint %r not declared" % (x,))
        if y not in dims:
            raise DanglingId("cover endpoint %r not declared" % (y,))
        if dims[y] != dims[x] + 1:
            raise NonGradedCover(
                "cover (%s, %s) spans dims %d -> %d" % (x, y, dims[x], dims[y])
            )
        cov.add((x, y))
    return GradedPoset(dims, cov)
