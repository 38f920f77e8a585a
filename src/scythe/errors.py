"""Exception types shared across the package.

Input and validation problems raise ValidationError subclasses; violated
mathematical preconditions raise TheoremPrecondition subclasses.  The CLI
maps the former to exit code 2 and the latter to exit code 3.
"""


class ScytheError(Exception):
    pass


class ValidationError(ScytheError):
    """Malformed or inconsistent input data."""


class ParseError(ValidationError):
    """Input file or literal could not be parsed."""


class NonGradedCover(ValidationError):
    """A covering relation whose endpoints do not differ by one dimension."""


class DanglingId(ValidationError):
    """A relation or label refers to a cell id that was never declared."""


class IncidenceIdentityViolation(ValidationError):
    """Incidence numbers fail the codimension-two identity.

    Carries the list of offending (sigma, tau) pairs in .pairs.
    """

    def __init__(self, pairs):
        self.pairs = list(pairs)
        listing = ", ".join("(%s, %s)" % (s, t) for s, t in self.pairs)
        super().__init__("incidence identity fails for: " + listing)


class UnknownCell(ValidationError):
    """A referenced cell id is not part of the complex."""


class NotASubcomplex(ValidationError):
    """A cell set is not closed under taking faces."""


class InvalidSheafData(ValidationError):
    """Stalk ranks or restriction maps that cannot form a sheaf."""


class NotACover(ValidationError):
    """Cover pieces that miss cells of the space or are not subcomplexes."""


class NotInvertible(ValidationError):
    """A map that was required to be invertible is not."""


class NotACocycle(ValidationError):
    """A vector handed to lift/project is not killed by the coboundary."""


class SolveFailed(ScytheError):
    """Internal inconsistency while solving against a cached factorization."""


class TheoremPrecondition(ScytheError):
    """Hypothesis of a supporting theorem does not hold for this input."""


class NerveTooBig(TheoremPrecondition):
    """The nerve has cells above dimension one, outside the decomposition's reach."""


class FiberInclusionViolated(TheoremPrecondition):
    """An edge fiber is not contained in both endpoint fibers."""


class FibersDoNotPresent(TheoremPrecondition):
    """The fibers do not glue back to the space over the graph."""
