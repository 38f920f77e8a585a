"""Coefficient fields: the rationals and prime fields F_p.

Rational arithmetic rides on fractions.Fraction, which keeps values in
lowest terms.  Prime-field elements are plain ints held in [0, p).
"""

from fractions import Fraction

from .errors import ParseError


def _is_prime(p):
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """A coefficient field, either the rationals or F_p for a prime p.

    Instances supply zero/one, arithmetic, inversion and string round-trips
    for their elements, so matrix code never branches on the field kind.
    """

    def __init__(self, kind, p=None):
        if kind == "rational":
            if p is not None:
                raise ParseError("rational field takes no modulus")
        elif kind == "fp":
            if not isinstance(p, int) or not _is_prime(p):
                raise ParseError("fp modulus must be a prime, got %r" % (p,))
        else:
            raise ParseError("unknown field kind %r" % (kind,))
        self.kind = kind
        self.p = p
        # built once and shared: both element types are immutable
        self.zero = Fraction(0) if kind == "rational" else 0
        self.one = Fraction(1) if kind == "rational" else 1

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        if self.kind == "rational":
            return "FieldSpec('rational')"
        return "FieldSpec('fp', %d)" % self.p

    # -- element arithmetic ------------------------------------------------

    def add(self, a, b):
        if self.kind == "rational":
            return a + b
        return (a + b) % self.p

    def sub(self, a, b):
        if self.kind == "rational":
            return a - b
        return (a - b) % self.p

    def mul(self, a, b):
        if self.kind == "rational":
            return a * b
        return (a * b) % self.p

    def neg(self, a):
        if self.kind == "rational":
            return -a
        return (-a) % self.p

    def inv(self, a):
        if self.kind == "rational":
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        return pow(a, -1, self.p)

    def from_int(self, n):
        if self.kind == "rational":
            return Fraction(n)
        return n % self.p

    # -- serialization -----------------------------------------------------

    def parse(self, text):
        """Read one element from its string form.

        Rationals accept "a" or "a/b"; F_p accepts an integer literal and
        canonicalizes it into [0, p).
        """
        text = str(text).strip()
        if self.kind == "rational":
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError):
                raise ParseError("bad rational literal %r" % text)
        try:
            n = int(text)
        except ValueError:
            raise ParseError("bad F_%d literal %r" % (self.p, text))
        return n % self.p

    def format(self, a):
        if self.kind == "rational":
            if a.denominator == 1:
                return str(a.numerator)
            return "%d/%d" % (a.numerator, a.denominator)
        return str(a)

    def to_json(self):
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "fp", "p": self.p}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ParseError("field descriptor must be an object with a kind")
        kind = obj["kind"]
        if kind == "rational":
            return cls("rational")
        if kind == "fp":
            return cls("fp", obj.get("p"))
        raise ParseError("unknown field kind %r" % (kind,))


RATIONAL = FieldSpec("rational")


def fp(p):
    return FieldSpec("fp", p)
