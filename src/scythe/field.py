"""Coefficient fields: the rationals and prime fields F_p.

A rational is a plain int whenever it is integral and a
fractions.Fraction, in lowest terms, only when it has a denominator:
incidences, constant-sheaf blocks and their inverses are mostly +-1, and
int arithmetic costs a fraction of Fraction's.  Mixed int/Fraction
arithmetic is exact, and an integral Fraction it leaves behind equals its
int and hashes alike.  Prime-field elements are plain ints held in [0, p).
"""

import operator
import sys
from fractions import Fraction

from .errors import ParseError, ScytheError


FP_LIMIT = 2 ** 64

# Miller-Rabin with these bases, the first twelve primes, has no strong
# pseudoprime below 3.18e23 (Sorenson and Webster 2015), so it is exact for
# every modulus under FP_LIMIT.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Exact primality for 0 <= n < FP_LIMIT, by deterministic Miller-Rabin."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """A coefficient field, either the rationals or F_p for a prime p.

    The constructor picks the element operations (add, sub, mul, neg, inv,
    from_int) once for the kind: operator's for Q, closures over p for F_p.
    So no element operation tests the kind when called, and matrix code
    never branches on it.
    """

    def __init__(self, kind, p=None):
        if kind == "rational":
            if p is not None:
                raise ParseError("rational field takes no modulus")
            self.add, self.sub = operator.add, operator.sub
            self.mul, self.neg = operator.mul, operator.neg
            self.inv, self.from_int = _q_inv, _q_from_int
        elif kind == "fp":
            if isinstance(p, int) and p >= FP_LIMIT:
                raise ParseError("fp modulus must be a prime below 2^64, got "
                                 "one of %d bits" % p.bit_length())
            if not isinstance(p, int) or not _is_prime(p):
                raise ParseError("fp modulus must be a prime, got %r" % (p,))
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.mul = lambda a, b: (a * b) % p
            self.neg = lambda a: (-a) % p
            self.inv = lambda a: pow(a, -1, p)
            self.from_int = lambda n: n % p
        else:
            raise ParseError("unknown field kind %r" % (kind,))
        self.kind = kind
        self.p = p
        self.zero = 0
        self.one = 1

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

    # -- serialization -----------------------------------------------------

    def parse(self, text):
        """Read one element from its string form.

        An integer literal goes through from_int, so F_p canonicalizes it
        into [0, p) and Q keeps the int; F_p accepts nothing else.
        Rationals also accept what fractions.Fraction accepts ("a/b",
        decimals, exponents) and come back as ints when integral.  An
        exponent larger in magnitude than sys.get_int_max_str_digits() is
        rejected (unbounded when that limit is 0): "1e999999999" would
        otherwise build its power of ten before anything checked it, where
        a plain literal that long is already refused.
        """
        text = str(text).strip()
        try:
            return self.from_int(int(text))
        except ValueError:
            if self.p is not None:
                raise ParseError("bad F_%d literal %r" % (self.p, text))
        _check_exponent(text)
        try:
            return _integral(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad rational literal %r" % text)

    def format(self, a):
        """An element's string form: "n" when integral, else "n/d".

        An integer longer than sys.get_int_max_str_digits() has no string
        form (str raises ValueError); that becomes a ScytheError, since such
        an element can be parsed from an exponent literal such as "1e4300".
        """
        try:
            if a.denominator == 1:
                return str(a.numerator)
            return "%d/%d" % (a.numerator, a.denominator)
        except ValueError:
            raise ScytheError(
                "cannot write an element of more than %d digits, the limit "
                "of sys.get_int_max_str_digits()"
                % sys.get_int_max_str_digits())

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


def _q_inv(a):
    """The inverse of a nonzero rational.

    A unit int is its own inverse and another int n gives Fraction(1, n),
    so inverting +-1 builds no Fraction.
    """
    if not a:
        raise ZeroDivisionError("inverse of zero")
    if type(a) is int:
        return a if a == 1 or a == -1 else Fraction(1, a)
    return _integral(Fraction(a.denominator, a.numerator))


def _q_from_int(n):
    return n if type(n) is int else _integral(Fraction(n))


def _integral(q):
    """A Fraction as an int when its denominator is 1, else unchanged."""
    return q.numerator if q.denominator == 1 else q


def _check_exponent(text):
    """Reject a rational literal whose exponent exceeds the digit limit."""
    _, e, exp = text.lower().rpartition("e")
    limit = sys.get_int_max_str_digits()
    if not e or not limit:
        return
    try:
        too_big = abs(int(exp)) > limit
    except ValueError:
        return  # not an exponent; Fraction decides
    if too_big:
        raise ParseError("bad rational literal %r: exponent beyond %d"
                         % (text, limit))


RATIONAL = FieldSpec("rational")


def fp(p):
    return FieldSpec("fp", p)
