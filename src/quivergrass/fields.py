"""Exact coefficient fields: the rationals and prime fields GF(p).

Every computation in this package is exact.  Rational numbers are
``fractions.Fraction``; elements of GF(p) are Python ints in ``range(p)``.
Matrices store bare elements and compute with Python's own ``+ - *``; a field
object only brings a result back into the field (``of``: ``% p`` over GF(p),
nothing to do over Q) and inverts (``inv``).  ``zero`` and ``one`` are its
constants.
"""

from fractions import Fraction

from .errors import DomainError, integer


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with these thirteen bases is exact for every n below this bound
# (Sorenson and Webster, 2015); the twelve up to 37 only below 3.19e23.
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    """Deterministic Miller-Rabin; DomainError at or above _MR_BOUND."""
    if n >= _MR_BOUND:
        raise DomainError(f"cannot decide whether {n} is prime: the primality "
                          f"test is exact only below {_MR_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rational numbers, elements are Fraction instances."""

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"cannot read {x!r} as a rational number") from None
        raise DomainError(f"cannot coerce {x!r} into Q")

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("field", 0))

    def __repr__(self):
        return "Q"


class PrimeField:
    """GF(p) for a prime p, an int (GF(7.0) is refused); elements are ints in range(p)."""

    def __init__(self, p):
        p = integer(p, "primes")
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p

    def of(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator % self.p
            den = x.denominator % self.p
            if den == 0:
                raise DomainError(f"bad reduction: denominator of {x} vanishes mod {self.p}")
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        if isinstance(x, str):
            return self.of(QQ.of(x))
        raise DomainError(f"cannot coerce {x!r} into GF({self.p})")

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_name(name):
    """Parse "Q" or "Fp:<prime>" into a field object (the rep-file syntax)."""
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise DomainError(f"malformed field name {name!r}") from None
        return PrimeField(p)
    raise DomainError(f"unknown field {name!r}")
