"""Sparse integer polynomials with tuple exponents (Laurent allowed).

Terms map an exponent vector to an integer coefficient; zero coefficients are
dropped eagerly.  Canonical term order is graded lexicographic, which fixes
every serialized form.

Products and sorting run on packed integer keys.  Each operand comes with a
shift and a spread per variable: every exponent e of it has shift <= e <=
shift + spread.  For a polynomial given by its terms these are the
per-variable minimum and maximum - minimum; a product takes the sums of its
factors' shifts and spreads, which bound its exponents too.  A vector shifted
to e - shift >= 0 packs into one int: a leading slot holding its total degree,
then one slot per variable, each w bytes big-endian (``struct`` and
``int.from_bytes``, both in C).  The slot width w is the fewest of 1, 2, 4 or
8 bytes (or as many bytes as needed past 2**64) that hold the sum of all the
spreads, not only their maximum, since that sum bounds the degree slot.
Adding two keys adds their vectors slot by slot, degree slot included, and no
carry can cross a slot boundary: each slot sum is at most the product's own
bound, which fits in w bytes.

Comparing two keys compares the degree slots first and then the variable
slots in order, and the shift moves every degree by the same amount, so the
graded-lex order of the terms is the order of their keys.  ``sorted_terms``
of a product is one sort of ints and one unpack; a polynomial given by its
terms is sorted on its exponent tuples, since packing them would cost more
than the tuple sort saves.

A product keeps its keys packed, with their shift, spread and width, and
unpacks them (with ``int.to_bytes``, the degree slot skipped as padding) into
``terms`` only when ``terms`` is first read; then it drops the keys, so it
never holds both.  The next product reuses an operand's keys as they are when
it picks the same slot width, and packs the operand's terms otherwise.  A
chain p1 * p2 * ... * pk whose width stays put packs each pi once, and
``sorted_terms`` of the end product reads its keys without building
``terms``.
"""

import struct
from operator import add, getitem, index, methodcaller, neg, sub

from .errors import DomainError

_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _integer(x):
    try:
        return index(x)
    except TypeError:
        raise DomainError(f"{x!r} is not an integer") from None


def _range(exps):
    """(minimum, maximum - minimum) per variable over nonempty exponent vectors."""
    columns = list(zip(*exps))
    low = tuple(map(min, columns))
    return low, tuple(map(sub, map(max, columns), low))


def _moved(exps, offset):
    """The vectors translated by offset, lazily; exps itself for a zero offset."""
    return (tuple(map(add, e, offset)) for e in exps) if any(offset) else exps


def _slot_width(top):
    """Bytes per slot for entries in [0, top]: 1, 2, 4 or 8 up to 2**64, as
    many as needed past it."""
    width = max(1, (top.bit_length() + 7) // 8)
    return width if width > 8 else min(w for w in _SLOT_FORMATS if w >= width)


def _codec(nvars, width):
    """(pack, unpack) between exponent vectors whose entries and sum fit
    ``width`` bytes and ints with a leading degree slot, then one slot per
    variable, each lazy over an iterable."""
    if width <= 8:
        slot = _SLOT_FORMATS[width]
        layout = struct.Struct(">" + slot * (nvars + 1))
        # the same bytes, read back with the degree slot skipped as padding
        entries = struct.Struct(f">{width}x" + slot * nvars)
        pack_slots = layout.pack

        def pack(exps):
            return (int.from_bytes(pack_slots(sum(e), *e), "big") for e in exps)

        def unpack(keys):
            return map(entries.unpack, map(methodcaller("to_bytes", layout.size, "big"), keys))
        return pack, unpack
    size = width * (nvars + 1)

    def pack_wide(exps):
        return (int.from_bytes(b"".join(x.to_bytes(width, "big") for x in (sum(e), *e)), "big")
                for e in exps)

    def unpack_wide(keys):
        for key in keys:
            raw = key.to_bytes(size, "big")
            yield tuple(int.from_bytes(raw[k:k + width], "big")
                        for k in range(width, size, width))
    return pack_wide, unpack_wide


class SparsePoly:
    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self._terms = {}
        # a product's (keys, shift, spread, width) until terms is read
        self._packed = None
        if terms:
            for exp, coeff in (terms.items() if isinstance(terms, dict) else terms):
                self._add_term(tuple(map(_integer, exp)), _integer(coeff))

    @classmethod
    def from_canonical(cls, nvars, terms):
        """Wrap a dict already in canonical form (exponent tuples of length
        nvars, nonzero int coefficients) without copying or checking it."""
        poly = cls.__new__(cls)
        poly.nvars, poly._terms, poly._packed = nvars, terms, None
        return poly

    @property
    def terms(self):
        """{exponent tuple: nonzero coefficient}, unpacked on first read."""
        if self._packed is not None:
            keys, shift, _, width = self._packed
            unpack = _codec(self.nvars, width)[1]
            self._terms = dict(zip(_moved(unpack(keys), shift), keys.values()))
            self._packed = None
        return self._terms

    def _add_term(self, exp, coeff):
        if len(exp) != self.nvars:
            raise DomainError(f"exponent {exp} has wrong arity for {self.nvars} variables")
        if coeff == 0:
            return
        new = self._terms.get(exp, 0) + coeff
        if new:
            self._terms[exp] = new
        else:
            self._terms.pop(exp, None)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls(len(exp), {tuple(exp): coeff})

    def is_zero(self):
        # a product with no terms left is never kept packed
        return self._packed is None and not self._terms

    def _check_nvars(self, other, verb):
        if other.nvars != self.nvars:
            raise DomainError(f"cannot {verb} polynomials in {self.nvars} "
                              f"and {other.nvars} variables")

    def _plus(self, other, sign, verb):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_nvars(other, verb)
        out = SparsePoly(self.nvars, self.terms)
        for exp, c in other.terms.items():
            out._add_term(exp, sign * c)
        return out

    def __add__(self, other):
        return self._plus(other, 1, "add")

    def __sub__(self, other):
        return self._plus(other, -1, "subtract")

    def _bounds(self):
        """(shift, spread) per variable, as the module docstring states."""
        if self._packed is not None:
            return self._packed[1:3]
        return _range(self._terms)

    def _keys(self, shift, width):
        """[(packed key, coefficient)] of the exponents minus shift."""
        if self._packed is not None and self._packed[3] == width:
            return list(self._packed[0].items())
        terms = self.terms
        pack = _codec(self.nvars, width)[0]
        return list(zip(pack(_moved(terms, tuple(map(neg, shift)))), terms.values()))

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            try:
                scalar = index(other)
            except TypeError:
                return NotImplemented
            return SparsePoly(self.nvars, {e: c * scalar for e, c in self.terms.items()})
        self._check_nvars(other, "multiply")
        if self.is_zero() or other.is_zero():
            return SparsePoly(self.nvars)
        shift1, spread1 = self._bounds()
        shift2, spread2 = other._bounds()
        spread = tuple(map(add, spread1, spread2))
        width = _slot_width(sum(spread))
        outer = self._keys(shift1, width)
        inner = other._keys(shift2, width)
        if len(outer) > len(inner):
            outer, inner = inner, outer
        out = {}
        get = out.get
        for k1, c1 in outer:
            for k2, c2 in inner:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
            if not out:
                return SparsePoly(self.nvars)
        poly = SparsePoly(self.nvars)
        poly._packed = (out, tuple(map(add, shift1, shift2)), spread, width)
        return poly

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and other.nvars == self.nvars
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(self.sorted_terms())))

    def sorted_terms(self):
        """Terms in graded lexicographic order (total degree, then lex).  A
        product's packed keys are already in that order as ints."""
        if self._packed is None:
            return sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]))
        keys, shift, _, width = self._packed
        order = sorted(keys)
        unpack = _codec(self.nvars, width)[1]
        return list(zip(_moved(unpack(order), shift), map(keys.__getitem__, order)))

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0)

    def evaluate(self, values):
        total = 0
        for exp, c in self.terms.items():
            term = c
            for e, v in zip(exp, values):
                if e < 0:
                    raise DomainError("cannot evaluate a Laurent polynomial at integers")
                term *= v ** e
            total += term
        return total

    def specialize_ones(self):
        """Sum of coefficients (every variable set to 1)."""
        return sum(self.terms.values())

    def format(self, names):
        return _pretty(self.sorted_terms(), names)

    def render(self, names):
        """(sorted_terms(), format(names)) from one sort of the terms; JSON
        writes the (exponent tuple, coefficient) pairs as [[e1, ...], c]."""
        terms = self.sorted_terms()
        return terms, _pretty(terms, names)

    def __repr__(self):
        return f"SparsePoly({self.nvars}, {dict(self.sorted_terms())})"


def _pretty(terms, names):
    """Sorted terms as text, e.g. "1 + 2*y2 - y1^-1*y2^2"; "0" for no terms."""
    if not terms:
        return "0"
    exps = [exp for exp, _ in terms]
    # one string per (variable, exponent) that occurs, "" for exponent 0
    factors = [{e: "" if e == 0 else name if e == 1 else f"{name}^{e}" for e in set(column)}
               for name, column in zip(names, zip(*exps))]
    pieces = []
    for exp, (_, coeff) in zip(exps, terms):
        if pieces:
            pieces.append(" - " if coeff < 0 else " + ")
        elif coeff < 0:
            pieces.append("-")
        coeff = abs(coeff)
        mono = "*".join(filter(None, map(getitem, factors, exp)))
        if not mono:
            pieces.append(str(coeff))
        elif coeff == 1:
            pieces.append(mono)
        else:
            pieces.append(f"{coeff}*{mono}")
    return "".join(pieces)
