"""Sparse integer polynomials with tuple exponents (Laurent allowed).

A polynomial maps exponent vectors to nonzero integer coefficients, in
graded lexicographic order wherever it is serialized.  It is stored in one
form: packed integer keys with a shift, a spread and a slot width.  Every
exponent e has shift <= e <= shift + spread per variable: the minimum and
maximum - minimum of the terms it was built from, or for a product the sums
of its factors' shifts and spreads.  A vector shifted to e - shift >= 0 packs
into one int: a leading slot holding its total degree, then one slot per
variable, each w bytes big-endian (``struct`` and ``int.from_bytes``, both in
C).  The slot width w is the fewest of 1, 2, 4 or 8 bytes (or as many bytes
as needed past 2**64) that hold the sum of all the spreads, not only their
maximum, since that sum bounds the degree slot.  Adding two keys adds their
vectors slot by slot, degree slot included, and no carry can cross a slot
boundary: each slot sum is at most the product's own bound.

Keys compare on the degree slot first, then on the variable slots in order,
and the shift moves every degree alike, so the grlex order of the terms is
the order of their keys: ``sorted_terms`` is one int sort and one unpack.
``terms`` unpacks the keys (``int.to_bytes``, the degree slot skipped as
padding) on every read and never changes the polynomial.  A product reuses an
operand's keys at the same width and repacks them otherwise.

The substitution y_j -> x^(a_j), times x^c, is a ring map: y^e goes to
x^(c + A e), A with columns a_j.  A key is a linear form in the shifted
exponents u = e - shift, so the key of the image is an affine form in u:
``monomial_image`` maps each key by one dot product of its slots.  Its shift
is c + A shift less the spreads that negative entries of A can subtract, its
spread is |A| times the old spread, and keys that meet add up.
"""

import struct
from operator import add, getitem, index, methodcaller, mul, neg, sub

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
        nvars = _integer(nvars)
        if nvars < 0:
            raise DomainError(f"the number of variables {nvars} is negative")
        merged = {}
        for exp, coeff in (terms.items() if isinstance(terms, dict) else terms or ()):
            exp, coeff = tuple(map(_integer, exp)), _integer(coeff)
            if len(exp) != nvars:
                raise DomainError(f"exponent {exp} has wrong arity for {nvars} variables")
            merged[exp] = merged.get(exp, 0) + coeff
        merged = {e: c for e, c in merged.items() if c}
        shift, spread = _range(merged) if merged else ((0,) * nvars, (0,) * nvars)
        width = _slot_width(sum(spread))
        pack = _codec(nvars, width)[0]
        keys = dict(zip(pack(_moved(merged, tuple(map(neg, shift)))), merged.values()))
        self.nvars = nvars
        self._packed = (keys, shift, spread, width)

    @classmethod
    def _from_packed(cls, nvars, keys, shift, spread, width):
        """A polynomial from keys that fit (shift, spread, width), zero
        coefficients dropped."""
        if 0 in keys.values():
            keys = {k: c for k, c in keys.items() if c}
        poly = cls.__new__(cls)
        poly.nvars, poly._packed = nvars, (keys, shift, spread, width)
        return poly

    @property
    def terms(self):
        """{exponent tuple: nonzero coefficient}, unpacked afresh on each read."""
        keys, shift, _, width = self._packed
        unpack = _codec(self.nvars, width)[1]
        return dict(zip(_moved(unpack(keys), shift), keys.values()))

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls(len(exp), {tuple(exp): coeff})

    def is_zero(self):
        return not self._packed[0]

    def _check_nvars(self, other, verb):
        if other.nvars != self.nvars:
            raise DomainError(f"cannot {verb} polynomials in {self.nvars} "
                              f"and {other.nvars} variables")

    def _plus(self, other, sign, verb):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_nvars(other, verb)
        return SparsePoly(self.nvars, [*self.terms.items(),
                                       *((e, sign * c) for e, c in other.terms.items())])

    def __add__(self, other):
        return self._plus(other, 1, "add")

    def __sub__(self, other):
        return self._plus(other, -1, "subtract")

    def _keys(self, width):
        """[(packed key, coefficient)] of the exponents minus shift, at width."""
        keys, _, _, own = self._packed
        if own == width:
            return list(keys.items())
        pack, unpack = _codec(self.nvars, width)[0], _codec(self.nvars, own)[1]
        return list(zip(pack(unpack(keys)), keys.values()))

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            try:
                scalar = index(other)
            except TypeError:
                return NotImplemented
            return SparsePoly(self.nvars, {e: c * scalar for e, c in self.terms.items()})
        self._check_nvars(other, "multiply")
        _, shift1, spread1, _ = self._packed
        _, shift2, spread2, _ = other._packed
        spread = tuple(map(add, spread1, spread2))
        width = _slot_width(sum(spread))
        outer = self._keys(width)
        inner = other._keys(width)
        if len(outer) > len(inner):
            outer, inner = inner, outer
        out = {}
        get = out.get
        for k1, c1 in outer:
            for k2, c2 in inner:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return SparsePoly._from_packed(self.nvars, out, tuple(map(add, shift1, shift2)),
                                       spread, width)

    __rmul__ = __mul__

    def monomial_image(self, images, offset):
        """The image under the ring map y_j -> x^images[j], times x^offset:
        y^e goes to x^(offset + sum_j e_j images[j]), in len(offset)
        variables.  Terms whose images meet add up (``poly`` docstring)."""
        offset = tuple(map(_integer, offset))
        nout = len(offset)
        images = [tuple(map(_integer, a)) for a in images]
        if len(images) != self.nvars or any(len(a) != nout for a in images):
            raise DomainError(f"need {self.nvars} images of {nout} exponents each")
        keys, shift, spread, width = self._packed
        rows = list(zip(*images)) if images else [()] * nout
        # per output variable: the spreads its negative entries can subtract
        low = [-sum(min(a, 0) * s for a, s in zip(row, spread)) for row in rows]
        new_shift = tuple(c + sum(map(mul, row, shift)) - lo
                          for c, row, lo in zip(offset, rows, low))
        new_spread = tuple(sum(abs(a) * s for a, s in zip(row, spread)) for row in rows)
        new_width = _slot_width(sum(new_spread))
        # a key is sum_i u_i (slot_i + degree slot) over the shifted exponents u
        bits = 8 * new_width
        places = [(1 << bits * (nout - 1 - i)) + (1 << bits * nout) for i in range(nout)]
        base = sum(map(mul, low, places))
        weights = [sum(map(mul, column, places)) for column in images]
        out = {}
        get = out.get
        for u, c in zip(_codec(self.nvars, width)[1](keys), keys.values()):
            k = base + sum(map(mul, u, weights))
            out[k] = get(k, 0) + c
        return SparsePoly._from_packed(nout, out, new_shift, new_spread, new_width)

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and other.nvars == self.nvars
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(self.sorted_terms())))

    def sorted_terms(self):
        """Terms in graded lexicographic order (total degree, then lex): the
        order of the packed keys as ints."""
        keys, shift, _, width = self._packed
        order = sorted(keys)
        unpack = _codec(self.nvars, width)[1]
        return list(zip(_moved(unpack(order), shift), map(keys.__getitem__, order)))

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0)

    def specialize_ones(self):
        """Sum of coefficients (every variable set to 1)."""
        return sum(self._packed[0].values())

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
