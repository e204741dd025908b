"""Sparse integer polynomials with tuple exponents (Laurent allowed).

A polynomial maps exponent vectors to nonzero integer coefficients, in
graded lexicographic order wherever it is serialized.  It is stored in one
form: two parallel 1-D numpy arrays, packed integer keys sorted ascending and
their nonzero coefficients, with a shift, a spread and a slot width.  Every
exponent e has shift <= e <= shift + spread per variable.  A layout comes
from exponents in one place, ``_from_exponents``: given an (m, n) array of
exponent vectors and their coefficients, the shift is its column minima and
the spread its maxima less its minima.  Every polynomial that is not a
product is built there: the constructor's terms after their checks, a sum or
difference as the two operands' exponent arrays stacked, a scalar multiple,
a monomial image, and the row factors of ``typea.generating_function``.  A
product takes its layout from its factors instead: the sums of their shifts
and of their spreads.

A vector shifted to u = e - shift >= 0 packs into one integer key: the
big-endian bytes of its slots, first one holding its total degree, then one
per variable, each w bytes.  With B = 2**(8w) the key is the dot product of
u with the weights B**n + B**(n-1-i), and slot i comes back as
(key >> 8w(n-1-i)) & (B - 1).  A key of at most 7 bytes fits an int64 and
is that one product over the whole (m, n) array of shifted exponents
(``_pack``).  A wider key is its row of slot bytes, zero-padded in front to
whole 8-byte words, read as a Python int by joining adjacent words, then
adjacent pairs of them and so on: each level is one operation on the whole
array, so the work grows with the bytes times their logarithm.  It unpacks
by writing each key's bytes (``int.to_bytes``) and reading them all back as
one array (``_unpack``).

The slot width w is the fewest of 1, 2, 4 or 8 bytes (or as many bytes as
needed past 2**64) that hold the sum of all the spreads, not only their
maximum, since that sum bounds the degree slot.  Adding two keys adds their
vectors slot by slot, degree slot included, and no carry can cross a slot
boundary: each slot sum is at most the product's own bound.

Keys compare on the degree slot first, then on the variable slots in order,
and the shift moves every degree alike, so the grlex order of the terms is
the order of their keys: ``sorted_terms`` and ``terms`` read the stored
order.  Every exponent and coefficient leaves the class as a Python int
(``tolist``), so JSON and hashing see ints, never numpy scalars.

Arrays are int64 inside a stated bound and ``dtype=object`` (Python ints)
outside it, with one code path for both (``_dtype``):
- keys while 8w(n + 1) <= 63, shifted exponents while 8w <= 63;
- exponents while |shift|, |shift + spread| and spread are below 2**63;
- the coefficients of a polynomial built from exponents while m max |c| <
  2**63 over its m given coefficients, which bounds every sum of equal
  vectors' coefficients;
- the coefficients of a product while sum |c1| * max |c2| < 2**63, c1 on
  the shorter operand, which bounds every sum of term products.

A product takes one outer sum of the keys with the longer operand on the
inner axis, so the raveled keys are len(shorter) sorted runs; one stable
argsort merges the runs, ``np.add.reduceat`` adds the coefficients of equal
keys and zero sums are dropped.  When the outer array would pass ``_BLOCK``
entries, the shorter operand is taken a block of rows at a time and each
block's runs are merged the same way into the sum of the blocks before it,
so memory grows with the output, not with the product of the lengths.  An
operand at a narrower slot width is unpacked and packed again at the
product's width.

The substitution y_j -> x^(a_j), times x^c, is a ring map: y^e goes to
x^(c + A e), A with columns a_j, so ``monomial_image`` is one integer matrix
product of the exponent array, in a dtype that holds A, the exponents and
every partial sum, handed to ``_from_exponents``; terms whose images meet
add up there.  Its layout comes from the image exponents themselves.

``render`` writes the JSON of the terms and their text (``format``) from one
table of distinct pieces, each written once: an exponent of one variable,
with its JSON and its text, and a coefficient, with its JSON and the head of
a term in the text.  Indexing the table with every term's entries lays out
an array of pieces per form, and one join makes each.  No tuple per term is
built, and the JSON is what json.dumps(sorted_terms(), separators=(",", ":"))
writes.
"""

from bisect import bisect_right
from itertools import accumulate
from operator import add, index, mul, sub

import numpy as np

from .errors import DomainError, integer

# entries of the outer arrays of one block of a product (``SparsePoly.__mul__``)
_BLOCK = 1 << 16


def _dtype(bound):
    """int64 for integers of absolute value below bound when bound <= 2**63,
    else object (Python ints)."""
    return np.int64 if bound <= 2 ** 63 else object


def _slot_width(top):
    """Bytes per slot for entries in [0, top]: 1, 2, 4 or 8 up to 2**64, as
    many as needed past it."""
    width = max(1, (top.bit_length() + 7) // 8)
    return width if width > 8 else 1 << (width - 1).bit_length()


def _pack(u, width):
    """Keys of an (m, n) array of shifted exponents at width (``poly``
    docstring): one product with the slot weights while a key fits an int64,
    else the Python ints of the rows' big-endian slot bytes."""
    m, nvars = u.shape
    bits = 8 * width
    if width * (nvars + 1) <= 7:
        weights = [(1 << bits * nvars) + (1 << bits * i) for i in range(nvars - 1, -1, -1)]
        return u.astype(np.int64, copy=False) @ np.array(weights, dtype=np.int64)
    slots = np.concatenate((u.sum(axis=1, keepdims=True), u), axis=1)
    if width <= 8:
        row = slots.astype(f">u{width}").view(np.uint8)
    else:
        row = np.frombuffer(b"".join(x.to_bytes(width, "big") for x in slots.ravel().tolist()),
                            dtype=np.uint8).reshape(m, width * (nvars + 1))
    words = np.concatenate((np.zeros((m, -row.shape[1] % 8), dtype=np.uint8), row),
                           axis=1).view(">u8").astype(object)
    step = 64
    while words.shape[1] > 1:
        if words.shape[1] % 2:
            words = np.concatenate((np.zeros((m, 1), dtype=object), words), axis=1)
        words = (words[:, ::2] << step) | words[:, 1::2]
        step *= 2
    return words.ravel()


def _unpack(keys, nvars, width):
    """The (m, nvars) shifted exponents of keys at width: by shifts and masks
    from int64 keys, else read back from the keys' bytes."""
    bits = 8 * width
    if width * (nvars + 1) <= 7:
        return (keys[:, None] >> np.arange(bits * (nvars - 1), -1, -bits)) & ((1 << bits) - 1)
    data = b"".join(k.to_bytes(width * (nvars + 1), "big") for k in keys.tolist())
    if width <= 8:
        slots = np.frombuffer(data, dtype=f">u{width}").astype(_dtype(1 << bits))
    else:
        slots = np.array([int.from_bytes(data[i:i + width], "big")
                          for i in range(0, len(data), width)], dtype=object)
    return slots.reshape(-1, nvars + 1)[:, 1:]


def _group_starts(ordered):
    """True where a sorted 1-D array starts a group of equal entries."""
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _summed(keys, coeffs):
    """Sorted keys with the coefficients of equal keys added, zero sums dropped."""
    starts = _group_starts(keys).nonzero()[0]
    if starts.size < keys.size:
        keys, coeffs = keys[starts], np.add.reduceat(coeffs, starts)
    kept = coeffs.nonzero()[0]
    if kept.size < keys.size:
        keys, coeffs = keys[kept], coeffs[kept]
    return keys, coeffs


class SparsePoly:
    def __init__(self, nvars, terms=None):
        nvars = integer(nvars, "numbers of variables")
        if nvars < 0:
            raise DomainError(f"the number of variables {nvars} is negative")
        exps, coeffs = [], []
        for exp, coeff in (terms.items() if isinstance(terms, dict) else terms or ()):
            exp = tuple(integer(x, "exponents") for x in exp)
            if len(exp) != nvars:
                raise DomainError(f"exponent {exp} has wrong arity for {nvars} variables")
            exps.append(exp)
            coeffs.append(integer(coeff, "coefficients"))
        poly = SparsePoly._from_exponents(
            nvars, np.array(exps, dtype=object).reshape(len(coeffs), nvars),
            np.array(coeffs, dtype=object))
        self.nvars, self._packed = nvars, poly._packed

    @classmethod
    def _from_exponents(cls, nvars, exps, coeffs):
        """A polynomial from an (m, nvars) integer array of exponent vectors
        and an array of their m coefficients, equal vectors added up and zero
        sums dropped.  The one place a layout comes from exponents: the shift
        is the column minima, the spread the maxima less the minima."""
        shift = exps.min(axis=0).tolist() if len(exps) else [0] * nvars
        spread = list(map(sub, exps.max(axis=0).tolist(), shift)) if len(exps) else shift
        width = _slot_width(sum(spread))
        # exps and shift lie within |shift| + spread, and exps - shift in
        # [0, spread]
        dtype = _dtype(1 + max(map(add, map(abs, shift), spread), default=0))
        u = exps.astype(dtype, copy=False) - np.array(shift, dtype=dtype)
        keys = _pack(u.astype(_dtype(1 << 8 * width), copy=False), width)
        # stable: a timsort, quick on the sorted runs of a sum or an image
        order = keys.argsort(kind="stable")
        # every sum of equal keys' coefficients is at most m max |c|
        coeffs = coeffs.astype(_dtype(1 + len(coeffs) * int(abs(coeffs).max(initial=0))),
                               copy=False)
        keys, coeffs = _summed(keys[order], coeffs[order])
        return cls._from_packed(nvars, keys, tuple(shift), tuple(spread), width, coeffs)

    @classmethod
    def _from_packed(cls, nvars, keys, shift, spread, width, coeffs):
        """A polynomial from sorted distinct keys that fit (shift, spread,
        width) and their nonzero coefficients."""
        poly = cls.__new__(cls)
        poly.nvars, poly._packed = nvars, (keys, shift, spread, width, coeffs)
        return poly

    def _exponents(self):
        """The (m, nvars) array of exponent vectors in key order."""
        keys, shift, spread, width, _ = self._packed
        # the shifted exponents u lie in [0, spread] and u + shift in [shift,
        # shift + spread]
        dtype = _dtype(1 + max((max(abs(s), abs(s + d), d) for s, d in zip(shift, spread)),
                               default=0))
        return _unpack(keys, self.nvars, width).astype(dtype, copy=False) \
            + np.array(shift, dtype=dtype)

    def _exponent_tuples(self):
        """The exponent tuples in key order, of Python ints."""
        return list(map(tuple, self._exponents().tolist()))

    @property
    def terms(self):
        """{exponent tuple: nonzero coefficient}, unpacked afresh on each read."""
        return dict(zip(self._exponent_tuples(), self._packed[4].tolist()))

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, exp):
        return cls(len(exp), {tuple(exp): 1})

    def is_zero(self):
        return not self._packed[4].size

    def _check_nvars(self, other, verb):
        if other.nvars != self.nvars:
            raise DomainError(f"cannot {verb} polynomials in {self.nvars} "
                              f"and {other.nvars} variables")

    def _plus(self, other, sign, verb):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        self._check_nvars(other, verb)
        return SparsePoly._from_exponents(
            self.nvars, np.concatenate((self._exponents(), other._exponents())),
            np.concatenate((self._packed[4], sign * other._packed[4])))

    def __add__(self, other):
        return self._plus(other, 1, "add")

    def __sub__(self, other):
        return self._plus(other, -1, "subtract")

    def _at(self, width):
        """(keys, coefficients) with the keys packed at width."""
        keys, _, _, own, coeffs = self._packed
        if own != width:
            keys = _pack(_unpack(keys, self.nvars, own), width)
        return keys, coeffs

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            try:
                scalar = index(other)
            except TypeError:
                return NotImplemented
            return SparsePoly._from_exponents(self.nvars, self._exponents(),
                                              self._packed[4].astype(object) * scalar)
        self._check_nvars(other, "multiply")
        _, shift1, spread1, _, _ = self._packed
        _, shift2, spread2, _, _ = other._packed
        spread = tuple(map(add, spread1, spread2))
        width = _slot_width(sum(spread))
        (k1, c1), (k2, c2) = self._at(width), other._at(width)
        if k1.size > k2.size:
            (k1, c1), (k2, c2) = (k2, c2), (k1, c1)
        if c1.size:
            # every coefficient of the product, and of a part of it, is a sum
            # of c1[i] c2[j], one j per i
            dtype = _dtype(1 + sum(map(abs, c1.tolist())) * int(abs(c2).max()))
            c1, c2 = c1.astype(dtype, copy=False), c2.astype(dtype, copy=False)
            # the shorter operand a block of rows at a time, so that an outer
            # array stays near _BLOCK entries; each block is merged into the
            # sum of the blocks before it
            step = max(1, _BLOCK // k2.size)
            for i in range(0, k1.size, step):
                keys = np.add.outer(k1[i:i + step], k2).ravel()
                coeffs = np.multiply.outer(c1[i:i + step], c2).ravel()
                if i:
                    keys, coeffs = np.concatenate((done, keys)), np.concatenate((sums, coeffs))
                order = keys.argsort(kind="stable")
                done, sums = _summed(keys[order], coeffs[order])
            k1, c1 = done, sums
        return SparsePoly._from_packed(self.nvars, k1, tuple(map(add, shift1, shift2)),
                                       spread, width, c1)

    __rmul__ = __mul__

    def monomial_image(self, images, offset):
        """The image under the ring map y_j -> x^images[j], times x^offset:
        y^e goes to x^(offset + sum_j e_j images[j]), in len(offset)
        variables.  Terms whose images meet add up (``poly`` docstring)."""
        offset = tuple(integer(x, "exponents") for x in offset)
        nout = len(offset)
        images = [tuple(integer(x, "exponents") for x in a) for a in images]
        if len(images) != self.nvars or any(len(a) != nout for a in images):
            raise DomainError(f"need {self.nvars} images of {nout} exponents each")
        _, shift, spread, _, coeffs = self._packed
        # the largest |exponent| and |image entry| per variable, and a dtype
        # that holds both and every partial sum of offset + exps @ images
        top = [max(abs(s), abs(s + d)) for s, d in zip(shift, spread)]
        reach = [max(map(abs, a), default=0) for a in images]
        dtype = _dtype(1 + max([*map(abs, offset), *top, *reach], default=0)
                       + sum(map(mul, top, reach)))
        exps = self._exponents().astype(dtype, copy=False) \
            @ np.array(images, dtype=dtype).reshape(self.nvars, nout) \
            + np.array(offset, dtype=dtype)
        return SparsePoly._from_exponents(nout, exps, coeffs)

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and other.nvars == self.nvars
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(self.sorted_terms())))

    def sorted_terms(self):
        """Terms in graded lexicographic order (total degree, then lex): the
        stored order of the keys."""
        return list(zip(self._exponent_tuples(), self._packed[4].tolist()))

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0)

    def format(self, names):
        return self.render(names)[1]

    def render(self, names):
        """(the JSON text of sorted_terms(), format(names)).  The JSON is what
        json.dumps(sorted_terms(), separators=(",", ":")) writes, each term a
        pair [[e1, ...], c]; it holds only integers, brackets and commas, so
        putting a space after each comma gives the default json.dumps text.
        Both are written from one table of distinct pieces (``_texts``).
        DomainError unless there is one name per variable."""
        if len(names) != self.nvars:
            raise DomainError(f"need {self.nvars} variable names, got {len(names)}")
        keys, shift, spread, width, coeffs = self._packed
        return _texts(_unpack(keys, self.nvars, width), shift, spread, coeffs, names)

    def __repr__(self):
        return f"SparsePoly({self.nvars}, {dict(self.sorted_terms())})"


def _distinct(a):
    """(the distinct entries of a 1-D array in ascending order, as a list,
    and where each entry's value sits among them): one sort, as np.unique."""
    order = a.argsort()
    first = _group_starts(a[order])
    where = np.empty(a.size, dtype=np.intp)
    where[order] = first.cumsum() - 1
    return a[order[first]].tolist(), where


def _texts(u, shift, spread, coeffs, names):
    """(JSON, text) of the terms in key order, e.g. "[[[0,1],2],[[1,1],-1]]"
    and "2*y2 - y1*y2"; "[]" and "0" for no terms.  u: the shifted exponents.

    Each distinct piece of either is written once, into a table that holds
    its JSON and its text: an exponent of one variable, and a coefficient.
    Variable i's shifted exponents are laid in [base_i, base_i + spread_i];
    while those ranges together hold no more slots than u has entries, the
    table lists them all and u + base indexes it, else it lists the distinct
    entries of one sort.  The coefficients are sorted once the same way.
    Indexing a table with every term's entries gives an (m, nvars + 1) array
    of pieces per form, and one join writes it.  In the text a variable's
    piece carries a leading "*" where an earlier variable of its term shows,
    and each term opens with a head of sign and coefficient ("" for 1 before
    a monomial).
    """
    m, nvars = u.shape
    if not m:
        return "[]", "0"
    base = list(accumulate((s + 1 for s in spread), initial=0))
    slots = u + np.array(base[:-1], dtype=u.dtype)
    del u  # the caller's only reference
    if base[-1] <= slots.size:
        entries = [(i, shift[i] + v) for i in range(nvars) for v in range(spread[i] + 1)]
    else:
        found, slots = _distinct(slots.ravel())
        slots = slots.reshape(m, nvars)
        entries = []
        for x in found:
            i = bisect_right(base, x) - 1
            entries.append((i, shift[i] + x - base[i]))
    values, which = _distinct(coeffs)
    k, c = len(entries), len(values)
    # the pieces: of each entry its JSON, its text, and its text after an
    # earlier variable; of each coefficient its JSON, and the head of a term
    # in the text alone and before a monomial
    close = "" if nvars else "],"
    texts = ["" if not e else names[i] if e == 1 else f"{names[i]}^{e}" for i, e in entries]
    variables = np.array([f"{e}]," if i == nvars - 1 else f"{e}," for i, e in entries]
                         + texts + [t and f"*{t}" for t in texts], dtype=object)
    heads = [(" - " if x < 0 else " + ", abs(x)) for x in values]
    coefficients = np.array([f"{close}{x}],[[" for x in values]
                            + [f"{s}{a}" for s, a in heads]
                            + [s if a == 1 else f"{s}{a}*" for s, a in heads], dtype=object)
    # JSON: "[[" e_1 "," ... e_n "]," c "]" per term, joined by ","; the
    # piece of a coefficient also opens the next term
    pieces = np.empty((m, nvars + 1), dtype=object)
    pieces[:, :nvars] = variables[slots]
    pieces[:, nvars] = coefficients[which]
    out = pieces.ravel().tolist()
    out[0] = "[[[" + out[0]
    out[-1] = out[-1][:-3] + "]"
    terms = "".join(out)
    del out
    # text: the head, then the variables that show, "*" before each but the
    # first; seen[:, j] is whether a variable before the j-th shows
    seen = np.zeros((m, nvars + 1), dtype=bool)
    np.logical_or.accumulate(np.array([e != 0 for _, e in entries], dtype=bool)[slots],
                             axis=1, out=seen[:, 1:])
    slots += k
    np.add(slots, k, out=slots, where=seen[:, :-1])
    pieces[:, 1:] = variables[slots]
    del slots
    which += c
    np.add(which, c, out=which, where=seen[:, -1])
    pieces[:, 0] = coefficients[which]
    del seen, which
    out = pieces.ravel().tolist()
    del pieces
    out[0] = ("-" if out[0][1] == "-" else "") + out[0][3:]
    return terms, "".join(out)
