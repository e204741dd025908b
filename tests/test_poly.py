"""Sparse polynomials: the packed-key product against the plain convolution,
the packed monomial image against the plain substitution, sums, differences,
scalar multiples and the constructor against the plain sum of terms, the
table-driven text against the term-by-term one, and the checks on what a
polynomial may be built from, added to and multiplied by."""

import json
from fractions import Fraction
from operator import add, sub
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import added, convolve, pretty, row_by_tuples, substitute
from quivergrass import DomainError
from quivergrass.poly import SparsePoly, _dtype, _pack, _unpack
from quivergrass.typea import IntervalDecomposition, generating_function

# slot-width edges (a shifted sum of 255 fits one byte, 256 needs two), wide
# slots up to and past 8 bytes, and negative (Laurent) exponents
EXPONENTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([127, 128, 254, 255, 256, 2 ** 16 - 1, 2 ** 16, 2 ** 63, 2 ** 64]),
    st.integers(-2 ** 70, 2 ** 70))
COEFFICIENTS = st.one_of(st.integers(-3, 3).filter(bool),
                         st.integers(2 ** 64, 2 ** 80), st.integers(-2 ** 80, -2 ** 64))


@st.composite
def polys(draw, count):
    nvars = draw(st.integers(0, 4))

    def poly():
        exps = st.tuples(*[EXPONENTS] * nvars)
        return SparsePoly(nvars, draw(st.dictionaries(exps, COEFFICIENTS, max_size=6)))
    return tuple(poly() for _ in range(count))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(polys(2))
def test_product_equals_the_convolution(pair):
    p, q = pair
    assert (p * q).terms == convolve(p, q)
    assert (q * p).terms == convolve(p, q)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(polys(3))
def test_chained_products_equal_the_convolution(triple):
    """A product feeds the next one with its packed keys, whether or not its
    terms were read in between, and whichever side it is on."""
    p, q, r = triple
    pq = SparsePoly(p.nvars, convolve(p, q))
    expected = convolve(pq, r)
    assert (p * q * r).terms == expected
    assert (r * (q * p)).terms == expected
    read = p * q
    assert read.terms == pq.terms and (read * r).terms == expected
    square = p * q
    assert (square * square).terms == convolve(pq, pq)
    assert (p * q + r) - r == pq


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(polys(2), st.one_of(st.integers(-3, 3), st.integers(2 ** 62, 2 ** 70)))
def test_sum_difference_and_scalar_multiple_equal_the_plain_sums(pair, k):
    p, q = pair
    plus, minus = added(p.terms.items(), q.terms.items()), \
        added(p.terms.items(), ((e, -c) for e, c in q.terms.items()))
    assert (p + q).terms == plus and (p + q).sorted_terms() == _grlex(plus)
    assert (p - q).terms == minus and (p - q).sorted_terms() == _grlex(minus)
    assert (k * p).terms == (p * k).terms == added((e, k * c) for e, c in p.terms.items())
    # cancellation to zero, and a sum that feeds a product with its keys
    assert (p - p).is_zero() and (p + q - q) == p and (-1 * p + p).is_zero()
    assert ((p + q) * q).terms == convolve(SparsePoly(p.nvars, plus), q)


@pytest.mark.parametrize("coeffs", [[2 ** 62, 2 ** 62], [2 ** 63 - 1, 1], [-2 ** 63, -1],
                                    [2 ** 63 - 1, 2 ** 63 - 1, -5], [2 ** 62, -2 ** 62, 3]])
def test_constructor_adds_repeated_exponents_past_int64(coeffs):
    """Coefficients of one exponent, given as separate pairs, add up exactly
    when their sum passes 2**63; the sum of two polynomials of such terms too."""
    pairs = [((1, -2), c) for c in coeffs] + [((0, 0), 1)]
    p = SparsePoly(2, pairs)
    assert p.terms == added(pairs) and p.coefficient((1, -2)) == sum(coeffs)
    half = SparsePoly(2, {(1, -2): coeffs[0]})
    assert (half + SparsePoly(2, pairs[1:])).terms == added(pairs)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 2000])
def test_row_factors_equal_the_dense_tuples(n):
    """The 0/1 exponent rows of generating_function give the row polynomial
    of U[i,j] that the dict of dense n-tuples gives, for every interval at
    n <= 7 and for a few of A_2000."""
    intervals = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)] if n <= 7 else \
        [(1, 1), (1, 3), (5, 9), (1999, 2000), (2000, 2000)]
    for i, j in intervals:
        row = generating_function(IntervalDecomposition(n, {(i, j): 1}))
        assert row.sorted_terms() == row_by_tuples(n, i, j).sorted_terms()


def test_sum_and_image_at_exponent_dtype_edges():
    """Exponents whose shift and spread fit an int64 while |shift| + spread
    does not; an exponent of 2**63 mapped into no variables; an image entry
    past 2**63 on a variable whose exponents are all 0."""
    low, high = -2 ** 63 + 1, 2 ** 62
    p = SparsePoly(1, {(low,): 1, (high,): 2})
    q = SparsePoly(1, {(high,): -2, (low + 3,): 5})
    for left, right in ((p, q), (q, p)):
        assert (left + right).terms == added(left.terms.items(), right.terms.items())
    assert (p * q).terms == convolve(p, q)
    small = SparsePoly(2, {(1, 0): 3, (2, 0): -1})
    assert small.monomial_image([(1,), (2 ** 63,)], (0,)).terms == {(1,): 3, (2,): -1}
    wide = SparsePoly(2, {(2 ** 63, 0): 3, (1, 0): -1})
    assert wide.monomial_image([(), ()], ()).terms == {(): 2}
    assert wide.monomial_image([(1,), (2 ** 64,)], (-2 ** 63,)).terms == \
        substitute(wide, [(1,), (2 ** 64,)], (-2 ** 63,)) == {(0,): 3, (1 - 2 ** 63,): -1}


def _grlex(terms):
    """The tuple-key sort that packed keys replace."""
    return sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]))


@st.composite
def termed(draw):
    """(nvars, terms) with distinct exponents and nonzero coefficients."""
    nvars = draw(st.integers(0, 4))
    return nvars, draw(st.dictionaries(st.tuples(*[EXPONENTS] * nvars), COEFFICIENTS,
                                       max_size=8))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(termed())
def test_sorted_terms_of_a_polynomial_built_from_its_terms_is_grlex(case):
    """Not only a product: the constructor packs too, and its keys sort."""
    nvars, terms = case
    assert SparsePoly(nvars, terms).sorted_terms() == _grlex(terms)


# images up to 2**40 on exponents up to 2**70 spread the image past 2**64
IMAGE_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40))


@st.composite
def substitutions(draw):
    """(p, images, offset, cancels): p in 0 to 4 variables and images of 0 to
    4 exponents.  When cancels, y_j goes to 1 and p is q - y_j q, whose image
    is 0 though its terms are not."""
    nvars, terms = draw(termed())
    p = SparsePoly(nvars, terms)
    nout = draw(st.integers(0, 4))
    entries = st.tuples(*[IMAGE_ENTRIES] * nout)
    images = [draw(entries) for _ in range(nvars)]
    if nvars and draw(st.booleans()):
        # all images equal: terms that differ by moving degree between them meet
        images = [images[0]] * nvars
    cancels = nvars > 0 and draw(st.booleans())
    if cancels:
        j = draw(st.integers(0, nvars - 1))
        images[j] = (0,) * nout
        p = p - SparsePoly(nvars, {e[:j] + (e[j] + 1,) + e[j + 1:]: c for e, c in terms.items()})
    return p, images, draw(entries), cancels


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(substitutions(), st.data())
def test_monomial_image_equals_the_substitution(case, data):
    p, images, offset, cancels = case
    nout = len(offset)
    expected = substitute(p, images, offset)
    image = p.monomial_image(images, offset)
    assert image.nvars == nout and image.terms == expected
    assert image.sorted_terms() == _grlex(expected)
    assert image.is_zero() or not cancels
    # the image feeds a product with its keys, on either side
    r = SparsePoly(nout, data.draw(st.dictionaries(st.tuples(*[EXPONENTS] * nout),
                                                   COEFFICIENTS, max_size=4)))
    assert (image * r).terms == (r * image).terms == convolve(SparsePoly(nout, expected), r)


def test_monomial_image_refuses_images_of_the_wrong_shape():
    p = SparsePoly(2, {(1, 0): 1})
    for images, offset in [([(1,)], (0,)), ([(1,), (0, 1)], (0,)), ([(1,), (2,)], (0, 0))]:
        with pytest.raises(DomainError):
            p.monomial_image(images, offset)


@st.composite
def chains(draw, nvars, low, spread):
    """Two to four factors in nvars variables; each has exponents in
    [offset, offset + spread] per variable, for an offset >= low."""
    def factor():
        offset = draw(st.integers(low, max(low, 0)))
        exps = st.tuples(*[st.integers(offset, offset + spread)] * nvars)
        terms = draw(st.dictionaries(exps, COEFFICIENTS, min_size=1, max_size=5))
        # the corners fix the spread of the factor at `spread` in every variable
        terms.update({(offset,) * nvars: 1, (offset + spread,) * nvars: -2})
        return SparsePoly(nvars, terms)
    return [factor() for _ in range(draw(st.integers(2, 4)))]


CHAINS = {
    "laurent": (chains(3, -5, 6), lambda width: width == 1),
    # each variable spans 60 per factor: a maximum of at most 240 fits one
    # byte, the sum over the six variables does not
    "sum of spreads past one byte": (chains(6, 0, 60), lambda width: width == 2),
    "wide": (chains(2, -2 ** 70, 2 ** 66), lambda width: width > 8),
}


@pytest.mark.parametrize("case", CHAINS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_sorted_terms_of_a_packed_chain_is_grlex(case, data):
    """A product sorts its packed keys as ints; that must be the graded-lex
    order of its exponent tuples, at every slot width."""
    strategy, expected_width = CHAINS[case]
    factors = data.draw(strategy)
    product, expected = factors[0], factors[0].terms
    for f in factors[1:]:
        product = product * f
        expected = convolve(SparsePoly(f.nvars, expected), f)
    # the top corners multiply to the one term of highest degree: never zero
    assert expected_width(product._packed[3])
    assert product.sorted_terms() == _grlex(expected)
    assert product.terms == expected


@pytest.mark.parametrize("top", [254, 255, 256, 2 ** 64 - 1, 2 ** 64])
def test_product_at_slot_width_edges(top):
    """Shifted sums of exactly top, from operands whose minima are 0 or not."""
    half = top // 2
    for low in (0, -7, 300):
        p = SparsePoly(2, {(low, low): 1, (low + half, low): 2, (low, low + top - half): 3})
        q = SparsePoly(2, {(0, 0): 5, (top - half, half): -1, (half, top - half): 7})
        assert (p * q).terms == convolve(p, q)


def test_product_drops_cancelled_terms():
    x_plus_1 = SparsePoly(1, {(1,): 1, (0,): 1})
    x_minus_1 = SparsePoly(1, {(1,): 1, (0,): -1})
    assert (x_plus_1 * x_minus_1).terms == {(2,): 1, (0,): -1}
    zero = SparsePoly(3)
    assert (zero * SparsePoly.one(3)).is_zero() and (SparsePoly.one(3) * zero).is_zero()
    assert SparsePoly.one(0) * SparsePoly(0, {(): -4}) == SparsePoly(0, {(): -4})


def test_scalar_product():
    p = SparsePoly(2, {(1, 0): 2, (-1, 3): -1})
    assert p * 3 == 3 * p == SparsePoly(2, {(1, 0): 6, (-1, 3): -3})
    assert (p * np.int64(0)).is_zero()


def test_product_refuses_a_different_number_of_variables():
    with pytest.raises(DomainError):
        SparsePoly(2, {(1, 0): 1}) * SparsePoly(3, {(0, 1, 5): 2})


@pytest.mark.parametrize("other", [2.5, Fraction(1, 2), "y", None])
def test_product_refuses_a_non_polynomial(other):
    p = SparsePoly(1, {(1,): 1})
    with pytest.raises(TypeError):
        p * other
    with pytest.raises(TypeError):
        other * p


def test_sum_and_difference_refuse_a_different_number_of_variables():
    p = SparsePoly(2, {(1, 0): 1})
    for other in (SparsePoly(3), SparsePoly(3, {(0, 1, 5): 2}), SparsePoly(1, {(1,): 1})):
        for op in (add, sub):
            with pytest.raises(DomainError):
                op(p, other)
            with pytest.raises(DomainError):
                op(other, p)


@pytest.mark.parametrize("other", [1, 2.5, Fraction(1, 2), "y", None])
def test_sum_and_difference_refuse_a_non_polynomial(other):
    p = SparsePoly(2, {(1, 0): 1})
    for op in (add, sub):
        with pytest.raises(TypeError):
            op(p, other)
        with pytest.raises(TypeError):
            op(other, p)


@pytest.mark.parametrize("terms", [{(1,): 1.5}, {(1,): Fraction(3, 1)}, {(1,): 2.0},
                                   {(1.5,): 1}, {(Fraction(1, 2),): 1}, {(1,): "1"}])
def test_constructor_refuses_non_integers(terms):
    with pytest.raises(DomainError):
        SparsePoly(1, terms)


@pytest.mark.parametrize("nvars", [2.5, "2", -1])
def test_constructor_refuses_a_bad_number_of_variables(nvars):
    with pytest.raises(DomainError):
        SparsePoly(nvars)


def test_constructor_takes_numpy_integers():
    p = SparsePoly(1, {(np.int64(2),): np.int32(3), (True,): 1})
    assert p.terms == {(2,): 3, (1,): 1}
    assert all(type(x) is int for e, c in p.terms.items() for x in e + (c,))


def test_format_of_zero_and_of_a_leading_negative_term():
    names = ["y1", "y2"]
    assert SparsePoly(2).format(names) == "0"
    assert SparsePoly(2, {(1, 0): -1}).format(names) == "-y1"
    assert SparsePoly(2, {(0, 0): -3, (0, 1): 2}).format(names) == "-3 + 2*y2"


@pytest.mark.parametrize("nvars,key_dtype", [(6, np.int64), (7, object)])
def test_product_at_key_dtype_edges(nvars, key_dtype):
    """One-byte slots: 8 (n + 1) bits of key fit an int64 at n = 6 (56 bits)
    and not at n = 7 (64 bits)."""
    rng = np.random.default_rng(nvars)
    # spreads of at most 15 + 15 per variable: their sum fits one byte
    p = SparsePoly(nvars, {tuple(e): c for e, c in zip(rng.integers(-3, 13, (12, nvars)).tolist(),
                                                        rng.integers(-9, 9, 12).tolist())})
    q = SparsePoly(nvars, {tuple(e): c for e, c in zip(rng.integers(0, 16, (9, nvars)).tolist(),
                                                        rng.integers(-9, 9, 9).tolist())})
    pq = p * q
    assert pq._packed[3] == 1 and pq._packed[0].dtype == key_dtype
    assert pq.terms == convolve(p, q) and (q * p).terms == convolve(p, q)
    assert pq.sorted_terms() == _grlex(convolve(p, q))


@st.composite
def slot_rows(draw):
    """(width, an (m, n) array of shifted exponents whose row sums fit a
    slot of width bytes), in the dtype the class keeps them in."""
    width = draw(st.sampled_from([1, 2, 4, 8, 16]))
    nvars = draw(st.one_of(st.integers(0, 9), st.sampled_from([10_000, 10_001])))
    top = (1 << 8 * width) - 1
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        row = [0] * nvars
        # a few nonzero slots, up to the full slot when there is one
        count = draw(st.integers(0, min(nvars, 3)))
        for i in draw(st.lists(st.integers(0, max(nvars - 1, 0)), min_size=count,
                               max_size=count)):
            row[i] = draw(st.integers(0, top // count))
        rows.append(row)
    return width, np.array(rows, dtype=_dtype(top + 1)).reshape(len(rows), nvars)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(slot_rows())
# both sides of the 7-byte int64 key at one, two and four bytes per slot
@example((1, np.array([[1, 2, 3, 4, 5, 6]]))).via("6 one-byte slots: 7 bytes")
@example((1, np.array([[1, 2, 3, 4, 5, 6, 7]]))).via("7 one-byte slots: 8 bytes")
@example((2, np.array([[300, 2]]))).via("2 two-byte slots: 6 bytes")
@example((2, np.array([[300, 2, 1]]))).via("3 two-byte slots: 8 bytes")
@example((4, np.zeros((2, 0), dtype=np.int64))).via("no slots: 4 bytes")
@example((4, np.array([[70000]]))).via("1 four-byte slot: 8 bytes")
@example((16, np.array([[2 ** 127, 0, 2 ** 100]], dtype=object))).via("16-byte slots")
@example((1, np.array([[255] + [0] * 9_999, [0] * 9_999 + [1]]))).via("10,000 slots")
def test_keys_are_the_big_endian_bytes_of_the_slots(case):
    """A key is the integer of its degree slot and its variable slots, each
    width bytes, most significant first; unpacking gives the slots back."""
    width, u = case
    keys = _pack(u, width)
    rows = u.tolist()
    assert keys.tolist() == [int.from_bytes(b"".join(x.to_bytes(width, "big")
                                                      for x in (sum(row), *row)), "big")
                             for row in rows]
    assert keys.dtype == (np.int64 if width * (u.shape[1] + 1) <= 7 else object)
    assert _unpack(keys, u.shape[1], width).tolist() == rows


def test_a_product_in_ten_thousand_variables_equals_the_convolution():
    """Keys of 10,001 slots pack, multiply, unpack and print."""
    n = 10_000
    p = SparsePoly(n, {(0,) * n: 1, (1,) + (0,) * (n - 1): 2, (0,) * (n - 1) + (3,): -1})
    q = SparsePoly(n, {(0,) * n: 1, (0,) * (n - 1) + (1,): 1})
    pq = p * q
    assert pq.terms == convolve(p, q)
    names = [f"y{i}" for i in range(1, n + 1)]
    assert pq.format(names) == pretty(pq.sorted_terms(), names)


@pytest.mark.parametrize("short,long,coeff_dtype", [
    # sum |c1| * max |c2| = 2**63 - 1 and 2**63 with one term on the short side
    ({(0,): 7}, {(0,): (2 ** 63 - 1) // 7, (1,): -1}, np.int64),
    ({(0,): -2}, {(0,): 2 ** 62, (1,): 1}, object),
    # the same bounds reached by a sum of two term products
    ({(0,): 1, (1,): -1}, {(0,): 2 ** 62 - 1, (1,): 1 - 2 ** 62, (2,): 5}, np.int64),
    ({(0,): 1, (1,): -1}, {(0,): 2 ** 62, (1,): -2 ** 62, (2,): 5}, object)])
def test_product_at_coefficient_dtype_edges(short, long, coeff_dtype):
    """Coefficients stay int64 while sum |c1| * max |c2| < 2**63, c1 on the
    shorter operand: that bounds every sum of term products."""
    p, q = SparsePoly(1, short), SparsePoly(1, long)
    for product in (p * q, q * p):
        assert product._packed[4].dtype == coeff_dtype
        assert product.terms == convolve(p, q)
        # the text reads coefficients of either dtype, small ones held as
        # objects included
        assert product.format(["y"]) == pretty(product.sorted_terms(), ["y"])
    assert max(map(abs, convolve(p, q).values())) >= 2 ** 63 - 2


def test_format_of_small_coefficients_held_as_objects():
    """The bound 2 * 2**62 puts the product's coefficients in Python ints,
    and the middle term cancels: what is left fits an int64 again."""
    p = SparsePoly(1, {(0,): 1, (1,): 1}) * SparsePoly(1, {(0,): 2 ** 62, (1,): -2 ** 62})
    assert p._packed[4].dtype == object
    assert p.terms == {(0,): 2 ** 62, (2,): -2 ** 62}
    assert p.format(["y"]) == "4611686018427387904 - 4611686018427387904*y^2"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(polys(2))
def test_terms_leave_as_python_ints(pair):
    """Every exponent and coefficient read out of a polynomial, a product and
    a monomial image is an int, not a numpy scalar: JSON and hashing read them."""
    p, q = pair
    image = p.monomial_image([(1,) * p.nvars] * p.nvars, (0,) * p.nvars)
    for poly in (p, p * q, image):
        names = [f"y{i}" for i in range(poly.nvars)]
        for terms in (list(poly.terms.items()), poly.sorted_terms()):
            assert all(type(e) is tuple and type(c) is int and all(type(x) is int for x in e)
                       for e, c in terms)
        assert poly.render(names)[0] == json.dumps(poly.sorted_terms(), separators=(",", ":"))


def laurent(nvars):
    """Laurent polynomials in nvars variables, the zero polynomial included,
    with negative coefficients and coefficients past 2**64."""
    exps = st.tuples(*[st.one_of(st.integers(-3, 3), st.integers(-300, 300),
                                 st.sampled_from([-2 ** 33, 2 ** 33]))] * nvars)
    return st.dictionaries(exps, COEFFICIENTS, max_size=12).map(
        lambda terms: SparsePoly(nvars, terms))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([0, 1, 3, 6]).flatmap(lambda n: st.tuples(laurent(n), laurent(n))))
def test_format_equals_the_term_by_term_text(pair):
    p, q = pair
    names = [f"y{i}" for i in range(1, p.nvars + 1)]
    assert p.format(names) == pretty(p.sorted_terms(), names)
    # a product, whose keys the constructor never packed
    pq = p * q
    assert pq.render(names) == (json.dumps(pq.sorted_terms(), separators=(",", ":")),
                                pretty(pq.sorted_terms(), names))


# negative exponents and exponents past 2**32 and 2**64, in every slot width
WIDE_EXPONENTS = st.one_of(st.integers(-3, 3), st.integers(-300, 300),
                           st.sampled_from([-2 ** 33, 2 ** 33, 2 ** 63, 2 ** 64]),
                           st.integers(-2 ** 70, 2 ** 70))


def wide(nvars):
    """Polynomials in nvars variables, the zero polynomial included."""
    exps = st.tuples(*[WIDE_EXPONENTS] * nvars)
    return st.dictionaries(exps, COEFFICIENTS, max_size=8).map(
        lambda terms: SparsePoly(nvars, terms))


def _json_of_sorted_terms(poly):
    """render's JSON equals json.dumps of sorted_terms in both separator
    forms; a space after each comma gives the default one."""
    terms = poly.render([f"y{i}" for i in range(poly.nvars)])[0]
    assert terms == json.dumps(poly.sorted_terms(), separators=(",", ":"))
    assert terms.replace(",", ", ") == json.dumps(poly.sorted_terms())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([0, 1, 2, 3, 4]).flatmap(lambda n: st.tuples(wide(n), wide(n))),
       st.data())
def test_render_writes_the_json_of_the_sorted_terms(pair, data):
    """Polynomials as built, products summed in blocks of one row of the
    shorter operand (cancellations included), and monomial images, the
    cluster-character route, into 0 to 4 variables."""
    p, q = pair
    with mock.patch("quivergrass.poly._BLOCK", 1):
        products = (p * q, q * p)
    nout = data.draw(st.integers(0, 4))
    image = p.monomial_image(
        data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * nout),
                           min_size=p.nvars, max_size=p.nvars)),
        data.draw(st.tuples(*[WIDE_EXPONENTS] * nout)))
    for poly in (p, q, p - p, *products, image):
        _json_of_sorted_terms(poly)


@pytest.mark.parametrize("block", [1, 5, 17])
def test_product_in_blocks_equals_the_convolution(monkeypatch, block):
    """A product too long for one outer array is summed a block of rows of
    the shorter operand at a time: the same terms, cancellations across
    blocks and wide keys and coefficients included."""
    monkeypatch.setattr("quivergrass.poly._BLOCK", block)
    rng = np.random.default_rng(block)
    for nvars, coeff in ((2, 1), (7, 1), (3, 2 ** 70)):
        p = SparsePoly(nvars, {tuple(e): c * coeff for e, c in zip(
            rng.integers(-2, 4, (11, nvars)).tolist(), rng.integers(-3, 4, 11).tolist())})
        q = SparsePoly(nvars, {tuple(e): c for e, c in zip(
            rng.integers(0, 5, (8, nvars)).tolist(), rng.integers(-3, 4, 8).tolist())})
        for product in (p * q, q * p):
            assert product.terms == convolve(p, q)
            assert product.sorted_terms() == _grlex(convolve(p, q))
    # (1 - y)(1 + y + ... + y^9) = 1 - y^10: every middle term cancels
    # between blocks
    geometric = SparsePoly(1, {(k,): 1 for k in range(10)})
    assert (SparsePoly(1, {(0,): 1, (1,): -1}) * geometric).terms == {(0,): 1, (10,): -1}
