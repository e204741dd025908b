"""The quiver's arrow index and the integer rule at the package's entry points.

``Quiver`` indexes its arrows once, at construction; every reader of a
vertex's arrows, neighbours or degree reads that index.  The index is
checked against ``oracles.incidence_by_scan``, which scans the arrow list
for every question.  ``linear_quiver`` shares one instance per n, so a
type-A query builds at most one quiver.  Integers are taken by one rule
(``errors.integer``): a float, a Fraction or a string is refused with
DomainError, never truncated and never let through to a TypeError.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivergrass import QQ, DomainError, PrimeField, Quiver, euler_form, linear_quiver
from quivergrass import quiver as qv
from quivergrass.cli import run
from quivergrass.counting import SubspaceIter, batched_rank_mod_p, counting_polynomial
from quivergrass.poly import SparsePoly
from quivergrass.typea import IntervalDecomposition, flag_dec, format_intervals, most_flat_dec

from oracles import incidence_by_scan

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def acyclic_quivers(draw):
    """Up to 8 vertices, labelled in a random order; arrows go forward in a
    hidden order, so the quiver is acyclic.  Parallel arrows and isolated
    vertices are common."""
    n = draw(st.integers(0, 8))
    label = [0] + draw(st.permutations(range(1, n + 1)))
    forward = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    arrows = draw(st.lists(st.sampled_from(forward), max_size=12)) if forward else []
    if arrows:
        arrows += draw(st.lists(st.sampled_from(arrows), max_size=4))
    arrows = draw(st.permutations(arrows))
    return Quiver(n, [(label[a], label[b]) for a, b in arrows])


@_SETTINGS
@given(acyclic_quivers())
def test_arrow_index_equals_scanning_the_arrows(q):
    want = incidence_by_scan(q)
    for v in range(1, q.vertex_count + 1):
        assert list(q.arrows_from(v)) == want["arrows_from"][v]
        assert list(q.arrows_into(v)) == want["arrows_into"][v]
        assert q.neighbours(v) == want["neighbours"][v]
    assert q.sources() == want["sources"] and q.sinks() == want["sinks"]
    assert q.is_connected() == want["is_connected"]
    assert q.topological_order == want["topological_order"]


def test_linear_quiver_is_shared():
    assert linear_quiver(5) is linear_quiver(5)
    dec = IntervalDecomposition(5, {(1, 3): 2, (2, 5): 1})
    assert dec.quiver is linear_quiver(5)
    assert dec.dims == dec.dim_vector() == (2, 3, 3, 1, 1) and dec.total_dim() == 10
    assert dec.to_representation(QQ).quiver is dec.quiver


MOST_FLAT_6 = ["--intervals", format_intervals(most_flat_dec(6)), "--n", "6"]


@pytest.mark.parametrize("argv", [
    ["gvector", *MOST_FLAT_6],
    ["poincare", *MOST_FLAT_6, "--e", "2,2,2,2,2,2"],
    ["fpoly", *MOST_FLAT_6],
], ids=["gvector", "poincare", "fpoly"])
def test_a_type_a_query_builds_at_most_one_quiver(monkeypatch, argv):
    built = []
    init = Quiver.__init__

    def counted(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(Quiver, "__init__", counted)
    qv.linear_quiver.cache_clear()
    code, _ = run(argv)
    assert code == 0 and len(built) <= 1


# Each case refused at an entry point that once truncated it, let it through
# to a TypeError, IndexError or plain ValueError deeper down, or answered for
# it (a composite modulus, a float prime).
REFUSED = {
    "quiver-float-endpoint": lambda: Quiver(2, [(1.9, 2)]),
    "prime-field-7.0": lambda: PrimeField(7.0),
    "prime-field-fraction-7": lambda: PrimeField(Fraction(7)),
    "prime-field-7.5": lambda: PrimeField(7.5),
    "prime-field-string": lambda: PrimeField("7"),
    "counting-polynomial-float-primes": lambda: counting_polynomial(
        flag_dec(1).to_representation(QQ), (1,), primes=[2.0, 3.0, 5.0]),
    "subspaces-mod-4": lambda: SubspaceIter(2, 1, 4),
    "subspaces-float-d": lambda: SubspaceIter(2.0, 1, 2),
    "rank-mod-4": lambda: batched_rank_mod_p([[[2, 0], [0, 2]]], 4),
    "rank-mod-1": lambda: batched_rank_mod_p([[[2, 0], [0, 2]]], 1),
    # past the bound of the exact primality test: one prime, one composite
    "rank-mod-2**89-1": lambda: batched_rank_mod_p([[[3, 0], [0, 1]]], 2 ** 89 - 1),
    "rank-mod-big-composite": lambda: batched_rank_mod_p(
        [[[3, 0], [0, 1]]], 3 * 1108516537283398712345679),
    "quiver-arrow-of-one-end": lambda: Quiver(2, [(1,)]),
    "quiver-arrow-of-three-ends": lambda: Quiver(2, [(1, 2, 3)]),
    "quiver-arrow-int": lambda: Quiver(2, [5]),
    "quiver-arrow-none": lambda: Quiver(2, [None]),
    "interval-float-end": lambda: IntervalDecomposition(2, {(1.5, 2): 1}),
    "interval-one-end": lambda: IntervalDecomposition(2, {(1,): 1}),
    "poly-too-few-names": lambda: SparsePoly(2, {(1, 1): 1}).format(["a"]),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED.keys())
def test_refused_with_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_integers_of_other_types_are_still_taken():
    assert PrimeField(np.int64(7)) == PrimeField(7)
    assert Quiver(np.int64(2), [(np.int64(1), 2)]) == linear_quiver(2)
    assert list(batched_rank_mod_p([[[2, 0], [0, 2]]], np.int64(5))) == [2]


NOT_INTEGERS = st.one_of(
    st.sampled_from([2.0, 7.0, 1.9, Fraction(7), Fraction(3, 2), "2", "7", ""]),
    st.floats(), st.fractions(), st.text(max_size=3))

# Every place an integer enters, with the value put there.
ENTRY_POINTS = {
    "Quiver vertex count": lambda x: Quiver(x, []),
    "Quiver source": lambda x: Quiver(2, [(x, 2)]),
    "Quiver target": lambda x: Quiver(2, [(1, x)]),
    "PrimeField": PrimeField,
    "SubspaceIter d": lambda x: SubspaceIter(x, 1, 2),
    "SubspaceIter e": lambda x: SubspaceIter(2, x, 2),
    "SubspaceIter p": lambda x: SubspaceIter(2, 1, x),
    "batched_rank_mod_p p": lambda x: batched_rank_mod_p([[[1, 0]]], x),
    "IntervalDecomposition n": lambda x: IntervalDecomposition(x, {}),
    "IntervalDecomposition i": lambda x: IntervalDecomposition(2, {(x, 2): 1}),
    "IntervalDecomposition j": lambda x: IntervalDecomposition(2, {(1, x): 1}),
    "IntervalDecomposition multiplicity": lambda x: IntervalDecomposition(2, {(1, 2): x}),
    "SparsePoly nvars": SparsePoly,
    "SparsePoly exponent": lambda x: SparsePoly(1, {(x,): 1}),
    "SparsePoly coefficient": lambda x: SparsePoly(1, {(1,): x}),
    "euler_form e": lambda x: euler_form(linear_quiver(2), (x, 0), (1, 1)),
    "euler_form d": lambda x: euler_form(linear_quiver(2), (1, 0), (1, x)),
}


@_SETTINGS
@given(st.sampled_from(sorted(ENTRY_POINTS)), NOT_INTEGERS)
def test_a_non_integer_is_refused_where_it_enters(entry, x):
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](x)
