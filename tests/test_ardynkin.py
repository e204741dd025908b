"""Dynkin classification, AR-quiver knitting, Coxeter transform."""

import pytest

from quivergrass import DomainError, Quiver, kronecker_quiver, linear_quiver
from quivergrass.ardynkin import (classify, coxeter_matrix, knit,
                                  positive_root_count, tau_dim)
from quivergrass.typea import IntervalDecomposition, interval_dims, translate

D4 = Quiver(4, [(1, 4), (2, 4), (3, 4)])
D5 = Quiver(5, [(1, 3), (2, 3), (3, 4), (4, 5)])


def test_classify():
    assert classify(linear_quiver(4)).name == "A4"
    assert classify(D4).name == "D4"
    assert classify(kronecker_quiver(2)).kind == "affine"
    assert classify(kronecker_quiver(3)).kind == "wild"
    assert classify(Quiver(6, [(1, 2), (2, 3), (3, 4), (4, 5), (6, 3)])).name == "E6"
    assert classify(Quiver(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (7, 3)])).name == "E7"
    assert classify(Quiver(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                               (8, 3)])).name == "E8"
    # extended diagrams are affine
    assert classify(Quiver(5, [(1, 5), (2, 5), (3, 5), (4, 5)])).kind == "affine"
    assert classify(Quiver(3, [(1, 2), (2, 3), (1, 3)])).kind == "affine"
    assert classify(Quiver(7, [(1, 2), (2, 7), (3, 4), (4, 7), (5, 6),
                               (6, 7)])).kind == "affine"  # three legs of length 2
    # a genuinely wild tree
    assert classify(Quiver(7, [(1, 4), (2, 4), (3, 4), (4, 5), (5, 6),
                               (5, 7)])).kind == "wild"
    with pytest.raises(DomainError):
        classify(Quiver(2, []))  # disconnected


def test_knit_vertex_counts():
    for quiver, want in [(linear_quiver(4), 10), (D4, 12),
                         (linear_quiver(5), 15), (D5, 20),
                         (linear_quiver(2), 3), (linear_quiver(6), 21)]:
        ar = knit(quiver)
        assert len(ar.vertices) == want
        assert len(set(ar.vertices)) == want


def test_knit_rejects_non_dynkin():
    with pytest.raises(DomainError):
        knit(kronecker_quiver(2))


def test_knit_a2_structure():
    ar = knit(linear_quiver(2))
    assert set(ar.vertices) == {(1, 1), (0, 1), (1, 0)}
    s1, s2 = ar.index_of((1, 0)), ar.index_of((0, 1))
    assert ar.tau == {s1: s2}  # tau(S1) = S2


def test_mesh_additivity():
    for quiver in (linear_quiver(4), D4, D5, linear_quiver(6)):
        ar = knit(quiver)
        n = quiver.vertex_count
        for start, middles, end in ar.meshes():
            mid_sum = tuple(sum(ar.vertices[m][i] for m in middles) for i in range(n))
            both = tuple(ar.vertices[start][i] + ar.vertices[end][i] for i in range(n))
            assert both == mid_sum


def test_knit_tau_matches_interval_translate():
    for n in (2, 3, 4, 5):
        ar = knit(linear_quiver(n))

        def as_interval(dim):
            support = [v + 1 for v, x in enumerate(dim) if x]
            assert all(x <= 1 for x in dim)
            return (support[0], support[-1])

        for target, source in ar.tau.items():
            tau = translate(IntervalDecomposition(n, {as_interval(ar.vertices[target]): 1}), 1)
            assert tau.m
            assert tau.dim_vector() == ar.vertices[source]


def test_knit_positive_roots_dynkin_types():
    for quiver in [linear_quiver(3), D4, D5]:
        cls = classify(quiver)
        ar = knit(quiver)
        assert len(ar.vertices) == positive_root_count(cls.letter, cls.rank)


def test_coxeter_and_tau_dim():
    a3 = linear_quiver(3)
    assert tau_dim(a3, interval_dims(3, 1, 2)) == interval_dims(3, 2, 3)
    with pytest.raises(DomainError):
        tau_dim(a3, interval_dims(3, 2, 3))  # projective P_2
    c = coxeter_matrix(a3)
    # Coxeter transform of a projective dimension vector has a negative entry
    for k in range(1, 4):
        dim = interval_dims(3, k, 3)
        image = tuple(sum(c[i][j] * dim[j] for j in range(3)) for i in range(3))
        assert any(x < 0 for x in image)


def test_coxeter_agrees_with_knitting():
    for quiver in (linear_quiver(4), D4):
        ar = knit(quiver)
        c = coxeter_matrix(quiver)
        n = quiver.vertex_count
        for target, source in ar.tau.items():
            dim = ar.vertices[target]
            want = ar.vertices[source]
            got = tuple(sum(c[i][j] * dim[j] for j in range(n)) for i in range(n))
            assert got == want
