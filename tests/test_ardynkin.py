"""Dynkin classification, AR-quiver knitting, Coxeter transform."""

import random
from collections import Counter

import numpy as np
import pytest

from quivergrass import (QQ, DomainError, Quiver, euler_form, kronecker_quiver, linear_quiver,
                         projective)
from quivergrass.ardynkin import (classify, coxeter_matrix, knit,
                                  positive_root_count, tau_dim)
from quivergrass.typea import IntervalDecomposition, translate

from oracles import coxeter_by_inverse, interval_dims, meshes

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
    s1, s2 = ar.vertices.index((1, 0)), ar.vertices.index((0, 1))
    assert ar.tau == {s1: s2}  # tau(S1) = S2


def test_mesh_additivity():
    for quiver in (linear_quiver(4), D4, D5, linear_quiver(6)):
        ar = knit(quiver)
        n = quiver.vertex_count
        for start, middles, end in meshes(ar):
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


def _branched(letter, rank):
    """D_n: arms of length 1, 1 and n-3 at vertex 3.  E_n: arms of length 1,
    2 and n-4 at vertex 1, with the arrows pointing both ways."""
    if letter == "D":
        arrows = [(1, 3), (2, 3)] + [(v, v + 1) for v in range(3, rank)]
    else:
        arrows = [(2, 1), (1, 3), (3, 4), (1, 5)] + [(v, v + 1) for v in range(5, rank)]
    return Quiver(rank, arrows)


# parallel arrows 1 => 2, a branch at 2 and two paths 2 -> 5
MIXED = Quiver(5, [(1, 2), (1, 2), (2, 3), (2, 4), (1, 4), (4, 5), (3, 5)])

EULER_QUIVERS = ([linear_quiver(n) for n in range(1, 9)]
                 + [_branched("D", n) for n in range(4, 9)]
                 + [_branched("E", n) for n in (6, 7, 8)]
                 + [kronecker_quiver(3), MIXED, Quiver(3, [(3, 1), (3, 2), (2, 1)]),
                    Quiver(12, [(v, v + 1) for v in range(1, 12) for _ in range(2)])])
EULER_IDS = ([f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)]
             + ["E6", "E7", "E8", "K3", "mixed", "relabelled", "doubled-chain"])


@pytest.mark.parametrize("quiver", EULER_QUIVERS, ids=EULER_IDS)
def test_coxeter_matrix_equals_the_inverse_of_the_euler_matrix(quiver):
    assert coxeter_matrix(quiver) == coxeter_by_inverse(quiver)


@pytest.mark.parametrize("quiver", EULER_QUIVERS, ids=EULER_IDS)
def test_projective_dims_are_dual_to_the_simples(quiver):
    n = quiver.vertex_count
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    proj = quiver.projective_dims()
    inj = quiver.opposite().projective_dims()
    if n <= 5:
        assert proj == tuple(projective(quiver, QQ, k).dims for k in range(1, n + 1))
    for i in range(n):
        for j in range(n):
            assert euler_form(quiver, proj[i], units[j]) == int(i == j)
            assert euler_form(quiver, units[i], inj[j]) == int(i == j)


def test_projective_dims_count_paths_without_listing_them():
    doubled = Quiver(40, [(v, v + 1) for v in range(1, 40) for _ in range(2)])
    proj = doubled.projective_dims()
    assert proj[0][39] == 2 ** 39
    assert proj[39] == (0,) * 39 + (1,)
    # -<e_j, dim P_1> = -(2^j - 2 * 2^(j+1)) below the sink
    assert coxeter_matrix(doubled)[0] == tuple(3 * 2 ** j for j in range(39)) + (-2 ** 39,)


@pytest.mark.parametrize("rank, roots", [(6, 36), (7, 63), (8, 120)])
def test_knit_e_types(rank, roots):
    quiver = _branched("E", rank)
    cls = classify(quiver)
    assert (cls.letter, cls.rank) == ("E", rank)
    assert positive_root_count("E", rank) == roots
    ar = knit(quiver)
    assert len(ar.vertices) == len(set(ar.vertices)) == roots
    c = coxeter_matrix(quiver)
    for target, source in ar.tau.items():
        dim = ar.vertices[target]
        assert tuple(sum(c[i][j] * dim[j] for j in range(rank)) for i in range(rank)) \
            == ar.vertices[source] == tau_dim(quiver, dim)


def test_classify_affine_and_wild_beyond_one_branch():
    # two branch vertices with two legs of length 1 each: extended D_5
    assert classify(Quiver(6, [(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)])).kind == "affine"
    # ... and with a longer leg at one end
    assert classify(Quiver(7, [(1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (6, 7)])).kind == "wild"
    # a cycle with a tail, a five-leaf star, and legs (2, 2, 3)
    assert classify(Quiver(4, [(1, 2), (2, 3), (1, 3), (3, 4)])).kind == "wild"
    assert classify(Quiver(6, [(v, 6) for v in range(1, 6)])).kind == "wild"
    assert classify(Quiver(8, [(1, 2), (2, 8), (3, 4), (4, 8), (5, 6), (6, 7),
                               (7, 8)])).kind == "wild"


def _dynkin_edges(letter, rank):
    """The path 1 - 2 - ... for A_n; for D_n and E_n the path on 1..n-1 with
    the leaf n hung off vertex 2 (legs 1, 1, n-3) or vertex 3 (legs 2, 1, n-4)."""
    if letter == "A":
        return [(v, v + 1) for v in range(1, rank)]
    return [(v, v + 1) for v in range(1, rank - 1)] + [(2 if letter == "D" else 3, rank)]


def _random_orientation(rng, letter, rank):
    """The Dynkin graph under a random labelling, each edge oriented at random."""
    label = rng.sample(range(1, rank + 1), rank)
    arrows = []
    for a, b in _dynkin_edges(letter, rank):
        s, t = label[a - 1], label[b - 1]
        arrows.append((s, t) if rng.random() < 0.5 else (t, s))
    rng.shuffle(arrows)
    return Quiver(rank, arrows)


DYNKIN = ([("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
          + [("E", n) for n in (6, 7, 8)])
DYNKIN_IDS = [f"{letter}{rank}" for letter, rank in DYNKIN]


@pytest.mark.parametrize("letter, rank", DYNKIN, ids=DYNKIN_IDS)
def test_classify_names_every_orientation_and_labelling(letter, rank):
    rng = random.Random(100 * rank + ord(letter))
    for _ in range(40):
        assert classify(_random_orientation(rng, letter, rank)).name == f"{letter}{rank}"


@pytest.mark.parametrize("letter, rank", DYNKIN, ids=DYNKIN_IDS)
def test_knit_every_orientation_and_labelling(letter, rank):
    rng = random.Random(100 * rank + ord(letter) + 1)
    for _ in range(40):
        quiver = _random_orientation(rng, letter, rank)
        ar = knit(quiver)
        assert len(ar.vertices) == positive_root_count(letter, rank)
        # every vertex is a positive root: q(x) = <x, x> = 1 (Gabriel)
        assert all(euler_form(quiver, x, x) == 1 for x in ar.vertices)
        c = coxeter_matrix(quiver)
        for target, source in ar.tau.items():
            dim = ar.vertices[target]
            assert tuple(sum(c[i][j] * dim[j] for j in range(rank)) for i in range(rank)) \
                == ar.vertices[source] == tau_dim(quiver, dim)


def _random_connected_quiver(rng):
    """A random spanning tree on n <= 10 vertices plus up to two extra edges
    (parallel ones allowed), each oriented along the order of construction
    and relabelled at random."""
    n = rng.randint(1, 10)
    edges = [(rng.randrange(k), k) for k in range(1, n)]
    if n > 1:
        edges += [tuple(sorted(rng.sample(range(n), 2)))
                  for _ in range(rng.choice((0, 0, 1, 2)))]
    label = rng.sample(range(1, n + 1), n)
    return Quiver(n, [(label[i], label[j]) for i, j in edges])


def test_classify_agrees_with_the_spectral_radius():
    """2I - A is positive definite iff the largest eigenvalue of the
    adjacency matrix A is below 2, and positive semidefinite iff it is at
    most 2: an oracle for Gabriel's criterion that shares no code with
    ``classify``."""
    rng = random.Random(1972)
    kinds = Counter()
    for _ in range(2000):
        quiver = _random_connected_quiver(rng)
        n = quiver.vertex_count
        adjacency = np.zeros((n, n))
        for s, t in quiver.arrows:
            adjacency[s - 1, t - 1] += 1
            adjacency[t - 1, s - 1] += 1
        lam = np.linalg.eigvalsh(adjacency)[-1]
        want = "dynkin" if lam < 2 - 1e-9 else "affine" if abs(lam - 2) <= 1e-9 else "wild"
        assert classify(quiver).kind == want, (quiver, lam)
        kinds[want] += 1
    assert min(kinds[k] for k in ("dynkin", "affine", "wild")) >= 50, kinds
