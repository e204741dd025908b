"""The benchmark workloads: their queries, fixtures and expected answers.

A query is one ``quivergrass.cli.run`` argument list (``--format machine`` is
appended when it runs) together with a check of its exit code and output.
``build(name, seed, workdir)`` writes the representation files a workload
needs into ``workdir`` and returns its queries in a seeded order.  The seed
also draws the random type-A modules; fixed fixtures never depend on it.

``known_defects(name, workdir)`` returns reproductions of open bugs.  They
are run after the measured passes, untimed, and reported apart from the
workload's own answers, so a fix shows up without moving the timings.
"""

import functools
import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle
from quivergrass import ardynkin
from quivergrass import typea as ta
from quivergrass.quiver import Quiver

NAMES = ("elliptic", "flags", "exact")
# The reference loop each workload is timed against (see worker.py): elliptic
# spends most of its time in numpy, the others in the interpreter.
REFERENCE_LOOP = {"elliptic": "numpy", "flags": "python", "exact": "python"}
GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


@dataclass
class Query:
    argv: list
    check: Callable  # (exit code, output text) -> None when correct, else a reason


def _machine(check_outputs):
    def check(code, text):
        if code != 0:
            return f"exit {code}: {text.strip()[:200]}"
        return check_outputs(json.loads(text)["outputs"])
    return check


def _expect(key, expected):
    def check_outputs(out):
        got = out.get(key)
        return None if got == expected else f"{key} = {got!r}, expected {expected!r}"
    return _machine(check_outputs)


def _expect_exit(code_wanted, fragment):
    def check(code, text):
        if code == code_wanted and fragment in text:
            return None
        return f"exit {code}: {text.strip()[:200]}, expected exit {code_wanted}"
    return check


def _intervals(dec):
    return " + ".join(f"U[{i},{j}]" + (f"^{m}" if m > 1 else "")
                      for (i, j), m in sorted(dec.m.items())) or "0"


def _csv(values):
    return ",".join(str(x) for x in values)


def _write(workdir, name, doc):
    path = os.path.join(workdir, name + ".rep")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _typea_file(workdir, name, dec, field):
    n = dec.n
    return _write(workdir, name, {"vertices": n, "field": field,
                                  "arrows": [[v, v + 1] for v in range(1, n)],
                                  "intervals": _intervals(dec)})


def _quiver_file(workdir, name, quiver):
    return _write(workdir, name, {"vertices": quiver.vertex_count, "field": "Q",
                                  "arrows": [list(a) for a in quiver.arrows],
                                  "dims": [0] * quiver.vertex_count, "matrices": {}})


def _star_file(workdir, dims, p):
    """One source (vertex 1) with an arrow to every other vertex, zero maps."""
    arrows = [[1, t] for t in range(2, len(dims) + 1)]
    return _write(workdir, f"star_{_csv(dims).replace(',', '_')}_p{p}",
                  {"vertices": len(dims), "arrows": arrows, "field": f"Fp:{p}",
                   "dims": list(dims), "matrices": {}})


@functools.lru_cache(maxsize=None)
def _f_poly(n, intervals):
    return oracle.f_polynomial(n, dict(intervals))


def f_polynomial(dec):
    return _f_poly(dec.n, tuple(sorted(dec.m.items())))


def _count_query(dec, e, p):
    argv = ["count", "--intervals", _intervals(dec), "--n", str(dec.n),
            "--e", _csv(e), "--p", str(p)]
    return Query(argv, _expect("count", ta.poincare_polynomial(dec, e).evaluate(p)))


def _poly_query(dec, e):
    coefficients = list(ta.poincare_polynomial(dec, e).coefficients)

    def check_outputs(out):
        cp = out["counting_polynomial"]
        if cp["consistency"] != "verified" or cp["coefficients"] != coefficients:
            return f"counting polynomial {cp}, expected {coefficients} verified"
        return None
    return Query(["poly", "--intervals", _intervals(dec), "--n", str(dec.n),
                  "--e", _csv(e)], _machine(check_outputs))


def _fpoly_query(dec, strategy):
    expected = f_polynomial(dec)

    def check_outputs(out):
        got = {tuple(exp): c for exp, c in out["f_polynomial"]}
        if got != expected:
            return f"F-polynomial differs in {len(set(got.items()) ^ set(expected.items()))} terms"
        return None
    return Query(["fpoly", "--strategy", strategy, "--intervals", _intervals(dec),
                  "--n", str(dec.n)], _machine(check_outputs))


# -- elliptic ---------------------------------------------------------------

ELLIPTIC_PRIMES = (2, 3, 5)
# (dims, e, p), one source and zero maps.  With demo-elliptic at p = 2, 3, 5
# the seven queries put the median on the GF(5) star, well apart from its
# neighbours (demo-elliptic at p = 3 below, the GF(3) star (8,2) above).
STARS = (
    ((6, 3, 3), (3, 1, 2), 3),
    ((6, 2, 2), (2, 1, 1), 5),
    ((8, 2), (2, 1), 3),
    ((7, 2), (3, 1), 3),
)


def _star_query(workdir, dims, e, p):
    path = _star_file(workdir, dims, p)
    return Query(["count", "--rep", path, "--e", _csv(e)],
                 _expect("count", oracle.star_count(dims, e, p)))


def _elliptic(rng, workdir):
    queries = []
    for p in ELLIPTIC_PRIMES:
        points = oracle.cubic_points(p)

        def check_outputs(out, points=points):
            if out["difference"] == 0 and out["grassmannian_points"] == points:
                return None
            return f"{out}, expected {points} points on both sides"
        queries.append(Query(["demo-elliptic", "--p", str(p)], _machine(check_outputs)))
    queries += [_star_query(workdir, dims, e, p) for dims, e, p in STARS]
    return queries


# -- flags ------------------------------------------------------------------

FLAG_FAMILIES = (ta.flag_dec, ta.degenerate_flag_dec, ta.most_flat_dec)
FLAG_COUNT_E, FLAG_COUNT_PRIMES = (1, 2, 3), (3, 5)
FLAG_POLY_E = ((0, 1, 2), (0, 1, 1))
RANDOM_COUNTS = 4
RANDOM_COUNT_P = 3
RANDOM_COUNT_WORK = (300, 600)  # tuples enumerated at the non-sink vertices
BUDGET_REFUSAL = (ta.flag_dec, (1, 2, 2), 1_000_000)
# With these two the 19 queries put the median on the middle poly at e = (0,1,1),
# well apart from its neighbours.
FPOLY_COUNT_FAMILIES = (ta.flag_dec, ta.most_flat_dec)


def _random_count(rng):
    """A random module on A_3 and an e whose enumeration size is bounded."""
    lo, hi = RANDOM_COUNT_WORK
    while True:
        dec = ta.random_decomposition(3, rng, max_mult=2)
        d = dec.dim_vector()
        e = tuple(rng.randint(0, x) for x in d)
        work = oracle.star_count(d[:2], e[:2], RANDOM_COUNT_P)
        if lo <= work <= hi and ta.poincare_polynomial(dec, e).evaluate(RANDOM_COUNT_P):
            return _count_query(dec, e, RANDOM_COUNT_P)


def _flags(rng, workdir):
    queries = []
    for family in FLAG_FAMILIES:
        dec = family(3)
        queries += [_count_query(dec, FLAG_COUNT_E, p) for p in FLAG_COUNT_PRIMES]
        queries += [_poly_query(dec, e) for e in FLAG_POLY_E]
    queries += [_fpoly_query(family(2), "count") for family in FPOLY_COUNT_FAMILIES]
    queries += [_random_count(rng) for _ in range(RANDOM_COUNTS)]
    family, e, budget = BUDGET_REFUSAL
    queries.append(Query(["poly", "--intervals", _intervals(family(3)), "--n", "3",
                          "--e", _csv(e), "--budget", str(budget)],
                         _expect_exit(3, "exceeds budget")))
    return queries


# -- exact ------------------------------------------------------------------

EXACT_FAMILIES = (("flag", ta.flag_dec), ("path", ta.path_algebra_dec),
                  ("injective", ta.injective_cogenerator_dec),
                  ("degenerate_flag", ta.degenerate_flag_dec),
                  ("most_flat", ta.most_flat_dec))
EXACT_N = range(2, 7)
# cells, poincare and strata on most_flat_dec(6) take seconds to tens of
# seconds each, longer than a whole pass of the other queries
CELLS_SKIP = {("most_flat", 6)}
HOM_Q_MAX_N = 5     # Hom/Ext over Q for n up to this, over GF(7) for every n
HOM_Q_EXTRA = {("flag", 6)}  # the slow tail: Fraction elimination at n = 6
AR_LINEAR_N = range(2, 9)
AR_BRANCHED = (("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8),
               ("E", 6), ("E", 7), ("E", 8))
RANDOM_MODULES = 6
RANDOM_MODULE_N, RANDOM_MODULE_DIM = 4, (8, 12)


def cells_e(dec):
    """The sub-dimension vector used for cells, poincare and strata."""
    return tuple(x // 3 for x in dec.dim_vector())


def _branched_quiver(letter, rank):
    """D_n: two arms of length 1 and one of n-3 at vertex 3.
    E_n: arms of length 1, 2 and n-4 at vertex 1."""
    if letter == "D":
        arrows = [(1, 3), (2, 3)] + [(v, v + 1) for v in range(3, rank)]
    else:
        arrows = [(2, 1), (1, 3), (3, 4), (1, 5)] + [(v, v + 1) for v in range(5, rank)]
    return Quiver(rank, arrows)


def _ar_query(argv, quiver, letter, rank):
    coxeter = ardynkin.coxeter_matrix(quiver)
    count = oracle.positive_root_count(letter, rank)

    def check_outputs(out):
        vertices = [tuple(v) for v in out["vertices"]]
        if len(vertices) != count or len(set(vertices)) != count:
            return f"{len(vertices)} vertices, expected {count} positive roots"
        for k, v in out["tau"].items():
            if vertices[v] != oracle.apply_matrix(coxeter, vertices[int(k)]):
                return f"tau of {vertices[int(k)]} is {vertices[v]}, not the Coxeter image"
        return None
    return Query(argv, _machine(check_outputs))


def golden_key(argv):
    return " ".join(argv)


def digest(outputs):
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_query(argv, goldens, dec):
    """cells/poincare/strata: no independent route gives the whole answer, so
    the output must match a golden recorded from the seed; the number of
    fixed points is also checked against the F-polynomial coefficient."""
    want = goldens[golden_key(argv)]
    chi = f_polynomial(dec).get(cells_e(dec), 0)
    sub = argv[0]

    def check_outputs(out):
        points = {"cells": lambda: len(out["cells"]),
                  "poincare": lambda: sum(out["coefficients"]),
                  "strata": lambda: sum(s["cells"] for s in out["strata"])}[sub]()
        if points != chi:
            return f"{points} fixed points, expected chi = {chi}"
        if digest(out) != want:
            return "output differs from the golden"
        return None
    return Query(argv, _machine(check_outputs))


def golden_argvs():
    """The golden-checked queries of the exact workload (fixed fixtures)."""
    out = []
    for n in EXACT_N:
        for name, family in EXACT_FAMILIES:
            if (name, n) in CELLS_SKIP:
                continue
            dec = family(n)
            for sub in ("cells", "poincare", "strata"):
                out.append(([sub, "--intervals", _intervals(dec), "--n", str(n),
                             "--e", _csv(cells_e(dec))], dec))
    return out


def _closed_form_queries(dec):
    n = str(dec.n)
    mults = sorted([list(ij), m] for ij, m in dec.m.items())
    catenoid = oracle.is_catenoid(dec.m)
    return [
        Query(["decompose", "--intervals", _intervals(dec), "--n", n],
              _expect("multiplicities", mults)),
        Query(["gvector", "--intervals", _intervals(dec), "--n", n],
              _expect("g_vector", oracle.g_vector(dec.n, dec.m))),
        Query(["catenoid", "--intervals", _intervals(dec), "--n", n],
              _expect("catenoid", catenoid)),
        _fpoly_query(dec, "cells"),
    ]


def _hom_ext_queries(workdir, name_m, m, name_n, other, fields):
    queries = []
    hom, ext = ta.hom_dim_decs(m, other), ta.ext_dim_decs(m, other)
    for field in fields:
        tag = field.replace(":", "")
        first = _typea_file(workdir, f"{name_m}_{tag}", m, field)
        second = _typea_file(workdir, f"{name_n}_{tag}", other, field)
        queries.append(Query(["hom", "--rep", first, "--rep2", second],
                             _expect("hom_dim", hom)))
        queries.append(Query(["ext", "--rep", first, "--rep2", second],
                             _expect("ext1_dim", ext)))
    return queries


def _exact(rng, workdir):
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)["answers"]
    queries = []
    for argv, dec in golden_argvs():
        queries.append(_golden_query(argv, goldens, dec))
    for n in EXACT_N:
        for k, (name, family) in enumerate(EXACT_FAMILIES):
            dec = family(n)
            other_name, other = EXACT_FAMILIES[(k + 1) % len(EXACT_FAMILIES)]
            queries += _closed_form_queries(dec)
            fields = ["Fp:7"]
            if n <= HOM_Q_MAX_N or (name, n) in HOM_Q_EXTRA:
                fields.append("Q")
            queries += _hom_ext_queries(workdir, f"{name}{n}", dec,
                                        f"{other_name}{n}", other(n), fields)
    lo, hi = RANDOM_MODULE_DIM
    partner = ta.flag_dec(RANDOM_MODULE_N)
    for r in range(RANDOM_MODULES):
        while True:
            dec = ta.random_decomposition(RANDOM_MODULE_N, rng, max_mult=2)
            if lo <= dec.total_dim() <= hi:
                break
        queries += _closed_form_queries(dec)
        queries += _hom_ext_queries(workdir, f"random{r}", dec, "flag_partner",
                                    partner, ["Fp:7"])
    for n in AR_LINEAR_N:
        queries.append(_ar_query(["ar-quiver", "--n", str(n)],
                                 Quiver(n, [(v, v + 1) for v in range(1, n)]), "A", n))
    for letter, rank in AR_BRANCHED:
        quiver = _branched_quiver(letter, rank)
        path = _quiver_file(workdir, f"{letter}{rank}", quiver)
        queries.append(_ar_query(["ar-quiver", "--rep", path], quiver, letter, rank))
    return queries


_BUILDERS = {"elliptic": _elliptic, "flags": _flags, "exact": _exact}


def build(name, seed, workdir):
    """The workload's queries, in the order given by the seed."""
    rng = random.Random(f"{name}:{seed}")
    queries = _BUILDERS[name](rng, workdir)
    rng.shuffle(queries)
    return queries


def known_defects(name, workdir):
    """Open bugs, reproduced on the layers the workload exercises.

    elliptic: int64 overflow in the summed sink factors of the single-vertex
    counting path.  flags: the int64 Gaussian-binomial table of that path
    raises OverflowError through the CLI while interpolating a polynomial.
    """
    if name == "elliptic":
        return [_star_query(workdir, (1, 6, 6), (1, 3, 3), 31)]
    if name == "flags":
        return [_poly_query(ta.IntervalDecomposition(2, {(1, 2): 1, (2, 2): 7}), (1, 4))]
    return []
