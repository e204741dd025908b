"""Inputs that must end cleanly: each argv runs through ``main`` in a child
interpreter that caps its own address space at 2 GB and is killed after a
timeout, and must exit 0-3 with no traceback on stderr.

The rows are inputs that once escaped as a raw exception (recursion depth,
the interpreter's limit on int <-> str conversion), inputs that once
allocated until memory or time ran out (a rep file's omitted matrices built
densely, the n(n+1)/2 ranks of a long A_n, the exchange matrix of a long
A_n, the coefficient quiver of a summand of multiplicity 10^8, the quiver of
A_(10^8), the n x n form that classifies A_100000, and A_3000000 built
before that form was sized), inputs that once took quadratic time or memory
(the g-vector of a long A_n, and the F-polynomial of one, whose keys of
200,000 slots were once packed through a weight table of ~nvars^2/7
entries), the AR quiver of A_200, once knitted by rescanning every vertex
and arrow for each mesh, and that of A_300, whose roots x n entries are
over the ceiling, counts whose planner once tried every subset of one side of the
sources and sinks (the 30 + 30 ladder, refused at the default budget and
answered at 10^15, and the fan of 24 sources, answered) and inputs that have
always ended cleanly.
``{dir}`` in an argv is the directory of the fixture files.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quivergrass.fields import _MR_BOUND

SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from quivergrass.cli import main
sys.exit(main())
"""
TIMEOUT_S = 10


def _ladder(k):
    """The bipartite ladder s_i -> t_i, s_i -> t_(i+1) on k sources and k
    sinks, dims 2: every subset of one side is a plan."""
    arrows = sorted([[i, k + i] for i in range(1, k + 1)] + [[i, k + i + 1] for i in range(1, k)])
    return json.dumps({"vertices": 2 * k, "arrows": arrows, "field": "Q", "dims": [2] * (2 * k),
                       "matrices": {str(a): [[1, 0], [0, 1]] for a in range(len(arrows))}})


def _fan(k):
    """Sources s_1..s_k into one sink t_0, and paths s_1 -> u_j -> t_j for
    j = 0..k: dims 2 and e = 1 at the s_i and t_0, dims 1 and e = 0
    elsewhere, all matrices zero.  Its one cheapest plan sums every source,
    3 tuples, and #Gr_e = 3^(k+1)."""
    s, t, u = (lambda i: i), (lambda j: k + 1 + j), (lambda j: 2 * k + 2 + j)
    arrows = [[s(i), t(0)] for i in range(1, k + 1)]
    arrows += [pair for j in range(k + 1) for pair in ([s(1), u(j)], [u(j), t(j)])]
    dims = [2] * (k + 1) + [1] * (2 * k + 1)
    return json.dumps({"vertices": 3 * k + 2, "arrows": sorted(arrows), "field": "Q",
                       "dims": dims, "matrices": {}})


FILES = {
    "one.rep": json.dumps({"vertices": 1, "arrows": [], "field": "Q", "dims": [100],
                           "matrices": {}}),
    "long.rep": '{"vertices": 2, "arrows": [[1, 2]], "field": "Q", "dims": [1, 1], '
                '"matrices": {"0": [[' + "7" * 5000 + ']]}}',
    "zero.rep": json.dumps({"vertices": 2, "arrows": [[1, 2]], "field": "Q",
                            "dims": [1, 1], "matrices": {"0": [["1/0"]]}}),
    "cycle.rep": json.dumps({"vertices": 2, "arrows": [[1, 2], [2, 1]], "field": "Q",
                             "dims": [1, 1], "matrices": {"0": [[1]], "1": [[1]]}}),
    "kronecker.rep": json.dumps({"vertices": 2, "arrows": [[1, 2]] * 2, "field": "Q",
                                 "dims": [1, 1], "matrices": {}}),
    "kronecker3.rep": json.dumps({"vertices": 2, "arrows": [[1, 2]] * 3, "field": "Q",
                                  "dims": [1, 1], "matrices": {}}),
    "dims-1e30.rep": json.dumps({"vertices": 2, "arrows": [[1, 2]], "field": "Q",
                                 "dims": [1, 10 ** 30], "matrices": {}}),
    "dims-1e8.rep": json.dumps({"vertices": 2, "arrows": [[1, 2]], "field": "Q",
                                "dims": [1, 10 ** 8], "matrices": {}}),
    "ladder.rep": _ladder(30),
    "fan.rep": _fan(24),
}

LADDER = ["count", "--rep", "{dir}/ladder.rep", "--e", ",".join(["1"] * 60), "--p", "2"]
LONG_PATH = ["--intervals", "U[1,1500]", "--n", "1500"]
COUNT_U12 = ["count", "--intervals", "U[1,2]", "--n", "2", "--e", "0,1", "--p"]

# (argv, exit code)
ROWS = {
    "cells-1200-rows": (["cells", "--intervals", "U[1,1]^1200", "--n", "1", "--e", "1"], 0),
    "cells-100000000-rows": (["cells", "--intervals", "U[1,2]^100000000", "--n", "2",
                              "--e", "1,1"], 3),
    "count-1500-vertices-e0": (["count", *LONG_PATH, "--e", ",".join(["0"] * 1500),
                                "--p", "2"], 0),
    "count-1500-vertices-e1": (["count", *LONG_PATH, "--e", ",".join(["1"] * 1500),
                                "--p", "2"], 0),
    "poly-1500-vertices": (["poly", *LONG_PATH, "--e", ",".join(["0"] * 1500)], 0),
    "5000-digit-entry": (["decompose", "--rep", "{dir}/long.rep"], 2),
    "15000-digit-count-file": (["count", "--rep", "{dir}/one.rep", "--e", "50",
                                "--p", "1000003", "--format", "machine"], 0),
    "15000-digit-count-intervals": (["count", "--intervals", "U[1,1]^100", "--n", "1",
                                     "--e", "50", "--p", "1000003"], 0),
    "prime-above-mr-bound": ([*COUNT_U12, str(2 ** 89 - 1)], 2),
    "p-at-mr-bound": ([*COUNT_U12, str(_MR_BOUND)], 2),
    "1/0-entry": (["decompose", "--rep", "{dir}/zero.rep"], 2),
    "oriented-cycle": (["count", "--rep", "{dir}/cycle.rep", "--e", "1,1", "--p", "2"], 2),
    "ar-quiver-kronecker": (["ar-quiver", "--rep", "{dir}/kronecker.rep"], 2),
    "ar-quiver-3-kronecker": (["ar-quiver", "--rep", "{dir}/kronecker3.rep"], 2),
    "euler-omitted-matrix-1e30": (["euler", "--rep", "{dir}/dims-1e30.rep", "--e", "0,0"], 3),
    "gvector-omitted-matrix-1e8": (["gvector", "--rep", "{dir}/dims-1e8.rep"], 3),
    "decompose-100000000-vertices": (["decompose", "--intervals", "U[1,1]", "--n", "100000000"],
                                     3),
    "ar-quiver-100000-vertices": (["ar-quiver", "--n", "100000"], 3),
    "ar-quiver-3000000-vertices": (["ar-quiver", "--n", "3000000"], 3),
    "ar-quiver-200-vertices": (["ar-quiver", "--n", "200"], 0),
    "ar-quiver-300-vertices": (["ar-quiver", "--n", "300"], 3),
    "decompose-200000-vertices": (["decompose", "--intervals", "U[1,1]", "--n", "200000"], 3),
    "flat-locus-200000-vertices": (["flat-locus", "--intervals", "U[1,1]", "--n", "200000"], 3),
    "gvector-200000-vertices": (["gvector", "--intervals", "U[1,1]", "--n", "200000"], 0),
    "fpoly-200000-variables": (["fpoly", "--intervals", "U[1,1]", "--n", "200000"], 0),
    "fpoly-200000-variables-many-terms": (["fpoly", "--intervals", "U[1,3]^2 + U[2,5]",
                                           "--n", "200000"], 0),
    "cc-200000-vertices": (["cc", "--intervals", "U[1,1]", "--n", "200000"], 3),
    "count-30-30-ladder": (LADDER, 3),
    "count-30-30-ladder-budget-1e15": ([*LADDER, "--budget", str(10 ** 15)], 0),
    "count-fan-24": (["count", "--rep", "{dir}/fan.rep", "--e", ",".join(["1"] * 25 + ["0"] * 49),
                      "--p", "2"], 0),
}

# what the standard output of a row must hold, where it is checked
STDOUT = {"fpoly-200000-variables": 'pretty: "1 + y1"', "count-fan-24": f"count: {3 ** 25}",
          "count-30-30-ladder-budget-1e15": "count: 3\n"}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("robustness")
    for name, text in FILES.items():
        (path / name).write_text(text)
    return str(path)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_input_ends_cleanly(row, fixture_dir):
    argv, want = ROWS[row]
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", CHILD,
                           *(a.format(dir=fixture_dir) for a in argv)],
                          env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    assert "Traceback" not in done.stderr, done.stderr[-2000:]
    assert done.returncode == want, done.stderr[-2000:]
    assert STDOUT.get(row, "") in done.stdout


def test_ladder_refused_before_the_subset_search(fixture_dir):
    # no plan of the 30 + 30 ladder enumerates fewer than 3^30 tuples, and
    # the minimum cut finds that plan without trying the others
    from quivergrass.cli import run
    start = time.perf_counter()
    code, text = run([a.format(dir=fixture_dir) for a in LADDER])
    assert time.perf_counter() - start < 1
    assert (code, text) == (3, f"budget error: enumeration of ~{3 ** 30} tuples exceeds "
                               "budget 10000000\n")
