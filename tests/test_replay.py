"""Replay of the benchmark's queries: every exit code and output byte pinned.

``perfbench/workloads.build(name, 7, dir)`` and ``known_defects(name, dir)``
give the argument lists the benchmark runs.  Each one goes through
``cli.run`` in text and in machine format, and one sha256 of every exit code
and output, in build order, is pinned per workload.  A change that keeps the
answers but moves a byte (an error message, a prime list, the order of
terms) fails here.  The fixture files are written into a temporary
directory; no output echoes their path, so the digests do not depend on it.
A change to the benchmark's queries re-records the digests.
"""

import hashlib
import os

import pytest

from quivergrass.cli import run

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# recorded before the all-e prime ladder replaced the per-e reductions; flags
# re-recorded when poly stopped writing a copy of its coefficients as
# "betti_numbers", its only change
REPLAY_DIGESTS = {
    "elliptic": "46ce7e9f3ce64a0cf767a6bd4e2bad45985da1ffcefc5584b42900d3f03e995f",
    "flags": "e150eebf6596a70da64beb04af095c33219ceba4c8bcb073dab128411f2a3783",
    "exact": "df149dc9bb94f969c7dc26baf7e00fcfda43f6dbc1da8473180a3d0a6a77bfec",
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    return workloads


def replay_digest(workloads, name, workdir):
    digest = hashlib.sha256()
    queries = workloads.build(name, 7, workdir) + workloads.known_defects(name, workdir)
    for query in queries:
        for fmt in ("text", "machine"):
            code, text = run(query.argv + ["--format", fmt])
            digest.update(f"{code}\n{text}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(REPLAY_DIGESTS))
def test_benchmark_outputs_replay_byte_identically(workloads, name, tmp_path):
    assert replay_digest(workloads, name, str(tmp_path)) == REPLAY_DIGESTS[name]
