"""Checks of the benchmark itself: metric names, span coverage and nesting,
traced against untraced answers, and repeatable work counters.

    python3 -m pytest -q perfbench

Each workload runs one untraced and two traced passes, about two minutes
in all.
"""

import json
import os

import pytest

import spans
import workloads
from run import END_TO_END_UNITS
from worker import TRACED_RUN_UNITS, check, run_pass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7

# The spans each workload must fire: the layers its description names.
EXPECTED_SPANS = {
    "elliptic": {"cli.run", "repfile.parse_rep_document", "rep.reduce_mod",
                 "counting.count_points", "counting.subspace_batches",
                 "counting.batched_rank_mod_p", "elliptic.curve_count"},
    "flags": {"cli.run", "repfile.parse_intervals", "rep.reduce_mod",
              "counting.count_points", "counting.counting_polynomial",
              "linalg.mat_vec", "linalg.row_space_contains", "linalg.rref.fp",
              "cluster.euler_char_table"},
    "exact": {"cli.run", "repfile.parse_intervals", "repfile.parse_rep_document",
              "linalg.rref.q", "linalg.rref.fp", "rep.phi_map", "typea.decompose",
              "typea.fixed_points", "typea.poincare_polynomial", "typea.strata",
              "cluster.euler_char_table", "poly.mul", "ardynkin.knit"},
}


def test_benchmark_json_names_every_metric_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    per_layer = dict(spans.metric_units(), **TRACED_RUN_UNITS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


def _traced_pass(queries):
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, _, results, _ = run_pass(queries)
    finally:
        tracer.uninstall()
    return tracer, results


@pytest.fixture(scope="module", params=workloads.NAMES)
def runs(request, tmp_path_factory):
    queries = workloads.build(request.param, SEED, str(tmp_path_factory.mktemp("rep")))
    _, _, plain, _ = run_pass(queries)
    first, traced = _traced_pass(queries)
    second, _ = _traced_pass(queries)
    return request.param, queries, plain, traced, first, second


def test_answers_are_correct_and_tracing_does_not_change_them(runs):
    _, queries, plain, traced, _, _ = runs
    assert check(queries, plain) == []
    assert traced == plain


def test_named_spans_fire(runs):
    name, _, _, _, tracer, _ = runs
    calls, _, _ = tracer.summary()
    missing = EXPECTED_SPANS[name] - {span for span, n in calls.items() if n}
    assert not missing


def test_spans_nest_under_cli_run(runs):
    _, queries, _, _, tracer, _ = runs
    names = tracer.span_names()
    roots = 0
    for idx, parent in enumerate(tracer.parent):
        if parent < 0:
            assert names[idx] == "cli.run"
            roots += 1
        else:
            assert parent < idx and tracer.start[parent] <= tracer.start[idx]
            assert tracer.end[idx] <= tracer.end[parent]
    assert roots == len(queries)


def test_counters_repeat_exactly(runs):
    _, _, _, _, first, second = runs
    counts = [(t.summary()[0], t.summary()[2], dict(t.counters), dict(t.raised))
              for t in (first, second)]
    assert counts[0] == counts[1]
    metrics = [t.metrics() for t in (first, second)]
    for key, unit in spans.metric_units().items():
        if unit == "count":
            assert metrics[0][key] == metrics[1][key], key


def test_wrappers_are_removed_after_tracing():
    from quivergrass import cli, cluster, counting, elliptic, linalg
    originals = (counting.count_points, cli.count_points, cluster.count_points,
                 elliptic.count_points, linalg.rref, counting.SubspaceIter.batches)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.count_points is not originals[1] and elliptic.count_points is cli.count_points
    tracer.uninstall()
    assert (counting.count_points, cli.count_points, cluster.count_points,
            elliptic.count_points, linalg.rref, counting.SubspaceIter.batches) == originals
