"""One workload in one fresh interpreter; prints one JSON line of results.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only]

``run.py`` starts this with the library's ``src`` on PYTHONPATH and the
numeric thread pools limited to one thread.  Set-up (imports, fixture files
and expected answers) is timed from the first line of this file.  Then:

* trace 0: closed-loop passes over the query list, one query in flight,
  until ``--seconds`` have elapsed (at least one pass);
* trace 1: an untraced warm-up pass, a pass with the tracer installed and
  another untraced pass; tracing overhead is the ratio of the last two;
* --setup-only: set-up and nothing else.

Every answer is checked after its pass, outside the timed region.  The known
defects of the workload are then reproduced once, untimed and untraced.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, metric_units  # noqa: E402
from quivergrass import cli  # noqa: E402

QUERY_TIMEOUT_S = 60
# Each workload is timed against a fixed reference loop of its kind of work
# (workloads.REFERENCE_LOOP), run between its queries at least every
# CALIBRATE_EVERY_S: on a shared host the machine's speed drifts by up to 2x
# within minutes, and the loop drifts with it.  Times are reported in
# reference seconds, the measured time times REFERENCE_S over the loop's time
# around the query.  REFERENCE_S is the loop's time on a quiet 2-vCPU Xeon VM
# under Python 3.11; it only fixes the unit.
REFERENCE_S = {"python": 0.009, "numpy": 0.0077}
CALIBRATE_EVERY_S = 0.25
_REFERENCE_ROWS = [tuple((3 * i + 5 * j + i * j) % 7 for j in range(10)) for i in range(10)]
_REFERENCE_STACK = np.random.default_rng(0).integers(0, 5, size=(1024, 6, 9))
# per-layer metrics of the traced run that are not span metrics
TRACED_RUN_UNITS = {"tracing.wall_s": "s", "tracing.untraced_wall_s": "s",
                    "tracing.overhead": "ratio", "known_defects.reproduced": "count"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class QueryTimeout(BaseException):
    """Raised by SIGALRM inside a query that ran past QUERY_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def run_query(argv):
    """(exit code or None, output text or the error) of one CLI invocation."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, QUERY_TIMEOUT_S)
    try:
        return cli.run(argv + ["--format", "machine"])
    except QueryTimeout:
        return None, f"timeout after {QUERY_TIMEOUT_S} s"
    except Exception as ex:  # an uncaught library exception fails the query only
        return None, f"uncaught {type(ex).__name__}: {ex}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _python_loop():
    """A fixed mod-7 matrix-vector loop over tuples."""
    for _ in range(100):
        for v in _REFERENCE_ROWS:
            out = []
            for row in _REFERENCE_ROWS:
                acc = 0
                for x, y in zip(row, v):
                    if x and y:
                        acc = (acc + x * y) % 7
                out.append(acc)


def _numpy_loop():
    """A fixed sequence of mod-5 row operations on a stack of int64 matrices."""
    a = _REFERENCE_STACK.copy()
    inverse = np.array([0, 1, 3, 2, 4])
    ones = np.arange(a.shape[0])
    for c in range(a.shape[2]):
        r = min(c, a.shape[1] - 1)
        pivot = a[:, r, c]
        a[:, r, :] = a[:, r, :] * inverse[pivot][:, None] % 5
        factor = a[:, :, c].copy()
        factor[ones, r] = 0
        a = (a - factor[:, :, None] * a[:, r, :][:, None, :]) % 5


REFERENCE_LOOPS = {"python": _python_loop, "numpy": _numpy_loop}


def reference_time(kind):
    """Seconds for one run of a fixed reference loop that uses no library code."""
    start = time.perf_counter()
    REFERENCE_LOOPS[kind]()
    return time.perf_counter() - start


def _cpu():
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_pass(queries, reference=None):
    """Per-query wall and CPU seconds and the raw results of one pass.

    With a reference loop, it runs before the first query, after the last,
    and between queries once CALIBRATE_EVERY_S has passed; each query's times
    are scaled by REFERENCE_S over the mean of the loop times just before and
    just after it.  The mean scale is returned too (1 without a loop).
    """
    walls, cpus, results, samples, before = [], [], [], [], []
    last = float("-inf")
    for q in queries:
        if reference and time.perf_counter() - last >= CALIBRATE_EVERY_S:
            samples.append(reference_time(reference))
            last = time.perf_counter()
        before.append(len(samples) - 1)
        cpu = _cpu()
        t = time.perf_counter()
        results.append(run_query(q.argv))
        walls.append(time.perf_counter() - t)
        cpus.append(_cpu() - cpu)
    if not reference:
        return walls, cpus, results, 1.0
    samples.append(reference_time(reference))
    scales = [2 * REFERENCE_S[reference] / (samples[k] + samples[k + 1]) for k in before]
    return ([x * s for x, s in zip(walls, scales)], [x * s for x, s in zip(cpus, scales)],
            results, statistics.mean(scales))


def check(queries, results):
    """Reasons for every wrong answer of a pass, as (argv, reason) pairs."""
    failures = []
    for q, (code, text) in zip(queries, results):
        reason = q.check(code, text) if code is not None else text
        if reason is not None:
            failures.append((q.argv, reason))
    return failures


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def measure(queries, seconds, reference):
    """Passes until ``seconds`` have elapsed.  Each query's latency is its
    median over the passes, which discounts bursts of machine noise shorter
    than a pass; wall_s and cpu_s are the sums of these medians, and the
    latency percentiles are taken over the queries."""
    walls, cpus, scales, failures = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu, results, scale = run_pass(queries, reference)
        walls.append(wall)
        cpus.append(cpu)
        scales.append(scale)
        failures += check(queries, results)
    latency = [statistics.median(per_pass) for per_pass in zip(*walls)]
    return {
        "passes": len(walls),
        "scale": statistics.median(scales),
        "attempted": len(walls) * len(queries),
        "failures": failures,
        "metrics": {
            "wall_s": sum(latency),
            "cpu_s": sum(statistics.median(per_pass) for per_pass in zip(*cpus)),
            "query_p50_ms": 1000 * percentile(latency, 0.5),
            "query_p90_ms": 1000 * percentile(latency, 0.9),
        },
    }


def measure_traced(queries):
    """An untraced pass to warm up, a traced pass and an untraced pass; the
    tracing overhead compares the last two."""
    _, _, first, _ = run_pass(queries)
    tracer = Tracer()
    tracer.install()
    try:
        traced_walls, _, traced, _ = run_pass(queries)
    finally:
        tracer.uninstall()
    plain_walls, _, plain, _ = run_pass(queries)
    plain_wall, traced_wall = sum(plain_walls), sum(traced_walls)
    failures = check(queries, first) + check(queries, traced) + check(queries, plain)
    failures += [(q.argv, "traced answer differs from the untraced one")
                 for q, a, b in zip(queries, plain, traced) if a != b]
    metrics = tracer.metrics()
    metrics.update({"tracing.wall_s": traced_wall,
                    "tracing.untraced_wall_s": plain_wall,
                    "tracing.overhead": traced_wall / plain_wall})
    units = dict(metric_units(), **TRACED_RUN_UNITS)
    return {"passes": 3, "attempted": 3 * len(queries), "failures": failures,
            "metrics": metrics, "units": units}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        queries = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - SETUP_START
        reference = workloads.REFERENCE_LOOP[args.workload]
        setup_s *= REFERENCE_S[reference] / statistics.median(
            reference_time(reference) for _ in range(5))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return
        out = measure_traced(queries) if args.trace else measure(queries, args.seconds, reference)
        out["setup_s"] = setup_s
        out["queries"] = len(queries)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = workloads.known_defects(args.workload, workdir)
        defects = check(probes, [run_query(q.argv) for q in probes])
        out["known_defects"] = [[" ".join(argv), why] for argv, why in defects]
        out["metrics"]["known_defects.reproduced"] = len(defects)
        out["failures"] = [[" ".join(argv), why] for argv, why in out["failures"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
