"""Per-layer spans and work counters, recorded by wrapping library functions.

``Tracer.install()`` replaces each function in ``WRAPPED`` with a wrapper
that records a span (name, start, end, parent) and the work counters of the
call.  Modules that bound a function with ``from ... import`` hold their own
reference, so every ``quivergrass`` module attribute that *is* the original
function is replaced, not only the defining one.  ``uninstall()`` puts the
originals back.

Field arithmetic (``fields``) is deliberately not wrapped: a wrapper around
each scalar operation would cost more than the operation and would measure
itself.  Its time shows up as self time of the ``linalg`` span that called it.
"""

import sys
import time
from array import array
from collections import defaultdict
from functools import wraps

from quivergrass import counting, poly
from quivergrass.errors import BudgetError, DomainError
from quivergrass.fields import PrimeField


def _rows(counters, name, args, result):
    counters[name + ".rows"] += args[0].shape[0]


def _entries(counters, name, args, result):
    counters[name + ".entries"] += len(result[0]) * result[1]


def _points(counters, name, args, result):
    counters[name + ".points"] += len(result)


def _vertices(counters, name, args, result):
    counters[name + ".vertices"] += len(result.vertices)


def _true(counters, name, args, result):
    counters[name + ".true"] += bool(result)


def _rref_name(args, kwargs):
    field = args[1] if len(args) > 1 else kwargs["field"]
    return "linalg.rref.fp" if isinstance(field, PrimeField) else "linalg.rref.q"


# (module, attribute, span name or a function of the call's arguments, counter).
# rep.hom_dim, rep.ext1_dim and elliptic.demo are not reported; their spans
# keep the time of the defect map and of the double count out of cli.run.
WRAPPED = (
    ("cli", "run", "cli.run", None),
    ("repfile", "parse_intervals", "repfile.parse_intervals", None),
    ("repfile", "parse_rep_document", "repfile.parse_rep_document", None),
    ("counting", "count_points", "counting.count_points", None),
    ("counting", "counting_polynomial", "counting.counting_polynomial", None),
    ("counting", "batched_rank_mod_p", "counting.batched_rank_mod_p", _rows),
    ("linalg", "mat_vec", "linalg.mat_vec", None),
    ("linalg", "row_space_contains", "linalg.row_space_contains", _true),
    ("linalg", "rref", _rref_name, None),
    ("rep", "phi_map", "rep.phi_map", _entries),
    ("rep", "hom_dim", "rep.hom_dim", None),
    ("rep", "ext1_dim", "rep.ext1_dim", None),
    ("rep", "reduce_mod", "rep.reduce_mod", None),
    ("typea", "decompose", "typea.decompose", None),
    ("typea", "fixed_points", "typea.fixed_points", _points),
    ("typea", "poincare_polynomial", "typea.poincare_polynomial", None),
    ("typea", "strata", "typea.strata", None),
    ("cluster", "euler_char_table", "cluster.euler_char_table", None),
    ("ardynkin", "knit", "ardynkin.knit", _vertices),
    ("elliptic", "demo", "elliptic.demo", None),
    ("elliptic", "curve_count", "elliptic.curve_count", None),
)
SUBSPACE_BATCHES = "counting.subspace_batches"
POLY_MUL = "poly.mul"

# Spans whose calls, self time and raised exceptions are reported, and the
# counters reported beside them.
REPORTED = {
    "counting.batched_rank_mod_p": ("calls", "rows", "rows_per_s"),
    SUBSPACE_BATCHES: ("rows",),
    "counting.count_points": ("calls",),
    "counting.counting_polynomial": ("calls", "primes"),
    "linalg.mat_vec": ("calls",),
    "linalg.row_space_contains": ("calls", "true_frac"),
    "linalg.rref.fp": ("calls",),
    "linalg.rref.q": ("calls",),
    "rep.phi_map": ("calls", "entries"),
    "rep.reduce_mod": ("calls",),
    "typea.fixed_points": ("calls", "points"),
    "typea.decompose": (),
    "typea.poincare_polynomial": (),
    "typea.strata": (),
    "cluster.euler_char_table": (),
    POLY_MUL: (),
    "ardynkin.knit": ("calls", "vertices"),
    "cli.run": ("calls",),
    "repfile.parse_intervals": (),
    "repfile.parse_rep_document": (),
    "elliptic.curve_count": (),
}
RAISED_KINDS = ("domain_error", "budget_error", "other")
UNITS = {"calls": "count", "rows": "count", "entries": "count", "points": "count",
         "vertices": "count", "primes": "count", "raised": "count",
         "self_s": "s", "rows_per_s": "1/s", "true_frac": "ratio"}


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {}
    for span, extra in REPORTED.items():
        for key in extra + ("self_s", "raised"):
            out[f"{span}.{key}"] = UNITS[key]
    for kind in RAISED_KINDS:
        out[f"raised.{kind}"] = "count"
    return out


def _kind(ex):
    if isinstance(ex, BudgetError):
        return "budget_error"
    if isinstance(ex, DomainError):
        return "domain_error"
    return "other"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(int)
        self.raised = defaultdict(int)
        self._stack = []
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx, name, ex=None):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if ex is not None:
            self.raised[name] += 1
            if not getattr(ex, "_perfbench_counted", False):
                ex._perfbench_counted = True
                self.raised["raised." + _kind(ex)] += 1

    def _wrap(self, fn, name, count):
        tracer = self
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = name_of(args, kwargs)
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                tracer._close(idx, span, ex)
                raise
            tracer._close(idx, span)
            if count is not None:
                count(tracer.counters, span, args, result)
            return result
        return wrapper

    def _wrap_batches(self, method):
        tracer = self

        @wraps(method)
        def batches(*args, **kwargs):
            inner = method(*args, **kwargs)
            while True:
                idx = tracer._open(SUBSPACE_BATCHES)
                try:
                    batch = next(inner)
                except StopIteration:
                    tracer._close(idx, SUBSPACE_BATCHES)
                    return
                except BaseException as ex:
                    tracer._close(idx, SUBSPACE_BATCHES, ex)
                    raise
                tracer._close(idx, SUBSPACE_BATCHES)
                tracer.counters[SUBSPACE_BATCHES + ".rows"] += batch.shape[0]
                yield batch
        return batches

    # -- patching -----------------------------------------------------------

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "quivergrass" or key.startswith("quivergrass."))]
        for mod_name, attr, name, count in WRAPPED:
            original = getattr(sys.modules["quivergrass." + mod_name], attr)
            wrapper = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self._patch(counting.SubspaceIter, "batches",
                    self._wrap_batches(counting.SubspaceIter.batches))
        self._patch(poly.SparsePoly, "__mul__",
                    self._wrap(poly.SparsePoly.__mul__, POLY_MUL, None))

    def _patch(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per span index: its duration minus the durations of its children."""
        child = [0.0] * len(self.start)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[idx] - self.start[idx]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(child))]

    def span_names(self):
        return [self.names[i] for i in self.name_id]

    def summary(self):
        """Per span name: calls and self time, plus the counters."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        names = self.span_names()
        for name, t in zip(names, self.self_times()):
            calls[name] += 1
            self_s[name] += t
        primes = sum(1 for idx, name in enumerate(names)
                     if name == "counting.count_points" and self.parent[idx] >= 0
                     and names[self.parent[idx]] == "counting.counting_polynomial")
        return calls, self_s, primes

    def metrics(self):
        """The per-layer metrics of ``metric_units()`` from the recorded spans."""
        calls, self_s, primes = self.summary()
        out = {}
        for span, extra in REPORTED.items():
            out[span + ".self_s"] = self_s[span]
            out[span + ".raised"] = self.raised[span]
            for key in extra:
                if key == "calls":
                    value = calls[span]
                elif key == "primes":
                    value = primes
                elif key == "rows_per_s":
                    rows = self.counters[span + ".rows"]
                    value = rows / self_s[span] if self_s[span] else 0.0
                elif key == "true_frac":
                    value = self.counters[span + ".true"] / calls[span] if calls[span] else 0.0
                else:
                    value = self.counters[f"{span}.{key}"]
                out[f"{span}.{key}"] = value
        for kind in RAISED_KINDS:
            out["raised." + kind] = self.raised["raised." + kind]
        return out
