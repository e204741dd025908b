"""Command-line interface: subcommand dispatch and canonical output.

Exit codes: 0 success, 1 unknown subcommand, 2 usage errors (a flag the
subcommand does not take, a missing required flag, a malformed integer) and
domain errors (including malformed files, reported with their position), 3
budget errors.  Machine output is one canonical JSON document (sorted keys,
fixed separators), so identical inputs produce byte-identical output.  The
term list of a polynomial answer goes into it as the JSON text that
``SparsePoly.render`` wrote with the answer's text form, and the fixed
points of ``cells`` as the JSON text their writer makes from a table of
pieces (``_Cells``), never as lists for json.dumps to walk.

Vertices are 1-based in files, matching the standard labeling; arrow indices
(the keys of "matrices") are 0-based positions in the "arrows" list.
"""

import argparse
import contextlib
import functools
import json
import re
import sys

from . import __version__, ardynkin, cluster, elliptic
from . import typea as ta
from .counting import (DEFAULT_BUDGET, check_sub_dim_vector, count_points,
                       counting_polynomial, euler_characteristic, plan_count)
from .errors import BudgetError, DomainError
from .fields import PrimeField, QQ
from .quiver import euler_form, linear_quiver
from .rep import SubrepWitness, hom_dim, ext1_dim, reduce_mod, tangent_dim
from .repfile import parse_intervals, parse_rep_document, parse_witness_document


def _ints(text):
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


# The argparse spec of every flag; COMMANDS says which subcommand takes which.
FLAGS = {
    "rep": dict(metavar="FILE", help="representation file (JSON)"),
    "rep2": dict(metavar="FILE", help="second representation file (JSON)"),
    "x": dict(metavar="FILE", help="file for X in 0 -> X -> Y -> S -> 0"),
    "s": dict(metavar="FILE", help="file for S in 0 -> X -> Y -> S -> 0"),
    "intervals": dict(metavar="STR", help="type A shorthand, e.g. "
                                          "'U[1,2]^2 + U[2,2]' (with --n)"),
    "n": dict(type=int, metavar="N", help="number of vertices of A_n"),
    "e": dict(type=_ints, metavar="CSV", help="sub-dimension vector, comma separated"),
    "p": dict(type=int, metavar="PRIME", help="prime"),
    "primes": dict(type=_ints, metavar="CSV", help="comma-separated primes"),
    "budget": dict(type=int, default=DEFAULT_BUDGET, metavar="N",
                   help="enumeration budget (tuples)"),
    "strategy": dict(choices=("cells", "count", "auto"), default="auto",
                     help="Euler characteristic engine"),
    "witness": dict(metavar="FILE", help="witness file (JSON bases)"),
}


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as ex:
        raise DomainError(f"cannot read {path}: {ex}") from None


def _load_rep(path):
    m_rep, doc = parse_rep_document(_read(path))
    return m_rep, {"document": doc}


def _rep_input(args):
    """The first module: a representation from --rep FILE, or the
    IntervalDecomposition that --intervals STR --n N parses to."""
    if args.intervals is None:
        if args.n is not None:
            raise DomainError("--n applies only with --intervals")
        return _load_rep(args.rep)
    if args.n is None:
        raise DomainError("--intervals requires --n")
    dec = parse_intervals(args.intervals, args.n)
    return dec, {"intervals": ta.format_intervals(dec), "n": args.n}


def _matrices(m):
    """The module as a representation: a parsed decomposition is built over Q."""
    return m.to_representation(QQ) if isinstance(m, ta.IntervalDecomposition) else m


def _decomposition(m):
    """The module as an IntervalDecomposition: a parsed one as given, else
    decomposed from the representation's ranks."""
    return m if isinstance(m, ta.IntervalDecomposition) else ta.decompose(m)


def _with_prime(m_rep, p):
    if isinstance(m_rep.field, PrimeField):
        if p is not None and p != m_rep.field.p:
            raise DomainError(f"--p {p} conflicts with the file's field GF({m_rep.field.p})")
        return m_rep, m_rep.field.p
    if p is None:
        raise DomainError("--p is required for a representation over Q")
    return reduce_mod(m_rep, p), p


def _inputs(args):
    """The input steps shared by the subcommands, decided by the flags each
    takes: sets ``args.m`` (the first module), ``args.m2`` (the second
    representation), ``args.ge`` (the extension) and ``args.bases`` (the
    witness), resolves ``--strategy auto``, reduces ``args.m`` mod ``--p``,
    checks ``--e`` against ``args.m`` (e <= dim M), and returns the inputs
    to echo.  Every file is read here, before ``run`` lifts the limit on
    int <-> str conversion.

    Given ``--intervals``, ``args.m`` is the parsed IntervalDecomposition,
    which answers ``quiver`` and ``dims`` as a representation does.  The
    runners whose engine is cells or closed-form read it as given
    (``_decomposition``); the others build its representation over Q
    (``_matrices``), and ``decompose`` and ``flat-locus`` recover the
    decomposition from that representation's ranks, as their rank-sequence
    engine says."""
    echo = {}
    if hasattr(args, "intervals"):
        args.m, echo = _rep_input(args)
    elif getattr(args, "rep", None) is not None:  # ar-quiver knits the file's quiver
        args.m, echo = _load_rep(args.rep)
    if hasattr(args, "rep2"):
        args.m2, second = _load_rep(args.rep2)
        echo = {"first": echo, "second": second}
    if hasattr(args, "x"):
        x, echo_x = parse_rep_document(_read(args.x))
        s, echo_s = parse_rep_document(_read(args.s))
        args.ge = cluster.make_generating(s, x)
        echo = {"x": echo_x, "s": echo_s}
    if hasattr(args, "e"):
        echo["e"] = list(args.e)
    if getattr(args, "strategy", None) == "auto":
        args.strategy = "cells" if args.m.quiver.is_linear_equioriented() else "count"
    if hasattr(args, "p"):
        if hasattr(args, "m"):
            args.m, args.p = _with_prime(_matrices(args.m), args.p)
        echo["p"] = args.p
    if hasattr(args, "e") and hasattr(args, "m"):
        # every subcommand refuses an e it would otherwise answer as empty
        check_sub_dim_vector(args.m, args.e)
    if hasattr(args, "witness"):
        args.bases, echo["witness"] = parse_witness_document(_read(args.witness),
                                                             f"--witness {args.witness}")
    return echo


def _count_poly_json(cp):
    out = {"coefficients": list(cp.coefficients), "consistency": cp.consistency,
           "primes": list(cp.primes), "counts": list(cp.counts)}
    if cp.held_out:
        out["held_out"] = list(cp.held_out)
    if cp.skipped_primes:
        out["skipped_primes"] = list(cp.skipped_primes)
    return out


class _Written:
    """An output whose JSON text its runner writes in either form,
    ``json(spaced)``, in place of json.dumps: put into the document as it
    is (``_json``)."""

    __slots__ = ()


class _Terms(_Written):
    """The term list of a polynomial as the JSON text ``SparsePoly.render``
    wrote.  It holds only integers, brackets and commas, so the text form
    is the same with a space after each comma."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def json(self, spaced):
        return self.text.replace(",", ", ") if spaced else self.text


def _terms(poly):
    """The term list of a polynomial whose text is not printed."""
    return _Terms(poly.render([""] * poly.nvars)[0])


@functools.lru_cache(maxsize=8)
def _start_pieces(top, sep):
    """The pieces of a start a = None, 1, ..., top in the ``cells`` list:
    {a: its JSON and sep} for every start of a point but the last, and
    {a: its JSON} for the last."""
    last = {None: "null"} | {a: str(a) for a in range(1, top + 1)}
    return {a: text + sep for a, text in last.items()}, last


class _Cells(_Written):
    """The fixed points of ``cells``, (starts, dim) pairs, as the list of
    {"starts": [...], "dim": d} that json.dumps writes: keys sorted and no
    spaces in the machine form, in insertion order and spaced in the text
    form.

    Each distinct piece is written once, into a table: a start with the
    separator after it (``_start_pieces``), and the dimension with the
    brackets and keys around it.  The pieces of every point are laid out in
    one list, a column at a time, and one join writes the whole list.
    """

    __slots__ = ("points", "top")

    def __init__(self, points, top):
        self.points, self.top = points, top  # top: no start is above it

    def json(self, spaced):
        if not self.points:
            return "[]"
        starts, dims = zip(*self.points)
        columns = list(zip(*starts))
        width = len(columns) + 2
        sep = ", " if spaced else ","
        if spaced:  # {"starts": [a, ...], "dim": d}
            fixed, at = '{"starts": [', width - 1
            dim = {d: f'], "dim": {d}}}, ' for d in set(dims)}
        else:  # {"dim":d,"starts":[a,...]}
            fixed, at = "]},", 0
            dim = {d: f'{{"dim":{d},"starts":[' for d in set(dims)}
        pieces = [fixed] * (len(dims) * width)
        pieces[at::width] = map(dim.__getitem__, dims)
        middle, last = _start_pieces(self.top, sep)
        for r, column in enumerate(columns, 1):
            pieces[r::width] = map((middle if r < width - 2 else last).__getitem__, column)
        pieces[0] = "[" + pieces[0]
        pieces[-1] = pieces[-1][:-len(sep)] + "]"
        return "".join(pieces)


# Each runner takes the parsed flags (after ``_inputs``) and the echoed
# inputs, and returns the outputs and the provenance.

def _decompose(args, echo):
    dec = ta.decompose(_matrices(args.m))
    ranks = ta.ranks_from_multiplicities(dec)
    return {
        "intervals": ta.format_intervals(dec),
        "multiplicities": [[list(ij), mult] for ij, mult in sorted(dec.m.items())],
        "rank_sequence": [[list(ij), r] for ij, r in sorted(ranks.items())],
    }, {"engine": "rank-sequence"}


def _hom(args, echo):
    return {"hom_dim": hom_dim(_matrices(args.m), args.m2)}, {"engine": "kernel-of-defect-map"}


def _ext(args, echo):
    return {"ext1_dim": ext1_dim(_matrices(args.m), args.m2)}, {"engine": "cokernel-of-defect-map"}


def _euler(args, echo):
    d, e = args.m.dims, args.e
    return {
        "euler_e_dim": euler_form(args.m.quiver, e, d),
        "euler_e_complement": euler_form(args.m.quiver, e, tuple(a - b for a, b in zip(d, e))),
    }, {"engine": "closed-form"}


def _count(args, echo):
    m, e, p = args.m, args.e, args.p
    return {"count": count_points(m, e, budget=args.budget)}, {
        "engine": "finite-field-enumeration", "primes": [p],
        "budget": args.budget, "budget_spent": plan_count(m.quiver, m.dims, e, p).estimate}


def _poly(args, echo):
    cp = counting_polynomial(_matrices(args.m), args.e, primes=args.primes, budget=args.budget)
    out = {"counting_polynomial": _count_poly_json(cp)}
    if cp.consistency != "inconsistent":
        out["euler_characteristic"] = euler_characteristic(cp)
    return out, {"engine": "interpolation", "primes": list(cp.primes),
                 "budget": args.budget}


def _cells(args, echo):
    dec = _decomposition(args.m)
    rows = ta.coefficient_quiver(dec)
    # rows run j descending, so no start is above the end of the first
    cells = _Cells(ta.fixed_points(dec, args.e), rows[0][1] if rows else 0)
    return {"rows": [list(r) for r in rows], "cells": cells}, {"engine": "cells"}


def _poincare(args, echo):
    pp = ta.poincare_polynomial(_decomposition(args.m), args.e)
    # one cell per fixed point, so chi = P(1); no fixed point gives no coefficients
    return {"coefficients": list(pp.coefficients),
            "euler_characteristic": sum(pp.coefficients)}, {"engine": "cells"}


def _strata(args, echo):
    out = [{"isoclass": ta.format_intervals(s.isoclass), "dim": s.dim, "cells": s.cells}
           for s in ta.strata(_decomposition(args.m), args.e)]
    return {"strata": out}, {"engine": "cells"}


def _fpoly(args, echo):
    fp = cluster.f_polynomial(args.m, strategy=args.strategy, budget=args.budget)
    names = [f"y{i}" for i in range(1, args.m.quiver.vertex_count + 1)]
    terms, pretty = fp.render(names)
    return {"f_polynomial": _Terms(terms), "pretty": pretty},\
        {"engine": args.strategy, "budget": args.budget}


def _gvector(args, echo):
    return {"g_vector": list(cluster.g_vector(args.m))}, {"engine": "closed-form"}


def _cc(args, echo):
    ccp = cluster.cluster_character(args.m, strategy=args.strategy, budget=args.budget)
    names = [f"{c}{i}" for c in "xy" for i in range(1, args.m.quiver.vertex_count + 1)]
    terms, pretty = ccp.render(names)
    return {"cluster_character": _Terms(terms), "pretty": pretty},\
        {"engine": args.strategy, "budget": args.budget}


def _verify_mult(args, echo):
    ge = args.ge
    if ge.kind != "nonsplit":
        return {"kind": ge.kind,
                "note": "split class: the multiplication formula does not apply"},\
            {"engine": "cells"}
    rep = cluster.verify_multiplication(ge)
    return {
        "kind": ge.kind,
        "middle_term": ta.format_intervals(ta.decompose(ge.y)),
        "x_s": ta.format_intervals(ta.decompose(ge.x_s)),
        "s_x": ta.format_intervals(ta.decompose(ge.s_x)),
        "dim_s_x": list(ge.s_x.dims),
        "lhs": _terms(rep.lhs),
        "rhs": _terms(rep.rhs),
        "residual": _terms(rep.residual),
        "holds": rep.holds,
    }, {"engine": "cells"}


def _psi_check(args, echo):
    echo["primes"] = list(args.primes)
    report = cluster.psi_count_identity(args.ge, args.e, args.primes, budget=args.budget)
    return {
        "per_prime": [{"p": p, "grassmannian_points": lhs, "image_bundle_sum": rhs}
                      for p, lhs, rhs in report.prime_results],
        "holds": report.holds,
    }, {"engine": "finite-field-enumeration", "primes": list(args.primes),
        "budget": args.budget}


def _deg_compare(args, echo):
    dm, dn = _decomposition(args.m), ta.decompose(args.m2)
    out = {"ranks_m_deg_n": ta.deg_leq_ranks(dm, dn),
           "ranks_n_deg_m": ta.deg_leq_ranks(dn, dm)}
    if dm.dims == dn.dims:
        out["hom_m_deg_n"] = ta.deg_leq_hom(dm, dn)
        out["hom_n_deg_m"] = ta.deg_leq_hom(dn, dm)
    return out, {"engine": "closed-form"}


def _flat_locus(args, echo):
    return {"class": ta.flat_locus_class(ta.decompose(_matrices(args.m)))},\
        {"engine": "rank-sequence"}


def _catenoid(args, echo):
    return {"catenoid": ta.is_catenoid(_decomposition(args.m))}, {"engine": "closed-form"}


def _ar_quiver(args, echo):
    if args.rep is not None:
        quiver = args.m.quiver
    else:
        quiver = linear_quiver(args.n)
        echo["n"] = args.n
    ar = ardynkin.knit(quiver)
    adjacency = {}
    for s, t in ar.arrows:
        adjacency.setdefault(s, []).append(t)
    return {
        "vertices": [list(d) for d in ar.vertices],
        "adjacency": {str(k): sorted(v) for k, v in sorted(adjacency.items())},
        "tau": {str(k): v for k, v in sorted(ar.tau.items())},
        "projectives": list(ar.projectives),
        "injectives": list(ar.injectives),
    }, {"engine": "knitting"}


def _tangent(args, echo):
    m = _matrices(args.m)
    w = SubrepWitness(m.quiver, m.field, args.bases)
    return {"tangent_dim": tangent_dim(m, w), "e": list(w.dims)},\
        {"engine": "kernel-of-defect-map"}


def _demo_elliptic(args, echo):
    return elliptic.demo(args.p, budget=args.budget), {
        "engine": "finite-field-enumeration", "primes": [args.p],
        "budget": args.budget}


# Every subcommand: its runner and its flags, in the order the help lists them.
# A bare flag is required, "[flag]" optional, and of "a|b" exactly one is
# given.  Every subcommand also takes --format {text,machine}.
COMMANDS = {
    "decompose": (_decompose, "rep|intervals [n]"),
    "hom": (_hom, "rep|intervals [n] rep2"),
    "ext": (_ext, "rep|intervals [n] rep2"),
    "euler": (_euler, "rep|intervals [n] e"),
    "count": (_count, "rep|intervals [n] e [p] [budget]"),
    "poly": (_poly, "rep|intervals [n] e [primes] [budget]"),
    "cells": (_cells, "rep|intervals [n] e"),
    "poincare": (_poincare, "rep|intervals [n] e"),
    "strata": (_strata, "rep|intervals [n] e"),
    "fpoly": (_fpoly, "rep|intervals [n] [strategy] [budget]"),
    "gvector": (_gvector, "rep|intervals [n]"),
    "cc": (_cc, "rep|intervals [n] [strategy] [budget]"),
    "verify-mult": (_verify_mult, "x s"),
    "psi-check": (_psi_check, "x s e primes [budget]"),
    "deg-compare": (_deg_compare, "rep|intervals [n] rep2"),
    "flat-locus": (_flat_locus, "rep|intervals [n]"),
    "catenoid": (_catenoid, "rep|intervals [n]"),
    "ar-quiver": (_ar_quiver, "rep|n"),
    "tangent": (_tangent, "rep|intervals [n] witness"),
    "demo-elliptic": (_demo_elliptic, "p [budget]"),
}

_DESCRIPTION = "Exact computation with quiver representations and their Grassmannians."
_EPILOG = ("File format: vertices are 1-based; the keys of 'matrices' are "
           "0-based arrow indices (the one place the two conventions differ).")


class _Stop(Exception):
    """Ends parsing with (exit code, text) where argparse would print and exit."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Stop(2, f"error: {message}\n{self.format_usage()}")

    def print_help(self, file=None):
        raise _Stop(0, self.format_help())


@functools.cache
def _parser(name):
    """The parser of one subcommand, taking exactly its flags from COMMANDS.
    Built once per subcommand: parsing keeps no state in the parser."""
    parser = _Parser(prog=f"quivergrass {name}", description=_DESCRIPTION,
                     epilog=_EPILOG, allow_abbrev=False)
    for word in COMMANDS[name][1].split():
        if "|" in word:
            group = parser.add_mutually_exclusive_group(required=True)
            for flag in word.split("|"):
                group.add_argument("--" + flag, **FLAGS[flag])
        elif word.startswith("["):
            parser.add_argument("--" + word[1:-1], **FLAGS[word[1:-1]])
        else:
            parser.add_argument("--" + word, required=True, **FLAGS[word])
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    return parser


def _parse(name, argv):
    """Parse argv with the flags of subcommand name.  A flag it does not take
    is reported first, ahead of a required flag that is missing."""
    parser = _parser(name)
    taken = {"help", "format"} | set(re.findall(r"\w+", COMMANDS[name][1]))
    for arg in argv:
        flag = arg.partition("=")[0]
        if flag.startswith("--") and flag[2:] not in taken:
            parser.error(f"{name} does not take {flag}")
    return parser.parse_args(argv)


# the canonical form: sorted keys, no spaces
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json(value, spaced):
    """The JSON of one output: a written one (``_Written``: a term list or
    the fixed points of ``cells``) as its runner wrote it in the form; any
    other value by json.dumps, with the separators of the form."""
    if isinstance(value, _Written):
        return value.json(spaced)
    return json.dumps(value) if spaced else _encode(value)


def _render_text(name, outputs):
    lines = [f"subcommand: {name}"]

    def walk(prefix, value):
        for k in sorted(value):
            walk(f"{prefix}{k}.", value[k]) if isinstance(value[k], dict) \
                else lines.append(f"{prefix}{k}: {_json(value[k], True)}")

    walk("", outputs)
    return "\n".join(lines) + "\n"


def _render_machine(name, echo, outputs, provenance):
    """The canonical document.  Where no output is written (``_Written``)
    it is one json.dumps; else its parts are written in the order
    json.dumps would write them, the outputs one by one."""
    if not any(isinstance(v, _Written) for v in outputs.values()):
        return _encode({"subcommand": name, "inputs": echo, "outputs": outputs,
                        "provenance": provenance}) + "\n"
    parts = ['{"inputs":', _encode(echo), ',"outputs":{']
    for k, v in sorted(outputs.items()):
        parts += [_encode(k), ":", _json(v, False), ","]
    parts[-1] = '},"provenance":'
    parts += [_encode(provenance), ',"subcommand":', _encode(name), "}\n"]
    return "".join(parts)


@contextlib.contextmanager
def _all_digits():
    """Lift the interpreter's limit on int <-> str conversion (Python 3.10.7
    and later) and restore it on exit.  ``run`` reads argv and files under
    the limit and writes exact answers and messages of any length.  The limit
    is process-wide, so two threads must not run ``run`` at once."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def run(argv):
    """Dispatch one invocation; returns (exit_code, rendered output string).

    The runner's outputs are written in the text form line by line, each
    value as json.dumps writes it, or as the one canonical machine document
    (``_render_machine``).  A written output (``_Written``) is the JSON
    text its runner wrote in the form."""
    if not argv:
        return 1, "error: no subcommand given; expected one of: " \
            + ", ".join(COMMANDS) + "\n"
    name = argv[0]
    if name in ("-h", "--help"):
        return 0, f"{_DESCRIPTION}\n\n" + "".join(
            _parser(n).format_usage() for n in COMMANDS) + f"\n{_EPILOG}\n"
    if name not in COMMANDS:
        return 1, f"error: unknown subcommand {name!r}; expected one of: " \
            + ", ".join(COMMANDS) + "\n"
    try:
        args = _parse(name, argv[1:])
        echo = _inputs(args)
        with _all_digits():
            outputs, provenance = COMMANDS[name][0](args, echo)
            provenance.setdefault("version", __version__)
            if args.format == "text":
                return 0, _render_text(name, outputs)
            return 0, _render_machine(name, echo, outputs, provenance)
    except _Stop as stop:
        return stop.args
    except DomainError as ex:
        return 2, f"error: {ex}\n"
    except BudgetError as ex:
        return 3, f"budget error: {ex}\n"


def main():
    code, text = run(sys.argv[1:])
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
