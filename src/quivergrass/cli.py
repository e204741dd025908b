"""Command-line interface: file parsing, subcommand dispatch, canonical output.

Exit codes: 0 success, 1 unknown subcommand, 2 domain errors (including
malformed files, reported with their position), 3 budget errors.  Machine
output is one canonical JSON document (sorted keys, fixed separators), so
identical inputs produce byte-identical output.

Vertices are 1-based in files, matching the standard labeling; arrow indices
(the keys of "matrices") are 0-based positions in the "arrows" list.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, ardynkin, cluster, elliptic
from . import typea as ta
from .counting import (DEFAULT_BUDGET, betti_numbers, count_points,
                       counting_polynomial, euler_characteristic, plan_count)
from .errors import BudgetError, DomainError
from .fields import PrimeField, QQ
from .quiver import euler_form, linear_quiver
from .rep import SubrepWitness, hom_dim, ext1_dim, reduce_mod, tangent_dim
from .repfile import (RepDocument, document_for, format_intervals,
                      parse_intervals, parse_rep_document)

SUBCOMMANDS = ("decompose", "hom", "ext", "euler", "count", "poly", "cells",
               "poincare", "strata", "fpoly", "gvector", "cc", "verify-mult",
               "psi-check", "deg-compare", "flat-locus", "catenoid",
               "ar-quiver", "tangent", "demo-elliptic")


def _csv_ints(text):
    if text is None:
        return None
    return tuple(int(x) for x in text.split(","))


def _load_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_rep_document(fh.read())
    except OSError as ex:
        raise DomainError(f"cannot read {path}: {ex}") from None


def _rep_input(args, attr="rep"):
    """A representation from --rep FILE or --intervals STR --n N."""
    path = getattr(args, attr.replace("-", "_"), None)
    if path:
        doc = _load_doc(path)
        return doc.to_representation(), {"document": json.loads(doc.canonical_json())}
    if getattr(args, "intervals", None) is not None:
        if not getattr(args, "n", None):
            raise DomainError("--intervals requires --n")
        dec = parse_intervals(args.intervals, args.n)
        return dec.to_representation(QQ), {
            "intervals": format_intervals(dec), "n": args.n}
    raise DomainError(f"--{attr} FILE (or --intervals STR --n N) is required")


def _with_prime(m_rep, p):
    if isinstance(m_rep.field, PrimeField):
        if p is not None and p != m_rep.field.p:
            raise DomainError(f"--p {p} conflicts with the file's field GF({m_rep.field.p})")
        return m_rep, m_rep.field.p
    if p is None:
        raise DomainError("--p is required for a representation over Q")
    return reduce_mod(m_rep, p), p


def _count_poly_json(cp):
    out = {"coefficients": list(cp.coefficients), "consistency": cp.consistency,
           "primes": list(cp.primes), "counts": list(cp.counts)}
    if cp.held_out:
        out["held_out"] = list(cp.held_out)
    if cp.skipped_primes:
        out["skipped_primes"] = list(cp.skipped_primes)
    return out


def _poly_json(sp):
    return sp.serialized()


def _xy_names(n):
    return [f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]


def _auto_strategy(m_rep, requested):
    if requested in ("cells", "count"):
        return requested
    return "cells" if m_rep.quiver.is_linear_equioriented() else "count"


def _run_decompose(args):
    m, echo = _rep_input(args)
    dec = ta.decompose(m)
    ranks = ta.rank_sequence(m)
    return echo, {
        "intervals": format_intervals(dec),
        "multiplicities": [[list(ij), mult] for ij, mult in sorted(dec.m.items())],
        "rank_sequence": [[list(ij), r] for ij, r in sorted(ranks.r.items())],
    }, {"engine": "rank-sequence"}


def _run_hom(args):
    n, echo_n = _rep_input(args, "rep")
    m, echo_m = _rep_input(args, "rep2")
    return {"first": echo_n, "second": echo_m}, {"hom_dim": hom_dim(n, m)}, \
        {"engine": "kernel-of-defect-map"}


def _run_ext(args):
    n, echo_n = _rep_input(args, "rep")
    m, echo_m = _rep_input(args, "rep2")
    return {"first": echo_n, "second": echo_m}, {"ext1_dim": ext1_dim(n, m)}, \
        {"engine": "cokernel-of-defect-map"}


def _run_euler(args):
    m, echo = _rep_input(args)
    e = _csv_ints(args.e)
    if e is None:
        raise DomainError("--e is required")
    echo["e"] = list(e)
    d = m.dims
    return echo, {
        "euler_e_dim": euler_form(m.quiver, e, d),
        "euler_e_complement": euler_form(m.quiver, e, tuple(a - b for a, b in zip(d, e))),
    }, {"engine": "closed-form"}


def _run_count(args):
    m, echo = _rep_input(args)
    e = _csv_ints(args.e)
    if e is None:
        raise DomainError("--e is required")
    mp, p = _with_prime(m, args.p)
    echo.update({"e": list(e), "p": p})
    count = count_points(mp, e, budget=args.budget)
    return echo, {"count": count}, {
        "engine": "finite-field-enumeration", "primes": [p],
        "budget": args.budget, "budget_spent": plan_count(mp.quiver, mp.dims, e, p).estimate}


def _run_poly(args):
    m, echo = _rep_input(args)
    e = _csv_ints(args.e)
    if e is None:
        raise DomainError("--e is required")
    primes = _csv_ints(args.primes)
    echo["e"] = list(e)
    cp = counting_polynomial(m, e, primes=primes, budget=args.budget)
    out = {"counting_polynomial": _count_poly_json(cp)}
    if cp.consistency != "inconsistent":
        out["euler_characteristic"] = euler_characteristic(cp)
        out["betti_numbers"] = betti_numbers(cp)
    return echo, out, {"engine": "interpolation", "primes": list(cp.primes),
                       "budget": args.budget}


def _run_cells(args):
    m, echo = _rep_input(args)
    e = _csv_ints(args.e)
    if e is None:
        raise DomainError("--e is required")
    echo["e"] = list(e)
    dec = ta.decompose(m)
    cq = ta.coefficient_quiver(dec)
    pts = ta.fixed_points(dec, e)
    cells = [{"starts": [s for s in pt.starts], "dim": ta.cell_dimension(cq, pt)}
             for pt in pts]
    return echo, {"rows": [list(r) for r in cq.rows], "cells": cells},\
        {"engine": "cells"}


def _run_poincare(args):
    m, echo = _rep_input(args)
    e = _csv_ints(args.e)
    if e is None:
        raise DomainError("--e is required")
    echo["e"] = list(e)
    pp = ta.poincare_polynomial(ta.decompose(m), e)
    return echo, {"coefficients": list(pp.coefficients),
                  "euler_characteristic": ta.euler_char_cells(ta.decompose(m), e)},\
        {"engine": "cells"}


def _run_strata(args):
    m, echo = _rep_input(args)
    e = _csv_ints(args.e)
    if e is None:
        raise DomainError("--e is required")
    echo["e"] = list(e)
    out = [{"isoclass": format_intervals(s.isoclass), "dim": s.dim, "cells": s.cells}
           for s in ta.strata(ta.decompose(m), e)]
    return echo, {"strata": out}, {"engine": "cells"}


def _run_fpoly(args):
    m, echo = _rep_input(args)
    strategy = _auto_strategy(m, args.strategy)
    fp = cluster.f_polynomial(m, strategy=strategy, budget=args.budget)
    names = [f"y{i}" for i in range(1, m.quiver.vertex_count + 1)]
    return echo, {"f_polynomial": _poly_json(fp), "pretty": fp.format(names)},\
        {"engine": strategy, "budget": args.budget}


def _run_gvector(args):
    m, echo = _rep_input(args)
    return echo, {"g_vector": list(cluster.g_vector(m))}, {"engine": "closed-form"}


def _run_cc(args):
    m, echo = _rep_input(args)
    strategy = _auto_strategy(m, args.strategy)
    ccp = cluster.cluster_character(m, strategy=strategy, budget=args.budget)
    return echo, {"cluster_character": _poly_json(ccp),
                  "pretty": ccp.format(_xy_names(m.quiver.vertex_count))},\
        {"engine": strategy, "budget": args.budget}


def _generating_input(args):
    if not args.x or not args.s:
        raise DomainError("--x FILE and --s FILE are required "
                          "(the extension runs 0 -> X -> Y -> S -> 0)")
    x_doc = _load_doc(args.x)
    s_doc = _load_doc(args.s)
    x = x_doc.to_representation()
    s = s_doc.to_representation()
    ge = cluster.make_generating(s, x)
    echo = {"x": json.loads(x_doc.canonical_json()),
            "s": json.loads(s_doc.canonical_json())}
    return ge, echo


def _run_verify_mult(args):
    ge, echo = _generating_input(args)
    if ge.kind != "nonsplit":
        return echo, {"kind": ge.kind,
                      "note": "split class: the multiplication formula does not apply"},\
            {"engine": "cells"}
    rep = cluster.verify_multiplication(ge)
    n = ge.s.quiver.vertex_count
    out = {
        "kind": ge.kind,
        "middle_term": format_intervals(ta.decompose(ge.y)),
        "x_s": format_intervals(ta.decompose(ge.x_s)),
        "s_x": format_intervals(ta.decompose(ge.s_x)),
        "dim_s_x": list(rep.s_x_dims),
        "x_f": list(rep.x_f),
        "lhs": _poly_json(rep.lhs),
        "rhs": _poly_json(rep.rhs),
        "residual": _poly_json(rep.residual),
        "f_residual": _poly_json(rep.f_residual),
        "holds": rep.holds,
    }
    return echo, out, {"engine": "cells"}


def _run_psi_check(args):
    ge, echo = _generating_input(args)
    e = _csv_ints(args.e)
    primes = _csv_ints(args.primes)
    if e is None or primes is None:
        raise DomainError("--e and --primes are required")
    echo.update({"e": list(e), "primes": list(primes)})
    report = cluster.psi_count_identity(ge, e, primes, budget=args.budget)
    return echo, {
        "per_prime": [{"p": p, "grassmannian_points": lhs, "image_bundle_sum": rhs}
                      for p, lhs, rhs in report.prime_results],
        "holds": report.holds,
    }, {"engine": "finite-field-enumeration", "primes": list(primes),
        "budget": args.budget}


def _run_deg_compare(args):
    m, echo_m = _rep_input(args, "rep")
    n, echo_n = _rep_input(args, "rep2")
    dm, dn = ta.decompose(m), ta.decompose(n)
    out = {"ranks_m_deg_n": ta.deg_leq_ranks(dm, dn),
           "ranks_n_deg_m": ta.deg_leq_ranks(dn, dm)}
    if dm.dim_vector() == dn.dim_vector():
        out["hom_m_deg_n"] = ta.deg_leq_hom(dm, dn)
        out["hom_n_deg_m"] = ta.deg_leq_hom(dn, dm)
    return {"first": echo_m, "second": echo_n}, out, {"engine": "closed-form"}


def _run_flat_locus(args):
    m, echo = _rep_input(args)
    return echo, {"class": ta.flat_locus_class(ta.decompose(m))},\
        {"engine": "rank-sequence"}


def _run_catenoid(args):
    m, echo = _rep_input(args)
    return echo, {"catenoid": ta.is_catenoid(ta.decompose(m))}, {"engine": "closed-form"}


def _run_ar_quiver(args):
    if args.rep:
        doc = _load_doc(args.rep)
        quiver = doc.quiver()
        echo = {"document": json.loads(doc.canonical_json())}
    elif args.n:
        quiver = linear_quiver(args.n)
        echo = {"n": args.n}
    else:
        raise DomainError("--rep FILE or --n N is required")
    ar = ardynkin.knit(quiver)
    adjacency = {}
    for s, t in ar.arrows:
        adjacency.setdefault(s, []).append(t)
    return echo, {
        "vertices": [list(d) for d in ar.vertices],
        "adjacency": {str(k): sorted(v) for k, v in sorted(adjacency.items())},
        "tau": {str(k): v for k, v in sorted(ar.tau.items())},
        "projectives": list(ar.projectives),
        "injectives": list(ar.injectives),
    }, {"engine": "knitting"}


def _run_tangent(args):
    m, echo = _rep_input(args)
    if not args.witness:
        raise DomainError("--witness FILE is required (JSON {\"bases\": [...]})")
    try:
        with open(args.witness, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as ex:
        raise DomainError(f"cannot read {args.witness}: {ex}") from None
    except json.JSONDecodeError as ex:
        raise DomainError(f"malformed file at line {ex.lineno}, column {ex.colno}: "
                          f"{ex.msg}") from None
    bases = [[[Fraction(x) for x in row] for row in b] for b in raw["bases"]]
    w = SubrepWitness(m.quiver, m.field, [tuple(map(tuple, b)) for b in bases])
    echo["witness"] = raw["bases"]
    return echo, {"tangent_dim": tangent_dim(m, w), "e": list(w.dims)},\
        {"engine": "kernel-of-defect-map"}


def _run_demo_elliptic(args):
    if args.p is None:
        raise DomainError("--p is required")
    report = elliptic.demo(args.p, budget=args.budget)
    return {"p": args.p}, report, {
        "engine": "finite-field-enumeration", "primes": [args.p],
        "budget": args.budget}


_RUNNERS = {
    "decompose": _run_decompose, "hom": _run_hom, "ext": _run_ext,
    "euler": _run_euler, "count": _run_count, "poly": _run_poly,
    "cells": _run_cells, "poincare": _run_poincare, "strata": _run_strata,
    "fpoly": _run_fpoly, "gvector": _run_gvector, "cc": _run_cc,
    "verify-mult": _run_verify_mult, "psi-check": _run_psi_check,
    "deg-compare": _run_deg_compare, "flat-locus": _run_flat_locus,
    "catenoid": _run_catenoid, "ar-quiver": _run_ar_quiver,
    "tangent": _run_tangent, "demo-elliptic": _run_demo_elliptic,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quivergrass",
        description="Exact computation with quiver representations and their "
                    "Grassmannians.",
        epilog="File format: vertices are 1-based; the keys of 'matrices' are "
               "0-based arrow indices (the one place the two conventions differ).")
    sub = parser.add_subparsers(dest="subcommand")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--rep", help="representation file (JSON)")
        p.add_argument("--rep2", help="second representation file (hom, ext, "
                                      "deg-compare)")
        p.add_argument("--x", help="file for X in 0 -> X -> Y -> S -> 0")
        p.add_argument("--s", help="file for S in 0 -> X -> Y -> S -> 0")
        p.add_argument("--intervals", help="type A shorthand, e.g. "
                                           "'U[1,2]^2 + U[2,2]' (with --n)")
        p.add_argument("--n", type=int, help="number of vertices for --intervals")
        p.add_argument("--e", help="sub-dimension vector, comma separated")
        p.add_argument("--p", type=int, help="prime")
        p.add_argument("--primes", help="comma-separated primes")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="enumeration budget (tuples)")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--strategy", choices=["cells", "count", "auto"],
                       default="auto", help="Euler characteristic engine")
        p.add_argument("--witness", help="witness file for tangent (JSON bases)")
        p.add_argument("--format", choices=["text", "machine"], default="text")
    return parser


def _render_text(name, outputs):
    lines = [f"subcommand: {name}"]

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}{k}.", value[k]) if isinstance(value[k], dict) \
                    else lines.append(f"{prefix}{k}: {json.dumps(value[k])}")
        else:
            lines.append(f"{prefix[:-1]}: {json.dumps(value)}")

    walk("", outputs)
    return "\n".join(lines) + "\n"


def run(argv):
    """Dispatch one invocation; returns (exit_code, rendered output string)."""
    if not argv:
        return 1, "error: no subcommand given; expected one of: " \
            + ", ".join(SUBCOMMANDS) + "\n"
    if argv[0] in ("-h", "--help"):
        return 0, _build_parser().format_help()
    if argv[0] not in SUBCOMMANDS:
        return 1, f"error: unknown subcommand {argv[0]!r}; expected one of: " \
            + ", ".join(SUBCOMMANDS) + "\n"
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, outputs, provenance = _RUNNERS[args.subcommand](args)
    except DomainError as ex:
        return 2, f"error: {ex}\n"
    except BudgetError as ex:
        return 3, f"budget error: {ex}\n"
    provenance.setdefault("version", __version__)
    if args.format == "machine":
        doc = {"subcommand": args.subcommand, "inputs": inputs,
               "outputs": outputs, "provenance": provenance}
        return 0, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return 0, _render_text(args.subcommand, outputs)


def main():
    code, text = run(sys.argv[1:])
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
