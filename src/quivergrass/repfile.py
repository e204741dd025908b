"""The representation file format: one JSON text document per representation.

Fields: `vertices` (natural), `arrows` (list of 1-based [source, target]),
`field` ("Q" or "Fp:<prime>"), and exactly one of
  * `dims` + `matrices` (map from 0-based arrow index to a row-major matrix;
    entries are integers or "a/b" strings), or
  * `intervals` (type A shorthand "U[i,j]^m + ...", quiver must be the
    equioriented A_n in its standard labeling; `dims` optional, validated).

`parse_rep_document` returns the representation a document describes together
with its echo: the canonical document as a dict, with the intervals in sorted
form and each matrix entry as an integer or an "a/b" string in lowest terms
(over GF(p) too: the echo is not reduced mod p).  Parsing an echo gives the
same echo back.  A witness document (`parse_witness_document`) is
{"bases": [...]}, one row-major basis per vertex.
"""

import json
import re
import sys
from fractions import Fraction

from . import linalg as la
from .errors import DomainError
from .fields import field_from_name
from .quiver import Quiver
from .rep import Representation, check_matrix_ceiling
from .typea import IntervalDecomposition, format_intervals

_INTERVAL_TERM = re.compile(r"^U\[(\d+),(\d+)\](?:\^(\d+))?$")


def parse_intervals(text, n):
    """Parse the compact interval syntax "U[i,j]^m + ..." for A_n."""
    m = {}
    stripped = text.replace(" ", "")
    if not stripped or stripped == "0":
        return IntervalDecomposition(n, {})
    for term in stripped.split("+"):
        match = _INTERVAL_TERM.match(term)
        if not match:
            raise DomainError(f"malformed interval term {term!r}")
        i, j = int(match.group(1)), int(match.group(2))
        mult = int(match.group(3)) if match.group(3) else 1
        m[(i, j)] = m.get((i, j), 0) + mult
    return IntervalDecomposition(n, m)


def _entry_to_fraction(x, where):
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise DomainError(f"{where}: matrix entries must be integers or \"a/b\" strings")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"{where}: bad rational entry {x!r}") from None


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(value, length=None):
    """Whether value is a JSON list of integers (of the given length)."""
    return (isinstance(value, list) and all(_is_int(x) for x in value)
            and length in (None, len(value)))


def _entry_to_json(x):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _json_document(text):
    """The decoded JSON text; DomainError with the position if malformed, or
    naming the limit if an integer has more digits than the interpreter's
    limit on int <-> str conversion."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as ex:
        raise DomainError(
            f"malformed file at line {ex.lineno}, column {ex.colno}: {ex.msg}") from None
    except ValueError:
        raise DomainError(f"an integer in the file has more than "
                          f"{sys.get_int_max_str_digits()} digits, the limit on "
                          f"int <-> str conversion") from None


def parse_rep_document(text):
    """Parse and validate a representation document.

    Returns the pair (representation, echo): the ``Representation`` it
    describes and the canonical document as a dict.  DomainError on any
    invalid input, with the position for malformed JSON; BudgetError, before
    any matrix is built, when the arrow matrices would hold more entries than
    the ceiling (``rep.check_matrix_ceiling``).
    """
    raw = _json_document(text)
    if not isinstance(raw, dict):
        raise DomainError("malformed file: top level must be an object")
    for key in ("vertices", "arrows", "field"):
        if key not in raw:
            raise DomainError(f"missing field {key!r}")
    unknown = set(raw) - {"vertices", "arrows", "field", "dims", "matrices", "intervals"}
    if unknown:
        raise DomainError(f"unknown fields {sorted(unknown)}")
    vertices = raw["vertices"]
    if not _is_int(vertices) or vertices < 0:
        raise DomainError("vertices must be a natural number")
    arrows = raw["arrows"]
    if not isinstance(arrows, list) or not all(_is_int_list(a, 2) for a in arrows):
        raise DomainError("arrows must be a list of [source, target] integer pairs")
    if not isinstance(raw["field"], str):
        raise DomainError("field must be \"Q\" or \"Fp:<prime>\"")
    if "dims" in raw and not _is_int_list(raw["dims"]):
        raise DomainError("dims must be a list of integers")
    has_m = "matrices" in raw
    has_i = "intervals" in raw
    if has_m == has_i:
        raise DomainError("exactly one of 'matrices' or 'intervals' must be present")
    echo = {"vertices": vertices, "arrows": arrows, "field": raw["field"]}
    if has_i:
        if not isinstance(raw["intervals"], str):
            raise DomainError("intervals must be a string \"U[i,j]^m + ...\"")
        dec = parse_intervals(raw["intervals"], vertices)
        if "dims" in raw:
            dims = tuple(raw["dims"])
            if dims != dec.dims:
                raise DomainError(
                    f"dims {dims} do not match the intervals {dec.dims}")
            echo["dims"] = raw["dims"]
        quiver = Quiver(vertices, arrows)
        field = field_from_name(raw["field"])
        if not quiver.is_linear_equioriented():
            raise DomainError("interval shorthand needs the equioriented A_n quiver")
        echo["intervals"] = format_intervals(dec)
        return dec.to_representation(field), echo
    if "dims" not in raw:
        raise DomainError("missing field 'dims'")
    if not isinstance(raw["matrices"], dict):
        raise DomainError("matrices must be an object from arrow index to matrix")
    quiver = Quiver(vertices, arrows)
    field = field_from_name(raw["field"])
    dims = quiver.check_dim_vector(raw["dims"])
    check_matrix_ceiling(quiver, dims, f"a representation of dimension vector {list(dims)}")
    matrices = {}
    for key, rows in raw["matrices"].items():
        try:
            a = int(key)
        except ValueError:
            raise DomainError(f"matrix key {key!r} is not a 0-based arrow index") from None
        if not (0 <= a < len(arrows)):
            raise DomainError(f"matrix key {a} out of range for {len(arrows)} arrows")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise DomainError(f"matrices[{a}] must be a list of rows")
        matrices[a] = [[_entry_to_fraction(x, f"matrices[{a}]") for x in row]
                       for row in rows]
    m_rep = Representation(quiver, field, dims, [
        matrices[a] if a in matrices else la.zeros(dims[t - 1], dims[s - 1], field)
        for a, (s, t) in enumerate(quiver.arrows)])
    echo["dims"] = raw["dims"]
    echo["matrices"] = {str(a): [[_entry_to_json(x) for x in row] for row in rows]
                        for a, rows in sorted(matrices.items())}
    return m_rep, echo


def parse_witness_document(text, where):
    """Parse a witness document {"bases": [...]}: one row-major basis per
    vertex, entries integers or "a/b" strings.

    Returns the pair (bases, echo): the bases as tuples of Fractions and as
    given.  ``where`` names the document in the error for a wrong shape.
    """
    raw = _json_document(text)
    try:
        bases = [tuple(tuple(_entry_to_fraction(x, where) for x in row) for row in b)
                 for b in raw["bases"]]
    except (KeyError, TypeError, ValueError):
        raise DomainError(f"{where}: expected {{\"bases\": [...]}} "
                          f"with integer or \"a/b\" entries") from None
    return bases, raw["bases"]
