"""The representation file format: one JSON text document per representation.

Fields: `vertices` (natural), `arrows` (list of 1-based [source, target]),
`field` ("Q" or "Fp:<prime>"), and exactly one of
  * `dims` + `matrices` (map from 0-based arrow index to a row-major matrix;
    entries are integers or "a/b" strings), or
  * `intervals` (type A shorthand "U[i,j]^m + ...", quiver must be the
    equioriented A_n in its standard labeling; `dims` optional, validated).

Parsing then re-serializing is the identity on canonical documents.
"""

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .fields import field_from_name, field_name
from .quiver import Quiver
from .rep import Representation
from .typea import IntervalDecomposition, decompose

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


def format_intervals(dec):
    parts = []
    for (i, j) in sorted(dec.m):
        mult = dec.m[(i, j)]
        parts.append(f"U[{i},{j}]" + (f"^{mult}" if mult > 1 else ""))
    return " + ".join(parts) if parts else "0"


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
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return int(x)


@dataclass
class RepDocument:
    vertices: int
    arrows: tuple
    field_name: str
    dims: tuple = None
    matrices: dict = None      # arrow index -> row-major rows of Fractions
    intervals: str = None

    def quiver(self):
        return Quiver(self.vertices, self.arrows)

    def field(self):
        return field_from_name(self.field_name)

    def to_representation(self):
        quiver = self.quiver()
        field = self.field()
        if self.intervals is not None:
            dec = parse_intervals(self.intervals, self.vertices)
            if not quiver.is_linear_equioriented():
                raise DomainError("interval shorthand needs the equioriented A_n quiver")
            return dec.to_representation(field)
        mats = []
        for a, (s, t) in enumerate(quiver.arrows):
            rows = self.matrices.get(a)
            if rows is None:
                rows = [[0] * self.dims[s - 1] for _ in range(self.dims[t - 1])]
            mats.append(rows)
        return Representation(quiver, field, self.dims, mats)

    def canonical_json(self):
        doc = {"vertices": self.vertices,
               "arrows": [list(a) for a in self.arrows],
               "field": self.field_name}
        if self.intervals is not None:
            doc["intervals"] = format_intervals(
                parse_intervals(self.intervals, self.vertices))
            if self.dims is not None:
                doc["dims"] = list(self.dims)
        else:
            doc["dims"] = list(self.dims)
            doc["matrices"] = {
                str(a): [[_entry_to_json(x) for x in row] for row in rows]
                for a, rows in sorted(self.matrices.items())}
        return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def parse_rep_document(text):
    """Parse and validate a representation document; DomainError with the
    position for malformed JSON."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as ex:
        raise DomainError(
            f"malformed file at line {ex.lineno}, column {ex.colno}: {ex.msg}") from None
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
    arrows = tuple(tuple(a) for a in arrows)
    if not isinstance(raw["field"], str):
        raise DomainError("field must be \"Q\" or \"Fp:<prime>\"")
    if "dims" in raw and not _is_int_list(raw["dims"]):
        raise DomainError("dims must be a list of integers")
    has_m = "matrices" in raw
    has_i = "intervals" in raw
    if has_m == has_i:
        raise DomainError("exactly one of 'matrices' or 'intervals' must be present")
    if has_i:
        if not isinstance(raw["intervals"], str):
            raise DomainError("intervals must be a string \"U[i,j]^m + ...\"")
        dims = tuple(raw["dims"]) if "dims" in raw else None
        doc = RepDocument(vertices, arrows, raw["field"], dims=dims,
                          intervals=raw["intervals"])
        dec = parse_intervals(raw["intervals"], vertices)
        if dims is not None and tuple(dims) != dec.dim_vector():
            raise DomainError(f"dims {dims} do not match the intervals {dec.dim_vector()}")
        doc.to_representation()  # validates quiver shape
        return doc
    if "dims" not in raw:
        raise DomainError("missing field 'dims'")
    dims = tuple(raw["dims"])
    if not isinstance(raw["matrices"], dict):
        raise DomainError("matrices must be an object from arrow index to matrix")
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
    doc = RepDocument(vertices, arrows, raw["field"], dims=dims, matrices=matrices)
    doc.to_representation()  # full shape validation
    return doc


def document_for(m_rep, intervals=False):
    """Build a RepDocument from a representation (canonical matrices form,
    or interval shorthand for type A when requested)."""
    if intervals:
        dec = decompose(m_rep)
        return RepDocument(m_rep.quiver.vertex_count, m_rep.quiver.arrows,
                           field_name(m_rep.field), dims=m_rep.dims,
                           intervals=format_intervals(dec))
    mats = {a: [list(row) for row in m_rep.matrix(a)]
            for a in range(m_rep.quiver.arrow_count)}
    return RepDocument(m_rep.quiver.vertex_count, m_rep.quiver.arrows,
                       field_name(m_rep.field), dims=m_rep.dims, matrices=mats)
