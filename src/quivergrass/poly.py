"""Sparse integer polynomials with tuple exponents (Laurent allowed).

Terms map an exponent vector to an integer coefficient; zero coefficients are
dropped eagerly.  Canonical term order is graded lexicographic, which fixes
every serialized form.
"""

from .errors import DomainError


class SparsePoly:
    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exp, coeff in (terms.items() if isinstance(terms, dict) else terms):
                self._add_term(tuple(exp), int(coeff))

    def _add_term(self, exp, coeff):
        if len(exp) != self.nvars:
            raise DomainError(f"exponent {exp} has wrong arity for {self.nvars} variables")
        if coeff == 0:
            return
        new = self.terms.get(exp, 0) + coeff
        if new:
            self.terms[exp] = new
        else:
            self.terms.pop(exp, None)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls(len(exp), {tuple(exp): coeff})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = SparsePoly(self.nvars, self.terms)
        for exp, c in other.terms.items():
            out._add_term(exp, c)
        return out

    def __sub__(self, other):
        out = SparsePoly(self.nvars, self.terms)
        for exp, c in other.terms.items():
            out._add_term(exp, -c)
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            return SparsePoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        out = SparsePoly(self.nvars)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out._add_term(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and other.nvars == self.nvars
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(self.sorted_terms())))

    def sorted_terms(self):
        """Terms in graded lexicographic order (total degree, then lex)."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0)

    def evaluate(self, values):
        total = 0
        for exp, c in self.terms.items():
            term = c
            for e, v in zip(exp, values):
                if e < 0:
                    raise DomainError("cannot evaluate a Laurent polynomial at integers")
                term *= v ** e
            total += term
        return total

    def specialize_ones(self):
        """Sum of coefficients (every variable set to 1)."""
        return sum(self.terms.values())

    def serialized(self):
        return [[list(exp), coeff] for exp, coeff in self.sorted_terms()]

    def format(self, names):
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"SparsePoly({self.nvars}, {dict(self.sorted_terms())})"
