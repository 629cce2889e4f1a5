"""Exact multivariate polynomials: the sections' pieces, stalk generators
and evaluation.

Grading convention: a polynomial of total degree k sits in grading 2k
(linear forms in grading 2).  A section is one homogeneous polynomial per
maximal cone of a subdivision, as a dict, and the package builds sections
only from solved section spaces (ihsheaf), so nothing here checks their
continuity; the tests check it with an oracle of their own.
"""

from __future__ import annotations

import functools
import operator
from math import prod

from .exactlin import ONE, ZERO, format_scalar, sc, vdot


# -- polynomials -----------------------------------------------------------


@functools.lru_cache(maxsize=256)
def monomials(n, k):
    """All exponent tuples of total degree k in n variables, lex order, as a
    tuple, from a process-wide cache of the 256 most recently used."""
    if n == 0:
        return ((),) if k == 0 else ()
    return tuple((e0,) + rest for e0 in range(k, -1, -1)
                 for rest in monomials(n - 1, k - e0))


class Polynomial:
    """Homogeneous-friendly sparse polynomial with exact coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                c = sc(c)
                if c:
                    self.coeffs[tuple(e)] = c

    @staticmethod
    def _clean(n, coeffs):
        """The polynomial of a dict {exponent tuple: nonzero Scalar} just
        built by add, mul or compose, taken as it is."""
        p = Polynomial.__new__(Polynomial)
        p.n, p.coeffs = n, coeffs
        return p

    @staticmethod
    def constant(n, c):
        return Polynomial(n, {tuple([0] * n): sc(c)})

    @staticmethod
    def from_linear(form):
        n = len(form)
        coeffs = {}
        for i, c in enumerate(form):
            if c:
                e = [0] * n
                e[i] = 1
                coeffs[tuple(e)] = c
        return Polynomial(n, coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.n == other.n and \
            self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.coeffs.items()))))

    def degree(self):
        """Total degree; -1 for the zero polynomial.  Asserts homogeneity."""
        if not self.coeffs:
            return -1
        degs = {sum(e) for e in self.coeffs}
        if len(degs) != 1:
            raise ValueError("polynomial is not homogeneous")
        return degs.pop()

    def add(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial._clean(self.n, out)

    def mul(self, other):
        """The product: each coefficient is the inner product of the
        coefficient pairs whose exponents add up to its own."""
        pairs = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                left, right = pairs.setdefault(
                    tuple(map(operator.add, e1, e2)), ([], []))
                left.append(c1)
                right.append(c2)
        out = {}
        for e, (left, right) in pairs.items():
            c = vdot(left, right)
            if c:
                out[e] = c
        return Polynomial._clean(self.n, out)

    def evaluate(self, point):
        """The value at point: the inner product of the coefficients with
        the monomials' values there."""
        return vdot(list(self.coeffs.values()),
                    [prod((x ** k for x, k in zip(point, e) if k), start=ONE)
                     for e in self.coeffs])

    def compose(self, rows):
        """Substitute x_i = rows[i] . y; rows has n covectors of length m.
        Returns a polynomial in m variables."""
        m = len(rows[0]) if rows else 0
        forms = [Polynomial.from_linear(r) for r in rows]
        out = Polynomial(m)
        for e, c in self.coeffs.items():
            term = Polynomial._clean(m, {(0,) * m: c})
            for i, p in enumerate(e):
                for _ in range(p):
                    term = term.mul(forms[i])
            out = out.add(term)
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            mono = "*".join(f"x{i}^{p}" if p > 1 else f"x{i}"
                            for i, p in enumerate(e) if p)
            c = format_scalar(self.coeffs[e])
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)
