"""Exact multivariate polynomials and conewise polynomial functions on
simplicial fans.

Grading convention: a conewise function built from polynomials of total
degree k has grading 2k (linear forms sit in grading 2).  All per-cone
polynomials of one function must be homogeneous of the same degree and
agree on shared faces.
"""

from __future__ import annotations

from .exactlin import ZERO, format_scalar, sc
from .fans import Fan


# -- polynomials -----------------------------------------------------------


def monomials(n, k):
    """All exponent tuples of total degree k in n variables, lex order."""
    if n == 0:
        return [()] if k == 0 else []
    out = []
    for e0 in range(k, -1, -1):
        for rest in monomials(n - 1, k - e0):
            out.append((e0,) + rest)
    return out


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
        built by add, sub, mul or compose, taken as it is."""
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

    def is_zero(self):
        return not self.coeffs

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

    def sub(self, other):
        return self.add(Polynomial._clean(
            other.n, {e: -c for e, c in other.coeffs.items()}))

    def mul(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial._clean(self.n, out)

    def evaluate(self, point):
        total = ZERO
        for e, c in self.coeffs.items():
            term = c
            for i, p in enumerate(e):
                for _ in range(p):
                    term = term * point[i]
            total = total + term
        return total

    def substitute_var(self, i, repl):
        """Replace x_i by the polynomial repl (in the same variables)."""
        out = Polynomial(self.n)
        for e, c in self.coeffs.items():
            p = e[i]
            base = list(e)
            base[i] = 0
            term = Polynomial(self.n, {tuple(base): c})
            for _ in range(p):
                term = term.mul(repl)
            out = out.add(term)
        return out

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

    def reduce_mod(self, equations):
        """Substitute away the pivot variables of an echelonized equation
        list [(pivot, row)] (rows normalized so row[pivot] = 1); the result
        is the canonical representative modulo the span's annihilator."""
        p = self
        for piv, row in equations:
            if not any(e[piv] for e in p.coeffs):
                continue
            repl = {}
            for j, c in enumerate(row):
                if j != piv and c:
                    e = [0] * self.n
                    e[j] = 1
                    repl[tuple(e)] = -c
            p = p.substitute_var(piv, Polynomial(self.n, repl))
        return p

    def divide_by_linear(self, form):
        """Exact division by a linear form; None when not divisible."""
        j = next((i for i, c in enumerate(form) if c), None)
        if j is None:
            raise ValueError("division by the zero form")
        cj = form[j]
        q = Polynomial(self.n)
        rem = self
        while True:
            top = max((e[j] for e in rem.coeffs), default=0)
            if top == 0:
                break
            part = {}
            for e, c in rem.coeffs.items():
                if e[j] == top:
                    e2 = list(e)
                    e2[j] -= 1
                    part[tuple(e2)] = c / cj
            piece = Polynomial(self.n, part)
            q = q.add(piece)
            rem = rem.sub(piece.mul(Polynomial.from_linear(form)))
        return q if rem.is_zero() else None

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


# -- conewise functions ----------------------------------------------------


class ConewiseFunction:
    """Per-maximal-cone polynomials on a simplicial fan, homogeneous of
    degree grading/2 and compatible on shared faces."""

    __slots__ = ("fan", "grading", "per_max")

    def __init__(self, fan: Fan, grading, per_max):
        if grading % 2:
            raise ValueError("grading must be even")
        self.fan = fan
        self.grading = grading
        self.per_max = dict(per_max)

    def validate(self):
        """Raise unless there is one polynomial per maximal cone, each of
        degree grading/2, and any two agree on the shared face."""
        if set(self.per_max) != set(self.fan.maximal_ids):
            raise ValueError("need exactly one polynomial per maximal cone")
        k = self.grading // 2
        for p in self.per_max.values():
            if p.n != self.fan.n:
                raise ValueError("wrong variable count")
            if not p.is_zero() and p.degree() != k:
                raise ValueError("polynomial degree does not match grading")
        mx = self.fan.maximal_ids
        for i, a in enumerate(mx):
            for b in mx[i + 1:]:
                meet = self.fan.cones[self.fan.meet_id(a, b)]
                diff = self.per_max[a].sub(self.per_max[b])
                if not diff.reduce_mod(meet.geometry().equations).is_zero():
                    raise ValueError(
                        "polynomials disagree on the shared face of cones "
                        f"{a} and {b}")
