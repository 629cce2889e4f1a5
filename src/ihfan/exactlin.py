"""Exact scalars over Q or a real quadratic field Q(sqrt(m)), and dense exact
linear algebra on top of them.

A scalar is a + b*sqrt(m) with rational a, b and a fixed squarefree m >= 2
(b = 0 and m = None for plain rationals).  Signs, comparisons and therefore
all pivoting decisions are exact: sign(a + b*sqrt(m)) reduces to comparing
a^2 with m*b^2.  Rationals are gmpy2.mpq when available (much faster), else
fractions.Fraction; both normalise by gcd so coefficient growth during
elimination stays tame without Bareiss-style bookkeeping.

Linear algebra entry points:
- echelon_insert, the one Gauss-Jordan step every elimination in the package
  goes through: insert a sparse row {key: Scalar} into a reduced echelon and
  report whether it was independent and its pivot value; echelon_reduce is
  its reduction half;
- sparse_eliminate and rref (reduced row echelon forms), first_independent
  (the first-independent basis of a list of vectors), rank, kernel_basis,
  sparse_kernel and solve, all built on echelon_insert;
- inverse and det from one elimination (the determinant is the product of
  the pivot values, signed by the pivot permutation);
- signature, by congruence diagonalisation.
The pivot of a row is its smallest key, so reduced echelons, bases and
pivots are the same for any insertion order and from run to run.
"""

from __future__ import annotations

import re

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as _Q

_Q0 = _Q(0)
_Q1 = _Q(1)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_squarefree(m):
    for p in _SMALL_PRIMES:
        if m % (p * p) == 0:
            return False
    p = _SMALL_PRIMES[-1]
    while p * p <= m:
        p += 1
        if m % (p * p) == 0:
            return False
    return True


class Scalar:
    """Element a + b*sqrt(m) of Q (m is None, b = 0) or Q(sqrt(m))."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a, b=_Q0, m=None):
        # rationals of the backend type are kept as they are; re-wrapping
        # would allocate a copy of each part of every scalar made
        if type(a) is not _Q:
            a = _Q(a)
        if type(b) is not _Q:
            b = _Q(b)
        if not b:
            m = None
        elif m is None:
            raise ValueError("irrational part without a radicand")
        self.a = a
        self.b = b
        self.m = m

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def coerce(x):
        if isinstance(x, Scalar):
            return x
        return Scalar(_Q(x))

    def _join(self, other):
        """Common radicand for a binary operation, or raise on a mismatch."""
        if self.m is None:
            return other.m
        if other.m is None or other.m == self.m:
            return self.m
        raise ValueError(f"mixed radicands {self.m} and {other.m}")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = Scalar.coerce(other)
        m = self._join(other)
        return Scalar(self.a + other.a, self.b + other.b, m)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a, -self.b, self.m)

    def __sub__(self, other):
        other = Scalar.coerce(other)
        m = self._join(other)
        return Scalar(self.a - other.a, self.b - other.b, m)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __mul__(self, other):
        other = Scalar.coerce(other)
        m = self._join(other)
        if not self.b and not other.b:
            return Scalar(self.a * other.a)
        return Scalar(self.a * other.a + m * self.b * other.b,
                      self.a * other.b + self.b * other.a, m)

    __rmul__ = __mul__

    def inverse(self):
        if self.b == 0:
            if self.a == 0:
                raise ZeroDivisionError("scalar division by zero")
            return Scalar(1 / self.a)
        n = self.a * self.a - self.m * self.b * self.b
        if n == 0:
            # cannot happen for squarefree m >= 2 and rational a, b not both 0
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.a / n, -self.b / n, self.m)

    def __truediv__(self, other):
        return self * Scalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.coerce(other) * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = Scalar(_Q1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- order ------------------------------------------------------------

    def sign(self):
        """Exact sign in {-1, 0, 1}."""
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (1 if a > 0 else 0)
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with m b^2 on the dominant side
        d = a * a - self.m * b * b
        if a > 0:
            return -1 if d < 0 else (1 if d > 0 else 0)
        return 1 if d < 0 else (-1 if d > 0 else 0)

    def is_zero(self):
        return not self.a and not self.b

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = Scalar.coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.m == other.m

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def __lt__(self, other):
        return (self - Scalar.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - Scalar.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - Scalar.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - Scalar.coerce(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        if self.b == 0:
            return float(self.a)
        return float(self.a) + float(self.b) * float(self.m) ** 0.5

    def __repr__(self):
        return format_scalar(self)


ZERO = Scalar(_Q0)
ONE = Scalar(_Q1)


def sc(x):
    """Shorthand coercion to Scalar."""
    return Scalar.coerce(x)


# -- literal grammar -------------------------------------------------------
#
#   INT[/INT]                      rational
#   INT[/INT](+|-)INT[/INT]rM      a + b*sqrt(M), e.g. 1+1r2, -3/2-1/2r5

_LIT = re.compile(r"^(-?\d+)(?:/(\d+))?(?:([+-]\d+)(?:/(\d+))?r(\d+))?$")


def parse_scalar(text, field=None):
    m = _LIT.match(text.strip())
    if not m:
        raise ValueError(f"bad scalar literal: {text!r}")
    an, ad, bn, bd, rad = m.groups()
    a = _Q(int(an), int(ad)) if ad else _Q(int(an))
    if rad is None:
        s = Scalar(a)
    else:
        b = _Q(int(bn), int(bd)) if bd else _Q(int(bn))
        s = Scalar(a, b, int(rad))
        if s.m is not None and (s.m < 2 or not _is_squarefree(s.m)):
            raise ValueError(f"radicand must be squarefree and >= 2: {s.m}")
    if field is not None:
        field.check(s)
    return s


def format_scalar(s):
    if s.b == 0:
        return str(s.a)
    b = str(s.b)
    if not b.startswith("-"):
        b = "+" + b
    return f"{s.a}{b}r{s.m}"


class ScalarField:
    """The coefficient field: plain Q, or Q(sqrt(m)) for squarefree m >= 2."""

    __slots__ = ("m",)

    def __init__(self, m=None):
        if m is not None:
            if m < 2 or not _is_squarefree(m):
                raise ValueError(f"radicand must be squarefree and >= 2: {m}")
        self.m = m

    def check(self, s):
        if s.m is not None and s.m != self.m:
            raise ValueError(f"scalar {s!r} does not lie in {self!r}")
        return s

    def parse(self, text):
        return parse_scalar(text, self)

    def sqrt_gen(self):
        if self.m is None:
            raise ValueError("Q has no radical generator")
        return Scalar(_Q0, _Q1, self.m)

    def to_json(self):
        return "Q" if self.m is None else {"sqrt": self.m}

    @staticmethod
    def from_json(obj):
        if obj == "Q":
            return ScalarField()
        if isinstance(obj, dict) and set(obj) == {"sqrt"}:
            return ScalarField(int(obj["sqrt"]))
        raise ValueError(f"bad field description: {obj!r}")

    def __eq__(self, other):
        return isinstance(other, ScalarField) and self.m == other.m

    def __hash__(self):
        return hash(("ScalarField", self.m))

    def __repr__(self):
        return "Q" if self.m is None else f"Q(sqrt({self.m}))"


# -- matrices --------------------------------------------------------------


class Matrix:
    """Dense matrix of Scalars; rows are tuples, entries immutable by habit."""

    __slots__ = ("entries", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        ent = tuple(tuple(sc(x) for x in row) for row in rows)
        self.entries = ent
        self.nrows = len(ent)
        if ent:
            widths = {len(r) for r in ent}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols mismatch")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self):
        return Matrix([self.col(j) for j in range(self.ncols)], ncols=self.nrows)

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        rows = []
        for r in self.entries:
            out = []
            for j in range(other.ncols):
                acc = ZERO
                for k, x in enumerate(r):
                    if x:
                        acc = acc + x * other.entries[k][j]
                out.append(acc)
            rows.append(out)
        return Matrix(rows, ncols=other.ncols)

    def apply(self, vec):
        if self.ncols != len(vec):
            raise ValueError("dimension mismatch in matrix-vector product")
        out = []
        for r in self.entries:
            acc = ZERO
            for x, v in zip(r, vec):
                if x:
                    acc = acc + sc(v) * x
            out.append(acc)
        return tuple(out)

    def is_symmetric(self):
        if self.nrows != self.ncols:
            return False
        return all(self.entries[i][j] == self.entries[j][i]
                   for i in range(self.nrows) for j in range(i))

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries \
            and self.ncols == other.ncols

    def __repr__(self):
        return f"Matrix({[[repr(x) for x in r] for r in self.entries]})"


def _rows_to_sparse(m):
    out = []
    for r in m.entries:
        d = {j: x for j, x in enumerate(r) if x}
        if d:
            out.append(d)
    return out


# -- elimination -----------------------------------------------------------
#
# An echelon is a dict {pivot key: row} of sparse rows {key: Scalar}; each
# row is 1 at its own pivot, 0 at every other pivot, and its pivot is its
# smallest key.  Inserting rows one at a time keeps that invariant, so
# whatever the insertion order the echelon is the reduced row echelon form
# of the rows' span, which is unique for a given key order.


def _sub_multiple(r, f, row):
    """r -= f * row in place, dropping the entries that cancel."""
    for k, x in row.items():
        v = r.get(k)
        nv = -f * x if v is None else v - f * x
        if nv:
            r[k] = nv
        else:
            del r[k]


def echelon_reduce(ech, row):
    """The row minus its part in the echelon's span: a new sparse row that
    is 0 at every pivot (the input is not modified)."""
    r = {k: x for k, x in row.items() if x}
    # subtracting a multiple of one echelon row leaves the entries at the
    # other pivots alone, so one pass over the pivots r starts with suffices
    for pk in [k for k in r if k in ech]:
        _sub_multiple(r, r[pk], ech[pk])
    return r


def echelon_insert(ech, row):
    """The one Gauss-Jordan step of the package: reduce the sparse row
    against the echelon and, when something is left, add it with its
    smallest key as pivot.  Returns (pivot key, pivot value), the value
    being the leading entry before normalisation, or None when the row lies
    in the echelon's span."""
    r = echelon_reduce(ech, row)
    if not r:
        return None
    pk = min(r)
    piv = r[pk]
    inv = piv.inverse()
    r = {k: x * inv for k, x in r.items()}
    for other in ech.values():
        f = other.get(pk)
        if f:
            _sub_multiple(other, f, r)
    ech[pk] = r
    return pk, piv


def sparse_eliminate(rows):
    """Reduced row echelon form of sparse rows {col: Scalar} as a list
    [(pivot col, reduced row)] in column order."""
    ech = {}
    for r in rows:
        echelon_insert(ech, r)
    return [(c, ech[c]) for c in sorted(ech)]


def first_independent(vectors):
    """The vectors (coordinate tuples) independent of those before them, in
    order: a deterministic basis of their span."""
    ech = {}
    return [v for v in vectors
            if echelon_insert(ech, {j: sc(x) for j, x in enumerate(v)})
            is not None]


def rref(m):
    """Reduced row echelon form of a Matrix as [(pivot col, dense row)]."""
    return [(c, tuple(row.get(j, ZERO) for j in range(m.ncols)))
            for c, row in sparse_eliminate(_rows_to_sparse(m))]


def sparse_kernel(rows, ncols):
    """Kernel basis of the system given by sparse rows; one vector per free
    column, with that free coordinate set to 1 and other free coordinates 0."""
    pivots = sparse_eliminate(rows)
    pivot_set = {c for c, _ in pivots}
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = {f: ONE}
        for c, row in pivots:
            x = row.get(f)
            if x:
                v[c] = -x
        basis.append(v)
    return basis


def rank(m):
    return len(sparse_eliminate(_rows_to_sparse(m)))


def kernel_basis(m):
    """Basis of {x : m x = 0} as a list of coordinate tuples."""
    basis = sparse_kernel(_rows_to_sparse(m), m.ncols)
    return [tuple(v.get(j, ZERO) for j in range(m.ncols)) for v in basis]


def solve(m, rhs):
    """One exact solution of m x = rhs with free variables set to zero, or
    None when the system is inconsistent."""
    if len(rhs) != m.nrows:
        raise ValueError("right-hand side length does not match row count")
    sent = m.ncols  # extra column carrying the right-hand side
    ech = {}
    for r, b in zip(m.entries, rhs):
        d = {j: x for j, x in enumerate(r) if x}
        b = sc(b)
        if b:
            d[sent] = -b
        echelon_insert(ech, d)
    if sent in ech:
        return None
    x = [ZERO] * m.ncols
    for c, row in ech.items():
        v = row.get(sent)
        if v:
            x[c] = -v
    return tuple(x)


def _invert(m):
    """Gauss-Jordan on [m | 1]: (inverse or None when singular, det).  The
    determinant is the product of the pivot values times the sign of the
    permutation taking each row to its pivot column."""
    n = m.nrows
    if m.ncols != n:
        raise ValueError("square matrix needed")
    ech = {}
    cols = []
    d = ONE
    for i, r in enumerate(m.entries):
        row = {j: x for j, x in enumerate(r) if x}
        row[n + i] = ONE
        c, piv = echelon_insert(ech, row)
        if c >= n:
            # the row's part in m lies in the span of the rows before it
            return None, ZERO
        cols.append(c)
        d = d * piv
    if sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:]) % 2:
        d = -d
    inv = Matrix([[ech[c].get(n + j, ZERO) for j in range(n)]
                  for c in range(n)], ncols=n)
    return inv, d


def det(m):
    """Determinant of a square matrix (zero when singular)."""
    return _invert(m)[1]


def inverse(m):
    """(inverse, determinant) of a square matrix from one elimination;
    raises ValueError when the matrix is singular."""
    inv, d = _invert(m)
    if inv is None:
        raise ValueError("matrix is singular")
    return inv, d


def signature(m):
    """Signature (p, q) of a symmetric matrix by exact congruence
    diagonalisation; p + q + nullity = size."""
    if not m.is_symmetric():
        raise ValueError("signature needs a symmetric matrix")
    n = m.nrows
    a = [list(r) for r in m.entries]
    p = q = 0
    for k in range(n):
        if a[k][k].is_zero():
            # bring a nonzero onto the diagonal: first try a later diagonal
            # entry, else fold in a row with a nonzero off-diagonal entry
            swap = next((i for i in range(k + 1, n) if a[i][i]), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    continue  # row and column k are identically zero
                for t in range(n):
                    a[k][t] = a[k][t] + a[j][t]
                for t in range(n):
                    a[t][k] = a[t][k] + a[t][j]
        piv = a[k][k]
        if piv.is_zero():
            continue
        if piv.sign() > 0:
            p += 1
        else:
            q += 1
        # Schur complement step; congruence to piv (+) trailing block keeps
        # the trailing block symmetric and the inertia additive
        for i in range(k + 1, n):
            f = a[i][k] / piv
            if f:
                for t in range(k + 1, n):
                    if a[k][t]:
                        a[i][t] = a[i][t] - f * a[k][t]
        for i in range(k + 1, n):
            a[i][k] = ZERO
            a[k][i] = ZERO
    return p, q
