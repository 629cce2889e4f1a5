"""Exact scalars over Q or a real quadratic field Q(sqrt(m)), and dense exact
linear algebra on top of them.

A scalar is a + b*sqrt(m) with rational a, b and a fixed squarefree m >= 2
(b = 0 and m = None for plain rationals).  Signs, comparisons and therefore
all pivoting decisions are exact: sign(a + b*sqrt(m)) reduces to comparing
a^2 with m*b^2.  A scalar is held in Python ints as (p + q*sqrt(m))/d, kept
in lowest terms by one gcd per operation, so coefficient growth during
elimination stays tame without Bareiss-style bookkeeping; fractions.Fraction
appears only at the edges (the a and b properties, the constructor).  A
comparison builds no temporary: the sign of the integer cross-difference
decides it, by the rule sign() applies to one scalar.

Linear algebra entry points:
- echelon_insert, the one exact Gauss-Jordan step every exact elimination
  in the package goes through: insert a sparse row {key: Scalar} into a
  reduced echelon and report whether it was independent and its pivot
  value; echelon_reduce is its reduction half;
- sparse_eliminate (the reduced row echelon form, exact or mod p), rank
  and kernel_basis (the small dense systems, solved exactly), all built on
  echelon_insert;
- dual_basis, the one tagged Gauss-Jordan pass: the rows independent of
  those before them, completed by unit vectors, and the columns and the
  determinant of the inverse of that square matrix; inverse reads a
  square matrix's inverse off it;
- signature, by congruence diagonalisation;
- the large systems, eliminated modulo primes: sparse_kernel (the kernel
  bases of ihsheaf's integer section systems, certified exactly), and the
  rows of ihsheaf.GradedIH's selection, mapped to ints mod p by
  residue_map.
The pivot of a row is its smallest key, so reduced echelons, bases and
pivots are the same for any insertion order and from run to run.

Sums of products.  Every dense sum of products of the package is one
integer inner product: vdot, Matrix.apply, Matrix.mul and the weighted
product gram (the matrix of sum_k left[i][k] * weights[k] * right[j][k])
clear each row once to ints A + B*sqrt(m) over one denominator, sum the
products as Python ints and reduce each result once, to the canonical
Scalar that a loop of Scalar products and sums would give.

Integer rows.  sparse_kernel takes its rows in integers: a pair (A, B) of
dicts {col: int} for the row A + B*sqrt(m), with B empty over Q, and the
radicand m (None over Q).  Scaling a row leaves the kernel alone, so a
caller builds its rows in integers from the start, as ihsheaf's section
systems do.

Elimination mod p.  echelon_insert_modp is the same step with Python ints
modulo a 61-bit prime p = 3 mod 4 from one endless sequence (_embedding);
over Q(sqrt(m)) p is one in which m is a square, with sqrt(m) -> s, and a
kernel is eliminated under both s and p - s, whose images of a + b*sqrt(m)
give a and b.  Values are recovered by Wang rational reconstruction from
one prime, or from the Chinese remainder of the next ones when that fails.
Two users eliminate mod p, each result certified in exact integers:
- sparse_kernel takes its rows cleared of denominators, reconstructs the
  reduced echelon and checks every row against every kernel vector; with
  the identity on the free columns this is the very basis the exact
  elimination returns.  sparse_kernel inserts rows by descending smallest
  key: earlier rows then seldom hold a new pivot;
- ihsheaf.GradedIH builds its candidate rows from residues (residue_map)
  and reconstructs nothing: vectors independent mod p are independent.
  It certifies that none were missed by checking that the pairing between
  complementary gradings is perfect, and otherwise selects exactly,
  counted as one fallback, as it does when p divides a denominator.
A kernel's modular path gives up when its pivots change from one prime to
the next or no reconstruction passes the check within _MAX_PRIMES primes;
the kernel is then recomputed on the exact path, on its rows rebuilt as
Scalars, and modp_fallbacks goes up by 1.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import sys
from fractions import Fraction as _Q
from math import gcd, isqrt, lcm

_mul = operator.mul
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_HASH_P = sys.hash_info.modulus


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


def _qhash(n, d):
    """hash(Fraction(n, d)) for d > 0, without building the Fraction: the
    numeric hash n/d mod the hash modulus depends on the value alone."""
    if d == 1:
        return hash(n)
    if d % _HASH_P == 0:
        return hash(_Q(n, d))
    h = hash(abs(n) * pow(d, -1, _HASH_P))
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


class Scalar:
    """Element a + b*sqrt(m) of Q (m is None, b = 0) or Q(sqrt(m)), held as
    Python ints p, q, d with a + b*sqrt(m) = (p + q*sqrt(m))/d in canonical
    form: d > 0, gcd(p, q, d) = 1, and q = 0 exactly when m is None.  So
    equal scalars have equal (p, q, d, m), and every operation is integer
    products and one gcd.  Immutable, so the hash is computed on the first
    hash() and kept in _hash (left unset until then: most scalars are never
    hashed)."""

    __slots__ = ("p", "q", "d", "m", "_hash")

    def __init__(self, a, b=0, m=None):
        """a + b*sqrt(m) from rationals a and b (ints, Fractions or anything
        Fraction accepts)."""
        if not isinstance(a, (int, _Q)):
            a = _Q(a)
        if not isinstance(b, (int, _Q)):
            b = _Q(b)
        if not b:
            m = None
        elif m is None:
            raise ValueError("irrational part without a radicand")
        # a and b are in lowest terms, so over their lcm the three are
        # coprime
        da, db = a.denominator, b.denominator
        d = lcm(da, db)
        self.p = a.numerator * (d // da)
        self.q = b.numerator * (d // db)
        self.d = d
        self.m = m

    @property
    def a(self):
        """The rational part, a Fraction."""
        return _Q(self.p, self.d)

    @property
    def b(self):
        """The coefficient of sqrt(m), a Fraction (0 over Q)."""
        return _Q(self.q, self.d)

    def _join(self, other):
        """Common radicand for a binary operation, or raise on a mismatch."""
        if self.m is None:
            return other.m
        if other.m is None or other.m == self.m:
            return self.m
        raise ValueError(f"mixed radicands {self.m} and {other.m}")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = sc(other)
        m = self.m if self.m == other.m else self._join(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.p + other.p, self.q + other.q, d1, m)
        return _reduced(self.p * d2 + other.p * d1,
                        self.q * d2 + other.q * d1, d1 * d2, m)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.p, -self.q, self.d, self.m)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = sc(other)
        m = self.m if self.m == other.m else self._join(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.p - other.p, self.q - other.q, d1, m)
        return _reduced(self.p * d2 - other.p * d1,
                        self.q * d2 - other.q * d1, d1 * d2, m)

    def __rsub__(self, other):
        return sc(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = sc(other)
        m = self.m if self.m == other.m else self._join(other)
        p1, q1, p2, q2 = self.p, self.q, other.p, other.q
        if m is None:
            return _reduced(p1 * p2, 0, self.d * other.d, None)
        return _reduced(p1 * p2 + m * q1 * q2, p1 * q2 + q1 * p2,
                        self.d * other.d, m)

    __rmul__ = __mul__

    def inverse(self):
        p, q, d = self.p, self.q, self.d
        if not q:
            if not p:
                raise ZeroDivisionError("scalar division by zero")
            # p and d are coprime already
            return _raw(d, 0, p, None) if p > 0 else _raw(-d, 0, -p, None)
        # d / (p + q sqrt(m)) = d (p - q sqrt(m)) / (p^2 - m q^2), and the
        # norm is nonzero for squarefree m >= 2 and (p, q) != 0
        return _reduced(d * p, -d * q, p * p - self.m * q * q, self.m)

    def __truediv__(self, other):
        return self * sc(other).inverse()

    def __rtruediv__(self, other):
        return sc(other) * self.inverse()

    def __pow__(self, k):
        """Square and multiply from the base: x**1 is x itself and no
        square is taken past the top bit of k."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        if not k:
            return ONE
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    # -- order ------------------------------------------------------------

    def sign(self):
        """Exact sign in {-1, 0, 1}: that of p + q*sqrt(m), as d > 0."""
        return _sign(self.p, self.q, self.m)

    def _cmp(self, other):
        """The sign of self - other, from the integer cross-differences
        (p1*d2 - p2*d1) + (q1*d2 - q2*d1)*sqrt(m) over d1*d2 > 0, with no
        Scalar built; mixed radicands raise ValueError."""
        if type(other) is not Scalar:
            other = sc(other)
        m = self.m if self.m == other.m else self._join(other)
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _sign(self.p - other.p, self.q - other.q, m)
        return _sign(self.p * d2 - other.p * d1, self.q * d2 - other.q * d1, m)

    def __bool__(self):
        return bool(self.p or self.q)

    def __eq__(self, other):
        if type(other) is not Scalar:
            try:
                other = sc(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.p == other.p and self.q == other.q \
            and self.d == other.d and self.m == other.m

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # a rational hashes like the equal Fraction, so like the equal int
        # too (they compare equal to it); a + b*sqrt(m) like (a, b, m)
        p, d = self.p, self.d
        h = self._hash = _qhash(p, d) if not self.q else \
            hash((_qhash(p, d), _qhash(self.q, d), self.m))
        return h

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        if self.b == 0:
            return float(self.a)
        return float(self.a) + float(self.b) * float(self.m) ** 0.5

    def __repr__(self):
        return format_scalar(self)


_new = object.__new__


def _sign(p, q, m):
    """The sign of p + q*sqrt(m) in {-1, 0, 1} (q = 0 when m is None)."""
    if not q:
        return -1 if p < 0 else (1 if p > 0 else 0)
    if not p or (p > 0) == (q > 0):
        return 1 if q > 0 else -1
    # opposite signs: the larger of p^2 and m q^2 decides (never equal for
    # squarefree m >= 2)
    return (1 if p > 0 else -1) if p * p > m * q * q else \
        (1 if q > 0 else -1)


def _raw(p, q, d, m):
    """The Scalar (p + q*sqrt(m))/d, already in canonical form."""
    s = _new(Scalar)
    s.p = p
    s.q = q
    s.d = d
    s.m = m
    return s


def _reduced(p, q, d, m):
    """The Scalar (p + q*sqrt(m))/d for any d != 0, made canonical by one
    gcd (and m dropped when q = 0)."""
    if not q:
        m = None
    if d != 1:
        g = gcd(p, q, d)
        if d < 0:
            g = -g
        if g != 1:
            p //= g
            q //= g
            d //= g
    s = _new(Scalar)
    s.p = p
    s.q = q
    s.d = d
    s.m = m
    return s


ZERO = _raw(0, 0, 1, None)
ONE = _raw(1, 0, 1, None)


def sc(x):
    """x as a Scalar: a Scalar as it is, an int or anything Fraction
    accepts as a rational."""
    if type(x) is Scalar:
        return x
    if type(x) is int:
        return _raw(x, 0, 1, None)
    return Scalar(_Q(x))


# -- literal grammar -------------------------------------------------------
#
#   INT[/INT]                      rational
#   INT[/INT](+|-)INT[/INT]rM      a + b*sqrt(M), e.g. 1+1r2, -3/2-1/2r5

_LIT = re.compile(r"^(-?\d+)(?:/(\d+))?(?:([+-]\d+)(?:/(\d+))?r(\d+))?$")


def parse_scalar(text, field=None):
    lit = _LIT.match(text.strip())
    if not lit:
        raise ValueError(f"bad scalar literal: {text!r}")
    an, ad, bn, bd, rad = lit.groups()
    an, ad = int(an), int(ad or 1)
    bn, bd = (int(bn), int(bd or 1)) if rad else (0, 1)
    if not ad or not bd:
        raise ValueError(f"bad scalar literal: {text!r} (zero denominator)")
    s = _reduced(an * bd, bn * ad, ad * bd, int(rad) if rad else None)
    if s.m is not None and (s.m < 2 or not _is_squarefree(s.m)):
        raise ValueError(f"radicand must be squarefree and >= 2: {s.m}")
    if field is not None:
        field.check(s)
    return s


def format_scalar(s):
    if not s.q:
        return str(s.a)
    b = str(s.b)
    if not b.startswith("-"):
        b = "+" + b
    return f"{s.a}{b}r{s.m}"


def json_int(x, what):
    """x when it is a JSON integer; a bool (an int to Python), a float or a
    string raises ValueError naming what x stands for."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ValueError(f"{what} must be an integer, got {x!r}")


def json_list(x, what):
    """x when it is a JSON list; else ValueError naming what x stands for."""
    if isinstance(x, list):
        return x
    raise ValueError(f"{what} must be a list, got {x!r}")


def json_scalar(x, field, what):
    """x as a scalar of field when it is a JSON integer or a scalar literal
    string; a bool, a float or null raises ValueError naming what x is."""
    if isinstance(x, int) and not isinstance(x, bool):
        return sc(x)
    if isinstance(x, str):
        return parse_scalar(x, field)
    raise ValueError(f"bad {what} {x!r} (use integers or scalar literals)")


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

    def to_json(self):
        return "Q" if self.m is None else {"sqrt": self.m}

    @staticmethod
    def from_json(obj):
        if obj == "Q":
            return ScalarField()
        if isinstance(obj, dict) and set(obj) == {"sqrt"}:
            return ScalarField(json_int(obj["sqrt"], "the field's radicand"))
        raise ValueError(f"bad field description: {obj!r}")

    def __eq__(self, other):
        return isinstance(other, ScalarField) and self.m == other.m

    def __hash__(self):
        return hash(("ScalarField", self.m))

    def __repr__(self):
        return "Q" if self.m is None else f"Q(sqrt({self.m}))"


# -- matrices --------------------------------------------------------------


class Matrix:
    """Dense matrix of Scalars; rows are tuples, entries immutable by habit.
    Products (mul, apply) are integer inner products (see gram)."""

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

    def columns(self):
        """The columns as tuples (ncols empty ones when there are no rows)."""
        return list(zip(*self.entries)) if self.entries else \
            [()] * self.ncols

    def transpose(self):
        return Matrix(self.columns(), ncols=self.nrows)

    def mul(self, other):
        """The product self . other: the weighted product (gram) of the
        rows of self and the columns of other, without weights."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        return gram(self.entries, None, other.columns())

    def apply(self, vec):
        """The vector self . vec: the inner product of each row with vec."""
        if self.ncols != len(vec):
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple(r[0] for r in
                     gram(self.entries, None, [tuple(map(sc, vec))]).entries)

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


# -- the integer inner product ------------------------------------------------
#
# Every dense sum of products of the package is one integer inner product:
# each operand row is cleared once to ints A + B*sqrt(m) over one
# denominator (_ints), the products are summed as Python ints (_inner), and
# each sum is reduced once (_reduced), to the canonical Scalar that a loop
# of Scalar products and sums would give.


def _ints(row):
    """(A, B, den, m) for a row of Scalars: int lists with row[k] = (A[k] +
    B[k]*sqrt(m))/den, den > 0 the lcm of the row's denominators; B and m
    are None on a rational row.  Raises ValueError when the row mixes two
    radicands."""
    a, b, ds = [], [], []
    den, m = 1, None
    for x in row:
        a.append(x.p)
        b.append(x.q)
        d = x.d
        ds.append(d)
        if den % d:
            den = lcm(den, d)
        if x.q and x.m != m:
            if m is not None:
                raise ValueError(f"mixed radicands {m} and {x.m}")
            m = x.m
    if den != 1:
        scale = [den // d for d in ds]
        a = list(map(_mul, a, scale))
        if m is not None:
            b = list(map(_mul, b, scale))
    return a, (None if m is None else b), den, m


def radicand(ms):
    """The one radicand among ms, the radicands of some scalars or of
    cleared rows, None when all are (rational); raises ValueError when
    there are two."""
    ms = set(ms)
    ms.discard(None)
    if len(ms) > 1:
        raise ValueError(f"mixed radicands {sorted(ms)}")
    return ms.pop() if ms else None


def _inner(a, b, c, e, den, m):
    """The Scalar sum_k (a[k] + b[k]*sqrt(m)) * (c[k] + e[k]*sqrt(m)) / den
    of two cleared rows (b or e None for a rational row), over zip's
    length: the products summed as ints and reduced once."""
    p = sum(map(_mul, a, c))
    if b is None:
        if e is None:
            return _reduced(p, 0, den, None)
        return _reduced(p, sum(map(_mul, a, e)), den, m)
    if e is None:
        return _reduced(p, sum(map(_mul, b, c)), den, m)
    return _reduced(p + m * sum(map(_mul, b, e)),
                    sum(map(_mul, a, e)) + sum(map(_mul, b, c)), den, m)


def vdot(u, v):
    """The inner product sum_k u[k] * v[k] of two rows of Scalars, over
    zip's length."""
    a, b, du, mu = _ints(u)
    c, e, dv, mv = _ints(v)
    return _inner(a, b, c, e, du * dv,
                  mu if mu == mv else radicand((mu, mv)))


def gram(left, weights, right):
    """Matrix of sum_k left[i][k] * weights[k] * right[j][k], one row per
    row of left and one column per row of right (rows of Scalars), with no
    weights when weights is None: cleared_gram of the cleared rows."""
    return cleared_gram(clear_rows(left), weights, clear_rows(right))


def clear_rows(rows):
    """Each row of Scalars cleared once (_ints), as cleared_gram takes
    them: a caller that multiplies the same rows again keeps these."""
    return tuple(_ints(r) for r in rows)


def cleared_gram(lefts, weights, rights):
    """gram of rows cleared by clear_rows, which it does not write.  The
    weights are cleared once and multiplied into the left rows as ints, and
    each entry is one integer inner product, reduced once."""
    ms = [r[3] for r in lefts + rights]
    if weights is None:
        m = radicand(ms)
    else:
        w, v, dw, mw = _ints(weights)
        m = radicand(ms + [mw])
        lefts = [(*_weighted(a, b, w, v, m), den * dw, m)
                 for a, b, den, _ in lefts]
    out = _new(Matrix)
    out.entries = tuple([tuple([_inner(a, b, c, e, da * dc, m)
                                for c, e, dc, _ in rights])
                         for a, b, da, _ in lefts])
    out.nrows, out.ncols = len(lefts), len(rights)
    return out


def _weighted(a, b, w, v, m):
    """(A, B) for the entrywise product of the cleared rows a + b*sqrt(m)
    and w + v*sqrt(m) (b or v None for a rational row)."""
    if v is None:
        return (list(map(_mul, a, w)),
                None if b is None else list(map(_mul, b, w)))
    if b is None:
        return list(map(_mul, a, w)), list(map(_mul, a, v))
    return ([x * y + m * s * t for x, s, y, t in zip(a, b, w, v)],
            [x * t + s * y for x, s, y, t in zip(a, b, w, v)])


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


def sparse_eliminate(rows, p=None):
    """Reduced row echelon form of sparse rows {col: Scalar}, or mod p of
    rows {col: int}, as a list [(pivot col, reduced row)] in column order."""
    ech = {}
    for r in rows:
        if p is None:
            echelon_insert(ech, r)
        else:
            echelon_insert_modp(ech, r, p)
    return [(c, ech[c]) for c in sorted(ech)]


def sparse_kernel(rows, ncols, m):
    """Kernel basis of the system of integer rows (A, B), each the row
    A + B*sqrt(m) of dicts {col: int} (B empty over Q, where m is None);
    one vector per free column, with that free coordinate set to 1 and
    other free coordinates 0.  Eliminated modulo primes and certified
    exactly (see _kernel_modp); the exact fallback rebuilds the rows as
    Scalars."""
    basis = _kernel_modp(rows, ncols, m)
    if basis is None:
        record_fallback()
        basis = _kernel_exact(
            [{k: Scalar(a.get(k, 0), b.get(k, 0), m)
              for k in dict.fromkeys(a) | dict.fromkeys(b)}
             for a, b in rows], ncols)
    return basis


def _kernel_exact(rows, ncols):
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
    """Basis of {x : m x = 0} as a list of coordinate tuples, solved
    exactly: the basis sparse_kernel's modular route reproduces."""
    return [tuple(v.get(j, ZERO) for j in range(m.ncols))
            for v in _kernel_exact(_rows_to_sparse(m), m.ncols)]


def dual_basis(rows, k):
    """(basis, comp, duals, det) for rows in R^k: the indices of the rows
    independent of those before them, the first unit vectors that complete
    them, and the columns and determinant of the inverse of that square
    matrix.  The columns dual to the unit vectors are the kernel of the rows
    as the reduced echelon with pivots comp; those dual to the basis rows
    are zero at comp.  One Gauss-Jordan pass on [rows | 1], the only tagged
    elimination of the package: the t-th row kept carries the tag column
    k + t, and a row with nothing left below column k is skipped before it
    is tagged.  The determinant is the product of the pivot values times
    the sign of the permutation taking each kept row to its pivot column."""
    ech, kept, pivots, det = {}, [], [], ONE
    units = ({c: ONE} for c in range(k))
    for i, a in enumerate(itertools.chain(
            (dict(enumerate(a)) for a in rows), units)):
        if len(kept) == k:
            break
        r = echelon_reduce(ech, a)
        if not r or min(r) >= k:
            continue
        r[k + len(kept)] = ONE
        c, piv = echelon_insert(ech, r)
        kept.append(i)
        pivots.append(c)
        det = det * piv
    if sum(a > b for t, a in enumerate(pivots) for b in pivots[t + 1:]) % 2:
        det = -det
    basis = [i for i in kept if i < len(rows)]
    comp = [i - len(rows) for i in kept if i >= len(rows)]
    duals = [tuple(ech[c].get(k + t, ZERO) for c in range(k))
             for t in range(k)]
    return basis, comp, duals, det


def inverse(m):
    """The inverse of a square matrix, read off the dual basis of its rows
    (its columns are the duals); raises ValueError when the matrix is
    singular, that is when a unit vector completes its rows."""
    n = m.nrows
    if m.ncols != n:
        raise ValueError("square matrix needed")
    basis, _, duals, _ = dual_basis(m.entries, n)
    if len(basis) < n:
        raise ValueError("matrix is singular")
    return Matrix(zip(*duals), ncols=n)


def signature(m):
    """Signature (p, q) of a symmetric matrix by exact congruence
    diagonalisation; p + q + nullity = size."""
    if not m.is_symmetric():
        raise ValueError("signature needs a symmetric matrix")
    n = m.nrows
    a = [list(r) for r in m.entries]
    p = q = 0
    for k in range(n):
        if not a[k][k]:
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
        if not piv:
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


# -- certified elimination modulo primes --------------------------------------
#
# What holds mod p for every prime: vectors independent mod p are
# independent (a minor nonzero mod p is nonzero), so a rank mod p is a lower
# bound.  Everything else is checked exactly (see the module docstring).

_MAX_PRIMES = 12   # 732 bits of modulus: entries up to about 2^365

modp_fallbacks = 0


def record_fallback():
    """Count one system recomputed on the exact path."""
    global modp_fallbacks
    modp_fallbacks += 1


@functools.lru_cache(maxsize=1024)
def _embedding(m, i):
    """(p, images of sqrt(m) mod p) for the i-th prime p = 3 mod 4 below 2^61
    counting down (i from 0): (0,) over Q, (s, p - s) with s^2 = m mod p over
    Q(sqrt(m)), None if m is not a square mod p.  Deterministic Miller-Rabin:
    such p below 3.3e24 is prime when a^((p-1)/2) = +-1 mod p for every a in
    _SMALL_PRIMES."""
    if m is not None:
        p = _embedding(None, i)[0]
        s = pow(m, (p + 1) // 4, p)   # s^2 = -m when m is not a square
        return (p, (s, p - s)) if s and s * s % p == m % p else None
    p = _embedding(None, i - 1)[0] if i else (1 << 61) + 3
    while True:
        p -= 4
        if all(pow(a, (p - 1) // 2, p) in (1, p - 1) for a in _SMALL_PRIMES):
            return p, (0,)


def _embeddings(m):
    """The embeddings of m at each prime of _embedding in which it is a
    square, without end: as -m is not a square, infinitely many serve."""
    return filter(None, map(_embedding, itertools.repeat(m),
                            itertools.count()))


def cleared(vec):
    """(A, B, den): integer dicts with vec = (A + B*sqrt(m)) / den, den > 0,
    without their zero entries; B is empty over Q.  _ints on vec's values.
    Scaling a vector changes neither its independence nor the kernel of a
    row system, and no denominator is left for p to divide."""
    a, b, den, _ = _ints(vec.values())
    return ({k: x for k, x in zip(vec, a) if x},
            {k: x for k, x in zip(vec, b or ()) if x}, den)


def _image(a_part, b_part, t, p):
    """A + B*t mod p, without the entries that vanish."""
    if not b_part:
        return {k: y for k, x in a_part.items() if (y := x % p)}
    keys = dict.fromkeys(a_part) | dict.fromkeys(b_part)
    return {k: y for k in keys
            if (y := (a_part.get(k, 0) + b_part.get(k, 0) * t) % p)}


def echelon_insert_modp(ech, row, p):
    """echelon_insert modulo p: row is {key: int in [1, p)}, ech a reduced
    echelon of such rows, pivot = smallest key.  Returns the pivot key, or
    None when the row lies in the echelon's span mod p."""
    r = dict(row)
    for pk in [k for k in r if k in ech]:
        f = r[pk]
        for k, x in ech[pk].items():
            v = (r.get(k, 0) - f * x) % p
            if v:
                r[k] = v
            else:
                r.pop(k, None)
    if not r:
        return None
    pk = min(r)
    inv = pow(r[pk], -1, p)
    r = {k: x * inv % p for k, x in r.items()}
    for other in ech.values():
        f = other.get(pk)
        if f:
            for k, x in r.items():
                v = (other.get(k, 0) - f * x) % p
                if v:
                    other[k] = v
                else:
                    del other[k]
    ech[pk] = r
    return pk


def _ratrec(x, mod, bound):
    """Wang's rational reconstruction: (n, d) with n/d = x mod mod, |n| and
    0 < d at most bound, or None."""
    if x <= bound:
        return x, 1
    if mod - x <= bound:
        return x - mod, 1
    r0, r1, t0, t1 = mod, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


class _Residues:
    """Field elements a + b*sqrt(m) known modulo a growing product of primes
    (Chinese remaindering), keyed; lift() reconstructs them."""

    def __init__(self):
        self.mod = 1
        self.res = {}   # key -> (a, b) mod self.mod

    def add(self, p, ts, images):
        """images: key -> the element's images under the embeddings ts."""
        if len(ts) == 2:
            half, half_root = (p + 1) // 2, pow(2 * ts[0], -1, p)
            images = {k: ((x1 + x2) * half % p, (x1 - x2) * half_root % p)
                      for k, (x1, x2) in images.items()}
        else:
            images = {k: (x, 0) for k, (x,) in images.items()}
        mod = self.mod
        if mod == 1:
            self.res = images
        else:
            inv = pow(mod % p, -1, p)
            res = self.res
            for k in dict.fromkeys(res) | dict.fromkeys(images):
                a0, b0 = res.get(k, (0, 0))
                a1, b1 = images.get(k, (0, 0))
                res[k] = (a0 + mod * ((a1 - a0) * inv % p),
                          b0 + mod * ((b1 - b0) * inv % p))
        self.mod = mod * p

    def lift(self):
        """key -> (n_a, d_a, n_b, d_b) with a = n_a/d_a and b = n_b/d_b, or
        None when some element does not reconstruct."""
        mod, bound, memo = self.mod, isqrt(self.mod // 2), {}
        out = {}
        for k, pair in self.res.items():
            got = []
            for x in pair:
                q = memo.get(x)
                if q is None:
                    q = memo[x] = _ratrec(x, mod, bound)
                    if q is None:
                        return None
                got += q
            out[k] = tuple(got)
        return out


def _scalar(n_a, d_a, n_b, d_b, m):
    """The Scalar n_a/d_a + (n_b/d_b)*sqrt(m) from two fractions in lowest
    terms (d_b = 1 when n_b = 0): over their lcm it is canonical as it
    stands."""
    den = lcm(d_a, d_b)
    return _raw(n_a * (den // d_a), n_b * (den // d_b), den,
                m if n_b else None)


def _kernel_modp(rows, ncols, m):
    """sparse_kernel through primes, or None.  The kernel vector of free
    column f is e_f - sum over pivots c of R[c][f] e_c, with R the reduced
    echelon reconstructed from its images.  The check that every row is 0
    on every such vector gives K in ker with |K| = ncols - rank mod p >=
    dim ker, so K is a basis; R then has only entries right of its pivots,
    so its pivots are those of the exact echelon and K is the very basis of
    _kernel_exact.  The distinct rows go in by descending smallest key, ties
    in their given order: any order gives the same echelon, and in this one
    the rows before a new row start at or right of its smallest key, so its
    pivot is rarely cleared out of them."""
    # repeated rows add nothing to the kernel
    distinct = sorted({(tuple(a.items()), tuple(b.items())): (a, b)
                       for a, b in rows if a or b}.values(),
                      key=lambda ab: min(itertools.chain(*ab)), reverse=True)
    pivots = None
    used = distinct
    residues = _Residues()
    for p, ts in itertools.islice(_embeddings(m), _MAX_PRIMES):
        echs = []
        for t in ts:
            ech, independent = {}, []
            for a_part, b_part in used:
                r = _image(a_part, b_part, t, p)
                if r and echelon_insert_modp(ech, r, p) is not None:
                    independent.append((a_part, b_part))
            if pivots is None:
                # the rows independent mod the first prime span the others
                # unless the check below fails; later eliminations use them
                pivots, used = sorted(ech), independent
            elif sorted(ech) != pivots:
                return None
            echs.append(ech)
        images = {}
        for c in pivots:
            rs = [e[c] for e in echs]
            for f in dict.fromkeys(k for r in rs for k in r):
                if f != c:
                    images[(f, c)] = tuple(r.get(f, 0) for r in rs)
        residues.add(p, ts, images)
        entries = residues.lift()
        if entries is not None:
            basis = _checked_kernel(distinct, pivots, entries, ncols, m)
            if basis is not None:
                return basis
    return None


def _checked_kernel(rows, pivots, entries, ncols, m):
    """The kernel basis from the reconstructed entries {(free, pivot):
    R[pivot][free]} when every row vanishes on it exactly, else None."""
    by_free = {}
    for (f, c), e in sorted(entries.items()):
        by_free.setdefault(f, {})[c] = e
    # integer form of each kernel vector: den_f * v_f, split into the
    # rational (u) and sqrt(m) (w) parts on the pivots
    den = {}
    u_piv = {c: {} for c in pivots}
    w_piv = {c: {} for c in pivots}
    basis = []
    pivot_set = set(pivots)
    for f in range(ncols):
        if f in pivot_set:
            continue
        col = by_free.get(f, {})
        d = lcm(*(e[1] for e in col.values()), *(e[3] for e in col.values()))
        den[f] = d
        v = {f: ONE}
        for c, (na, da, nb, db) in col.items():
            u_piv[c][f] = -na * (d // da)
            if nb:
                w_piv[c][f] = -nb * (d // db)
            v[c] = _scalar(-na, da, -nb, db, m)
        basis.append(v)
    for a_part, b_part in rows:
        # acc[f] = (row . den_f v_f), rational and sqrt(m) parts
        acc_a, acc_b = {}, {}
        for part, x_acc, y_acc, mult in ((a_part, acc_a, acc_b, 1),
                                         (b_part, acc_b, acc_a, m)):
            for k, x in part.items():
                if k in den:
                    x_acc[k] = x_acc.get(k, 0) + x * den[k]
                    continue
                for f, u in u_piv[k].items():
                    x_acc[f] = x_acc.get(f, 0) + x * u
                for f, w in w_piv[k].items():
                    y_acc[f] = y_acc.get(f, 0) + mult * x * w
        if any(acc_a.values()) or any(acc_b.values()):
            return None
    return basis


def residue_map(m):
    """(P, residue) for the field Q(sqrt(m)), Q when m is None: P is the
    first prime of _embeddings(m), and residue maps (p + q*sqrt(m))/d to
    (p + q*s) * d^-1 mod P, s the first image of sqrt(m), a ring map on the
    field's scalars whose denominators P does not divide.  It raises
    ValueError on any other scalar."""
    prime, (s, *_) = next(_embeddings(m))

    def residue(x):
        d = x.d
        if not d % prime or x.q and x.m != m:
            raise ValueError(f"{x!r} has no residue mod {prime}")
        # an integer, as every face-ring basis coefficient is, needs no
        # modular inverse
        if d == 1:
            return (x.p + x.q * s) % prime
        return (x.p + x.q * s) * pow(d, -1, prime) % prime

    return prime, residue
