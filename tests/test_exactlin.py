import functools
import itertools
import json
import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from ihfan import exactlin
from ihfan.exactlin import (
    _Q,
    ONE,
    ZERO,
    Matrix,
    Scalar,
    ScalarField,
    echelon_insert,
    format_scalar,
    gram,
    inverse,
    kernel_basis,
    parse_scalar,
    rank,
    sc,
    signature,
    sparse_kernel,
    vdot,
)
from oracles import (gram_loop, independent_modp, mul_loop, solve,
                     tagged_inverse, vdot_loop)


def S(text):
    return parse_scalar(text)


def scalar_kernel(rows, ncols):
    """sparse_kernel on sparse Scalar rows, given to it as integer rows."""
    return sparse_kernel([exactlin.cleared(r)[:2] for r in rows], ncols,
                         exactlin.radicand(
                             x.m for r in rows for x in r.values()))


# -- scalar arithmetic and order ------------------------------------------


def test_rational_arithmetic():
    a = S("1/2")
    b = S("-3")
    assert a + b == S("-5/2")
    assert a * b == S("-3/2")
    assert a - b == S("7/2")
    assert b / a == S("-6")
    assert (a + b).sign() == -1


def test_quadratic_arithmetic():
    r2 = S("0+1r2")
    assert r2 * r2 == sc(2)
    x = S("1+1r2")
    assert x * x == S("3+2r2")
    assert x.inverse() == S("-1+1r2")
    assert x * x.inverse() == sc(1)


def test_sqrt2_sign_cases():
    # 3 - 2*sqrt(2) > 0 but 1 - sqrt(2) < 0: sign needs the squared compare
    assert S("3-2r2").sign() == 1
    assert S("1-1r2").sign() == -1
    assert S("-3+2r2").sign() == -1
    assert S("-1+1r2").sign() == 1
    assert S("0+1r2") > S("7/5")
    assert S("0+1r2") < S("3/2")


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        S("0+1r2") + S("0+1r3")


def test_rational_result_drops_radicand():
    x = S("1+1r2") * S("1-1r2")
    assert x == sc(-1)
    assert x.m is None


def _is_canonical(x):
    """(p + q sqrt(m))/d with d > 0, gcd(p, q, d) = 1 and q = 0 exactly when
    m is None."""
    return (all(type(v) is int for v in (x.p, x.q, x.d)) and x.d > 0
            and gcd(x.p, x.q, x.d) == 1 and (x.q == 0) == (x.m is None))


def test_scalar_is_held_in_canonical_form():
    made = [Scalar(3), Scalar(-4, 0, 2), Scalar(Fraction(6, -8)),
            Scalar(_Q(3, 4), _Q(-1, 6), 2), Scalar(_Q(1), _Q(-1, 2), 2),
            S("12/18-4/6r2"), Scalar(True), sc(Fraction(-10, 4)), S("0/7"),
            S("-6/4+10/4r5"), S("4/6+0r3"), ZERO, ONE]
    assert all(_is_canonical(x) for x in made)
    assert [(x.p, x.q, x.d, x.m) for x in made[:6]] == [
        (3, 0, 1, None), (-4, 0, 1, None), (-3, 0, 4, None),
        (9, -2, 12, 2), (2, -1, 2, 2), (2, -2, 3, 2)]
    # the parts read back as Fractions, equal to what was given; Fraction is
    # the one rational type, at the edges only
    assert _Q is Fraction
    x = Scalar(_Q(3, 4), _Q(-1, 6), 2)
    assert (x.a, x.b) == (Fraction(3, 4), Fraction(-1, 6))
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert Scalar(Fraction(3, 4)) == S("3/4") and Scalar(_Q(3, 4), 0, 2).m \
        is None
    assert Scalar(_Q(1), _Q(-1, 2), 2) == S("1-1/2r2")
    # equal p and q over another d is another value
    assert S("1/2") != S("1/3") and S("1/2+1/2r2") != S("1/3+1/3r2")
    rng = random.Random(5)
    for m in (None, 2, 5):
        pool = [x for x in made if x.m in (None, m)] + [
            Scalar(_Q(rng.randint(-40, 40), rng.randint(1, 12)),
                   _Q(rng.randint(-40, 40), rng.randint(1, 12))
                   if m else 0, m) for _ in range(12)]
        for x, y in itertools.product(pool, repeat=2):
            got = [x + y, x - y, x * y, -x, x ** 3, x - x]
            if y:
                got += [x / y, y.inverse()]
            assert all(_is_canonical(z) for z in got), (x, y)


def _ref_sign(a, b, m):
    """Sign of a + b sqrt(m) the textbook way: a^2 against m b^2."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    d = a * a - m * b * b
    return (d > 0) - (d < 0) if a > 0 else (d < 0) - (d > 0)


def test_scalar_arithmetic_matches_fraction_pairs():
    # a reference over pairs (a, b) of Fractions meaning a + b sqrt(m), with
    # numerators and denominators past 2^64
    rng = random.Random(20)
    big = 2 ** 70

    def draw_pair(m):
        def rat():
            if rng.random() < 0.2:
                return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            return Fraction(rng.randint(-big, big), rng.randint(1, big))
        return rat(), rat() if m and rng.random() < 0.8 else Fraction(0)

    def check(x, ref, m):
        a, b = ref
        assert (x.a, x.b) == (a, b), (x, ref)
        assert x.m == (m if b else None)

    for m in (None, 2, 5):
        pairs = [draw_pair(m) for _ in range(40)]
        pairs += pairs[:5]     # repeats, so that == also meets equal values
        for (a1, b1), (a2, b2) in itertools.product(pairs, repeat=2):
            x, y = Scalar(a1, b1, m), Scalar(a2, b2, m)
            mm = m or 0
            check(x + y, (a1 + a2, b1 + b2), m)
            check(x - y, (a1 - a2, b1 - b2), m)
            check(x * y, (a1 * a2 + mm * b1 * b2, a1 * b2 + b1 * a2), m)
            n = a2 * a2 - mm * b2 * b2
            if n:
                check(x / y, ((a1 * a2 - mm * b1 * b2) / n,
                              (b1 * a2 - a1 * b2) / n), m)
            assert x.sign() == _ref_sign(a1, b1, mm)
            assert (x == y) == ((a1, b1) == (a2, b2))
            assert (x < y) == (_ref_sign(a1 - a2, b1 - b2, mm) < 0)
            if x == y:
                assert hash(x) == hash(y)
            if not b1:
                assert hash(x) == hash(a1) and x == a1


def test_subtraction_matches_adding_the_negation():
    rng = random.Random(11)

    def draw(m):
        a = _Q(rng.randint(-9, 9), rng.randint(1, 6))
        if m is None or rng.random() < 0.3:
            return Scalar(a)
        return Scalar(a, _Q(rng.randint(-9, 9), rng.randint(1, 6)), m)

    for m in (None, 2):
        for _ in range(50):
            x, y = draw(m), draw(m)
            d = x - y
            assert d == x + (-y)
            assert d.m == (x + (-y)).m
            assert d + y == x
            assert 7 - x == sc(7) + (-x)


def test_difference_with_vanishing_root_part_is_rational():
    x = S("1+1r2") - S("0+1r2")
    assert x.m is None and x.b == 0
    assert x == ONE and hash(x) == hash(1)
    assert not (x - ONE)


def test_equal_scalars_hash_equal():
    # the hash is cached on first use; equal values must hash equal however
    # they were computed and whichever was hashed first
    third = sc(1) / sc(3)
    paths = [third, sc(2) / sc(6), ONE - sc(2) / sc(3), third * third * sc(3),
             (sc(1) / sc(9)).inverse().inverse() * sc(3)]
    assert all(x == third for x in paths)
    assert len({hash(x) for x in paths}) == 1
    # rational scalars against the equal int and Fraction
    assert hash(sc(7) - sc(2)) == hash(5) and sc(7) - sc(2) == 5
    assert hash(sc(3) / sc(4)) == hash(Fraction(3, 4))
    assert {Fraction(3, 4): "f"}[sc(3) / sc(4)] == "f"
    # a Q(sqrt m) product whose root part cancels, against the rational
    r = S("1+1r2") * S("1-1r2")
    assert r.m is None and r == -1 and hash(r) == hash(sc(-1)) == hash(-1)
    s = S("1/2+3/4r5") + S("1/2-3/4r5")
    assert s == ONE and hash(s) == hash(ONE)
    # irrational values from two paths; hashed before and after keying a dict
    x = S("1+1r2") * S("1+1r2")
    y = S("3+2r2")
    h = hash(x)
    table = {x: "x"}
    assert table[y] == "x" and hash(x) == h == hash(y)
    z = S("2+1r2") + S("1+1r2")
    assert z in table and hash(z) == h


def test_literal_roundtrip():
    for text in ["0", "5", "-7/3", "1+1r2", "-3/2-1/2r5", "0+1r2"]:
        assert format_scalar(S(text)) == text


def test_literal_rejects():
    for text in ["", "1.5", "1+r2", "r2", "1 + 1r2x", "2/0"]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            S(text)


def test_literal_rejects_nonsquarefree_radicand():
    with pytest.raises(ValueError):
        S("0+1r4")
    with pytest.raises(ValueError):
        S("0+1r12")
    with pytest.raises(ValueError):
        S("0+1r1")


def test_field_parse_and_json():
    f = ScalarField(2)
    assert f.parse("1+1r2").m == 2
    with pytest.raises(ValueError):
        f.parse("0+1r3")
    assert ScalarField.from_json("Q") == ScalarField()
    assert ScalarField.from_json({"sqrt": 5}) == ScalarField(5)
    assert f.to_json() == {"sqrt": 2}
    assert ScalarField().to_json() == "Q"


def test_power():
    assert S("1+1r2") ** 0 == sc(1)
    assert S("1+1r2") ** 3 == S("7+5r2")
    assert sc(3) ** 4 == sc(81)


def _order_pool(m, seed):
    """Seeded scalars of Q(sqrt m) (Q when m is None): zeros, negatives,
    denominators past 2^64, the same values reached by two computations,
    and values whose rational parts agree."""
    rng = random.Random(seed)
    big = 2 ** 70

    def rat():
        if rng.random() < 0.5:
            return _Q(rng.randint(-4, 4), rng.randint(1, 4))
        return _Q(rng.randint(-big, big), rng.randint(1, big))

    pool = [ZERO, ONE, -ONE, sc(3) / sc(7)]
    for _ in range(24):
        pool.append(Scalar(rat(), rat() if m and rng.random() < 0.7 else 0,
                           m))
    if m:
        r = Scalar(0, 1, m)
        pool += [r, -r, sc(3) - r, (sc(1) / sc(3)) * r + sc(5) / sc(3),
                 pool[-1] + r]
    # equal values from other computations, and the rational parts alone
    pool += [pool[-1] * sc(5) / sc(5), pool[-2] + ZERO, sc(6) / sc(14)]
    pool += [sc(x.a) for x in pool[4:10]]
    return pool


@pytest.mark.parametrize("m", (None, 2, 5))
def test_order_is_the_sign_of_the_difference(m):
    # the rule the comparisons had: build a - b and take its sign
    for seed in (1, 2):
        pool = _order_pool(m, seed)
        others = pool + [0, 2, -1, _Q(3, 7)]
        for x, y in itertools.product(pool, others):
            want = (x - sc(y)).sign()
            assert (x < y, x <= y, x > y, x >= y) == \
                (want < 0, want <= 0, want > 0, want >= 0), (x, y)
        assert sorted(pool) == sorted(
            pool, key=functools.cmp_to_key(lambda a, b: (a - b).sign()))


def test_order_rejects_mixed_radicands():
    x, y = S("1+1r2"), S("1+1r5")
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(ValueError, match="mixed radicands"):
            compare(x, y)
    # a rational compares with either field
    assert S("3/2") < x and S("3/2") > S("-1+1r5")


@pytest.mark.parametrize("m", (None, 2, 5))
def test_power_is_the_product_of_its_factors(m):
    for x in _order_pool(m, 3):
        for k in range(8):
            want = functools.reduce(operator.mul, [x] * k, ONE)
            got = x ** k
            assert got == want and _is_canonical(got), (x, k)
    with pytest.raises(ValueError):
        S("1+1r2") ** -1


@pytest.mark.parametrize("m", (None, 2, 5))
def test_residue_map_is_a_ring_map(m):
    prime, residue = exactlin.residue_map(m)
    pool = _order_pool(m, 4) + [sc(-7), sc(prime + 2)]
    if m:
        pool += [Scalar(-3, 2, m), Scalar(4, -9, m)]
    for x in pool:
        r = residue(x)
        assert 0 <= r < prime, x
        if x.d == 1 and not x.q:
            assert r == x.p % prime
        for y in pool[:12]:
            assert residue(x + y) == (r + residue(y)) % prime
            assert residue(x * y) == r * residue(y) % prime
    with pytest.raises(ValueError, match="no residue"):
        residue(sc(1) / sc(prime))
    with pytest.raises(ValueError, match="no residue"):
        residue(Scalar(1, 1, 3 if m != 3 else 7))


# -- linear algebra --------------------------------------------------------


def test_rank_rational():
    m = Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == 2


def test_rank_quadratic_dependency():
    # rows (1, sqrt2) and (sqrt2, 2) are proportional over Q(sqrt(2))
    r2 = S("0+1r2")
    m = Matrix([[1, r2], [r2, 2]])
    assert rank(m) == 1


def span_eq(vs, ws, ncols):
    a = Matrix(list(vs) + list(ws), ncols=ncols)
    return rank(Matrix(list(vs), ncols=ncols)) == rank(a) == \
        rank(Matrix(list(ws), ncols=ncols))


def test_kernel_line():
    m = Matrix([[1, 1]])
    k = kernel_basis(m)
    assert len(k) == 1
    assert span_eq(k, [(sc(1), sc(-1))], 2)


def test_kernel_quadratic():
    r2 = S("0+1r2")
    m = Matrix([[1, r2]])
    k = kernel_basis(m)
    assert len(k) == 1
    assert span_eq(k, [(-r2, sc(1))], 2)
    # and the vector really is in the kernel
    assert not any(m.apply(k[0]))


def test_kernel_of_full_rank_is_empty():
    assert kernel_basis(Matrix([[1, 0], [0, 1]])) == []


def test_solve_unique():
    m = Matrix([[1, 1], [1, -1]])
    x = solve(m, [sc(3), sc(1)])
    assert x == (sc(2), sc(1))


def test_solve_underdetermined_zeroes_free_vars():
    m = Matrix([[1, 1, 0]])
    x = solve(m, [sc(5)])
    assert x == (sc(5), sc(0), sc(0))


def test_solve_inconsistent():
    m = Matrix([[1, 1], [2, 2]])
    assert solve(m, [sc(1), sc(3)]) is None


def test_signature_examples():
    assert signature(Matrix([[2, 0], [0, -3]])) == (1, 1)
    assert signature(Matrix([[0, 1], [1, 0]])) == (1, 1)
    assert signature(Matrix([[1, 2], [2, 1]])) == (1, 1)
    assert signature(Matrix([[2, 1], [1, 2]])) == (2, 0)
    assert signature(Matrix([[0, 0], [0, 0]])) == (0, 0)
    r2 = S("0+1r2")
    assert signature(Matrix([[r2, 0], [0, S("1-1r2")]])) == (1, 1)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        signature(Matrix([[0, 1], [2, 0]]))


def _random_matrix(rng, nrows, ncols, field):
    def entry():
        a = rng.randint(-4, 4)
        if field.m is None or rng.random() < 0.5:
            return sc(a)
        return Scalar(a, rng.randint(-2, 2), field.m)
    return Matrix([[entry() for _ in range(ncols)] for _ in range(nrows)])


def test_rank_nullity_randomised():
    rng = random.Random(7)
    for trial in range(25):
        field = ScalarField(2) if trial % 2 else ScalarField()
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), field)
        k = kernel_basis(m)
        assert rank(m) + len(k) == m.ncols
        for v in k:
            assert not any(m.apply(v))
        # kernel vectors are independent by construction
        if k:
            assert rank(Matrix(k, ncols=m.ncols)) == len(k)


def test_solve_randomised_consistency():
    rng = random.Random(11)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4),
                           ScalarField())
        target = [sc(rng.randint(-3, 3)) for _ in range(m.ncols)]
        rhs = m.apply(target)
        x = solve(m, rhs)
        assert x is not None
        assert m.apply(x) == rhs


def test_signature_congruence_invariance():
    # signature is untouched by basis change  B^T A B  with invertible B
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 4)
        a = _random_matrix(rng, n, n, ScalarField())
        sym = Matrix([[a.entries[i][j] + a.entries[j][i] for j in range(n)]
                      for i in range(n)])
        while True:
            b = _random_matrix(rng, n, n, ScalarField())
            if rank(b) == n:
                break
        conj = b.transpose().mul(sym).mul(b)
        assert signature(sym) == signature(conj)


def _sparse_kernel_against_dense():
    # the modular route against the exact one, over Q, Q(sqrt 2) and
    # Q(sqrt 5)
    rng = random.Random(17)
    for field in (ScalarField(), ScalarField(2), ScalarField(5)):
        for _ in range(10):
            m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6),
                               field)
            rows = [{j: x for j, x in enumerate(r) if x} for r in m.entries]
            ks = scalar_kernel([r for r in rows if r], m.ncols)
            kd = kernel_basis(m)
            assert [tuple(v.get(j, sc(0)) for j in range(m.ncols))
                    for v in ks] == kd


def test_sparse_kernel_matches_dense():
    _sparse_kernel_against_dense()


def test_linear_algebra_tests_on_the_modular_path():
    # with the primes every kernel is certified, and none falls back
    before = exactlin.modp_fallbacks
    _sparse_kernel_against_dense()
    assert exactlin.modp_fallbacks == before


def test_sparse_kernel_matches_dense_on_the_exact_path(monkeypatch):
    # with no prime for any field, the systems with a row fall back to the
    # exact path
    monkeypatch.setattr(exactlin, "_embeddings", lambda m: ())
    before = exactlin.modp_fallbacks
    _sparse_kernel_against_dense()
    assert exactlin.modp_fallbacks > before


# -- the integer inner product ------------------------------------------------


def _entry(rng, m):
    """A scalar of Q(sqrt m) (Q when m is None) with a denominator, zero a
    third of the time and of either sign."""
    if rng.random() < 1 / 3:
        return ZERO
    a = _Q(rng.randint(-9, 9), rng.randint(1, 12))
    b = _Q(rng.randint(-5, 5), rng.randint(1, 8)) if m else 0
    return Scalar(a, b, m if b else None)


def _rows(rng, nrows, ncols, m):
    return Matrix([[_entry(rng, m) for _ in range(ncols)]
                   for _ in range(nrows)], ncols=ncols)


@pytest.mark.parametrize("m", (None, 2, 5))
@pytest.mark.parametrize("seed", range(4))
def test_integer_products_are_the_scalar_loops(m, seed):
    # the kernel's dot, apply, mul and weighted product against loops of
    # Scalar products and sums: the same canonical scalars, as Scalar
    # equality compares the fields p, q, d and m
    rng = random.Random(f"inner-{m}-{seed}")
    for length in range(7):
        u = _rows(rng, 1, length, m).entries[0] if length else ()
        v = _rows(rng, 1, length, m).entries[0] if length else ()
        assert vdot(u, v) == vdot_loop(u, v)
    assert vdot((), ()) == ZERO
    for r, k, c in itertools.product(range(4), repeat=3):
        a, b = _rows(rng, r, k, m), _rows(rng, k, c, m)
        assert a.mul(b) == mul_loop(a, b)
        vec = _rows(rng, 1, k, m).entries[0] if k else ()
        assert a.apply(vec) == tuple(vdot_loop(row, vec) for row in a.entries)
        right = _rows(rng, c, k, m)
        weights = _rows(rng, 1, k, m).entries[0] if k else ()
        if k:
            weights = (ZERO,) + weights[1:]   # a weight of zero
        assert gram(a.entries, weights, right.entries) == \
            gram_loop(a, weights, right)
        assert gram(a.entries, None, right.entries) == \
            mul_loop(a, right.transpose())


def test_products_of_empty_shapes():
    # 0 x k and k x 0 factors: the product has the outer shape, all zero
    for r, k, c in ((0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0)):
        a = Matrix([[ONE] * k] * r, ncols=k)
        b = Matrix([[ONE] * c] * k, ncols=c)
        got = a.mul(b)
        assert (got.nrows, got.ncols) == (r, c)
        assert all(x == k for row in got.entries for x in row)
        assert got.transpose() == b.transpose().mul(a.transpose())
    assert Matrix([], ncols=2).apply((ONE, ONE)) == ()
    assert Matrix([[], []], ncols=0).apply(()) == (ZERO, ZERO)


def test_products_reject_mixed_radicands():
    r2, r5 = S("0+1r2"), S("0+1r5")
    with pytest.raises(ValueError):
        vdot((r2, ONE), (r5, ONE))
    with pytest.raises(ValueError):
        vdot((r2, r5), (ONE, ONE))
    with pytest.raises(ValueError):
        Matrix([[r2, ONE]]).mul(Matrix([[r5], [ONE]]))
    with pytest.raises(ValueError):
        Matrix([[r2, ONE]]).apply((ONE, r5))
    with pytest.raises(ValueError):
        gram([(ONE, r2)], (r5, ONE), [(ONE, ONE)])
    # one radicand with rationals is fine
    assert vdot((r2, S("1/2")), (r2, S("2/3"))) == S("7/3")


# -- the elimination primitive ---------------------------------------------


def _leibniz_det(m):
    n = m.nrows
    total = ZERO
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for i, a in enumerate(perm)
                         for b in perm[i + 1:])
        term = sc(-1) if inversions % 2 else ONE
        for i, j in enumerate(perm):
            term = term * m.entries[i][j]
        total = total + term
    return total


def _identity(n):
    return Matrix([[ONE if i == j else ZERO for j in range(n)]
                   for i in range(n)], ncols=n)


def test_det_and_inverse_randomised():
    # the package reads the inverse off the dual basis of the rows and the
    # tests' reference eliminates [m | 1]; dual_basis's determinant is the
    # Leibniz sum.  Zero entries make the pivots permute the rows.
    rng = random.Random(19)
    singular = 0
    for trial in range(60):
        field = ScalarField(2) if trial % 2 else ScalarField()
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n, field)
        if trial % 3 == 1:
            m = Matrix([[x if rng.random() < 0.4 else ZERO for x in r]
                        for r in m.entries], ncols=n)
        if trial % 5 == 0 and n > 1:
            # force a dependent row: the last is a combination of two others
            rows = [list(r) for r in m.entries]
            rows[-1] = [a * sc(2) - b for a, b in zip(rows[0], rows[1])] \
                if n > 2 else [a * sc(3) for a in rows[0]]
            m = Matrix(rows)
        want = _leibniz_det(m)
        if not want:
            singular += 1
            with pytest.raises(ValueError):
                inverse(m)
            with pytest.raises(ValueError):
                tagged_inverse(m)
            continue
        inv, d = tagged_inverse(m)
        assert d == want == exactlin.dual_basis(m.entries, n)[3]
        assert inverse(m) == inv
        assert inv.mul(m) == _identity(n)
        assert m.mul(inv) == _identity(n)
    assert singular >= 8


def test_det_of_empty_and_nonsquare():
    empty = Matrix([], ncols=0)
    assert tagged_inverse(empty)[1] == ONE == exactlin.dual_basis((), 0)[3]
    assert inverse(empty) == empty
    for m in (Matrix([[1, 2, 3], [4, 5, 6]]),
              Matrix([[1, 2], [3, 4], [5, 6]])):
        with pytest.raises(ValueError):
            inverse(m)
        with pytest.raises(ValueError):
            tagged_inverse(m)


def test_echelon_independent_of_insertion_order():
    rng = random.Random(23)
    for trial in range(12):
        field = ScalarField(2) if trial % 2 else ScalarField()
        m = _random_matrix(rng, rng.randint(2, 4), rng.randint(1, 5), field)
        rows = [{j: x for j, x in enumerate(r) if x} for r in m.entries]
        if trial % 3 == 0:
            rows.append({j: rows[0].get(j, ZERO) + rows[1].get(j, ZERO)
                         for j in range(m.ncols)})
        echelons = []
        for order in itertools.permutations(rows):
            ech = {}
            kept = sum(echelon_insert(ech, r) is not None for r in order)
            assert kept == len(ech) == rank(m)
            echelons.append(sorted(ech.items()))
        assert all(e == echelons[0] for e in echelons)
        # reduced: 1 at its own pivot, 0 at every other pivot, nothing to the
        # left of its pivot
        for c, row in echelons[0]:
            assert row[c] == ONE and min(row) == c
            assert not any(row.get(c2) for c2, _ in echelons[0] if c2 != c)


def test_echelon_insert_reports_pivot_value():
    ech = {}
    assert echelon_insert(ech, {1: sc(3), 2: sc(6)}) == (1, sc(3))
    assert echelon_insert(ech, {1: sc(1), 2: sc(2)}) is None
    assert echelon_insert(ech, {0: sc(0), 1: sc(2), 2: sc(5)}) == (2, sc(1))
    assert ech == {1: {1: ONE}, 2: {2: ONE}}


# -- certified elimination mod p -------------------------------------------
#
# sparse_kernel and GradedIH's selection eliminate mod a prime
# and accept a result only after an exact check; the exact path they fall
# back on is the one the tests above were written for.


def _is_prime(n):
    # Miller-Rabin with the first twelve prime bases: exact below 3.3e24
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_primes_and_square_roots():
    # the primes p = 3 mod 4 below 2^61 counting down, found by a scan of
    # the test's own, and for each radicand those in which it is a square
    want = [p for p in range(2 ** 61 - 1, 2 ** 61 - 4000, -4) if _is_prime(p)]
    assert len(want) > 36
    assert list(itertools.islice(exactlin._embeddings(None), len(want))) == \
        [(p, (0,)) for p in want]
    for m in (2, 3, 5, 6, 7, 10, 11, 13):
        primes = list(itertools.islice(exactlin._embeddings(m), 12))
        assert [p for p, _ in primes] == \
            [p for p in want if pow(m, (p - 1) // 2, p) == 1][:12]
        assert all(s * s % p == m and t == p - s for p, (s, t) in primes)


def test_kernel_falls_back_when_the_prime_divides_a_minor():
    # det [[1, 1], [1, 1 + p]] = p: rank 2, but rank 1 mod p
    p = exactlin._embedding(None, 0)[0]
    rows = [{0: sc(1), 1: sc(1)}, {0: sc(1), 1: sc(1 + p)}]
    before = exactlin.modp_fallbacks
    assert scalar_kernel(rows, 2) == exactlin._kernel_exact(rows, 2) == []
    assert exactlin.modp_fallbacks == before + 1
    # the same over Q(sqrt 2), with the prime in which 2 is a square
    p2 = next(exactlin._embeddings(2))[0]
    r2 = S("0+1r2")
    rows = [{0: ONE, 1: r2, 2: ONE}, {0: ONE, 1: r2 + sc(p2), 2: ONE}]
    want = exactlin._kernel_exact(rows, 3)
    assert scalar_kernel(rows, 3) == want and len(want) == 1
    assert exactlin.modp_fallbacks == before + 2


def test_large_entries_reconstruct_from_several_primes():
    # the kernel entry -big needs about 270 bits of modulus: more than one
    # prime, fewer than all of them
    big = 10 ** 40 + 7
    rows = [{0: sc(1), 1: sc(big)}, {1: sc(1), 2: Scalar(1, 3, 2)}]
    before = exactlin.modp_fallbacks
    got = scalar_kernel(rows, 3)
    assert got == exactlin._kernel_exact(rows, 3)
    assert got[0][0] == Scalar(big, 3 * big, 2)
    assert exactlin.modp_fallbacks == before


def test_kernel_over_sqrt5_reads_six_primes():
    # 4 primes, 244 bits of modulus, reconstruct entries up to about 2^121;
    # the kernel entry 10^50 (1 + 3 sqrt 5) has parts near 2^168 and needs
    # 6 of the primes in which 5 is a square
    big = 10 ** 50
    rows = [{0: sc(1), 1: sc(big)}, {1: sc(1), 2: Scalar(1, 3, 5)}]
    before = exactlin.modp_fallbacks
    got = scalar_kernel(rows, 3)
    assert got == exactlin._kernel_exact(rows, 3)
    assert got[0][0] == Scalar(big, 3 * big, 5)
    assert exactlin.modp_fallbacks == before


def test_kernel_falls_back_when_reconstruction_fails():
    # beyond what exactlin._MAX_PRIMES primes reconstruct
    huge = 10 ** 400 + 3
    rows = [{0: sc(1), 1: sc(huge)}, {1: sc(1), 2: Scalar(1, 3, 2)}]
    before = exactlin.modp_fallbacks
    got = scalar_kernel(rows, 3)
    assert got == exactlin._kernel_exact(rows, 3)
    assert got[0][0] == Scalar(huge, 3 * huge, 2)
    assert exactlin.modp_fallbacks == before + 1


def _random_sparse_vectors(rng, count, ncols, m, spread=4):
    out = []
    for _ in range(count):
        if out and rng.random() < 0.3:
            # a combination of two earlier vectors
            u, w = rng.choice(out), rng.choice(out)
            f = _Q(rng.randint(-5, 5), rng.randint(1, 7))
            v = {k: u.get(k, ZERO) + sc(f) * w.get(k, ZERO)
                 for k in sorted(set(u) | set(w))}
            out.append({k: x for k, x in v.items() if x})
            continue
        v = {}
        for k in sorted(rng.sample(range(ncols),
                                   rng.randint(1, min(spread, ncols)))):
            b = _Q(rng.randint(-3, 3), rng.randint(1, 5)) \
                if m and rng.random() < 0.5 else _Q(0)
            x = Scalar(_Q(rng.randint(-9, 9), rng.randint(1, 6)), b,
                       m if b else None)
            if x:
                v[k] = x
        out.append(v)
    return out


def _exact_independent(vectors):
    ech = {}
    return [i for i, v in enumerate(vectors)
            if echelon_insert(ech, v) is not None]


def test_certified_paths_agree_with_the_exact_ones():
    # entry for entry the exact path's answers, and none falls back (some
    # entries here are beyond one prime's reconstruction bound of about 2^30)
    rng = random.Random(29)
    before = exactlin.modp_fallbacks
    for trial in range(40):
        m = 2 if trial % 2 else None
        ncols = rng.randint(2, 12)
        rows = _random_sparse_vectors(rng, rng.randint(1, 10), ncols, m)
        got = scalar_kernel(rows, ncols)
        want = exactlin._kernel_exact(rows, ncols)
        # entry for entry, in the same order
        assert [list(v.items()) for v in got] == \
            [list(v.items()) for v in want]
        vectors = _random_sparse_vectors(rng, rng.randint(1, 10), ncols, m)
        assert independent_modp(vectors) == _exact_independent(vectors)
    assert exactlin.modp_fallbacks == before


def test_sparse_kernel_independent_of_row_order():
    # the kernel inserts its rows in an order of its own, so every order of
    # the rows it is given, repeats included, yields the same basis
    rng = random.Random(31)
    before = exactlin.modp_fallbacks
    for trial in range(24):
        m = (None, 2, 5)[trial % 3]
        ncols = rng.randint(2, 10)
        rows = _random_sparse_vectors(rng, rng.randint(2, 9), ncols, m)
        rows += rng.sample(rows, 2)
        want = [list(v.items()) for v in exactlin._kernel_exact(rows, ncols)]
        for _ in range(4):
            rng.shuffle(rows)
            assert [list(v.items())
                    for v in scalar_kernel(rows, ncols)] == want
    assert exactlin.modp_fallbacks == before


def _drop_last_rep(gih):
    # one representative fewer at grading 2: the pairing with grading 2n - 2
    # is no longer square
    gih.comps[2].pop()
    gih.h[2] -= 1


def _last_rep_in_ideal(gih):
    # the last representative at grading 2 replaced by an ideal multiple,
    # x_0 times the grading-0 basis vector: as many as before, but the
    # pairing is singular
    gih.comps[2][-1] = {(mid, j, (e[0] + 1,) + e[1:]): c for (mid, j, e), c
                        in gih.spaces[0].basis[0].items()}


@pytest.mark.parametrize("spoil", (_drop_last_rep, _last_rep_in_ideal))
def test_failed_gram_check_selects_exactly(monkeypatch, tmp_path, capsys,
                                           spoil):
    from ihfan import cohomology, ihsheaf
    from ihfan.cli import main
    from conftest import cube_vertices

    # the cube's face fan, f0 = 8: h = (1, f0-3, f0-3, 1)
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({
        "field": "Q", "fan": "face",
        "vertices": [[format_scalar(sc(x)) for x in v]
                     for v in cube_vertices()]}))
    argv = ["report", str(path), "--l", "support"]
    cohomology.profile_for_fan.cache_clear()
    before = exactlin.modp_fallbacks
    assert main(argv) == 0
    want = capsys.readouterr().out
    assert json.loads(want)["h"] == [1, 5, 5, 1]
    assert exactlin.modp_fallbacks == before

    certify = ihsheaf.GradedIH._certify

    def spoiled(self):
        # only the cube's own profile (n = 3); its flattened boundaries
        # (n = 2) certify too, unspoiled
        if self.pair.fan.n == 3:
            spoil(self)
        return certify(self)

    monkeypatch.setattr(ihsheaf.GradedIH, "_certify", spoiled)
    cohomology.profile_for_fan.cache_clear()
    try:
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        assert exactlin.modp_fallbacks == before + 1
    finally:
        # no profile selected under the spoiled certificate outlives the test
        cohomology.profile_for_fan.cache_clear()
