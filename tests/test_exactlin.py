import itertools
import random

import pytest

from ihfan.exactlin import (
    ONE,
    ZERO,
    Matrix,
    Scalar,
    ScalarField,
    det,
    echelon_insert,
    format_scalar,
    inverse,
    kernel_basis,
    parse_scalar,
    rank,
    sc,
    signature,
    solve,
    sparse_kernel,
)


def S(text):
    return parse_scalar(text)


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
    assert all(x.is_zero() for x in m.apply(k[0]))


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
            assert all(x.is_zero() for x in m.apply(v))
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


def test_sparse_kernel_matches_dense():
    rng = random.Random(17)
    for _ in range(10):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6),
                           ScalarField())
        rows = [{j: x for j, x in enumerate(r) if x} for r in m.entries]
        ks = sparse_kernel([r for r in rows if r], m.ncols)
        kd = kernel_basis(m)
        assert [tuple(v.get(j, sc(0)) for j in range(m.ncols)) for v in ks] == kd


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
    rng = random.Random(19)
    singular = 0
    for trial in range(40):
        field = ScalarField(2) if trial % 2 else ScalarField()
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n, field)
        if trial % 5 == 0 and n > 1:
            # force a dependent row: the last is a combination of two others
            rows = [list(r) for r in m.entries]
            rows[-1] = [a * sc(2) - b for a, b in zip(rows[0], rows[1])] \
                if n > 2 else [a * sc(3) for a in rows[0]]
            m = Matrix(rows)
        want = _leibniz_det(m)
        assert det(m) == want
        if want.is_zero():
            singular += 1
            with pytest.raises(ValueError):
                inverse(m)
            continue
        inv, d = inverse(m)
        assert d == want
        assert inv.mul(m) == _identity(n)
        assert m.mul(inv) == _identity(n)
    assert singular >= 4


def test_det_of_empty_and_nonsquare():
    assert det(Matrix([], ncols=0)) == ONE
    with pytest.raises(ValueError):
        det(Matrix([[1, 2, 3], [4, 5, 6]]))


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
