import random
from math import comb

import pytest

from ihfan.conewise import Polynomial, monomials
from ihfan.exactlin import ZERO, ScalarField, sc
from ihfan.fans import face_fan_with_support
from conftest import cached_pair, golden_field, icosahedron_vertices
from oracles import (ConewiseFunction, divide_by_linear, global_sections,
                     poly_mul_loop, validate)


def product(f, g):
    """The per-cone product of two conewise functions on one fan."""
    return ConewiseFunction(f.fan, f.grading + g.grading,
                            {m: p.mul(g.per_max[m])
                             for m, p in f.per_max.items()})


def test_polynomial_arithmetic():
    p = Polynomial(2, {(2, 0): 1, (1, 1): 3})
    q = Polynomial(2, {(1, 1): -3, (0, 2): 2})
    s = p.add(q)
    assert s.coeffs == {(2, 0): sc(1), (0, 2): sc(2)}
    assert p.mul(q).degree() == 4
    assert p.degree() == 2
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0): 1, (2, 0): 1}).degree()


def _random_poly(rng, n, k, root):
    """A homogeneous polynomial of degree k in n variables whose nonzero
    coefficients are a + b * root for small random rationals a and b (b = 0
    when root is None), about a third of them zero."""
    coeffs = {}
    for e in monomials(n, k):
        if rng.random() < 1 / 3:
            continue
        c = sc(rng.randint(-9, 9)) / sc(rng.randint(1, 12))
        if root is not None:
            c = c + root * sc(rng.randint(-5, 5)) / sc(rng.randint(1, 8))
        coeffs[e] = c
    return Polynomial(n, coeffs)


@pytest.mark.parametrize("m", (None, 2))
@pytest.mark.parametrize("seed", range(3))
def test_polynomial_product_is_the_scalar_loop(m, seed):
    # the product of two factors cleared to ints once against one Scalar
    # product and sum per pair of terms: the same canonical coefficients,
    # as Scalar equality compares the fields p, q, d and m, and no zero
    # coefficient kept; the factors of one product may be rational and
    # quadratic, or have no term at all
    rng = random.Random(f"poly-mul-{m}-{seed}")
    root = None if m is None else ScalarField(m).parse(f"0+1r{m}")
    for n, k1, k2 in ((1, 0, 3), (2, 1, 1), (3, 2, 1), (3, 2, 2), (4, 3, 1)):
        p, q = _random_poly(rng, n, k1, root), _random_poly(rng, n, k2, None)
        r = _random_poly(rng, n, k2, root)
        for a, b in ((p, q), (q, p), (p, r), (p, Polynomial(n))):
            got = a.mul(b)
            assert got.coeffs == poly_mul_loop(a, b).coeffs
            assert ZERO not in got.coeffs.values()
    # (x + y)(x - y): the mixed terms cancel
    s = Polynomial(2, {(1, 0): 1, (0, 1): 1})
    d = Polynomial(2, {(1, 0): 1, (0, 1): -1})
    assert s.mul(d).coeffs == {(2, 0): sc(1), (0, 2): sc(-1)}


def test_polynomial_product_rejects_mixed_radicands():
    r2 = ScalarField(2).parse("0+1r2")
    r3 = ScalarField(3).parse("0+1r3")
    x2 = Polynomial(1, {(1,): r2})
    x3 = Polynomial(1, {(1,): r3})
    with pytest.raises(ValueError, match="radicand"):
        x2.mul(x3)
    with pytest.raises(ValueError, match="radicand"):
        Polynomial(2, {(1, 0): r2, (0, 1): r3}).mul(
            Polynomial(2, {(1, 0): 1}))


def test_divide_by_linear():
    x_plus_y = (sc(1), sc(1))
    p = Polynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})  # (x+y)^2
    q = divide_by_linear(p, x_plus_y)
    assert q is not None and q.coeffs == {(1, 0): sc(1), (0, 1): sc(1)}
    r = Polynomial(2, {(2, 0): 1})
    assert divide_by_linear(r, x_plus_y) is None


def test_sections_hilbert_identity(quadrant_fan, orthant_fan, cube_fan,
                                   prism_fan):
    # dim of grading-d sections = sum_j h_j * C((d-j)/2 + n-1, n-1).  A face
    # fan of a 3-polytope with f0 vertices has h = (1, f0-3, f0-3, 1): the
    # cube (f0 = 8) and the Q(sqrt 2) prism (f0 = 8) are not simplicial, so
    # their sections go through the flattened stalks; the icosahedron
    # (f0 = 12) is simplicial over Q(sqrt 5)
    ico, _ = face_fan_with_support(icosahedron_vertices(),
                                   field=golden_field()[0])
    cases = [(quadrant_fan, (1, 2, 1)), (orthant_fan, (1, 3, 3, 1)),
             (prism_fan, (1, 5, 5, 1)), (ico, (1, 9, 9, 1)),
             (cube_fan, (1, 5, 5, 1))]
    for fan, h in cases:
        n = fan.n
        g = global_sections(cached_pair(fan))
        for d in range(0, 2 * n + 1, 2):
            expect = sum(h[j // 2] * comb((d - j) // 2 + n - 1, n - 1)
                         for j in range(0, d + 1, 2) if j // 2 < len(h))
            assert len(g[d]) == expect
    # g is the cube's: h = (1, 5, 5, 1)
    assert [len(g[d]) for d in sorted(g)] == [1, 8, 26, 56]


def test_sections_are_valid(cube_fan, prism_fan):
    # the continuity oracle accepts every section the nonsimplicial path
    # solves for, past the linear ones, over Q and over Q(sqrt 2)
    for fan in (cube_fan, prism_fan):
        for f in global_sections(cached_pair(fan), cap=4)[4]:
            validate(f)


def test_multiply_grading_and_commutativity(quadrant_fan, cube_fan):
    # the per-cone product of two sections is again continuous, in the
    # summed grading
    for fan in (quadrant_fan, cube_fan):
        basis = global_sections(cached_pair(fan), cap=2)[2]
        for f, g in ((basis[0], basis[-1]), (basis[1], basis[1])):
            fg = product(f, g)
            gf = product(g, f)
            assert fg.grading == 4
            assert fg.per_max == gf.per_max
            validate(fg)


def test_multiply_associativity(quadrant_fan):
    rng = random.Random(3)
    basis = global_sections(cached_pair(quadrant_fan), cap=2)[2]
    f, g, h = (basis[rng.randrange(len(basis))] for _ in range(3))
    assert product(product(f, g), h).per_max == \
        product(f, product(g, h)).per_max


def test_compatibility_validation_rejects(quadrant_fan):
    per = {m: Polynomial.from_linear((sc(1), sc(0)))
           for m in quadrant_fan.maximal_ids}
    per[quadrant_fan.maximal_ids[0]] = Polynomial.from_linear((sc(1), sc(1)))
    with pytest.raises(ValueError):
        validate(ConewiseFunction(quadrant_fan, 2, per))
