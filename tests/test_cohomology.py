import itertools
import random
import types

import pytest

from ihfan.conewise import ConewiseFunction, Polynomial
from ihfan.exactlin import Matrix, ScalarField, det, rank, sc
from ihfan.fans import (PLFunction, build_fan, face_fan_with_support,
                        is_strictly_convex, normal_fan, product_fan,
                        skew_product)
from ihfan.ihsheaf import _shift_var, build_distinguished_pair
from ihfan.cohomology import (EvaluationContext, FaceLattice, ds_check,
                              convolve_h, evaluate, evaluate_fast,
                              exact_sequence_check, f_to_h, hl_rank_report,
                              hrm_check, kunneth_check, lefschetz_matrix,
                              pairing_matrix, polytope_face_lattice,
                              primitive_basis, profile_for_fan,
                              restrict_to_link, toric_h_of_fan,
                              toric_h_oracle)
from conftest import cube_vertices, prism_vertices


def octahedron_vertices():
    return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
            (0, 0, 1), (0, 0, -1)]


def unit_ray_values(fan):
    return {rid: sc(1) for rid in fan.ray_ids()}


# -- combinatorial oracles -------------------------------------------------


def test_f_to_h_examples():
    assert f_to_h((8, 12, 6, 1)) == (1, 3, 3, 1)
    assert f_to_h((3, 3, 1)) == (1, 1, 1)
    assert f_to_h((1,)) == (1,)
    with pytest.raises(ValueError):
        f_to_h((4, 4, 2))


def test_face_lattice_interval():
    lat = polytope_face_lattice([(-1,), (1,)])
    assert len(lat.faces) == 4
    assert lat.dim == 1
    assert toric_h_oracle(lat) == (1, 1)


def test_lattice_oracle_values():
    assert toric_h_oracle(polytope_face_lattice(octahedron_vertices())) == \
        (1, 3, 3, 1)
    assert toric_h_oracle(polytope_face_lattice(cube_vertices())) == \
        (1, 5, 5, 1)
    square = polytope_face_lattice([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert toric_h_oracle(square) == (1, 2, 1)


def test_oracle_rejects_ungraded_lattice():
    lat = FaceLattice(1, [(-1, frozenset()), (1, frozenset({0, 1}))])
    with pytest.raises(ValueError):
        toric_h_oracle(lat)


def test_fan_recursion(onedim_fan, quadrant_fan, orthant_fan, cube_fan):
    assert toric_h_of_fan(onedim_fan) == (1, 1)
    assert toric_h_of_fan(quadrant_fan) == (1, 2, 1)
    assert toric_h_of_fan(orthant_fan) == (1, 3, 3, 1)
    assert toric_h_of_fan(cube_fan) == (1, 5, 5, 1)


def test_fan_recursion_matches_lattice_oracle_on_face_fans(cube_fan):
    # two code paths: the lattice walks vertex sets, the fan walks ray keys
    assert toric_h_of_fan(cube_fan) == \
        toric_h_oracle(polytope_face_lattice(cube_vertices()))
    octa, _ = face_fan_with_support(octahedron_vertices())
    assert toric_h_of_fan(octa) == \
        toric_h_oracle(polytope_face_lattice(octahedron_vertices()))


# -- profiles --------------------------------------------------------------


def test_profile_quadrant(quadrant_fan):
    p = profile_for_fan(quadrant_fan)
    assert p.h_vector() == (1, 2, 1)
    assert p.h[0] == 1 and p.h[2] == 2


def test_profile_normal_fan_of_cube():
    fan, _ = normal_fan(cube_vertices())
    p = profile_for_fan(fan)
    assert p.h_vector() == (1, 3, 3, 1) == f_to_h((8, 12, 6, 1))


def test_profile_cube_and_prism(cube_fan, prism_fan):
    assert profile_for_fan(cube_fan).h_vector() == (1, 5, 5, 1)
    assert profile_for_fan(prism_fan).h_vector() == (1, 5, 5, 1)


def test_profile_matches_oracle_on_an_irrational_triangular_prism():
    F = ScalarField(2)
    r2 = F.sqrt_gen()
    base = [(sc(0), sc(0)), (sc(1), sc(0)), (r2, sc(1))]
    cx = (sc(1) + r2) / sc(3)
    cy = sc(1) / sc(3)
    verts = [(x - cx, y - cy, sc(z)) for (x, y) in base for z in (1, -1)]
    fan, _ = face_fan_with_support(verts, field=F)
    assert profile_for_fan(fan).h_vector() == (1, 3, 3, 1) == \
        toric_h_oracle(polytope_face_lattice(verts))


def test_prism_oracle_agreement(prism_fan):
    verts, _ = prism_vertices()
    assert profile_for_fan(prism_fan).h_vector() == \
        toric_h_oracle(polytope_face_lattice(verts))


# -- evaluation ------------------------------------------------------------


def absolute_value_section(pair):
    sub = pair.subdivided
    per = {}
    for m in sub.maximal_ids:
        sign = sc(1) if sub.cones[m].rays[0][0] > 0 else sc(-1)
        per[m] = Polynomial.from_linear((sign,))
    return ConewiseFunction(sub, 2, per)


def test_evaluate_one_dim(onedim_fan):
    pair = build_distinguished_pair(onedim_fan)
    ctx = EvaluationContext(pair)
    absx = absolute_value_section(pair)
    globx = ConewiseFunction(pair.subdivided, 2,
                             {m: Polynomial.from_linear((sc(1),))
                              for m in pair.subdivided.maximal_ids})
    assert evaluate(ctx, absx) == sc(2)
    assert evaluate(ctx, globx) == sc(0)
    assert evaluate_fast(ctx, absx) == sc(2)
    assert evaluate_fast(ctx, globx) == sc(0)


def test_evaluate_normalization_is_basis_free(quadrant_fan):
    # each facet-form product integrates to 1 when extended by zero, for
    # every maximal cone, so the normalization does not depend on how the
    # rays were scaled or ordered
    pair = build_distinguished_pair(quadrant_fan)
    ctx = EvaluationContext(pair)
    sub = pair.subdivided
    for m in sub.maximal_ids:
        per = {k: (ctx.phi[m] if k == m else Polynomial(2))
               for k in sub.maximal_ids}
        f = ConewiseFunction(sub, 4, per, check=False)
        assert evaluate(ctx, f) == sc(1)
        assert evaluate_fast(ctx, f) == sc(1)


def test_evaluate_wedge_normalization(orthant_fan):
    pair = build_distinguished_pair(orthant_fan)
    ctx = EvaluationContext(pair)
    for m, forms in ctx.forms.items():
        d = det(Matrix(forms))
        assert d in (sc(1), sc(-1))


def test_evaluate_kills_ideal_multiples(quadrant_fan, orthant_fan):
    for fan in (quadrant_fan, orthant_fan):
        pair = build_distinguished_pair(fan)
        ctx = EvaluationContext(pair)
        n = fan.n
        sp = pair.section_space(2 * n - 2)
        top = pair.section_space(2 * n)
        for b in sp.basis:
            for i in range(n):
                v = _shift_var(b, i)
                f = top.as_function(v)
                assert evaluate(ctx, f) == sc(0)
                assert evaluate_fast(ctx, f) == sc(0)


def test_evaluate_random_sections_fast_agrees(quadrant_fan, orthant_fan):
    rng = random.Random(7)
    for fan in (quadrant_fan, orthant_fan):
        pair = build_distinguished_pair(fan)
        ctx = EvaluationContext(pair)
        sp = pair.section_space(2 * fan.n)
        for _ in range(10):
            coeffs = [sc(rng.randint(-5, 5)) for _ in sp.basis]
            vec = {}
            for c, b in zip(coeffs, sp.basis):
                if not c:
                    continue
                for k, v in b.items():
                    s = vec.get(k, sc(0)) + c * v
                    if s:
                        vec[k] = s
                    else:
                        vec.pop(k, None)
            f = sp.as_function(vec)
            assert evaluate(ctx, f) == evaluate_fast(ctx, f)


def test_evaluate_rejects_non_sections(quadrant_fan):
    pair = build_distinguished_pair(quadrant_fan)
    ctx = EvaluationContext(pair)
    sub = pair.subdivided
    m0 = sub.maximal_ids[0]
    bad = ConewiseFunction(sub, 4,
                           {m: (Polynomial(2, {(2, 0): sc(1)})
                                if m == m0 else Polynomial(2))
                            for m in sub.maximal_ids}, check=False)
    with pytest.raises(ValueError):
        evaluate(ctx, bad)
    with pytest.raises(ValueError):
        evaluate(ctx, ConewiseFunction(sub, 2, {m: Polynomial(2)
                                                for m in sub.maximal_ids}))


# -- pairing ---------------------------------------------------------------


def test_pairing_one_dim(onedim_fan):
    p = profile_for_fan(onedim_fan)
    mat = pairing_matrix(p, 0)
    assert mat.nrows == 1 and mat.ncols == 1
    assert mat.entries[0][0] != sc(0)
    # against the explicit class of |x|: <1 . |x|> = 2
    pair = p.pair
    ctx = p.context()
    prod = {m: absolute_value_section(pair).per_max[m]
            for m in pair.subdivided.maximal_ids}
    assert evaluate_fast(ctx, prod) == sc(2)


def test_pairing_full_rank_suite(quadrant_fan, orthant_fan, cube_fan):
    for fan in (quadrant_fan, orthant_fan, cube_fan):
        p = profile_for_fan(fan)
        for d in range(0, 2 * fan.n + 1, 2):
            mat = pairing_matrix(p, d)
            assert rank(mat) == p.h[d]


def test_pairing_rejects_degenerate(quadrant_fan):
    p = profile_for_fan(quadrant_fan)
    zero_reps = lambda d: [{m: Polynomial(2)
                            for m in p.pair.subdivided.maximal_ids}
                           for _ in range(p.h[d])]
    fake = types.SimpleNamespace(n=2, h=p.h, pair=p.pair, context=p.context,
                                 rep_polys=zero_reps)
    with pytest.raises(ValueError):
        pairing_matrix(fake, 2)


def test_multiplication_is_self_adjoint(quadrant_fan, orthant_fan):
    # <(l.x).y> = <x.(l.y)> as a matrix identity between step and pairing
    # matrices
    for fan in (quadrant_fan, orthant_fan):
        p = profile_for_fan(fan)
        l = PLFunction.from_ray_values(fan, unit_ray_values(fan))
        n = fan.n
        for d in range(0, 2 * n - 1, 2):
            dd = 2 * n - d - 2
            a = p.gih.step_matrix(d, l)
            c = p.gih.step_matrix(dd, l)
            b2 = pairing_matrix(p, d + 2)
            b0 = pairing_matrix(p, d)
            assert a.transpose().mul(b2) == b0.mul(c)


# -- Lefschetz and primitives ----------------------------------------------


def test_lefschetz_ranks(quadrant_fan, orthant_fan):
    for fan in (quadrant_fan, orthant_fan):
        p = profile_for_fan(fan)
        l = PLFunction.from_ray_values(fan, unit_ray_values(fan))
        assert is_strictly_convex(fan, l)
        for d, (got, want) in hl_rank_report(p, l).items():
            assert got == want == p.h[d]


def test_lefschetz_square_rank_one(quadrant_fan):
    p = profile_for_fan(quadrant_fan)
    l = PLFunction.from_ray_values(quadrant_fan,
                                   unit_ray_values(quadrant_fan))
    m = lefschetz_matrix(p, l, 0)
    assert m.nrows == 1 and m.ncols == 1
    assert rank(m) == 1


def test_global_linear_acts_as_zero(onedim_fan, quadrant_fan):
    one = PLFunction(onedim_fan, {m: (sc(1),)
                                  for m in onedim_fan.maximal_ids})
    p1 = profile_for_fan(onedim_fan)
    z = lefschetz_matrix(p1, one, 0)
    assert all(x == sc(0) for row in z.entries for x in row)
    diag = PLFunction(quadrant_fan, {m: (sc(1), sc(1))
                                     for m in quadrant_fan.maximal_ids})
    pq = profile_for_fan(quadrant_fan)
    z = pq.gih.step_matrix(0, diag)
    assert all(x == sc(0) for row in z.entries for x in row)


def test_primitive_dimensions(quadrant_fan, orthant_fan, cube_fan):
    for fan, dims in ((quadrant_fan, {0: 1, 2: 1}),
                      (orthant_fan, {0: 1, 2: 2}),
                      (cube_fan, {0: 1, 2: 4})):
        p = profile_for_fan(fan)
        if fan is cube_fan:
            _, l = face_fan_with_support(cube_vertices())
        else:
            l = PLFunction.from_ray_values(fan, unit_ray_values(fan))
        for d, want in dims.items():
            basis = primitive_basis(p, l, d)
            assert len(basis) == want
            for f in basis:
                f.validate()


# -- signatures ------------------------------------------------------------


def test_hrm_one_dim(onedim_fan):
    p = profile_for_fan(onedim_fan)
    l = PLFunction.from_ray_values(onedim_fan, unit_ray_values(onedim_fan))
    rep = hrm_check(p, l)
    assert rep.ok
    row = rep.rows[0]
    assert row["d"] == 0
    assert row["matrix"].entries == ((sc(2),),)
    assert row["signature"] == (1, 0)


def test_hrm_quadrant(quadrant_fan):
    p = profile_for_fan(quadrant_fan)
    l = PLFunction.from_ray_values(quadrant_fan,
                                   unit_ray_values(quadrant_fan))
    rep = hrm_check(p, l)
    assert rep.ok
    by_d = {r["d"]: r for r in rep.rows}
    assert by_d[0]["signature"] == (1, 0)
    assert by_d[2]["signature"] == (1, 1)
    assert by_d[2]["primitive_dim"] == 1


def test_hrm_suite(orthant_fan, cube_fan_support, prism_fan_support):
    orth_l = PLFunction.from_ray_values(orthant_fan,
                                        unit_ray_values(orthant_fan))
    cases = [(orthant_fan, orth_l, (1, 2)),
             (cube_fan_support[0], cube_fan_support[1], (1, 4)),
             (prism_fan_support[0], prism_fan_support[1], (1, 4))]
    for fan, l, want_sig2 in cases:
        p = profile_for_fan(fan)
        rep = hrm_check(p, l)
        assert rep.ok
        by_d = {r["d"]: r for r in rep.rows}
        assert by_d[2]["signature"] == want_sig2
        assert by_d[2]["primitive_dim"] == p.h[2] - p.h[0]


# -- structural checks -----------------------------------------------------


def test_ds_check(quadrant_fan, cube_fan):
    assert ds_check(profile_for_fan(quadrant_fan))
    assert ds_check(profile_for_fan(cube_fan))
    assert ds_check((1, 3, 3, 1))
    assert not ds_check((1, 2, 2))


def test_kunneth(onedim_fan, quadrant_fan):
    p1 = profile_for_fan(onedim_fan)
    pq = profile_for_fan(quadrant_fan)
    assert convolve_h((1, 1), (1, 1)) == (1, 2, 1)
    prod2 = profile_for_fan(product_fan(onedim_fan, onedim_fan))
    assert prod2.h_vector() == (1, 2, 1)
    assert kunneth_check(p1, p1, prod2)
    prod3 = profile_for_fan(product_fan(onedim_fan, quadrant_fan))
    assert prod3.h_vector() == (1, 3, 3, 1)
    assert kunneth_check(p1, pq, prod3)
    assert kunneth_check((1,), pq, pq)
    assert not kunneth_check(p1, pq, pq)


def test_kunneth_skew(onedim_fan):
    plus = next(m for m in onedim_fan.maximal_ids
                if onedim_fan.cones[m].rays[0] == (sc(1),))
    minus = next(m for m in onedim_fan.maximal_ids
                 if onedim_fan.cones[m].rays[0] == (sc(-1),))
    sk = skew_product(onedim_fan, onedim_fan,
                      {plus: ((1,),), minus: ((-1,),)})
    p1 = profile_for_fan(onedim_fan)
    assert kunneth_check(p1, p1, profile_for_fan(sk))


def test_restrict_to_link_quadrant(quadrant_fan):
    p = profile_for_fan(quadrant_fan)
    e1 = next(c.id for c in quadrant_fan.cones_of_dim(1)
              if c.rays[0] == (sc(1), sc(0)))
    rep = restrict_to_link(p, e1)
    assert rep.lam_fan.n == 1
    assert rep.lam_h == (1, 1)
    assert rep.constant is not None and rep.constant.sign() > 0
    assert rep.loc_prod_ok and rep.reduct_ok and rep.deg2_ok
    assert rep.ok


def test_restrict_to_link_orthant(orthant_fan):
    p = profile_for_fan(orthant_fan)
    e1 = next(c.id for c in orthant_fan.cones_of_dim(1)
              if c.rays[0] == (sc(1), sc(0), sc(0)))
    rep = restrict_to_link(p, e1)
    assert rep.lam_h == (1, 2, 1)
    assert rep.star_h == (1, 2, 1, 0)
    assert rep.ok


def test_restrict_to_link_guards(cube_fan, quadrant_fan):
    with pytest.raises(ValueError):
        restrict_to_link(profile_for_fan(cube_fan), cube_fan.ray_ids()[0])
    p = profile_for_fan(quadrant_fan)
    with pytest.raises(ValueError):
        restrict_to_link(p, quadrant_fan.maximal_ids[0])


def test_exact_sequences(onedim_fan, quadrant_fan, orthant_fan):
    r1 = next(c.id for c in onedim_fan.cones_of_dim(1)
              if c.rays[0] == (sc(1),))
    assert exact_sequence_check(onedim_fan, r1)
    e1 = next(c.id for c in quadrant_fan.cones_of_dim(1)
              if c.rays[0] == (sc(1), sc(0)))
    assert exact_sequence_check(quadrant_fan, e1)
    m0 = orthant_fan.maximal_ids[0]
    assert exact_sequence_check(orthant_fan, m0)


def test_exact_sequence_rejects_empty_complement(onedim_fan):
    with pytest.raises(ValueError):
        exact_sequence_check(onedim_fan, onedim_fan.zero_id())


def test_hilbert_freeness(quadrant_fan, orthant_fan):
    from math import comb

    for fan in (quadrant_fan, orthant_fan):
        p = profile_for_fan(fan)
        n = fan.n
        for d in range(0, 2 * n + 1, 2):
            dim = len(p.pair.section_space(d).basis)
            want = sum(h * comb((d - j) // 2 + n - 1, n - 1)
                       for j, h in p.h.items() if j <= d)
            assert dim == want
