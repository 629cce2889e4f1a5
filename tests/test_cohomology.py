import itertools
import random

import pytest

from ihfan.conewise import Polynomial
from ihfan import cohomology, exactlin, ihsheaf
from ihfan.exactlin import ZERO, Matrix, ScalarField, rank, sc
from ihfan.fans import (PLFunction, build_fan, face_fan_with_support,
                        is_strictly_convex, normal_fan, product_fan)
from ihfan.ihsheaf import (GradedIH, _section_spaces, build_distinguished_pair,
                           pair_from_json_dict, pair_to_json_dict,
                           projection_along)
from ihfan.cohomology import (EvaluationContext, ds_check, convolve_h,
                              evaluate_fast, hl_rank_report, hrm_check,
                              kunneth_check, lefschetz_matrix,
                              pairing_matrix, profile_for_fan,
                              toric_h_of_fan)
from conftest import (cached_pair, cube_vertices, fan_cold_fans, no_residue,
                      prism_vertices, sqrt2_prism_pyramid,
                      sqrt2_triangular_prism)
import oracles
from oracles import (ConewiseFunction, FaceLattice, as_function, dual_forms,
                     evaluate, exact_sequence_check,
                     expected_signature_loop, f_to_h, flag_pair,
                     ideal_multiple,
                     module_step, polytope_face_lattice, primitive_basis,
                     restrict_to_link, skew_product, toric_h_oracle,
                     unit_vectors, validate)


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
    r2 = F.parse("0+1r2")
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


# -- independence of the subdivision ------------------------------------------


def lefschetz_answers(gih, l):
    """What a report reads off a profile: h, the pairing's rank at every
    grading, the hard Lefschetz ranks, and per grading up to the middle the
    Hodge-Riemann signature, primitive dimension and definiteness."""
    n = gih.pair.fan.n
    return (gih.h_vector(),
            [rank(pairing_matrix(gih, d)) for d in range(0, 2 * n + 1, 2)],
            hl_rank_report(gih, l),
            [(r["signature"], r["primitive_dim"], r["definite"])
             for r in hrm_check(gih, l).rows])


def fan_cold_prism(i):
    """The i-th nonsimplicial fan of one seed-1 fan-cold cycle (a rational
    prism or its twin) with its inline l."""
    fan, values = [(f, v) for f, v in fan_cold_fans(1)
                   if not f.is_simplicial()][i]
    return fan, PLFunction.from_ray_values(fan, values)


SUBDIVISION_FANS = {
    "cube-face": lambda: face_fan_with_support(cube_vertices()),
    "sqrt2-triangular-prism": sqrt2_triangular_prism,
    "fan-cold-prism": lambda: fan_cold_prism(0),
    "fan-cold-prism-twin": lambda: fan_cold_prism(1),
    "sqrt2-prism-pyramid": sqrt2_prism_pyramid,
}


@pytest.mark.parametrize("name", SUBDIVISION_FANS)
def test_answers_do_not_depend_on_the_subdivision(name):
    # intersection cohomology is defined on the fan itself: the package's
    # subdivision, which cones only the nonsimplicial cones from centers,
    # and the full flag complex, which also cuts up every simplicial cone,
    # give the same answers, Karu's induction on each flattened boundary
    # included
    fan, l = SUBDIVISION_FANS[name]()
    ours = GradedIH(build_distinguished_pair(fan))
    flags = GradedIH(flag_pair(fan))
    assert len(ours.pair.subdivided.maximal_ids) < \
        len(flags.pair.subdivided.maximal_ids)
    answers = lefschetz_answers(ours, l)
    assert answers == lefschetz_answers(flags, l)
    h = answers[0]
    assert answers[1] == list(h)
    assert all(r == want for r, want in answers[2].values())
    assert all(definite for _, _, definite in answers[3])


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
    assert evaluate(pair, absx) == sc(2)
    assert evaluate(pair, globx) == sc(0)
    assert evaluate_fast(ctx, absx.per_max) == sc(2)
    assert evaluate_fast(ctx, globx.per_max) == sc(0)


def test_evaluate_normalization_is_basis_free(quadrant_fan):
    # each facet-form product integrates to 1 when extended by zero, for
    # every maximal cone, so the normalization does not depend on how the
    # rays were scaled or ordered
    pair = build_distinguished_pair(quadrant_fan)
    ctx = EvaluationContext(pair)
    sub = pair.subdivided
    forms = dual_forms(pair)
    for m in sub.maximal_ids:
        top = Polynomial.constant(2, 1)
        for form in forms[m]:
            top = top.mul(Polynomial.from_linear(form))
        per = {k: (top if k == m else Polynomial(2))
               for k in sub.maximal_ids}
        f = ConewiseFunction(sub, 4, per)
        assert evaluate(pair, f) == sc(1)
        assert evaluate_fast(ctx, f.per_max) == sc(1)


def test_evaluate_wedge_normalization(orthant_fan):
    pair = build_distinguished_pair(orthant_fan)
    for m, forms in dual_forms(pair).items():
        d = oracles.tagged_inverse(Matrix(forms))[1]
        assert d in (sc(1), sc(-1))


def test_evaluate_kills_ideal_multiples(quadrant_fan, orthant_fan):
    for fan in (quadrant_fan, orthant_fan):
        pair = build_distinguished_pair(fan)
        ctx = EvaluationContext(pair)
        n = fan.n
        sp, top = _section_spaces(pair, [2 * n - 2, 2 * n]).values()
        for b in sp.basis:
            for i in range(n):
                f = as_function(top, ideal_multiple(sp, b, i))
                assert evaluate(pair, f) == sc(0)
                assert evaluate_fast(ctx, f.per_max) == sc(0)


def test_evaluate_random_sections_fast_agrees(quadrant_fan, orthant_fan):
    rng = random.Random(7)
    for fan in (quadrant_fan, orthant_fan):
        pair = build_distinguished_pair(fan)
        ctx = EvaluationContext(pair)
        sp = _section_spaces(pair, [2 * fan.n])[2 * fan.n]
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
            f = as_function(sp, vec)
            assert evaluate(pair, f) == evaluate_fast(ctx, f.per_max)


def test_evaluate_rejects_non_sections(quadrant_fan):
    pair = build_distinguished_pair(quadrant_fan)
    sub = pair.subdivided
    m0 = sub.maximal_ids[0]
    bad = ConewiseFunction(sub, 4,
                           {m: (Polynomial(2, {(2, 0): sc(1)})
                                if m == m0 else Polynomial(2))
                            for m in sub.maximal_ids})
    with pytest.raises(ValueError):
        evaluate(pair, bad)
    with pytest.raises(ValueError):
        evaluate(pair, ConewiseFunction(sub, 2, {m: Polynomial(2)
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


class _ZeroGram(GradedIH):
    """A profile whose representatives all evaluate to zero: every Gram,
    the pairing included, is zero."""

    __slots__ = ()

    def lefschetz_gram(self, l, d, e):
        return Matrix([[ZERO] * self.h[e] for _ in range(self.h[d])],
                      ncols=self.h[e])


def test_pairing_rejects_degenerate(quadrant_fan):
    # the zero pairing fails the certificate, so the profile selects
    # exactly, and it raises at every grading, below and above n
    before = exactlin.modp_fallbacks
    p = _ZeroGram(cached_pair(quadrant_fan))
    assert exactlin.modp_fallbacks == before + 1
    assert p.h_vector() == (1, 2, 1) and p.grams == {}
    for d in (0, 2, 4):
        with pytest.raises(ValueError, match="degenerate"):
            pairing_matrix(p, d)
    assert p.grams == {}


def test_fallback_profile_keeps_its_pairing(monkeypatch, cube_fan):
    # a profile selected exactly has no certificate: its pairing is built
    # on the first call, kept, and read back (transposed above n)
    pair = cached_pair(cube_fan)
    with monkeypatch.context() as mp:
        mp.setattr(exactlin, "residue_map", no_residue)
        p = GradedIH(pair)
    certified = GradedIH(pair)
    assert p.grams == {} and sorted(certified.grams) == [0, 2]
    for d in (0, 2):
        mat = pairing_matrix(p, d)
        assert p.grams[d] is mat
        assert pairing_matrix(p, d) is mat
        assert pairing_matrix(p, 6 - d) == mat.transpose()
        assert mat == pairing_matrix(certified, d)


def test_multiplication_is_self_adjoint(quadrant_fan, orthant_fan,
                                        cube_fan_support, prism_fan_support):
    # <(l.x).y> = <x.(l.y)> as a matrix identity between module-route step
    # matrices and pairing matrices; and the Gram route's Lefschetz matrix
    # is the product of the module-route steps
    cases = [(fan, PLFunction.from_ray_values(fan, unit_ray_values(fan)))
             for fan in (quadrant_fan, orthant_fan)]
    for fan, l in cases + [cube_fan_support, prism_fan_support]:
        p = profile_for_fan(fan)
        n = fan.n
        steps = {d: module_step(p, d, l) for d in range(0, 2 * n, 2)}
        for d in range(0, 2 * n - 1, 2):
            b2 = pairing_matrix(p, d + 2)
            b0 = pairing_matrix(p, d)
            assert steps[d].transpose().mul(b2) == \
                b0.mul(steps[2 * n - d - 2])
        for d in range(0, n + 1, 2):
            a = Matrix([[sc(int(i == j)) for j in range(p.h[d])]
                        for i in range(p.h[d])], ncols=p.h[d])
            for e in range(d, 2 * n - d, 2):
                a = steps[e].mul(a)
            assert lefschetz_matrix(p, l, d) == a


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
    z = lefschetz_matrix(pq, diag, 0)
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
                validate(f)


# -- signatures ------------------------------------------------------------


def test_expected_signature_sums_the_g_vector():
    # the sums of the even and odd entries of g = (h_0, h_1 - h_0, ...)
    # against the loop over the gradings, on every h of length <= 6 with
    # entries 0-3, at every even d that h reaches
    for length in range(1, 7):
        for h in itertools.product(range(4), repeat=length):
            for d in range(0, 2 * length - 1, 2):
                assert cohomology._expected_signature(h, d) == \
                    expected_signature_loop(h, d)


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


def _conewise_product(sub, a, b, lin, k):
    """The grading-2n conewise function a * b * lin^k (per-cone products)."""
    n = sub.n
    per = {}
    for m in a:
        q = a[m].mul(b[m])
        for _ in range(k):
            q = q.mul(Polynomial.from_linear(lin[m]))
        per[m] = q
    return ConewiseFunction(sub, 2 * n, per)


@pytest.fixture(scope="module")
def gram_cases(quadrant_fan, orthant_fan, cube_fan_support,
               prism_fan_support):
    cases = [(fan, PLFunction.from_ray_values(fan, unit_ray_values(fan)))
             for fan in (quadrant_fan, orthant_fan)]
    return cases + [cube_fan_support, prism_fan_support]


def test_pairing_gram_agrees_with_symbolic_evaluation(gram_cases):
    # the pairing is a Gram product of the representatives' values at one
    # point; the symbolic route sums the rational functions of the products
    # and cancels their poles without choosing a point.  <a.b> = <b.a>, so
    # the gradings above n are the transposes of those below.
    for fan, _ in gram_cases:
        p = profile_for_fan(fan)
        sub = p.pair.subdivided
        n = fan.n
        for d in range(0, n + 1, 2):
            mat = pairing_matrix(p, d)
            assert pairing_matrix(p, 2 * n - d) == mat.transpose()
            for i, a in enumerate(p.rep_polys(d)):
                for j, b in enumerate(p.rep_polys(2 * n - d)):
                    assert mat.entries[i][j] == evaluate(
                        p.pair, _conewise_product(sub, a, b, None, 0))


def test_hrm_gram_agrees_with_symbolic_evaluation(gram_cases):
    # B_l(a, b) = <l^(n-d) a b> by the same two routes; the form is
    # symmetric, so the upper triangle and symmetry cover every entry
    for fan, l in gram_cases:
        p = profile_for_fan(fan)
        sub = p.pair.subdivided
        n = fan.n
        lin = {m: l.per_max[p.pair.carrier[m]] for m in sub.maximal_ids}
        for row in hrm_check(p, l).rows:
            d, mat = row["d"], row["matrix"]
            assert mat.is_symmetric()
            reps = p.rep_polys(d)
            for i, a in enumerate(reps):
                for j in range(i, len(reps)):
                    assert mat.entries[i][j] == evaluate(
                        p.pair, _conewise_product(sub, a, reps[j], lin, n - d))


def test_each_l_gets_its_own_answers():
    # twelve strictly convex l on one cached pentagonal bipyramid: each l
    # is answered with its own matrices, never an earlier l's.  Face fan
    # of a 3-polytope with f0 = 7 vertices: h = (1, f0-3, f0-3, 1), HL
    # ranks h, HRM signature (h0, h1-h0) on IH^2.
    rays = [(-1, 4, 0), (-4, 1, 0), (-2, -4, 0), (3, -2, 0), (4, 2, 0),
            (0, 0, 3), (0, 0, -3)]
    fan = build_fan(3, [[rays[i], rays[(i + 1) % 5], rays[apex]]
                        for apex in (5, 6) for i in range(5)])
    p = profile_for_fan(fan)
    n = fan.n
    ctx = p.context()
    top = evaluate_fast(ctx, p.rep_polys(2 * n)[0])
    rng = random.Random(5)
    seen = set()
    while len(seen) < 12:
        # small perturbations of the gauge function (value 1 on each
        # vertex) stay strictly convex; redraw the rare one that is not
        values = {rid: sc(1) + sc(rng.randint(-6, 6)) / sc(50)
                  for rid in fan.ray_ids()}
        l = PLFunction.from_ray_values(fan, values)
        key = tuple(sorted(l.per_max.items()))
        if key in seen or not is_strictly_convex(fan, l):
            continue
        seen.add(key)
        assert hl_rank_report(p, l) == {0: (1, 1), 2: (4, 4)}
        rows = [(r["d"], r["signature"], r["primitive_dim"], r["definite"])
                for r in hrm_check(p, l).rows]
        assert rows == [(0, (1, 0), 1, True), (2, (1, 3), 3, True)]
        # <l^n> = a <c> with a the Lefschetz matrix of this l from grading
        # 0 and c the grading-2n representative
        a = lefschetz_matrix(p, l, 0).entries[0][0]
        sub = p.pair.subdivided
        one = {m: Polynomial.constant(n, 1) for m in sub.maximal_ids}
        lin = {m: l.per_max[p.pair.carrier[m]] for m in sub.maximal_ids}
        assert evaluate_fast(
            ctx, _conewise_product(sub, one, one, lin, n).per_max) == a * top


# -- structural checks -----------------------------------------------------


def test_ds_check(quadrant_fan, cube_fan):
    assert ds_check(profile_for_fan(quadrant_fan).h_vector())
    assert ds_check(profile_for_fan(cube_fan).h_vector())
    assert ds_check((1, 3, 3, 1))
    assert not ds_check((1, 2, 2))


def test_kunneth(onedim_fan, quadrant_fan):
    p1 = profile_for_fan(onedim_fan)
    pq = profile_for_fan(quadrant_fan)
    assert convolve_h((1, 1), (1, 1)) == (1, 2, 1)
    prod2 = profile_for_fan(product_fan(onedim_fan, onedim_fan))
    assert prod2.h_vector() == (1, 2, 1)
    assert kunneth_check(p1.h_vector(), p1.h_vector(), prod2.h_vector())
    prod3 = profile_for_fan(product_fan(onedim_fan, quadrant_fan))
    assert prod3.h_vector() == (1, 3, 3, 1)
    assert kunneth_check(p1.h_vector(), pq.h_vector(), prod3.h_vector())
    assert kunneth_check((1,), pq.h_vector(), pq.h_vector())
    assert not kunneth_check(p1.h_vector(), pq.h_vector(), pq.h_vector())


def test_kunneth_skew(onedim_fan):
    plus = next(m for m in onedim_fan.maximal_ids
                if onedim_fan.cones[m].rays[0] == (sc(1),))
    minus = next(m for m in onedim_fan.maximal_ids
                 if onedim_fan.cones[m].rays[0] == (sc(-1),))
    sk = skew_product(onedim_fan, onedim_fan,
                      {plus: ((1,),), minus: ((-1,),)})
    p1 = profile_for_fan(onedim_fan)
    assert kunneth_check(p1.h_vector(), p1.h_vector(),
                         profile_for_fan(sk).h_vector())


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


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return sc(1)
    return sum((sc((-1) ** j) * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
                for j, x in enumerate(rows[0]) if x), start=sc(0))


def test_restrict_to_link_every_ray():
    # every ray of P^2 and of a bipyramid whose link cones are not all
    # unimodular: restricted along b^T, b the basis of ker x that
    # projection_along builds, the hat pairing is the link's pairing times
    # 1/|det(v_rho, b)|, since the rays of a cone rho + tau written in the
    # basis (v_rho, b) have determinant det(v_rho, b) times that of their
    # projections
    p2 = build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, -1)],
                       [(-1, -1), (1, 0)]])
    bipyramid = face_fan_with_support(
        [(2, 0, 0), (1, 2, 0), (-1, 2, 0), (-2, 0, 0), (0, -2, 0),
         (0, 0, 3), (0, 0, -3)], field=ScalarField(2))[0]
    got, want = {}, {}
    for fan in (p2, bipyramid):
        p = profile_for_fan(fan)
        for rid in fan.ray_ids():
            v = fan.cones[rid].rays[0]
            rep = restrict_to_link(p, rid)
            got[v] = (rep.loc_prod_ok, rep.reduct_ok, rep.deg2_ok,
                      rep.constant)
            b = projection_along(v, fan.n, unit_vectors(fan.n))[1]
            want[v] = (True, True, True, abs(_det([v] + b)).inverse())
    assert len(got) == 10
    assert got == want


def test_restrict_to_link_rejects_images_outside_relative_sections(
        monkeypatch):
    # multiplying by the global form (1, 0) in place of the hat function of
    # the ray (1, 0) of P^2: x_0 is -1 on the link ray (-1, -1), so the
    # images do not vanish on the star's boundary and are no relative
    # sections; the other two checks do not multiply and still pass
    p2 = build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, -1)],
                       [(-1, -1), (1, 0)]])
    p = profile_for_fan(p2)
    rid = p2.id_by_key[((sc(1), sc(0)),)]
    mul_pl = oracles._mul_pl
    monkeypatch.setattr(oracles, "_mul_pl", lambda v, l: mul_pl(
        v, PLFunction(l.fan, {m: (1, 0) for m in l.per_max}, check=False)))
    rep = restrict_to_link(p, rid)
    assert rep.loc_prod_ok and rep.reduct_ok
    assert not rep.deg2_ok
    assert not rep.ok


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
        exact_sequence_check(onedim_fan, onedim_fan.id_by_key[()])


def test_hilbert_freeness(quadrant_fan, orthant_fan):
    from math import comb

    for fan in (quadrant_fan, orthant_fan):
        p = profile_for_fan(fan)
        n = fan.n
        for d in range(0, 2 * n + 1, 2):
            dim = len(p.spaces[d].basis)
            want = sum(h * comb((d - j) // 2 + n - 1, n - 1)
                       for j, h in p.h.items() if j <= d)
            assert dim == want


def _kite(k):
    # complete 2-d fans, a new one for each k
    return build_fan(2, [[(1, 0), (k, 1)], [(k, 1), (-1, 0)],
                         [(-1, 0), (0, -1)], [(0, -1), (1, 0)]])


def test_profile_cache_is_bounded():
    info = profile_for_fan.cache_info
    assert info().maxsize == 32
    first = profile_for_fan(_kite(0))
    second = profile_for_fan(_kite(1))
    for k in range(2, 34):
        profile_for_fan(_kite(k))
        hits = info().hits
        assert profile_for_fan(_kite(0)) is first  # kept while in use
        assert info().hits == hits + 1
        assert info().currsize <= 32
    assert info().currsize == 32
    misses = info().misses
    again = profile_for_fan(_kite(1))  # least recently used: rebuilt
    assert info().misses == misses + 1 and again is not second
    assert first.h_vector() == again.h_vector() == (1, 2, 1)


def test_equal_fans_share_one_profile():
    # the cache keys by fan equality: the same cones from rays listed in
    # another order and scale give the same profile, another field another
    a = _kite(40)
    b = build_fan(2, [[(0, -1), (1, 0)], [(0, -3), (-2, 0)],
                      [(-1, 0), (40, 1)], [(80, 2), (1, 0)]])
    assert a is not b and a == b
    assert profile_for_fan(a) is profile_for_fan(b)
    c = build_fan(2, [[(1, 0), (40, 1)], [(40, 1), (-1, 0)],
                      [(-1, 0), (0, -1)], [(0, -1), (1, 0)]],
                  field=ScalarField(2))
    assert c != a and profile_for_fan(c) is not profile_for_fan(a)


# -- caches keyed by the labeled face lattice --------------------------------


def _prism_face_fan(triangle, axes=(0, 1, 2)):
    """The face fan of the prism over a triangle with z = +-1, its
    coordinates taken in the order axes, and its support function."""
    pts = [(sc(x), sc(y), sc(z)) for x, y in triangle for z in (1, -1)]
    return face_fan_with_support([tuple(v[i] for i in axes) for v in pts])


def _clear_shared_caches():
    ihsheaf._columns.cache_clear()
    cohomology._toric_h.cache_clear()


def _answers(profile, l):
    """Everything a report reads off a profile: h, the fan recursion,
    every pairing matrix, the HL ranks, the HRM rows and every
    representative's polynomials (None for l gives the last only)."""
    n = profile.pair.fan.n
    out = {"h": profile.h_vector(),
           "rep_polys": {d: profile.rep_polys(d)
                         for d in range(0, 2 * n + 1, 2)},
           "spaces": {d: (sp.cols, sp.basis, sp.free)
                      for d, sp in profile.spaces.items()}}
    if l is not None:
        out["oracle"] = toric_h_of_fan(profile.pair.fan)
        out["pairing"] = {d: pairing_matrix(profile, d)
                          for d in range(0, 2 * n + 1, 2)}
        out["hl"] = hl_rank_report(profile, l)
        out["hrm"] = [(r["matrix"], r["signature"], r["primitive_dim"],
                       r["definite"]) for r in hrm_check(profile, l).rows]
    return out


def test_one_labeled_face_lattice_shares_its_columns():
    # Prisms a and b share a labeled face lattice but not their coordinates
    # (b is over Q(sqrt 2)); c has six rays and its square cones at the same
    # ids, but other rays on its triangles; d is read from a dump with the
    # square cones' grading-2 generators left out, a's fan under other
    # stalk gradings.  The octahedra e and f (sheared over Q(sqrt 2))
    # share one too, and being simplicial, their whole section bases; g,
    # a triangular bipyramid with one face capped, has six rays and eight
    # triangles too, but not on the same rays.  Shared or cold, every
    # answer is the same.
    a = _prism_face_fan([(2, 0), (-1, 1), (-1, -1)])
    b = sqrt2_triangular_prism()
    c = _prism_face_fan([(1, 1), (-1, 2), (-1, -3)], axes=(1, 2, 0))
    dump = pair_to_json_dict(build_distinguished_pair(a[0]))
    for cid, gens in dump["stalks"].items():
        dump["stalks"][cid] = gens[:1]
    field = ScalarField(2)
    r2 = field.parse("0+1r2")
    e = face_fan_with_support(octahedron_vertices())
    f = face_fan_with_support([(sc(x), sc(y), z + r2 * x)
                               for x, y, z in octahedron_vertices()],
                              field=field)
    g = face_fan_with_support([(2, 0, 0), (-1, 2, 0), (-1, -2, 0),
                               (0, 0, 2), (0, 0, -2), (1, 1, 1)])
    inputs = [(lambda fan=fan: build_distinguished_pair(fan), l)
              for fan, l in (a, b, c, e, f, g)]
    inputs.insert(3, (lambda: pair_from_json_dict(dump), None))
    cold = []
    for make, l in inputs:
        _clear_shared_caches()
        cold.append(_answers(GradedIH(make()), l))
    _clear_shared_caches()
    profiles = [GradedIH(make()) for make, _ in inputs]
    pa, pb, pc, pd, pe, pf, pg = profiles
    assert [len(ihsheaf._carriers(p.pair)) for p in profiles] == \
        [5, 5, 5, 5, 8, 8, 8]
    for d, sp in pa.spaces.items():
        assert pb.spaces[d].cols is sp.cols
        assert pc.spaces[d].cols is not sp.cols
        assert pd.spaces[d].cols is not sp.cols
        assert pf.spaces[d].cols is pe.spaces[d].cols
        assert pf.spaces[d].basis is pe.spaces[d].basis
        assert pg.spaces[d].cols is not pe.spaces[d].cols
    assert pd.h_vector() != pa.h_vector()
    for p, (_, l), want in zip(profiles, inputs, cold):
        assert _answers(p, l) == want
    _clear_shared_caches()


def _bounded(cache, keys):
    """Fill an lru_cache through calls on keys, one more than its maxsize:
    the first stays while in use, the second is evicted as the least
    recently used, and the size never passes maxsize."""
    info = cache.cache_info
    size = info().maxsize
    assert len(keys) == size + 2
    cache.cache_clear()
    first = cache(*keys[0])
    second = cache(*keys[1])
    for key in keys[2:]:
        cache(*key)
        hits = info().hits
        assert cache(*keys[0]) is first   # kept while in use
        assert info().hits == hits + 1
        assert info().currsize <= size
    assert info().currsize == size
    misses = info().misses
    again = cache(*keys[1])   # least recently used: rebuilt
    assert info().misses == misses + 1 and again is not second
    assert again == second
    cache.cache_clear()


def test_column_cache_is_bounded():
    assert ihsheaf._columns.cache_info().maxsize == 256
    # one simplicial carrier in dimension 1, a new id for each key
    _bounded(ihsheaf._columns,
             [(1, 2, ((mid, (1,), (0,)),)) for mid in range(258)])


def test_fan_recursion_cache_is_bounded():
    assert cohomology._toric_h.cache_info().maxsize == 64
    # the lattice of the zero cone alone, in each dimension
    _bounded(cohomology._toric_h, [(n, ((0, ()),)) for n in range(66)])
