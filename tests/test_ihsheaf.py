import contextlib
import json
import itertools
import random
from fractions import Fraction
from math import comb, lcm

import pytest

from ihfan import exactlin, fans, ihsheaf
from ihfan.conewise import Polynomial, monomials
from ihfan.exactlin import (ONE, ZERO, Matrix, Scalar, ScalarField,
                            echelon_insert, gram, sc, signature,
                            sparse_eliminate)
from ihfan.fans import (barycentric_subdivision, build_fan,
                        canonical_direction, face_fan_with_support,
                        is_complete, is_strictly_convex, product_fan)
from ihfan.ihsheaf import (DistinguishedPair, GradedIH,
                           build_distinguished_pair, flatten_boundary,
                           pair_from_json_dict, pair_to_json_dict,
                           projection_along)
from conftest import (cached_pair, cube_vertices, dodecahedron_vertices,
                      fan_cold_fans, golden_field, no_residue,
                      sqrt2_prism_pyramid, sqrt2_triangular_prism)
from oracles import (as_function, barycenter_sum_scaled, boundary_piece_ids,
                     carriers_by_star_scan, classes_by_wall_joins, flag_rule,
                     flag_subdivision, full_greedy, global_sections,
                     gram_loop, lift_over_span, materialized_values,
                     profile_with_centers, projected_subdivision, reduce_mod,
                     relative_ih, relative_sections, star_link, unit_vectors,
                     validate, vdot_loop)


# -- boundary flattening ---------------------------------------------------


def flattened(generators, flags=False):
    """The fan of one cone, subdivided by the package's rule or, with
    flags, into its flag complex (flag_rule), with the constant stalk on
    each proper face, and flatten_boundary of the cone along its
    subdivision center under the same rule: (pair, cone id, center,
    flattening).  A simplicial cone gets a center from the flag complex
    only."""
    fan = build_fan(len(generators[0]), [generators])
    with flag_rule() if flags else contextlib.nullcontext():
        pair = DistinguishedPair(fan, *fans.barycentric_subdivision(fan))
        top = fan.maximal_ids[0]
        for cid in fan.faces_of[top]:
            pair.stalks[cid] = ((0, {pid: Polynomial.constant(fan.n, 1)
                                     for pid in pair.pieces[cid]}),)
        # the cone's center is chosen first
        v = pair.steps[0][0]
        return pair, top, v, flatten_boundary(pair, top, v)


def test_flatten_orthant():
    _, _, _, (lam_pair, lam_l, _, _) = flattened(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)], flags=True)
    lam = lam_pair.fan
    assert lam.n == 2
    assert len(lam.maximal_ids) == 3
    assert is_complete(lam)
    assert is_strictly_convex(lam, lam_l)


def test_flatten_two_dim_cone():
    _, _, _, (lam_pair, lam_l, _, _) = flattened([(1, 0), (1, 2)],
                                                  flags=True)
    lam = lam_pair.fan
    assert lam.n == 1
    assert len(lam.maximal_ids) == 2
    assert is_complete(lam)
    assert is_strictly_convex(lam, lam_l)


def test_flatten_cone_over_square():
    pair, top, _, (lam_pair, lam_l, proj, pieces) = flattened(
        [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)])
    lam = lam_pair.fan
    assert len(lam.maximal_ids) == 4
    assert is_complete(lam)
    assert is_strictly_convex(lam, lam_l)
    # every proper face is matched to a cone of the flattened fan
    images = {tuple(sorted(canonical_direction(proj.apply(r))
                           for r in pair.fan.cones[f].rays))
              for f in pair.fan.faces_of[top]}
    assert images == set(lam.id_by_key)
    # and every piece of the cone to a maximal cone of its subdivision
    assert sorted(pieces.values()) == \
        sorted(lam_pair.subdivided.maximal_ids)


def test_flatten_projection_kills_center():
    pair, top, v, (_, _, proj, _) = flattened(
        [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)])
    assert not any(proj.apply(v))
    # and is the identity-like section over each facet: lift then project,
    # and the lift of a projected ray of the facet is the ray itself; every
    # ray of every proper face lies on a facet
    facets = [f for f in pair.fan.faces_of[top] if pair.fan.cones[f].dim == 2]
    assert len(facets) == 4
    for f in facets:
        fkey = pair.fan.cones[f].rays
        lift = lift_over_span(proj, fkey, 3)
        for r in fkey:
            p = proj.apply(r)
            back = tuple(sum((lift[i][j] * p[j] for j in range(len(p))),
                             start=ZERO) for i in range(3))
            assert tuple(proj.apply(back)) == tuple(p)
            assert back == r


def sqrt2_triangle_prism():
    """A Q(sqrt 2)-sheared prism over a triangle, centred at the origin."""
    F = ScalarField(2)
    return [tuple(F.parse(x) for x in v) for v in (
        ("2", "0", "1+2r2"), ("2", "0", "-1+2r2"), ("-1", "1", "1-1r2"),
        ("-1", "1", "-1-1r2"), ("-1", "-1", "1-1r2"),
        ("-1", "-1", "-1-1r2"))], F


def four_cube_fan():
    return face_fan_with_support(list(itertools.product((1, -1), repeat=4)))[0]


def nonsimplicial_centers(pair):
    """(cone id, subdivision center) for each nonsimplicial cone."""
    centers = {key: c for c, key in pair.steps}
    return [(cid, centers[c.rays]) for cid, c in pair.fan.cones.items()
            if not c.is_simplicial()]


def test_flattened_lifts_match_the_projection_inverse():
    # each facet's lift, read off the cone's facet form, is the section of
    # the projection over the facet's span, which inverting the projection
    # there also gives.  The stalks are replaced by the coordinates x_j, so
    # the flattened stalks are the rows of the lift, and l = x . lift
    prism, F = sqrt2_triangle_prism()
    pyramid = [v + (sc(-1),) for v in prism] + [(ZERO, ZERO, ZERO, sc(3))]
    facets = 0
    for fan in (face_fan_with_support(cube_vertices())[0],
                face_fan_with_support(prism, field=F)[0],
                four_cube_fan(),
                face_fan_with_support(pyramid, field=F)[0]):
        pair = cached_pair(fan)
        n = fan.n
        coords = [Polynomial.from_linear(u) for u in unit_vectors(n)]
        probe = DistinguishedPair(fan, pair.subdivided, pair.steps, {
            cid: tuple((2, {pid: x for pid in pair.pieces[cid]})
                       for x in coords)
            for cid in fan.cones})
        for cid, v in nonsimplicial_centers(pair):
            lam_pair, lam_l, proj, _ = flatten_boundary(probe, cid, v)
            x = projection_along(v, n, unit_vectors(n))[0]
            for f in fan.faces_of[cid]:
                if fan.cones[f].dim != fan.cones[cid].dim - 1:
                    continue
                rays = fan.cones[f].rays
                lift = lift_over_span(proj, rays, n)
                lid = lam_pair.fan.id_by_key[tuple(sorted(
                    canonical_direction(proj.apply(r)) for r in rays))]
                assert len(lam_pair.stalks[lid]) == len(lift) == n
                for (g, sec), row in zip(lam_pair.stalks[lid], lift):
                    assert g == 2
                    assert set(sec.values()) == {Polynomial.from_linear(row)}
                assert lam_l.per_max[lid] == \
                    gram((x,), None, zip(*lift)).entries[0]
                facets += 1
    # 6 * 4 on the cube, 3 * 4 on the prism, 24 * 4 + 8 * 6 on the 4-cube
    # (its square cones and cubic cones), and 3 * 4 + 5 + 3 * 5 on the
    # pyramid (its square cones, the prism and the square pyramids)
    assert facets == 24 + 12 + 144 + 32


def test_flattened_pentagons_satisfy_hodge_riemann():
    # each cone over a pentagon of the dodecahedron flattens to a complete
    # fan of f0 = 5 rays in the plane: h = (1, f0-2, 1) = (1, 3, 1), so the
    # signatures are (h0, 0) = (1, 0) at d = 0 and (h0, h1-h0) = (1, 2) at
    # d = 2, with primitive dims h0 = 1 and h1 - h0 = 2
    F, _ = golden_field()
    pair = cached_pair(face_fan_with_support(dodecahedron_vertices(),
                                             field=F)[0])
    flattened = nonsimplicial_centers(pair)
    assert len(flattened) == 12
    for cid, v in flattened:
        lam_pair, lam_l, _, _ = flatten_boundary(pair, cid, v)
        gih = GradedIH(lam_pair)
        assert gih.h_vector() == (1, 3, 1)
        for d, sig, pdim in ((0, (1, 0), 1), (2, (1, 2), 2)):
            bmat, prim, definite = gih.hodge_riemann(lam_l, d)
            assert signature(bmat) == sig
            assert len(prim) == pdim
            assert definite


def test_flattened_cubes_satisfy_hodge_riemann():
    # each cubic cone of the 4-cube's face fan flattens to a cube's face
    # fan, f0 = 8: h = (1, f0-3, f0-3, 1) = (1, 5, 5, 1), and at d = 2 the
    # signature is (h0, h1-h0) = (1, 4) with primitive dim 4
    pair = cached_pair(four_cube_fan())
    cubes = [(cid, v) for cid, v in nonsimplicial_centers(pair)
             if pair.fan.cones[cid].dim == 4]
    assert len(cubes) == 8
    for cid, v in cubes:
        lam_pair, lam_l, _, _ = flatten_boundary(pair, cid, v)
        gih = GradedIH(lam_pair)
        assert gih.h_vector() == (1, 5, 5, 1)
        bmat, prim, definite = gih.hodge_riemann(lam_l, 2)
        assert signature(bmat) == (1, 4)
        assert len(prim) == 4
        assert definite


def test_flattened_boundary_must_satisfy_hodge_riemann(monkeypatch):
    # with every Gram negated the pairing stays perfect and the primitives
    # keep their dimensions, but no Lefschetz form is definite with the
    # right sign: Karu's induction hypothesis fails on the cube's squares
    gram_of = GradedIH.lefschetz_gram

    def negated(self, l, d, e):
        mat = gram_of(self, l, d, e)
        return Matrix([[-x for x in row] for row in mat.entries],
                      ncols=mat.ncols)

    monkeypatch.setattr(GradedIH, "lefschetz_gram", negated)
    with pytest.raises(ValueError, match="Hodge-Riemann"):
        build_distinguished_pair(face_fan_with_support(cube_vertices())[0])


# -- distinguished pairs ---------------------------------------------------


def stalk_gradings(stalk):
    return tuple(g for g, _ in stalk)


def test_simplicial_pair_is_identity(quadrant_fan):
    p = cached_pair(quadrant_fan)
    assert p.subdivided is quadrant_fan
    assert p.steps == ()
    for cid in p.fan.cones:
        assert stalk_gradings(p.stalks[cid]) == (0,)


def test_nonsimplicial_pair_subdivides(cube_fan):
    # each of the 6 square cones is coned from its center over its 4 edge
    # cones, and every simplicial cone stays whole
    p = cached_pair(cube_fan)
    assert len(p.subdivided.maximal_ids) == 6 * 4
    assert p.subdivided.is_simplicial()
    assert all(c.rays in p.subdivided.id_by_key
               for c in p.fan.cones.values() if c.is_simplicial())
    # stalks of the square-based cones gain a grading-2 generator
    for m in p.fan.maximal_ids:
        assert stalk_gradings(p.stalks[m]) == (0, 2)
    for c in p.fan.cones_of_dim(2):
        assert stalk_gradings(p.stalks[c.id]) == (0,)


def test_pair_pieces_and_carriers(cube_fan):
    # a square cone has one piece per edge of its square; an edge cone is
    # its own only piece
    p = cached_pair(cube_fan)
    for m in p.fan.maximal_ids:
        assert len(p.pieces[m]) == 4
        for pid in p.pieces[m]:
            assert p.carrier[pid] == m
    for c in p.fan.cones_of_dim(2):
        assert p.pieces[c.id] == (p.subdivided.id_by_key[c.rays],)
    total = sum(len(p.pieces[m]) for m in p.fan.maximal_ids)
    assert total == len(p.subdivided.maximal_ids)


def test_carriers_are_the_star_scan(orthant_fan, quadrant_fan, prism_fan):
    # a subdivided cone with a coarse cone's key is its own carrier; every
    # carrier must be the one the star rule alone finds
    line = build_fan(1, [[(1,)], [(-1,)]])
    cube_normal, _ = fans.normal_fan(
        [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)])
    pairs = [cached_pair(orthant_fan),
             cached_pair(product_fan(quadrant_fan, quadrant_fan)),
             cached_pair(prism_fan)]
    prism_line = product_fan(prism_fan, line)
    for fan in (cube_normal, prism_line):
        pairs.append(DistinguishedPair(fan, *barycentric_subdivision(fan)))
    # the full flag complex of the 4D product, a finer subdivision
    pairs.append(DistinguishedPair(prism_line, *flag_subdivision(prism_line)))
    # the flattened pairs: the prism's squares flatten to simplicial fans,
    # their own subdivisions; the 4-cube's cubic cones and the Q(sqrt 2)
    # prism pyramid's 4-dimensional nonsimplicial cones, its base cone
    # among them, flatten to fans with square cones, which get centers,
    # and so do those of their dumps read back
    prism = pairs[2]
    for cid, v in nonsimplicial_centers(prism):
        lam_pair = flatten_boundary(prism, cid, v)[0]
        assert lam_pair.subdivided is lam_pair.fan and not lam_pair.steps
        assert lam_pair.subdivided == projected_subdivision(prism, cid, v)
        pairs.append(lam_pair)
    four_cube = cached_pair(four_cube_fan())
    prism_pyramid = cached_pair(sqrt2_prism_pyramid()[0])
    centered = 0
    for pair in (four_cube, prism_pyramid):
        back = pair_from_json_dict(json.loads(json.dumps(
            pair_to_json_dict(pair))))
        for p in (pair, back):
            for cid, v in nonsimplicial_centers(p):
                if p.fan.cones[cid].dim < 4:
                    continue
                lam_pair = flatten_boundary(p, cid, v)[0]
                assert lam_pair.subdivided == projected_subdivision(p, cid, v)
                centered += bool(lam_pair.steps)
                pairs.append(lam_pair)
            pairs.append(p)
    # each twice: the 4-cube's 8 cubic cones, and the pyramid's base cone
    # over the prism and its 3 cones over square pyramids
    assert centered == 2 * (8 + 1 + 3)
    own = 0
    for pair in pairs:
        want = carriers_by_star_scan(pair)
        assert {t: pair.carrier[t] for t in pair.subdivided.cones} == want
        own += sum(pair.fan.cones[want[t]].rays == c.rays
                   for t, c in pair.subdivided.cones.items())
        for cid in pair.fan.cones:
            assert all(want[t] == cid for t in pair.pieces[cid])
    # the 4D product's flag complex has 1,697 cones; the simplicial pairs
    # give over a hundred cones their own carrier
    assert len(pairs[5].subdivided.cones) > 1000 and own > 100


def test_subdivided_cone_outside_the_coarse_fan_is_rejected():
    upper = build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)]])
    # a ray outside the support
    below = build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)],
                          [(-1, 0), (0, -1)]])
    # rays inside the support, but a cone across the coarse wall at (0, 1)
    across = build_fan(2, [[(1, 0), (-1, 1)], [(-1, 1), (-1, 0)]])
    for sub in (below, across):
        with pytest.raises(ValueError, match="escapes the coarse fan"):
            DistinguishedPair(upper, sub, ())


def test_cone_over_square_stalk(cone_square_fan):
    p = cached_pair(cone_square_fan)
    sid = max(p.fan.cones, key=lambda i: p.fan.cones[i].dim)
    assert stalk_gradings(p.stalks[sid]) == (0, 2)
    g2 = p.stalks[sid][1][1]
    # the grading-2 generator is not the restriction of one global linear
    # function: it takes at least two distinct linear forms on the pieces
    assert len({tuple(sorted(poly.coeffs.items()))
                for poly in g2.values()}) > 1


def test_cone_over_cube_stalk(cone_cube_fan):
    p = cached_pair(cone_cube_fan)
    sid = max(p.fan.cones, key=lambda i: p.fan.cones[i].dim)
    assert stalk_gradings(p.stalks[sid]) == (0, 2, 2, 2, 2)


# -- section spaces --------------------------------------------------------


def _random_equations(rng, n, m):
    """A reduced echelon equation set [(pivot, row)] of 1 to n - 1 random
    rows over Q, or over Q(sqrt m) when m is given."""
    def entry():
        if rng.random() < 0.3:
            return ZERO
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if m else 0
        return Scalar(a, b, m if b else None)
    k = rng.randint(1, n - 1)
    rows = [[entry() for _ in range(n)] for _ in range(k)]
    return [(c, tuple(row.get(j, ZERO) for j in range(n)))
            for c, row in sparse_eliminate([dict(enumerate(r)) for r in rows])]


@pytest.mark.parametrize("m", (None, 2))
@pytest.mark.parametrize("n", (3, 4))
def test_wall_images_are_scaled_normal_forms(n, m):
    # the integer image of x^e is D^|e| times the normal form that the
    # reference reduce_mod gives, D the least common denominator of the
    # equations' rational and sqrt(m) parts
    rng = random.Random(100 * n + (m or 0))
    for _ in range(12):
        eqs = _random_equations(rng, n, m)
        den = lcm(*(part.denominator for _, row in eqs for x in row
                    for part in (x.a, x.b)))
        images = {}
        for level in itertools.islice(ihsheaf._wall_images(eqs, n, m), 5):
            images.update(level)
        for _ in range(15):
            e = rng.choice(monomials(n, rng.randint(0, 4)))
            want = reduce_mod(Polynomial(n, {e: ONE}), eqs)
            img_a, img_b = images[ihsheaf._pack(e)]
            got = {r: Scalar(img_a.get(r, 0), img_b.get(r, 0), m)
                   for r in dict.fromkeys(img_a) | dict.fromkeys(img_b)}
            assert got == {ihsheaf._pack(f): c * sc(den ** sum(e))
                           for f, c in want.coeffs.items()}


def test_global_sections_one_dim(onedim_fan):
    p = cached_pair(onedim_fan)
    g = global_sections(p, cap=6)
    assert [len(g[d]) for d in sorted(g)] == [1, 2, 2, 2]


def test_global_sections_quadrant(quadrant_fan):
    p = cached_pair(quadrant_fan)
    g = global_sections(p, cap=4)
    assert [len(g[d]) for d in sorted(g)] == [1, 4, 8]
    for d in g:
        for f in g[d]:
            validate(f)


def test_global_sections_orthant_fan(orthant_fan):
    p = cached_pair(orthant_fan)
    g = global_sections(p, cap=6)
    assert [len(g[d]) for d in sorted(g)] == [1, 6, 18, 38]


def test_global_sections_free_over_polynomials(cone_square_fan,
                                               cone_cube_fan):
    # section spaces of a single-cone pair are free over ambient
    # polynomials on the stalk generators, so dims follow the gradings
    from math import comb

    for fan, gradings in ((cone_square_fan, (0, 2)),
                          (cone_cube_fan, (0, 2, 2, 2, 2))):
        p = cached_pair(fan)
        n = fan.n
        g = global_sections(p, cap=4)
        for d in g:
            want = sum(comb((d - gj) // 2 + n - 1, n - 1)
                       for gj in gradings if gj <= d)
            assert len(g[d]) == want


def test_cube_sections_validate(cube_fan):
    p = cached_pair(cube_fan)
    sp = ihsheaf._section_spaces(p, [2])[2]
    assert len(sp.basis) == 8
    for v in sp.basis:
        validate(as_function(sp, v))


def test_relative_sections_quadrant_cone():
    f = build_fan(2, [[(1, 0), (0, 1)]])
    p = cached_pair(f)
    r = relative_sections(p, cap=4)
    assert [len(r[d]) for d in sorted(r)] == [0, 0, 1]
    poly = r[4][0].per_max[max(f.maximal_ids)]
    assert poly.coeffs == {(1, 1): poly.coeffs[(1, 1)]}


def test_relative_sections_cone_over_square(cone_square_fan):
    p = cached_pair(cone_square_fan)
    r = relative_sections(p, cap=4)
    assert [len(r[d]) for d in sorted(r)] == [0, 0, 1]


def test_relative_equals_global_for_complete(quadrant_fan):
    p = cached_pair(quadrant_fan)
    g = global_sections(p, cap=4)
    r = relative_sections(p, cap=4)
    assert [len(g[d]) for d in sorted(g)] == [len(r[d]) for d in sorted(r)]


def test_relative_sections_partial_boundary():
    f = build_fan(2, [[(1, 0), (0, 1)]])
    p = cached_pair(f)
    rays = {f.cones[i].rays[0]: i for i in f.ray_ids()}
    ex = rays[(ONE, ZERO)]
    r = relative_sections(p, boundary=[ex], cap=2)
    # vanishing on the x-axis only: multiples of y
    assert [len(r[d]) for d in sorted(r)] == [0, 1]
    with pytest.raises(ValueError):
        relative_sections(p, boundary=[f.id_by_key[()]])
    with pytest.raises(ValueError):
        quad = cached_pair(build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)],
                                         [(-1, 0), (0, -1)],
                                         [(0, -1), (1, 0)]]))
        relative_sections(quad, boundary=[ex])


# -- graded quotients ------------------------------------------------------


def test_ih_quadrant(quadrant_fan):
    g = GradedIH(cached_pair(quadrant_fan))
    assert g.h_vector() == (1, 2, 1)


def test_ih_orthant_fan(orthant_fan):
    g = GradedIH(cached_pair(orthant_fan))
    assert g.h_vector() == (1, 3, 3, 1)


def test_ih_cube_fan(cube_fan):
    g = GradedIH(cached_pair(cube_fan))
    assert g.h_vector() == (1, 5, 5, 1)


def test_ih_prism_fan(prism_fan):
    g = GradedIH(cached_pair(prism_fan))
    assert g.h_vector() == (1, 5, 5, 1)


def test_ih_choice_independent(cube_fan):
    # the coordinate-sum centers of tests/oracles.py, not the package's
    g = profile_with_centers(cube_fan, barycenter_sum_scaled)
    assert g.pair.steps != cached_pair(cube_fan).steps
    assert g.h_vector() == (1, 5, 5, 1)


def test_modular_selection_is_the_exact_one(monkeypatch, quadrant_fan,
                                            orthant_fan, cube_fan, prism_fan):
    # independence mod p picks the same representatives as the exact greedy
    # pass, including over Q(sqrt 2) (the prism); when a coefficient has no
    # residue it falls back to the exact pass.  Each profile solves its own
    # section spaces, whose kernels keep their prime: only the selection's
    # residues are taken away
    for fan in (quadrant_fan, orthant_fan, cube_fan, prism_fan):
        pair = cached_pair(fan)
        before = exactlin.modp_fallbacks
        modular = GradedIH(pair)
        assert exactlin.modp_fallbacks == before
        with monkeypatch.context() as mp:
            mp.setattr(exactlin, "residue_map", no_residue)
            exact = GradedIH(pair)
        assert exactlin.modp_fallbacks == before + 1
        assert modular.comps == exact.comps


def test_selection_is_the_greedy_choice_on_full_vectors(
        quadrant_fan, orthant_fan, cube_fan, prism_fan):
    # GradedIH reads independence on the free columns of each section
    # space; the choice must be the greedy one on the full-length
    # candidates, over Q, Q(sqrt 2) (the prism) and Q(sqrt 5) (the
    # dodecahedron), in dimension 4 too, with no fallback
    triangle = build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, -1)],
                             [(-1, -1), (1, 0)]])
    field, _ = golden_field()
    dodecahedron = face_fan_with_support(dodecahedron_vertices(),
                                         field=field)[0]
    for fan in (quadrant_fan, orthant_fan, cube_fan, prism_fan, dodecahedron,
                product_fan(triangle, quadrant_fan)):
        pair = cached_pair(fan)
        before = exactlin.modp_fallbacks
        gih = GradedIH(pair)
        assert exactlin.modp_fallbacks == before
        for d in gih.spaces:
            assert gih.comps[d] == full_greedy(gih, d)[1]
        assert exactlin.modp_fallbacks == before


def test_short_modular_selection_selects_exactly(monkeypatch, cube_fan):
    # a residue echelon without the last candidate row of its grading (the
    # first grading with candidates, where x_0, x_1, x_2 are independent)
    # leaves one more free column unpivoted: the extra representative makes
    # a pairing matrix non-square, which sends the whole profile to the
    # exact pass, counted once; an exact choice keeps no certified pairing
    # matrices
    pair = cached_pair(cube_fan)
    want = GradedIH(pair)
    eliminate = ihsheaf.sparse_eliminate
    dropped = []

    def short(rows, p=None):
        rows = list(rows)
        if p is not None and rows and not dropped:
            dropped.append(rows.pop())
        return eliminate(rows, p)

    monkeypatch.setattr(ihsheaf, "sparse_eliminate", short)
    before = exactlin.modp_fallbacks
    got = GradedIH(pair)
    assert exactlin.modp_fallbacks == before + 1
    assert got.comps == want.comps
    assert got.grams == {} and want.grams


def test_prime_dividing_a_denominator_selects_exactly():
    # the ray (1, 1/P), P the first prime for Q, has no residue mod P, so
    # the profile takes the exact pass, counted once.  A complete 2D fan
    # with f0 = 4 rays has h = (1, f0 - 2, 1)
    p = next(iter(exactlin._embeddings(None)))[0]
    ray = (1, Fraction(1, p))
    fan = build_fan(2, [[ray, (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)],
                        [(0, -1), ray]])
    before = exactlin.modp_fallbacks
    gih = GradedIH(cached_pair(fan))
    assert exactlin.modp_fallbacks == before + 1
    assert gih.h_vector() == (1, 2, 1)


def test_scalar_outside_the_field_selects_exactly():
    # a fan over Q (no field given) with a ray over Q(sqrt 2): its
    # coefficients have no residue in Q's prime, so the profile takes the
    # exact pass, counted once; f0 = 4 rays, h = (1, f0 - 2, 1)
    ray = (1, ScalarField(2).parse("0+1r2"))
    fan = build_fan(2, [[ray, (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)],
                        [(0, -1), ray]])
    before = exactlin.modp_fallbacks
    gih = GradedIH(cached_pair(fan))
    assert exactlin.modp_fallbacks == before + 1
    assert gih.h_vector() == (1, 2, 1)


def test_ih_relative_quadrant_cone():
    f = build_fan(2, [[(1, 0), (0, 1)]])
    _, h = relative_ih(cached_pair(f), cap=6)
    assert tuple(h[d] for d in sorted(h)) == (0, 0, 1, 0)


def test_subdivision_can_only_grow(cube_fan):
    p = cached_pair(cube_fan)
    coarse = GradedIH(p).h_vector()
    fine = GradedIH(cached_pair(p.subdivided)).h_vector()
    # the subdivision is simplicial, on the cube's 8 vertices and the 6
    # square centers, and a complete simplicial 3-fan with f0 rays has
    # h = (1, f0 - 3, f0 - 3, 1)
    assert fine == (1, 8 + 6 - 3, 8 + 6 - 3, 1)
    assert all(a <= b for a, b in zip(coarse, fine))


def test_restriction_to_closed_star_is_onto(cube_fan):
    # global sections restrict onto the sections of every closed star
    p = cached_pair(cube_fan)
    ray0 = cube_fan.ray_ids()[0]
    _, closed, _ = star_link(cube_fan, ray0)
    pstar = cached_pair(closed)
    big = {p.subdivided.cones[m].rays: m
           for m in p.subdivided.maximal_ids}
    assert all(pstar.subdivided.cones[m].rays in big
               for m in pstar.subdivided.maximal_ids)
    for d in (2, 4):
        sp = ihsheaf._section_spaces(p, [d])[d]
        target = ihsheaf._section_spaces(pstar, [d])[d]
        ech = {}
        rk = 0
        for v in sp.basis:
            mat = sp.materialize(v)
            w = {}
            for m in pstar.subdivided.maximal_ids:
                poly = mat[big[pstar.subdivided.cones[m].rays]]
                for e, c in poly.coeffs.items():
                    w[(m, e)] = c
            if echelon_insert(ech, w) is not None:
                rk += 1
        assert rk == len(target.basis)


def test_one_call_builds_each_grading_as_alone(cube_fan, prism_fan):
    # the gradings of one call share each wall's data (see _Sections); every
    # space must come out as a call for its grading alone builds it: the
    # cube, the Q(sqrt 2) prism and a 4D polygon product
    triangle = build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, -1)],
                             [(-1, -1), (1, 0)]])
    pentagon = build_fan(2, [[(1, 0), (1, 1)], [(1, 1), (-1, 2)],
                             [(-1, 2), (-1, -1)], [(-1, -1), (1, -2)],
                             [(1, -2), (1, 0)]])
    for pair in (cached_pair(cube_fan), cached_pair(prism_fan),
                 cached_pair(product_fan(triangle, pentagon))):
        gradings = range(0, 2 * pair.fan.n + 1, 2)
        together = ihsheaf._section_spaces(pair, gradings)
        for d in gradings:
            alone = ihsheaf._section_spaces(pair, [d])[d]
            assert together[d].cols == alone.cols
            assert together[d].basis == alone.basis
            assert together[d].free == alone.free


# -- face-ring section spaces ----------------------------------------------


def _sheared_bipyramid():
    """A square bipyramid, (+-1, 0, 0), (0, +-1, 0), (0, 0, +-2), under the
    shear (x, y, z) -> (x + sqrt2 y, y, z + sqrt2 x): six vertices, eight
    triangles, over Q(sqrt 2)."""
    field = ScalarField(2)
    r2 = field.parse("0+1r2")
    base = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 2),
            (0, 0, -2)]
    verts = [(sc(x) + r2 * y, sc(y), sc(z) + r2 * x) for x, y, z in base]
    return face_fan_with_support(verts, field=field)[0]


def _octahedron():
    return face_fan_with_support(
        [tuple(s if j == i else 0 for j in range(3))
         for i in range(3) for s in (1, -1)])[0]


def _triangle():
    return build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, -1)],
                         [(-1, -1), (1, 0)]])


def _face_ring_dim(f, k):
    """Monomials of degree k on the faces of a simplicial fan with f-vector
    f, f[j] its cones with j + 1 rays: a cone with j rays carries
    C(k-1, j-1) monomials with every ray in their support, and the origin
    carries only the constant."""
    if k == 0:
        return 1
    return sum(fj * comb(k - 1, j) for j, fj in enumerate(f))


def _validate_space(sp):
    for v in sp.basis:
        validate(as_function(sp, v))


def test_face_ring_sections_from_combinatorics(cube_fan):
    # f-vectors from the polytopes: the octahedron and the sheared square
    # bipyramid have 6 vertices, 12 edges and 8 triangles; the cube's
    # boundary with each square coned from its center has 8 + 6 vertices,
    # 12 + 6 * 4 edges and 6 * 4 triangles, and its barycentric
    # subdivision has a vertex per face (8 + 12 + 6), an edge per pair of
    # nested faces (3 * 24) and a triangle per flag (48); the product of
    # two triangle fans has 3 + 3 rays, 3 + 3 + 9 2-cones, 9 + 9 3-cones
    # and 9 4-cones.  The cube's own face fan is not simplicial, so its
    # subdivision and its flag complex stand in for it; the flag complex's
    # 48 cones make the pairwise continuity check slow, so it checks
    # gradings up to 4 only.
    cube_sub = cached_pair(cube_fan).subdivided
    cube_flags = flag_subdivision(cube_fan)[0]
    before = exactlin.modp_fallbacks
    for fan, f, top in ((_octahedron(), (6, 12, 8), 3),
                        (_sheared_bipyramid(), (6, 12, 8), 3),
                        (cube_sub, (14, 36, 24), 3),
                        (cube_flags, (26, 72, 48), 2),
                        (product_fan(_triangle(), _triangle()),
                         (6, 15, 18, 9), 4)):
        pair = build_distinguished_pair(fan)
        gradings = range(0, 2 * fan.n + 1, 2)
        spaces = ihsheaf._section_spaces(pair, gradings)
        for d in gradings:
            assert len(spaces[d].basis) == _face_ring_dim(f, d // 2)
            if d // 2 <= top:
                _validate_space(spaces[d])
    assert exactlin.modp_fallbacks == before


def test_mixed_walls_sections_validate():
    # the face fan of a prism over a triangle: every wall between a
    # triangle and a square is a mixed wall.  f0 = 6, so h = (1, 3, 3, 1),
    # and the sections are free over the ambient polynomials on h_j
    # generators of grading 2j
    fan = sqrt2_triangular_prism()[0]
    kinds = sorted(len(fan.cones[m].rays) for m in fan.maximal_ids)
    assert kinds == [3, 3, 4, 4, 4]
    pair = build_distinguished_pair(fan)
    h = (1, 3, 3, 1)
    for d, sp in ihsheaf._section_spaces(pair, range(0, 7, 2)).items():
        want = sum(hj * comb(d // 2 - j + 2, 2)
                   for j, hj in enumerate(h) if j <= d // 2)
        assert len(sp.basis) == want
        _validate_space(sp)
    assert GradedIH(pair).h_vector() == h


def test_relative_face_ring_of_a_closed_star():
    # the closed star of a vertex v of the octahedron: four triangles
    # around v.  A relative section vanishes on the boundary, the link's
    # faces, so it is the monomials on the faces through v: v, its four
    # edges and its four triangles
    fan = _octahedron()
    ray = fan.ray_ids()[0]
    _, closed, _ = star_link(fan, ray)
    pair = build_distinguished_pair(closed)
    rel = relative_sections(pair, cap=6)
    for d, funcs in rel.items():
        k = d // 2
        want = 0 if k == 0 else 1 + 4 * comb(k - 1, 1) + 4 * comb(k - 1, 2)
        assert len(funcs) == want
        sub = pair.subdivided
        for f in funcs:
            validate(f)
            for t in boundary_piece_ids(pair):
                poly = f.per_max[sub.cofaces_of[t][0]]
                eqs = sub.cones[t].geometry().equations
                assert not reduce_mod(poly, eqs)


def _nonsimplicial_profiles(cube_fan_support):
    """(pair, support function) of the Q(sqrt 2) triangular prism's and the
    cube's face fans, both with nonsimplicial carriers whose stalks have
    generators above grading 0."""
    return [(cached_pair(fan), support)
            for fan, support in (sqrt2_triangular_prism(), cube_fan_support)]


def test_evaluation_materializes_no_section(monkeypatch, cube_fan_support):
    # a representative's value at z is read off the frame coordinates of z
    # and its carrier's generator values there: once the pair is built, the
    # selection, the certificate and every Lefschetz Gram need no
    # polynomial of a section
    profiles = _nonsimplicial_profiles(cube_fan_support)

    def refuse(self, vecm):
        raise AssertionError("a section was materialized")

    monkeypatch.setattr(ihsheaf._Sections, "materialize", refuse)
    for pair, l in profiles:
        n = pair.fan.n
        gih = GradedIH(pair)
        # a 3-polytope's face fan with f0 vertices: h = (1, f0-3, f0-3, 1)
        h1 = len(pair.fan.rays()) - 3
        assert gih.h_vector() == (1, h1, h1, 1)
        for d in range(0, 2 * n + 1, 2):
            for e in range(0, 2 * n - d + 1, 2):
                gram = gih.lefschetz_gram(l, d, e)
                assert (gram.nrows, gram.ncols) == (gih.h[d], gih.h[e])


def test_values_are_the_materialized_sections_at_z(cube_fan_support):
    # one evaluation rule, sum_j (sum_e c y(z)^e) g_j(z) per piece, against
    # the polynomial route: each representative materialized and evaluated
    for pair, _ in _nonsimplicial_profiles(cube_fan_support):
        gih = GradedIH(pair)
        for d in range(0, 2 * pair.fan.n + 1, 2):
            assert gih.values(d).entries == materialized_values(gih, d)


def test_lefschetz_gram_is_the_per_piece_gram(cube_fan_support):
    # l(z)^k is taken once per maximal cone of the cube's face fan and
    # multiplied into 1/phi(z) once per piece: the Gram is the reference
    # one, with every piece's weight computed on its own, at every (d, e)
    fan, l = cube_fan_support
    gih = GradedIH(cached_pair(fan))
    ctx = gih.context()
    carrier = gih.pair.carrier
    # the six square cones are subdivided, so pieces share carriers
    assert len(ctx.inv_phi_z) > len(fan.maximal_ids) == 6
    n = fan.n
    for d in range(0, 2 * n + 1, 2):
        for e in range(0, 2 * n - d + 1, 2):
            k = n - (d + e) // 2
            weights = [vdot_loop(l.per_max[carrier[m]], ctx.z) ** k * w
                       for m, w in ctx.inv_phi_z.items()]
            assert gih.lefschetz_gram(l, d, e) == \
                gram_loop(gih.values(d), weights, gih.values(e))


def test_simplicial_pair_solves_no_kernel(monkeypatch):
    # the octahedron's face fan is simplicial, so its columns are classes
    # by monomial and no wall gives rows: no kernel
    calls = []
    kernel = ihsheaf.sparse_kernel
    monkeypatch.setattr(ihsheaf, "sparse_kernel",
                        lambda *args: calls.append(args) or kernel(*args))
    gih = GradedIH(build_distinguished_pair(_octahedron()))
    assert gih.h_vector() == (1, 3, 3, 1)
    assert calls == []


def test_walls_between_simplicial_carriers_give_no_rows(monkeypatch):
    # the face fan of a square pyramid: four triangular cones around the
    # apex and the square cone over the base.  Rows come only from walls
    # whose equations are read, and those must be the square cone's four
    # facets, never the four walls between triangular cones
    fan = face_fan_with_support(
        [(1, 1, -1), (-1, 1, -1), (-1, -1, -1), (1, -1, -1), (0, 0, 3)])[0]
    square = next(m for m in fan.maximal_ids if len(fan.cones[m].rays) == 4)
    assert sorted(len(fan.cones[m].rays) for m in fan.maximal_ids) == \
        [3, 3, 3, 3, 4]
    pair = build_distinguished_pair(fan)
    read, calls = [], []
    equations = fans.wall_equations
    kernel = ihsheaf.sparse_kernel
    monkeypatch.setattr(fans, "wall_equations",
                        lambda sub, tid: read.append(tid) or
                        equations(sub, tid))
    monkeypatch.setattr(ihsheaf, "sparse_kernel",
                        lambda *args: calls.append(args) or kernel(*args))
    before = exactlin.modp_fallbacks
    gih = GradedIH(pair)
    # f0 = 5: h = (1, f0-3, f0-3, 1)
    assert gih.h_vector() == (1, 2, 2, 1)
    assert exactlin.modp_fallbacks == before
    sub = pair.subdivided
    facets = {f for f in fan.faces_of[square] if fan.cones[f].dim == 2}
    assert read and {pair.carrier[t] for t in read} == facets
    assert all(square in {pair.carrier[m] for m in sub.cofaces_of[t]}
               for t in read)
    # one kernel per grading, over fewer variables than columns: the
    # triangular cones' columns share classes
    assert [ncols < len(sp.cols) for (_, ncols, _), sp in
            zip(calls, gih.spaces.values())] == [True] * 4


def test_wall_joins_give_the_same_section_spaces(monkeypatch, cube_fan):
    # keying columns by face-supported monomial joins every class that the
    # walls between simplicial carriers join, and exactly those on a
    # simplicial fan, whose walls connect the cones around every face.
    # Where only walls through a nonsimplicial carrier connect two
    # simplicial ones (the two triangles of a triangular prism), those
    # walls' rows force the rest, so with the wall joins each grading's
    # columns, basis and free columns come out the same: the Q(sqrt 2)
    # octahedron, the cube (square carriers only), the Q(sqrt 2)
    # triangular prism (triangles and squares), the 4-cube, the product of
    # two triangle fans and one cycle of the fan-cold workload
    fans_ = [_sheared_bipyramid(), cube_fan, sqrt2_triangular_prism()[0],
             four_cube_fan(), product_fan(_triangle(), _triangle())]
    fans_ += [fan for fan, _ in fan_cold_fans()]
    # The columns are cached by the carriers, so the patched rebuild starts
    # from an empty cache and leaves none of its entries behind.
    coarser = set()
    for fan in fans_:
        pair = cached_pair(fan)
        gradings = range(0, 2 * fan.n + 1, 2)
        spaces = ihsheaf._section_spaces(pair, gradings)
        for sp in spaces.values():
            classes = ihsheaf._classes(ihsheaf._carriers(pair), sp.cols)
            joined = classes_by_wall_joins(pair, sp.cols)
            owner = {c: v for v, ms in enumerate(classes) for c in ms}
            assert all(len({owner[c] for c in ms}) == 1 for ms in joined)
            if classes != joined:
                assert not fan.is_simplicial()
                coarser.add(fan)
        ihsheaf._columns.cache_clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(ihsheaf, "_classes",
                          lambda _, cols: classes_by_wall_joins(pair, cols))
                by_walls = ihsheaf._section_spaces(pair, gradings)
        finally:
            ihsheaf._columns.cache_clear()
        for d in gradings:
            assert by_walls[d].cols == spaces[d].cols
            assert by_walls[d].basis == spaces[d].basis
            assert by_walls[d].free == spaces[d].free
    assert sqrt2_triangular_prism()[0] in coarser


@pytest.mark.parametrize("rays, cones, h", [
    # opposite quadrants meet only at 0: sections are pairs of polynomials
    # agreeing there, so S_1 has dimension 2 + 2 and x S_1 + y S_1 is all
    # of S_2, h = (1, 4 - 2, 0)
    ([(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (2, 3)], (1, 2, 0)),
    # a bowtie of two octants sharing only the ray e1: S_1 has dimension
    # 3 + 3 - 1 = 5, so h_1 = 5 - 3, and the products fill S_2 and S_3
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0), (0, 0, -1)],
     [(0, 1, 2), (0, 3, 4)], (1, 2, 0, 0)),
], ids=["opposite-quadrants", "bowtie"])
def test_cones_meeting_in_a_face_no_wall_reaches(rays, cones, h):
    # no chain of walls joins the cones' columns on their common face, so
    # the wall joins leave the constants apart; the face-supported
    # monomials join them, as continuity there demands
    fan = build_fan(len(rays[0]), [[rays[i] for i in c] for c in cones])
    pair = build_distinguished_pair(fan)
    cols = ihsheaf._section_spaces(pair, [0])[0].cols
    assert len(ihsheaf._classes(ihsheaf._carriers(pair), cols)) == 1
    assert len(classes_by_wall_joins(pair, cols)) == 2
    assert GradedIH(pair).h_vector() == h


# -- serialization ---------------------------------------------------------


def test_pair_json_round_trip(cone_square_fan):
    p = cached_pair(cone_square_fan)
    blob = json.dumps(pair_to_json_dict(p), sort_keys=True)
    p2 = pair_from_json_dict(json.loads(blob))
    assert json.dumps(pair_to_json_dict(p2), sort_keys=True) == blob
    g1 = global_sections(p, cap=4)
    g2 = global_sections(p2, cap=4)
    assert [len(g1[d]) for d in sorted(g1)] == [len(g2[d]) for d in sorted(g2)]


def test_pair_json_rejects_garbage(cone_square_fan):
    p = cached_pair(cone_square_fan)
    obj = pair_to_json_dict(p)
    bad = json.loads(json.dumps(obj))
    first = next(iter(bad["stalks"]))
    bad["stalks"][str(10 ** 6)] = bad["stalks"][first]
    with pytest.raises(ValueError):
        pair_from_json_dict(bad)
    bad2 = json.loads(json.dumps(obj))
    removed = bad2["stalks"].pop(first)
    assert removed is not None
    with pytest.raises(ValueError):
        pair_from_json_dict(bad2)
