import json
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from ihfan import exactlin, ihsheaf
from ihfan.conewise import Polynomial, monomials
from ihfan.exactlin import (ONE, ZERO, Scalar, echelon_insert, sc,
                            sparse_eliminate)
from ihfan.fans import (barycentric_subdivision, build_fan,
                        canonical_direction, face_fan_with_support,
                        is_complete, is_strictly_convex, product_fan,
                        star_link)
from ihfan.ihsheaf import (DistinguishedPair, GradedIH,
                           build_distinguished_pair,
                           flatten_boundary, global_sections,
                           lift_over_span,
                           pair_from_json_dict, pair_to_json_dict,
                           relative_sections)
from conftest import (cached_pair, cube_vertices, dodecahedron_vertices,
                      golden_field)


# -- boundary flattening ---------------------------------------------------


def flattened(generators):
    """The fan of one cone, subdivided barycentrically (default rule), with
    the constant stalk on each proper face, and flatten_boundary of the cone
    along its subdivision center: (pair, cone id, center, flattening)."""
    fan = build_fan(len(generators[0]), [generators])
    sub, steps = barycentric_subdivision(fan)
    pair = DistinguishedPair(fan, sub, steps)
    top = fan.maximal_ids[0]
    for cid in fan.faces_of[top]:
        pair.stalks[cid] = ((0, {pid: Polynomial.constant(fan.n, 1)
                                 for pid in pair.pieces(cid)}),)
    # the cone's center is chosen first
    v = steps[0][0]
    return pair, top, v, flatten_boundary(pair, top, v)


def test_flatten_orthant():
    _, _, _, (lam_pair, lam_l, _, _) = flattened(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    lam = lam_pair.fan
    assert lam.n == 2
    assert len(lam.maximal_ids) == 3
    assert is_complete(lam)
    assert is_strictly_convex(lam, lam_l)


def test_flatten_two_dim_cone():
    _, _, _, (lam_pair, lam_l, _, _) = flattened([(1, 0), (1, 2)])
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
    assert all(x.is_zero() for x in proj.apply(v))
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
    p = cached_pair(cube_fan)
    assert len(p.subdivided.maximal_ids) == 48
    assert p.subdivided.is_simplicial()
    # stalks of the square-based cones gain a grading-2 generator
    for m in p.fan.maximal_ids:
        assert stalk_gradings(p.stalks[m]) == (0, 2)
    for c in p.fan.cones_of_dim(2):
        assert stalk_gradings(p.stalks[c.id]) == (0,)


def test_pair_pieces_and_carriers(cube_fan):
    p = cached_pair(cube_fan)
    for m in p.fan.maximal_ids:
        assert len(p.pieces(m)) == 8
        for pid in p.pieces(m):
            assert p.carrier(pid) == m
    total = sum(len(p.pieces(m)) for m in p.fan.maximal_ids)
    assert total == len(p.subdivided.maximal_ids)


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
            want = Polynomial(n, {e: ONE}).reduce_mod(eqs)
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
            f.validate()


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
    sp = p.section_spaces([2])[2]
    assert len(sp.basis) == 8
    for v in sp.basis:
        sp.as_function(v).validate()


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
    g = GradedIH(cached_pair(cube_fan, rule="alt"))
    assert g.h_vector() == (1, 5, 5, 1)


def test_modular_selection_is_the_exact_one(monkeypatch, quadrant_fan,
                                            orthant_fan, cube_fan, prism_fan):
    # independence mod p picks the same spanning vectors and representatives
    # as the exact greedy pass, including over Q(sqrt 2) (the prism); with
    # no prime for any field the selection falls back to the exact pass
    for fan in (quadrant_fan, orthant_fan, cube_fan, prism_fan):
        pair = cached_pair(fan)
        before = exactlin.modp_fallbacks
        modular = GradedIH(pair)
        assert exactlin.modp_fallbacks == before
        with monkeypatch.context() as mp:
            mp.setattr(exactlin, "_embeddings", lambda m: ())
            exact = GradedIH(pair)
        assert exactlin.modp_fallbacks == before + 1
        assert modular.spanning == exact.spanning
        assert modular.comps == exact.comps


def _full_greedy(gih, d):
    """The selection on full-length vectors: the ideal multiples x_i * b
    (b in the grading-(d-2) basis), then the section basis, each kept when
    independent mod p of those kept before it; (spanning, comps)."""
    below = gih.spaces[d - 2].basis if d >= 2 else []
    multiples = [{(mid, j, e[:i] + (e[i] + 1,) + e[i + 1:]): c
                  for (mid, j, e), c in b.items()}
                 for b in below for i in range(gih.pair.fan.n)]
    cands = multiples + gih.spaces[d].basis
    kept = exactlin.independent_modp(cands)
    return ([cands[i] for i in kept],
            [cands[i] for i in kept if i >= len(multiples)])


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
            spanning, comps = _full_greedy(gih, d)
            assert gih.spanning[d] == spanning
            assert gih.comps[d] == comps
        assert exactlin.modp_fallbacks == before


def test_short_modular_selection_selects_exactly(monkeypatch, cube_fan):
    # a grading that keeps fewer vectors mod p than its section space has
    # dimensions sends the whole profile to the exact pass, counted once;
    # an exact choice keeps no certified pairing matrices
    pair = cached_pair(cube_fan)
    want = GradedIH(pair)
    modp = ihsheaf.independent_modp
    monkeypatch.setattr(ihsheaf, "independent_modp", lambda v: modp(v)[:-1])
    before = exactlin.modp_fallbacks
    got = GradedIH(pair)
    assert exactlin.modp_fallbacks == before + 1
    assert got.spanning == want.spanning and got.comps == want.comps
    assert got.grams == {} and want.grams


def test_ih_relative_quadrant_cone():
    f = build_fan(2, [[(1, 0), (0, 1)]])
    g = GradedIH(cached_pair(f), cap=6, relative=True)
    assert g.h_vector() == (0, 0, 1, 0)


def test_subdivision_can_only_grow(cube_fan):
    p = cached_pair(cube_fan)
    coarse = GradedIH(p).h_vector()
    fine = GradedIH(cached_pair(p.subdivided)).h_vector()
    assert fine == (1, 23, 23, 1)
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
        sp = p.section_spaces([d])[d]
        target = pstar.section_spaces([d])[d]
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
    # cube, the Q(sqrt 2) prism, a 4D polygon product and, relative to its
    # boundary, a closed star of the cube
    triangle = build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, -1)],
                             [(-1, -1), (1, 0)]])
    pentagon = build_fan(2, [[(1, 0), (1, 1)], [(1, 1), (-1, 2)],
                             [(-1, 2), (-1, -1)], [(-1, -1), (1, -2)],
                             [(1, -2), (1, 0)]])
    _, closed, _ = star_link(cube_fan, cube_fan.ray_ids()[0])
    star = cached_pair(closed)
    for pair, bp in ((cached_pair(cube_fan), None),
                     (cached_pair(prism_fan), None),
                     (cached_pair(product_fan(triangle, pentagon)), None),
                     (star, star.boundary_piece_ids())):
        gradings = range(0, 2 * pair.fan.n + 1, 2)
        together = ihsheaf._section_spaces(pair, gradings, bp)
        for d in gradings:
            alone = ihsheaf._section_spaces(pair, [d], bp)[d]
            assert together[d].cols == alone.cols
            assert together[d].basis == alone.basis
            assert together[d].free == alone.free


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
