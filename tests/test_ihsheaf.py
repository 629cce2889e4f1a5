import json

import pytest

from ihfan.exactlin import ONE, ZERO, echelon_insert, sc
from ihfan.fans import (Cone, build_fan, face_fan_with_support,
                        is_complete, is_strictly_convex, star_link)
from ihfan.ihsheaf import (GradedIH, build_distinguished_pair,
                           flatten_boundary, global_sections,
                           pair_from_json_dict, pair_to_json_dict,
                           relative_sections)
from conftest import cached_pair, cube_vertices


# -- boundary flattening ---------------------------------------------------


def test_flatten_orthant():
    c = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    fb = flatten_boundary(c, (1, 1, 1))
    assert fb.lam.n == 2
    assert len(fb.lam.maximal_ids) == 3
    assert is_complete(fb.lam)
    assert is_strictly_convex(fb.lam, fb.lam_l)


def test_flatten_two_dim_cone():
    c = Cone.from_generators([(1, 0), (1, 2)], 2)
    fb = flatten_boundary(c, (1, 1))
    assert fb.lam.n == 1
    assert len(fb.lam.maximal_ids) == 2
    assert is_complete(fb.lam)
    assert is_strictly_convex(fb.lam, fb.lam_l)


def test_flatten_cone_over_square():
    c = Cone.from_generators(
        [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)], 3)
    fb = flatten_boundary(c, (0, 0, 1))
    assert len(fb.lam.maximal_ids) == 4
    assert is_complete(fb.lam)
    assert is_strictly_convex(fb.lam, fb.lam_l)
    # every proper face is matched to a cone of the flattened fan
    assert len(fb.face_to_lam) == len(fb.lam.cones)


def test_flatten_projection_kills_center():
    c = Cone.from_generators(
        [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)], 3)
    fb = flatten_boundary(c, (0, 0, 1))
    assert all(x.is_zero() for x in fb.project((0, 0, 1)))
    # and is the identity-like section over each facet: lift then project
    for fkey in fb.face_to_lam:
        lift = fb.lift_rows(fkey)
        for r in fkey:
            p = fb.project(r)
            back = tuple(sum((lift[i][j] * p[j] for j in range(len(p))),
                             start=ZERO) for i in range(3))
            assert tuple(fb.project(back)) == tuple(p)


def test_flatten_rejects_bad_center():
    c = Cone.from_generators(
        [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)], 3)
    with pytest.raises(ValueError):
        flatten_boundary(c, (1, 1, 1))  # on the boundary
    with pytest.raises(ValueError):
        flatten_boundary(Cone.from_generators([(1, 0)], 2), (1, 0))


# -- distinguished pairs ---------------------------------------------------


def test_simplicial_pair_is_identity(quadrant_fan):
    p = cached_pair(quadrant_fan)
    assert p.subdivided is quadrant_fan
    assert p.steps == ()
    for cid in p.fan.cones:
        assert p.stalks[cid].gradings() == (0,)


def test_nonsimplicial_pair_subdivides(cube_fan):
    p = cached_pair(cube_fan)
    assert len(p.subdivided.maximal_ids) == 48
    assert p.subdivided.is_simplicial()
    # stalks of the square-based cones gain a grading-2 generator
    for m in p.fan.maximal_ids:
        assert p.stalks[m].gradings() == (0, 2)
    for c in p.fan.cones_of_dim(2):
        assert p.stalks[c.id].gradings() == (0,)


def test_pair_pieces_and_carriers(cube_fan):
    p = cached_pair(cube_fan)
    for m in p.fan.maximal_ids:
        assert len(p.pieces(m)) == 8
        for pid in p.pieces(m):
            assert p.carrier(pid) == m
    total = sum(len(p.pieces(m)) for m in p.fan.maximal_ids)
    assert total == len(p.subdivided.maximal_ids)


def test_cone_over_square_stalk(cone_square_fan):
    p = cached_pair(cone_square_fan)
    sid = max(p.fan.cones, key=lambda i: p.fan.cones[i].dim)
    assert p.stalks[sid].gradings() == (0, 2)
    g2 = p.stalks[sid].generators[1][1]
    # the grading-2 generator is not the restriction of one global linear
    # function: it takes at least two distinct linear forms on the pieces
    assert len({tuple(sorted(poly.coeffs.items()))
                for poly in g2.values()}) > 1


def test_cone_over_cube_stalk(cone_cube_fan):
    p = cached_pair(cone_cube_fan)
    sid = max(p.fan.cones, key=lambda i: p.fan.cones[i].dim)
    assert p.stalks[sid].gradings() == (0, 2, 2, 2, 2)


def test_singular_ids_cover_everything(quadrant_fan):
    p = cached_pair(quadrant_fan)
    assert set(p.singular_ids()) == set(p.fan.cones)


# -- section spaces --------------------------------------------------------


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
    sp = p.section_space(2)
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
        relative_sections(p, boundary=[f.zero_id()])
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
        sp = p.section_space(d)
        target = pstar.section_space(d)
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
