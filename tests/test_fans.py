import functools
import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

from ihfan import cli, exactlin, fans
from ihfan.exactlin import (ONE, ZERO, Matrix, ScalarField, kernel_basis,
                            rank, sc, sparse_eliminate, vdot)
from ihfan.ihsheaf import build_distinguished_pair

from conftest import (dodecahedron_vertices, fan_cold_fans,
                      icosahedron_vertices, pyramid, sqrt2_prism_pyramid,
                      sqrt2_triangular_prism)
from oracles import (barycenter_sum_scaled, canonical_json,
                     checked_polytope_fan, flag_subdivision, forms_by_solve,
                     locate, meet_id, pointed_by_rank, polytope_face_lattice,
                     skew_product, star_link, tagged_inverse, toric_h_oracle)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (the benchmark's input generator)


def quadrant_fan():
    return fans.build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)],
                              [(-1, 0), (0, -1)], [(0, -1), (1, 0)]])


def one_dim_fan():
    return fans.build_fan(1, [[(1,)], [(-1,)]])


def orthant_fan():
    sets = [[(sc(a), 0, 0), (0, sc(b), 0), (0, 0, sc(c))]
            for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    return fans.build_fan(3, sets)


def cube_vertices():
    return [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]


def test_build_fan_quadrants():
    f = quadrant_fan()
    assert len(f.cones) == 9
    assert len(f.maximal_ids) == 4
    assert fans.is_complete(f)


def test_build_fan_single_orthant():
    f = fans.build_fan(3, [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    assert len(f.cones) == 8
    assert not fans.is_complete(f)


def test_build_fan_rejects_listed_face():
    with pytest.raises(ValueError):
        fans.build_fan(2, [[(1, 0)], [(1, 1), (1, 0)]])


def test_build_fan_rejects_overlap():
    with pytest.raises(ValueError):
        fans.build_fan(2, [[(1, 0), (0, 1)], [(1, 1), (-1, 1)]])


def test_build_fan_rejects_nonpointed():
    with pytest.raises(ValueError):
        fans.build_fan(2, [[(1, 0), (-1, 0), (0, 1)]])


def test_build_fan_rejects_redundant_generator():
    with pytest.raises(ValueError):
        fans.build_fan(2, [[(1, 0), (1, 1), (0, 1)]])


def test_build_fan_rejects_zero_generator():
    # a zero generator names no ray: it is refused, not dropped
    with pytest.raises(ValueError, match="generator 2 of a cone is the zero "
                       "vector"):
        fans.build_fan(2, [[(1, 0), (0, 1), (0, 0)], [(0, 1), (-1, -1)],
                           [(-1, -1), (1, 0)]])


def test_cone_faces_counts():
    c = fans.Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert len(fans.Fan(3, None, [c.rays]).cones) == 8
    sq = fans.Cone.from_generators([(1, 1, 1), (-1, 1, 1), (-1, -1, 1),
                                    (1, -1, 1)], 3)
    assert len(fans.Fan(3, None, [sq.rays]).cones) == 10
    assert not sq.is_simplicial()
    r = fans.Cone.from_generators([(1, 0)], 2)
    assert len(fans.Fan(2, None, [r.rays]).cones) == 2


def test_star_link_on_ray():
    f = quadrant_fan()
    e1 = next(i for i in f.ray_ids() if f.cones[i].rays[0] == (sc(1), sc(0)))
    star, closed, link = star_link(f, e1)
    assert len(star) == 3
    assert len(closed.cones) == 6
    link_rays = sorted(tuple(fans.format_scalar(x) for x in r)
                       for r in link.rays())
    assert link_rays == [("0", "-1"), ("0", "1")]


def test_star_link_of_zero_and_maximal():
    f = quadrant_fan()
    _, closed, _ = star_link(f, f.id_by_key[()])
    assert closed == f
    m = f.maximal_ids[0]
    star, _, link = star_link(f, m)
    assert star == (m,)
    assert len(link.cones) == 1  # just the zero cone


def test_is_complete():
    assert fans.is_complete(quadrant_fan())
    assert not fans.is_complete(fans.build_fan(3, [[(1, 0, 0), (0, 1, 0),
                                                    (0, 0, 1)]]))
    ff = fans.face_fan_with_support(cube_vertices())[0]
    assert fans.is_complete(ff)


def test_barycentric_cone_over_square():
    cs = fans.build_fan(3, [[(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)]])
    sub, steps = fans.barycentric_subdivision(cs)
    # only the square cone is not simplicial: one piece per edge of the
    # square, the cone from the center over the edge's 2-cone, which stays
    # whole; 4 rays and the center
    assert len(sub.maximal_ids) == 4
    assert len(sub.rays()) == 4 + 1
    assert len(steps) == 1 and steps[0][1] == cs.cones[cs.maximal_ids[0]].rays
    assert sub.is_simplicial()
    assert all(c.rays in sub.id_by_key for c in cs.cones.values()
               if c.dim < 3)
    # every piece is contained in the original cone: each of its rays
    # lies in the relative interior of a face of that cone
    old_max = cs.maximal_ids[0]
    for nid in sub.maximal_ids:
        for r in sub.cones[nid].rays:
            assert locate(cs, r) in (old_max,) + cs.faces_of[old_max]


def test_barycentric_orthant():
    # a simplicial cone stays whole: no center is chosen, and the fan is
    # its own subdivision; the full flag complex has one piece per ordering
    # of its 3 rays and one new ray per face of dim >= 2
    o = fans.build_fan(3, [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]])
    sub, steps = fans.barycentric_subdivision(o)
    assert sub is o and steps == ()
    flags, flag_steps = flag_subdivision(o)
    assert len(flags.maximal_ids) == 6
    assert len(flags.rays()) == 3 + 3 + 1
    assert len(flag_steps) == 4


def test_barycentric_rejects_a_center_outside_its_cone():
    # the origin, a point outside the cone and a point on its facet
    # between (1, 1, 1) and (1, -1, 1)
    cs = fans.build_fan(3, [[(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)]])
    for center in ((0, 0, 0), (-1, -1, -7), (1, 0, 1)):
        with pytest.raises(ValueError, match="relative interior"):
            fans.barycentric_subdivision(cs, lambda cone: center)


def test_barycentric_counts():
    # every cone of a simplicial fan is simplicial, so it is its own
    # subdivision, in any dimension; the quadrants' flag complex has 2
    # pieces per quadrant and one center per quadrant
    for fan in (quadrant_fan(), one_dim_fan(),
                fans.product_fan(quadrant_fan(), quadrant_fan())):
        b, steps = fans.barycentric_subdivision(fan)
        assert b is fan and steps == ()
    flags, flag_steps = flag_subdivision(quadrant_fan())
    assert len(flags.maximal_ids) == 4 * 2
    assert len(flag_steps) == 4


def test_barycentric_cube_face_fan_24():
    # 6 square cones, each coned from its center over its 4 edge cones
    ff = fans.face_fan_with_support(cube_vertices())[0]
    b, steps = fans.barycentric_subdivision(ff)
    assert len(b.maximal_ids) == 6 * 4
    assert len(steps) == 6
    assert b.is_simplicial()
    other, _ = fans.barycentric_subdivision(ff, barycenter_sum_scaled)
    assert len(other.maximal_ids) == 6 * 4
    assert other != b  # geometrically distinct centers


def test_subdivision_preserves_support():
    ff = fans.face_fan_with_support(cube_vertices())[0]
    b, _ = fans.barycentric_subdivision(ff)
    assert fans.is_complete(b)
    rng = random.Random(5)
    for _ in range(20):
        x = tuple(sc(rng.randint(-9, 9)) for _ in range(3))
        inside_old = locate(ff, x) is not None
        inside_new = locate(b, x) is not None
        assert inside_old == inside_new


def test_face_fan_of_cube():
    ff, l = fans.face_fan_with_support(cube_vertices())
    assert len(ff.maximal_ids) == 6
    assert all(not ff.cones[m].is_simplicial() for m in ff.maximal_ids)
    assert fans.is_strictly_convex(ff, l)


def test_face_fan_cross_polytope_is_orthants():
    octa = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
            (0, 0, -1)]
    assert fans.face_fan_with_support(octa)[0] == orthant_fan()


def test_face_fan_segment():
    seg = fans.face_fan_with_support([(-1,), (2,)])[0]
    assert len(seg.maximal_ids) == 2
    keys = sorted(fans.format_scalar(r[0]) for r in seg.rays())
    assert keys == ["-1", "1"]


ON_HYPERPLANE = "origin is not interior (a facet hyperplane passes through it)"
OUTSIDE = "origin is not interior to the hull"


def test_face_fan_requires_interior_origin():
    r2 = ScalarField(2).parse("0+1r2")
    cube = list(itertools.product((sc(-1), sc(1)), repeat=3))
    cases = [
        # the origin is a vertex, on an edge, on a facet (over Q and Q(sqrt 2))
        ([(0, 0), (1, 0), (0, 1)], ON_HYPERPLANE),
        ([(-1, 0), (1, 0), (1, 2), (-1, 2)], ON_HYPERPLANE),
        ([(-r2, 0), (1, 0), (1, r2), (-r2, 1)], ON_HYPERPLANE),
        ([(x, y, z + 1) for x, y, z in cube], ON_HYPERPLANE),
        ([(x * r2, y, z + 1) for x, y, z in cube], ON_HYPERPLANE),
        # the origin outside the hull
        ([(1, 1), (3, 1), (2, 4)], OUTSIDE),
        ([(r2, 1), (3, 1), (2, 4)], OUTSIDE),
        ([(x + 3, y, z) for x, y, z in cube], OUTSIDE),
        ([(x, y, z + 1 + r2) for x, y, z in cube], OUTSIDE),
    ]
    for vertices, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            fans.face_fan_with_support(vertices)


def test_repeated_vertex_counts_once():
    # a point listed twice is one vertex of the hull, for both fans
    square = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    for build in (fans.face_fan_with_support, fans.normal_fan):
        assert build(square + [(1, 1)])[0] == build(square)[0]


def value_at(l, x):
    """l(x) from a maximal cone containing x."""
    fan = l.fan
    star = fan.star_ids(locate(fan, x))
    m = next(m for m in fan.maximal_ids if m in star)
    return vdot(l.per_max[m], x)


def test_normal_fan_square():
    nf, l = fans.normal_fan([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    assert nf == quadrant_fan()
    assert fans.format_scalar(value_at(l, (sc(3), sc(-2)))) == "5"
    assert fans.is_strictly_convex(nf, l)


def test_normal_fan_interval():
    nf, l = fans.normal_fan([(-1,), (1,)])
    assert len(nf.maximal_ids) == 2
    assert fans.format_scalar(value_at(l, (sc(-5),))) == "5"


def test_normal_fan_octahedron_is_cube_face_fan():
    octa = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
            (0, 0, -1)]
    nf, l = fans.normal_fan(octa)
    assert nf == fans.face_fan_with_support(cube_vertices())[0]
    assert fans.is_strictly_convex(nf, l)


def test_strict_convexity_judgments():
    one = one_dim_fan()
    plus = next(m for m in one.maximal_ids
                if one.cones[m].rays[0] == (sc(1),))
    minus = next(m for m in one.maximal_ids
                 if one.cones[m].rays[0] == (sc(-1),))
    absx = fans.PLFunction(one, {plus: (1,), minus: (-1,)})
    assert fans.is_strictly_convex(one, absx)
    ident = fans.PLFunction(one, {plus: (1,), minus: (1,)})
    assert not fans.is_strictly_convex(one, ident)
    with pytest.raises(ValueError):
        fans.is_strictly_convex(
            fans.build_fan(2, [[(1, 0), (0, 1)]]),
            fans.PLFunction(fans.build_fan(2, [[(1, 0), (0, 1)]]),
                            {7: (0, 0)}, check=False))


def test_plfunction_compatibility_enforced():
    f = quadrant_fan()
    forms = {}
    for m in f.maximal_ids:
        rays = f.cones[m].rays
        forms[m] = (1, 1) if (sc(1), sc(0)) in rays or (sc(0), sc(1)) in rays \
            else (0, 0)
    with pytest.raises(ValueError):
        fans.PLFunction(f, forms)


def test_product_fans():
    one = one_dim_fan()
    quad = quadrant_fan()
    assert fans.product_fan(one, one) == quad
    pt = fans.build_fan(0, [[]])
    assert fans.product_fan(one, pt) == one
    assert fans.product_fan(one, quad) == orthant_fan()


def _sqrt_triangle(m):
    """The face fan of a triangle with the vertices (1, 0) and
    (-1, +-sqrt m), over Q(sqrt m)."""
    field = ScalarField(m)
    r = field.parse(f"0+1r{m}")
    return fans.face_fan_with_support([(sc(1), sc(0)), (sc(-1), r),
                                       (sc(-1), -r)], field=field)[0]


def test_product_is_the_skew_product_along_the_zero_map():
    # the package pads the factors' ray keys; the oracle builds the graph
    # of the zero map through the checked fan builder
    one, quad = one_dim_fan(), quadrant_fan()
    for f1, f2 in ((one, one), (one, quad), (quad, _sqrt_triangle(2)),
                   (quad, fans.build_fan(0, [[]]))):
        got, want = fans.product_fan(f1, f2), skew_product(f1, f2)
        assert got.max_key_set() == want.max_key_set()
        assert got.maximal_ids == want.maximal_ids
        assert got.id_by_key == want.id_by_key
        assert got.field == want.field


def test_product_of_two_quadratic_fields_rejected():
    with pytest.raises(ValueError, match="different quadratic fields"):
        fans.product_fan(_sqrt_triangle(2), _sqrt_triangle(5))


def test_skew_product_hat():
    one = one_dim_fan()
    plus = next(m for m in one.maximal_ids if one.cones[m].rays[0] == (sc(1),))
    minus = next(m for m in one.maximal_ids
                 if one.cones[m].rays[0] == (sc(-1),))
    sk = skew_product(one, one, {plus: ((1,),), minus: ((-1,),)})
    got = sorted(sorted(tuple(fans.format_scalar(x) for x in r)
                        for r in sk.cones[m].rays)
                 for m in sk.maximal_ids)
    assert got == [
        [("-1", "1"), ("0", "-1")],
        [("-1", "1"), ("0", "1")],
        [("0", "-1"), ("1", "1")],
        [("0", "1"), ("1", "1")],
    ]
    assert fans.is_complete(sk)


def test_skew_product_incompatible_phi_rejected():
    one = one_dim_fan()
    quad = quadrant_fan()
    phi = {m: ((1, 1),) for m in quad.maximal_ids}
    m0 = quad.maximal_ids[0]
    phi[m0] = ((1, 2),)
    with pytest.raises(ValueError):
        skew_product(quad, one, phi)


def sqrt2_prism_vertices():
    F = ScalarField(2)
    r2 = F.parse("0+1r2")
    Q = [(sc(0), sc(0)), (sc(1), sc(0)), (sc(1) + r2, sc(1)),
         (sc(0), sc(1))]
    cx = (sc(2) + r2) / sc(4)
    cy = sc(1) / sc(2)
    return [(x - cx, y - cy, sc(z)) for (x, y) in Q for z in (1, -1)]


def test_sqrt2_prism_face_fan():
    pf, l = fans.face_fan_with_support(sqrt2_prism_vertices(),
                                       field=ScalarField(2))
    assert len(pf.maximal_ids) == 6
    assert fans.is_complete(pf)
    assert fans.is_strictly_convex(pf, l)
    # 6 quadrilateral cones, each coned from its center over its 4 edge
    # cones
    b, steps = fans.barycentric_subdivision(pf)
    assert len(b.maximal_ids) == 6 * 4 and len(steps) == 6


def test_fan_json_round_trip():
    pf = fans.face_fan_with_support(sqrt2_prism_vertices(),
                                    field=ScalarField(2))[0]
    j = canonical_json(pf)
    pf2 = fans.fan_from_json_dict(json.loads(j))
    assert pf2 == pf and hash(pf2) == hash(pf)
    assert canonical_json(pf2) == j


def test_fan_equality_is_canonical_json_equality():
    # a fan is equal to another, with the same hash, exactly when their
    # canonical JSON strings agree: the same rays given in another order or
    # scale and the maximal cones listed in another order give an equal
    # fan; another field, dimension or cone set gives another one
    def quadrants(field=None, scale=1, reverse=False):
        cones = [[(scale, 0), (0, 1)], [(0, 1), (-1, 0)],
                 [(-1, 0), (0, -scale)], [(0, -1), (1, 0)]]
        if reverse:
            cones = [c[::-1] for c in reversed(cones)]
        return fans.build_fan(2, cones, field=field)

    fs = [quadrants(), quadrants(scale=3), quadrants(reverse=True),
          quadrants(field=ScalarField(2)), quadrants(field=ScalarField(3)),
          fans.build_fan(2, [[(1, 0), (1, 1)], [(1, 1), (0, 1)],
                             [(0, 1), (-1, 0)], [(-1, 0), (0, -1)],
                             [(0, -1), (1, 0)]]),
          fans.build_fan(2, [[(1, 0), (0, 1)]]),
          fans.build_fan(1, [[(1,)], [(-1,)]]),
          fans.product_fan(fans.build_fan(1, [[(1,)], [(-1,)]]),
                           fans.build_fan(1, [[(1,)], [(-1,)]]))]
    for a in fs:
        for b in fs:
            same = canonical_json(a) == canonical_json(b)
            assert (a == b) == same
            if same:
                assert hash(a) == hash(b)
    assert fs[0] == fs[1] == fs[2] == fs[-1] != fs[3] != fs[4]


def test_polytope_json(tmp_path):
    # a vertex list gives its face fan unless "fan" says otherwise, over Q
    # unless "field" says otherwise
    pv = sqrt2_prism_vertices()
    obj = {"field": {"sqrt": 2},
           "vertices": [[fans.format_scalar(x) for x in v] for v in pv]}
    path = tmp_path / "prism.json"
    path.write_text(json.dumps(obj))
    pf3 = cli.load_input(str(path)).fan
    assert pf3 == fans.face_fan_with_support(pv, field=ScalarField(2))[0]
    obj2 = {"vertices": [["1", "1"], ["-1", "1"], ["-1", "-1"], ["1", "-1"]],
            "fan": "normal"}
    path.write_text(json.dumps(obj2))
    assert cli.load_input(str(path)).fan == quadrant_fan()


def test_meet_and_locate():
    f = quadrant_fan()
    a, b = f.maximal_ids[0], f.maximal_ids[1]
    meet = meet_id(f, a, b)
    assert f.cones[meet].dim in (0, 1)
    assert locate(f, (sc(2), sc(3))) in f.maximal_ids
    assert locate(f, (sc(1), sc(0))) in f.ray_ids()
    assert locate(f, (sc(0), sc(0))) == f.id_by_key[()]


def test_subdivision_lattice_still_valid():
    # re-verify the fan axioms on a subdivided fan with the checker on
    ff = fans.face_fan_with_support(cube_vertices())[0]
    b, _ = fans.barycentric_subdivision(ff)
    rebuilt = fans.build_fan(3, [[list(r) for r in b.cones[m].rays]
                                 for m in b.maximal_ids])
    assert rebuilt == b


# -- the hull against brute force --------------------------------------------


def brute_facets(gens, d):
    """Facets of a full-dimensional cone in R^d by brute force: a facet is a
    supporting hyperplane through d - 1 independent generators.  Returns
    {canonical inner facet form: sorted generators on it}."""
    out = {}
    for sub in itertools.combinations(gens, d - 1):
        kb = kernel_basis(Matrix(list(sub), ncols=d))
        if len(kb) != 1:
            continue
        vals = [vdot(kb[0], g) for g in gens]
        signs = {v.sign() for v in vals}
        if {1, -1} <= signs:
            continue
        w = fans.vneg(kb[0]) if -1 in signs else kb[0]
        out[fans.canonical_direction(w)] = tuple(
            sorted(g for g, v in zip(gens, vals) if not v))
    return out


def brute_faces(gens, d):
    """Every face of a full-dimensional pointed cone as a sorted tuple of
    its generators: the intersections of the brute-force facets, the cone
    itself (no facet) and {0} (all of them) included."""
    facets = [tuple(on) for on in brute_facets(gens, d).values()]
    faces, stack = set(), [tuple(gens)]
    while stack:
        f = stack.pop()
        if f not in faces:
            faces.add(f)
            stack.extend(tuple(g for g in f if g in on) for on in facets)
    return faces


def round_points(rng, dim, coord):
    """4 or 5 distinct points on the unit circle (dim 2) or the unit sphere
    (dim 3), by inverse stereographic projection: in convex position."""
    count, pts = rng.randint(4, 5), set()
    while len(pts) < count:
        t, u = coord(), coord() if dim == 3 else ZERO
        q = t * t + u * u + 1
        p = (2 * t / q, 2 * u / q, (t * t + u * u - 1) / q)
        pts.add(p if dim == 3 else p[::2])
    return list(pts)


def convex_points(rng, dim, coord):
    """Distinct points in convex position in R^dim (dim 2 to 4): round
    points, or a prism over round points one dimension down, whose side
    facets are not simplicial."""
    if dim == 4 or dim == 3 and rng.random() < 0.5:
        return [p + (sc(h),) for p in round_points(rng, dim - 1, coord)
                for h in (1, -1)]
    return round_points(rng, dim, coord)


def random_cone(rng, d, field):
    """Generators of a pointed full-dimensional cone in R^d, each an
    extreme ray: points in convex position at height 1."""
    def coord():
        x = sc(rng.randint(-4, 4)) / sc(rng.randint(1, 3))
        if not field.m:
            return x
        return x + sc(rng.randint(-2, 2)) * field.parse(f"0+1r{field.m}")
    return [fans.canonical_direction(p + (sc(1),))
            for p in convex_points(rng, d - 1, coord)]


def facets_by_dict(geom):
    """(facet forms, facet rows, facet ray keys) of the cone geometry geom
    by a dict from each canonical form to its rows, whose sorted keys are
    the forms."""
    rows = {fans.canonical_direction(y): on
            for y, on in fans._dd(geom.rays, geom.basis, geom.duals)}
    forms = tuple(sorted(rows))
    return (forms, tuple(rows[w] for w in forms),
            tuple(tuple(geom.rays[i] for i in rows[w]) for w in forms))


@pytest.mark.parametrize("d", (3, 4, 5))
@pytest.mark.parametrize("m", (None, 2))
def test_hull_matches_brute_force_facets(d, m):
    rng = random.Random(f"hull:{d}:{m}")
    for _ in range(6):
        gens = sorted(set(random_cone(rng, d, ScalarField(m))))
        c = fans.Cone.from_generators(gens, d)
        assert c.rays == tuple(gens) and c.dim == d
        geom = fans.cone_geometry(c.rays, d)
        assert dict(zip(geom.facet_forms, geom.facet_ray_keys)) == \
            brute_facets(gens, d)
        assert (geom.facet_forms, geom.facet_rows, geom.facet_ray_keys) == \
            facets_by_dict(geom)
        # the sum of the generators of a face lies in its relative interior:
        # two random generators, then an edge (a face of dimension 2), a
        # 2-face of the cross-section (dimension 3) and the interior
        faces = brute_faces(gens, d)
        inner = [fans.vadd(*rng.sample(gens, 2))]
        for k in sorted({2, 3, d}):
            face = rng.choice(sorted(f for f in faces if f and rank(
                Matrix(list(f), ncols=d)) == k))
            inner.append(functools.reduce(fans.vadd, face))
        for g in inner:
            with pytest.raises(ValueError, match="redundant generator") as e:
                fans.Cone.from_generators(gens + [g], d)
            assert e.value.generator == fans.canonical_direction(g)
        g1 = rng.choice(gens)
        with pytest.raises(ValueError, match="not pointed"):
            fans.Cone.from_generators(gens + [fans.vneg(g1)], d)


def embedded_cone(rng, n, d, field):
    """(generators in R^d, embedding A as n rows of length d): a pointed
    cone of dimension d, whose generators are its extreme rays, and a
    random injective linear map into R^n."""
    def coord():
        x = sc(rng.randint(-3, 3))
        if field.m and rng.random() < 0.5:
            x = x + sc(rng.choice((-1, 1))) * field.parse(f"0+1r{field.m}")
        return x

    if d >= 3:
        gens = random_cone(rng, d, field)
    else:
        gens = [(sc(1),)] if d == 1 else [(sc(1), sc(0)),
                                         (coord(), sc(rng.randint(1, 3)))]
    while True:
        a = [tuple(coord() for _ in range(d)) for _ in range(n)]
        if rank(Matrix(a, ncols=d)) == d:
            return gens, a


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("m", (None, 2))
def test_lower_dimensional_hull_matches_brute_force(n, m):
    # a cone of dimension d < n is a full-dimensional cone in R^d carried
    # into R^n by an injective A: its equations annihilate the image of A,
    # and its facets are the images of the facets in R^d, each facet form
    # pulled back along A to the facet's form there
    rng = random.Random(f"low:{n}:{m}")
    field = ScalarField(m)
    for d in range(1, n):
        for _ in range(4):
            gens, a = embedded_cone(rng, n, d, field)
            image = {g: fans.canonical_direction(
                [vdot(row, g) for row in a]) for g in gens}
            c = fans.Cone.from_generators(list(image.values()), n)
            assert c.dim == d and set(c.rays) == set(image.values())
            geom = fans.cone_geometry(c.rays, n)
            annihilator = kernel_basis(Matrix(list(zip(*a)), ncols=n))
            want = [(p, tuple(row.get(j, ZERO) for j in range(n)))
                    for p, row in sparse_eliminate(
                        [dict(enumerate(w)) for w in annihilator])]
            assert geom.equations == want
            pivots = [p for p, _ in want]
            for w in geom.facet_forms:
                assert fans.canonical_direction(w) == w
                assert all(not w[p] for p in pivots)
            got = {fans.canonical_direction(
                [vdot(w, col) for col in zip(*a)]): set(key)
                for w, key in zip(geom.facet_forms, geom.facet_ray_keys)}
            assert got == {w: {image[g] for g in on}
                           for w, on in brute_facets(gens, d).items()}


@pytest.mark.parametrize("m", (None, 2))
def test_cone_geometry_stays_off_the_modular_path(monkeypatch, m):
    # with no prime for any field a modular kernel would fall back to the
    # exact path and count it; a cone's geometry and an intersection of two
    # cones (these two overlap, with no separating facet) are exact already
    monkeypatch.setattr(exactlin, "_embeddings", lambda m: ())
    t = ScalarField(m).parse("1/9973+1r2" if m else "1/9973")
    inner = ((sc(1), t, sc(0)), (sc(1), t + sc(1), sc(0)))
    outer = ((sc(1), t, sc(0)), (sc(0), sc(1), sc(0)))
    before = exactlin.modp_fallbacks
    misses = fans.cone_geometry.cache_info().misses
    geom = fans.cone_geometry(inner, 3)
    assert fans.cone_geometry.cache_info().misses > misses
    assert geom.dim == 2 and [p for p, _ in geom.equations] == [2]
    with pytest.raises(ValueError, match="fan axiom violation"):
        fans.Fan(3, ScalarField(m), [inner, outer])
    assert exactlin.modp_fallbacks == before


def brute_rays(rows, k):
    """Extreme rays of {y : a . y >= 0 for every row a} by brute force: the
    lines cut out by k - 1 independent rows, in the direction that meets
    every row.  Returns {canonical ray: indices of the rows zero on it}."""
    out = {}
    for sub in itertools.combinations(rows, k - 1):
        kb = kernel_basis(Matrix(list(sub), ncols=k))
        if len(kb) != 1:
            continue
        for y in (kb[0], fans.vneg(kb[0])):
            vals = [vdot(a, y) for a in rows]
            if all(v.sign() >= 0 for v in vals):
                out[fans.canonical_direction(y)] = tuple(
                    i for i, v in enumerate(vals) if not v)
    return out


def meet_in_common_face(k1, k2):
    """The fan axiom for two full-dimensional cones in R^3 by brute force:
    the intersection, whose rays brute_rays finds from both cones' facet
    inequalities, is the cone on the rays they share, and that cone is a
    face of both (the facets through the shared rays cut out no others)."""
    f1, f2 = brute_facets(list(k1), 3), brute_facets(list(k2), 3)
    shared = set(k1) & set(k2)

    def is_face(gens, facets):
        on = set(gens)
        for key in facets.values():
            if shared <= set(key):
                on &= set(key)
        return on == shared

    return set(brute_rays(list(f1) + list(f2), 3)) == shared and \
        is_face(k1, f1) and is_face(k2, f2)


def random_simplicial_pair(rng, field, kind):
    """Generators of two simplicial 3-cones: meeting in a shared face (of
    dimension 0, 1 or 2), overlapping, with an edge of the second crossing a
    facet of the first, or sliding along a facet plane of the first."""
    def coord():
        x = sc(rng.randint(-3, 3))
        if field.m and rng.random() < 0.5:
            x = x + sc(rng.choice((-1, 1))) * field.parse(f"0+1r{field.m}")
        return x

    def small():
        return sc(rng.randint(0, 2))

    while True:
        a, b, c = gens = [tuple(coord() for _ in range(3)) for _ in range(3)]
        if rank(Matrix(gens, ncols=3)) == 3:
            break
    add, neg, scale = fans.vadd, fans.vneg, fans.vscale
    if kind == "face":
        shared = rng.randint(0, 2)
        if shared == 2:
            other = [a, b, add(neg(c), add(scale(small(), a),
                                           scale(small(), b)))]
        elif shared == 1:
            other = [a, add(neg(b), scale(small(), a)),
                     add(neg(c), scale(small(), a))]
        else:
            other = [neg(a), neg(b), neg(c)]
    elif kind == "overlap":
        p = add(a, add(b, c))
        other = [p, add(p, neg(scale(small() + 1, a))),
                 add(p, neg(scale(small() + 1, b)))] \
            if rng.random() < 0.5 else \
            [a, b, add(c, add(scale(small(), a), neg(scale(small(), b))))]
    elif kind == "crossing":
        p, t = add(a, b), small() + 1
        other = [add(p, scale(t, c)), add(p, neg(scale(t, c))),
                 tuple(coord() for _ in range(3))]
    else:
        other = [add(scale(small() + 1, a), b), add(neg(a), scale(sc(2), b)),
                 add(neg(c), scale(small(), a))]
    return gens, other


@pytest.mark.parametrize("m", (None, 2))
def test_axiom_check_matches_brute_force(m):
    rng = random.Random(f"axioms:{m}")
    verdicts = {}
    for kind in ("face", "overlap", "crossing", "sliding"):
        for _ in range(8):
            gens, other = random_simplicial_pair(rng, ScalarField(m), kind)
            if rank(Matrix(other, ncols=3)) < 3:
                continue
            k1 = fans.Cone.from_generators(gens, 3).rays
            k2 = fans.Cone.from_generators(other, 3).rays
            if k1 == k2:
                continue
            expected = meet_in_common_face(k1, k2)
            try:
                fans.Fan(3, ScalarField(m), [k1, k2])
                got = True
            except ValueError as e:
                assert "fan axiom violation" in str(e)
                got = False
            assert got == expected, (kind, k1, k2)
            verdicts.setdefault(kind, set()).add(got)
    assert verdicts["face"] == {True}
    assert verdicts["overlap"] == verdicts["crossing"] == {False}
    assert verdicts["sliding"] == {False}


@pytest.mark.parametrize("k", (3, 4, 5, 6))
def test_dd_matches_brute_force_rays(k):
    # random small rows plus the negation of the first, added right after
    # the starting simplex: it confines the cone to a hyperplane, so later
    # rays can share k - 2 zero rows without being adjacent
    rng = random.Random(f"dd:{k}")
    for _ in range(8):
        rows = [tuple(sc(rng.randint(-2, 2)) for _ in range(k))
                for _ in range(k + 4)]
        rows.insert(1, fans.vneg(rows[0]))
        if rank(Matrix(rows, ncols=k)) < k:
            continue
        basis, _, duals, _ = exactlin.dual_basis(rows, k)
        got = {fans.canonical_direction(y): on
               for y, on in fans._dd(rows, basis, duals)}
        assert got == brute_rays(rows, k)


def completed_inverse(rows, k):
    """(basis, comp, duals, det) of exactlin.dual_basis by its definition:
    the rows that raise the rank, capped at k, the unit vectors that raise
    it further, and the tests' reference inverse (tagged_inverse) of the
    square matrix they make."""
    basis, comp, kept = [], [], []
    units = [tuple(sc(int(j == c)) for j in range(k)) for c in range(k)]
    for i, a in enumerate(list(rows) + units):
        if len(kept) < k and rank(Matrix(kept + [a], ncols=k)) > len(kept):
            kept.append(a)
            (basis if i < len(rows) else comp).append(
                i if i < len(rows) else i - len(rows))
    inv, det = tagged_inverse(Matrix(kept, ncols=k))
    return basis, comp, inv.columns(), det


@pytest.mark.parametrize("m", (None, 2))
def test_dual_basis_is_the_inverse_of_the_completed_rows(m):
    # zero rows, repeated rows and combinations of earlier rows are skipped,
    # and the unit vectors complete what is left
    rng = random.Random(f"dual-basis:{m}")
    field = ScalarField(m)

    def coord():
        x = sc(rng.randint(-3, 3)) / sc(rng.randint(1, 2))
        if m and rng.random() < 0.5:
            x = x + sc(rng.randint(-1, 1)) * field.parse(f"0+1r{m}")
        return x

    for k in range(1, 6):
        for _ in range(12):
            rows = [tuple(coord() for _ in range(k))
                    for _ in range(rng.randint(0, k + 1))]
            for _ in range(rng.randint(0, 3)):
                kind = rng.choice(("zero", "repeat", "combination"))
                if kind == "zero" or not rows:
                    extra = tuple(ZERO for _ in range(k))
                elif kind == "repeat":
                    extra = rng.choice(rows)
                else:
                    a, b = rng.choice(rows), rng.choice(rows)
                    extra = fans.vadd(fans.vscale(coord(), a),
                                      fans.vscale(coord(), b))
                rows.insert(rng.randint(0, len(rows)), extra)
            assert exactlin.dual_basis(rows, k) == completed_inverse(rows, k)


def test_independent_generators_need_no_pointedness_rank(monkeypatch):
    # the lifted cone of a polytope with more vertices than dimensions + 1
    # is dependent, and its pointedness is read off its facet rows; the
    # facet cones here are simplicial.  Every exact rank goes through
    # sparse_eliminate.
    calls = []
    for name in ("rank", "sparse_eliminate"):
        real = getattr(exactlin, name)
        monkeypatch.setattr(exactlin, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    assert not hasattr(fans, "rank") and not hasattr(fans, "solve")
    r2 = ScalarField(2).parse("0+1r2")
    square = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    bipyramid = [(sc(x), sc(y), sc(z) + r2 * sc(x))
                 for x, y, z in square + [(0, 0, 3), (0, 0, -3)]]
    for vertices, field in ((OCTAHEDRON, None), (bipyramid, ScalarField(2)),
                            (cube_vertices(), None)):
        fan, _ = fans.face_fan_with_support(vertices, field=field)
        assert len(fan.maximal_ids) == (6 if len(vertices) == 8 else 8)
        assert calls == []


def _sqrt2_bipyramid_face_fan():
    job = gen.polytope_bipyramid_sqrt2(gen.make_rng("shape", "tests"),
                                       gen.make_rng(1, "tests"), 5)
    field = ScalarField(2)
    vertices = [tuple(field.parse(x) for x in v)
                for v in job["doc"]["vertices"]]
    return fans.face_fan_with_support(vertices, field=field)[0]


def _seeded_ray_values(fan, rng, m=None):
    def value():
        x = sc(rng.randint(-9, 9)) / sc(rng.randint(1, 5))
        if m and rng.random() < 0.5:
            x = x + sc(rng.randint(-3, 3)) * ScalarField(m).parse(f"0+1r{m}")
        return x
    return {rid: value() for rid in fan.ray_ids()}


def test_from_ray_values_is_the_solved_form():
    # on a full-dimensional cone the form with given ray values is unique,
    # so the dual-basis read-off must give solve's form exactly
    rng = random.Random(30)
    cases = fan_cold_fans()
    assert {len(f.cones[m].rays) for f, _ in cases for m in f.maximal_ids} \
        == {3, 4}           # the prisms' square cones are among them
    bipyramid = _sqrt2_bipyramid_face_fan()
    cases += [(bipyramid, _seeded_ray_values(bipyramid, rng, 2))]
    r2 = ScalarField(2).parse("0+1r2")
    pentagon = [(sc(1), sc(0)), (r2, sc(1)), (sc(-1), r2), (sc(-1), sc(-1)),
                (sc(1), -r2)]
    pentagon = fans.build_fan(2, [[pentagon[i - 1], pentagon[i]]
                                  for i in range(5)], field=ScalarField(2))
    square = fans.build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)],
                                [(-1, 0), (0, -1)], [(0, -1), (1, 0)]])
    product = fans.product_fan(pentagon, square)
    assert product.n == 4 and len(product.maximal_ids) == 20
    cases += [(product, _seeded_ray_values(product, rng, 2)),
              (product, _seeded_ray_values(product, rng))]
    checked = 0
    for fan, values in cases:
        want = forms_by_solve(fan, values)
        assert None not in want.values()
        got = fans.PLFunction.from_ray_values(fan, values).per_max
        assert got == want
        checked += len(want)
    assert checked > 600


def test_from_ray_values_forms_agree_on_shared_rays():
    # PLFunction.from_ray_values skips the agreement check: each form takes
    # the one value of each of its rays
    for fan, values in fan_cold_fans(1):
        fans.PLFunction.from_ray_values(fan, values)._check_agreement()


def test_from_ray_values_rejects_inconsistent_values_on_a_square_cone():
    fan = fans.build_fan(3, [[(1, 1, 1), (-1, 1, 1), (1, -1, 1),
                              (-1, -1, 1)]])
    rid = {fan.cones[i].rays[0]: i for i in fan.ray_ids()}
    # the values of x + 2y + 3z, then one of them moved off that plane
    values = {i: sc(r[0] + 2 * r[1] + 3 * r[2]) for r, i in rid.items()}
    (m,) = fan.maximal_ids
    assert fans.PLFunction.from_ray_values(fan, values).per_max[m] == \
        (sc(1), sc(2), sc(3))
    for r, i in rid.items():
        moved = dict(values)
        moved[i] = values[i] + sc(1) / sc(2)
        assert forms_by_solve(fan, moved)[m] is None
        with pytest.raises(ValueError, match="no linear form matches"):
            fans.PLFunction.from_ray_values(fan, moved)


def test_from_ray_values_on_a_lower_dimensional_cone():
    # the duals' form takes the given ray values, simplicial or not; the
    # form is not unique there, so only its values are asserted
    rng = random.Random(31)
    wedge = fans.build_fan(3, [[(1, 0, 0), (0, 1, 0)]])
    square = fans.build_fan(4, [[(1, 1, 1, 0), (-1, 1, 1, 0), (1, -1, 1, 0),
                                 (-1, -1, 1, 0)]])
    for fan in (wedge, square):
        (m,) = fan.maximal_ids
        for _ in range(5):
            if fan is wedge:    # any values on its two rays
                values = _seeded_ray_values(fan, rng, 2)
            else:               # the values of a form
                form = tuple(sc(rng.randint(-5, 5)) for _ in range(fan.n))
                values = {i: vdot(form, fan.cones[i].rays[0])
                          for i in fan.ray_ids()}
            got = fans.PLFunction.from_ray_values(fan, values)
            for i in fan.ray_ids():
                assert vdot(got.per_max[m], fan.cones[i].rays[0]) == \
                    values[i]
    rid = square.ray_ids()
    values = {i: sc(1) for i in rid}
    values[rid[0]] = sc(2)
    with pytest.raises(ValueError, match="no linear form matches"):
        fans.PLFunction.from_ray_values(square, values)


def _random_generators(rng, n, m):
    """A seeded generator set in R^n: random small vectors, sometimes a
    pair g, -g, sometimes inside a coordinate hyperplane (lower
    dimension), sometimes a combination of the others (dependent)."""
    r = ScalarField(m).parse(f"0+1r{m}") if m else None

    def coord():
        x = sc(rng.randint(-2, 2))
        if r is not None and rng.random() < 0.3:
            x = x + sc(rng.randint(-1, 1)) * r
        return x

    gens = []
    for _ in range(rng.randint(1, n + 3)):
        g = [coord() for _ in range(n)]
        if rng.random() < 0.3:
            g[-1] = ZERO
        gens.append(g)
    if rng.random() < 0.3:
        g = rng.choice(gens)
        gens.append([-x for x in g])
    if rng.random() < 0.3 and len(gens) > 1:
        a, b = rng.sample(gens, 2)
        gens.append([x + y for x, y in zip(a, b)])
    return [g for g in gens if any(g)] or [[ONE] * n]


@pytest.mark.parametrize("m", (None, 2))
def test_pointedness_is_the_rank_criterion(m):
    rng = random.Random(40 + (m or 0))
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 4)
        gens = _random_generators(rng, n, m)
        pointed = pointed_by_rank(gens, n)
        try:
            fans.Cone.from_generators(gens, n)
            got = "cone"
        except fans.RedundantGenerator:
            got = "redundant"
        except ValueError as e:
            assert str(e) == "cone is not pointed", e
            got = "not pointed"
        assert (got != "not pointed") == pointed, gens
        geom = fans.cone_geometry(
            tuple(sorted({fans.canonical_direction(fans.vec(g))
                          for g in gens})), n)
        seen.add((got, geom.dim < n))
    # pointed, redundant and not pointed, in full and lower dimension
    assert seen == {(got, low) for got in ("cone", "redundant", "not pointed")
                    for low in (False, True)}


@pytest.mark.parametrize("gens", [
    [(1, 0), (-1, 0), (0, 1)],                      # the half-plane
    [(1, 0), (-1, 0), (0, 1), (0, -1)],             # the plane
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1)],  # a wedge with a line
    [(1, 0, 0), (-1, 0, 0)],                        # a line in R^3
], ids=["half-plane", "plane", "wedge", "line"])
def test_nonpointed_cones_raise(gens):
    n = len(gens[0])
    assert not pointed_by_rank(gens, n)
    with pytest.raises(ValueError, match="cone is not pointed"):
        fans.Cone.from_generators(gens, n)


def test_canonical_direction_of_canonical_input():
    r2 = ScalarField(2).parse("0+1r2")
    for u in ([sc(1), sc(-3), r2], [ZERO, sc(-1), sc(5) / sc(2)],
              [ZERO, ZERO, sc(1)]):
        got = fans.canonical_direction(u)
        assert type(got) is tuple and got == tuple(u)
        assert fans.canonical_direction(got) == got
    assert fans.canonical_direction([ZERO, sc(-2), r2]) == \
        (ZERO, sc(-1), r2 / sc(2))
    with pytest.raises(ValueError, match="zero vector"):
        fans.canonical_direction([ZERO, ZERO])


def test_cone_geometry_cache_is_bounded():
    for k in range(4200):
        fans.cone_geometry(((sc(1), sc(k) / sc(4201)),), 2)
    info = fans.cone_geometry.cache_info()
    assert info.maxsize == 4096 and info.currsize <= 4096


# -- one face lattice: geometry for the maximal cones only ------------------


def faces_by_recursion(key, n):
    """The faces of a cone, itself and {0} included, by the earlier rule:
    a recursion through each face's own facets, one geometry per face."""
    seen, stack = {key, ()}, list(fans.cone_geometry(key, n).facet_ray_keys)
    while stack:
        k = stack.pop()
        if k not in seen:
            seen.add(k)
            stack.extend(fans.cone_geometry(k, n).facet_ray_keys)
    return seen


OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
              (0, 0, -1)]


def triangle_fan():
    return fans.build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, -1)],
                              [(-1, -1), (1, 0)]])


def cube_star_and_link():
    ff = fans.face_fan_with_support(cube_vertices())[0]
    _, closed, link = star_link(ff, ff.ray_ids()[0])
    return closed, link


LATTICE_FANS = {
    "cube-face": lambda: fans.face_fan_with_support(cube_vertices())[0],
    "cube-normal": lambda: fans.normal_fan(cube_vertices())[0],
    "octahedron-face": lambda: fans.face_fan_with_support(OCTAHEDRON)[0],
    "octahedron-normal": lambda: fans.normal_fan(OCTAHEDRON)[0],
    "icosahedron-face": lambda: fans.face_fan_with_support(
        icosahedron_vertices(), field=ScalarField(5))[0],
    "dodecahedron-face": lambda: fans.face_fan_with_support(
        dodecahedron_vertices(), field=ScalarField(5))[0],
    "sqrt2-prism-face": lambda: fans.face_fan_with_support(
        sqrt2_prism_vertices(), field=ScalarField(2))[0],
    "triangle-x-quadrant": lambda: fans.product_fan(triangle_fan(),
                                                    quadrant_fan()),
    "4-cube-face": lambda: fans.face_fan_with_support(
        list(itertools.product((1, -1), repeat=4)))[0],
    "cube-barycentric": lambda: fans.barycentric_subdivision(
        fans.face_fan_with_support(cube_vertices())[0])[0],
    "cube-closed-star": lambda: cube_star_and_link()[0],
    "cube-link": lambda: cube_star_and_link()[1],
}


@pytest.mark.parametrize("name", LATTICE_FANS)
def test_fan_lattice_matches_each_face_geometry(name):
    # the lattice read off the listed cones' facets has the cones, ids,
    # dims and faces that one geometry per face gives
    fan = LATTICE_FANS[name]()
    n = fan.n
    keys = set().union(*(faces_by_recursion(fan.cones[m].rays, n)
                         for m in fan.maximal_ids))
    assert [fan.cones[i].rays for i in sorted(fan.cones)] == sorted(
        keys, key=lambda k: (fans.cone_geometry(k, n).dim, k))
    for cid, c in fan.cones.items():
        assert c.id == cid and fan.id_by_key[c.rays] == cid
        assert c.dim == fans.cone_geometry(c.rays, n).dim
        assert {fan.cones[f].rays for f in fan.faces_of[cid]} == \
            faces_by_recursion(c.rays, n) - {c.rays}
        assert fan.faces_of[cid] == tuple(sorted(fan.faces_of[cid]))
        assert fan.cofaces_of[cid] == tuple(
            d for d in sorted(fan.cones) if cid in fan.faces_of[d])


@pytest.mark.parametrize("name", LATTICE_FANS)
def test_wall_equations_read_off_the_owner(name):
    fan = LATTICE_FANS[name]()
    walls = [c for c in fan.cones_of_dim(fan.n - 1) if fan.cofaces_of[c.id]]
    assert walls or name == "cube-link"
    for c in walls:
        assert fans.wall_equations(fan, c.id) == \
            fans.cone_geometry(c.rays, fan.n).equations


@pytest.mark.parametrize("name", sorted(set(LATTICE_FANS) - {"cube-link"}))
def test_axiom_check_cuts_without_intersections(monkeypatch, name):
    # the facet forms' positive and zero rays cut every pair of these
    # fans' maximal cones down to a common face, so the check computes no
    # exact intersection; a form read as positive on its own facet's rays
    # cuts nothing there (the link's cones are lower-dimensional and are
    # left out)
    fan = LATTICE_FANS[name]()
    keys = [fan.cones[m].rays for m in fan.maximal_ids]
    monkeypatch.setattr(fans, "_intersect_keys", None)
    assert fans.Fan(fan.n, fan.field, keys, check=True) == fan


def test_fan_from_json_builds_one_geometry_per_maximal_cone():
    # a bipyramid over a heptagon: 9 rays, 21 edges and 14 maximal cones,
    # and with the zero cone 45 cones in all; only the maximal cones need
    # their own geometry, the axiom check included
    heptagon = [[3, 0, 0], [2, 2, 0], [0, 3, 0], [-2, 2, 0], [-3, 0, 0],
                [-1, -3, 0], [2, -3, 0]]
    obj = {"field": "Q", "dim": 3, "rays": heptagon + [[0, 0, 3], [0, 0, -3]],
           "maximal_cones": [[i, (i + 1) % 7, apex] for apex in (7, 8)
                             for i in range(7)]}
    fans.cone_geometry.cache_clear()
    fan = fans.fan_from_json_dict(obj)
    assert len(fan.cones) == 45 and len(fan.maximal_ids) == 14
    assert fans.cone_geometry.cache_info().misses == 14
    assert fans.is_complete(fan)
    # the star of an apex: its maximal cones are the fan's, and the link's
    # are the seven edges of the heptagon, one geometry each
    apex = next(c.id for c in fan.cones_of_dim(1) if c.rays[0][2].sign() > 0)
    _, closed, link = star_link(fan, apex)
    assert len(closed.maximal_ids) == len(link.maximal_ids) == 7
    assert fans.cone_geometry.cache_info().misses == 14 + 7


def locate_by_each_face(fan, x):
    """The earlier rule for locate, one geometry per face: the first
    cone in id order whose equations vanish on x and whose facet forms are
    all > 0 on x."""
    for cid, c in fan.cones.items():
        g = fans.cone_geometry(c.rays, fan.n)
        if not any(vdot(e, x) for _, e in g.equations) and \
                all(vdot(w, x).sign() > 0 for w in g.facet_forms):
            return cid
    return None


@pytest.mark.parametrize("name", ["cube-face", "4-cube-face",
                                  "dodecahedron-face", "triangle-x-quadrant",
                                  "cube-barycentric", "cube-closed-star"])
def test_locate_reads_the_maximal_cones(name):
    # the sum of each cone's rays lies in its relative interior; the
    # negated sums of the maximal cones leave a closed star's support
    fan = LATTICE_FANS[name]()
    zero = tuple(ZERO for _ in range(fan.n))
    sums = {cid: functools.reduce(fans.vadd, c.rays, zero)
            for cid, c in fan.cones.items()}
    for cid, x in sums.items():
        assert locate(fan, x) == cid == locate_by_each_face(fan, x)
    outside = [fans.vneg(sums[m]) for m in fan.maximal_ids]
    for x in outside:
        assert locate(fan, x) == locate_by_each_face(fan, x)
    assert any(locate(fan, x) is None for x in outside) == \
        (name == "cube-closed-star")


def test_distinguished_pair_builds_one_geometry_per_listed_cone(monkeypatch):
    # the cube face fan's pair: its subdivision and the flattened pairs of
    # its nonsimplicial cones compute a geometry for their listed cones
    # only, once per distinct (key, n); locating a point and checking a
    # subdivision center read the maximal cones.  The 6 * 4 chambers of the
    # subdivision are listed in dimension 3.  The six flattened pairs list
    # 4 keys each in dimension 2, the four facet images, which are their
    # own pieces as the edge cones stay whole; the sup-norm centers are
    # symmetric under the cube's signed permutations, so the six land on
    # the same 4 keys: 24 + 4 in all
    fan = fans.face_fan_with_support(cube_vertices())[0]
    listed = set()
    init = fans.Fan.__init__

    def recording_init(self, n, field, cone_keys, check=True):
        listed.update((k, n) for k in cone_keys)
        init(self, n, field, cone_keys, check)

    monkeypatch.setattr(fans.Fan, "__init__", recording_init)
    fans.cone_geometry.cache_clear()
    build_distinguished_pair(fan)
    assert fans.cone_geometry.cache_info().misses == len(listed) == 24 + 4


def test_axiom_check_rejects_overlapping_4d_cones():
    # the positive orthant and a simplicial cone whose interior holds
    # (4, 4, 4, 3) + (1, 1, 1, -1)/2, an interior point of both: no facet
    # form separates them, so the exact intersection decides
    orthant = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    other = [(2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, -1)]
    with pytest.raises(ValueError, match="fan axiom violation"):
        fans.build_fan(4, [orthant, other])
    # the orthant and its mirror in x4 meet in a common facet
    mirror = orthant[:3] + [(0, 0, 0, -1)]
    assert len(fans.build_fan(4, [orthant, mirror]).maximal_ids) == 2


# -- the paper's nonrational case: Q(sqrt 5) ----------------------------------


@pytest.mark.parametrize("vertices, f", [
    (icosahedron_vertices, (12, 30, 20)),
    (dodecahedron_vertices, (20, 30, 12)),
])
def test_golden_ratio_polytopes(vertices, f):
    lattice = polytope_face_lattice(vertices())
    assert tuple(sum(1 for d, _ in lattice.faces if d == k)
                 for k in range(3)) == f
    # a 3-polytope with f0 vertices has toric h = (1, f0-3, f0-3, 1)
    assert toric_h_oracle(lattice) == (1, f[0] - 3, f[0] - 3, 1)
    ff, l = fans.face_fan_with_support(vertices(), field=ScalarField(5))
    assert len(ff.maximal_ids) == f[2]
    assert fans.is_complete(ff) and fans.is_strictly_convex(ff, l)


# -- polytope fans read off the hull ------------------------------------------


def check_axioms(fan):
    """Fan._check_axioms on a built fan: the rays sorted as Fan sorts them
    and each cone's ray mask over them, by id."""
    rays = sorted({r for c in fan.cones.values() for r in c.rays})
    bit = {r: 1 << i for i, r in enumerate(rays)}
    fan._check_axioms([sum(bit[r] for r in fan.cones[cid].rays)
                       for cid in sorted(fan.cones)], rays)


def assert_read_off_the_hull(vertices, field=None):
    """The face and normal fans of conv(vertices) and their support
    functions, unchecked, are those of the checked route, and pass the
    checks they skip."""
    for kind, build in (("face", fans.face_fan_with_support),
                        ("normal", fans.normal_fan)):
        fan, l = build(vertices, field=field)
        ref, ref_l = checked_polytope_fan(vertices, kind, field)
        assert fan == ref
        assert fan.id_by_key == ref.id_by_key
        assert fan.faces_of == ref.faces_of
        assert fan.cofaces_of == ref.cofaces_of
        assert fan.maximal_ids == ref.maximal_ids
        assert l.per_max == ref_l.per_max
        check_axioms(fan)
        l._check_agreement()


def _sqrt2_pentagon():
    r2 = ScalarField(2).parse("0+1r2")
    return [(r2, sc(0)), (sc(1), sc(1)), (sc(0), sc(1)), (sc(-1), sc(0)),
            (sc(0), -r2)]


HULL_POLYTOPES = {
    "segment": lambda: ([(-1,), (2,)], None),
    "square": lambda: ([(1, 1), (-1, 1), (-1, -1), (1, -1)], None),
    "sqrt2-pentagon": lambda: (_sqrt2_pentagon(), ScalarField(2)),
    "cube": lambda: (cube_vertices(), None),
    "octahedron": lambda: ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                            (0, 0, 1), (0, 0, -1)], None),
    "icosahedron": lambda: (icosahedron_vertices(), ScalarField(5)),
    "dodecahedron": lambda: (dodecahedron_vertices(), ScalarField(5)),
    "4-cube": lambda: (list(itertools.product((1, -1), repeat=4)), None),
}


@pytest.mark.parametrize("name", HULL_POLYTOPES)
def test_polytope_fans_are_read_off_the_hull(name):
    assert_read_off_the_hull(*HULL_POLYTOPES[name]())


@pytest.mark.parametrize("spec", sorted(set(gen.POLYTOPE_CYCLE)),
                         ids="{0[0]}-{0[1]}".format)
def test_benchmark_polytope_fans_are_read_off_the_hull(spec):
    # 20 seeds of each polytope-sqrt2 family
    field = ScalarField(2)
    for seed in range(1, 21):
        doc = gen.polytope_job(gen.make_rng("shape", "hull", seed),
                               gen.make_rng(seed, "hull"), spec)["doc"]
        assert_read_off_the_hull(
            [fans.parse_vector(v, field) for v in doc["vertices"]], field)


def test_barycentric_icosahedron_flag_counts():
    ff = fans.face_fan_with_support(icosahedron_vertices(),
                                    field=ScalarField(5))[0]
    # the icosahedron's faces are triangles, so its face fan is its own
    # subdivision
    b, steps = fans.barycentric_subdivision(ff)
    assert b is ff and steps == ()
    b, steps = flag_subdivision(ff)
    # flags of the icosahedron: 20 triangles, 3 edges each, 2 vertices
    # each; one ray per face; one cone per chain of faces, the empty chain
    # included: 1 + 62 + (60 + 60 + 60) + 120
    assert len(b.maximal_ids) == 20 * 3 * 2
    assert len(b.rays()) == 12 + 30 + 20
    assert len(b.cones) == 363
    assert len(steps) == 30 + 20


def test_barycentric_icosahedron_pyramid_flag_counts():
    # the icosahedron at x4 = -1 and the apex at (0, 0, 0, 3)
    verts = [v + (sc(-1),) for v in icosahedron_vertices()]
    verts.append((sc(0), sc(0), sc(0), sc(3)))
    ff = fans.face_fan_with_support(verts, field=ScalarField(5))[0]
    # only the base is not simplicial: the cone from its center over its
    # 20 triangles, beside the 20 tetrahedra, on 13 rays and the center
    b, steps = fans.barycentric_subdivision(ff)
    assert len(b.maximal_ids) == 20 + 20
    assert len(b.rays()) == 13 + 1
    assert len(steps) == 1
    assert b.is_simplicial()
    b, steps = flag_subdivision(ff)
    # flags of the pyramid: 4! through each of the 20 tetrahedra and the
    # 120 of the base; one ray per face, f = (13, 42, 50, 21)
    assert len(b.maximal_ids) == 20 * 24 + 120
    assert len(b.rays()) == 13 + 42 + 50 + 21
    assert len(steps) == 42 + 50 + 21
    assert b.is_simplicial()


def _pyramid_fan(vertices, field):
    """The face fan of the pyramid over a polytope: its vertices at
    x_n = -1 and the apex (0, ..., 0, 3)."""
    return fans.face_fan_with_support(
        [fans.parse_vector(v, field) for v in pyramid(vertices)],
        field=field)[0]


def _literals(vertices):
    return [[fans.format_scalar(x) for x in v] for v in vertices]


# (fan, maximal cones of the subdivision, steps): the pieces of a
# nonsimplicial cone are the cones from its center over the pieces of its
# facets, a simplicial cone is its own one piece, and each nonsimplicial
# cone takes one step
SUBDIVISION_COUNTS = {
    # 6 squares x 4 edges; the 6 square cones
    "cube-face": (lambda: fans.face_fan_with_support(cube_vertices())[0],
                  6 * 4, 6),
    # 3 squares x 4 edges, and the 2 triangle cones whole; 3 square cones
    "sqrt2-triangular-prism": (lambda: sqrt2_triangular_prism()[0],
                               3 * 4 + 2, 3),
    # 8 cubes x 6 squares x 4 edges; 8 cube cones and 24 square cones
    "4-cube-face": (lambda: fans.face_fan_with_support(
        list(itertools.product((1, -1), repeat=4)))[0], 8 * 6 * 4, 8 + 24),
    # the base over its 20 triangles, and the 20 tetrahedra whole; the base
    "icosahedron-pyramid": (lambda: _pyramid_fan(
        _literals(icosahedron_vertices()), ScalarField(5)), 20 + 20, 1),
    # each of the 12 pentagon pyramids over its pentagon (5 pieces) and its
    # 5 triangles, the base over the 12 pentagons' 5 pieces each; the 12
    # pentagon cones, the 12 pentagon pyramids and the base
    "dodecahedron-pyramid": (lambda: _pyramid_fan(
        _literals(dodecahedron_vertices()), ScalarField(5)),
        12 * (5 + 5) + 12 * 5, 12 + 12 + 1),
    # the base over the prism's 3 * 4 + 2 pieces, each of the 3 square
    # pyramids over its square (4 pieces) and its 4 triangles, and the 2
    # tetrahedra whole; the base, the 3 square cones and the 3 square
    # pyramids
    "sqrt2-prism-pyramid": (lambda: sqrt2_prism_pyramid()[0],
                            (3 * 4 + 2) + 3 * (4 + 4) + 2, 1 + 3 + 3),
}


@pytest.mark.parametrize("name", SUBDIVISION_COUNTS)
def test_subdivision_centers_the_nonsimplicial_cones_only(name):
    build, maximal, centers = SUBDIVISION_COUNTS[name]
    fan = build()
    sub, steps = fans.barycentric_subdivision(fan)
    assert sub.is_simplicial()
    assert len(sub.maximal_ids) == maximal
    # one step per nonsimplicial cone, by decreasing dimension, then id
    assert [key for _, key in steps] == [
        c.rays for c in sorted(fan.cones.values(),
                               key=lambda c: (-c.dim, c.id))
        if not c.is_simplicial()]
    assert len(steps) == centers
    # every simplicial cone stays whole
    assert all(c.rays in sub.id_by_key for c in fan.cones.values()
               if c.is_simplicial())
