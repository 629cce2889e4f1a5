"""Acceptance suite: eleven numbered criteria, one test each, printing one
PASS/FAIL line per criterion and, for a failing one, each sub-check that
failed with the value got and the value expected.

All tolerances are exact equality; every computation here is exact rational
or quadratic-field arithmetic, so no epsilons appear.  Expected values come
from the polytopes' combinatorics, never from the code under test:

- The face fan of a polytope P (cones over the faces of P, one ray per
  vertex) has the toric h-vector of P; for a 3-polytope with f0 vertices
  that is (1, f0-3, f0-3, 1).  The normal fan of P is the face fan of the
  polar of P, so the cube's face fan (f0 = 8) has (1, 5, 5, 1) while its
  normal fan, the octahedron's face fan (f0 = 6), has (1, 3, 3, 1).
- By the Hodge-Riemann relations the form <l x y> on IH^2 of a 3-fan has
  signature (h0, h1 - h0): l * IH^0 is positive and the primitive part of
  dimension h1 - h0 is negative.
"""

import random

import pytest

from ihfan.conewise import Polynomial
from ihfan.exactlin import rank, sc
from ihfan.fans import (PLFunction, is_strictly_convex, normal_fan,
                        product_fan)
from ihfan.ihsheaf import _section_spaces, build_distinguished_pair
from ihfan.cohomology import (EvaluationContext, ds_check, evaluate_fast,
                              hl_rank_report, hrm_check, kunneth_check,
                              pairing_matrix, profile_for_fan)
from conftest import cube_vertices, prism_vertices
from oracles import (ConewiseFunction, as_function, barycenter_sum_scaled,
                     dual_forms, evaluate, f_to_h, ideal_multiple,
                     polytope_face_lattice, profile_with_centers,
                     restrict_to_link, skew_product, toric_h_oracle)


def _report(num, name, checks):
    """Print the criterion's PASS/FAIL line and fail unless every sub-check
    holds; `checks` maps a sub-check label to its (got, expected) pair."""
    failed = [f"{label}: got {got!r}, expected {want!r}"
              for label, (got, want) in checks.items() if got != want]
    print(f"[criterion {num:02d}] {name}: {'FAIL' if failed else 'PASS'}")
    for line in failed:
        print(f"    {line}")
    assert not failed, f"criterion {num} ({name}) failed: " + \
        "; ".join(failed)


def _h_3polytope(f0):
    """Toric h-vector of a 3-polytope with f0 vertices, which is the
    h-vector of the polytope's face fan."""
    return (1, f0 - 3, f0 - 3, 1)


def _values_l(fan, values_by_ray):
    values = {}
    for rid in fan.ray_ids():
        values[rid] = sc(values_by_ray[fan.cones[rid].rays[0]])
    l = PLFunction.from_ray_values(fan, values)
    assert is_strictly_convex(fan, l)
    return l


def _uniform_l(fan):
    return _values_l(fan, {r: 1 for r in fan.rays()})


def _varied_l(fan):
    vals = {}
    for i, r in enumerate(sorted(fan.rays())):
        vals[r] = 1 + (i % 3)
    l = PLFunction.from_ray_values(
        fan, {rid: sc(vals[fan.cones[rid].rays[0]])
              for rid in fan.ray_ids()})
    if is_strictly_convex(fan, l):
        return l
    return None


def _shifted_l(fan, l):
    # positive rescaling plus a global linear form: a second strictly
    # convex function on fans whose deformation space is only that large
    g = tuple([sc(1)] + [sc(0)] * (fan.n - 1))
    per = {m: tuple(sc(2) * a + b for a, b in zip(l.per_max[m], g))
           for m in fan.maximal_ids}
    l2 = PLFunction(fan, per)
    assert is_strictly_convex(fan, l2)
    return l2


@pytest.fixture(scope="session")
def acceptance_suite(onedim_fan, quadrant_fan, orthant_fan,
                     cube_fan_support, prism_fan_support):
    cube_fan, cube_l = cube_fan_support
    prism_fan, prism_l = prism_fan_support
    prod = product_fan(onedim_fan, quadrant_fan)
    plus = next(m for m in onedim_fan.maximal_ids
                if onedim_fan.cones[m].rays[0] == (sc(1),))
    minus = next(m for m in onedim_fan.maximal_ids
                 if onedim_fan.cones[m].rays[0] == (sc(-1),))
    skew = skew_product(onedim_fan, onedim_fan,
                        {plus: ((1,),), minus: ((-1,),)})
    skew_l1 = _values_l(skew, {(sc(-1), sc(1)): 1, (sc(0), sc(-1)): 2,
                               (sc(0), sc(1)): 1, (sc(1), sc(1)): 2})
    skew_l2 = _values_l(skew, {(sc(-1), sc(1)): 3, (sc(0), sc(-1)): 1,
                               (sc(0), sc(1)): 1, (sc(1), sc(1)): 2})
    entries = [
        ("line", onedim_fan, [_uniform_l(onedim_fan),
                              _varied_l(onedim_fan)]),
        ("quadrants", quadrant_fan, [_uniform_l(quadrant_fan),
                                     _varied_l(quadrant_fan)]),
        ("orthants", orthant_fan, [_uniform_l(orthant_fan),
                                   _varied_l(orthant_fan)]),
        ("cube-face", cube_fan, [cube_l, _shifted_l(cube_fan, cube_l)]),
        ("prism-face", prism_fan, [prism_l, _shifted_l(prism_fan, prism_l)]),
        ("product", prod, [_uniform_l(prod), _varied_l(prod)]),
        ("skew", skew, [skew_l1, skew_l2]),
    ]
    out = []
    for name, fan, ls in entries:
        ls = [l for l in ls if l is not None]
        assert len(ls) >= 2
        assert ls[0].per_max != ls[1].per_max
        out.append((name, fan, ls))
    return out


def test_criterion_01_simplicial_baseline():
    fan, _ = normal_fan(cube_vertices())
    h = profile_for_fan(fan).h_vector()
    _report(1, "simplicial baseline", {
        "cube normal fan h": (h, (1, 3, 3, 1)),
        "f_to_h(8, 12, 6, 1)": (f_to_h((8, 12, 6, 1)), (1, 3, 3, 1)),
    })


def test_criterion_02_nonsimplicial_oracle(cube_fan, orthant_fan):
    # the cube's face fan is nonsimplicial (8 rays, 6 square cones); the
    # octahedron's face fan is the fan of orthants, the cube's normal fan
    cube_f0, octa_f0 = 8, 6
    octa = polytope_face_lattice([(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                  (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    cube = polytope_face_lattice(cube_vertices())
    _report(2, "nonsimplicial oracle", {
        "cube face fan h": (profile_for_fan(cube_fan).h_vector(),
                            _h_3polytope(cube_f0)),
        "cube lattice oracle": (toric_h_oracle(cube),
                                _h_3polytope(cube_f0)),
        "octahedron face fan h": (profile_for_fan(orthant_fan).h_vector(),
                                  _h_3polytope(octa_f0)),
        "octahedron lattice oracle": (toric_h_oracle(octa),
                                      _h_3polytope(octa_f0)),
    })


def test_corrected_02_face_fan_oracle_attribution(cube_fan, orthant_fan):
    # the lattice recursion over a polytope matches the face fan of that
    # same polytope: cube lattice <-> cube face fan, octahedron lattice <->
    # fan of orthants (which is the octahedron's face fan)
    cube_oracle = toric_h_oracle(polytope_face_lattice(cube_vertices()))
    octa_oracle = toric_h_oracle(polytope_face_lattice(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
         (0, 0, -1)]))
    assert profile_for_fan(cube_fan).h_vector() == cube_oracle == \
        (1, 5, 5, 1)
    assert profile_for_fan(orthant_fan).h_vector() == octa_oracle == \
        (1, 3, 3, 1)


def test_criterion_03_nonrational_prism(prism_fan_support):
    fan, l = prism_fan_support
    p = profile_for_fan(fan)
    f0 = 8  # a prism over a quadrilateral
    h = _h_3polytope(f0)
    pairing_error = None
    try:
        for d in range(0, 2 * fan.n + 1, 2):
            pairing_matrix(p, d)
    except ValueError as exc:
        pairing_error = str(exc)
    hl = hl_rank_report(p, l)
    rep = hrm_check(p, l)
    by_d = {r["d"]: r for r in rep.rows}
    _report(3, "nonrational prism", {
        "h": (p.h_vector(), h),
        "ds": (ds_check(p.h_vector()), True),
        "perfect pairing": (pairing_error, None),
        "HL ranks": ({d: got for d, (got, _) in hl.items()},
                     {d: want for d, (_, want) in hl.items()}),
        "signature on IH^2": (by_d[2]["signature"], (h[0], h[1] - h[0])),
        "definite": ({d: r["definite"] for d, r in by_d.items()},
                     {d: True for d in by_d}),
    })


def test_corrected_03_nonrational_prism(prism_fan_support):
    fan, l = prism_fan_support
    p = profile_for_fan(fan)
    verts, _ = prism_vertices()
    assert p.h_vector() == (1, 5, 5, 1) == \
        toric_h_oracle(polytope_face_lattice(verts))
    assert ds_check(p.h_vector())
    for d in range(0, 2 * fan.n + 1, 2):
        assert rank(pairing_matrix(p, d)) == p.h[d]
    hl = hl_rank_report(p, l)
    assert all(got == want for got, want in hl.values())
    rep = hrm_check(p, l)
    assert rep.ok
    assert {r["d"]: r for r in rep.rows}[2]["signature"] == (1, 4)


def test_criterion_04_duality_symmetry(acceptance_suite):
    checks = {}
    for name, fan, _ in acceptance_suite:
        h = profile_for_fan(fan).h_vector()
        checks[f"{name} h={h} symmetric"] = (ds_check(h), True)
    _report(4, "duality symmetry of dimensions", checks)


def test_criterion_05_hard_lefschetz(acceptance_suite):
    checks = {}
    for name, fan, ls in acceptance_suite:
        p = profile_for_fan(fan)
        for j, l in enumerate(ls):
            hl = hl_rank_report(p, l)
            for d, (got, want) in hl.items():
                if d < fan.n:
                    checks[f"{name} l{j} rank d={d}"] = (got, want)
    _report(5, "hard Lefschetz ranks", checks)


def test_criterion_06_signature_formula(acceptance_suite):
    checks = {}
    for name, fan, ls in acceptance_suite:
        p = profile_for_fan(fan)
        rep = hrm_check(p, ls[0])
        for r in rep.rows:
            checks[f"{name} signature d={r['d']}"] = (
                r["signature"], r["signature_expected"])
    _report(6, "quadratic form signature formula", checks)


def test_criterion_07_evaluation_contract(onedim_fan, quadrant_fan,
                                          orthant_fan, cube_fan):
    rng = random.Random(20240817)
    counts = [(onedim_fan, 10), (quadrant_fan, 120), (orthant_fan, 60),
              (cube_fan, 10)]
    errors = []
    mismatches = 0
    total = 0
    for fan, k in counts:
        pair = build_distinguished_pair(fan)
        ctx = EvaluationContext(pair)
        n = fan.n
        sp = _section_spaces(pair, [2 * n])[2 * n]
        for _ in range(k):
            vec = {}
            for b in sp.basis:
                c = sc(rng.randint(-9, 9))
                if not c:
                    continue
                for kk, v in b.items():
                    s = vec.get(kk, sc(0)) + c * v
                    if s:
                        vec[kk] = s
                    else:
                        vec.pop(kk, None)
            f = as_function(sp, vec)
            try:
                val = evaluate(pair, f)
            except ValueError as exc:
                errors.append(str(exc))
                break
            if val != evaluate_fast(ctx, f.per_max):
                mismatches += 1
            total += 1
    # the ideal pairs to zero against everything in the top grading
    ideal_nonzero = 0
    for fan in (quadrant_fan, orthant_fan):
        pair = build_distinguished_pair(fan)
        n = fan.n
        low, top = _section_spaces(pair, [2 * n - 2, 2 * n]).values()
        for b in low.basis:
            for i in range(n):
                f = as_function(top, ideal_multiple(low, b, i))
                if evaluate(pair, f) != sc(0):
                    ideal_nonzero += 1
    cpair = build_distinguished_pair(cube_fan)
    cctx = EvaluationContext(cpair)
    clow, ctop = _section_spaces(cpair, [4, 6]).values()
    for b in clow.basis:
        for i in range(3):
            f = ctop.materialize(ideal_multiple(clow, b, i))
            if evaluate_fast(cctx, f) != sc(0):
                ideal_nonzero += 1
    # each normalized facet-form product, extended by zero, evaluates to 1
    not_one = 0
    for fan in (quadrant_fan, orthant_fan):
        pair = build_distinguished_pair(fan)
        forms = dual_forms(pair)
        for m in pair.subdivided.maximal_ids:
            top = Polynomial.constant(fan.n, 1)
            for form in forms[m]:
                top = top.mul(Polynomial.from_linear(form))
            per = {k: (top if k == m else Polynomial(fan.n))
                   for k in pair.subdivided.maximal_ids}
            f = ConewiseFunction(pair.subdivided, 2 * fan.n, per)
            if evaluate(pair, f) != sc(1):
                not_one += 1
    _report(7, "evaluation functional contract", {
        "evaluate errors": (errors, []),
        "evaluate != evaluate_fast": (mismatches, 0),
        "sections evaluated": (total, 200),
        "ideal pairs nonzero": (ideal_nonzero, 0),
        "facet forms not evaluating to 1": (not_one, 0),
    })


def test_criterion_08_kunneth(onedim_fan, quadrant_fan, acceptance_suite):
    p1 = profile_for_fan(onedim_fan)
    pq = profile_for_fan(quadrant_fan)
    prod = next(fan for name, fan, _ in acceptance_suite
                if name == "product")
    skew = next(fan for name, fan, _ in acceptance_suite
                if name == "skew")
    triples = {
        "line x line": (p1, p1, profile_for_fan(product_fan(onedim_fan,
                                                            onedim_fan))),
        "line x quadrants": (p1, pq, profile_for_fan(prod)),
        "skew line x line": (p1, p1, profile_for_fan(skew)),
    }
    _report(8, "product dimension factorization", {
        f"{label} h={c.h_vector()}": (kunneth_check(
            a.h_vector(), b.h_vector(), c.h_vector()), True)
        for label, (a, b, c) in triples.items()})


def test_criterion_09_local_product(quadrant_fan, orthant_fan):
    checks = {}
    for name, fan, ray in (("quadrants", quadrant_fan, (sc(1), sc(0))),
                           ("orthants", orthant_fan,
                            (sc(1), sc(0), sc(0)))):
        p = profile_for_fan(fan)
        rid = next(c.id for c in fan.cones_of_dim(1) if c.rays[0] == ray)
        rep = restrict_to_link(p, rid)
        checks[f"{name} link of e1 (loc_prod, reduct, deg2)"] = (
            (rep.loc_prod_ok, rep.reduct_ok, rep.deg2_ok),
            (True, True, True))
    _report(9, "local product structure", checks)


def test_criterion_10_choice_independence(acceptance_suite):
    # the package's sup-norm centers against the coordinate-sum centers of
    # tests/oracles.py, which differ on every nonsimplicial fan here
    checks = {}
    for name, fan, ls in acceptance_suite:
        pd = profile_for_fan(fan)
        pa = profile_with_centers(fan, barycenter_sum_scaled)
        if not fan.is_simplicial():
            checks[f"{name} centers differ"] = (
                pd.pair.steps != pa.pair.steps, True)
        checks[f"{name} h sup-norm vs sum-scaled"] = (pd.h_vector(),
                                                      pa.h_vector())
        if pd.h_vector() != pa.h_vector():
            continue
        degrees = range(0, 2 * fan.n + 1, 2)
        checks[f"{name} pairing ranks sup-norm vs sum-scaled"] = (
            [rank(pairing_matrix(pd, d)) for d in degrees],
            [rank(pairing_matrix(pa, d)) for d in degrees])
        rd = hrm_check(pd, ls[0])
        ra = hrm_check(pa, ls[0])
        checks[f"{name} signatures sup-norm vs sum-scaled"] = (
            [r["signature"] for r in rd.rows],
            [r["signature"] for r in ra.rows])
    _report(10, "subdivision choice independence", checks)


def test_criterion_11_hilbert_freeness(acceptance_suite):
    from math import comb

    checks = {}
    for name, fan, _ in acceptance_suite:
        p = profile_for_fan(fan)
        n = fan.n
        for d in range(0, 2 * n + 1, 2):
            dim = len(p.spaces[d].basis)
            want = sum(h * comb((d - j) // 2 + n - 1, n - 1)
                       for j, h in p.h.items() if j <= d)
            checks[f"{name} section space dim d={d}"] = (dim, want)
    _report(11, "graded module freeness dimensions", checks)
