"""Reference routes the tests check the package against.  The package never
reaches them: each computes what the package computes by a different
road.

- The symbolic evaluation route (evaluate): the sum of f_sigma / phi_sigma
  over the maximal cones as exact rational functions, with every pole
  cancelled, at no chosen point.  The package evaluates at one generic
  point (cohomology.evaluate_fast, ihsheaf.GradedIH.lefschetz_gram).
- The continuity oracle (validate): two maximal cones' polynomials agree
  on their shared face when their difference has normal form 0 modulo the
  face's equations.  The package solves integer wall systems for its
  sections (ihsheaf._Sections).
- The polynomial route of evaluation (materialized_values): each
  representative materialized as one polynomial per piece and evaluated
  at the generic point.  The package reads a section's values off the
  frame coordinates of the point and the stalk generators' values there
  (ihsheaf.GradedIH._evaluate, as values_matrix collects them).
- The selection on full-length vectors (full_greedy, which offers the
  ideal multiples and then the basis vectors to independent_modp) and the
  module route of multiplication by a conewise linear function
  (module_step), which solves for classes over the spanning list that
  selection keeps.  The package reads its selection off the pivots of the
  multiples on the free columns, and Lefschetz maps off a Gram matrix.
- Sums of products as loops of Scalar products and sums (vdot_loop,
  poly_mul_loop, mul_loop, gram_loop), one reduction per operation.  The
  package clears each row, or each polynomial's coefficients, to ints,
  sums the products as Python ints and reduces once (exactlin.vdot,
  conewise.Polynomial.mul, Matrix.mul, exactlin.gram).  Keyed Scalars
  cleared to integer dicts (cleared) are exactlin._ints on a dict's
  values; the package zips _ints' lists with their keys where it reads
  them.
- Other subdivisions: a second center rule (barycenter_sum_scaled,
  profile_with_centers), each generator scaled to coordinate-sum 1 where
  that sum is positive, and the full flag complex (flag_subdivision,
  flag_pair), which centers every cone of dim >= 2, simplicial ones too.
  The package centers only the nonsimplicial cones, at the sup-norm
  barycenters (fans.barycentric_subdivision, fans.barycenter);
  intersection cohomology does not depend on the subdivision.
- The face-lattice recursion (f_to_h, polytope_face_lattice,
  toric_h_oracle): the toric h-vector of a polytope from its vertex sets
  alone.  The package's command line compares against the fan recursion
  (cohomology.toric_h_of_fan), which walks ray keys.
- The signature an h-vector predicts, as one loop over the gradings
  (expected_signature_loop), each step h_k - h_(k-1) added to the
  positive or negative count by k mod 2.  The package sums the even and
  odd entries of the g-vector (cohomology._expected_signature, through
  _g_from_h).
- Sections as conewise functions (ConewiseFunction, as_function,
  global_sections, primitive_basis), the form the continuity oracle and
  the symbolic route read.  The package keeps sections as coefficient
  vectors and per-piece polynomial dicts.
- The local structure of Karu's proof: closed stars and links
  (star_link), relative sections and relative cohomology
  (relative_bases, relative_sections, relative_ih), restriction to a
  link (restrict_to_link, with _mul_pl for the hat function) and the
  exact sequence of a closed star and its complement
  (exact_sequence_check).  The package builds absolute sections only;
  the relative ones are cut out of them here, each combination of the
  absolute basis whose polynomial on every boundary piece's owner
  reduces to zero modulo the piece's equations.
- Facts the package reads off data it holds, recomputed by elimination
  or geometry (solve, forms_by_solve, pointed_by_rank, locate,
  carriers_by_star_scan, projected_subdivision, tagged_inverse,
  lift_over_span): a conewise linear function's form on each maximal cone
  solved from its ray values, pointedness as the rank of a cone's
  equations and facet forms, a point's cone read off the maximal cones,
  each subdivided cone's carrier found in the star of its first ray's
  located carrier, a flattened boundary's subdivision as the projected
  keys of the pair's pieces, a square matrix's inverse and determinant
  from a Gauss-Jordan pass on [m | 1] that stops at the first dependent
  row, and a flattened facet's lift by inverting the projection on the
  facet's span.  The package reads the forms off each cone's dual basis
  (fans.PLFunction.from_ray_values), pointedness off the facet rows of
  the hull (fans.Cone.from_generators), a carrier off the flags of the
  subdivision, its coarse key or its top center's cone
  (ihsheaf.DistinguishedPair), a flattened subdivision off the same rule
  at the projected centers (fans.barycentric_subdivision in
  ihsheaf.flatten_boundary), an inverse off the dual basis of its rows
  (exactlin.inverse) and a lift off the cone's facet form
  (ihsheaf.flatten_boundary).
- Section columns joined across the actual walls (classes_by_wall_joins):
  a union-find over the columns, each wall between two simplicial
  carriers joining the columns of its sides with equal monomials in the
  wall's rays.  The package keys each simplicial carrier's column by its
  face-supported monomial (ihsheaf._classes).
- Polytope fans by the checked route (checked_polytope_fan): build_fan on
  each maximal cone's generators, which rebuilds every cone and checks
  the fan axioms, and a PLFunction that checks its forms on shared rays.
  The package hands the hull's cones and forms to Fan and PLFunction
  unchecked (fans.face_fan_with_support, fans.normal_fan).
- Fans as canonical JSON strings (canonical_json), equal exactly for
  equal fans.  The package keys its profile cache by the fan itself
  (fans.Fan.__eq__ and __hash__).
- Skew products (skew_product): the cones (graph of phi over sigma) +
  delta for a conewise linear map phi, through the checked fan builder.
  The package builds only the ordinary product, directly from the padded
  ray keys (fans.product_fan); along the zero map the two agree.
"""

import contextlib
import json
from math import comb

from ihfan import exactlin, fans
from ihfan.cohomology import (_g_from_h, _tminus1_pow, convolve_h,
                              profile_for_fan)
from ihfan.conewise import Polynomial, monomials
from ihfan.exactlin import (ONE, ZERO, Matrix, clear_rows, cleared_gram,
                            echelon_insert, gram, rank, sc, sparse_eliminate)
from ihfan.fans import (Fan, PLFunction, build_fan, canonical_direction, vadd,
                        vec, vscale)
from ihfan.ihsheaf import (GradedIH, _coordinate_forms, _frame,
                           _section_spaces, _times, build_distinguished_pair,
                           projection_along)


# -- polynomials -----------------------------------------------------------


def sub(p, q):
    """The polynomial p - q."""
    return p.add(Polynomial(q.n, {e: -c for e, c in q.coeffs.items()}))


def substitute_var(p, i, repl):
    """Replace x_i in p by the polynomial repl (in the same variables)."""
    out = Polynomial(p.n)
    for e, c in p.coeffs.items():
        base = list(e)
        base[i] = 0
        term = Polynomial(p.n, {tuple(base): c})
        for _ in range(e[i]):
            term = term.mul(repl)
        out = out.add(term)
    return out


def reduce_mod(p, equations):
    """Substitute away the pivot variables of an echelonized equation list
    [(pivot, row)] (rows normalized so row[pivot] = 1); the result is the
    canonical representative of p modulo the span's annihilator."""
    for piv, row in equations:
        if not any(e[piv] for e in p.coeffs):
            continue
        repl = {}
        for j, c in enumerate(row):
            if j != piv and c:
                e = [0] * p.n
                e[j] = 1
                repl[tuple(e)] = -c
        p = substitute_var(p, piv, Polynomial(p.n, repl))
    return p


def divide_by_linear(p, form):
    """Exact division of p by a linear form; None when not divisible."""
    j = next((i for i, c in enumerate(form) if c), None)
    if j is None:
        raise ValueError("division by the zero form")
    cj = form[j]
    q = Polynomial(p.n)
    rem = p
    while True:
        top = max((e[j] for e in rem.coeffs), default=0)
        if top == 0:
            break
        part = {}
        for e, c in rem.coeffs.items():
            if e[j] == top:
                e2 = list(e)
                e2[j] -= 1
                part[tuple(e2)] = c / cj
        piece = Polynomial(p.n, part)
        q = q.add(piece)
        rem = sub(rem, piece.mul(Polynomial.from_linear(form)))
    return None if rem else q


# -- the continuity oracle -------------------------------------------------


def meet_id(fan, a, b):
    """Id of the intersection of the cones a and b of a simplicial fan
    (their largest common face)."""
    key = tuple(sorted(set(fan.cones[a].rays) & set(fan.cones[b].rays)))
    return fan.id_by_key[key]


def validate(f):
    """Raise unless the conewise function f has one polynomial per maximal
    cone, each of degree grading/2, and any two agree on the shared face."""
    fan = f.fan
    if set(f.per_max) != set(fan.maximal_ids):
        raise ValueError("need exactly one polynomial per maximal cone")
    k = f.grading // 2
    for p in f.per_max.values():
        if p.n != fan.n:
            raise ValueError("wrong variable count")
        if p and p.degree() != k:
            raise ValueError("polynomial degree does not match grading")
    mx = fan.maximal_ids
    for i, a in enumerate(mx):
        for b in mx[i + 1:]:
            meet = fan.cones[meet_id(fan, a, b)]
            diff = sub(f.per_max[a], f.per_max[b])
            if reduce_mod(diff, meet.geometry().equations):
                raise ValueError(
                    "polynomials disagree on the shared face of cones "
                    f"{a} and {b}")


# -- the symbolic evaluation route -----------------------------------------


def dual_forms(pair):
    """Per maximal cone of the subdivision, its dual-basis facet forms with
    the first scaled by the cone's |det|: their wedge has determinant +-1
    in the input coordinates, and their product is the cone's phi."""
    sub_fan = pair.subdivided
    out = {}
    for m in sub_fan.maximal_ids:
        geom = sub_fan.cones[m].geometry()
        out[m] = (vscale(abs(geom.det), geom.duals[0]), *geom.duals[1:])
    return out


def _cancel(num, den):
    # one pass suffices: a form that does not divide num does not divide
    # num / g for any other form g either
    left = []
    for g in den:
        q = divide_by_linear(num, g)
        if q is None:
            left.append(g)
        else:
            num = q
    return num, left


def evaluate(pair, f):
    """The degree-2n evaluation functional on the pair's subdivision: the
    sum of f_sigma / phi_sigma over maximal cones as an exact rational
    function, summed along the dual graph; all poles must cancel.  Raises
    on residual poles (f was not a section of full grading)."""
    sub_fan = pair.subdivided
    n = pair.fan.n
    if f.grading != 2 * n:
        raise ValueError("evaluation is defined in grading 2n")
    forms = dual_forms(pair)
    adjacency = {m: [] for m in sub_fan.maximal_ids}
    for tid in pair.facet_piece_ids:
        owners = sub_fan.cofaces_of[tid]
        if len(owners) == 2:
            a, b = owners
            adjacency[a].append(b)
            adjacency[b].append(a)
    support = [m for m in sub_fan.maximal_ids if f.per_max[m]]
    sup_set = set(support)
    total = ZERO
    seen = set()
    for start in support:
        if start in seen:
            continue
        # breadth-first over the dual graph within the support
        comp = []
        queue = [start]
        seen.add(start)
        while queue:
            m = queue.pop(0)
            comp.append(m)
            for nb in sorted(adjacency[m]):
                if nb not in seen and nb in sup_set:
                    seen.add(nb)
                    queue.append(nb)
        num = Polynomial(n)
        den = []
        for m in comp:
            t_den = list(forms[m])
            prod_old = Polynomial.constant(n, 1)
            for g in den:
                prod_old = prod_old.mul(Polynomial.from_linear(g))
            prod_new = Polynomial.constant(n, 1)
            for g in t_den:
                prod_new = prod_new.mul(Polynomial.from_linear(g))
            num = num.mul(prod_new).add(f.per_max[m].mul(prod_old))
            den = den + t_den
            num, den = _cancel(num, den)
        if den:
            raise ValueError("residual poles: the input is not a global "
                             "section of grading 2n")
        total = total + num.coeffs.get(tuple([0] * n), ZERO)
    return total


# -- the polynomial route of evaluation -------------------------------------


def values_matrix(gih, d):
    """The values of the grading-d representatives of gih at the evaluation
    point as the package computes them (GradedIH._evaluate), as a Matrix
    with a row per representative and a column per subdivided maximal cone
    in the order of the context's inv_phi_z: the rows GradedIH clears once
    for its Grams."""
    ctx = gih.context()
    return Matrix([gih._evaluate(v, ctx) for v in gih.comps[d]],
                  ncols=len(ctx.inv_phi_z))


def materialized_values(gih, d):
    """The values of the grading-d representatives of gih at the evaluation
    point, a tuple of rows (one per representative) with an entry per
    subdivided maximal cone in the order of the context's inv_phi_z: each
    representative's polynomial on the piece, evaluated there."""
    ctx = gih.context()
    sp = gih.spaces[d]
    rows = []
    for v in gih.comps[d]:
        polys = sp.materialize(v)
        rows.append(tuple(polys[m].evaluate(ctx.z) for m in ctx.inv_phi_z))
    return tuple(rows)


# -- the module route ------------------------------------------------------


def multiple(sp, b, forms):
    """The coefficient vector of l * b, for b a coefficient vector of the
    section space sp (keys (maximal cone, generator, exponent)) and l the
    ambient linear form forms[mid] on each maximal cone mid.  On a
    simplicial carrier it is read off b's materialized polynomial: that
    polynomial times l, written in the dual forms of the carrier's rays by
    substituting x = sum_rho y_rho v_rho.  On any other carrier each
    exponent of b goes up by one in each variable of l."""
    pair = sp.pair
    fan = pair.fan
    polys = sp.materialize(b)
    out = {}
    for (mid, j, e), c in b.items():
        if fan.cones[mid].is_simplicial():
            continue
        for i, li in enumerate(forms[mid]):
            if li:
                k = (mid, j, e[:i] + (e[i] + 1,) + e[i + 1:])
                out[k] = out.get(k, ZERO) + li * c
    for mid in fan.maximal_ids:
        cone = fan.cones[mid]
        if cone.is_simplicial():
            p = polys[pair.pieces[mid][0]].mul(
                Polynomial.from_linear(forms[mid]))
            for e, c in p.compose(list(zip(*cone.rays))).coeffs.items():
                out[(mid, 0, e)] = c
    return {k: c for k, c in out.items() if c}


def ideal_multiple(sp, b, i):
    """The coefficient vector of x_i * b, for b a coefficient vector of the
    section space sp (see multiple)."""
    n = sp.pair.fan.n
    unit = tuple(ONE if j == i else ZERO for j in range(n))
    return multiple(sp, b, {mid: unit for mid in sp.pair.fan.maximal_ids})


def cleared(vec):
    """(A, B, den): integer dicts with vec = (A + B*sqrt(m)) / den, den > 0,
    without their zero entries; B is empty over Q: exactlin._ints on vec's
    values.  Scaling a vector changes neither its independence nor the kernel of a
    row system, and no denominator is left for p to divide."""
    a, b, den, _ = exactlin._ints(vec.values())
    return ({k: x for k, x in zip(vec, a) if x},
            {k: x for k, x in zip(vec, b or ()) if x}, den)


def independent_modp(vectors):
    """Indices of the sparse vectors independent of those before them modulo
    the first prime for their field, each cleared of denominators first.
    Independence mod p implies independence, so they are independent, and
    they are all of the exact greedy choice's when their number is the
    rank."""
    p, ts = next(iter(exactlin._embeddings(exactlin.radicand(
        x.m for v in vectors for x in v.values()))))
    ech = {}
    out = []
    for i, v in enumerate(vectors):
        a_part, b_part, _ = cleared(v) if v else ({}, {}, 1)
        r = exactlin._image(a_part, b_part, ts[0], p)
        if r and exactlin.echelon_insert_modp(ech, r, p) is not None:
            out.append(i)
    return out


def full_greedy(gih, d):
    """The selection on full-length vectors: the ideal multiples x_i * b
    (b in the grading-(d-2) basis), then the section basis, each kept when
    independent mod p of those kept before it; (spanning, comps)."""
    low = gih.spaces.get(d - 2)
    multiples = [ideal_multiple(low, b, i) for b in (low.basis if low else ())
                 for i in range(gih.pair.fan.n)]
    cands = [*multiples, *gih.spaces[d].basis]
    kept = independent_modp(cands)
    return ([cands[i] for i in kept],
            [cands[i] for i in kept if i >= len(multiples)])


def module_step(gih, d, l):
    """Matrix of multiplication by l from the grading-d classes to the
    grading-(d+2) classes, by the module route: multiply the
    representatives' coefficient vectors, solve for each image over the
    spanning list of grading d+2, and keep its coordinates on the
    representatives."""
    spanning, comps = full_greedy(gih, d + 2)
    assert comps == gih.comps[d + 2]
    images = [multiple(gih.spaces[d], c, l.per_max) for c in gih.comps[d]]
    keys = list(dict.fromkeys(k for v in spanning + images for k in v))
    mat = Matrix([[v.get(k, ZERO) for v in spanning] for k in keys],
                 ncols=len(spanning))
    base = len(spanning) - len(comps)
    cols = []
    for img in images:
        x = solve(mat, [img.get(k, ZERO) for k in keys])
        if x is None:
            raise ValueError("an image is not a section")
        cols.append(x[base:])
    return Matrix([[col[i] for col in cols] for i in range(len(comps))],
                  ncols=len(cols))


# -- sums of products as Scalar loops -----------------------------------------


def vdot_loop(u, v):
    """sum_k u[k] * v[k] over zip's length, one Scalar product and sum at a
    time."""
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def poly_mul_loop(p, q):
    """The product of two Polynomials, one Scalar product and sum per pair
    of terms."""
    out = {}
    for e1, c1 in p.coeffs.items():
        for e2, c2 in q.coeffs.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return Polynomial(p.n, out)


def mul_loop(a, b):
    """The Matrix product a . b, row by column in Scalar loops."""
    rows = []
    for r in a.entries:
        out = []
        for j in range(b.ncols):
            acc = ZERO
            for k, x in enumerate(r):
                if x:
                    acc = acc + x * b.entries[k][j]
            out.append(acc)
        rows.append(out)
    return Matrix(rows, ncols=b.ncols)


def gram_loop(left, weights, right):
    """Matrix of sum_k left[i][k] * weights[k] * right[j][k] for Matrices
    left and right: the rows of left scaled by the weights, times the
    transpose of right (mul_loop)."""
    scaled = Matrix([[x * w if x else ZERO for x, w in zip(r, weights)]
                     for r in left.entries], ncols=left.ncols)
    return mul_loop(scaled, right.transpose())


# -- facts the package reads off, recomputed ---------------------------------


def solve(m, rhs):
    """One exact solution of m x = rhs with free variables set to zero, or
    None when the system is inconsistent."""
    if len(rhs) != m.nrows:
        raise ValueError("right-hand side length does not match row count")
    sent = m.ncols  # extra column carrying the right-hand side
    ech = {}
    for r, b in zip(m.entries, rhs):
        d = {j: x for j, x in enumerate(r) if x}
        b = sc(b)
        if b:
            d[sent] = -b
        echelon_insert(ech, d)
    if sent in ech:
        return None
    x = [ZERO] * m.ncols
    for c, row in ech.items():
        v = row.get(sent)
        if v:
            x[c] = -v
    return tuple(x)


def forms_by_solve(fan, values):
    """{maximal cone id: the form solve gives for its ray values, or None
    when there is none}, values as PLFunction.from_ray_values takes them."""
    rid = {fan.cones[i].rays[0]: i for i in fan.ray_ids()}
    return {m: solve(Matrix(fan.cones[m].rays, ncols=fan.n),
                     [values[rid[r]] for r in fan.cones[m].rays])
            for m in fan.maximal_ids}


def pointed_by_rank(gens, n):
    """Whether the cone the generators span is pointed: whether its
    equations and facet forms span the dual space."""
    g = fans.cone_geometry(tuple(sorted({canonical_direction(vec(x))
                                         for x in gens})), n)
    rows = [row for _, row in g.equations] + list(g.facet_forms)
    return rank(Matrix(rows, ncols=n)) == n


def locate(fan, x):
    """Id of the cone of the fan whose relative interior holds x, or None
    outside the support, read off the first maximal cone holding x
    (fans.Fan.face_at)."""
    found = (fan.face_at(m, x) for m in fan.maximal_ids)
    return next((cid for cid in found if cid is not None), None)


def carriers_by_star_scan(pair):
    """{subdivided cone id: carrier} by the star rule alone: a ray's
    carrier is its own coarse cone or the located one, and any other
    cone's is the smallest coarse cone in the star of its first ray's
    carrier that has all its rays' carriers as faces."""
    fan, sub = pair.fan, pair.subdivided
    out = {}
    for tid in sorted(sub.cones):
        tc = sub.cones[tid]
        if tc.dim <= 1:
            car = fan.id_by_key.get(tc.rays)
            if car is None:
                car = locate(fan, tc.rays[0])
        else:
            ray_cars = {out[f] for f in sub.faces_of[tid]
                        if sub.cones[f].dim == 1}
            car = min(c for c in fan.star_ids(min(ray_cars))
                      if ray_cars.issubset(fan.faces_of[c] + (c,)))
        out[tid] = car
    return out


def projected_subdivision(pair, cid, v):
    """The subdivision of the boundary of the nonsimplicial cone cid,
    flattened along v, as the key projection of the pair's own: each piece
    of a facet of the cone, its rays projected along v (projection_along),
    spans one maximal cone.  The package subdivides the flattened fan at
    the projected centers (ihsheaf.flatten_boundary)."""
    fan, sub = pair.fan, pair.subdivided
    cone = fan.cones[cid]
    proj, _ = projection_along(
        v, fan.n, [cone.rays[i] for i in cone.geometry().basis])
    m = cone.dim - 1
    return Fan(m, fan.field, [
        tuple(sorted(canonical_direction(proj.apply(r))
                     for r in sub.cones[pid].rays))
        for f in fan.faces_of[cid] if fan.cones[f].dim == m
        for pid in pair.pieces[f]], check=False)


def classes_by_wall_joins(pair, cols):
    """The classes of one grading's section columns cols, (mid, j, e) in
    the order of ihsheaf._Sections, by a union-find over them: each wall
    piece whose two owners have different simplicial carriers joins the
    columns of both carriers that carry the same monomial in the rays of
    the coarse wall (its carrier).  As ihsheaf._classes returns them, each
    class lists its column indices in ascending order, and the classes
    come in the order of their largest members."""
    fan, sub, n = pair.fan, pair.subdivided, pair.fan.n
    index = {col: i for i, col in enumerate(cols)}
    k = max((sum(e) for mid, _, e in cols
             if fan.cones[mid].is_simplicial()), default=0)
    parent = list(range(len(cols)))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for tid in pair.facet_piece_ids:
        cones = [fan.cones[pair.carrier[hat]] for hat in sub.cofaces_of[tid]]
        if len(cones) != 2 or cones[0] is cones[1] or \
                not all(c.is_simplicial() for c in cones):
            continue
        wall = fan.cones[pair.carrier[tid]].rays
        for mono in monomials(n - 1, k):
            on = dict(zip(wall, mono))
            a, b = (root(index[(c.id, 0, tuple(on.get(r, 0) for r in c.rays))])
                    for c in cones)
            parent[max(a, b)] = min(a, b)
    members = {}
    for c in range(len(cols)):
        members.setdefault(root(c), []).append(c)
    return sorted(members.values(), key=lambda ms: ms[-1])


def tagged_inverse(m):
    """(inverse, determinant) of a square matrix from one Gauss-Jordan
    elimination on [m | 1]; raises ValueError when the matrix is singular.
    The determinant is the product of the pivot values times the sign of
    the permutation taking each row to its pivot column."""
    n = m.nrows
    if m.ncols != n:
        raise ValueError("square matrix needed")
    ech = {}
    cols = []
    d = ONE
    for i, r in enumerate(m.entries):
        row = {j: x for j, x in enumerate(r) if x}
        row[n + i] = ONE
        c, piv = echelon_insert(ech, row)
        if c >= n:
            # the row's part in m lies in the span of the rows before it
            raise ValueError("matrix is singular")
        cols.append(c)
        d = d * piv
    if sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:]) % 2:
        d = -d
    inv = Matrix([[ech[c].get(n + j, ZERO) for j in range(n)]
                  for c in range(n)], ncols=n)
    return inv, d


def checked_polytope_fan(vertices, kind, field=None):
    """(fan, support function) of conv(vertices), kind "face" or "normal",
    as fans.face_fan_with_support and fans.normal_fan give them, built from
    the same hull by build_fan and a checked PLFunction."""
    vertices = [vec(v) for v in vertices]
    n = len(vertices[0])
    facets, forms = fans._lifted_hull_facets(vertices, n)
    if kind == "face":
        if any(c.sign() <= 0 for _, c in forms):
            raise ValueError("origin is not interior")
        rays = [canonical_direction(v) for v in vertices]
        gen_sets = [[rays[i] for i in idxs] for idxs in facets]
        values = [vscale(c.inverse(), beta) for beta, c in forms]
    else:
        hull_vertices = sorted({i for idxs in facets for i in idxs})
        normals = [canonical_direction(beta) for beta, _ in forms]
        gen_sets = [[normals[k] for k, idxs in enumerate(facets)
                     if vi in idxs] for vi in hull_vertices]
        values = [vertices[vi] for vi in hull_vertices]
    fan = build_fan(n, gen_sets, field=field)
    per_max = {fan.id_by_key[tuple(sorted(gens))]: v
               for gens, v in zip(gen_sets, values)}
    return fan, PLFunction(fan, per_max)


def canonical_json(fan):
    """The fan's JSON form as one string with sorted keys and no spaces:
    its rays in id order and its maximal cones as sorted index lists, so
    two fans give the same string exactly when they are equal."""
    return json.dumps(fan.to_json_dict(), sort_keys=True,
                      separators=(",", ":"))


# -- other subdivisions -----------------------------------------------------


def barycenter_sum_scaled(cone):
    """Sum of the generators, each scaled to coordinate-sum 1 when that sum
    is positive, else to unit sup-norm."""
    total = None
    for g in cone.rays:
        s = sum(g, ZERO)
        m = s if s.sign() > 0 else max(abs(x) for x in g)
        g = vscale(m.inverse(), g)
        total = g if total is None else vadd(total, g)
    return total


def flag_subdivision(fan, choice=None):
    """The full barycentric subdivision, the flag complex of the fan: a
    center (choice, default fans.barycenter) in the relative interior of
    every cone of dim >= 2, simplicial or not, by decreasing dimension and
    then id, and one maximal cone per flag rho < tau_2 < ... < sigma, each
    cone a facet of the next and sigma maximal, spanned by the ray rho and
    the centers of tau_2, ..., sigma.  Returns (subdivided fan, steps) in
    the form of fans.barycentric_subdivision, which centers only the
    nonsimplicial cones."""
    choice = choice or fans.barycenter
    steps = []
    center_ray = {}
    for c in sorted((c for c in fan.cones.values() if c.dim >= 2),
                    key=lambda c: (-c.dim, c.id)):
        v = vec(choice(c))
        if fan.face_at(fan.star_ids(c.id)[-1], v) != c.id:
            raise ValueError("a subdivision center is not in the relative "
                             "interior of its cone")
        steps.append((v, c.rays))
        center_ray[c.id] = canonical_direction(v)
    if not steps:
        return fan, ()
    flags = {}
    for cid, c in fan.cones.items():
        if c.dim <= 1:
            flags[cid] = [c.rays]
        else:
            flags[cid] = [flag + (center_ray[cid],)
                          for f in fan.faces_of[cid]
                          if fan.cones[f].dim == c.dim - 1
                          for flag in flags[f]]
    keys = [tuple(sorted(flag)) for m in fan.maximal_ids for flag in flags[m]]
    return Fan(fan.n, fan.field, keys, check=False), tuple(steps)


@contextlib.contextmanager
def flag_rule():
    """flag_subdivision in place of fans.barycentric_subdivision while the
    block runs, so every pair the package builds there, the flattened
    boundaries included, is subdivided into its flag complex."""
    kept = fans.barycentric_subdivision
    fans.barycentric_subdivision = flag_subdivision
    try:
        yield
    finally:
        fans.barycentric_subdivision = kept


def flag_pair(fan):
    """The fan's distinguished pair built (build_distinguished_pair) on its
    flag complex (flag_subdivision) in place of the package's subdivision,
    so its flattened boundaries carry the flag complex's pieces too."""
    with flag_rule():
        return build_distinguished_pair(fan)


def profile_with_centers(fan, barycenter):
    """The GradedIH of the fan's distinguished pair, built (past the
    profile cache) with barycenter in place of fans.barycenter."""
    kept = fans.barycenter
    fans.barycenter = barycenter
    try:
        return GradedIH(build_distinguished_pair(fan))
    finally:
        fans.barycenter = kept


# -- the face-lattice oracle -------------------------------------------------


def f_to_h(face_counts):
    """h-vector of a simple polytope from its face counts (f_0, ..., f_n);
    f_n = 1 is the polytope itself."""
    f = tuple(int(c) for c in face_counts)
    if not f or f[-1] != 1:
        raise ValueError("face counts must end with the polytope itself (1)")
    n = len(f) - 1
    h = []
    for k in range(n + 1):
        s = 0
        for i in range(k, n + 1):
            s += f[i] * (-1) ** (i - k) * comb(i, k)
        h.append(s)
    return tuple(h)


class FaceLattice:
    """Graded face lattice of a polytope: elements are (dim, vertex set),
    with the empty face at dim -1 and the polytope itself on top."""

    __slots__ = ("dim", "faces")

    def __init__(self, dim, faces):
        self.dim = dim
        self.faces = tuple(sorted((d, frozenset(s)) for d, s in faces))

    def proper_faces_of(self, elem):
        d, s = elem
        return [(d2, s2) for d2, s2 in self.faces if s2 < s]

    def top(self):
        return max(self.faces)


def polytope_face_lattice(vertices, field=None):
    """Face lattice from the vertex list, via the cone over the lifted
    polytope."""
    pts = [fans.vec(v) for v in vertices]
    if not pts:
        raise ValueError("need at least one vertex")
    n = len(pts[0])
    lifted = [tuple(list(p) + [ONE]) for p in pts]
    cone = fans.Cone.from_generators(lifted, n + 1)
    back = {}
    for i, w in enumerate(lifted):
        back[canonical_direction(w)] = i
    lattice = Fan(n + 1, field, [cone.rays], check=False)
    faces = [(c.dim - 1, frozenset(back[r] for r in c.rays))
             for c in lattice.cones.values()]
    return FaceLattice(cone.dim - 1, faces)


def _check_graded(lattice):
    faces = lattice.faces
    bottoms = [f for f in faces if f[0] == -1]
    if len(bottoms) != 1 or bottoms[0][1]:
        raise ValueError("face lattice is not graded: missing empty face")
    top = lattice.top()
    if any(not (s <= top[1]) for _, s in faces):
        raise ValueError("face lattice is not graded: no unique top")
    for da, sa in faces:
        covers = [(db, sb) for db, sb in faces
                  if sa < sb and not any(sa < sm < sb for _, sm in faces)]
        for db, _ in covers:
            if db != da + 1:
                raise ValueError("face lattice is not graded")


def toric_h_oracle(lattice):
    """Generalized h-vector by the lattice recursion
    h(P, t) = sum over proper faces F of g(F, t) (t-1)^(dim P - 1 - dim F),
    with g the half-degree difference truncation of h.  Matches the
    classical h for simplicial polytopes."""
    _check_graded(lattice)
    memo = {}

    def h_of(elem):
        if elem in memo:
            return memo[elem]
        d, _ = elem
        if d == -1:
            memo[elem] = [1]
            return memo[elem]
        acc = [0] * (d + 1)
        for f in lattice.proper_faces_of(elem):
            term = convolve_h(_g_from_h(h_of(f), f[0]),
                              _tminus1_pow(d - 1 - f[0]))
            for i, c in enumerate(term):
                acc[i] += c
        memo[elem] = acc
        return acc

    top = lattice.top()
    h = h_of(top)
    if len(h) != lattice.dim + 1:
        raise ValueError("face lattice dimensions are inconsistent")
    return tuple(h)


def expected_signature_loop(h, d):
    """The signature (p, q) the h-vector h predicts on IH^d for an even d:
    each step h_(j/2) - h_(j/2 - 1) over the even j <= d counts to p when
    4 divides j, to q otherwise."""
    p = q = 0
    for j in range(0, d + 1, 2):
        step = h[j // 2] - (h[j // 2 - 1] if j >= 2 else 0)
        if j % 4 == 0:
            p += step
        else:
            q += step
    return (p, q)


# -- sections as conewise functions ------------------------------------------


class ConewiseFunction:
    """Per-maximal-cone polynomials on a simplicial fan, homogeneous of
    degree grading/2 and compatible on shared faces (validate checks
    that)."""

    __slots__ = ("fan", "grading", "per_max")

    def __init__(self, fan, grading, per_max):
        if grading % 2:
            raise ValueError("grading must be even")
        self.fan = fan
        self.grading = grading
        self.per_max = dict(per_max)


def as_function(sp, vecm):
    """The coefficient vector vecm of the section space sp as a conewise
    function on its pair's subdivision.  The grading is read off the
    space's first column (mid, j, e), y^e times the j-th stalk generator
    of the carrier mid: that generator's grading plus 2|e|."""
    mid, j, e = sp.cols[0]
    return ConewiseFunction(sp.pair.subdivided,
                            sp.pair.stalks[mid][j][0] + 2 * sum(e),
                            sp.materialize(vecm))


def global_sections(pair, cap=None):
    """Graded bases of the section spaces, as conewise functions on the
    subdivided fan; gradings 0, 2, ..., cap (default twice the ambient
    dimension)."""
    cap = 2 * pair.fan.n if cap is None else cap
    return {d: [as_function(sp, v) for v in sp.basis] for d, sp in
            _section_spaces(pair, range(0, cap + 1, 2)).items()}


def primitive_basis(profile, l, d):
    """Sections representing the kernel of one Lefschetz power beyond the
    pairing one (grading d -> 2n-d+2): the primitive coordinates of
    GradedIH.hodge_riemann, summed over the representatives' vectors one
    Scalar product at a time."""
    if d % 2 or d < 0 or d > profile.pair.fan.n:
        raise ValueError("primitive spaces live in even gradings <= n")
    out = []
    for coords in profile.hodge_riemann(l, d)[1]:
        vecm = {}
        for c, comp in zip(coords, profile.comps[d]):
            for k, x in comp.items():
                vecm[k] = vecm.get(k, ZERO) + c * x
        out.append(as_function(profile.spaces[d], vecm))
    return out


# -- stars, links and relative sections ---------------------------------------


def subfan(fan, cone_ids):
    """The fan of the listed cones of fan and their faces; only the listed
    cones that are no other's faces need a geometry."""
    ids = set(cone_ids)
    keys = [fan.cones[i].rays for i in ids
            if ids.isdisjoint(fan.cofaces_of[i])]
    return Fan(fan.n, fan.field, keys, check=False)


def star_link(fan, cid):
    """(Star as a tuple of cone ids, closed star as a Fan, link as a Fan)."""
    if cid not in fan.cones:
        raise ValueError(f"cone {cid} not in fan")
    star = fan.star_ids(cid)
    closed = subfan(fan, star)
    srays = set(fan.cones[cid].rays)
    link_ids = []
    for did in star:
        for f in (did,) + fan.faces_of[did]:
            if not (set(fan.cones[f].rays) & srays):
                link_ids.append(f)
    link = subfan(fan, sorted(set(link_ids)))
    return star, closed, link


def boundary_facet_ids(fan):
    """(n-1)-cones lying in exactly one maximal cone, themselves included
    when maximal: those with at most one coface; empty for complete
    fans."""
    return [c.id for c in fan.cones_of_dim(fan.n - 1)
            if len(fan.cofaces_of[c.id]) <= 1]


def boundary_piece_ids(pair):
    """The facet pieces of the pair's subdivision with one owner."""
    return frozenset(t for t in pair.facet_piece_ids
                     if len(pair.subdivided.cofaces_of[t]) == 1)


def relative_bases(pair, boundary=None, cap=None):
    """{d: basis} of the sections of gradings 0, 2, ..., cap (default 2n)
    that vanish on the boundary pieces (boundary: coarse (n-1)-cone ids
    whose pieces are boundary pieces, default every boundary piece), in
    the column coordinates of the absolute section spaces.  A combination of the
    absolute basis vanishes on a piece when its polynomial on the piece's
    owner reduces to zero modulo the piece's equations (reduce_mod); the
    combinations that do are one exact kernel per grading."""
    fan, sub = pair.fan, pair.subdivided
    cap = 2 * fan.n if cap is None else cap
    pieces = boundary_piece_ids(pair)
    if boundary is not None:
        allowed = set()
        for cid in boundary:
            if fan.cones[cid].dim != fan.n - 1:
                raise ValueError("boundary cones must have codimension 1")
            allowed.update(pair.pieces[cid])
        if not allowed <= pieces:
            raise ValueError("listed cones are not boundary cones")
        pieces = allowed
    bases = {}
    for d, sp in _section_spaces(pair, range(0, cap + 1, 2)).items():
        polys = [sp.materialize(b) for b in sp.basis]
        rows = {}
        for t in sorted(pieces):
            owner = sub.cofaces_of[t][0]
            eqs = sub.cones[t].geometry().equations
            for i, per in enumerate(polys):
                for e, c in reduce_mod(per[owner], eqs).coeffs.items():
                    rows.setdefault((t, e), {})[i] = c
        bases[d] = []
        for w in exactlin._kernel_exact(list(rows.values()), len(polys)):
            vec = {}
            for i, c in w.items():
                for k, x in sp.basis[i].items():
                    vec[k] = vec.get(k, ZERO) + c * x
            bases[d].append({k: x for k, x in vec.items() if x})
    return bases


def relative_sections(pair, boundary=None, cap=None):
    """Graded bases of the sections vanishing on the boundary subfan, as
    conewise functions (see relative_bases)."""
    bases = relative_bases(pair, boundary, cap)
    spaces = _section_spaces(pair, list(bases))
    return {d: [as_function(spaces[d], v) for v in basis]
            for d, basis in bases.items()}


class _EveryColumn:
    """The mapping that keys every column by itself (see ihsheaf._times)."""

    @staticmethod
    def get(column):
        return column


EVERY_COLUMN = _EveryColumn()


def unit_vectors(n):
    """The unit vectors of R^n, the span projection_along projects in."""
    return [tuple(ONE if j == i else ZERO for j in range(n))
            for i in range(n)]


def lift_over_span(proj, rays, n):
    """Rows of the section of the projection Matrix proj over span(rays),
    a span on which proj is one-to-one onto the quotient (a facet of the
    flattened cone): bt (proj bt)^-1 for bt the rays independent of those
    before them as columns, an (ambient x quotient) matrix with
    proj . lift = identity."""
    ech = {}
    basis = [r for r in rays
             if echelon_insert(ech, dict(enumerate(r))) is not None]
    bt = Matrix(basis, ncols=n).transpose()
    return bt.mul(exactlin.inverse(proj.mul(bt))).entries


def relative_ih(pair, cap=None):
    """(bases, h) of the cohomology relative to the whole boundary:
    relative_bases, and h[d] the number of grading-d basis vectors less the
    rank of the ideal multiples x_i * b of the grading-(d-2) ones."""
    bases = relative_bases(pair, cap=cap)
    forms = _coordinate_forms(pair.fan)
    n = pair.fan.n
    h = {d: len(basis) - len(sparse_eliminate(
        [x for b in bases.get(d - 2, ())
         for x in _times(b, forms, n, EVERY_COLUMN)]))
        for d, basis in bases.items()}
    return bases, h


def _mul_pl(vecm, l):
    """The product of a coefficient vector of a section space of a pair on
    l's fan with the conewise linear function l (see ihsheaf._times)."""
    forms = {}
    for mid, form in l.per_max.items():
        _, vectors = _frame(l.fan.cones[mid].rays, l.fan.n)
        forms[mid] = [[(0, x)] if x else []
                      for x in gram((form,), vectors).entries[0]]
    return _times(vecm, forms, 1, EVERY_COLUMN)[0]


class LinkReport:
    __slots__ = ("lam_fan", "lam_h", "star_h", "constant", "loc_prod_ok",
                 "reduct_ok", "deg2_ok")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def ok(self):
        return self.loc_prod_ok and self.reduct_ok and self.deg2_ok


def restrict_to_link(profile, ray_cid):
    """Restriction of cohomology classes to the flattened link of a ray,
    with the three local-structure checks: the closed star has the link's
    graded dimensions; the hat-function pairing factors through the link
    with the constant 1/|det(v_rho, b)|; and hat multiplication into
    relative cohomology of the star has full rank (each image is a relative
    section, and the images independent of the relative ideal multiples
    number h_d of the star, which is h_(d+2) of the relative star).
    Classes restrict along b^T, for (proj, b) from projection_along: the
    one section of proj with image ker x, x the covector it projects along,
    so that the terms with x vanish in cohomology.

    Implemented for simplicial fans (the hat function needs free ray
    values)."""
    fan = profile.pair.fan
    n = fan.n
    if not fan.is_simplicial():
        raise ValueError("link restriction needs a simplicial fan")
    ray = fan.cones[ray_cid]
    if ray.dim != 1:
        raise ValueError("link restriction starts from a ray")
    vrho = ray.rays[0]
    for m in fan.cofaces_of[ray_cid]:
        c = fan.cones[m]
        comp = tuple(sorted(set(c.rays) - {vrho}))
        if comp not in fan.id_by_key or \
                fan.cones[fan.id_by_key[comp]].dim + 1 != c.dim:
            raise ValueError("no local product structure at the ray")
    values = {rid: (ONE if rid == ray_cid else ZERO)
              for rid in fan.ray_ids()}
    hat = PLFunction.from_ray_values(fan, values)
    _, closed, link = star_link(fan, ray_cid)
    proj, b = projection_along(vrho, n, unit_vectors(n))
    key_to_lam = {c.rays: tuple(sorted(canonical_direction(proj.apply(r))
                                       for r in c.rays))
                  for c in link.cones.values() if c.dim == n - 1}
    lam_fan = Fan(n - 1, fan.field, list(key_to_lam.values()), check=False)
    lam_profile = profile_for_fan(lam_fan)
    star_pair = build_distinguished_pair(closed)
    star_abs = GradedIH(star_pair)
    star_h = star_abs.h_vector()
    lam_h = lam_profile.h_vector()
    # the ray factor of the product only contributes in grading 0, so the
    # star profile is the link profile padded with zeros on top
    width = max(len(star_h), len(lam_h))

    def pad(h):
        return tuple(h) + (0,) * (width - len(h))

    loc_prod_ok = pad(star_h) == pad(lam_h)

    # <a . hat . c> against <a|link . c|link> for representatives a, c of
    # complementary gradings, as two Gram matrices.  A representative
    # restricted to the link is, on a link cone, its polynomial on the cone
    # plus rho composed with b^T, so its value at the link's generic point
    # z is that polynomial's value at b^T z
    lam_ctx = lam_profile.context()
    z = gram((lam_ctx.z,), zip(*b)).entries[0]
    star_of = {lam_fan.id_by_key[pk]:
               fan.id_by_key[tuple(sorted(set(rays) | {vrho}))]
               for rays, pk in key_to_lam.items()}
    cones = [star_of[m] for m in lam_ctx.inv_phi_z]
    m2 = 2 * (n - 1)
    restricted = {d: [[polys[cone].evaluate(z) for cone in cones]
                      for polys in profile.rep_polys(d)]
                  for d in range(0, m2 + 1, 2)}
    weights = list(lam_ctx.inv_phi_z.values())
    constant = None
    reduct_ok = True
    for d in range(0, m2 + 1, 2):
        lhs = profile.lefschetz_gram(hat, d, m2 - d)
        rhs = cleared_gram(clear_rows(restricted[d]), weights,
                           clear_rows(restricted[m2 - d]))
        for lrow, rrow in zip(lhs.entries, rhs.entries):
            for x, y in zip(lrow, rrow):
                if not y:
                    if x:
                        reduct_ok = False
                    continue
                c = x / y
                if constant is None:
                    constant = c
                elif c != constant:
                    reduct_ok = False
    det = tagged_inverse(Matrix([vrho] + b, ncols=n))[1]
    if constant != abs(det).inverse():
        reduct_ok = False

    rel, rel_h = relative_ih(star_pair)
    # transport by matching ray keys: closed star cones keep their rays
    hat_star = PLFunction(closed, {
        m: hat.per_max[fan.id_by_key[closed.cones[m].rays]]
        for m in closed.maximal_ids}, check=False)
    deg2_ok = True
    forms = _coordinate_forms(star_pair.fan)
    for d in range(0, 2 * n - 1, 2):
        imgs = [_mul_pl(v, hat_star) for v in star_abs.comps[d]]
        # every image is a relative section: it adds nothing to the
        # relative section basis
        top = rel[d + 2]
        if len(sparse_eliminate(top + imgs)) != len(top):
            deg2_ok = False
            break
        # the rank of the images' classes over the relative ideal multiples
        # x_i * b (b of grading d), which span len(top) - h_(d+2) dimensions
        multiples = [x for b in rel[d]
                     for x in _times(b, forms, n, EVERY_COLUMN)]
        classes = len(sparse_eliminate(multiples + imgs)) - \
            (len(top) - rel_h[d + 2])
        if classes != star_abs.h[d] or star_abs.h[d] != rel_h[d + 2]:
            deg2_ok = False
    return LinkReport(lam_fan=lam_fan, lam_h=lam_h,
                      star_h=star_h, constant=constant,
                      loc_prod_ok=loc_prod_ok, reduct_ok=reduct_ok,
                      deg2_ok=deg2_ok)


def exact_sequence_check(fan, cone_id):
    """Graded dimensions add along the decomposition into a closed star and
    the closure of its complement (relative to the common boundary)."""
    if cone_id not in fan.cones:
        raise ValueError("unknown cone id")
    _, closed, _ = star_link(fan, cone_id)
    star_keys = closed.max_key_set()
    comp_max = [m for m in fan.maximal_ids
                if fan.cones[m].rays not in star_keys]
    if not comp_max:
        raise ValueError("complement is empty: not a decomposition")
    comp = subfan(fan, comp_max)
    sb = {closed.cones[i].rays for i in boundary_facet_ids(closed)}
    cb = {comp.cones[i].rays for i in boundary_facet_ids(comp)}
    if sb != cb:
        raise ValueError("pieces do not meet along a common boundary")
    whole = GradedIH(build_distinguished_pair(fan))
    star = GradedIH(build_distinguished_pair(closed))
    _, rel_h = relative_ih(build_distinguished_pair(comp))
    return all(whole.h[d] == star.h[d] + rel_h[d]
               for d in range(0, 2 * fan.n + 1, 2))


# -- skew products -------------------------------------------------------------


def skew_product(f1, f2, phi=None):
    """Fan with cones (graph of phi over sigma) + delta in R^(n1+n2).

    phi: maximal cone id of f1 -> tuple of n2 linear forms on R^(n1) (a
    conewise linear map into the second factor's ambient space), required
    to agree on shared faces; phi = None means the zero map and recovers
    the ordinary product."""
    n1, n2 = f1.n, f2.n
    n = n1 + n2
    if phi is None:
        phi = {m: tuple(tuple(ZERO for _ in range(n1)) for _ in range(n2))
               for m in f1.maximal_ids}
    else:
        phi = {m: tuple(vec(row) for row in rows) for m, rows in phi.items()}
        if set(phi) != set(f1.maximal_ids):
            raise ValueError("phi needs exactly one linear map per maximal cone")
        mx = f1.maximal_ids
        for i, a in enumerate(mx):
            for b in mx[i + 1:]:
                common = set(f1.cones[a].rays) & set(f1.cones[b].rays)
                for r in common:
                    if gram((r,), phi[a]) != gram((r,), phi[b]):
                        raise ValueError("phi is incompatible on a shared face")

    def graph_gens(m):
        rows = phi[m]
        out = []
        for r in f1.cones[m].rays:
            out.append(r + gram((r,), rows).entries[0])
        return out

    gen_sets = []
    zero1 = [ZERO] * n1
    f2_max = f2.maximal_ids or ()
    for m1 in f1.maximal_ids:
        g1 = graph_gens(m1)
        if not f2_max:
            gen_sets.append(g1)
            continue
        for m2 in f2_max:
            g2 = [tuple(zero1 + list(w)) for w in f2.cones[m2].rays]
            gen_sets.append(g1 + g2)
    field = f1.field if f1.field.m is not None else f2.field
    if f1.field.m is not None and f2.field.m is not None \
            and f1.field.m != f2.field.m:
        raise ValueError("factor fans live over different quadratic fields")
    return build_fan(n, gen_sets, field=field)
