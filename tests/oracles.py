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
  (ihsheaf.GradedIH.values).
- The selection on full-length vectors (full_greedy, which offers the
  ideal multiples and then the basis vectors to independent_modp) and the
  module route of multiplication by a conewise linear function
  (module_step), which solves for classes over the spanning list that
  selection keeps.  The package reads its selection off the pivots of the
  multiples on the free columns, and Lefschetz maps off a Gram matrix.
- Sums of products as loops of Scalar products and sums (vdot_loop,
  mul_loop, gram_loop), one reduction per operation.  The package clears
  each row to ints, sums the products as Python ints and reduces once
  (exactlin.vdot, Matrix.mul, exactlin.gram).
- A second subdivision rule (barycenter_sum_scaled, profile_with_centers):
  each generator scaled to coordinate-sum 1 where that sum is positive.
  The package subdivides at the sup-norm barycenters (fans.barycenter);
  intersection cohomology does not depend on the subdivision.
"""

from ihfan import exactlin, fans
from ihfan.conewise import Polynomial
from ihfan.exactlin import ONE, ZERO, Matrix, solve
from ihfan.fans import vadd, vscale
from ihfan.ihsheaf import GradedIH, build_distinguished_pair


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
    return q if rem.is_zero() else None


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
        if not p.is_zero() and p.degree() != k:
            raise ValueError("polynomial degree does not match grading")
    mx = fan.maximal_ids
    for i, a in enumerate(mx):
        for b in mx[i + 1:]:
            meet = fan.cones[meet_id(fan, a, b)]
            diff = sub(f.per_max[a], f.per_max[b])
            if not reduce_mod(diff, meet.geometry().equations).is_zero():
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
    for tid in pair.facet_piece_ids():
        owners = sub_fan.cofaces_of[tid]
        if len(owners) == 2:
            a, b = owners
            adjacency[a].append(b)
            adjacency[b].append(a)
    support = [m for m in sub_fan.maximal_ids if not f.per_max[m].is_zero()]
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
            p = polys[pair.pieces(mid)[0]].mul(
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


def independent_modp(vectors):
    """Indices of the sparse vectors independent of those before them modulo
    the first prime for their field, each cleared of denominators first.
    Independence mod p implies independence, so they are independent, and
    they are all of the exact greedy choice's when their number is the
    rank."""
    p, ts = next(iter(exactlin._embeddings(exactlin.radicand(vectors))))
    ech = {}
    out = []
    for i, v in enumerate(vectors):
        a_part, b_part, _ = exactlin.cleared(v) if v else ({}, {}, 1)
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
    cands = multiples + gih.spaces[d].basis
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


# -- a second subdivision rule ---------------------------------------------


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


def profile_with_centers(fan, barycenter):
    """The GradedIH of the fan's distinguished pair, built (past the
    profile cache) with barycenter in place of fans.barycenter."""
    kept = fans.barycenter
    fans.barycenter = barycenter
    try:
        return GradedIH(build_distinguished_pair(fan))
    finally:
        fans.barycenter = kept
