"""Graded cohomology of fans: dimension profiles, the Brion-style
evaluation functional, Poincare pairing, Lefschetz operators and primitive
subspaces, signature reports, and combinatorial h-vector oracles.

Two independent routes exist for every headline number: the section-space
engine computes dimensions from sheaf data, while the lattice recursions
(f_to_h, toric_h_oracle, toric_h_of_fan) never look at a polynomial.
Verification helpers compare them.

A profile is an ihsheaf.GradedIH, which certifies its own
representatives.  The pairing, hard Lefschetz ranks, Hodge-Riemann forms,
primitives and Lefschetz matrices all read GradedIH.lefschetz_gram, the
Gram of the representatives' values at one generic point, and so does the
reduct check of restrict_to_link.  The symbolic evaluate is the
independent check on those values; class coordinates are solved for only
in restrict_to_link's relative-cohomology check.
"""

from __future__ import annotations

from collections import OrderedDict
from math import comb

from .exactlin import Matrix, ONE, ZERO, inverse, rank, signature
from . import fans
from .fans import Fan, PLFunction, canonical_direction, star_link, vdot
from .conewise import ConewiseFunction, Polynomial
from . import ihsheaf
from .ihsheaf import (EvaluationContext, GradedIH, _gram, _mul_pl,
                      build_distinguished_pair, projection_along)


# -- combinatorial oracles -------------------------------------------------


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


def _check_graded(lattice: FaceLattice):
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


def convolve_h(h1, h2):
    """Product of two polynomials given by their coefficient lists."""
    out = [0] * (len(h1) + len(h2) - 1)
    for i, a in enumerate(h1):
        for j, b in enumerate(h2):
            out[i + j] += a * b
    return tuple(out)


def _tminus1_pow(k):
    return [comb(k, j) * (-1) ** (k - j) for j in range(k + 1)]


def _g_from_h(h, dim):
    # g_0 = h_0, g_k = h_k - h_{k-1} for k up to half the dimension
    top = max(dim, 0) // 2
    g = [h[0]]
    for k in range(1, top + 1):
        g.append(h[k] - h[k - 1])
    return g


def toric_h_oracle(lattice: FaceLattice):
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


def _cone_lattice_h(fan, cid, memo):
    # h-polynomial of the cross-section lattice of the cone cid, over its
    # faces in the fan; the zero cone plays the empty face (dim -1
    # cross-section)
    got = memo.get(cid)
    if got is not None:
        return got
    d = fan.cones[cid].dim
    acc = [0] * d if d else [1]
    for f in fan.faces_of[cid]:
        fd = fan.cones[f].dim
        term = convolve_h(_g_from_h(_cone_lattice_h(fan, f, memo), fd - 1),
                          _tminus1_pow(d - 1 - fd))
        for i, c in enumerate(term):
            acc[i] += c
    memo[cid] = acc
    return acc


def toric_h_of_fan(fan: Fan):
    """Fan-level recursion h(Sigma, t) = sum over cones of
    g(cone)(t-1)^(n - dim); agrees with the section-space dimensions for
    complete fans and with toric_h_oracle on face fans."""
    n = fan.n
    memo = {}
    acc = [0] * (n + 1)
    for c in fan.cones.values():
        g = _g_from_h(_cone_lattice_h(fan, c.id, memo), c.dim - 1)
        term = convolve_h(g, _tminus1_pow(n - c.dim))
        for i, x in enumerate(term):
            acc[i] += x
    return tuple(acc)


# -- profiles --------------------------------------------------------------


_PROFILE_CACHE_SIZE = 32
_profile_cache = OrderedDict()


def profile_for_fan(fan: Fan, rule="default"):
    """The GradedIH of a fan's distinguished pair, from a session cache over
    (canonical fan, rule) holding the 32 most recently used profiles;
    profiles are immutable."""
    key = (fan.canonical_json(), rule)
    prof = _profile_cache.get(key)
    if prof is None:
        prof = GradedIH(build_distinguished_pair(fan, rule=rule))
        _profile_cache[key] = prof
        if len(_profile_cache) > _PROFILE_CACHE_SIZE:
            _profile_cache.popitem(last=False)
    else:
        _profile_cache.move_to_end(key)
    return prof


# -- evaluation ------------------------------------------------------------


def _cancel(num, den):
    # one pass suffices: a form that does not divide num does not divide
    # num / g for any other form g either
    left = []
    for g in den:
        q = num.divide_by_linear(g)
        if q is None:
            left.append(g)
        else:
            num = q
    return num, left


def evaluate(ctx: EvaluationContext, f: ConewiseFunction):
    """The degree-2n evaluation functional: sum of f_sigma / Phi_sigma over
    maximal cones as an exact rational function; all poles must cancel.
    Raises on residual poles (the input was not a section of full grading)."""
    pair = ctx.pair
    n = pair.fan.n
    if f.grading != 2 * n:
        raise ValueError("evaluation is defined in grading 2n")
    support = [m for m in pair.subdivided.maximal_ids
               if not f.per_max[m].is_zero()]
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
            for nb in sorted(ctx.adjacency[m]):
                if nb not in seen and nb in sup_set:
                    seen.add(nb)
                    queue.append(nb)
        num = Polynomial(n)
        den = []
        for m in comp:
            t_num = f.per_max[m]
            t_den = list(ctx.forms[m])
            prod_old = Polynomial.constant(n, 1)
            for g in den:
                prod_old = prod_old.mul(Polynomial.from_linear(g))
            prod_new = Polynomial.constant(n, 1)
            for g in t_den:
                prod_new = prod_new.mul(Polynomial.from_linear(g))
            num = num.mul(prod_new).add(t_num.mul(prod_old))
            den = den + t_den
            num, den = _cancel(num, den)
        if den:
            raise ValueError("residual poles: the input is not a global "
                             "section of grading 2n")
        total = total + (num.coeffs.get(tuple([0] * n), ZERO))
    return total


def evaluate_fast(ctx: EvaluationContext, per_max):
    """Evaluation at the context's generic point; exact whenever the
    rational-function sum is constant, which holds for honest grading-2n
    sections.  per_max: maximal cone id -> Polynomial (or a
    ConewiseFunction)."""
    if isinstance(per_max, ConewiseFunction):
        per_max = per_max.per_max
    total = ZERO
    for m, poly in per_max.items():
        if poly.is_zero():
            continue
        total = total + poly.evaluate(ctx.z) * ctx.inv_phi_z[m]
    return total


# -- pairing, Lefschetz, signatures ----------------------------------------


def pairing_matrix(profile: GradedIH, d):
    """Matrix of the duality pairing IH^d x IH^(2n-d) in the stored bases;
    raises when it is rank-deficient.  Read from the profile's certified
    matrices when it has them (the pairing at d > n is the transpose of the
    one at 2n - d)."""
    n = profile.pair.fan.n
    if d % 2 or d < 0 or d > 2 * n:
        raise ValueError("pairing needs an even grading in [0, 2n]")
    grams = profile.grams
    if grams:
        return grams[d] if d <= n else grams[2 * n - d].transpose()
    mat = profile.lefschetz_gram(None, d, 2 * n - d)
    r = rank(mat)
    if not mat.nrows == mat.ncols == r:
        raise ValueError(
            f"duality pairing at grading {d} is degenerate "
            f"({mat.nrows} x {mat.ncols}, rank {r})")
    return mat


def lefschetz_matrix(profile: GradedIH, l: PLFunction, d):
    """Matrix of the full Lefschetz power from grading d to 2n-d in the
    stored bases: the Gram <a . l^(n-d) . b> over grading d is G A, with G
    the pairing at d, so A = G^-1 (G A)."""
    if d % 2 or d < 0 or d > profile.pair.fan.n:
        raise ValueError("Lefschetz matrices start at an even grading <= n")
    return inverse(pairing_matrix(profile, d))[0].mul(
        profile.lefschetz_gram(l, d, d))


def hl_rank_report(profile: GradedIH, l: PLFunction):
    """rank of the full Lefschetz power per grading, with the rank demanded
    by the theorem.  The rank is that of the Gram G A (see
    lefschetz_matrix): rank(G A) <= rank A, with equality when the pairing
    at d is perfect, so a full rank proves hard Lefschetz at d."""
    return {d: (rank(profile.lefschetz_gram(l, d, d)), profile.h[d])
            for d in range(0, profile.pair.fan.n + 1, 2)}


def primitive_basis(profile: GradedIH, l: PLFunction, d):
    """Sections representing the kernel of one Lefschetz power beyond the
    pairing one (grading d -> 2n-d+2)."""
    if d % 2 or d < 0 or d > profile.pair.fan.n:
        raise ValueError("primitive spaces live in even gradings <= n")
    reps = profile.primitive_reps(d, l)
    sp = profile.spaces[d]
    return [sp.as_function(v) for v in reps]


class QuadraticReport:
    """Per-grading data of the Lefschetz quadratic form: matrix, signature,
    primitive dimension, definiteness on primitives, and agreement of the
    full signature with the h-vector formula."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(rows)

    @property
    def ok(self):
        return all(r["definite"] and r["signature_ok"] for r in self.rows)


def _expected_signature(h, d):
    p = q = 0
    for j in range(0, d + 1, 2):
        step = h[j // 2] - (h[j // 2 - 1] if j >= 2 else 0)
        if j % 4 == 0:
            p += step
        else:
            q += step
    return (p, q)


def hrm_check(profile: GradedIH, l: PLFunction):
    """Signature data of B_l(x, y) = <l^(n-d) x y> on each IH^d with even
    d <= n: the full signature must match the h-vector formula, and
    (-1)^(d/2) B_l must be positive definite on the primitive subspace."""
    hvec = profile.h_vector()
    rows = []
    for d in range(0, profile.pair.fan.n + 1, 2):
        bmat = profile.lefschetz_gram(l, d, d)
        sig = signature(bmat) if bmat.nrows else (0, 0)
        expected = _expected_signature(hvec, d)
        prim = profile.primitive_coeffs(d, l)
        pdim = len(prim)
        if pdim:
            # (-1)^(d/2) B_l is positive definite on the primitives
            p = Matrix(prim, ncols=bmat.nrows)
            q = signature(p.mul(bmat).mul(p.transpose()))
            definite = q == ((pdim, 0) if d % 4 == 0 else (0, pdim))
        else:
            definite = True
        rows.append({
            "d": d,
            "matrix": bmat,
            "signature": sig,
            "signature_expected": expected,
            "signature_ok": sig == expected,
            "primitive_dim": pdim,
            "definite": definite,
        })
    return QuadraticReport(rows)


# -- verification checks ---------------------------------------------------


def _h_of(profile_or_h):
    # ihsheaf.GradedIH, not the name imported here: the traced benchmark
    # rebinds that one to a plain function
    if isinstance(profile_or_h, ihsheaf.GradedIH):
        return profile_or_h.h_vector()
    return tuple(profile_or_h)


def ds_check(profile_or_h):
    """Dehn-Sommerville symmetry h^d = h^(2n-d)."""
    h = _h_of(profile_or_h)
    return h == tuple(reversed(h))


def kunneth_check(p1, p2, pprod):
    """Product h-vector equals the convolution of the factors'."""
    return convolve_h(_h_of(p1), _h_of(p2)) == _h_of(pprod)


class LinkReport:
    __slots__ = ("lam_fan", "lam_h", "star_h", "constant", "loc_prod_ok",
                 "reduct_ok", "deg2_ok")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def ok(self):
        return self.loc_prod_ok and self.reduct_ok and self.deg2_ok


def restrict_to_link(profile: GradedIH, ray_cid, rule="default"):
    """Restriction of cohomology classes to the flattened link of a ray,
    with the three local-structure checks: the closed star has the link's
    graded dimensions; the hat-function pairing factors through the link
    with the constant 1/|det(v_rho, b)|; and hat multiplication into
    relative cohomology of the star has full rank.  Classes restrict along
    b^T, for (x, proj, b) from projection_along: the one section of proj
    with image ker x, so that the terms with x vanish in cohomology.

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
    _, proj, b = projection_along(vrho, n)
    key_to_lam = {c.rays: tuple(sorted(canonical_direction(proj.apply(r))
                                       for r in c.rays))
                  for c in link.cones.values() if c.dim == n - 1}
    lam_fan = Fan(n - 1, fan.field, list(key_to_lam.values()), check=False)
    lam_profile = profile_for_fan(lam_fan, rule)
    star_pair = build_distinguished_pair(closed, rule=rule)
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
    z = tuple(vdot(col, lam_ctx.z) for col in zip(*b))
    star_of = {lam_fan.id_by_key[pk]:
               fan.id_by_key[tuple(sorted(set(rays) | {vrho}))]
               for rays, pk in key_to_lam.items()}
    cones = [star_of[m] for m in lam_ctx.inv_phi_z]
    m2 = 2 * (n - 1)
    restricted = {
        d: Matrix([[polys[cone].evaluate(z) for cone in cones]
                   for polys in profile.rep_polys(d)], ncols=len(cones))
        for d in range(0, m2 + 1, 2)}
    constant = None
    reduct_ok = True
    for d in range(0, m2 + 1, 2):
        lhs = profile.lefschetz_gram(hat, d, m2 - d)
        rhs = _gram(restricted[d], lam_ctx.inv_phi_z.values(),
                    restricted[m2 - d])
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
    if constant != abs(inverse(Matrix([vrho] + b, ncols=n))[1]).inverse():
        reduct_ok = False

    star_rel = GradedIH(star_pair, relative=True)
    # transport by matching ray keys: closed star cones keep their rays
    hat_star = PLFunction(closed, {
        m: hat.per_max[fan.id_by_key[closed.cones[m].rays]]
        for m in closed.maximal_ids}, check=False)
    deg2_ok = True
    for d in range(0, 2 * n - 1, 2):
        imgs = [_mul_pl(v, hat_star) for v in star_abs.comps[d]]
        try:
            coords = star_rel.class_coords(d + 2, imgs)
        except ValueError:
            deg2_ok = False
            break
        mat = Matrix([[coords[j][i] for j in range(len(imgs))]
                      for i in range(star_rel.h[d + 2])],
                     ncols=len(imgs))
        if rank(mat) != star_abs.h[d] or \
                star_abs.h[d] != star_rel.h[d + 2]:
            deg2_ok = False
    return LinkReport(lam_fan=lam_fan, lam_h=lam_h,
                      star_h=star_h, constant=constant,
                      loc_prod_ok=loc_prod_ok, reduct_ok=reduct_ok,
                      deg2_ok=deg2_ok)


def exact_sequence_check(fan: Fan, cone_id, rule="default"):
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
    comp = fan.subfan(comp_max)
    sb = {closed.cones[i].rays for i in fans.boundary_facet_ids(closed)}
    cb = {comp.cones[i].rays for i in fans.boundary_facet_ids(comp)}
    if sb != cb:
        raise ValueError("pieces do not meet along a common boundary")
    whole = GradedIH(build_distinguished_pair(fan, rule=rule))
    star = GradedIH(build_distinguished_pair(closed, rule=rule))
    rel = GradedIH(build_distinguished_pair(comp, rule=rule), relative=True)
    return all(whole.h[d] == star.h[d] + rel.h[d]
               for d in range(0, 2 * fan.n + 1, 2))
