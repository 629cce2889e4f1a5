"""Graded cohomology of fans: dimension profiles, the Brion-style
evaluation functional, Poincare pairing, Lefschetz operators and primitive
subspaces, signature reports, and combinatorial h-vector oracles.

Two independent routes exist for every headline number: the section-space
engine computes dimensions from sheaf data, while the lattice recursions
(f_to_h, toric_h_oracle, toric_h_of_fan) never look at a polynomial.
Verification helpers compare them.
"""

from __future__ import annotations

from .exactlin import Matrix, ONE, ZERO, inverse, rank, sc, signature
from . import fans
from .fans import (Fan, PLFunction, canonical_direction, cone_geometry,
                   star_link)
from .conewise import ConewiseFunction, Polynomial
from .ihsheaf import (DistinguishedPair, GradedIH, _mul_pl,
                      build_distinguished_pair, lift_over_span,
                      projection_along)


# -- combinatorial oracles -------------------------------------------------


def f_to_h(face_counts):
    """h-vector of a simple polytope from its face counts (f_0, ..., f_n);
    f_n = 1 is the polytope itself."""
    from math import comb

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
    faces = []
    for key in cone.face_ray_keys():
        d = cone_geometry(key, n + 1).dim - 1
        faces.append((d, frozenset(back[r] for r in key)))
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


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _tminus1_pow(k):
    from math import comb

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
            term = _poly_mul(_g_from_h(h_of(f), f[0]),
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


def _cone_lattice_h(key, n, memo):
    # h-polynomial of the cross-section lattice of the cone with this ray
    # key; the zero cone plays the empty face (dim -1 cross-section)
    got = memo.get(key)
    if got is not None:
        return got
    d = cone_geometry(key, n).dim
    if d == 0:
        memo[key] = [1]
        return memo[key]
    acc = [0] * d
    for fkey in cone_geometry(key, n).face_ray_keys():
        if fkey == key:
            continue
        fd = cone_geometry(fkey, n).dim
        term = _poly_mul(_g_from_h(_cone_lattice_h(fkey, n, memo), fd - 1),
                        _tminus1_pow(d - 1 - fd))
        for i, c in enumerate(term):
            acc[i] += c
    memo[key] = acc
    return acc


def toric_h_of_fan(fan: Fan):
    """Fan-level recursion h(Sigma, t) = sum over cones of
    g(cone)(t-1)^(n - dim); agrees with the section-space dimensions for
    complete fans and with toric_h_oracle on face fans."""
    n = fan.n
    memo = {}
    acc = [0] * (n + 1)
    for c in fan.cones.values():
        g = _g_from_h(_cone_lattice_h(c.rays, n, memo), c.dim - 1)
        term = _poly_mul(g, _tminus1_pow(n - c.dim))
        for i, x in enumerate(term):
            acc[i] += x
    return tuple(acc)


# -- profiles --------------------------------------------------------------


class IHProfile:
    """Graded dimensions and stored representative bases of the cohomology
    of a pair; representatives are complement sections modulo the ideal."""

    __slots__ = ("pair", "fan", "n", "gih", "h", "_rep_polys", "_ctx")

    def __init__(self, pair: DistinguishedPair, gih: GradedIH):
        self.pair = pair
        self.fan = pair.fan
        self.n = pair.fan.n
        self.gih = gih
        self.h = dict(gih.h)
        self._rep_polys = {}
        self._ctx = None

    def h_vector(self):
        return self.gih.h_vector()

    def rep_vectors(self, d):
        return self.gih.comps[d]

    def rep_polys(self, d):
        """Materialized representatives: per grading a list of
        {subdivided max cone id: Polynomial}."""
        got = self._rep_polys.get(d)
        if got is None:
            sp = self.gih.spaces[d]
            got = [sp.materialize(v) for v in self.gih.comps[d]]
            self._rep_polys[d] = got
        return got

    def reps(self, d):
        return [ConewiseFunction(self.pair.subdivided, d, polys, check=False)
                for polys in self.rep_polys(d)]

    def context(self):
        if self._ctx is None:
            self._ctx = EvaluationContext(self.pair)
        return self._ctx


def ih_profile(pair: DistinguishedPair, cap=None, relative=False):
    gih = GradedIH(pair, cap=cap, relative=relative)
    prof = IHProfile(pair, gih)
    if not relative and prof.h.get(0) != 1:
        raise ValueError("connected support must have a 1-dimensional "
                         "grading-0 cohomology")
    return prof


_profile_cache = {}


def profile_for_fan(fan: Fan, rule="default"):
    """Session cache over (canonical fan, rule); profiles are immutable."""
    key = (fan.canonical_json(), rule)
    prof = _profile_cache.get(key)
    if prof is None:
        prof = ih_profile(build_distinguished_pair(fan, rule=rule))
        _profile_cache[key] = prof
    return prof


# -- evaluation ------------------------------------------------------------


class EvaluationContext:
    """Per maximal simplicial cone of the subdivision: the dual-basis facet
    forms (scaled so their wedge has determinant +-1 in the input
    coordinates) and their product."""

    __slots__ = ("pair", "forms", "phi", "adjacency")

    def __init__(self, pair: DistinguishedPair):
        sub = pair.subdivided
        n = sub.n
        if not sub.is_simplicial():
            raise ValueError("evaluation needs the simplicial subdivision")
        self.pair = pair
        self.forms = {}
        self.phi = {}
        for m in sub.maximal_ids:
            rays = sub.cones[m].rays
            if len(rays) != n:
                raise ValueError("evaluation needs full-dimensional cones")
            inv, d = inverse(Matrix(list(rays), ncols=n))
            # column i of the inverse is dual to ray i
            duals = [inv.col(i) for i in range(n)]
            scale = abs(d)
            duals[0] = tuple(scale * x for x in duals[0])
            phi = Polynomial.constant(n, 1)
            for f in duals:
                phi = phi.mul(Polynomial.from_linear(f))
            self.forms[m] = tuple(duals)
            self.phi[m] = phi
        self.adjacency = {m: [] for m in sub.maximal_ids}
        for tid in pair.facet_piece_ids():
            owners = pair.owners(tid)
            if len(owners) == 2:
                a, b = owners
                self.adjacency[a].append(b)
                self.adjacency[b].append(a)


def _cancel(num, den):
    changed = True
    while changed and den:
        changed = False
        for i, g in enumerate(den):
            q = num.divide_by_linear(g)
            if q is not None:
                num = q
                den.pop(i)
                changed = True
                break
    return num, den


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


_GENERIC_TS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _generic_point(ctx: EvaluationContext):
    n = ctx.pair.fan.n
    for t in _GENERIC_TS:
        z = tuple(sc(t) ** i for i in range(n))
        if all(ctx.phi[m].evaluate(z) for m in ctx.phi):
            return z
    raise ValueError("no generic evaluation point found")


def evaluate_fast(ctx: EvaluationContext, per_max):
    """Evaluation at one deterministic generic point; exact whenever the
    rational-function sum is constant, which holds for honest grading-2n
    sections.  per_max: maximal cone id -> Polynomial (or a
    ConewiseFunction)."""
    if isinstance(per_max, ConewiseFunction):
        per_max = per_max.per_max
    z = _generic_point(ctx)
    total = ZERO
    for m, poly in per_max.items():
        if poly.is_zero():
            continue
        total = total + poly.evaluate(z) / ctx.phi[m].evaluate(z)
    return total


# -- pairing, Lefschetz, signatures ----------------------------------------


def _pl_pow_on_cone(l_form, k, n):
    p = Polynomial.constant(n, 1)
    lin = Polynomial.from_linear(l_form)
    for _ in range(k):
        p = p.mul(lin)
    return p


def _coarse_l_on_piece(profile, l: PLFunction):
    """The strictly convex function lives on the coarse fan; transport its
    forms to the subdivided maximal cones through the carrier map."""
    return {m: l.per_max[profile.pair.carrier(m)]
            for m in profile.pair.subdivided.maximal_ids}


def pairing_matrix(profile: IHProfile, d):
    """Matrix of the duality pairing IH^d x IH^(2n-d) in the stored bases;
    raises when it is rank-deficient."""
    n = profile.n
    if d % 2 or d < 0 or d > 2 * n:
        raise ValueError("pairing needs an even grading in [0, 2n]")
    ctx = profile.context()
    left = profile.rep_polys(d)
    right = profile.rep_polys(2 * n - d)
    rows = []
    for a in left:
        row = []
        for b in right:
            prod = {m: a[m].mul(b[m]) for m in a}
            row.append(evaluate_fast(ctx, prod))
        rows.append(row)
    mat = Matrix(rows, ncols=len(right))
    r = rank(mat)
    if r != min(len(left), len(right)) or len(left) != len(right):
        raise ValueError(
            f"duality pairing at grading {d} is degenerate "
            f"({len(left)} x {len(right)}, rank {r})")
    return mat


def lefschetz_matrix(profile: IHProfile, l: PLFunction, d):
    """Matrix of the full Lefschetz power from grading d to 2n-d, computed
    by iterated degree-2 steps re-expressed in the stored bases."""
    n = profile.n
    if d % 2 or d < 0 or d > n:
        raise ValueError("Lefschetz matrices start at an even grading <= n")
    return profile.gih.composed_steps(l, d, 2 * n - d)


def hl_rank_report(profile: IHProfile, l: PLFunction):
    """rank of the full Lefschetz power per grading, with the rank demanded
    by the theorem."""
    out = {}
    for d in range(0, profile.n + 1, 2):
        m = lefschetz_matrix(profile, l, d)
        out[d] = (rank(m), profile.h[d])
    return out


def primitive_basis(profile: IHProfile, l: PLFunction, d):
    """Sections representing the kernel of one Lefschetz power beyond the
    pairing one (grading d -> 2n-d+2)."""
    n = profile.n
    if d % 2 or d < 0 or d > n:
        raise ValueError("primitive spaces live in even gradings <= n")
    reps = profile.gih.primitive_reps(d, l)
    sp = profile.gih.spaces[d]
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


def hrm_check(profile: IHProfile, l: PLFunction):
    """Signature data of B_l(x, y) = <l^(n-d) x y> on each IH^d with even
    d <= n: the full signature must match the h-vector formula, and
    (-1)^(d/2) B_l must be positive definite on the primitive subspace."""
    n = profile.n
    ctx = profile.context()
    hvec = profile.h_vector()
    l_on_piece = _coarse_l_on_piece(profile, l)
    rows = []
    for d in range(0, n + 1, 2):
        reps = profile.rep_polys(d)
        k = n - d
        lpow = {m: _pl_pow_on_cone(l_on_piece[m], k, n)
                for m in l_on_piece}
        dim = len(reps)
        mat = []
        for a in reps:
            row = []
            for b in reps:
                prod = {m: a[m].mul(b[m]).mul(lpow[m]) for m in a}
                row.append(evaluate_fast(ctx, prod))
            mat.append(row)
        bmat = Matrix(mat, ncols=dim)
        sig = signature(bmat) if dim else (0, 0)
        expected = _expected_signature(hvec, d)
        prim = profile.gih.primitive_coeffs(d, l)
        pdim = len(prim)
        if pdim:
            s = sc((-1) ** ((d // 2) % 2))
            q_rows = []
            for ci in prim:
                row = []
                for cj in prim:
                    acc = ZERO
                    for i, x in enumerate(ci):
                        if x:
                            for j, y in enumerate(cj):
                                if y:
                                    acc = acc + x * y * bmat.entries[i][j]
                    row.append(s * acc)
                q_rows.append(row)
            definite = signature(Matrix(q_rows, ncols=pdim)) == (pdim, 0)
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
    if isinstance(profile_or_h, IHProfile):
        return profile_or_h.h_vector()
    return tuple(profile_or_h)


def ds_check(profile_or_h):
    """Dehn-Sommerville symmetry h^d = h^(2n-d)."""
    h = _h_of(profile_or_h)
    return h == tuple(reversed(h))


def convolve_h(h1, h2):
    out = [0] * (len(h1) + len(h2) - 1)
    for i, a in enumerate(h1):
        for j, b in enumerate(h2):
            out[i + j] += a * b
    return tuple(out)


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


def restrict_to_link(profile: IHProfile, ray_cid, rule="default"):
    """Restriction of cohomology classes to the flattened link of a ray,
    with the three local-structure checks: the closed star has the link's
    graded dimensions; the hat-function pairing factors through the link
    with one positive constant; and hat multiplication into relative
    cohomology of the star has full rank.

    Implemented for simplicial fans (the hat function needs free ray
    values)."""
    fan = profile.fan
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
                cone_geometry(comp, n).dim + 1 != c.dim:
            raise ValueError("no local product structure at the ray")
    values = {rid: (ONE if rid == ray_cid else ZERO)
              for rid in fan.ray_ids()}
    hat = PLFunction.from_ray_values(fan, values)
    _, closed, link = star_link(fan, ray_cid)
    _, _, proj = projection_along(vrho, n)
    link_max = [c for c in link.cones.values() if c.dim == n - 1]
    key_to_lam = {}
    lam_keys = []
    for c in link_max:
        pk = tuple(sorted(canonical_direction(proj.apply(r))
                          for r in c.rays))
        lam_keys.append(pk)
        key_to_lam[c.rays] = pk
    lam_fan = Fan(n - 1, fan.field, lam_keys, check=False)
    lam_profile = profile_for_fan(lam_fan, rule)
    # restrictions of the stored representatives, per grading
    m2 = 2 * (n - 1)

    def restrict(polys_by_max):
        out = {}
        for c in link_max:
            delta_key = tuple(sorted(set(c.rays) | {vrho}))
            delta = fan.id_by_key[delta_key]
            lift = lift_over_span(proj, c.rays, n)
            out[lam_fan.id_by_key[key_to_lam[c.rays]]] = \
                polys_by_max[delta].compose(lift)
        return out

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

    lam_ctx = lam_profile.context()
    ctx = profile.context()
    hat_on_piece = _coarse_l_on_piece(profile, hat)
    constant = None
    reduct_ok = True
    for d in range(0, m2 + 1, 2):
        dprime = m2 - d
        for a in profile.rep_polys(d):
            ra = restrict(a)
            for b in profile.rep_polys(dprime):
                rb = restrict(b)
                lhs = evaluate_fast(ctx, {
                    m: a[m].mul(b[m]).mul(
                        Polynomial.from_linear(hat_on_piece[m]))
                    for m in a})
                rhs = evaluate_fast(lam_ctx, {
                    m: ra[m].mul(rb[m]) for m in ra})
                if not rhs:
                    if lhs:
                        reduct_ok = False
                    continue
                c = lhs / rhs
                if constant is None:
                    constant = c
                elif c != constant:
                    reduct_ok = False
    if constant is None or constant.sign() <= 0:
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
