"""Stalk modules and graded section spaces of the minimal conewise sheaf.

The pipeline: a complete (or quasi-convex) fan gets a distinguished
simplicial subdivision (identity for simplicial input, full barycentric
otherwise).  Stalks are built by increasing cone dimension: a nonsimplicial
cone's boundary is flattened along its subdivision center into a complete
fan one dimension down, the lower-dimensional theory is computed there, and
generator sections are pulled back from primitive representatives.  Global
sections of any grading are then cut out by a sparse linear system in
per-cone generator coefficients.

All generator sections live on the subdivided fan; scalars stay exact.
"""

from __future__ import annotations

from .exactlin import (
    Matrix,
    ONE,
    ZERO,
    echelon_insert,
    first_independent,
    format_scalar,
    inverse,
    kernel_basis,
    sc,
    solve,
    sparse_eliminate,
    sparse_kernel,
)
from . import fans
from .fans import (
    Fan,
    canonical_direction,
    format_vector,
    parse_vector,
    vdot,
)
from .conewise import ConewiseFunction, Polynomial, monomials

# -- boundary flattening ---------------------------------------------------


def projection_along(v, n, span_vectors=None):
    """Exact projection along the line through v onto a chosen complement
    inside span(span_vectors) (default the whole space): returns (x, basis,
    proj) where x is a covector with x(v) = 1, basis spans the complement,
    and proj is the projection Matrix."""
    v = fans.vec(v)
    i0 = next((i for i, c in enumerate(v) if c), None)
    if i0 is None:
        raise ValueError("cannot project along the zero vector")
    xi = v[i0].inverse()
    x = tuple(xi if j == i0 else ZERO for j in range(n))
    if span_vectors is None:
        span_vectors = [tuple(ONE if j == i else ZERO for j in range(n))
                        for i in range(n)]
    basis = first_independent(
        [fans.vsub(u, fans.vscale(vdot(x, u), v)) for u in span_vectors])
    b = Matrix(basis, ncols=n)
    c = inverse(b.mul(b.transpose()))[0].mul(b)
    cv = c.apply(v)
    proj = Matrix([[c.entries[i][j] - cv[i] * x[j] for j in range(n)]
                   for i in range(len(basis))], ncols=n)
    return x, tuple(basis), proj


def lift_over_span(proj, rays, n):
    """Rows of the section of the projection Matrix proj over span(rays): an
    (ambient x quotient) matrix with proj . lift = identity on the projected
    span."""
    bt = Matrix(first_independent(rays), ncols=n).transpose()
    a = proj.mul(bt)
    at = a.transpose()
    return bt.mul(inverse(at.mul(a))[0].mul(at)).entries


class FlattenedBoundary:
    """The boundary of a cone flattened along an interior point: a complete
    fan in the quotient by the center's line, together with the projection
    and the induced strictly convex conewise linear function."""

    __slots__ = ("cone", "v", "x", "basis", "proj", "lam", "lam_l",
                 "face_to_lam", "_lifts")

    def __init__(self, cone, v, x, basis, proj, lam, lam_l, face_to_lam):
        self.cone = cone
        self.v = v
        self.x = x
        self.basis = basis
        self.proj = proj
        self.lam = lam
        self.lam_l = lam_l
        self.face_to_lam = face_to_lam
        self._lifts = {}

    def project(self, u):
        return self.proj.apply(u)

    def lift_rows(self, face_key):
        """Rows of the section of the projection over span(face): an
        (ambient x quotient) matrix inverting proj on that span."""
        lift = self._lifts.get(face_key)
        if lift is None:
            lift = lift_over_span(self.proj, face_key, self.cone.n)
            self._lifts[face_key] = lift
        return lift


def flatten_boundary(cone: fans.Cone, v):
    """Flatten the boundary of a cone of dim >= 2 at an interior point v.
    Errors when v is not in the relative interior."""
    v = fans.vec(v)
    if cone.dim < 2:
        raise ValueError("flattening needs a cone of dimension >= 2")
    if not cone.contains_relint(v):
        raise ValueError("flattening center must be interior to the cone")
    n = cone.n
    m = cone.dim - 1
    x, basis, proj = projection_along(v, n, span_vectors=cone.span_basis())
    assert len(basis) == m
    facet_keys = sorted(k for k in cone.face_ray_keys()
                        if fans.cone_geometry(k, n).dim == cone.dim - 1)
    gen_sets = [[proj.apply(r) for r in k] for k in facet_keys]
    lam = Fan(m, cone_field_guess(cone),
              [tuple(sorted(canonical_direction(g) for g in gs))
               for gs in gen_sets], check=False)
    per_max = {}
    for k, gs in zip(facet_keys, gen_sets):
        key = tuple(sorted(canonical_direction(g) for g in gs))
        rows = [list(proj.apply(r)) for r in k]
        rhs = [vdot(x, r) for r in k]
        mu = solve(Matrix(rows, ncols=m), rhs)
        if mu is None:
            raise ValueError("flattening produced an inconsistent support "
                             "value assignment")
        per_max[lam.id_by_key[key]] = mu
    lam_l = fans.PLFunction(lam, per_max, check=False)
    face_to_lam = {}
    for k in cone.face_ray_keys():
        if k == cone.rays:
            continue
        pk = tuple(sorted(canonical_direction(proj.apply(r))
                          for r in k))
        face_to_lam[k] = lam.id_by_key[pk]
    return FlattenedBoundary(cone, v, x, tuple(basis), proj, lam, lam_l,
                             face_to_lam)


def cone_field_guess(cone):
    from .exactlin import ScalarField
    for r in cone.rays:
        for c in r:
            if c.m is not None:
                return ScalarField(c.m)
    return ScalarField()


# -- stalk modules and distinguished pairs ---------------------------------


class StalkModule:
    """Free module of sections over one cone: a tuple of generators, each a
    (grading, sections) pair where sections maps a subdivided-cone id to a
    homogeneous polynomial of degree grading/2."""

    __slots__ = ("cone_id", "generators", "free")

    def __init__(self, cone_id, generators, free=True):
        self.cone_id = cone_id
        self.generators = tuple(generators)
        self.free = free

    def gradings(self):
        return tuple(g for g, _ in self.generators)


class _Sections:
    """Solved space of grading-d sections of a pair, parametrized by
    per-maximal-cone polynomial coefficients for each stalk generator."""

    __slots__ = ("pair", "grading", "cols", "basis")

    def __init__(self, pair, grading, boundary_pieces=None):
        self.pair = pair
        self.grading = grading
        n = pair.fan.n
        cols = []
        for mid in sorted(pair.fan.maximal_ids):
            for j, (g, _) in enumerate(pair.stalks[mid].generators):
                if g <= grading:
                    for e in monomials(n, (grading - g) // 2):
                        cols.append((mid, j, e))
        self.cols = cols
        col_index = {c: i for i, c in enumerate(cols)}
        rows = []
        sub = pair.subdivided
        for tid in pair.facet_piece_ids():
            owners = pair.owners(tid)
            if len(owners) == 2:
                c1, c2 = pair.carrier(owners[0]), pair.carrier(owners[1])
                if c1 == c2:
                    continue
                sides = ((owners[0], ONE), (owners[1], sc(-1)))
            elif len(owners) == 1 and boundary_pieces is not None \
                    and tid in boundary_pieces:
                sides = ((owners[0], ONE),)
            else:
                continue
            eqs = sub.cones[tid].equations()
            residual = {}
            for hat, sign in sides:
                mid = pair.carrier(hat)
                for j, (g, sec) in enumerate(pair.stalks[mid].generators):
                    if g > grading:
                        continue
                    base = sec[hat].reduce_mod(eqs)
                    if base.is_zero():
                        continue
                    for e in monomials(n, (grading - g) // 2):
                        mono = Polynomial(n, {e: sign}).reduce_mod(eqs)
                        prod = mono.mul(base)
                        ci = col_index[(mid, j, e)]
                        for re, rc in prod.coeffs.items():
                            row = residual.setdefault(re, {})
                            s = row.get(ci, ZERO) + rc
                            if s:
                                row[ci] = s
                            else:
                                row.pop(ci, None)
            rows.extend(residual.values())
        kern = sparse_kernel(rows, len(cols))
        self.basis = [
            {cols[i]: c for i, c in v.items()} for v in kern]

    def materialize(self, vecm):
        """Dict-vector in generator coordinates -> per-subdivided-max-cone
        polynomials."""
        pair = self.pair
        n = pair.fan.n
        out = {}
        for hat in pair.subdivided.maximal_ids:
            mid = pair.carrier(hat)
            total = Polynomial(n)
            gens = pair.stalks[mid].generators
            blocks = {}
            for (m2, j, e), c in vecm.items():
                if m2 == mid:
                    blocks.setdefault(j, {})[e] = c
            for j, coeffs in blocks.items():
                q = Polynomial(n, coeffs)
                total = total.add(q.mul(gens[j][1][hat]))
            out[hat] = total
        return out

    def as_function(self, vecm):
        return ConewiseFunction(self.pair.subdivided, self.grading,
                                self.materialize(vecm), check=False)


class DistinguishedPair:
    """A fan together with its distinguished simplicial subdivision, the
    subdivision step sequence, and the stalk modules of every cone."""

    __slots__ = ("fan", "subdivided", "steps", "rule", "field", "stalks",
                 "_carrier", "_pieces", "_owners", "_facet_pieces",
                 "_sections", "_boundary_pieces")

    def __init__(self, fan, subdivided, steps, rule="default", stalks=None):
        self.fan = fan
        self.subdivided = subdivided
        self.steps = tuple(steps)
        self.rule = rule
        self.field = fan.field
        for m in fan.maximal_ids:
            if fan.cones[m].dim != fan.n:
                raise ValueError("maximal cones must have full dimension")
        self._carrier = {}
        self._pieces = {cid: [] for cid in fan.cones}
        coarse_order = sorted(fan.cones, key=lambda i: (fan.cones[i].dim, i))
        for tid in sorted(subdivided.cones):
            tc = subdivided.cones[tid]
            car = None
            for cid in coarse_order:
                cc = fan.cones[cid]
                if cc.dim < tc.dim:
                    continue
                if all(cc.contains(r) for r in tc.rays):
                    car = cid
                    break
            if car is None:
                raise ValueError("subdivided cone escapes the coarse fan")
            self._carrier[tid] = car
            if fan.cones[car].dim == tc.dim:
                self._pieces[car].append(tid)
        self._pieces = {cid: tuple(v) for cid, v in self._pieces.items()}
        self._owners = {}
        self._facet_pieces = tuple(
            c.id for c in subdivided.cones_of_dim(fan.n - 1))
        for tid in self._facet_pieces:
            self._owners[tid] = tuple(
                m for m in subdivided.maximal_ids
                if tid in subdivided.faces_of[m])
        self.stalks = dict(stalks) if stalks else {}
        self._sections = {}
        self._boundary_pieces = None

    # -- structure ---------------------------------------------------------

    def carrier(self, tid):
        return self._carrier[tid]

    def pieces(self, cid):
        return self._pieces[cid]

    def owners(self, tid):
        return self._owners[tid]

    def facet_piece_ids(self):
        return self._facet_pieces

    def singular_ids(self):
        """The subdivision is induced from the whole fan (no minimal
        singular subfan), so every cone counts as singular."""
        return tuple(sorted(self.fan.cones))

    def boundary_piece_ids(self):
        if self._boundary_pieces is None:
            self._boundary_pieces = frozenset(
                t for t in self._facet_pieces if len(self._owners[t]) == 1)
        return self._boundary_pieces

    def stalk(self, cid):
        return self.stalks[cid]

    # -- section spaces ----------------------------------------------------

    def section_space(self, grading, relative=False):
        key = (grading, bool(relative))
        sp = self._sections.get(key)
        if sp is None:
            bp = self.boundary_piece_ids() if relative else None
            sp = _Sections(self, grading, boundary_pieces=bp)
            self._sections[key] = sp
        return sp


def _barycenter_choice(rule):
    if callable(rule):
        return rule
    if rule == "default":
        return fans.barycenter_default
    if rule == "alt":
        return fans.barycenter_alt
    raise ValueError(f"unknown barycenter rule {rule!r}")


def build_distinguished_pair(fan: Fan, rule="default"):
    """Distinguished pair of a complete fan, a closed star, or a single
    full-dimensional cone with its faces.  Simplicial fans keep their own
    cone structure; everything else gets the full barycentric subdivision."""
    choice = _barycenter_choice(rule)
    if fan.is_simplicial():
        subdivided, steps = fan, ()
    else:
        subdivided, steps = fans.barycentric_subdivision(fan, choice)
    pair = DistinguishedPair(fan, subdivided, steps,
                             rule=rule if isinstance(rule, str) else "custom")
    centers = {key: center for center, key in steps}
    n = fan.n
    for cid in sorted(fan.cones, key=lambda i: (fan.cones[i].dim, i)):
        c = fan.cones[cid]
        if c.is_simplicial():
            sec = {pid: Polynomial.constant(n, 1) for pid in pair.pieces(cid)}
            pair.stalks[cid] = StalkModule(cid, [(0, sec)])
            continue
        v = centers[c.rays]
        fb = flatten_boundary(c, v)
        lam_pair = _induced_lambda_pair(pair, cid, fb)
        link_mod = primitive_generator_lift(fb, lam_pair)
        vray = canonical_direction(v)
        remap = {}
        for pid in pair.pieces(cid):
            tkey = tuple(sorted(set(pair.subdivided.cones[pid].rays)
                                - {vray}))
            bkey = tuple(sorted(canonical_direction(fb.project(r))
                                for r in tkey))
            remap[pid] = lam_pair.subdivided.id_by_key[bkey]
        gens = []
        for g, sec in link_mod.generators:
            gens.append((g, {pid: sec[remap[pid]]
                             for pid in pair.pieces(cid)}))
        pair.stalks[cid] = StalkModule(cid, gens)
    return pair


def _induced_lambda_pair(pair: DistinguishedPair, cid, fb: FlattenedBoundary):
    """The distinguished pair on the flattened boundary induced by the
    ambient pair: subdivision and stalks are pushed forward through the
    flattening, so generator sections stay adapted to the ambient
    subdivision."""
    fan = pair.fan
    cone = fan.cones[cid]
    m = cone.dim - 1

    def proj_key(tid):
        return tuple(sorted(canonical_direction(fb.project(r))
                            for r in pair.subdivided.cones[tid].rays))

    keys = []
    for fkey, lamid in fb.face_to_lam.items():
        if fb.lam.cones[lamid].dim == m:
            tau_id = fan.id_by_key[fkey]
            for pid in pair.pieces(tau_id):
                keys.append(proj_key(pid))
    lam_sub = Fan(m, fb.lam.field, keys, check=False)
    stalks = {}
    for fkey, lamid in fb.face_to_lam.items():
        tau_id = fan.id_by_key[fkey]
        lift = fb.lift_rows(fkey)
        gens = []
        for g, sec in pair.stalks[tau_id].generators:
            gens.append((g, {lam_sub.id_by_key[proj_key(pid)]:
                             poly.compose(lift)
                             for pid, poly in sec.items()}))
        stalks[lamid] = StalkModule(lamid, gens)
    return DistinguishedPair(fb.lam, lam_sub, (), rule=pair.rule,
                             stalks=stalks)


# -- graded section algebra -------------------------------------------------


def _shift_var(vecm, i):
    out = {}
    for (mid, j, e), c in vecm.items():
        e2 = list(e)
        e2[i] += 1
        out[(mid, j, tuple(e2))] = c
    return out


def _mul_pl(vecm, l):
    out = {}
    for (mid, j, e), c in vecm.items():
        form = l.per_max[mid]
        for i, li in enumerate(form):
            if li:
                e2 = list(e)
                e2[i] += 1
                k = (mid, j, tuple(e2))
                s = out.get(k, ZERO) + li * c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return out


class GradedIH:
    """Graded section spaces of a pair up to a grading cap, the ideal
    multiples, chosen complement representatives (the cohomology basis),
    and matrices of multiplication operators."""

    __slots__ = ("pair", "cap", "relative", "spaces", "spanning", "comps",
                 "h", "_express_cache", "_step_cache")

    def __init__(self, pair: DistinguishedPair, cap=None, relative=False):
        self.pair = pair
        n = pair.fan.n
        self.cap = 2 * n if cap is None else cap
        self.relative = relative
        self.spaces = {}
        self.spanning = {}
        self.comps = {}
        self.h = {}
        self._express_cache = {}
        self._step_cache = {}
        for d in range(0, self.cap + 1, 2):
            sp = pair.section_space(d, relative=relative)
            self.spaces[d] = sp
            ech = {}
            spanning = []
            comps = []
            if d - 2 in self.spaces:
                for b in self.spaces[d - 2].basis:
                    for i in range(n):
                        w = _shift_var(b, i)
                        if echelon_insert(ech, w) is not None:
                            spanning.append(w)
            for b in sp.basis:
                if echelon_insert(ech, b) is not None:
                    spanning.append(b)
                    comps.append(b)
            self.spanning[d] = spanning
            self.comps[d] = comps
            self.h[d] = len(comps)

    def h_vector(self):
        return tuple(self.h[d] for d in range(0, self.cap + 1, 2))

    def express(self, d, targets):
        """Coordinates of section vectors over the stored spanning list
        (ideal multiples first, then complement representatives)."""
        spanning = self.spanning[d]
        ns = len(spanning)
        rows_by_coord = {}
        for si, svec in enumerate(spanning):
            for coord, c in svec.items():
                rows_by_coord.setdefault(coord, {})[si] = c
        for ti, tvec in enumerate(targets):
            for coord, c in tvec.items():
                rows_by_coord.setdefault(coord, {})[ns + ti] = -c
        rows = [rows_by_coord[k] for k in sorted(rows_by_coord)]
        pivots = sparse_eliminate(rows)
        for col, _ in pivots:
            if col >= ns:
                raise ValueError("section does not lie in the stored space")
        out = [dict() for _ in targets]
        for col, row in pivots:
            for ti in range(len(targets)):
                v = row.get(ns + ti)
                if v:
                    out[ti][col] = -v
        return out

    def class_coords(self, d, targets):
        """Coordinates over the complement representatives (the class
        modulo ideal multiples)."""
        full = self.express(d, targets)
        ncomp = self.h[d]
        base = len(self.spanning[d]) - ncomp
        return [
            tuple(f.get(base + i, ZERO) for i in range(ncomp)) for f in full]

    def step_matrix(self, d, l):
        """Matrix of multiplication by the conewise linear l from the
        grading-d classes to the grading-(d+2) classes, cached by the value
        of l (its linear form on each maximal cone)."""
        key = (d, tuple(sorted(l.per_max.items())))
        m = self._step_cache.get(key)
        if m is None:
            imgs = [_mul_pl(r, l) for r in self.comps[d]]
            coords = self.class_coords(d + 2, imgs)
            m = Matrix([[coords[j][i] for j in range(len(imgs))]
                        for i in range(self.h[d + 2])],
                       ncols=len(imgs))
            self._step_cache[key] = m
        return m

    def composed_steps(self, l, d, upto):
        """Matrix of multiplication by l^((upto-d)/2): grading d -> upto."""
        if upto == d:
            k = self.h[d]
            return Matrix([[ONE if i == j else ZERO for j in range(k)]
                           for i in range(k)], ncols=k)
        m = self.step_matrix(d, l)
        e = d + 2
        while e < upto:
            m = self.step_matrix(e, l).mul(m)
            e += 2
        return m

    def primitive_coeffs(self, d, l):
        """Kernel of one Lefschetz power beyond the duality-pairing one, in
        class coordinates at grading d."""
        n2 = self.cap
        target = n2 - d + 2
        k = self.h[d]
        if target > n2:
            # the power lands above the top grading, so everything is
            # primitive
            return [tuple(ONE if i == j else ZERO for j in range(k))
                    for i in range(k)]
        mat = self.composed_steps(l, d, target)
        return kernel_basis(mat)

    def primitive_reps(self, d, l):
        reps = []
        for coeff in self.primitive_coeffs(d, l):
            vecm = {}
            for c, comp in zip(coeff, self.comps[d]):
                if not c:
                    continue
                for k2, v2 in comp.items():
                    s = vecm.get(k2, ZERO) + c * v2
                    if s:
                        vecm[k2] = s
                    else:
                        vecm.pop(k2, None)
            reps.append(vecm)
        return reps


def primitive_generator_lift(fb: FlattenedBoundary, lam_pair):
    """Stalk module of the flattened cone: the grading-0 constant plus, for
    each grading up to the middle, pullbacks of primitive representatives of
    the lower-dimensional cohomology under the flattening projection.
    Sections are keyed by the subdivided cones of the flattened boundary;
    polynomials are already composed with the projection (ambient
    variables).  Raises when a Lefschetz kernel has unexpected dimension."""
    m = fb.lam.n
    n = fb.cone.n
    gih = GradedIH(lam_pair, cap=2 * m)
    gens = [(0, {bid: Polynomial.constant(n, 1)
                 for bid in lam_pair.subdivided.maximal_ids})]
    for d in range(2, m + 1, 2):
        reps = gih.primitive_reps(d, fb.lam_l)
        expected = gih.h[d] - gih.h.get(d - 2, 0)
        if len(reps) != expected:
            raise ValueError(
                "hard Lefschetz failure in a flattened boundary: primitive "
                f"space at grading {d} has dim {len(reps)}, expected "
                f"{expected}")
        for r in reps:
            sec = gih.spaces[d].materialize(r)
            amb = {bid: p.compose(fb.proj.entries) for bid, p in sec.items()}
            gens.append((d, amb))
    return StalkModule(fb.cone.id, gens)


# -- public section spaces -------------------------------------------------


def global_sections(pair: DistinguishedPair, cap=None):
    """Graded bases of the section spaces, as conewise functions on the
    subdivided fan; gradings 0, 2, ..., cap (default twice the ambient
    dimension)."""
    cap = 2 * pair.fan.n if cap is None else cap
    out = {}
    for d in range(0, cap + 1, 2):
        sp = pair.section_space(d)
        out[d] = [sp.as_function(v) for v in sp.basis]
    return out


def relative_sections(pair: DistinguishedPair, boundary=None, cap=None):
    """Graded bases of the sections vanishing on the boundary subfan.
    boundary: coarse (n-1)-cone ids, default the full topological boundary;
    errors when the pair has no boundary and one was expected."""
    cap = 2 * pair.fan.n if cap is None else cap
    if boundary is not None:
        allowed = set()
        for cid in boundary:
            c = pair.fan.cones[cid]
            if c.dim != pair.fan.n - 1:
                raise ValueError("boundary cones must have codimension 1")
            allowed.update(pair.pieces(cid))
        bp = frozenset(allowed)
        if not bp <= pair.boundary_piece_ids():
            raise ValueError("listed cones are not boundary cones")
    else:
        bp = pair.boundary_piece_ids()
    out = {}
    for d in range(0, cap + 1, 2):
        sp = _Sections(pair, d, boundary_pieces=bp)
        out[d] = [sp.as_function(v) for v in sp.basis]
    return out


# -- pair serialization ----------------------------------------------------


def pair_to_json_dict(pair: DistinguishedPair):
    from .conewise import _exp_key
    stalks = {}
    for cid in sorted(pair.stalks):
        gens = []
        for g, sec in pair.stalks[cid].generators:
            gens.append([g, {str(pid): {_exp_key(e): format_scalar(c)
                                        for e, c in sorted(p.coeffs.items())}
                             for pid, p in sorted(sec.items())}])
        stalks[str(cid)] = gens
    return {
        "fan": pair.fan.to_json_dict(),
        "rule": pair.rule,
        "steps": [format_vector(center) for center, _ in pair.steps],
        "stalks": stalks,
    }


def pair_from_json_dict(obj):
    """Rebuild a pair from a dump: the fan is reconstructed, the recorded
    star subdivisions are replayed (ids are deterministic), and the stored
    generator sections are attached without recomputation."""
    from .conewise import _parse_exp
    fan = fans.fan_from_json_dict(obj["fan"], check=True)
    field = fan.field
    centers = [parse_vector(v, field) for v in obj.get("steps", [])]
    current = fan
    steps = []
    for v in centers:
        home = current.locate(v)
        if home is None:
            raise ValueError("subdivision center outside the fan")
        key = current.cones[home].rays
        current, _ = fans.star_subdivision(current, v)
        steps.append((v, key))
    pair = DistinguishedPair(fan, current, steps,
                             rule=obj.get("rule", "default"))
    n = fan.n
    for cid_s, gens in obj["stalks"].items():
        cid = int(cid_s)
        if cid not in fan.cones:
            raise ValueError(f"unknown cone id {cid} in pair dump")
        parsed = []
        for g, sec in gens:
            g = int(g)
            if g % 2:
                raise ValueError("stalk generator gradings must be even")
            entry = {}
            for pid_s, coeffs in sec.items():
                pid = int(pid_s)
                if pid not in pair.subdivided.cones:
                    raise ValueError(f"unknown subdivided cone id {pid}")
                entry[pid] = Polynomial(n, {
                    _parse_exp(es, n): field.parse(cs) if isinstance(cs, str)
                    else sc(cs) for es, cs in coeffs.items()})
            parsed.append((g, entry))
        pair.stalks[cid] = StalkModule(cid, parsed)
    for cid in fan.cones:
        if cid not in pair.stalks:
            raise ValueError(f"pair dump is missing the stalk of cone {cid}")
    return pair
