"""Pointed polyhedral cones, fans with explicit face lattices, star and
barycentric subdivision, polytope ingestion (face fan and normal fan), and
products / skew products.

Conventions.  A ray is stored by its canonical generator: the vector scaled
so its first nonzero coordinate has absolute value 1 (positive rescaling
preserves the ray, so this is a complete invariant).  A cone is identified
by its sorted tuple of canonical extreme-ray generators.  All face, facet
and intersection computations are exact brute force over generator subsets;
ambient dimensions stay small (<= 5) so the exponential enumeration is fine.

Fan cone ids are assigned by sorting all cones by (dimension, ray key), so
ids are stable across runs and across re-parsing of emitted JSON.
"""

from __future__ import annotations

import itertools
import json

from .exactlin import (
    Matrix,
    Scalar,
    ScalarField,
    ZERO,
    ONE,
    echelon_reduce,
    first_independent,
    format_scalar,
    kernel_basis,
    parse_scalar,
    rank,
    rref,
    sc,
    solve,
)

# -- vector helpers --------------------------------------------------------


def vec(coords):
    return tuple(sc(x) for x in coords)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def vdot(u, v):
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def vneg(u):
    return tuple(-a for a in u)


def is_zero_vec(u):
    return all(x.is_zero() for x in u)


def canonical_direction(u):
    """Scale so the first nonzero coordinate has absolute value 1; this is
    the canonical representative of a ray (or of a covector up to positive
    scale)."""
    for x in u:
        if x:
            return vscale(abs(x).inverse(), u)
    raise ValueError("zero vector has no direction")


def _parse_coord(x, field):
    if isinstance(x, int):
        return sc(x)
    if isinstance(x, str):
        return field.parse(x) if field else parse_scalar(x)
    raise ValueError(f"bad coordinate {x!r} (use integers or scalar literals)")


def parse_vector(coords, field=None):
    return tuple(_parse_coord(x, field) for x in coords)


def format_vector(u):
    return [format_scalar(x) for x in u]


# -- cone geometry (cached by ray key) -------------------------------------

_geom_cache = {}


def _membership(x, gens, dim):
    """Is x in the cone generated by gens?  Via Caratheodory: x is a
    nonnegative combination of some independent subset of size <= dim."""
    if is_zero_vec(x):
        return True
    if not gens:
        return False
    n = len(x)
    idx = list(range(len(gens)))
    for size in range(1, dim + 1):
        for sub in itertools.combinations(idx, size):
            cols = Matrix([[gens[i][r] for i in sub] for r in range(n)])
            if rank(cols) < size:
                continue
            c = solve(cols, x)
            if c is not None and all(t.sign() >= 0 for t in c):
                return True
    return False


def _extreme_rays(gens, dim):
    kept = list(gens)
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1:]
        if _membership(kept[i], rest, dim):
            kept.pop(i)
        else:
            i += 1
    return tuple(kept)


class _ConeGeometry:
    """Shared exact data for the cone with a given canonical ray set."""

    __slots__ = ("n", "rays", "dim", "equations", "facet_forms",
                 "facet_ray_keys", "_faces")

    def __init__(self, rays, n):
        self.n = n
        self.rays = rays
        gen_matrix = Matrix(list(rays), ncols=n)
        self.dim = rank(gen_matrix)
        # covectors vanishing on the span, as a reduced echelon basis
        self.equations = rref(Matrix(kernel_basis(gen_matrix), ncols=n))
        self.facet_forms, self.facet_ray_keys = self._facets()
        self._faces = None

    def _facets(self):
        d = self.dim
        if d == 0:
            return (), ()
        forms = {}
        eqs = {p: {j: x for j, x in enumerate(row) if x}
               for p, row in self.equations}
        idx = list(range(len(self.rays)))
        for sub in itertools.combinations(idx, d - 1):
            sub_m = Matrix([self.rays[i] for i in sub], ncols=self.n)
            if rank(sub_m) < d - 1:
                continue
            for w in kernel_basis(sub_m):
                vals = [vdot(w, r) for r in self.rays]
                signs = {v.sign() for v in vals}
                if signs <= {0}:
                    continue  # an equation, not a facet form
                if 1 in signs and -1 in signs:
                    continue  # not supporting
                if -1 in signs:
                    w = vneg(w)
                    vals = [-v for v in vals]
                # the facet form modulo the equations, zero at their pivots
                w = echelon_reduce(eqs, dict(enumerate(w)))
                w = canonical_direction(tuple(w.get(j, ZERO)
                                              for j in range(self.n)))
                on = tuple(sorted(self.rays[i] for i, v in enumerate(vals)
                                  if v.is_zero()))
                forms[w] = on
        keys = sorted(forms)
        return tuple(keys), tuple(forms[w] for w in keys)

    def contains(self, x):
        return all(vdot(e[1], x).is_zero() for e in self.equations) and \
            all(vdot(w, x).sign() >= 0 for w in self.facet_forms)

    def contains_relint(self, x):
        if self.dim == 0:
            return is_zero_vec(x)
        return all(vdot(e[1], x).is_zero() for e in self.equations) and \
            all(vdot(w, x).sign() > 0 for w in self.facet_forms)

    def face_ray_keys(self):
        """Ray keys of all faces, the cone itself and {0} included."""
        if self._faces is None:
            seen = {self.rays, ()}
            stack = list(self.facet_ray_keys)
            while stack:
                k = stack.pop()
                if k in seen:
                    continue
                seen.add(k)
                stack.extend(cone_geometry(k, self.n).facet_ray_keys)
            self._faces = frozenset(seen)
        return self._faces


def cone_geometry(rays_key, n):
    g = _geom_cache.get((rays_key, n))
    if g is None:
        g = _ConeGeometry(rays_key, n)
        _geom_cache[(rays_key, n)] = g
    return g


class Cone:
    """A pointed polyhedral cone inside some fan; geometry is shared through
    a cache keyed by the canonical ray set."""

    __slots__ = ("id", "rays", "dim", "n", "_geom")

    def __init__(self, rays_key, n, cid=None):
        self.id = cid
        self.rays = rays_key
        self.n = n
        self._geom = cone_geometry(rays_key, n)
        self.dim = self._geom.dim

    @staticmethod
    def from_generators(gens, n, field=None):
        gens = [vec(g) for g in gens]
        for g in gens:
            if len(g) != n:
                raise ValueError("generator length does not match ambient dim")
        gens = [canonical_direction(g) for g in gens if not is_zero_vec(g)]
        gens = sorted(set(gens))
        d = rank(Matrix(gens, ncols=n)) if gens else 0
        for g in gens:
            if _membership(vneg(g), gens, d):
                raise ValueError("cone is not pointed")
        extreme = tuple(sorted(_extreme_rays(gens, d)))
        if len(extreme) != len(gens):
            raise ValueError("redundant generator: not an extreme ray")
        return Cone(extreme, n)

    def contains(self, x):
        return self._geom.contains(x)

    def contains_relint(self, x):
        return self._geom.contains_relint(x)

    def is_simplicial(self):
        return len(self.rays) == self.dim

    def equations(self):
        """Echelon basis of covectors vanishing on the span."""
        return self._geom.equations

    def facet_forms(self):
        return self._geom.facet_forms

    def face_ray_keys(self):
        return self._geom.face_ray_keys()

    def span_basis(self):
        """Deterministic basis of the span: first-independent generators."""
        return first_independent(self.rays)

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={[format_vector(r) for r in self.rays]})"


def cone_faces(c: Cone):
    """All faces of the cone, {0} and the cone itself included."""
    keys = sorted(c.face_ray_keys(), key=lambda k: (cone_geometry(k, c.n).dim, k))
    return [Cone(k, c.n) for k in keys]


def _separating_form(g1, g2, n):
    """A facet form of g1 that is nonpositive on g2 (or the mirrored case,
    returned with sign making it >= 0 on g1)."""
    for w in g1.facet_forms:
        if all(vdot(w, r).sign() <= 0 for r in g2.rays):
            return w
    for w in g2.facet_forms:
        if all(vdot(w, r).sign() <= 0 for r in g1.rays):
            return vneg(w)
    return None


def _intersect_keys(g1, g2, n):
    """Extreme rays of the intersection, by brute force over supporting
    constraint subsets of the combined H-representation."""
    forms = sorted(set(g1.facet_forms) | set(g2.facet_forms)
                   | {vneg(w) for w in g2.facet_forms if w in g1.facet_forms})
    eqs = rref(Matrix([row for _, row in g1.equations]
                      + [row for _, row in g2.equations], ncols=n))
    base_rank = len(eqs)
    found = set()

    def ok(x):
        return g1.contains(x) and g2.contains(x)

    want = n - 1 - base_rank
    if want < 0:
        return ()
    for sub in itertools.combinations(range(len(forms)), want):
        rows = [row for _, row in eqs] + [forms[i] for i in sub]
        if rows:
            if rank(Matrix(rows, ncols=n)) != n - 1:
                continue
            kb = kernel_basis(Matrix(rows, ncols=n))
        else:
            continue
        if len(kb) != 1:
            continue
        cand = kb[0]
        if ok(cand):
            found.add(canonical_direction(cand))
        if ok(vneg(cand)):
            found.add(canonical_direction(vneg(cand)))
    return tuple(sorted(found))


def _common_face_check(k1, k2, n, depth=0):
    """True when cone(k1) and cone(k2) intersect in a common face.  Fast
    path: peel off a separating facet form and recurse; falls back to a
    brute-force intersection test."""
    if k1 == k2:
        return True
    g1, g2 = cone_geometry(k1, n), cone_geometry(k2, n)
    if depth < 6:
        w = _separating_form(g1, g2, n)
        if w is not None:
            f1 = tuple(r for r in k1 if vdot(w, r).is_zero())
            f2 = tuple(r for r in k2 if vdot(w, r).is_zero())
            return _common_face_check(f1, f2, n, depth + 1)
    inter = _intersect_keys(g1, g2, n)
    return inter in g1.face_ray_keys() and inter in g2.face_ray_keys()


def intersect_cones(c1: Cone, c2: Cone):
    return Cone(_intersect_keys(c1._geom, c2._geom, c1.n), c1.n)


# -- fans ------------------------------------------------------------------


class Fan:
    """Finite fan with full face lattice.

    cones: id -> Cone, ids assigned by sorting all cones by (dim, ray key).
    maximal_ids: ids of cones that are not proper faces of another cone.
    """

    __slots__ = ("n", "field", "cones", "maximal_ids", "id_by_key",
                 "faces_of", "cofaces_of")

    def __init__(self, n, field, cone_keys, check=True):
        self.n = n
        self.field = field or ScalarField()
        all_keys = set()
        for k in cone_keys:
            g = cone_geometry(k, n)
            all_keys |= g.face_ray_keys()
        ordered = sorted(all_keys, key=lambda k: (cone_geometry(k, n).dim, k))
        self.cones = {}
        self.id_by_key = {}
        for cid, k in enumerate(ordered):
            self.cones[cid] = Cone(k, n, cid)
            self.id_by_key[k] = cid
        self.faces_of = {}
        self.cofaces_of = {cid: [] for cid in self.cones}
        for cid, c in self.cones.items():
            fids = sorted(self.id_by_key[k] for k in c.face_ray_keys()
                          if k != c.rays)
            self.faces_of[cid] = tuple(fids)
            for f in fids:
                self.cofaces_of[f].append(cid)
        self.cofaces_of = {cid: tuple(v) for cid, v in self.cofaces_of.items()}
        self.maximal_ids = tuple(sorted(
            cid for cid in self.cones if not self.cofaces_of[cid]))
        if check:
            self._check_axioms()

    def _check_axioms(self):
        mx = self.maximal_ids
        for i, a in enumerate(mx):
            for b in mx[i + 1:]:
                if not _common_face_check(self.cones[a].rays,
                                          self.cones[b].rays, self.n):
                    raise ValueError(
                        "fan axiom violation: cones %r and %r do not meet in "
                        "a common face" % (self.cones[a], self.cones[b]))

    # -- structure ---------------------------------------------------------

    def cone(self, cid):
        return self.cones[cid]

    def cones_of_dim(self, d):
        return [c for c in self.cones.values() if c.dim == d]

    def ray_ids(self):
        return [c.id for c in self.cones_of_dim(1)]

    def rays(self):
        return [self.cones[i].rays[0] for i in self.ray_ids()]

    def zero_id(self):
        return self.id_by_key[()]

    def meet_id(self, a, b):
        """Id of the intersection cone (largest common face)."""
        key = tuple(sorted(set(self.cones[a].rays) & set(self.cones[b].rays)))
        return self.id_by_key[key]

    def star_ids(self, cid):
        """Cones having cid as a face (cid itself included)."""
        return (cid,) + self.cofaces_of[cid]

    def locate(self, x):
        """Id of the unique cone containing x in its relative interior, or
        None when x is outside the support."""
        for cid in sorted(self.cones, key=lambda i: self.cones[i].dim):
            if self.cones[cid].contains_relint(x):
                return cid
        return None

    def subfan(self, cone_ids, check=False):
        keys = [self.cones[i].rays for i in cone_ids]
        return Fan(self.n, self.field, keys, check=check)

    def is_simplicial(self):
        return all(self.cones[i].is_simplicial() for i in self.maximal_ids)

    def max_key_set(self):
        return frozenset(self.cones[i].rays for i in self.maximal_ids)

    def __eq__(self, other):
        return isinstance(other, Fan) and self.n == other.n and \
            self.field == other.field and self.max_key_set() == other.max_key_set()

    def __repr__(self):
        return f"Fan(n={self.n}, cones={len(self.cones)}, maximal={len(self.maximal_ids)})"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        ray_list = self.rays()
        index = {r: i for i, r in enumerate(ray_list)}
        mx = sorted(sorted(index[r] for r in self.cones[m].rays)
                    for m in self.maximal_ids)
        return {
            "field": self.field.to_json(),
            "dim": self.n,
            "rays": [format_vector(r) for r in ray_list],
            "maximal_cones": mx,
        }

    def canonical_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))


def fan_from_json_dict(obj, check=True):
    field = ScalarField.from_json(obj["field"])
    n = int(obj["dim"])
    rays = [parse_vector(r, field) for r in obj["rays"]]
    for r in rays:
        if len(r) != n:
            raise ValueError("ray length does not match dim")
    gen_sets = []
    for c in obj["maximal_cones"]:
        if any(not 0 <= i < len(rays) for i in c):
            raise ValueError(f"maximal cone {c} names a ray index outside "
                             f"0..{len(rays) - 1}")
        gen_sets.append([rays[i] for i in c])
    return build_fan(n, gen_sets, field=field, check=check)


def build_fan(ambient_dim, max_generator_sets, field=None, check=True):
    """Build a fan from generator sets of its maximal cones.

    Validates pointedness and that the listed generators are extreme; with
    check=True also verifies the pairwise common-face axiom and reports the
    offending pair on failure.
    """
    keys = []
    for gens in max_generator_sets:
        c = Cone.from_generators(gens, ambient_dim, field)
        keys.append(c.rays)
    if not keys:
        keys = [()]
    fan = Fan(ambient_dim, field, keys, check=check)
    max_keys = {fan.cones[m].rays for m in fan.maximal_ids}
    for k in keys:
        if k not in max_keys:
            raise ValueError(
                "listed cone with rays %s is a face of another listed cone" %
                ([format_vector(r) for r in k],))
    return fan


def star_link(fan: Fan, cid):
    """(Star as a tuple of cone ids, closed star as a Fan, link as a Fan)."""
    if cid not in fan.cones:
        raise ValueError(f"cone {cid} not in fan")
    star = fan.star_ids(cid)
    closed = fan.subfan(star)
    srays = set(fan.cones[cid].rays)
    link_ids = []
    for did in star:
        for f in (did,) + fan.faces_of[did]:
            if not (set(fan.cones[f].rays) & srays):
                link_ids.append(f)
    link = fan.subfan(sorted(set(link_ids)))
    return star, closed, link


def boundary_facet_ids(fan: Fan):
    """(n-1)-cones lying in exactly one maximal cone; empty for complete
    fans."""
    out = []
    for c in fan.cones_of_dim(fan.n - 1):
        mx = [m for m in fan.maximal_ids if c.id == m or c.id in fan.faces_of[m]]
        if len(mx) == 1:
            out.append(c.id)
    return out


def boundary_subfan_ids(fan: Fan):
    """All cone ids of the boundary subfan (faces of boundary facets)."""
    ids = set()
    for b in boundary_facet_ids(fan):
        ids.add(b)
        ids.update(fan.faces_of[b])
    return sorted(ids)


def is_complete(fan: Fan):
    """Completeness via the standard criterion for pure fans: every maximal
    cone has full dimension, every (n-1)-cone is a facet of exactly two
    maximal cones, and the maximal cones are facet-connected."""
    if fan.n == 0:
        return () in fan.id_by_key
    mx = fan.maximal_ids
    if not mx:
        return False
    if any(fan.cones[m].dim != fan.n for m in mx):
        return False
    adj = {m: [] for m in mx}
    for c in fan.cones_of_dim(fan.n - 1):
        owners = [m for m in mx if c.id in fan.faces_of[m]]
        if len(owners) != 2:
            return False
        adj[owners[0]].append(owners[1])
        adj[owners[1]].append(owners[0])
    seen = {mx[0]}
    stack = [mx[0]]
    while stack:
        for o in adj[stack.pop()]:
            if o not in seen:
                seen.add(o)
                stack.append(o)
    return len(seen) == len(mx)


# -- conewise linear functions ---------------------------------------------


class PLFunction:
    """Conewise linear function: one exact linear form per maximal cone,
    agreeing on shared faces (checked on shared rays)."""

    __slots__ = ("fan", "per_max")

    def __init__(self, fan: Fan, per_max, check=True):
        self.fan = fan
        self.per_max = {m: vec(form) for m, form in per_max.items()}
        if set(self.per_max) != set(fan.maximal_ids):
            raise ValueError("need exactly one linear form per maximal cone")
        for form in self.per_max.values():
            if len(form) != fan.n:
                raise ValueError("form length does not match ambient dim")
        if check:
            self._check_agreement()

    def _check_agreement(self):
        mx = self.fan.maximal_ids
        for i, a in enumerate(mx):
            for b in mx[i + 1:]:
                common = set(self.fan.cones[a].rays) & set(self.fan.cones[b].rays)
                for r in common:
                    if (vdot(self.per_max[a], r) - vdot(self.per_max[b], r)):
                        raise ValueError(
                            "linear forms disagree on shared ray %s" %
                            (format_vector(r),))

    def value(self, x):
        for m in self.fan.maximal_ids:
            if self.fan.cones[m].contains(x):
                return vdot(self.per_max[m], x)
        raise ValueError("point outside the fan support")

    def on_cone(self, m):
        return self.per_max[m]

    @staticmethod
    def from_ray_values(fan: Fan, values):
        """Build from prescribed values on the canonical ray generators;
        values: ray cone id -> Scalar.  Errors when some maximal cone admits
        no linear form with those ray values."""
        per_max = {}
        rid = {fan.cones[i].rays[0]: i for i in fan.ray_ids()}
        for m in fan.maximal_ids:
            c = fan.cones[m]
            rows = [list(r) for r in c.rays]
            rhs = [sc(values[rid[r]]) for r in c.rays]
            form = solve(Matrix(rows, ncols=fan.n), rhs)
            if form is None:
                raise ValueError(
                    "no linear form matches the ray values on cone %r" % c)
            per_max[m] = form
        return PLFunction(fan, per_max)


def is_strictly_convex(fan: Fan, l: PLFunction):
    """l_sigma(u) < l(u) for every maximal sigma and every fan ray generator
    u outside sigma; ray generators suffice by conewise linearity."""
    if not is_complete(fan):
        raise ValueError("strict convexity is defined for complete fans here")
    ray_vecs = fan.rays()
    for m in fan.maximal_ids:
        c = fan.cones[m]
        for u in ray_vecs:
            if u in c.rays:
                continue
            if (vdot(l.per_max[m], u) - l.value(u)).sign() >= 0:
                return False
    return True


# -- subdivision -----------------------------------------------------------


def star_subdivision(fan: Fan, v):
    """Star subdivision at the ray through v.

    Returns (new fan, map old maximal id -> tuple of new maximal ids).  When
    v lies in a cone of dimension < 2 the fan is returned unchanged.  Errors
    when v = 0, v is outside the support, or some cone containing the
    subdivided cone does not split off a complementary face.
    """
    v = vec(v)
    if is_zero_vec(v):
        raise ValueError("cannot subdivide at the zero vector")
    home = fan.locate(v)
    if home is None:
        raise ValueError("subdivision center lies outside the fan support")
    sigma = fan.cones[home]

    def remap(newfan, pieces_by_old):
        out = {}
        for m in fan.maximal_ids:
            if m in pieces_by_old:
                out[m] = tuple(sorted(newfan.id_by_key[k]
                                      for k in pieces_by_old[m]))
            else:
                out[m] = (newfan.id_by_key[fan.cones[m].rays],)
        return out

    if sigma.dim < 2:
        return fan, remap(fan, {})

    vray = canonical_direction(v)
    srays = set(sigma.rays)
    new_keys = []
    pieces_by_old = {}
    facets = [k for k in sigma.face_ray_keys()
              if cone_geometry(k, fan.n).dim == sigma.dim - 1]
    for m in fan.maximal_ids:
        delta = fan.cones[m]
        if home != m and home not in fan.faces_of[m]:
            new_keys.append(delta.rays)
            continue
        comp = tuple(sorted(set(delta.rays) - srays))
        if comp not in fan.id_by_key:
            raise ValueError(
                "no local product structure: complementary rays of %r over "
                "%r do not span a face" % (delta, sigma))
        rho = fan.cones[fan.id_by_key[comp]]
        if rho.dim + sigma.dim != delta.dim:
            raise ValueError(
                "no local product structure at %r: dimensions do not split" %
                (delta,))
        pieces = []
        for fk in sorted(facets):
            piece = tuple(sorted(set(fk) | set(comp) | {vray}))
            pieces.append(piece)
            new_keys.append(piece)
        pieces_by_old[m] = pieces
    newfan = Fan(fan.n, fan.field, new_keys, check=False)
    return newfan, remap(newfan, pieces_by_old)


def barycenter_default(cone: Cone):
    """Sum of the generators, each scaled to coordinate-sum 1 when that sum
    is positive, else to unit sup-norm."""
    total = None
    for g in cone.rays:
        s = ZERO
        for x in g:
            s = s + x
        if s.sign() > 0:
            g = vscale(s.inverse(), g)
        else:
            m = max((abs(x) for x in g))
            g = vscale(m.inverse(), g)
        total = g if total is None else vadd(total, g)
    return total


def barycenter_alt(cone: Cone):
    """Alternate rule: every generator scaled to unit sup-norm."""
    total = None
    for g in cone.rays:
        m = max(abs(x) for x in g)
        g = vscale(m.inverse(), g)
        total = g if total is None else vadd(total, g)
    return total


def barycentric_subdivision(fan: Fan, barycenter_choice=None):
    """Full barycentric subdivision: star subdivisions at a chosen relative
    interior point of every cone of dim >= 2, by decreasing dimension.

    Returns (subdivided fan, steps); each step is (center vector, ray key of
    the original cone it subdivides).  The result is simplicial.
    """
    choice = barycenter_choice or barycenter_default
    current = fan
    steps = []
    todo = sorted((c for c in fan.cones.values() if c.dim >= 2),
                  key=lambda c: (-c.dim, c.id))
    for orig in todo:
        v = vec(choice(orig))
        if not orig.contains_relint(v):
            raise ValueError("barycenter choice left the relative interior")
        current, _ = star_subdivision(current, v)
        steps.append((v, orig.rays))
    return current, tuple(steps)


def apply_subdivision_steps(fan: Fan, centers):
    """Replay a recorded sequence of star subdivisions."""
    current = fan
    for v in centers:
        current, _ = star_subdivision(current, v)
    return current


# -- polytopes -------------------------------------------------------------


def _lifted_hull_facets(vertices, n):
    """Facets of conv(vertices) via the cone over the lifted points.
    Returns (facet list as tuples of vertex indices, outer forms (beta, c)
    with beta . x <= c on the polytope, equality on the facet)."""
    lifted = [tuple(list(v) + [ONE]) for v in vertices]
    c = Cone.from_generators(lifted, n + 1)
    if c.dim != n + 1:
        raise ValueError("polytope is not full-dimensional")
    by_key = {}
    for i, l in enumerate(lifted):
        by_key[canonical_direction(l)] = i
    facets = []
    forms = []
    for w in c.facet_forms():
        idxs = tuple(sorted(by_key[r] for r in c.rays
                            if vdot(w, r).is_zero()))
        beta = vneg(w[:n])
        facets.append(idxs)
        forms.append((beta, w[n]))
    order = sorted(range(len(facets)), key=lambda i: facets[i])
    return [facets[i] for i in order], [forms[i] for i in order]


def face_fan(vertices, field=None):
    """Fan of cones over the proper faces of conv(vertices); the origin must
    be an interior point."""
    fan, _ = face_fan_with_support(vertices, field)
    return fan


def face_fan_with_support(vertices, field=None):
    """Face fan plus its canonical strictly convex function: on the cone
    over a facet F, the unique linear form equal to 1 on F."""
    vertices = [vec(v) for v in vertices]
    n = len(vertices[0])
    facets, _ = _lifted_hull_facets(vertices, n)
    cone_forms = []
    for idxs in facets:
        rows = [list(vertices[i]) for i in idxs]
        alpha = solve(Matrix(rows, ncols=n), [ONE] * len(idxs))
        if alpha is None:
            raise ValueError("origin is not interior (a facet hyperplane "
                             "passes through it)")
        for j, v in enumerate(vertices):
            if j not in idxs and (ONE - vdot(alpha, v)).sign() <= 0:
                raise ValueError("origin is not interior to the hull")
        cone_forms.append(alpha)
    gen_sets = [[vertices[i] for i in idxs] for idxs in facets]
    fan = build_fan(n, gen_sets, field=field)
    per_max = {}
    for idxs, alpha in zip(facets, cone_forms):
        key = tuple(sorted(canonical_direction(vertices[i]) for i in idxs))
        per_max[fan.id_by_key[key]] = alpha
    return fan, PLFunction(fan, per_max)


def normal_fan(vertices, field=None):
    """Normal fan of conv(vertices) (one maximal cone per vertex) together
    with its support function max_x <x, v>, stored per maximal cone as the
    maximizing vertex."""
    vertices = [vec(v) for v in vertices]
    n = len(vertices[0])
    facets, forms = _lifted_hull_facets(vertices, n)
    hull_vertices = sorted({i for idxs in facets for i in idxs})
    gen_sets = []
    owners = []
    for vi in hull_vertices:
        normals = [forms[k][0] for k, idxs in enumerate(facets) if vi in idxs]
        gen_sets.append(normals)
        owners.append(vi)
    fan = build_fan(n, gen_sets, field=field)
    per_max = {}
    for gens, vi in zip(gen_sets, owners):
        key = tuple(sorted(canonical_direction(g) for g in gens))
        per_max[fan.id_by_key[key]] = vertices[vi]
    return fan, PLFunction(fan, per_max)


def polytope_from_json_dict(obj, check=True):
    """Returns (fan, canonical strictly convex PLFunction)."""
    field = ScalarField.from_json(obj["field"])
    vertices = [parse_vector(v, field) for v in obj["vertices"]]
    kind = obj.get("fan", "normal")
    if kind == "normal":
        return normal_fan(vertices, field=field)
    if kind == "face":
        return face_fan_with_support(vertices, field=field)
    raise ValueError(f"unknown fan kind {kind!r}")


# -- products --------------------------------------------------------------


def skew_product(f1: Fan, f2: Fan, phi=None):
    """Fan with cones (graph of phi over sigma) + delta in R^{n1+n2}.

    phi: maximal cone id of f1 -> tuple of n2 linear forms on R^{n1}
    (conewise linear map into the second factor's ambient space), required
    to agree on shared faces; phi = None means the zero map and recovers the
    ordinary product.
    """
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
                    va = tuple(vdot(row, r) for row in phi[a])
                    vb = tuple(vdot(row, r) for row in phi[b])
                    if va != vb:
                        raise ValueError("phi is incompatible on a shared face")

    def graph_gens(m):
        rows = phi[m]
        out = []
        for r in f1.cones[m].rays:
            out.append(tuple(list(r) + [vdot(row, r) for row in rows]))
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
    return build_fan(n, gen_sets, field=field, check=False)


def product_fan(f1: Fan, f2: Fan):
    """Ordinary product fan (the skew product along the zero map)."""
    return skew_product(f1, f2, None)
