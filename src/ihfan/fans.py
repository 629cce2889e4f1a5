"""Pointed polyhedral cones, fans with explicit face lattices, barycentric
subdivision of the nonsimplicial cones, polytope ingestion (face fan and
normal fan), and products.

Conventions.  A ray is stored by its canonical generator: the vector scaled
so its first nonzero coordinate has absolute value 1 (positive rescaling
preserves the ray, so this is a complete invariant).  A cone is identified
by its sorted tuple of canonical extreme-ray generators.  Facets, extreme
rays and intersections all come from one exact hull, ``_dd``, an
incremental double description over the scalar field: the facets of a cone
are the extreme rays of its dual, a generator g of a pointed cone is
extreme when the generators on every facet through g have only g in
common (every face of a pointed cone is an intersection of facets), and an
intersection is the hull of both cones' facet inequalities.  A cone's
dimension, equations, hull start, duals and determinant come from one
Gauss-Jordan elimination of its rays (``exactlin.dual_basis``), and so do
the conewise linear forms with given ray values
(``PLFunction.from_ray_values``).
Independent generators span a simplicial cone, which is pointed with every
generator extreme, so only dependent generator sets are checked for both,
on the facets of their hull.

Only a fan's listed cones get a hull: subdivision centers are checked and
faces tested on the maximal cones' facets and the fan's lattice
(``Fan.face_at``).

Fan cone ids are assigned by sorting all cones by (dimension, ray key), so
ids are stable across runs and across re-parsing of emitted JSON.
"""

from __future__ import annotations

import functools

from .exactlin import (
    ScalarField,
    ZERO,
    ONE,
    dual_basis,
    format_scalar,
    gram,
    json_int,
    json_list,
    json_scalar,
    radicand,
    sc,
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


def vneg(u):
    return tuple(-a for a in u)


def canonical_direction(u):
    """Scale so the first nonzero coordinate has absolute value 1; this is
    the canonical representative of a ray (or of a covector up to positive
    scale)."""
    for x in u:
        if x:
            s = abs(x)
            return tuple(u) if s == ONE else vscale(s.inverse(), u)
    raise ValueError("zero vector has no direction")


def parse_vector(coords, field=None, what="a vector"):
    """coords as a tuple of scalars of field; anything but a list or a
    tuple (a string, say) raises ValueError naming what coords is."""
    if not isinstance(coords, (list, tuple)):
        raise ValueError(f"{what} must be a list of coordinates, got "
                         f"{coords!r}")
    return tuple(json_scalar(x, field, "coordinate") for x in coords)


def format_vector(u):
    return [format_scalar(x) for x in u]


# -- cone geometry (cached by ray key) -------------------------------------


def _dd(rows, basis, duals):
    """Extreme rays of the pointed cone {y in span(duals) : a . y >= 0 for
    every row a}, each with the sorted indices of the rows it is zero on;
    duals[j] is 1 on rows[basis[j]] and 0 on the other basis rows, as
    dual_basis gives them.  Incremental double description (Motzkin et al.
    1953; Fukuda and Prodon 1996): start from the simplicial cone of the
    basis rows, whose rays are the duals, then add the other rows one at a
    time.  A new row keeps the rays on its nonnegative side and joins each
    adjacent pair of rays on opposite sides by the ray on its hyperplane;
    two rays are adjacent when they share at least k - 2 zero rows, k the
    number of duals, and no third ray is zero on all of those."""
    k = len(basis)
    if k == 0:
        return []
    # zero sets are bit masks over row indices; the j-th dual is zero on
    # every basis row but the j-th
    every = sum(1 << i for i in basis)
    rays = [(y, every & ~(1 << i)) for y, i in zip(duals, basis)]
    for i, a in enumerate(rows):
        if every >> i & 1:
            continue
        bit = 1 << i
        pos, neg, kept = [], [], []
        values = gram((a,), [r for r, _ in rays]).entries[0]
        for (r, z), v in zip(rays, values):
            if v.sign() < 0:
                neg.append((r, z, v))
            else:
                if v.sign() > 0:
                    pos.append((r, z, v))
                kept.append((r, z if v else z | bit))
        for rp, zp, vp in pos:
            for rm, zm, vm in neg:
                z = zp & zm
                if z.bit_count() < k - 2 or any(
                        w & z == z and w != zp and w != zm for _, w in rays):
                    continue
                kept.append((canonical_direction(
                    vsub(vscale(vp, rm), vscale(vm, rp))), z | bit))
        rays = kept
    return [(r, tuple(i for i in range(len(rows)) if z >> i & 1))
            for r, z in rays]


def _face_masks(facets, full):
    """The bit masks of every face of a pointed cone, the cone itself (full)
    and {0} (0) included, from the masks of its facets: each face is an
    intersection of facets (Ziegler 1995, Lectures on Polytopes, 2.2), and
    the rays of an intersection of faces are the rays they share."""
    faces = {full, 0}
    stack = [full]
    while stack:
        f = stack.pop()
        for m in facets:
            g = f & m
            if g not in faces:
                faces.add(g)
                stack.append(g)
    return faces


class _ConeGeometry:
    """Shared exact data for the cone with a given canonical ray set, read
    off the dual basis of its rays.  basis lists the indices of the rays
    independent of those before them, and duals[t] is 1 on rays[basis[t]],
    0 on the other basis rays and 0 at the equations' pivots.  The facet
    forms are the extreme rays of the dual cone modulo the equations: the
    hull started from the duals gives each form already reduced.
    facet_rows[i] lists the indices of the rays on the i-th facet."""

    __slots__ = ("n", "rays", "dim", "basis", "equations", "duals", "det",
                 "facet_forms", "facet_rows", "facet_ray_keys")

    def __init__(self, rays, n):
        self.n = n
        self.rays = rays
        basis, comp, cols, self.det = dual_basis(rays, n)
        self.basis = tuple(basis)
        self.dim = len(basis)
        self.duals = tuple(cols[:self.dim])
        self.equations = list(zip(comp, cols[self.dim:]))
        # _dd returns distinct rays, so the pairs sort by their forms
        facets = sorted((canonical_direction(y), on)
                        for y, on in _dd(rays, basis, self.duals))
        self.facet_forms = tuple(w for w, _ in facets)
        self.facet_rows = tuple(on for _, on in facets)
        self.facet_ray_keys = tuple(tuple(rays[i] for i in on)
                                    for on in self.facet_rows)


@functools.lru_cache(maxsize=4096)
def cone_geometry(rays_key, n):
    """The geometry of the cone with this ray key, from a process-wide cache
    of the 4096 most recently used cones."""
    return _ConeGeometry(rays_key, n)


class RedundantGenerator(ValueError):
    """A generator of a cone that is not an extreme ray of it (canonical)."""

    def __init__(self, generator):
        super().__init__("redundant generator: not an extreme ray")
        self.generator = generator


class Cone:
    """A pointed polyhedral cone inside some fan.  Its dimension is given;
    its geometry is computed the first time it is read, through the cache
    keyed by the canonical ray set."""

    __slots__ = ("id", "rays", "dim", "n", "_geom")

    def __init__(self, rays_key, n, dim, cid=None, geom=None):
        self.id = cid
        self.rays = rays_key
        self.n = n
        self.dim = dim
        self._geom = geom

    @staticmethod
    def from_generators(gens, n):
        """The cone the nonzero generators span, checked to be pointed with
        every generator extreme.  Dependent generators are checked on the
        facets of their hull (facet_rows): the cone is pointed if and only
        if no generator lies on every facet.  The lineality space L is the
        minimal face, so it is generated by the generators it contains and
        lies in every facet; every form the hull returns is zero on L, as
        it is >= 0 on g and on -g for g in L.  So a cone that is not
        pointed has a generator in L, on every facet (on all of none when
        the cone is its whole span).  The facets of a pointed cone meet in
        0, which holds no generator."""
        gens = [vec(g) for g in gens]
        for i, g in enumerate(gens):
            if len(g) != n:
                raise ValueError("generator length does not match ambient dim")
            if not any(g):
                raise ValueError(f"generator {i} of a cone is the zero vector")
        gens = tuple(sorted({canonical_direction(g) for g in gens}))
        geom = cone_geometry(gens, n)
        if geom.dim == len(gens):
            # independent generators span a simplicial cone: pointed, and
            # each generator is extreme
            return Cone(gens, n, geom.dim, geom=geom)
        if set(range(len(gens))).intersection(*geom.facet_rows):
            raise ValueError("cone is not pointed")
        # g is extreme iff the facets through g meet in the ray of g: their
        # intersection is the smallest face containing g
        for g in gens:
            through = [key for key in geom.facet_ray_keys if g in key]
            if set(gens).intersection(*through) != {g}:
                raise RedundantGenerator(g)
        return Cone(gens, n, geom.dim, geom=geom)

    def geometry(self):
        if self._geom is None:
            self._geom = cone_geometry(self.rays, self.n)
        return self._geom

    def is_simplicial(self):
        return len(self.rays) == self.dim

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={[format_vector(r) for r in self.rays]})"


def _intersect_keys(g1, g2, n):
    """Extreme rays of the intersection: the double description of both
    cones' facet inequalities inside the kernel of their joint equations.
    The intersection is pointed, so the equations and the forms span the
    dual space, and the columns of their dual basis that are dual to forms
    lie in that kernel: they start the hull."""
    eqs = [row for _, row in g1.equations + g2.equations]
    forms = sorted(set(g1.facet_forms) | set(g2.facet_forms))
    basis, _, duals, _ = dual_basis(eqs + forms, n)
    start = [(i - len(eqs), y) for i, y in zip(basis, duals) if i >= len(eqs)]
    return tuple(sorted(
        canonical_direction(y)
        for y, _ in _dd(forms, [i for i, _ in start], [y for _, y in start])))


def _common_face_check(f1, f2, signs1, signs2):
    """True when two maximal cones, with ray masks f1 and f2 and (positive,
    zero) ray masks signs1 and signs2 of their facet forms, meet in a common
    face; None when no form cuts.  A facet form of one that is <= 0 on the
    other's current face and not zero on both faces cuts both down to its
    zero set: it is >= 0 on its own cone, so the cuts are faces, and the
    cones' intersection lies in its hyperplane.  The faces agree when the
    cones meet in a common face."""
    while f1 != f2:
        both = f1 | f2
        cut = next((z for signs, other in ((signs1, f2), (signs2, f1))
                    for p, z in signs if not p & other and both & ~z), None)
        if cut is None:
            return None
        f1 &= cut
        f2 &= cut
    return True


# -- fans ------------------------------------------------------------------


class Fan:
    """Finite fan with full face lattice.

    cones: id -> Cone, ids assigned by sorting all cones by (dim, ray key).
    maximal_ids: ids of cones that are not proper faces of another cone.
    field: the one given, else the field of the rays' coordinates (Q when
    all are rational); rays over two quadratic fields, or over one that is
    not the given field, raise ValueError.
    """

    __slots__ = ("n", "field", "cones", "maximal_ids", "id_by_key",
                 "faces_of", "cofaces_of")

    def __init__(self, n, field, cone_keys, check=True):
        self.n = n
        listed = {k: cone_geometry(k, n) for k in cone_keys}
        rays = sorted({r for k in listed for r in k})
        m = radicand(x.m for r in rays for x in r)
        if field is not None and m not in (None, field.m):
            raise ValueError(f"rays over Q(sqrt({m})) do not lie in {field!r}")
        self.field = field or ScalarField(m)
        bit = {r: 1 << i for i, r in enumerate(rays)}
        # the lattice as bit masks over the rays, each listed cone's read
        # off its facets: a face's proper faces are the listed cone's faces
        # inside it, and its dim is one more than the largest of theirs
        dims, below, geoms = {}, {}, {}
        for k, g in listed.items():
            bits = [bit[r] for r in k]
            full = sum(bits)
            lattice = sorted(_face_masks(
                [sum(bits[i] for i in on) for on in g.facet_rows], full),
                key=int.bit_count)
            for f in lattice:
                if f not in dims:
                    below[f] = [h for h in lattice if h & f == h != f]
                    dims[f] = 1 + max((dims[h] for h in below[f]), default=-1)
            if dims[full] != g.dim:
                raise ValueError("the face lattice of a cone disagrees with "
                                 "its dimension")
            geoms[full] = g
        index = {f: [i for i, b in enumerate(bin(f)[:1:-1]) if b == "1"]
                 for f in dims}
        order = sorted(dims, key=lambda f: (dims[f], index[f]))
        cid_of = {f: cid for cid, f in enumerate(order)}
        self.cones = {}
        self.id_by_key = {}
        self.faces_of = {}
        self.cofaces_of = {cid: [] for cid in range(len(order))}
        for cid, f in enumerate(order):
            key = tuple(rays[i] for i in index[f])
            self.cones[cid] = Cone(key, n, dims[f], cid, geoms.get(f))
            self.id_by_key[key] = cid
            fids = sorted(cid_of[h] for h in below[f])
            self.faces_of[cid] = tuple(fids)
            for h in fids:
                self.cofaces_of[h].append(cid)
        self.cofaces_of = {cid: tuple(v) for cid, v in self.cofaces_of.items()}
        self.maximal_ids = tuple(sorted(
            cid for cid in self.cones if not self.cofaces_of[cid]))
        if check:
            self._check_axioms(order, rays)

    def _check_axioms(self, order, rays):
        """The pairwise common-face axiom on the maximal cones, whose ray
        sets are the bit masks order[id] over rays: each facet form's
        positive and zero rays are found once (_common_face_check).  On its
        own cone's rays a form is zero on the facet's (facet_rows) and
        positive on the others; only the rays outside are evaluated, in one
        product (exactlin.gram) per cone.  When no form cuts, the cones'
        exact intersection, which the cuts kept, must be a face of both."""
        mx = self.maximal_ids
        bit = {r: 1 << i for i, r in enumerate(rays)}
        signs = {a: [] for a in mx}
        for a in mx:
            full = order[a]
            outside = [i for i in range(len(rays)) if not full >> i & 1]
            g = self.cones[a].geometry()
            values = gram(g.facet_forms, [rays[i] for i in outside])
            for row, on in zip(values.entries, g.facet_rows):
                zero = sum(bit[g.rays[i]] for i in on)
                pos = full & ~zero
                for i, v in zip(outside, row):
                    x = v.sign()
                    if x > 0:
                        pos |= 1 << i
                    elif not x:
                        zero |= 1 << i
                signs[a].append((pos, zero))
        for i, a in enumerate(mx):
            for b in mx[i + 1:]:
                ok = _common_face_check(order[a], order[b], signs[a], signs[b])
                if ok is None:
                    inter = self.id_by_key.get(_intersect_keys(
                        self.cones[a].geometry(), self.cones[b].geometry(),
                        self.n))
                    ok = inter in self.faces_of[a] and inter in self.faces_of[b]
                if not ok:
                    raise ValueError(
                        "fan axiom violation: cones %r and %r do not meet in "
                        "a common face" % (self.cones[a], self.cones[b]))

    # -- structure ---------------------------------------------------------

    def cones_of_dim(self, d):
        return [c for c in self.cones.values() if c.dim == d]

    def ray_ids(self):
        return [c.id for c in self.cones_of_dim(1)]

    def rays(self):
        return [self.cones[i].rays[0] for i in self.ray_ids()]

    def star_ids(self, cid):
        """Cones having cid as a face (cid itself included)."""
        return (cid,) + self.cofaces_of[cid]

    def face_at(self, m, x):
        """Id of the face of the maximal cone m whose relative interior
        holds x, or None when x is not in m: the intersection of the facets
        whose forms vanish on x (every face of a pointed cone is the
        intersection of the facets containing it)."""
        g = self.cones[m].geometry()
        if any(gram((x,), [e for _, e in g.equations]).entries[0]):
            return None
        signs = [v.sign() for v in gram((x,), g.facet_forms).entries[0]]
        if min(signs, default=0) < 0:
            return None
        on = set(g.rays).intersection(
            *(k for s, k in zip(signs, g.facet_ray_keys) if not s))
        return self.id_by_key[tuple(r for r in g.rays if r in on)]

    def is_simplicial(self):
        return all(self.cones[i].is_simplicial() for i in self.maximal_ids)

    def max_key_set(self):
        return frozenset(self.cones[i].rays for i in self.maximal_ids)

    def __eq__(self, other):
        return isinstance(other, Fan) and self.n == other.n and \
            self.field == other.field and self.max_key_set() == other.max_key_set()

    def __hash__(self):
        return hash((self.n, self.field, self.max_key_set()))

    def __repr__(self):
        return f"Fan(n={self.n}, cones={len(self.cones)}, maximal={len(self.maximal_ids)})"

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        """The fan as JSON: its field, dim, rays (Fan.rays) and maximal
        cones, each the ascending indices of its rays, in ascending order,
        the order a per_cone l lists its forms in."""
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


def fan_from_json_dict(obj):
    for k in ("field", "dim", "rays", "maximal_cones"):
        if k not in obj:
            raise ValueError(f"a fan needs the key '{k}'")
    field = ScalarField.from_json(obj["field"])
    n = json_int(obj["dim"], "dim")
    if n < 1:
        raise ValueError(f"dim must be at least 1, got {n}")
    rays = [parse_vector(r, field, f"ray {i}")
            for i, r in enumerate(json_list(obj["rays"], "rays"))]
    for i, r in enumerate(rays):
        if len(r) != n:
            raise ValueError("ray length does not match dim")
        if not any(r):
            raise ValueError(f"ray {i} is the zero vector")
        rays[i] = canonical_direction(r)
    gen_sets = []
    for k, c in enumerate(json_list(obj["maximal_cones"], "maximal_cones")):
        c = [json_int(i, "a ray index")
             for i in json_list(c, f"maximal cone {k}")]
        if any(not 0 <= i < len(rays) for i in c):
            raise ValueError(f"maximal cone {c} names a ray index outside "
                             f"0..{len(rays) - 1}")
        gen_sets.append([rays[i] for i in c])
    return build_fan(n, gen_sets, field=field)


def build_fan(ambient_dim, max_generator_sets, field=None):
    """Build a fan from generator sets of its maximal cones.

    Validates pointedness, that the listed generators are extreme and the
    pairwise common-face axiom, and reports the offending pair on failure.
    With no field, the fan takes its rays' field (Fan).
    """
    keys = []
    for gens in max_generator_sets:
        c = Cone.from_generators(gens, ambient_dim)
        keys.append(c.rays)
    if not keys:
        keys = [()]
    fan = Fan(ambient_dim, field, keys)
    max_keys = {fan.cones[m].rays for m in fan.maximal_ids}
    for k in keys:
        if k not in max_keys:
            raise ValueError(
                "listed cone with rays %s is a face of another listed cone" %
                ([format_vector(r) for r in k],))
    return fan


def wall_equations(fan: Fan, wid):
    """The equations of the (n-1)-cone wid, as its geometry would give
    them, read off its first owner, an n-cone: the owner's facet form
    through it, scaled to 1 at its first nonzero coordinate, the unit
    vector that completes the wall's rays in dual_basis."""
    owner = fan.cones[fan.cofaces_of[wid][0]].geometry()
    w = owner.facet_forms[owner.facet_ray_keys.index(fan.cones[wid].rays)]
    p = next(i for i, x in enumerate(w) if x)
    return [(p, vscale(w[p].inverse(), w))]


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
        # a coface of an (n-1)-cone has dim n, so it is maximal
        owners = fan.cofaces_of[c.id]
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
    agreeing on shared faces (with check, checked on shared rays)."""

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
        # the forms agree on every shared face iff they agree on every ray
        value = {}
        for m in self.fan.maximal_ids:
            rays = self.fan.cones[m].rays
            values = gram((self.per_max[m],), rays).entries[0]
            for r, v in zip(rays, values):
                if value.setdefault(r, v) != v:
                    raise ValueError(
                        "linear forms disagree on shared ray %s" %
                        (format_vector(r),))

    @staticmethod
    def from_ray_values(fan: Fan, values):
        """Build from prescribed values on the canonical ray generators;
        values: ray cone id -> Scalar.  Each maximal cone's form is read
        off the dual basis of its rays (_ConeGeometry): sum_t v(rays[
        basis[t]]) * duals[t], one product per cone, the unique form on a
        full-dimensional cone.  The rays outside the basis, only on a
        cone that is not simplicial, are checked against their values in
        one more product; a mismatch means that the cone admits no linear
        form with those values, and raises ValueError.  So each form takes
        the one value of each of its rays, and the forms agree on shared
        rays without PLFunction's check."""
        per_max = {}
        for m in fan.maximal_ids:
            c = fan.cones[m]
            g = c.geometry()
            v = [sc(values[fan.id_by_key[(r,)]]) for r in c.rays]
            # the zero cone has no duals, and its form is zero
            form = gram(([v[i] for i in g.basis],),
                        list(zip(*g.duals)) or [()] * fan.n).entries[0]
            rest = [i for i in range(len(v)) if i not in g.basis]
            if rest and gram((form,), [c.rays[i] for i in rest]
                             ).entries[0] != tuple(v[i] for i in rest):
                raise ValueError(
                    "no linear form matches the ray values on cone %r" % c)
            per_max[m] = form
        return PLFunction(fan, per_max, check=False)


def is_strictly_convex(fan: Fan, l: PLFunction):
    """l_sigma(u) < l(u) for every maximal sigma and every fan ray generator
    u outside sigma; ray generators suffice by conewise linearity."""
    if not is_complete(fan):
        raise ValueError("strict convexity is defined for complete fans here")
    mx = fan.maximal_ids
    # l(u) from the first maximal cone having u as a ray
    first = {}
    for m in mx:
        for u in fan.cones[m].rays:
            first.setdefault(u, m)
    rays = list(first)
    values = dict(zip(mx, gram([l.per_max[m] for m in mx], rays).entries))
    value = [values[m][i] for i, m in enumerate(first.values())]
    for m in mx:
        c = fan.cones[m]
        for u, lu, v in zip(rays, value, values[m]):
            if u not in c.rays and v >= lu:
                return False
    return True


# -- subdivision -----------------------------------------------------------


def barycenter(cone: Cone):
    """Sum of the generators, each scaled to unit sup-norm."""
    total = None
    for g in cone.rays:
        m = max(abs(x) for x in g)
        g = vscale(m.inverse(), g)
        total = g if total is None else vadd(total, g)
    return total


def barycentric_subdivision(fan: Fan, barycenter_choice=None):
    """Barycentric subdivision of the nonsimplicial cones.

    A center (barycenter_choice, default barycenter) is chosen in the
    relative interior of every nonsimplicial cone, by decreasing dimension
    and then by id.  A cone without a center is its own only flag, and a
    cone with one ends each flag of its facets with it: it is the cone from
    its center over its subdivided boundary, and each maximal cone of the
    subdivision is spanned by one flag of a maximal cone.  Returns
    (subdivided fan, steps); each step is (center vector, ray key of its
    cone), in the order the centers were chosen.  The result is simplicial;
    it is the fan itself when every cone is simplicial.
    """
    choice = barycenter_choice or barycenter
    steps = []
    center_ray = {}
    for c in sorted((c for c in fan.cones.values() if not c.is_simplicial()),
                    key=lambda c: (-c.dim, c.id)):
        v = vec(choice(c))
        # the last coface has the largest dim, so it is maximal
        if fan.face_at(fan.star_ids(c.id)[-1], v) != c.id:
            raise ValueError("a subdivision center is not in the relative "
                             "interior of its cone")
        steps.append((v, c.rays))
        center_ray[c.id] = canonical_direction(v)
    if not steps:
        return fan, ()
    # the rays of the flags ending at each cone; ids go up with dimension,
    # so a cone's facets come before it
    flags = {}
    for cid, c in fan.cones.items():
        if cid not in center_ray:
            flags[cid] = [c.rays]
        else:
            flags[cid] = [flag + (center_ray[cid],)
                          for f in fan.faces_of[cid]
                          if fan.cones[f].dim == c.dim - 1
                          for flag in flags[f]]
    keys = [tuple(sorted(flag)) for m in fan.maximal_ids for flag in flags[m]]
    return Fan(fan.n, fan.field, keys, check=False), tuple(steps)


# -- polytopes -------------------------------------------------------------


def _lifted_hull_facets(vertices, n):
    """Facets of conv(vertices) via the cone over the lifted points.
    Returns (facet list as tuples of vertex indices, outer forms (beta, c)
    with beta . x <= c on the polytope, equality on the facet)."""
    lifted = [canonical_direction(tuple(v) + (ONE,)) for v in vertices]
    by_key = {l: i for i, l in enumerate(lifted)}
    try:
        c = Cone.from_generators(lifted, n + 1)
    except RedundantGenerator as e:
        point = ", ".join(format_vector(vertices[by_key[e.generator]]))
        raise ValueError(f"point ({point}) is not a vertex of the "
                         "polytope") from None
    if c.dim != n + 1:
        raise ValueError("polytope is not full-dimensional")
    g = c.geometry()
    facets = [tuple(sorted(by_key[r] for r in on)) for on in g.facet_ray_keys]
    forms = [(vneg(w[:n]), w[n]) for w in g.facet_forms]
    order = sorted(range(len(facets)), key=lambda i: facets[i])
    return [facets[i] for i in order], [forms[i] for i in order]


def face_fan_with_support(vertices, field=None):
    """Face fan plus its canonical strictly convex function: on the cone
    over a facet F, the unique linear form equal to 1 on F.  With the facet
    beta . x <= c, that form is beta / c, and the origin is interior iff
    every c is positive.

    The fan is read off the hull and goes to Fan unchecked, as is its
    function.  Every c > 0 is checked first, so 0 is not in aff F, and the
    cone over F is pointed, spanned by the vertices of F, each one extreme;
    two of these cones meet in the cone over F & F' (the face fan of a
    polytope with the origin inside is complete: Ziegler 1995, Lectures on
    Polytopes, 7.1).  beta / c is 1 on every vertex of F, the hull's facet
    rows, so the forms agree on shared rays."""
    vertices = [vec(v) for v in vertices]
    n = len(vertices[0])
    facets, forms = _lifted_hull_facets(vertices, n)
    for _, c in forms:
        if not c:
            raise ValueError("origin is not interior (a facet hyperplane "
                             "passes through it)")
        if c.sign() < 0:
            raise ValueError("origin is not interior to the hull")
    rays = [canonical_direction(v) for v in vertices]
    keys = [tuple(sorted(rays[i] for i in idxs)) for idxs in facets]
    fan = Fan(n, field, keys, check=False)
    per_max = {fan.id_by_key[k]: vscale(c.inverse(), beta)
               for k, (beta, c) in zip(keys, forms)}
    return fan, PLFunction(fan, per_max, check=False)


def normal_fan(vertices, field=None):
    """Normal fan of conv(vertices) (one maximal cone per vertex) together
    with its support function max_x <x, v>, stored per maximal cone as the
    maximizing vertex.

    The fan is read off the hull and goes to Fan unchecked, as is its
    function: each vertex's cone is its normal cone, full-dimensional and
    pointed, with every incident facet normal extreme, and the normal cones
    of a full-dimensional polytope form a complete fan (Ziegler 1995, 7.1).
    For vertices v, w on a facet with normal beta, beta . v = beta . w, so
    the forms agree on shared rays."""
    vertices = [vec(v) for v in vertices]
    n = len(vertices[0])
    facets, forms = _lifted_hull_facets(vertices, n)
    hull_vertices = sorted({i for idxs in facets for i in idxs})
    normals = [canonical_direction(beta) for beta, _ in forms]
    keys = [tuple(sorted(normals[k] for k, idxs in enumerate(facets)
                         if vi in idxs))
            for vi in hull_vertices]
    fan = Fan(n, field, keys, check=False)
    per_max = {fan.id_by_key[k]: vertices[vi]
               for k, vi in zip(keys, hull_vertices)}
    return fan, PLFunction(fan, per_max, check=False)


# -- products --------------------------------------------------------------


def product_fan(f1: Fan, f2: Fan):
    """The product fan in R^(n1+n2): one maximal cone sigma x delta per
    pair of maximal cones, spanned by the rays of sigma padded with n2
    zeros and those of delta behind n1 zeros.  A padded canonical ray stays
    canonical, and a product of pointed cones is pointed with every ray
    extreme, so the keys go to Fan as they are."""
    if f1.field.m is not None and f2.field.m is not None \
            and f1.field.m != f2.field.m:
        raise ValueError("factor fans live over different quadratic fields")
    n1, n2 = f1.n, f2.n
    pad1, pad2 = (ZERO,) * n2, (ZERO,) * n1
    keys = [tuple(sorted([r + pad1 for r in f1.cones[m1].rays]
                         + [pad2 + w for w in f2.cones[m2].rays]))
            for m1 in f1.maximal_ids for m2 in f2.maximal_ids]
    field = f1.field if f1.field.m is not None else f2.field
    return Fan(n1 + n2, field, keys, check=False)
