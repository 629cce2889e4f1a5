"""Stalks and graded section spaces of the minimal conewise sheaf.

The pipeline: a complete (or quasi-convex) fan gets a distinguished
simplicial subdivision (identity for simplicial input, full barycentric
otherwise).  A stalk is a tuple of (grading, sections) generators.  Stalks
are built by increasing cone dimension: a simplicial cone's is the
constant, and a nonsimplicial cone's comes from one flattening of its
boundary along its subdivision center over the pair's face lattice
(flatten_boundary): the facets, their pieces and their stalks go down to a
complete pair one dimension lower, whose primitive classes are pulled back
to the cone's pieces (flattened_stalk).  Global sections of any grading
are then cut out by a sparse linear system in per-cone generator
coefficients, built in integer arithmetic (_Sections).

GradedIH is the cohomology of a pair.  It picks representatives of the
classes, certifies a complete pair's mod-p choice by Poincare duality, and
reads every Lefschetz quantity (pairing, hard Lefschetz ranks,
Hodge-Riemann forms, primitives, Lefschetz matrices) off one Gram matrix
of their values at a generic point (EvaluationContext,
GradedIH.lefschetz_gram).  The stalk generators of a nonsimplicial cone
are the primitives of its flattened boundary, read off the same Gram one
dimension down.  Class coordinates (GradedIH.class_coords) are solved for
only by the relative-cohomology check of cohomology.restrict_to_link.

All generator sections live on the subdivided fan; scalars stay exact.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd, prod

from . import exactlin
from .exactlin import (
    Matrix,
    ONE,
    ZERO,
    cleared,
    coordinates,
    echelon_insert,
    first_independent,
    format_scalar,
    independent_modp,
    inverse,
    json_int,
    json_scalar,
    kernel_basis,
    radicand,
    rank,
    sc,
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
    inside span(span_vectors) (default the whole space): returns (x, proj,
    b) where x is a covector with x(v) = 1, b is a basis of the kernel of x
    inside that span and proj is the projection Matrix onto coordinates in
    b, so that b^T is a section of proj with image ker x."""
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
    return x, proj, basis


def lift_over_span(proj, rays, n):
    """Rows of the section of the projection Matrix proj over span(rays),
    a span on which proj is one-to-one onto the quotient (a facet of the
    flattened cone): bt (proj bt)^-1 for bt the first independent rays as
    columns, an (ambient x quotient) matrix with proj . lift = identity."""
    bt = Matrix(first_independent(rays), ncols=n).transpose()
    return bt.mul(inverse(proj.mul(bt))[0]).entries


# -- section spaces and distinguished pairs --------------------------------


_EXP_BITS = 16


def _pack(e):
    """An exponent tuple as one int with a 16-bit digit per variable, so
    that multiplying monomials adds their packed exponents."""
    return sum(x << (_EXP_BITS * i) for i, x in enumerate(e))


@functools.lru_cache(maxsize=64)
def _packed_monomials(n, k):
    return tuple(_pack(e) for e in monomials(n, k))


def _int_mul(p, q, m):
    """Product of two integer polynomials over Z[sqrt(m)], each a pair
    (A, B) of dicts {packed exponent: int} standing for A + B*sqrt(m)."""
    (pa, pb), (qa, qb) = p, q
    a, b = {}, {}
    for x, y, out, f in ((pa, qa, a, 1), (pb, qb, a, m), (pa, qb, b, 1),
                         (pb, qa, b, 1)):
        for e1, c1 in x.items():
            for e2, c2 in y.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + f * c1 * c2
    return ({e: c for e, c in a.items() if c},
            {e: c for e, c in b.items() if c})


def _wall_images(eqs, n, m):
    """Yields, for j = 0, 1, 2, ..., the images {e: D^j * NF(x^e)} of the
    packed exponents e of degree j, each an integer pair over Z[sqrt(m)]
    (see _int_mul).  NF is the normal form modulo the reduced echelon
    equations [(pivot, row)] of a wall, which replaces each pivot variable
    by minus the rest of its row, and D is their least common denominator.
    NF is a ring map, so each image is one of a degree lower times some
    D * NF(x_i): each degree is built from the one before, which the
    generator then lets go."""
    a, b, den = cleared({(p, j): x for p, row in eqs
                         for j, x in enumerate(row) if x and j != p})
    units = [1 << (_EXP_BITS * i) for i in range(n)]
    forms = {p: ({}, {}) for p, _ in eqs}
    for (p, j), x in a.items():
        forms[p][0][units[j]] = -x
    for (p, j), x in b.items():
        forms[p][1][units[j]] = -x
    level = {0: ({0: 1}, {})}
    while True:
        yield level
        new = {}
        for e, img in level.items():
            for i, u in enumerate(units):
                if e + u in new:
                    continue
                if i in forms:
                    new[e + u] = _int_mul(img, forms[i], m)
                else:
                    # D * x_i for a free variable: a shift and a scale
                    new[e + u] = tuple({r + u: den * c
                                        for r, c in part.items()}
                                       for part in img)
        level = new


def _add_images(rows, images, col0, monos, f, c, m):
    """Add c * images[e + f] to column col0 + i of the rows, for the i-th
    packed exponent e of monos.  The coefficient c and the images are
    integers over Z[sqrt(m)], pairs (rational part, sqrt(m) part), and so
    are the rows: a pair of dicts {reduced exponent: {column: int}}."""
    ca, cb = c
    # (part of the image, part of the rows, factor)
    terms = [t for t in ((0, 0, ca), (1, 1, ca), (0, 1, cb),
                         (1, 0, cb * m if cb else 0)) if t[2]]
    for col, e in enumerate(monos, col0):
        img = images[e + f]
        for src, dst, x in terms:
            out = rows[dst]
            for r, y in img[src].items():
                row = out.get(r)
                if row is None:
                    out[r] = {col: x * y}
                else:
                    row[col] = row.get(col, 0) + x * y


def _primitive(a, b):
    """The integer row (A, B) without zero entries, divided by the gcd of
    its entries; None when nothing is left."""
    a = {k: x for k, x in a.items() if x}
    b = {k: x for k, x in b.items() if x}
    g = gcd(*a.values(), *b.values())
    if not g:
        return None
    if g > 1:
        a = {k: x // g for k, x in a.items()}
        b = {k: x // g for k, x in b.items()}
    return a, b


def _section_spaces(pair, gradings, boundary_pieces=None):
    """The section spaces {d: _Sections} of the gradings, relative to the
    boundary pieces when given: the one builder of section spaces, which
    builds each wall's data once for all of them (see _Sections).  The
    gradings are solved in ascending order, and grading d reads the wall
    images of degree d/2 only, so each degree is built just before the
    first grading that reads it and let go once a grading reads the next."""
    sub = pair.subdivided
    walls = []
    for tid in pair.facet_piece_ids():
        owners = sub.cofaces_of[tid]
        if len(owners) == 2:
            if pair.carrier(owners[0]) == pair.carrier(owners[1]):
                continue
            sides = ((owners[0], 1), (owners[1], -1))
        elif len(owners) == 1 and boundary_pieces is not None \
                and tid in boundary_pieces:
            sides = ((owners[0], 1),)
        else:
            continue
        eqs = fans.wall_equations(sub, tid)
        m = radicand([sec[hat].coeffs for hat, _ in sides
                      for _, sec in pair.stalks[pair.carrier(hat)]] +
                     [dict(enumerate(row)) for _, row in eqs])
        walls.append((sides, m, _wall_images(eqs, pair.fan.n, m)))
    spaces = {}
    degree, levels = -1, None
    for d in sorted(set(gradings)):
        while degree < d // 2:
            levels = [next(images) for _, _, images in walls]
            degree += 1
        spaces[d] = _Sections(pair, d, [(sides, m, level) for (sides, m, _),
                                        level in zip(walls, levels)])
    return {d: spaces[d] for d in gradings}


class _Sections:
    """Solved space of grading-d sections of a pair, parametrized by
    per-maximal-cone polynomial coefficients for each stalk generator.

    The continuity system has one block of rows per wall: a subdivided
    (n-1)-cone between two maximal cones with different carriers, or a
    boundary piece for relative sections.  Each row is one coefficient of
    the difference of the two sides' sections in the normal form modulo
    the wall's equations.  The block is built in integers: with D clearing
    the equations (_wall_images) and E the generator sections of both
    sides, every entry is E * D^(d/2) times the exact one, which leaves the
    kernel as it is.  Each row is then divided by the gcd of its entries,
    so the kernel sees equal rows of the pieces of one wall as repeats.
    The basis is the reduced kernel: basis[k] is 1 at its free column
    cols[free[k]], free[k] being its largest index, and 0 at every other
    free column, so restriction to the free columns is one-to-one on
    sections.  Each wall's sides and radicand in walls are shared by the
    gradings of one _section_spaces call, and neither depends on d: the
    radicand is that of all generators of both sides and of the equations,
    and rational data has no sqrt(m) parts whatever m is.  Its images are
    those of degree d/2, the only ones grading d reads, built degree by
    degree as the gradings go up."""

    __slots__ = ("pair", "grading", "cols", "basis", "free")

    def __init__(self, pair, grading, walls):
        self.pair = pair
        self.grading = grading
        n = pair.fan.n
        cols = []
        start = {}
        for mid in sorted(pair.fan.maximal_ids):
            for j, (g, _) in enumerate(pair.stalks[mid]):
                if g <= grading:
                    start[(mid, j)] = len(cols)
                    cols.extend((mid, j, e)
                                for e in monomials(n, (grading - g) // 2))
        self.cols = cols
        rows = []
        rows_m = None   # the radicand of the rows' sqrt(m) parts
        for sides, m, images in walls:
            # the generator sections' coefficients keyed by (first column,
            # degree of the generator's monomials, packed exponent)
            coeffs = {}
            for hat, sign in sides:
                mid = pair.carrier(hat)
                for j, (g, sec) in enumerate(pair.stalks[mid]):
                    if g <= grading:
                        key = (start[(mid, j)], (grading - g) // 2)
                        for f, c in sec[hat].coeffs.items():
                            coeffs[key + (_pack(f),)] = c if sign > 0 else -c
            block = ({}, {})
            a, b, _ = cleared(coeffs)
            for key in coeffs:
                col0, k, f = key
                _add_images(block, images, col0, _packed_monomials(n, k), f,
                            (a.get(key, 0), b.get(key, 0)), m)
            for r in dict.fromkeys(block[0]) | dict.fromkeys(block[1]):
                row = _primitive(block[0].get(r, {}), block[1].get(r, {}))
                if row is not None:
                    rows.append(row)
                    if row[1]:
                        # every scalar of a pair lies in its fan's field,
                        # so the walls share one radicand
                        rows_m = m
        kern = sparse_kernel(rows, len(cols), rows_m)
        self.free = tuple(max(v) for v in kern)
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
            gens = pair.stalks[mid]
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
                                self.materialize(vecm))


class DistinguishedPair:
    """A fan together with its distinguished simplicial subdivision, the
    subdivision step sequence, and the stalk of every cone: a tuple of
    generators, each a (grading, sections) pair where sections maps the
    cone's pieces (subdivided-cone ids) to homogeneous polynomials of degree
    grading/2.  The owners of a facet piece are its cofaces in the
    subdivision."""

    __slots__ = ("fan", "subdivided", "steps", "rule", "stalks",
                 "_carrier", "_pieces", "_facet_pieces", "_sections",
                 "_boundary_pieces")

    def __init__(self, fan, subdivided, steps, rule="default", stalks=None):
        self.fan = fan
        self.subdivided = subdivided
        self.steps = tuple(steps)
        self.rule = rule
        for m in fan.maximal_ids:
            if fan.cones[m].dim != fan.n:
                raise ValueError("maximal cones must have full dimension")
        # the carrier of a subdivided cone is the smallest coarse cone
        # containing it.  A ray's is located once, unless it is a coarse
        # ray.  A cone's has each of its rays' carriers as a face, so it is
        # the smallest coarse cone that does.  Ids go up with dimension, so
        # rays come before the cones they span, and the smallest cone has
        # the smallest id.
        self._carrier = {}
        self._pieces = {cid: [] for cid in fan.cones}
        for tid in sorted(subdivided.cones):
            tc = subdivided.cones[tid]
            if tc.dim <= 1:
                car = fan.id_by_key.get(tc.rays)
                if car is None and tc.rays:
                    car = fan.locate(tc.rays[0])
            else:
                ray_cars = {self._carrier[f] for f in subdivided.faces_of[tid]
                            if subdivided.cones[f].dim == 1}
                first = min(ray_cars)
                car = min((c for c in fan.star_ids(first)
                           if ray_cars.issubset(fan.faces_of[c] + (c,))),
                          default=None)
            if car is None:
                raise ValueError("subdivided cone escapes the coarse fan")
            self._carrier[tid] = car
            if fan.cones[car].dim == tc.dim:
                self._pieces[car].append(tid)
        self._pieces = {cid: tuple(v) for cid, v in self._pieces.items()}
        self._facet_pieces = tuple(
            c.id for c in subdivided.cones_of_dim(fan.n - 1))
        self.stalks = dict(stalks) if stalks else {}
        self._sections = {}
        self._boundary_pieces = None

    # -- structure ---------------------------------------------------------

    def carrier(self, tid):
        return self._carrier[tid]

    def pieces(self, cid):
        return self._pieces[cid]

    def facet_piece_ids(self):
        return self._facet_pieces

    def boundary_piece_ids(self):
        if self._boundary_pieces is None:
            self._boundary_pieces = frozenset(
                t for t in self._facet_pieces
                if len(self.subdivided.cofaces_of[t]) == 1)
        return self._boundary_pieces

    # -- section spaces ----------------------------------------------------

    def section_spaces(self, gradings, relative=False):
        """The section spaces {d: _Sections} of the gradings, relative to
        every boundary piece or not, kept on the pair; one call builds those
        missing."""
        missing = [d for d in gradings if (d, relative) not in self._sections]
        if missing:
            bp = self.boundary_piece_ids() if relative else None
            for d, sp in _section_spaces(self, missing, bp).items():
                self._sections[(d, relative)] = sp
        return {d: self._sections[(d, relative)] for d in gradings}


def _barycenter_choice(rule):
    if rule == "default":
        return fans.barycenter_default
    if rule == "alt":
        return fans.barycenter_alt
    raise ValueError(f"unknown barycenter rule {rule!r}")


def build_distinguished_pair(fan: Fan, rule="default"):
    """Distinguished pair of a complete fan, a closed star, or a single
    full-dimensional cone with its faces.  Simplicial fans keep their own
    cone structure; everything else gets the full barycentric subdivision.
    Stalks are built by increasing cone dimension (ids go up with it): the
    constant on a simplicial cone, the pulled-back primitives of the
    flattened boundary on any other (flattened_stalk)."""
    choice = _barycenter_choice(rule)
    if fan.is_simplicial():
        subdivided, steps = fan, ()
    else:
        subdivided, steps = fans.barycentric_subdivision(fan, choice)
    pair = DistinguishedPair(fan, subdivided, steps, rule=rule)
    centers = {key: center for center, key in steps}
    for cid, c in fan.cones.items():
        if c.is_simplicial():
            pair.stalks[cid] = ((0, {pid: Polynomial.constant(fan.n, 1)
                                     for pid in pair.pieces(cid)}),)
        else:
            pair.stalks[cid] = flattened_stalk(pair, cid, centers[c.rays])
    return pair


def flatten_boundary(pair: DistinguishedPair, cid, v):
    """Flatten the boundary of the nonsimplicial cone cid of the pair along
    its subdivision center v: the projection along v maps the boundary onto
    a complete fan one dimension down, and the pair's subdivision of the
    boundary and the stalks of the cone's facets go along with it.  The
    subdivision has checked that v is interior to the cone.

    Returns (pair, lam_l, proj, pieces): the flattened pair, whose stalks
    are those of its maximal cones (the facets' images, the only stalks its
    sections read), each pushed forward by the lift of its facet; the
    strictly convex function equal to x . lift_F on the image of each facet
    F, with x(v) = 1 the covector of projection_along; the projection
    Matrix; and the map from each piece of the cone (the center's ray and a
    piece of a facet) to the flattened piece it projects onto."""
    fan, sub = pair.fan, pair.subdivided
    cone = fan.cones[cid]
    n, m = fan.n, cone.dim - 1
    x, proj, _ = projection_along(v, n, span_vectors=cone.span_basis())
    facets = [f for f in fan.faces_of[cid] if fan.cones[f].dim == m]
    # the image of each ray of the facets' pieces, which include the
    # facets' own rays, projected once
    image = {}
    for f in facets:
        for pid in pair.pieces(f):
            for r in sub.cones[pid].rays:
                if r not in image:
                    image[r] = canonical_direction(proj.apply(r))

    def key(rays):
        return tuple(sorted(image[r] for r in rays))

    lam = Fan(m, fan.field, [key(fan.cones[f].rays) for f in facets],
              check=False)
    lam_sub = Fan(m, fan.field, [key(sub.cones[pid].rays) for f in facets
                                 for pid in pair.pieces(f)], check=False)
    stalks, forms = {}, {}
    for f in facets:
        rays = fan.cones[f].rays
        lift = lift_over_span(proj, rays, n)
        lid = lam.id_by_key[key(rays)]
        forms[lid] = [vdot(x, col) for col in zip(*lift)]
        stalks[lid] = tuple(
            (g, {lam_sub.id_by_key[key(sub.cones[pid].rays)]:
                 poly.compose(lift) for pid, poly in sec.items()})
            for g, sec in pair.stalks[f])
    vray = canonical_direction(v)
    pieces = {pid: lam_sub.id_by_key[key(
        r for r in sub.cones[pid].rays if r != vray)]
        for pid in pair.pieces(cid)}
    return (DistinguishedPair(lam, lam_sub, (), rule=pair.rule,
                              stalks=stalks),
            fans.PLFunction(lam, forms, check=False), proj, pieces)


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


def _independent_exact(vectors):
    ech = {}
    return [i for i, v in enumerate(vectors)
            if echelon_insert(ech, v) is not None]


class EvaluationContext:
    """Per maximal simplicial cone of the subdivision: the dual-basis facet
    forms, read off the cone's geometry (fans.Cone.geometry) and scaled by
    its |det| so their wedge has determinant +-1 in the input coordinates,
    whose product is the cone's phi; plus one generic point
    z, the first point (1, t, ..., t^(n-1)) with t = 2, 3, 4, ... at which
    no phi vanishes, and 1/phi(z) per cone (inv_phi_z, in the order of the
    subdivision's maximal ids).  A form's value at such a point is a
    nonzero polynomial in t, so the search ends."""

    __slots__ = ("pair", "forms", "adjacency", "z", "inv_phi_z")

    def __init__(self, pair: DistinguishedPair):
        sub = pair.subdivided
        n = sub.n
        if not sub.is_simplicial():
            raise ValueError("evaluation needs the simplicial subdivision")
        self.pair = pair
        self.forms = {}
        for m in sub.maximal_ids:
            rays = sub.cones[m].rays
            if len(rays) != n:
                raise ValueError("evaluation needs full-dimensional cones")
            geom = sub.cones[m].geometry()
            self.forms[m] = (fans.vscale(abs(geom.det), geom.duals[0]),
                             *geom.duals[1:])
        self.adjacency = {m: [] for m in sub.maximal_ids}
        for tid in pair.facet_piece_ids():
            owners = sub.cofaces_of[tid]
            if len(owners) == 2:
                a, b = owners
                self.adjacency[a].append(b)
                self.adjacency[b].append(a)
        for t in itertools.count(2):
            z = tuple(sc(t) ** i for i in range(n))
            vals = {m: prod((vdot(f, z) for f in self.forms[m]), start=ONE)
                    for m in sub.maximal_ids}
            if all(vals.values()):
                break
        self.z = z
        self.inv_phi_z = {m: v.inverse() for m, v in vals.items()}


def _gram(left, weights, right):
    """Matrix of sum_m left[i][m] * weights[m] * right[j][m]: the
    evaluation of the products of two lists of evaluated representatives,
    since evaluation at a point is a ring homomorphism."""
    scaled = Matrix([[x * w if x else ZERO for x, w in zip(r, weights)]
                     for r in left.entries], ncols=left.ncols)
    return scaled.mul(right.transpose())


class GradedIH:
    """The cohomology of a pair up to a grading cap: graded section spaces,
    the ideal multiples, chosen complement representatives (the cohomology
    basis), and the evaluation Gram matrices of the representatives.

    The spanning list of grading d is the ideal multiples x_i * b (b in the
    grading-(d-2) basis) and then the section basis vectors, each kept when
    independent of those kept before it; the kept basis vectors are the
    complement representatives.  Independence is read on the free columns
    (see _Sections): vectors independent after a linear map are independent,
    and restriction to the free columns is one-to-one on sections, so the
    exact choice is the one on full-length vectors.

    A complete pair (uncapped, absolute, without boundary pieces) decides
    independence mod p (exactlin.independent_modp) and certifies the choice
    by Poincare duality.  Vectors independent mod p are independent, so
    when each grading keeps as many as its section space has dimensions
    they are a basis of it and h_d <= len(comps[d]).  When the pairing
    matrix between the representatives of gradings d and 2n - d is square
    and nonsingular for every even d <= n, the classes of both lists are
    independent (the evaluation vanishes on ideal multiples), so h_d >=
    len(comps[d]) and the representatives are bases; those matrices are
    kept as grams for cohomology.pairing_matrix.  When either part fails,
    everything is selected again exactly and exactlin.modp_fallbacks goes
    up by 1.  Every other pair selects exactly.  An absolute profile
    raises ValueError unless h_0 = 1 (connected support).

    Two routes read the classes.  Everything about a Lefschetz operator l
    (the pairing, HL ranks, HRM forms, primitives and the Lefschetz matrix
    itself) comes from one Gram matrix, lefschetz_gram, built from the
    representatives' values at the evaluation context's generic point.
    class_coords solves for coordinates modulo the ideal; only the
    relative-cohomology check of cohomology.restrict_to_link needs it."""

    __slots__ = ("pair", "cap", "spaces", "spanning", "comps", "h", "grams",
                 "_ctx", "_rep_polys", "_values")

    def __init__(self, pair: DistinguishedPair, cap=None, relative=False):
        self.pair = pair
        self.cap = 2 * pair.fan.n if cap is None else cap
        self.spaces = pair.section_spaces(range(0, self.cap + 1, 2), relative)
        self._ctx = None
        complete = cap is None and not relative and \
            not pair.boundary_piece_ids()
        if not (complete and self._select(independent_modp) and
                self._certify()):
            if complete:
                exactlin.record_fallback()
            self._select(_independent_exact)
        if not relative and self.h.get(0) != 1:
            raise ValueError("connected support must have a 1-dimensional "
                             "grading-0 cohomology")

    def _select(self, independent):
        """Choose the spanning lists and representatives afresh with
        independent (the indices of the vectors independent of those before
        them, or None), dropping whatever was read off an earlier choice;
        False when a grading keeps fewer vectors than its section space has
        dimensions."""
        self.spanning, self.comps, self.h = {}, {}, {}
        self.grams, self._rep_polys, self._values = {}, {}, {}
        n = self.pair.fan.n
        for d, sp in self.spaces.items():
            # on the free columns, keyed -f to pivot on the largest one
            key = {sp.cols[f]: -f for f in sp.free}
            below = self.spaces[d - 2].basis if d >= 2 else []
            cands = [{k: c for (mid, j, e), c in b.items()
                      if (k := key.get((mid, j, e[:i] + (e[i] + 1,) +
                                        e[i + 1:]))) is not None}
                     for b in below for i in range(n)]
            nm = len(cands)
            kept = independent(cands + [{-f: ONE} for f in sp.free])
            if kept is None or len(kept) != len(sp.basis):
                return False
            self.comps[d] = [sp.basis[i - nm] for i in kept if i >= nm]
            self.spanning[d] = [_shift_var(below[i // n], i % n)
                                for i in kept if i < nm] + self.comps[d]
            self.h[d] = len(self.comps[d])
        return True

    def _certify(self):
        """Keep the pairing matrix of every even grading d <= n as grams[d];
        False unless each is square and nonsingular."""
        try:
            self.context()
        except ValueError:
            return False
        n = self.pair.fan.n
        for d in range(0, n + 1, 2):
            mat = self.lefschetz_gram(None, d, 2 * n - d)
            if not mat.nrows == mat.ncols == rank(mat):
                return False
            self.grams[d] = mat
        return True

    def h_vector(self):
        return tuple(self.h[d] for d in range(0, self.cap + 1, 2))

    def express(self, d, targets):
        """Coordinates of section vectors over the stored spanning list
        (ideal multiples first, then complement representatives)."""
        return coordinates(self.spanning[d], targets)

    def class_coords(self, d, targets):
        """Coordinates over the complement representatives (the class
        modulo ideal multiples)."""
        full = self.express(d, targets)
        ncomp = self.h[d]
        base = len(self.spanning[d]) - ncomp
        return [
            tuple(f.get(base + i, ZERO) for i in range(ncomp)) for f in full]

    def context(self):
        if self._ctx is None:
            self._ctx = EvaluationContext(self.pair)
        return self._ctx

    def rep_polys(self, d):
        """Materialized representatives: per grading a list of
        {subdivided max cone id: Polynomial}."""
        got = self._rep_polys.get(d)
        if got is None:
            sp = self.spaces[d]
            got = [sp.materialize(v) for v in self.comps[d]]
            self._rep_polys[d] = got
        return got

    def values(self, d):
        """The grading-d representatives evaluated at the generic point: a
        Matrix with one row per representative and one column per
        subdivided maximal cone, in the order of the context's inv_phi_z."""
        got = self._values.get(d)
        if got is None:
            ctx = self.context()
            got = Matrix([[polys[m].evaluate(ctx.z) for m in ctx.inv_phi_z]
                          for polys in self.rep_polys(d)],
                         ncols=len(ctx.inv_phi_z))
            self._values[d] = got
        return got

    def lefschetz_gram(self, l, d, e):
        """Matrix of <a . l^k . b> with k = n - (d+e)/2, a the
        representatives of grading d (rows) and b those of grading e
        (columns).  With k = 0 it is the pairing matrix and l is not read.
        With e = d it is G A, for G the pairing at d and A the matrix of
        l^(n-d) in the stored bases."""
        ctx = self.context()
        k = self.pair.fan.n - (d + e) // 2
        weights = ctx.inv_phi_z.values()
        if k:
            carrier = self.pair.carrier
            weights = [vdot(l.per_max[carrier(m)], ctx.z) ** k * w
                       for m, w in ctx.inv_phi_z.items()]
        return _gram(self.values(d), weights, self.values(e))

    def primitive_coeffs(self, d, l):
        """Kernel of one Lefschetz power beyond the duality-pairing one
        (grading d -> 2n-d+2), in class coordinates at grading d: the
        kernel of the Gram against grading d-2, which is the kernel of
        l^(n-d+1) when the pairing at d-2 is perfect.  At d = 0 the power
        lands above the top grading, so everything is primitive."""
        if d == 0:
            k = self.h[0]
            return [tuple(ONE if i == j else ZERO for j in range(k))
                    for i in range(k)]
        return kernel_basis(self.lefschetz_gram(l, d - 2, d))

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


def flattened_stalk(pair: DistinguishedPair, cid, v):
    """The stalk of a nonsimplicial cone: the grading-0 constant plus, for
    each grading d up to the middle, the pullbacks under the flattening
    projection of the primitive classes of grading d of its flattened
    boundary, keyed by the cone's pieces.  The flattened pair is complete,
    so its representatives are selected mod p and certified by its pairing,
    which is perfect by Poincare duality one dimension down; the primitives
    are read off the Gram of that pair.  Raises when a Lefschetz kernel has
    unexpected dimension."""
    lam_pair, lam_l, proj, pieces = flatten_boundary(pair, cid, v)
    gih = GradedIH(lam_pair)
    gens = [(0, {pid: Polynomial.constant(pair.fan.n, 1) for pid in pieces})]
    for d in range(2, lam_pair.fan.n + 1, 2):
        reps = gih.primitive_reps(d, lam_l)
        expected = gih.h[d] - gih.h.get(d - 2, 0)
        if len(reps) != expected:
            raise ValueError(
                "hard Lefschetz failure in a flattened boundary: primitive "
                f"space at grading {d} has dim {len(reps)}, expected "
                f"{expected}")
        for r in reps:
            sec = gih.spaces[d].materialize(r)
            gens.append((d, {pid: sec[bid].compose(proj.entries)
                             for pid, bid in pieces.items()}))
    return tuple(gens)


# -- public section spaces -------------------------------------------------


def global_sections(pair: DistinguishedPair, cap=None):
    """Graded bases of the section spaces, as conewise functions on the
    subdivided fan; gradings 0, 2, ..., cap (default twice the ambient
    dimension)."""
    cap = 2 * pair.fan.n if cap is None else cap
    return {d: [sp.as_function(v) for v in sp.basis] for d, sp in
            pair.section_spaces(range(0, cap + 1, 2)).items()}


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
    return {d: [sp.as_function(v) for v in sp.basis] for d, sp in
            _section_spaces(pair, range(0, cap + 1, 2), bp).items()}


# -- pair serialization ----------------------------------------------------


def _exp_key(e):
    return ",".join(str(x) for x in e)


def _parse_exp(s, n):
    parts = [p for p in str(s).split(",") if p != ""]
    e = tuple(int(p) for p in parts)
    if len(e) != n or any(x < 0 for x in e):
        raise ValueError(f"bad exponent tuple {s!r}")
    return e


def pair_to_json_dict(pair: DistinguishedPair):
    stalks = {}
    for cid in sorted(pair.stalks):
        gens = []
        for g, sec in pair.stalks[cid]:
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


def _json_object(x, what):
    if not isinstance(x, dict):
        raise ValueError(f"{what} must be a JSON object")
    return x


def pair_from_json_dict(obj):
    """Rebuild a pair from a dump: the fan is reconstructed, its
    subdivision is rebuilt from the recorded centers (ids are
    deterministic), and the stored generator sections are attached without
    recomputation.  The recorded steps are either empty, when the fan is
    its own subdivision, or one center per cone of dim >= 2 in the order
    ``fans.barycentric_subdivision`` takes the cones, each of length n and
    in the relative interior of its cone; any other list raises
    ValueError, and so does a rule other than "default" or "alt", a section
    map that does not name exactly its cone's pieces, or a coefficient that
    is neither a JSON integer nor a scalar literal."""
    rule = obj.get("rule", "default")
    _barycenter_choice(rule)
    fan = fans.fan_from_json_dict(obj["fan"], check=True)
    field = fan.field
    n = fan.n
    centers = [parse_vector(v, field) for v in obj.get("steps", [])]
    if not centers:
        subdivided, steps = fan, ()
    else:
        wanted = sum(1 for c in fan.cones.values() if c.dim >= 2)
        if len(centers) != wanted:
            raise ValueError(f"pair dump lists {len(centers)} subdivision "
                             f"centers, but its fan has {wanted} cones of "
                             "dim >= 2")
        if any(len(v) != n for v in centers):
            raise ValueError("a subdivision center's length does not match "
                             "dim")
        recorded = iter(centers)
        subdivided, steps = fans.barycentric_subdivision(
            fan, lambda cone: next(recorded))
    pair = DistinguishedPair(fan, subdivided, steps, rule=rule)
    for cid_s, gens in _json_object(obj["stalks"], "'stalks'").items():
        cid = int(cid_s)
        if cid not in fan.cones:
            raise ValueError(f"unknown cone id {cid} in pair dump")
        parsed = []
        for g, sec in gens:
            g = json_int(g, "a stalk generator grading")
            if g % 2:
                raise ValueError("stalk generator gradings must be even")
            entry = {}
            sec = _json_object(
                sec, f"a section map of the stalk of cone {cid}")
            named = sorted(int(pid_s) for pid_s in sec)
            if named != list(pair.pieces(cid)):
                raise ValueError(f"a section map of the stalk of cone {cid} "
                                 f"names cones {named}, not the cone's pieces "
                                 f"{list(pair.pieces(cid))}")
            for pid_s, coeffs in sec.items():
                pid = int(pid_s)
                coeffs = _json_object(
                    coeffs, f"the coefficient map of a section on cone {pid}")
                poly = Polynomial(n, {
                    _parse_exp(es, n): json_scalar(cs, field, "coefficient")
                    for es, cs in coeffs.items()})
                if poly and poly.degree() != g // 2:
                    raise ValueError("a stalk generator section is not of "
                                     "degree grading/2")
                entry[pid] = poly
            parsed.append((g, entry))
        pair.stalks[cid] = tuple(parsed)
    for cid in fan.cones:
        if cid not in pair.stalks:
            raise ValueError(f"pair dump is missing the stalk of cone {cid}")
    return pair
