"""Stalks and graded section spaces of the minimal conewise sheaf.

The pipeline: a complete (or quasi-convex) fan gets a distinguished
simplicial subdivision, the barycentric subdivision of its nonsimplicial
cones (the fan itself when it is simplicial).  A stalk is a tuple of
(grading, sections) generators.  Stalks are built by increasing cone
dimension: a simplicial cone's is the constant, and a nonsimplicial cone's
comes from one flattening of its boundary along its subdivision center over
the pair's face lattice (flatten_boundary): the facets, their pieces and
their stalks go down to a complete pair one dimension lower, on which hard
Lefschetz and Hodge-Riemann are checked and whose primitive classes are
pulled back to the cone's pieces (flattened_stalk).  Global sections of any
grading are then read off per-carrier columns (_Sections): the monomials in
the carrier's frame variables times its stalk generators, the frame
(_frame) being the dual forms of the rays on a simplicial carrier and the
ambient coordinates elsewhere.  Sections are absolute: each wall the
builder reads lies between two pieces, and a boundary piece constrains
nothing.  A simplicial carrier's columns are keyed by their face-supported
monomials, one class per key; only walls that touch a nonsimplicial carrier
give rows, a sparse linear system built in integer arithmetic.  The
columns, their classes and, on a pair whose carriers are all simplicial,
the basis depend on the labeled face lattice and the stalk gradings alone
(_carriers), so pairs that share them share one cached copy (_columns).

GradedIH is the cohomology of a pair.  It picks representatives of the
classes, certifies a complete pair's mod-p choice by Poincare duality, and
reads every Lefschetz quantity (pairing, hard Lefschetz ranks,
Hodge-Riemann forms, primitives, Lefschetz matrices) off one Gram matrix
of their values at a generic point (EvaluationContext,
GradedIH.lefschetz_gram), each grading's values evaluated and cleared to
integers once per profile, with no Matrix built for them.  The stalk
generators of a nonsimplicial cone are the primitives of its flattened
boundary, read off the same Gram one dimension down.

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
    _ints,
    clear_rows,
    cleared_gram,
    dual_basis,
    echelon_insert,
    format_scalar,
    gram,
    inverse,
    json_int,
    json_list,
    json_scalar,
    kernel_basis,
    radicand,
    rank,
    sc,
    signature,
    sparse_eliminate,
    sparse_kernel,
    vdot,
)
from . import fans
from .fans import (
    Fan,
    canonical_direction,
    format_vector,
    parse_vector,
)
from .conewise import Polynomial, monomials

# -- boundary flattening ---------------------------------------------------


def projection_along(v, n, span_vectors):
    """Exact projection along the line through v onto a chosen complement
    inside span(span_vectors): returns (proj, b) where, for the covector x
    that is 1/v_i at the first nonzero coordinate v_i of v and 0 elsewhere
    (so x(v) = 1), b is a basis of the kernel of x inside that span and
    proj is the projection Matrix onto coordinates in b, so that b^T is a
    section of proj with image ker x."""
    v = fans.vec(v)
    i0 = next((i for i, c in enumerate(v) if c), None)
    if i0 is None:
        raise ValueError("cannot project along the zero vector")
    xi = v[i0].inverse()
    x = tuple(xi if j == i0 else ZERO for j in range(n))
    rows = [fans.vsub(u, fans.vscale(vdot(x, u), v)) for u in span_vectors]
    basis = [rows[i] for i in dual_basis(rows, n)[0]]
    b = Matrix(basis, ncols=n)
    c = inverse(b.mul(b.transpose())).mul(b)
    cv = c.apply(v)
    proj = Matrix([[c.entries[i][j] - cv[i] * x[j] for j in range(n)]
                   for i in range(len(basis))], ncols=n)
    return proj, basis


# -- section spaces and distinguished pairs --------------------------------


_EXP_BITS = 16


def _pack(e):
    """An exponent tuple as one int with a 16-bit digit per variable, so
    that multiplying monomials adds their packed exponents."""
    return sum(x << (_EXP_BITS * i) for i, x in enumerate(e))


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
    terms = [(p, j, x) for p, row in eqs
             for j, x in enumerate(row) if x and j != p]
    a, b, den, _ = _ints([x for _, _, x in terms])
    units = [1 << (_EXP_BITS * i) for i in range(n)]
    forms = {p: ({}, {}) for p, _ in eqs}
    for (p, j, _), x, y in zip(terms, a, b or itertools.repeat(0)):
        for part, c in zip(forms[p], (x, y)):
            if c:
                part[units[j]] = -c
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


def _add_images(rows, images, slots, monos, f, c, m):
    """Add c * images[e + f] to variable slots[i] of the rows, for the i-th
    packed exponent e of monos.  The coefficient c and the images are
    integers over Z[sqrt(m)], pairs (rational part, sqrt(m) part), and so
    are the rows: a pair of dicts {reduced exponent: {variable: int}}."""
    ca, cb = c
    # (part of the image, part of the rows, factor)
    terms = [t for t in ((0, 0, ca), (1, 1, ca), (0, 1, cb),
                         (1, 0, cb * m if cb else 0)) if t[2]]
    for col, e in zip(slots, monos):
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


def _frame(rays, n):
    """The column frame of the carrier with these rays, the one place the
    column convention of _Sections lives: (forms, vectors), the column
    variables being y_r = forms[r] . x, so that x = sum_r y_r vectors[r].
    On a simplicial carrier the forms are the dual forms of its rays, read
    off the cached cone geometry (fans.cone_geometry), and the vectors the
    rays; on any other both are the unit vectors."""
    if len(rays) == n:
        return fans.cone_geometry(rays, n).duals, rays
    units = tuple(tuple(ONE if j == i else ZERO for j in range(n))
                  for i in range(n))
    return units, units


@functools.lru_cache(maxsize=4096)
def _frame_monomial(rays, e):
    """The monomial y^e in the frame of the carrier with these rays as an
    ambient Polynomial, from a process-wide cache of the 4096 last used."""
    n = len(e)
    return Polynomial(n, {e: ONE}).compose(_frame(rays, n)[0])


def _times(vecm, forms, width, on, p=None):
    """The products l_0 * vecm, ..., l_(width-1) * vecm of the coefficient
    vector vecm with linear forms given in each carrier's frame (_frame):
    forms[mid][r] lists the nonzero pairs (i, l_i . vectors[r]), the
    coefficients of y_r, and multiplying by y_r raises exponent r.  Only
    the columns that on.get keys are kept, each keyed by on.get(column).
    Scalars, or with p ints reduced mod p once; entries that vanish are
    dropped."""
    outs = [{} for _ in range(width)]
    for (mid, j, e), c in vecm.items():
        for r, coeffs in enumerate(forms[mid]):
            if not coeffs:
                continue
            k = on.get((mid, j, e[:r] + (e[r] + 1,) + e[r + 1:]))
            if k is None:
                continue
            for i, x in coeffs:
                out = outs[i]
                s = out.get(k)
                out[k] = x * c if s is None else s + x * c
    if p is None:
        return [{k: s for k, s in out.items() if s} for out in outs]
    return [{k: r for k, s in out.items() if (r := s % p)} for out in outs]


def _coordinate_forms(fan):
    """The coordinates x_i = sum_r vectors[r]_i * y_r in each maximal cone's
    frame, as forms for _times: the ideal multiples x_i * b of a section."""
    return {mid: [[(i, x) for i, x in enumerate(v) if x]
                  for v in _frame(fan.cones[mid].rays, fan.n)[1]]
            for mid in fan.maximal_ids}


def _carriers(pair):
    """Each maximal cone of the pair in id order as (id, its fan ray ids in
    ray order if it is simplicial else None, its stalk generator
    gradings): all that the columns of a grading, their classes and the
    basis without rows depend on (_columns)."""
    fan = pair.fan
    return tuple(
        (mid, tuple(fan.id_by_key[(r,)] for r in cone.rays)
         if len(cone.rays) == fan.n else None,
         tuple(g for g, _ in pair.stalks[mid]))
        for mid in fan.maximal_ids for cone in (fan.cones[mid],))


def _section_spaces(pair, gradings):
    """The section spaces {d: _Sections} of the gradings: the one builder
    of section spaces, which builds each wall's data and the carriers
    (_carriers) once for all of them (see _Sections).

    The walls are the facet pieces with two owners of different carriers;
    a boundary piece, with one owner, is no wall, and neither is one whose
    two carriers are simplicial (their columns are keyed by monomial).
    Every other wall keeps its owners and its equations.  The gradings are
    solved in ascending order, and grading d reads the wall images of
    degree d/2 only, so each degree is built just before the first grading
    that reads it and let go once a grading reads the next."""
    fan, sub = pair.fan, pair.subdivided
    walls = []
    for tid in pair.facet_piece_ids:
        owners = sub.cofaces_of[tid]
        cones = [fan.cones[pair.carrier[hat]] for hat in owners]
        if len(cones) != 2 or cones[0] is cones[1] or \
                all(c.is_simplicial() for c in cones):
            continue
        eqs = fans.wall_equations(sub, tid)
        gens = [sec[hat].coeffs for hat, c in zip(owners, cones)
                for _, sec in pair.stalks[c.id]]
        forms = [y for c in cones for y in _frame(c.rays, fan.n)[0]]
        m = radicand([x.m for g in gens for x in g.values()]
                     + [x.m for y in forms for x in y]
                     + [x.m for _, row in eqs for x in row])
        walls.append((owners, m, _wall_images(eqs, fan.n, m)))
    carriers = _carriers(pair)
    spaces = {}
    degree, levels = -1, None
    for d in sorted(set(gradings)):
        while degree < d // 2:
            levels = [next(images) for _, _, images in walls]
            degree += 1
        spaces[d] = _Sections(pair, d, carriers, [
            (owners, m, level)
            for (owners, m, _), level in zip(walls, levels)])
    return {d: spaces[d] for d in gradings}


def _classes(carriers, cols):
    """The classes of the columns (see _Sections), each in ascending order,
    in the order of their largest members; carriers as _carriers gives
    them.  A ray has one id, so equal monomials get equal keys."""
    ids = {mid: rids for mid, rids, _ in carriers if rids is not None}
    members = {}
    for c, (mid, _, e) in enumerate(cols):
        rids = ids.get(mid)
        key = c if rids is None else \
            tuple((rids[r], x) for r, x in enumerate(e) if x)
        members.setdefault(key, []).append(c)
    return sorted(members.values(), key=lambda ms: ms[-1])


# A benchmark run holds about ten labeled face lattices (one per
# combinatorial type and labeling of its rays), each read at every grading
# up to 2n, flattened boundaries included: about a hundred entries, which
# 256 hold with room to spare while bounding what the large inputs keep.
@functools.lru_cache(maxsize=256)
def _columns(n, grading, carriers):
    """The grading-d columns of any pair in dimension n with these carriers
    (_carriers), which they alone decide: (cols, start, classes, slot,
    basis, free), from a process-wide cache of the 256 most recently used,
    shared by every pair of one labeled face lattice and stalk gradings.
    cols lists the columns (see _Sections) and start[(mid, j)] is the
    index of the first of carrier mid's generator j; classes are those of
    _classes and slot[c] is the class of column c; basis and free are the
    section basis, one vector per class, and its free columns when every
    carrier is simplicial (no wall gives a row), else None.  Everything is
    a tuple but start and the basis vectors, which no code writes."""
    cols = []
    start = {}
    for mid, _, gradings in carriers:
        for j, g in enumerate(gradings):
            if g <= grading:
                start[(mid, j)] = len(cols)
                cols.extend((mid, j, e)
                            for e in monomials(n, (grading - g) // 2))
    cols = tuple(cols)
    classes = tuple(tuple(ms) for ms in _classes(carriers, cols))
    slot = [None] * len(cols)
    for v, ms in enumerate(classes):
        for c in ms:
            slot[c] = v
    if any(rids is None for _, rids, _ in carriers):
        return cols, start, classes, tuple(slot), None, None
    basis = tuple({cols[i]: ONE for i in ms} for ms in classes)
    return (cols, start, classes, tuple(slot), basis,
            tuple(ms[-1] for ms in classes))


class _Sections:
    """Solved space of grading-d sections of a pair, parametrized by
    per-maximal-cone polynomial coefficients for each stalk generator.

    A column (mid, j, e) stands for y^e times the j-th stalk generator of
    the carrier mid, y being its frame variables (_frame).  A simplicial
    carrier's stalk is the constant 1, so its columns are the monomials of
    degree d/2 in the dual forms y_rho of its rays.

    On a simplicial carrier holding a face S, the y_rho of S's rays restrict
    to S's own dual basis on span S and the other rays' forms vanish there,
    so every section has the same coefficient on each monomial supported on
    S on every simplicial carrier holding S: Billera's face-supported
    monomials ("The algebra of continuous piecewise polynomials", 1989).
    Each column of a simplicial carrier is keyed by its monomial, the pairs
    (fan ray id, exponent) with a positive exponent; equal keys form one
    class, and every other column is a class of its own.  Two simplicial
    sides of a wall agree on it exactly when these classes do, so such a
    wall gives no rows.  The columns and their classes depend on the
    carriers alone, so pairs of one labeled face lattice share them
    (_columns).

    Every wall that touches a nonsimplicial carrier keeps one block of
    rows: each row is one coefficient of the difference of the two sides'
    sections in the normal form modulo the wall's equations.  A simplicial
    side enters through each column's ambient expansion (_frame_monomial);
    a nonsimplicial side keeps one polynomial per generator, times its
    columns' ambient monomials, so no product of a monomial with a
    generator is expanded.  The block is built in integers: with D clearing
    the equations (_wall_images) and E the polynomials of both sides, every
    entry is E * D^(d/2) times the exact one, which leaves the kernel as it
    is.  Each row is then divided by the gcd of its entries, so the kernel
    sees equal rows of the pieces of one wall as repeats.  The rows are
    written in the variables: the classes, each standing for 1 on all its
    members, in the order of their largest members.

    The basis is the reduced kernel over the variables, each variable
    spread over its members: basis[k] is 1 at its free column
    cols[free[k]], free[k] being its largest index, and 0 at every other
    free column, so restriction to the free columns is one-to-one on
    sections.  When every carrier is simplicial no wall gives a row, every
    variable is free, and the basis is the shared one of _columns; any
    other pair solves its kernel, which is the identity with no rows.  Each
    wall's owners and radicand in walls are shared by the gradings of one
    _section_spaces call, and neither depends on d: the radicand is that of
    the frame forms and all generators of both sides and of the equations,
    and rational data has no sqrt(m) parts whatever m is.  Its images are
    those of degree d/2, the only ones grading d reads, built degree by
    degree as the gradings go up."""

    __slots__ = ("pair", "cols", "basis", "free")

    def __init__(self, pair, grading, carriers, walls):
        self.pair = pair
        fan = pair.fan
        n = fan.n
        k = grading // 2
        cols, start, classes, slot, self.basis, self.free = \
            _columns(n, grading, carriers)
        self.cols = cols
        rows = []
        rows_m = None   # the radicand of the rows' sqrt(m) parts
        # the packed exponents (_pack) of each degree's monomials
        packed = [[_pack(e) for e in monomials(n, j)]
                  for j in range(k + 1)] if walls else ()
        for owners, m, images in walls:
            # the polynomials' coefficients keyed by (first column, degree
            # of the monomials they multiply, packed exponent)
            coeffs = {}
            for hat, sign in zip(owners, (1, -1)):
                mid = pair.carrier[hat]
                cone = fan.cones[mid]
                if cone.is_simplicial():
                    # each column's own polynomial, times the monomial 1
                    for i, e in enumerate(monomials(n, k), start[(mid, 0)]):
                        poly = _frame_monomial(cone.rays, e)
                        for f, c in poly.coeffs.items():
                            coeffs[(i, 0, _pack(f))] = c if sign > 0 else -c
                    continue
                for j, (g, sec) in enumerate(pair.stalks[mid]):
                    if g <= grading:
                        key = (start[(mid, j)], (grading - g) // 2)
                        for f, c in sec[hat].coeffs.items():
                            coeffs[key + (_pack(f),)] = c if sign > 0 else -c
            block = ({}, {})
            a, b, _, _ = _ints(coeffs.values())
            for (col0, kk, f), x, y in zip(coeffs, a,
                                           b or itertools.repeat(0)):
                monos = packed[kk]
                _add_images(block, images, slot[col0:col0 + len(monos)],
                            monos, f, (x, y), m)
            for r in dict.fromkeys(block[0]) | dict.fromkeys(block[1]):
                row = _primitive(block[0].get(r, {}), block[1].get(r, {}))
                if row is not None:
                    rows.append(row)
                    if row[1]:
                        # every scalar of a pair lies in its fan's field,
                        # so the walls share one radicand
                        rows_m = m
        if self.basis is None:
            kern = sparse_kernel(rows, len(classes), rows_m)
            self.free = tuple(classes[max(v)][-1] for v in kern)
            self.basis = tuple({cols[i]: c for v, c in w.items()
                                for i in classes[v]} for w in kern)

    def materialize(self, vecm):
        """Dict-vector in column coordinates -> per-subdivided-max-cone
        polynomials: each (carrier, generator) block of frame monomials
        times that generator on each of the carrier's pieces."""
        pair, fan = self.pair, self.pair.fan
        one = Polynomial.constant(fan.n, 1)
        blocks = {}   # (carrier, generator) -> ([c], [y^e as a Polynomial])
        for (mid, j, e), c in vecm.items():
            cs, monos = blocks.setdefault((mid, j), ([], []))
            cs.append(c)
            monos.append(_frame_monomial(fan.cones[mid].rays, e).coeffs)
        out = {hat: Polynomial(fan.n) for hat in pair.subdivided.maximal_ids}
        for (mid, j), (cs, monos) in blocks.items():
            fs = list(dict.fromkeys(f for mono in monos for f in mono))
            coeffs = gram((cs,), [[mono.get(f, ZERO) for mono in monos]
                                  for f in fs]).entries[0]
            q = Polynomial(fan.n, dict(zip(fs, coeffs)))
            for hat, g in pair.stalks[mid][j][1].items():
                out[hat] = out[hat].add(q if g == one else q.mul(g))
        return out


class DistinguishedPair:
    """A fan together with its distinguished simplicial subdivision, the
    subdivision step sequence, and the stalk of every cone: a tuple of
    generators, each a (grading, sections) pair where sections maps the
    cone's pieces (subdivided-cone ids) to homogeneous polynomials of degree
    grading/2; a simplicial cone's stalk is the constant 1, which its
    section columns presume (_Sections).  subdivided must be fan subdivided
    at the steps' centers (fans.barycentric_subdivision), each step a
    (center, ray key of its cone) pair.  carrier maps each subdivided cone
    to the smallest coarse cone containing it, pieces each coarse cone to
    the subdivided cones of its dimension that it carries, and
    facet_piece_ids lists the subdivided (n-1)-cones, whose owners are
    their cofaces in the subdivision."""

    __slots__ = ("fan", "subdivided", "steps", "stalks", "carrier",
                 "pieces", "facet_piece_ids")

    def __init__(self, fan, subdivided, steps, stalks=None):
        self.fan = fan
        self.subdivided = subdivided
        self.steps = tuple(steps)
        for m in fan.maximal_ids:
            if fan.cones[m].dim != fan.n:
                raise ValueError("maximal cones must have full dimension")
        # the carrier of a subdivided cone is the smallest coarse cone
        # containing it.  Each subdivided cone is a face of one flag: the
        # rays of a simplicial coarse cone and the centers of a chain of
        # coarse cones above it.  With a center it lies in the relative
        # interior of its top center's cone, which has the largest id of
        # them (ids go up with dimension); without one it is a face of the
        # simplicial cone, so a coarse cone with its ray key, and every
        # cone of a simplicial fan, its own subdivision, costs one lookup.
        centered = {canonical_direction(v): fan.id_by_key[key]
                    for v, key in self.steps}
        self.carrier = {}
        self.pieces = {cid: [] for cid in fan.cones}
        for tid, tc in subdivided.cones.items():
            car = fan.id_by_key.get(tc.rays)
            if car is None:
                car = max((centered[r] for r in tc.rays if r in centered),
                          default=None)
            if car is None:
                raise ValueError("subdivided cone escapes the coarse fan")
            self.carrier[tid] = car
            if fan.cones[car].dim == tc.dim:
                self.pieces[car].append(tid)
        self.pieces = {cid: tuple(v) for cid, v in self.pieces.items()}
        self.facet_piece_ids = tuple(
            c.id for c in subdivided.cones_of_dim(fan.n - 1))
        self.stalks = dict(stalks) if stalks else {}


def build_distinguished_pair(fan: Fan):
    """Distinguished pair of a fan whose maximal cones have full dimension:
    a complete fan, or an incomplete one such as a single cone with its
    faces, whose sections are absolute all the same (see _section_spaces).
    The subdivision cuts up only the nonsimplicial cones, so a simplicial
    fan is its own (fans.barycentric_subdivision).
    Stalks are built by increasing cone dimension (ids go up with it): the
    constant on a simplicial cone, the pulled-back primitives of the
    flattened boundary on any other (flattened_stalk)."""
    subdivided, steps = fans.barycentric_subdivision(fan)
    pair = DistinguishedPair(fan, subdivided, steps)
    centers = {key: center for center, key in steps}
    for cid, c in fan.cones.items():
        if c.is_simplicial():
            pair.stalks[cid] = ((0, {pid: Polynomial.constant(fan.n, 1)
                                     for pid in pair.pieces[cid]}),)
        else:
            pair.stalks[cid] = flattened_stalk(pair, cid, centers[c.rays])
    return pair


def flatten_boundary(pair: DistinguishedPair, cid, v):
    """Flatten the boundary of the nonsimplicial cone cid of the pair along
    its subdivision center v: the projection along v maps the boundary onto
    a complete fan one dimension down, and the pair's subdivision of the
    boundary and the stalks of the cone's facets go along with it.  The
    subdivision has checked that v is interior to the cone.

    The flattened fan is subdivided by the pair's rule one dimension down
    (fans.barycentric_subdivision) at the projected centers of the cone's
    proper faces, so its pieces are the facets' pieces projected (the
    projection is one-to-one on each facet) and its pair carries the steps.

    The lift of a facet F, the section of the projection over span F, is
    lift_F(y) = b^T y + t(y) v with t(y) = -eta_F(b^T y) / eta_F(v), for b
    the basis of projection_along and eta_F the cone's facet form through
    F: the projection kills v and is the identity on b^T, and eta_F
    vanishes on the cone's span exactly on span F.  As x kills b^T and
    x(v) = 1, x . lift_F = t.

    Returns (pair, lam_l, proj, pieces): the flattened pair, whose stalks
    are those of its maximal cones (the facets' images, the only stalks its
    sections read), each pushed forward by the lift of its facet; the
    strictly convex function equal to x . lift_F on the image of each facet
    F, with x(v) = 1 the covector of projection_along; the projection
    Matrix; and the map from each piece of the cone (the center's ray and a
    piece of a facet) to the flattened piece it projects onto."""
    fan, sub = pair.fan, pair.subdivided
    cone = fan.cones[cid]
    geom = cone.geometry()
    n, m = fan.n, cone.dim - 1
    proj, b = projection_along(v, n, [cone.rays[i] for i in geom.basis])
    facets = [f for f in fan.faces_of[cid] if fan.cones[f].dim == m]
    # the image of each ray of the facets' pieces, which include the
    # facets' own rays, projected once
    image = {}
    for f in facets:
        for pid in pair.pieces[f]:
            for r in sub.cones[pid].rays:
                if r not in image:
                    image[r] = canonical_direction(proj.apply(r))

    def key(rays):
        return tuple(sorted(image[r] for r in rays))

    lam = Fan(m, fan.field, [key(fan.cones[f].rays) for f in facets],
              check=False)
    faces = {fan.cones[f].rays for f in fan.faces_of[cid]}
    centers = {key(k): proj.apply(c) for c, k in pair.steps if k in faces}
    lam_sub, steps = fans.barycentric_subdivision(
        lam, lambda c: centers[c.rays])
    stalks, forms = {}, {}
    for f in facets:
        rays = fan.cones[f].rays
        eta = geom.facet_forms[geom.facet_ray_keys.index(rays)]
        s = -vdot(eta, v).inverse()
        t = [s * e for e in gram((eta,), b).entries[0]]
        lift = [[bi[j] + ti * v[j] for bi, ti in zip(b, t)] for j in range(n)]
        lid = lam.id_by_key[key(rays)]
        forms[lid] = t
        stalks[lid] = tuple(
            (g, {lam_sub.id_by_key[key(sub.cones[pid].rays)]:
                 poly.compose(lift) for pid, poly in sec.items()})
            for g, sec in pair.stalks[f])
    vray = canonical_direction(v)
    pieces = {pid: lam_sub.id_by_key[key(
        r for r in sub.cones[pid].rays if r != vray)]
        for pid in pair.pieces[cid]}
    return (DistinguishedPair(lam, lam_sub, steps, stalks=stalks),
            fans.PLFunction(lam, forms, check=False), proj, pieces)


# -- graded section algebra -------------------------------------------------


def _at(z, forms):
    """{key: the values at z of its forms} for {key: forms}, off one
    product (exactlin.gram) of z with all the forms."""
    values = iter(gram((z,), [f for fs in forms.values() for f in fs])
                  .entries[0])
    return {key: tuple(itertools.islice(values, len(fs)))
            for key, fs in forms.items()}


class EvaluationContext:
    """One generic point z of the subdivision, the first point
    (1, t, ..., t^(n-1)) with t = 2, 3, 4, ... at which no maximal cone's
    phi vanishes, and 1/phi(z) per maximal cone (inv_phi_z, in the order
    of the subdivision's maximal ids).  A maximal simplicial cone's phi is
    |det| times the product of its dual-basis facet forms, read off the
    cone's geometry (fans.Cone.geometry): the product of forms whose wedge
    has determinant +-1 in the input coordinates.  A form's value at such
    a point is a nonzero polynomial in t, so the search ends.  Kept for
    evaluating sections: z's coordinates y(z) in each carrier's frame
    (frame_z, see _frame), and per piece the values at z of its carrier's
    stalk generators (gens_z, in the order of inv_phi_z), a value of 1 as
    ONE itself, which GradedIH._evaluate does not multiply by."""

    __slots__ = ("z", "inv_phi_z", "frame_z", "gens_z")

    def __init__(self, pair: DistinguishedPair):
        sub = pair.subdivided
        n = sub.n
        if not sub.is_simplicial():
            raise ValueError("evaluation needs the simplicial subdivision")
        geoms = {}
        for m in sub.maximal_ids:
            if len(sub.cones[m].rays) != n:
                raise ValueError("evaluation needs full-dimensional cones")
            geoms[m] = sub.cones[m].geometry()
        for t in itertools.count(2):
            z = tuple(sc(t) ** i for i in range(n))
            duals = _at(z, {m: geom.duals for m, geom in geoms.items()})
            vals = {m: prod(duals[m], start=abs(geom.det))
                    for m, geom in geoms.items()}
            if all(vals.values()):
                break
        self.z = z
        self.inv_phi_z = {m: v.inverse() for m, v in vals.items()}
        fan = pair.fan
        self.frame_z = duals if fan is sub else _at(z, {
            mid: _frame(fan.cones[mid].rays, n)[0] for mid in fan.maximal_ids})
        self.gens_z = {m: tuple(ONE if v == ONE else v for v in (
            sec[m].evaluate(z) for _, sec in pair.stalks[pair.carrier[m]]))
            for m in self.inv_phi_z}


class GradedIH:
    """The cohomology of a pair up to a grading cap: graded section spaces,
    the ideal multiples, chosen complement representatives (the cohomology
    basis), and the evaluation Gram matrices of the representatives.

    The candidates of grading d are the ideal multiples x_i * b (b in the
    grading-(d-2) basis) on the free columns (see _Sections), keyed -f for
    the free column f.  A row of their reduced echelon with pivot -F, its
    smallest key, writes e_F in smaller free columns modulo the candidates,
    so the representatives are the basis vectors at the free columns that
    are no pivot: the greedy choice that offers the candidates and then the
    basis vectors, on full-length vectors too, as restriction to the free
    columns is one-to-one on sections.

    A complete pair (uncapped, every facet piece a wall between two pieces)
    builds the candidates mod P from residues (exactlin.residue_map) and
    certifies the choice by Poincare duality.  The pivot rows and the
    representatives fill the dimension and are independent mod P, so
    independent: h_d <= len(comps[d]).  When the pairing matrix between the
    representatives of gradings d and 2n - d (pairing) is square and
    nonsingular for every even d <= n, the classes of both lists are
    independent (the evaluation vanishes on ideal multiples), so
    h_d >= len(comps[d]) and the representatives are bases.  When a
    coefficient has no residue or the pairing fails, everything is
    selected again exactly and exactlin.modp_fallbacks goes up by 1.  Every
    other pair selects exactly.  Either way grams keeps each pairing matrix
    once it is built, for cohomology.pairing_matrix.  A profile raises
    ValueError unless h_0 = 1 (connected support).

    Everything about a Lefschetz operator l (the pairing, HL ranks, HRM
    forms, primitives and the Lefschetz matrix itself) comes from one Gram
    matrix, lefschetz_gram, built from the representatives' values at the
    evaluation context's generic point."""

    __slots__ = ("pair", "cap", "spaces", "comps", "h", "grams", "_ctx",
                 "_rep_polys", "_cleared")

    def __init__(self, pair: DistinguishedPair, cap=None):
        self.pair = pair
        self.cap = 2 * pair.fan.n if cap is None else cap
        self.spaces = _section_spaces(pair, range(0, self.cap + 1, 2))
        self._ctx = None
        cofaces = pair.subdivided.cofaces_of
        complete = cap is None and all(
            len(cofaces[t]) == 2 for t in pair.facet_piece_ids)
        if not (complete and
                self._select(*exactlin.residue_map(pair.fan.field.m)) and
                self._certify()):
            if complete:
                exactlin.record_fallback()
            self._select()
        if self.h.get(0) != 1:
            raise ValueError("connected support must have a 1-dimensional "
                             "grading-0 cohomology")

    def _select(self, p=None, residue=None):
        """Choose the representatives afresh, dropping whatever was read
        off an earlier choice: exactly, or mod the prime p on the residues
        of every coefficient (see exactlin.residue_map); False when one has
        no residue."""
        self.comps, self.h = {}, {}
        self.grams, self._rep_polys, self._cleared = {}, {}, {}
        n = self.pair.fan.n
        coeff = residue or (lambda x: x)
        try:
            forms = {mid: [[(i, coeff(x)) for i, x in v] for v in vs]
                     for mid, vs in _coordinate_forms(self.pair.fan).items()}
            lows = {d + 2: [{k: coeff(c) for k, c in b.items()}
                            for b in sp.basis]
                    for d, sp in self.spaces.items() if d + 2 in self.spaces}
        except ValueError:   # a coefficient without a residue
            return False
        for d, sp in self.spaces.items():
            # on the free columns, keyed -f to pivot on the largest one
            key = {sp.cols[f]: -f for f in sp.free}
            pivots = {c for c, _ in sparse_eliminate(
                (row for b in lows.get(d, ())
                 for row in _times(b, forms, n, key, p)), p)}
            self.comps[d] = [b for b, f in zip(sp.basis, sp.free)
                             if -f not in pivots]
            self.h[d] = len(self.comps[d])
        return True

    def _certify(self):
        """Build the pairing of every even grading d <= n (pairing); False
        unless each is square and nonsingular, or when the evaluation
        context cannot be built."""
        try:
            for d in range(0, self.pair.fan.n + 1, 2):
                self.pairing(d)
        except ValueError:
            return False
        return True

    def pairing(self, d):
        """The pairing matrix between the representatives of the gradings
        d <= n (rows) and 2n - d (columns), kept in grams; raises ValueError
        when it is not square and nonsingular."""
        mat = self.grams.get(d)
        if mat is None:
            mat = self.lefschetz_gram(None, d, 2 * self.pair.fan.n - d)
            r = rank(mat)
            if not mat.nrows == mat.ncols == r:
                raise ValueError(
                    f"duality pairing at grading {d} is degenerate "
                    f"({mat.nrows} x {mat.ncols}, rank {r})")
            self.grams[d] = mat
        return mat

    def h_vector(self):
        return tuple(self.h[d] for d in range(0, self.cap + 1, 2))

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

    def _cleared_values(self, d):
        """The grading-d representatives evaluated at the generic point
        (_evaluate), one row per representative and one entry per
        subdivided maximal cone in the order of the context's inv_phi_z,
        each row cleared once (exactlin.clear_rows) and kept for every
        Gram that reads them."""
        got = self._cleared.get(d)
        if got is None:
            ctx = self.context()
            got = self._cleared[d] = clear_rows(
                self._evaluate(v, ctx) for v in self.comps[d])
        return got

    def _evaluate(self, vecm, ctx):
        """The values at z of the section vecm on the subdivided maximal
        cones, in the order of ctx.inv_phi_z: on a piece m of mid, the sum
        over its columns (mid, j, e) of c * y(z)^e * g_j[m](z), with no
        Polynomial built and no product by a generator value of 1.  Each
        y(z)^e is computed where it is read, as few recur in a profile."""
        sums = {}   # (carrier, generator) -> sum_e c * y(z)^e
        for (mid, j, e), c in vecm.items():
            y = prod((x ** p for x, p in zip(ctx.frame_z[mid], e) if p),
                     start=ONE)
            sums[(mid, j)] = sums.get((mid, j), ZERO) + c * y
        out = []
        for m, gens in ctx.gens_z.items():
            mid = self.pair.carrier[m]
            total = None
            for j, g in enumerate(gens):
                s = sums.get((mid, j))
                if s is not None:
                    s = s if g is ONE else s * g
                    total = s if total is None else total + s
            out.append(ZERO if total is None else total)
        return out

    def lefschetz_gram(self, l, d, e):
        """Matrix of <a . l^k . b> with k = n - (d+e)/2, a the
        representatives of grading d (rows) and b those of grading e
        (columns): the weighted product (exactlin.cleared_gram) of their
        values at the generic point z, weighted on each piece by
        l(z)^k / phi(z), each grading's values cleared once per profile.
        l(z)^k is computed once per maximal cone of l's fan and multiplied
        into 1/phi(z) once per piece of it.  With k = 0 it is the pairing
        matrix and l is not read.  With e = d it is G A, for G the pairing
        at d and A the matrix of l^(n-d) in the stored bases."""
        ctx = self.context()
        k = self.pair.fan.n - (d + e) // 2
        weights = list(ctx.inv_phi_z.values())
        if k:
            at_z = gram(l.per_max.values(), (ctx.z,)).entries
            power = {mid: v ** k for mid, (v,) in zip(l.per_max, at_z)}
            carrier = self.pair.carrier
            weights = [power[carrier[m]] * w
                       for m, w in ctx.inv_phi_z.items()]
        return cleared_gram(self._cleared_values(d), weights,
                            self._cleared_values(e))

    def hodge_riemann(self, l, d):
        """(B, prim, definite) for an even grading d <= n: the Matrix B of
        the Lefschetz form <a . l^(n-d) . b> on the representatives of
        grading d (lefschetz_gram); the coordinates over them of a basis of
        the primitives, the kernel of one Lefschetz power beyond the
        pairing one (grading d -> 2n-d+2), which is the kernel of the Gram
        against grading d-2 when the pairing at d-2 is perfect; and whether
        (-1)^(d/2) B is positive definite on the primitives, the
        Hodge-Riemann relation (no primitives give a 0 x 0 form, of
        signature (0, 0)).  At d = 0 the power lands above the top grading,
        so everything is primitive, and h_0 = 1."""
        bmat = self.lefschetz_gram(l, d, d)
        prim = kernel_basis(self.lefschetz_gram(l, d - 2, d)) if d \
            else [(ONE,)]
        # P B P^T, B being symmetric
        form = gram(gram(prim, bmat.entries).entries, prim)
        pdim = len(prim)
        definite = signature(form) == ((pdim, 0) if d % 4 == 0 else (0, pdim))
        return bmat, prim, definite


def flattened_stalk(pair: DistinguishedPair, cid, v):
    """The stalk of a nonsimplicial cone: the grading-0 constant plus, for
    each grading d up to the middle, the pullbacks under the flattening
    projection of the primitive classes of grading d of its flattened
    boundary, keyed by the cone's pieces.  The flattened pair is complete,
    so its representatives are selected mod p and certified by its pairing,
    which is perfect by Poincare duality one dimension down; the primitives
    are read off the Gram of that pair (GradedIH.hodge_riemann).  Karu's
    induction hypothesis is checked at every grading up to the middle: it
    raises when a primitive space has unexpected dimension (hard
    Lefschetz) or the Lefschetz form is not definite on it (Hodge-Riemann)."""
    lam_pair, lam_l, proj, pieces = flatten_boundary(pair, cid, v)
    gih = GradedIH(lam_pair)
    gens = [(0, {pid: Polynomial.constant(pair.fan.n, 1) for pid in pieces})]
    for d in range(0, lam_pair.fan.n + 1, 2):
        _, prim, definite = gih.hodge_riemann(lam_l, d)
        expected = gih.h[d] - gih.h.get(d - 2, 0)
        if len(prim) != expected or not definite:
            raise ValueError(
                "Karu's induction hypothesis fails on a flattened boundary "
                f"at grading {d}: primitive dim {len(prim)}, expected "
                f"{expected} (hard Lefschetz); form definite on the "
                f"primitives: {definite} (Hodge-Riemann)")
        if not d:
            continue   # the constant above
        # each primitive as a coefficient vector: its coordinates times the
        # representatives' vectors
        comps = gih.comps[d]
        keys = list(dict.fromkeys(k for comp in comps for k in comp))
        mat = gram(prim, [[comp.get(k, ZERO) for comp in comps] for k in keys])
        for row in mat.entries:
            sec = gih.spaces[d].materialize(
                {k: x for k, x in zip(keys, row) if x})
            gens.append((d, {pid: sec[bid].compose(proj.entries)
                             for pid, bid in pieces.items()}))
    return tuple(gens)


# -- pair serialization ----------------------------------------------------


def _exp_key(e):
    return ",".join(str(x) for x in e)


def _json_key(s, what):
    """The integer an object key s spells; anything else raises ValueError
    naming what s stands for."""
    try:
        return int(s)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {s!r}") from None


def _parse_exp(s, n, pid):
    parts = [p for p in str(s).split(",") if p != ""]
    e = tuple(_json_key(p, f"an exponent of a section on cone {pid}")
              for p in parts)
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
        "steps": [format_vector(center) for center, _ in pair.steps],
        "stalks": stalks,
    }


def _check_minimal(cid, stalk, n):
    """Raise ValueError unless the stalk of a maximal cone is minimally
    generated: at each grading g, each generator of grading g is
    independent of those before it and of the multiples x^e * s_j of the
    generators s_j of lower grading g_j, |e| = (g - g_j) / 2, all written
    as rows keyed by (piece id, exponent) in one exact echelon.  Relations
    that only hold in higher degrees are not checked."""
    for g in sorted({g for g, _ in stalk}):
        ech = {}
        # the lower generators' multiples first, then those of grading g
        for gj, sec in sorted((t for t in stalk if t[0] <= g),
                              key=lambda t: t[0] == g):
            for e in monomials(n, (g - gj) // 2):
                if echelon_insert(ech, {
                        (pid, tuple(map(sum, zip(e, f)))): c
                        for pid, poly in sec.items()
                        for f, c in poly.coeffs.items()}) is None and gj == g:
                    raise ValueError(
                        f"the stalk of cone {cid} is not minimally "
                        f"generated: a grading-{g} generator depends on the "
                        "other generators and their multiples")


def _json_object(x, what):
    if not isinstance(x, dict):
        raise ValueError(f"{what} must be a JSON object")
    return x


def pair_from_json_dict(obj):
    """Rebuild a pair from a dump: the fan is reconstructed, its
    subdivision is rebuilt from the recorded centers by
    ``fans.barycentric_subdivision`` (ids are deterministic), and the
    stored generator sections are attached without recomputation.  The
    recorded steps are one center per nonsimplicial cone in the order
    ``fans.barycentric_subdivision`` takes the cones, each of length n and
    in the relative interior of its cone, so none for a simplicial fan;
    they fix the subdivision, so a "rule" key, which earlier versions
    wrote, is ignored.  Steps that are not such a list raise ValueError,
    and so does a stalk that is not a list of [grading, section map]
    pairs, a grading that is odd or negative, a cone id or an exponent
    that is not an integer, a section map that does not name exactly its
    cone's pieces, a coefficient that is neither a JSON integer nor a
    scalar literal, a simplicial cone's stalk other than the constant 1,
    or a maximal cone's stalk that is not minimally generated
    (_check_minimal)."""
    fan = fans.fan_from_json_dict(_json_object(obj.get("fan"), "'fan'"))
    field = fan.field
    n = fan.n
    centers = [parse_vector(v, field, f"step {i} of the pair dump")
               for i, v in enumerate(json_list(obj.get("steps", []),
                                               "steps"))]
    wanted = sum(1 for c in fan.cones.values() if not c.is_simplicial())
    if len(centers) != wanted:
        raise ValueError(f"pair dump lists {len(centers)} subdivision "
                         f"centers, but its fan has {wanted} "
                         "nonsimplicial cones")
    if any(len(v) != n for v in centers):
        raise ValueError("a subdivision center's length does not match dim")
    recorded = iter(centers)
    subdivided, steps = fans.barycentric_subdivision(
        fan, lambda cone: next(recorded))
    pair = DistinguishedPair(fan, subdivided, steps)
    one = Polynomial.constant(n, 1)
    maximal = set(fan.maximal_ids)
    for cid_s, gens in _json_object(obj["stalks"], "'stalks'").items():
        cid = _json_key(cid_s, "a stalk's cone id")
        if cid not in fan.cones:
            raise ValueError(f"unknown cone id {cid} in pair dump")
        if not isinstance(gens, list):
            raise ValueError(f"the stalk of cone {cid} must be a list of "
                             f"generators, got {gens!r}")
        parsed = []
        for gen in gens:
            if not (isinstance(gen, list) and len(gen) == 2):
                raise ValueError(f"a stalk generator of cone {cid} must be a "
                                 f"[grading, section map] pair, got {gen!r}")
            g, sec = gen
            g = json_int(g, "a stalk generator grading")
            if g % 2 or g < 0:
                raise ValueError("stalk generator gradings must be even and "
                                 "nonnegative")
            entry = {}
            sec = _json_object(
                sec, f"a section map of the stalk of cone {cid}")
            named = sorted(_json_key(
                pid_s, f"a section map key of the stalk of cone {cid}")
                for pid_s in sec)
            if named != list(pair.pieces[cid]):
                raise ValueError(f"a section map of the stalk of cone {cid} "
                                 f"names cones {named}, not the cone's pieces "
                                 f"{list(pair.pieces[cid])}")
            for pid_s, coeffs in sec.items():
                pid = int(pid_s)
                coeffs = _json_object(
                    coeffs, f"the coefficient map of a section on cone {pid}")
                poly = Polynomial(n, {
                    _parse_exp(es, n, pid): json_scalar(cs, field,
                                                        "coefficient")
                    for es, cs in coeffs.items()})
                if poly and poly.degree() != g // 2:
                    raise ValueError("a stalk generator section is not of "
                                     "degree grading/2")
                entry[pid] = poly
            parsed.append((g, entry))
        if fan.cones[cid].is_simplicial() and not (
                len(parsed) == 1 and parsed[0][0] == 0 and
                all(p == one for p in parsed[0][1].values())):
            # the section spaces write a simplicial carrier in its own dual
            # coordinates, which presumes this stalk (see _Sections)
            raise ValueError(f"the stalk of the simplicial cone {cid} must "
                             "be the constant 1")
        if cid in maximal:
            # the section spaces read only the maximal cones' stalks
            _check_minimal(cid, parsed, n)
        pair.stalks[cid] = tuple(parsed)
    for cid in fan.cones:
        if cid not in pair.stalks:
            raise ValueError(f"pair dump is missing the stalk of cone {cid}")
    return pair
