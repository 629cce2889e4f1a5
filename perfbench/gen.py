"""Seeded job generator with independent expected answers.

The package under test never sees the seed: it receives JSON documents
(fans or vertex lists) and plain ray values.  Every expected answer is
derived here from the combinatorics the generator chose, never by calling
the package:

- bipyramid over a k-gon (face fan) and prism over a k-gon (normal fan):
  h = (1, k-1, k-1, 1);
- product of an a-ray and a b-ray polygon fan: h = (1, a-2, 1) * (1, b-2, 1)
  (polynomial product);
- prism over a k-gon (face fan, nonsimplicial): h = (1, 2k-3, 2k-3, 1);
- a linear shear with a sqrt(2) entry changes none of these.

The polygons of a job come from a pool fixed by the job's position in the
run, and the seed draws their orientation (signs of x and y) and l.  On the
program this benchmark was defined on, the cost of one job varied up to 4x
between random polygons of one size, which made a run's median depend more
on the seed than on the program; with the shapes fixed, runs with
different seeds do the same work up to orientation and l.

Numbers in Q(sqrt 2) are kept as pairs (a, b) of Fractions meaning
a + b*sqrt(2), and written in the package's literal syntax ``a+br2``.
"""

import math
import random
from fractions import Fraction


# Polygon vertices sit near a circle of this radius.  The jitter is kept
# small because the cost of exact arithmetic grows with coordinate size:
# wide jitter makes per-job cost depend more on the seed than on the program.
RADIUS = 4
ANGLE_JITTER = 0.15
RADIUS_JITTER = 0.1
# Apex of the bipyramids and half-height of the prisms.  Fixed: one sheared
# polytope took twice as long with apex 2 as with apex 3 to 5.
HEIGHT = 3


def polygon(rng, k):
    """k lattice points in strictly convex position, in counterclockwise
    order, with the origin strictly inside.  Exact integer checks; the
    float angles only propose candidates."""
    while True:
        phase = rng.uniform(0, 2 * math.pi)
        pts = []
        for i in range(k):
            t = phase + 2 * math.pi * (
                i + rng.uniform(-ANGLE_JITTER, ANGLE_JITTER)) / k
            r = RADIUS * rng.uniform(1 - RADIUS_JITTER, 1 + RADIUS_JITTER)
            pts.append((round(r * math.cos(t)), round(r * math.sin(t))))
        if _strictly_convex_around_origin(pts):
            return pts


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _strictly_convex_around_origin(pts):
    k = len(pts)
    if len(set(pts)) != k:
        return False
    for i in range(k):
        a, b, c = pts[i], pts[(i + 1) % k], pts[(i + 2) % k]
        if _cross(a, b, c) <= 0:          # left turn at every vertex
            return False
        if _cross(a, b, (0, 0)) <= 0:     # origin strictly left of each edge
            return False
    # the origin is left of every edge, so each angular gap lies in (0, pi);
    # the gaps summing to one full turn rules out star polygons
    angles = [math.atan2(y, x) for x, y in pts]
    gaps = sum((angles[(i + 1) % k] - angles[i]) % (2 * math.pi)
               for i in range(k))
    return abs(gaps - 2 * math.pi) < 1e-6


def hmul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def hrm_signatures(h, n):
    """Expected signature of <l^(n-d) x y> on IH^d for even d <= n (d is a
    grading, so IH^d is h[d//2]): primitive pieces of degree j contribute
    with sign (-1)^(j/2)."""
    out = {}
    for d in range(0, n + 1, 2):
        p = q = 0
        for j in range(0, d + 1, 2):
            step = h[j // 2] - (h[j // 2 - 1] if j else 0)
            if (j // 2) % 2 == 0:
                p += step
            else:
                q += step
        out[d] = (p, q, h[d // 2] - (h[d // 2 - 1] if d else 0))
    return out


# -- exact helpers for Q(sqrt 2) written as (rational, sqrt2 coefficient) --


def fmt_q(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def fmt_q2(a, b):
    if not b:
        return fmt_q(a)
    sign = "+" if b > 0 else "-"
    return f"{fmt_q(a)}{sign}{fmt_q(abs(b))}r2"


def shear(v):
    """(x, y, ..., z) -> (x, y, ..., z + sqrt(2) x), as pairs.  The first
    coordinate stays rational, so canonical ray scaling stays rational."""
    out = [(Fraction(c), Fraction(0)) for c in v]
    out[-1] = (Fraction(v[-1]), Fraction(v[0]))
    return out


def canonical(v):
    """Scale so the first nonzero coordinate has absolute value 1 (the
    package's ray representative).  Returns (scale t, scaled vector)."""
    t = Fraction(next(abs(c) for c in v if c))
    return t, tuple(c / t for c in v)


def canonical2(v):
    """canonical() for sheared vectors whose first nonzero coordinate has
    no sqrt(2) part (guaranteed by shear())."""
    a, b = next((a, b) for a, b in v if a or b)
    assert not b
    t = abs(a)
    return t, tuple((a2 / t, b2 / t) for a2, b2 in v)


# -- job families -----------------------------------------------------------


def gauge_values(rays, scale, lin):
    """Ray values at the canonical generators of a strictly convex function:
    scale times the gauge of the polytope with vertices ``rays`` (1 on each
    given ray vector) plus the linear form ``lin``."""
    vals = []
    for v in rays:
        t, _ = canonical(v)
        vals.append((scale + sum(a * c for a, c in zip(lin, v))) / t)
    return vals


def fan_key(family, vectors):
    """Identity of a generated fan: the family and the ray directions.
    Two draws with equal keys are the same fan (the profile cache would
    hit), whatever the apex height or the strictly convex l."""
    return (family,) + tuple(sorted(canonical(v)[1] for v in vectors))


def _neg(rays):
    return [tuple(-c for c in v) for v in rays]


def _inline_fan(dim, rays, cones, rng, mirror):
    """Fan JSON with an inline strictly convex l (ray values in the order
    of the package's sorted canonical rays).  ``mirror`` gives the point
    reflection -Sigma with l(-x): a different fan (no cache hit) with the
    same numbers, used as the twin of a job in the traced run."""
    scale = rng.randint(1, 4)
    lin = [rng.randint(-1, 1) for _ in range(dim)]
    if mirror:
        rays, lin = _neg(rays), [-a for a in lin]
    vals = gauge_values(rays, scale, lin)
    order = sorted(range(len(rays)), key=lambda i: canonical(rays[i])[1])
    return {"field": "Q", "dim": dim,
            "rays": [list(r) for r in rays],
            "maximal_cones": cones,
            "l": {"ray_values": [fmt_q(vals[i]) for i in order]}}


def oriented(pts, rng):
    """pts with the sign of x and of y drawn from rng, kept counterclockwise.
    Every image gives the same numbers (for the Q(sqrt 2) polytopes too: a
    sign change of x composed with one of z maps the sheared polytope onto
    the sheared image), so the same cost on a different fan."""
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    out = [(sx * x, sy * y) for x, y in pts]
    return out if sx == sy else out[::-1]


def bipyramid_rays(shape_rng, rng, k):
    poly = oriented(polygon(shape_rng, k), rng)
    rays = [(x, y, 0) for x, y in poly] + [(0, 0, HEIGHT), (0, 0, -HEIGHT)]
    cones = []
    for i in range(k):
        j = (i + 1) % k
        cones += [[i, j, k], [i, j, k + 1]]
    return rays, cones


def fan_bipyramid(shape_rng, rng, k, mirror=False):
    rays, cones = bipyramid_rays(shape_rng, rng, k)
    return {"family": "bipyramid", "args": {"k": k}, "dim": 3,
            "rays": len(rays), "simplicial": True, "field": "Q",
            "key": fan_key("bipyramid", _neg(rays) if mirror else rays),
            "doc": _inline_fan(3, rays, cones, rng, mirror),
            "h": [1, k - 1, k - 1, 1]}


def fan_polygon_product(shape_rng, rng, a, b, mirror=False):
    p = oriented(polygon(shape_rng, a), rng)
    q = oriented(polygon(shape_rng, b), rng)
    rays = [(x, y, 0, 0) for x, y in p] + [(0, 0, x, y) for x, y in q]
    cones = [[i, (i + 1) % a, a + j, a + (j + 1) % b]
             for i in range(a) for j in range(b)]
    return {"family": "product", "args": {"a": a, "b": b}, "dim": 4,
            "rays": a + b, "simplicial": True, "field": "Q",
            "key": fan_key("product", _neg(rays) if mirror else rays),
            "doc": _inline_fan(4, rays, cones, rng, mirror),
            "h": hmul([1, a - 2, 1], [1, b - 2, 1])}


def fan_prism(shape_rng, rng, k, mirror=False):
    """Face fan of a prism over a k-gon: k quadrilateral side cones and two
    k-gonal caps, so nonsimplicial for every k."""
    poly = oriented(polygon(shape_rng, k), rng)
    rays = [(x, y, z) for z in (HEIGHT, -HEIGHT) for x, y in poly]
    cones = [[i, (i + 1) % k, k + i, k + (i + 1) % k] for i in range(k)]
    cones += [list(range(k)), list(range(k, 2 * k))]
    return {"family": "prism", "args": {"k": k}, "dim": 3,
            "rays": 2 * k, "simplicial": False, "field": "Q",
            "key": fan_key("prism", _neg(rays) if mirror else rays),
            "doc": _inline_fan(3, rays, cones, rng, mirror),
            "h": [1, 2 * k - 3, 2 * k - 3, 1]}


def polytope_bipyramid_sqrt2(shape_rng, rng, k, mirror=False):
    rays, _ = bipyramid_rays(shape_rng, rng, k)
    if mirror:
        rays = _neg(rays)
    verts = [[fmt_q2(a, b) for a, b in shear(v)] for v in rays]
    return {"family": "bipyramid-face", "args": {"k": k}, "dim": 3,
            "rays": k + 2, "simplicial": True, "field": "Q(sqrt2)",
            "key": fan_key("bipyramid-face", rays),
            "doc": {"field": {"sqrt": 2}, "vertices": verts, "fan": "face"},
            "h": [1, k - 1, k - 1, 1]}


def polytope_prism_sqrt2(shape_rng, rng, k, mirror=False):
    poly = oriented(polygon(shape_rng, k), rng)
    pts = [(x, y, z) for z in (HEIGHT, -HEIGHT) for x, y in poly]
    # the normal fan depends only on the edge directions of the polygon
    normals = [(b[1] - a[1], a[0] - b[0])
               for a, b in zip(poly, poly[1:] + poly[:1])]
    if mirror:
        pts, normals = _neg(pts), _neg(normals)
    verts = [[fmt_q2(a, b) for a, b in shear(v)] for v in pts]
    return {"family": "prism-normal", "args": {"k": k}, "dim": 3,
            "rays": k + 2, "simplicial": True, "field": "Q(sqrt2)",
            "key": fan_key("prism-normal", normals),
            "doc": {"field": {"sqrt": 2}, "vertices": verts,
                    "fan": "normal"},
            "h": [1, k - 1, k - 1, 1]}


# -- workloads ----------------------------------------------------------------

# One cycle of each workload's job mix; a run at the benchmark's length is
# two cycles.  The mix is fixed so that run-to-run differences come from
# the program, not from how many large jobs a seed happened to draw.  With
# 52 jobs the median (ranks 26-27) and the tail percentile (ten samples
# beyond it: rank 42, p80.8) are order statistics of many jobs of one
# shape, not the boundary between two families, where a few slow jobs
# would swing them: in fan-cold both fall inside the 28 heptagon
# bipyramids (ranks 21-48), in polytope-sqrt2 inside the 32 square-
# bipyramid and prism jobs above the 20 triangle bipyramids.
_B5, _B7 = ("bipyramid", 5), ("bipyramid", 7)
FAN_COLD_CYCLE = (
    _B5, _B7, _B7, _B5, _B7, _B5, _B7, ("product", (3, 3)),
    _B5, _B7, _B7, _B5, _B7, _B5, _B7, _B7,
    _B5, _B7, ("prism", 3), _B5, _B7, _B7, _B5, _B7, _B5, _B7,
)
_F3, _F4, _N3 = (("bipyramid-face", 3), ("bipyramid-face", 4),
                 ("prism-normal", 3))
POLYTOPE_CYCLE = (
    _F3, _F4, _N3, _F3, _F4, _F3, _N3, _F4, _F3,
    _F4, _N3, _F3, _F4, _F3, _N3, _F4, _F3,
    _F4, _N3, _F3, _F4, _F3, _N3, _F4, _F3, _F4,
)
# relight queries the same few fans in every run (the seed draws only the
# l of each job): with one fan per size, a seed-drawn fan would set the
# cost of a third of the run's jobs by itself.
RELIGHT_FANS = (5, 6, 7)


def fan_cold_job(shape_rng, rng, spec, mirror=False):
    family, arg = spec
    if family == "bipyramid":
        return fan_bipyramid(shape_rng, rng, arg, mirror)
    if family == "product":
        return fan_polygon_product(shape_rng, rng, *arg, mirror)
    return fan_prism(shape_rng, rng, arg, mirror)


def polytope_job(shape_rng, rng, spec, mirror=False):
    family, arg = spec
    if family == "bipyramid-face":
        return polytope_bipyramid_sqrt2(shape_rng, rng, arg, mirror)
    return polytope_prism_sqrt2(shape_rng, rng, arg, mirror)


def relight_fan(rng, k):
    """A sheared bipyramid over a k-gon as a Q(sqrt 2) fan document, with
    the canonical ray vectors (as literal strings) in vertex order."""
    rays, cones = bipyramid_rays(rng, rng, k)
    sheared = [shear(v) for v in rays]
    canon = [[fmt_q2(a, b) for a, b in canonical2(v)[1]] for v in sheared]
    doc = {"field": {"sqrt": 2}, "dim": 3,
           "rays": [[fmt_q2(a, b) for a, b in v] for v in sheared],
           "maximal_cones": cones}
    return {"family": "bipyramid-sqrt2", "args": {"k": k}, "dim": 3,
            "rays": k + 2, "simplicial": True, "field": "Q(sqrt2)",
            "key": fan_key("bipyramid-sqrt2", rays),
            "doc": doc, "canonical_rays": canon, "sheared": sheared,
            "h": [1, k - 1, k - 1, 1]}


def relight_values(rng, fan_rec, factor=1):
    """Fresh strictly convex l for a relight fan, times ``factor``: values
    at the canonical ray generators, in vertex order, as literal strings."""
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 3))
    lin = [rng.randint(-2, 2) for _ in range(3)]
    out = []
    for v in fan_rec["sheared"]:
        t, _ = canonical2(v)
        a = scale + sum(c * x for c, (x, _) in zip(lin, v))
        b = sum(c * y for c, (_, y) in zip(lin, v))
        out.append(fmt_q2(factor * a / t, factor * b / t))
    return out


def make_rng(seed, *salt):
    return random.Random(f"{seed}:" + ":".join(str(s) for s in salt))
