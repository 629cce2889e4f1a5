"""Graded cohomology of fans: dimension profiles, the Brion-style
evaluation functional, Poincare pairing, Lefschetz operators, signature
reports, and the fan recursion for h-vectors.

Two independent routes exist for every headline number: the section-space
engine computes dimensions from sheaf data, while the fan recursion
(toric_h_of_fan, behind the command line's --oracle) never looks at a
polynomial and reads only the labeled face lattice, so fans that share
one share its cached answer.  Verification helpers compare them.

A profile is an ihsheaf.GradedIH, which certifies its own
representatives.  The pairing, hard Lefschetz ranks, Hodge-Riemann forms,
primitives and Lefschetz matrices all read GradedIH.lefschetz_gram, the
Gram of the representatives' values at one generic point; no class is
ever solved for.
"""

from __future__ import annotations

import functools
from math import comb

from .exactlin import inverse, rank, signature, vdot
from .fans import Fan, PLFunction
from .ihsheaf import EvaluationContext, GradedIH, build_distinguished_pair


# -- the fan recursion -----------------------------------------------------


def convolve_h(h1, h2):
    """Product of two polynomials given by their coefficient lists."""
    out = [0] * (len(h1) + len(h2) - 1)
    for i, a in enumerate(h1):
        for j, b in enumerate(h2):
            out[i + j] += a * b
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _tminus1_pow(k):
    """The coefficients of (t - 1)^k, from a process-wide cache of the 64
    most recently used k (a fan of dimension n reads k <= n), as a tuple
    that every caller shares."""
    return tuple(comb(k, j) * (-1) ** (k - j) for j in range(k + 1))


def _g_from_h(h, dim):
    # g_0 = h_0, g_k = h_k - h_{k-1} for k up to half the dimension
    top = max(dim, 0) // 2
    g = [h[0]]
    for k in range(1, top + 1):
        g.append(h[k] - h[k - 1])
    return g


def _cone_lattice_h(lattice, d, faces, memo):
    """The h-polynomial of the cross-section lattice of a cone of dim d
    with these faces, lattice[f] being (dim, faces) of the cone f: the sum
    over the faces f of g(f)(t-1)^(d-1-dim f), each face's own h kept in
    memo by id.  The zero cone plays the empty face (a cross-section of dim
    -1), and the whole fan is the cone of dim n + 1 whose faces are all its
    cones."""
    acc = [0] * d if d else [1]
    for f in faces:
        fd, below = lattice[f]
        h = memo.get(f)
        if h is None:
            h = memo[f] = _cone_lattice_h(lattice, fd, below, memo)
        term = convolve_h(_g_from_h(h, fd - 1), _tminus1_pow(d - 1 - fd))
        for i, c in enumerate(term):
            acc[i] += c
    return acc


def toric_h_of_fan(fan: Fan):
    """Fan-level recursion h(Sigma, t) = sum over cones of
    g(cone)(t-1)^(n - dim); agrees with the section-space dimensions for
    complete fans, and on face fans with the face-lattice recursion of the
    tests' oracles.  It reads the fan's labeled face lattice alone, each
    cone's dim and faces in id order (_toric_h)."""
    return _toric_h(fan.n, tuple((c.dim, fan.faces_of[cid])
                                 for cid, c in fan.cones.items()))


# A benchmark run holds about ten labeled face lattices (twenty with the
# traced run's mirror images); 64 hold them with room to spare.
@functools.lru_cache(maxsize=64)
def _toric_h(n, lattice):
    """toric_h_of_fan of the fans in dimension n whose cones, by id, have
    the (dim, faces) of lattice, from a process-wide cache of the 64 most
    recently used lattices."""
    return tuple(_cone_lattice_h(lattice, n + 1, range(len(lattice)), {}))


# -- profiles --------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def profile_for_fan(fan: Fan):
    """The GradedIH of a fan's distinguished pair, from a process-wide cache
    of the 32 most recently used fans, equal fans sharing one entry;
    profiles are immutable."""
    return GradedIH(build_distinguished_pair(fan))


# -- evaluation ------------------------------------------------------------


def evaluate_fast(ctx: EvaluationContext, per_max):
    """Evaluation at the context's generic point; exact whenever the
    rational-function sum is constant, which holds for honest grading-2n
    sections.  per_max: {maximal cone id of the subdivision: Polynomial}."""
    return vdot([poly.evaluate(ctx.z) for poly in per_max.values()],
                [ctx.inv_phi_z[m] for m in per_max])


# -- pairing, Lefschetz, signatures ----------------------------------------


def pairing_matrix(profile: GradedIH, d):
    """Matrix of the duality pairing IH^d x IH^(2n-d) in the stored bases;
    raises when it is rank-deficient.  The profile's pairing at d <= n
    (GradedIH.pairing), and its transpose at 2n - d for d > n."""
    n = profile.pair.fan.n
    if d % 2 or d < 0 or d > 2 * n:
        raise ValueError("pairing needs an even grading in [0, 2n]")
    return profile.pairing(d) if d <= n else \
        profile.pairing(2 * n - d).transpose()


def lefschetz_matrix(profile: GradedIH, l: PLFunction, d):
    """Matrix of the full Lefschetz power from grading d to 2n-d in the
    stored bases: the Gram <a . l^(n-d) . b> over grading d is G A, with G
    the pairing at d, so A = G^-1 (G A)."""
    if d % 2 or d < 0 or d > profile.pair.fan.n:
        raise ValueError("Lefschetz matrices start at an even grading <= n")
    return inverse(pairing_matrix(profile, d)).mul(
        profile.lefschetz_gram(l, d, d))


def hl_rank_report(profile: GradedIH, l: PLFunction):
    """rank of the full Lefschetz power per grading, with the rank demanded
    by the theorem.  The rank is that of the Gram G A (see
    lefschetz_matrix): rank(G A) <= rank A, with equality when the pairing
    at d is perfect, so a full rank proves hard Lefschetz at d."""
    return {d: (rank(profile.lefschetz_gram(l, d, d)), profile.h[d])
            for d in range(0, profile.pair.fan.n + 1, 2)}


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
    (-1)^(d/2) B_l must be positive definite on the primitive subspace
    (GradedIH.hodge_riemann)."""
    hvec = profile.h_vector()
    rows = []
    for d in range(0, profile.pair.fan.n + 1, 2):
        bmat, prim, definite = profile.hodge_riemann(l, d)
        sig = signature(bmat)
        expected = _expected_signature(hvec, d)
        rows.append({
            "d": d,
            "matrix": bmat,
            "signature": sig,
            "signature_expected": expected,
            "signature_ok": sig == expected,
            "primitive_dim": len(prim),
            "definite": definite,
        })
    return QuadraticReport(rows)


# -- verification checks ---------------------------------------------------


def ds_check(h):
    """Dehn-Sommerville symmetry h^d = h^(2n-d) of the h-vector h."""
    return tuple(h) == tuple(reversed(h))


def kunneth_check(h1, h2, hprod):
    """The product's h-vector hprod is the convolution of the factors' h1
    and h2."""
    return convolve_h(h1, h2) == tuple(hprod)
