"""Graded cohomology of fans: dimension profiles, the Brion-style
evaluation functional, Poincare pairing, Lefschetz operators, signature
reports, and the fan recursion for h-vectors.

Two independent routes exist for every headline number: the section-space
engine computes dimensions from sheaf data, while the fan recursion
(toric_h_of_fan, behind the command line's --oracle) never looks at a
polynomial.  Verification helpers compare them.

A profile is an ihsheaf.GradedIH, which certifies its own
representatives.  The pairing, hard Lefschetz ranks, Hodge-Riemann forms,
primitives and Lefschetz matrices all read GradedIH.lefschetz_gram, the
Gram of the representatives' values at one generic point; no class is
ever solved for.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from math import comb

from .exactlin import Matrix, inverse, rank, signature, vdot
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
    complete fans, and on face fans with the face-lattice recursion of the
    tests' oracles."""
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


def profile_for_fan(fan: Fan):
    """The GradedIH of a fan's distinguished pair, from a session cache over
    the canonical fan holding the 32 most recently used profiles; profiles
    are immutable."""
    key = fan.canonical_json()
    prof = _profile_cache.get(key)
    if prof is None:
        prof = GradedIH(build_distinguished_pair(fan))
        _profile_cache[key] = prof
        if len(_profile_cache) > _PROFILE_CACHE_SIZE:
            _profile_cache.popitem(last=False)
    else:
        _profile_cache.move_to_end(key)
    return prof


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


def ds_check(h):
    """Dehn-Sommerville symmetry h^d = h^(2n-d) of the h-vector h."""
    return tuple(h) == tuple(reversed(h))


def kunneth_check(h1, h2, hprod):
    """The product's h-vector hprod is the convolution of the factors' h1
    and h2."""
    return convolve_h(h1, h2) == tuple(hprod)
