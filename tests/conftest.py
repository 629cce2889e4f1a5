"""Shared fan fixtures; pairs are cached per session since subdivision and
stalk construction dominate the suite's runtime."""

import functools
import sys
from pathlib import Path

import pytest

from ihfan.exactlin import ScalarField, parse_scalar, residue_map, sc
from ihfan.fans import (build_fan, face_fan_with_support, fan_from_json_dict,
                        parse_vector)
from ihfan.ihsheaf import build_distinguished_pair

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402  (the benchmark's input generator)


@functools.cache
def cached_pair(fan):
    return build_distinguished_pair(fan)


def fan_cold_fans(seed=1):
    """(fan, {ray id: value}) for each fan of one cycle of the fan-cold
    workload with twins, drawn at the first attempt, with the ray values of
    its inline l."""
    out = []
    for i, spec in enumerate(gen.FAN_COLD_CYCLE):
        for twin in (False, True):
            doc = gen.fan_cold_job(gen.make_rng("shape", "fan-cold", i, 0),
                                   gen.make_rng(seed, "fan-cold", i, 0),
                                   spec, twin)["doc"]
            fan = fan_from_json_dict(doc)
            values = [parse_scalar(v) for v in doc["l"]["ray_values"]]
            out.append((fan, dict(zip(fan.ray_ids(), values))))
    return out


def no_residue(m):
    """exactlin.residue_map(m) with a residue that has no value: every
    coefficient lacks a residue, so a complete profile selects exactly."""
    prime, _ = residue_map(m)

    def residue(x):
        raise ValueError(f"{x!r} has no residue mod {prime}")

    return prime, residue


@pytest.fixture(scope="session")
def onedim_fan():
    return build_fan(1, [[(1,)], [(-1,)]])


@pytest.fixture(scope="session")
def quadrant_fan():
    return build_fan(2, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)],
                         [(-1, 0), (0, -1)], [(0, -1), (1, 0)]])


@pytest.fixture(scope="session")
def orthant_fan():
    octs = [[(s1, 0, 0), (0, s2, 0), (0, 0, s3)]
            for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    return build_fan(3, octs)


def cube_vertices():
    return [(s1, s2, s3) for s1 in (1, -1) for s2 in (1, -1)
            for s3 in (1, -1)]


@pytest.fixture(scope="session")
def cube_fan_support():
    return face_fan_with_support(cube_vertices())


@pytest.fixture(scope="session")
def cube_fan(cube_fan_support):
    return cube_fan_support[0]


def prism_vertices():
    # prism over a trapezoid with an irrational slant, recentered so the
    # origin is the vertex centroid
    F = ScalarField(2)
    r2 = F.parse("0+1r2")
    quad = [(sc(0), sc(0)), (sc(1), sc(0)), (sc(1) + r2, sc(1)),
            (sc(0), sc(1))]
    cx = (sc(2) + r2) / sc(4)
    cy = sc(1) / sc(2)
    return [(x - cx, y - cy, sc(z)) for (x, y) in quad for z in (1, -1)], F


def golden_field():
    """Q(sqrt 5) and the golden ratio phi = (1 + sqrt 5)/2 in it."""
    F = ScalarField(5)
    return F, F.parse("1/2+1/2r5")


def icosahedron_vertices():
    """(0, +-1, +-phi) and its cyclic shifts: 12 vertices."""
    _, phi = golden_field()
    return [v[i:] + v[:i] for a in (1, -1) for b in (1, -1)
            for v in [(sc(0), sc(a), b * phi)] for i in range(3)]


def dodecahedron_vertices():
    """(+-1, +-1, +-1) and the cyclic shifts of (0, +-1/phi, +-phi): 20
    vertices."""
    _, phi = golden_field()
    cube = [(sc(a), sc(b), sc(c)) for a in (1, -1) for b in (1, -1)
            for c in (1, -1)]
    return cube + [v[i:] + v[:i] for a in (1, -1) for b in (1, -1)
                   for v in [(sc(0), a * (phi - 1), b * phi)]
                   for i in range(3)]


def sqrt2_triangular_prism():
    """The face fan of a prism over a triangle with an irrational vertex,
    over Q(sqrt 2), and its support function: two triangular cones and
    three square ones."""
    field = ScalarField(2)
    r2 = field.parse("0+1r2")
    tri = [(sc(2), sc(0)), (sc(-1), r2), (sc(-1), sc(-1) - r2)]
    return face_fan_with_support([(x, y, sc(z)) for x, y in tri
                                  for z in (1, -1)], field=field)


# a Q(sqrt 2)-sheared triangular prism, as the vertex literals of an input
SQRT2_PRISM = (("2", "0", "1+2r2"), ("2", "0", "-1+2r2"),
               ("-1", "1", "1-1r2"), ("-1", "1", "-1-1r2"),
               ("-1", "-1", "1-1r2"), ("-1", "-1", "-1-1r2"))


def pyramid(vertices):
    """The vertex literals of the pyramid over a polytope: its vertices at
    x_n = -1 and the apex (0, ..., 0, 3)."""
    vertices = [list(v) for v in vertices]
    return [v + ["-1"] for v in vertices] + [["0"] * len(vertices[0]) + ["3"]]


def sqrt2_prism_pyramid():
    """The face fan of the pyramid over SQRT2_PRISM, over Q(sqrt 2), and its
    support function."""
    field = ScalarField(2)
    return face_fan_with_support(
        [parse_vector(v, field) for v in pyramid(SQRT2_PRISM)], field=field)


@pytest.fixture(scope="session")
def prism_fan_support():
    verts, field = prism_vertices()
    return face_fan_with_support(verts, field=field)


@pytest.fixture(scope="session")
def prism_fan(prism_fan_support):
    return prism_fan_support[0]


@pytest.fixture(scope="session")
def cone_square_fan():
    return build_fan(3, [[(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)]])


@pytest.fixture(scope="session")
def cone_cube_fan():
    verts = [(s1, s2, s3, 1) for s1 in (1, -1) for s2 in (1, -1)
             for s3 in (1, -1)]
    return build_fan(4, [verts])
