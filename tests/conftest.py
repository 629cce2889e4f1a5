"""Shared fan fixtures; pairs are cached per session since subdivision and
stalk construction dominate the suite's runtime."""

import functools

import pytest

from ihfan.exactlin import ScalarField, residue_map, sc
from ihfan.fans import build_fan, face_fan_with_support
from ihfan.ihsheaf import build_distinguished_pair


@functools.cache
def cached_pair(fan):
    return build_distinguished_pair(fan)


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
