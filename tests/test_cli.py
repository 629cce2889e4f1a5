import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import ihfan
from ihfan import exactlin
from ihfan.cli import main
from ihfan.fans import (face_fan_with_support, fan_from_json_dict,
                        format_scalar)
from ihfan.ihsheaf import pair_from_json_dict, pair_to_json_dict

from conftest import (SQRT2_PRISM, cached_pair, cube_vertices,
                      dodecahedron_vertices, icosahedron_vertices,
                      prism_vertices, pyramid)
from oracles import barycenter_sum_scaled, canonical_json, profile_with_centers


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def quadrant_dict():
    return {"field": "Q", "dim": 2,
            "rays": [["1", "0"], ["0", "1"], ["-1", "0"], ["0", "-1"]],
            "maximal_cones": [[0, 1], [1, 2], [2, 3], [0, 3]]}


def cube_face_dict():
    return {"field": "Q",
            "vertices": [list(v)
                         for v in itertools.product([-1, 1], repeat=3)],
            "fan": "face"}


def prism_face_dict():
    verts, _ = prism_vertices()
    return {"field": {"sqrt": 2},
            "vertices": [[format_scalar(x) for x in v] for v in verts],
            "fan": "face"}


def test_hvector_interval_normal(tmp_path, capsys):
    path = write(tmp_path, "interval.json",
                 {"field": "Q", "vertices": [[-1], [1]], "fan": "normal"})
    assert main(["hvector", path]) == 0
    assert capsys.readouterr().out == "h = [1,1]\n"


def test_hvector_cube_face_with_oracle(tmp_path, capsys):
    path = write(tmp_path, "cube.json", cube_face_dict())
    assert main(["hvector", path, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "h = [1,5,5,1]" in out
    assert "oracle h = [1,5,5,1]" in out
    assert "oracle match = true" in out


def test_hvector_cap(tmp_path, capsys):
    path = write(tmp_path, "quad.json", quadrant_dict())
    assert main(["hvector", path, "--cap", "2"]) == 0
    assert capsys.readouterr().out == "h = [1,2]\n"
    assert main(["hvector", path, "--cap", "3"]) == 2
    # a cap at or above 2n = 4 caps nothing: the whole h-vector, compared
    # with the whole oracle
    assert main(["hvector", path, "--oracle", "--cap", "8"]) == 0
    assert capsys.readouterr().out == \
        "h = [1,2,1]\noracle h = [1,2,1]\noracle match = true\n"


def test_malformed_json_exit2_with_position(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"vertices": [[1,')
    assert main(["hvector", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_unrecognized_input_exit2(tmp_path, capsys):
    path = write(tmp_path, "odd.json", {"something": 1})
    assert main(["hvector", path]) == 2


def _triangle_fan(cones):
    return {"field": "Q", "dim": 2,
            "rays": [["1", "0"], ["0", "1"], ["-1", "-1"]],
            "maximal_cones": cones}


def _with_l(obj, l):
    obj["l"] = l
    return obj


def _quadrant_pair(grading):
    """The quadrant fan's pair dump with the grading of the last stalk's
    generator replaced: each of its nine cones (the origin, four rays, four
    quadrants) is simplicial, with the constant as its one generator."""
    stalks = {str(c): [[0, {str(c): {"0,0": "1"}}]] for c in range(9)}
    stalks["8"][0][0] = grading
    return {"fan": quadrant_dict(), "steps": [], "stalks": stalks}


def _quadrant_pair_stalk(cid, stalk):
    """The quadrant fan's pair dump with the stalk of cone cid replaced."""
    obj = _quadrant_pair(0)
    obj["stalks"][str(cid)] = stalk
    return obj


def _quadrant_pair_sections(cid, sections):
    """The quadrant fan's pair dump with the section map of cone cid's
    generator replaced; each cone is its own one piece."""
    obj = _quadrant_pair(0)
    obj["stalks"][str(cid)][0][1] = sections
    return obj


def _stepless_square_cone_pair():
    """A pair dump of the cone over a square that lists no subdivision
    centers, each of its ten cones (the origin, four rays, four 2-cones and
    the cone) its own one piece with the constant as its one generator."""
    fan = {"field": "Q", "dim": 3,
           "rays": [[1, 1, 1], [1, -1, 1], [-1, -1, 1], [-1, 1, 1]],
           "maximal_cones": [[0, 1, 2, 3]]}
    stalks = {str(c): [[0, {str(c): {"0,0,0": "1"}}]] for c in range(10)}
    return {"fan": fan, "steps": [], "stalks": stalks}


_CUBE_PAIR = json.dumps(pair_to_json_dict(
    cached_pair(face_fan_with_support(cube_vertices())[0])))


def _cube_pair_with_square_generator(gen):
    """The cube face fan's pair dump with one generator appended to the
    stalk of the square cone 21, the constant and one grading-2 generator
    on its four pieces: gen(pieces, stalk) is the new [grading, section
    map] pair."""
    obj = json.loads(_CUBE_PAIR)
    stalk = obj["stalks"]["21"]
    stalk.append(gen(list(stalk[0][1]), stalk))
    return obj


MALFORMED = {
    "cone-index-past-rays": (
        ["hvector"], _triangle_fan([[0, 1], [1, 2], [2, 3]])),
    "ray-zero": (
        ["hvector"], {"field": "Q", "dim": 2,
                      "rays": [[1, 0], [0, 1], [-1, -1], [0, 0]],
                      "maximal_cones": [[0, 1], [1, 2], [2, 0, 3]]}),
    "negative-cone-index": (
        ["hvector"], _triangle_fan([[0, 1], [1, -1], [-1, 0]])),
    "no-vertices": (
        ["hvector"], {"field": "Q", "vertices": [], "fan": "face"}),
    "ragged-vertices": (
        ["hvector"], {"field": "Q", "fan": "face",
                      "vertices": [[1, 0], [0, 1, 2], [-1, -1]]}),
    "ray-value-not-a-literal": (
        ["report"], _with_l(quadrant_dict(),
                            {"ray_values": ["1", "one", "1", "1"]})),
    "per-cone-row-length": (
        ["report"], _with_l(quadrant_dict(),
                            {"per_cone": [["1", "1", "1"]] * 4})),
    "point-not-a-vertex": (
        ["hvector"], {"field": "Q", "fan": "face",
                      "vertices": [[1, 1], [1, -1], [-1, 1], [-1, -1],
                                   [1, 0]]}),
    "origin-on-facet-hyperplane": (
        ["hvector"], {"field": "Q", "fan": "face",
                      "vertices": [[-1, 0], [1, 0], [1, 2], [-1, 2]]}),
    "origin-outside-hull": (
        ["hvector"], {"field": {"sqrt": 2}, "fan": "face",
                      "vertices": [["0+1r2", 1], [3, 1], [2, 4]]}),
    "zero-denominator-vertex": (
        ["hvector"], {"field": "Q", "fan": "face",
                      "vertices": [[1, 1], [-1, "1/0"], [-1, -1], [1, -1]]}),
    "zero-denominator-ray": (
        ["hvector"], {"field": "Q", "dim": 2,
                      "rays": [["1/0", "0"], ["0", "1"], ["-1", "-1"]],
                      "maximal_cones": [[0, 1], [1, 2], [0, 2]]}),
    "zero-denominator-ray-value": (
        ["report"], _with_l(quadrant_dict(),
                            {"ray_values": ["1", "1/0", "1", "1"]})),
    "zero-denominator-per-cone": (
        ["report"], _with_l(quadrant_dict(),
                            {"per_cone": [["1", "1/0"]] * 4})),
    "zero-denominator-sqrt2": (
        ["hvector"], {"field": {"sqrt": 2}, "fan": "face",
                      "vertices": [["1+1/0r2", 1], [-1, 1], [0, -1]]}),
    "boolean-coordinate": (
        ["hvector"], {"field": "Q", "dim": 2,
                      "rays": [[True, 0], [0, 1], [-1, -1]],
                      "maximal_cones": [[0, 1], [1, 2], [0, 2]]}),
    "pair-stalks-not-an-object": (
        ["hvector"], {"fan": quadrant_dict(), "stalks": []}),
    "pair-section-map-not-an-object": (
        ["hvector"], {"fan": quadrant_dict(), "stalks": {"0": [[0, []]]}}),
    "pair-coefficient-map-not-an-object": (
        ["hvector"], {"fan": quadrant_dict(),
                      "stalks": {"0": [[0, {"0": []}]]}}),
    # JSON numbers that are not integers, strings and booleans where an
    # integer is due (a bool is an int to Python)
    "radicand-not-an-integer": (
        ["hvector"], dict(quadrant_dict(), field={"sqrt": 2.5})),
    "dim-not-an-integer": (["hvector"], dict(quadrant_dict(), dim=2.9)),
    "dim-a-string": (["hvector"], dict(quadrant_dict(), dim="2")),
    "boolean-ray-index": (
        ["hvector"], dict(quadrant_dict(), maximal_cones=[
            [0, True], [True, 2], [2, 3], [0, 3]])),
    "pair-grading-not-an-integer": (["hvector"], _quadrant_pair(0.0)),
    "boolean-pair-grading": (["hvector"], _quadrant_pair(False)),
    # a section map names exactly its cone's pieces, and a coefficient is
    # an integer or a scalar literal
    "pair-section-missing-piece": (
        ["hvector"], _quadrant_pair_sections(8, {})),
    "pair-section-foreign-piece": (
        ["hvector"], _quadrant_pair_sections(
            8, {"7": {"0,0": "1"}, "8": {"0,0": "1"}})),
    "pair-section-empty-on-a-ray": (
        ["hvector"], _quadrant_pair_sections(3, {})),
    "pair-coefficient-a-float": (
        ["hvector"], _quadrant_pair_sections(8, {"8": {"0,0": 1.5}})),
    "pair-coefficient-a-boolean": (
        ["hvector"], _quadrant_pair_sections(8, {"8": {"0,0": True}})),
    "pair-coefficient-null": (
        ["hvector"], _quadrant_pair_sections(8, {"8": {"0,0": None}})),
    # a stalk is a list of [grading, section map] pairs, and a cone id or
    # an exponent is an integer
    "pair-stalk-key-not-an-integer": (
        ["hvector"], dict(_quadrant_pair(0), stalks={"x": []})),
    "pair-section-key-not-an-integer": (
        ["hvector"], _quadrant_pair_sections(8, {"x": {"0,0": "1"}})),
    "pair-exponent-not-an-integer": (
        ["hvector"], _quadrant_pair_sections(8, {"8": {"0,x": "1"}})),
    "pair-generator-not-a-pair": (
        ["hvector"], _quadrant_pair_stalk(8, [[0]])),
    # a simplicial cone's stalk is the constant 1, its one generator
    "pair-simplicial-stalk-scaled": (
        ["hvector"], _quadrant_pair_sections(8, {"8": {"0,0": "2"}})),
    "pair-simplicial-stalk-two-generators": (
        ["hvector"], _quadrant_pair_stalk(
            8, [[0, {"8": {"0,0": "1"}}], [2, {"8": {"1,0": "1"}}]])),
    "pair-stalk-not-a-list": (["hvector"], _quadrant_pair_stalk(8, 0)),
    # a maximal cone's stalk is minimally generated: no generator is zero,
    # repeated or a multiple of one of lower grading, and no grading is
    # negative
    "pair-square-stalk-zero-generator": (
        ["hvector"], _cube_pair_with_square_generator(
            lambda pieces, _: [2, {p: {} for p in pieces}])),
    "pair-square-stalk-repeated-generator": (
        ["hvector"], _cube_pair_with_square_generator(
            lambda _, stalk: stalk[1])),
    "pair-square-stalk-x1-generator": (
        ["hvector"], _cube_pair_with_square_generator(
            lambda pieces, _: [2, {p: {"1,0,0": "1"} for p in pieces}])),
    "pair-square-stalk-negative-grading": (
        ["hvector"], _cube_pair_with_square_generator(
            lambda pieces, _: [-2, {p: {} for p in pieces}])),
    # an ambient dimension below 1, as a fan's dim or as vertices with no
    # coordinates
    "dim-zero": (["hvector"], {"field": "Q", "dim": 0, "rays": [],
                               "maximal_cones": [[]]}),
    "dim-negative": (["report"], dict(quadrant_dict(), dim=-1)),
    "vertices-without-coordinates": (
        ["verify"], {"field": "Q", "vertices": [[], []]}),
    # hvector takes incomplete fans, but not a maximal cone of lower
    # dimension
    "maximal-cone-not-full-dimensional": (
        ["hvector"], {"field": "Q", "dim": 2, "rays": [[1, 0]],
                      "maximal_cones": [[0]]}),
    # a vector is a list of coordinates, never a string of digits
    "ray-a-string": (
        ["report"], {"field": "Q", "dim": 2,
                     "rays": ["10", "01", [-1, -1]],
                     "maximal_cones": [[0, 1], [1, 2], [2, 0]]}),
    "vertex-a-string": (
        ["hvector"], {"field": "Q", "fan": "face",
                      "vertices": [[1, 0], "01", [-1, -1]]}),
    "per-cone-row-a-string": (
        ["report"], _with_l(quadrant_dict(), {"per_cone": ["11"] * 4})),
    "ray-values-a-string": (
        ["report"], _with_l(_triangle_fan([[0, 1], [1, 2], [2, 0]]),
                            {"ray_values": "111"})),
    "pair-step-a-string": (
        ["hvector"], dict(_quadrant_pair(0), steps=["10"])),
    # a list is due at the top level too, and a string or an object in its
    # place is named by its field, not by what iterating it yields
    "rays-an-object": (
        ["hvector"], dict(quadrant_dict(), rays={"0": [1, 0]})),
    "vertices-a-string": (
        ["hvector"], {"field": "Q", "fan": "face", "vertices": "0101"}),
    "maximal-cones-a-string": (
        ["hvector"], dict(quadrant_dict(), maximal_cones="01")),
    "maximal-cone-a-string": (
        ["hvector"], dict(quadrant_dict(), maximal_cones=[
            [0, 1], "12", [2, 3], [0, 3]])),
    "per-cone-a-string": (
        ["report"], _with_l(quadrant_dict(), {"per_cone": "1111"})),
    "pair-steps-a-string": (
        ["hvector"], dict(_quadrant_pair(0), steps="10")),
    # a dump lists one center per nonsimplicial cone, so a nonsimplicial
    # fan needs steps
    "pair-nonsimplicial-without-steps": (
        ["hvector"], _stepless_square_cone_pair()),
    # a pair dump's fan is an object, and a fan names each key it lacks
    "pair-fan-a-list": (["hvector"], {"fan": [], "stalks": {}}),
    "pair-without-fan": (["hvector"], {"stalks": {}}),
    "fan-without-field": (["hvector"], {
        k: v for k, v in quadrant_dict().items() if k != "field"}),
    "fan-without-dim": (["report"], {
        k: v for k, v in quadrant_dict().items() if k != "dim"}),
    "fan-without-rays": (["hvector"], {
        k: v for k, v in quadrant_dict().items() if k != "rays"}),
    "pair-fan-without-maximal-cones": (["hvector"], dict(
        _quadrant_pair(0), fan={k: v for k, v in quadrant_dict().items()
                                if k != "maximal_cones"})),
}
# what the error line must say, where a case names the culprit
MALFORMED_MESSAGES = {
    "ray-zero": "ray 3 is the zero vector",
    "ragged-vertices": "vertex 1 has 3 coordinates, vertex 0 has 2",
    "point-not-a-vertex": "point (1, 0) is not a vertex of the polytope",
    "origin-on-facet-hyperplane":
        "origin is not interior (a facet hyperplane passes through it)",
    "origin-outside-hull": "origin is not interior to the hull",
    "zero-denominator-vertex": "zero denominator",
    "zero-denominator-ray": "zero denominator",
    "zero-denominator-ray-value": "zero denominator",
    "zero-denominator-per-cone": "zero denominator",
    "zero-denominator-sqrt2": "zero denominator",
    "boolean-coordinate": "bad coordinate True",
    "pair-stalks-not-an-object": "'stalks' must be a JSON object",
    "pair-simplicial-stalk-scaled": "must be the constant 1",
    "pair-simplicial-stalk-two-generators": "must be the constant 1",
    "pair-section-map-not-an-object":
        "a section map of the stalk of cone 0 must be a JSON object",
    "pair-coefficient-map-not-an-object":
        "the coefficient map of a section on cone 0 must be a JSON object",
    "radicand-not-an-integer":
        "the field's radicand must be an integer, got 2.5",
    "dim-not-an-integer": "dim must be an integer, got 2.9",
    "dim-a-string": "dim must be an integer, got '2'",
    "boolean-ray-index": "a ray index must be an integer, got True",
    "pair-grading-not-an-integer":
        "a stalk generator grading must be an integer, got 0.0",
    "boolean-pair-grading":
        "a stalk generator grading must be an integer, got False",
    "pair-section-missing-piece": "a section map of the stalk of cone 8 "
    "names cones [], not the cone's pieces [8]",
    "pair-section-foreign-piece": "a section map of the stalk of cone 8 "
    "names cones [7, 8], not the cone's pieces [8]",
    "pair-section-empty-on-a-ray": "a section map of the stalk of cone 3 "
    "names cones [], not the cone's pieces [3]",
    "pair-coefficient-a-float": "bad coefficient 1.5",
    "pair-coefficient-a-boolean": "bad coefficient True",
    "pair-coefficient-null": "bad coefficient None",
    "pair-stalk-key-not-an-integer":
        "a stalk's cone id must be an integer, got 'x'",
    "pair-section-key-not-an-integer": "a section map key of the stalk of "
    "cone 8 must be an integer, got 'x'",
    "pair-exponent-not-an-integer":
        "an exponent of a section on cone 8 must be an integer, got 'x'",
    "pair-generator-not-a-pair": "a stalk generator of cone 8 must be a "
    "[grading, section map] pair, got [0]",
    "pair-stalk-not-a-list":
        "the stalk of cone 8 must be a list of generators, got 0",
    "pair-square-stalk-zero-generator": "the stalk of cone 21 is not "
    "minimally generated: a grading-2 generator depends on the other "
    "generators and their multiples",
    "pair-square-stalk-repeated-generator":
        "the stalk of cone 21 is not minimally generated",
    "pair-square-stalk-x1-generator":
        "the stalk of cone 21 is not minimally generated",
    "pair-square-stalk-negative-grading":
        "stalk generator gradings must be even and nonnegative",
    "dim-zero": "dim must be at least 1, got 0",
    "dim-negative": "dim must be at least 1, got -1",
    "vertices-without-coordinates": "dim must be at least 1",
    "maximal-cone-not-full-dimensional":
        "maximal cones must have full dimension",
    "ray-a-string": "ray 0 must be a list of coordinates, got '10'",
    "vertex-a-string": "vertex 1 must be a list of coordinates, got '01'",
    "per-cone-row-a-string":
        "per_cone row 0 must be a list of coordinates, got '11'",
    "ray-values-a-string": "ray_values must be a list, got '111'",
    "pair-step-a-string":
        "step 0 of the pair dump must be a list of coordinates, got '10'",
    "rays-an-object": "rays must be a list, got {'0': [1, 0]}",
    "vertices-a-string": "vertices must be a list, got '0101'",
    "maximal-cones-a-string": "maximal_cones must be a list, got '01'",
    "maximal-cone-a-string": "maximal cone 1 must be a list, got '12'",
    "per-cone-a-string": "per_cone must be a list, got '1111'",
    "pair-steps-a-string": "steps must be a list, got '10'",
    "pair-nonsimplicial-without-steps": "pair dump lists 0 subdivision "
    "centers, but its fan has 1 nonsimplicial cones",
    "pair-fan-a-list": "'fan' must be a JSON object",
    "pair-without-fan": "'fan' must be a JSON object",
    "fan-without-field": "a fan needs the key 'field'",
    "fan-without-dim": "a fan needs the key 'dim'",
    "fan-without-rays": "a fan needs the key 'rays'",
    "pair-fan-without-maximal-cones": "a fan needs the key 'maximal_cones'",
}


def test_quadrant_pair_dump_is_well_formed(tmp_path, capsys):
    # the malformed pair cases differ from this dump in one grading
    assert main(["hvector", write(tmp_path, "pair.json",
                                  _quadrant_pair(0))]) == 0
    assert capsys.readouterr().out == "h = [1,2,1]\n"


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit2(tmp_path, capsys, case):
    argv, obj = MALFORMED[case]
    path = write(tmp_path, "bad.json", obj)
    assert main(argv + [path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert MALFORMED_MESSAGES.get(case, "") in err, err


@pytest.mark.parametrize("command, checks, code, out", [
    ("verify", "", 0, "ds: pass\noracle: pass\npd: pass\n"),  # the defaults
    ("verify", " , ", 2, ""),                      # none of them: refused
    ("report", " , ", 2, ""),
], ids=["empty", "commas", "report-commas"])
def test_verify_blank_checks(tmp_path, capsys, command, checks, code, out):
    path = write(tmp_path, "quadrant.json", quadrant_dict())
    assert main([command, path, "--checks", checks]) == code
    got = capsys.readouterr()
    assert got.out == out
    assert got.err == ("error: --checks names no check\n" if code else "")


def test_report_new_l_on_cached_fan(tmp_path, capsys):
    # a pentagonal bipyramid reported twice in one process with two strictly
    # convex l: the second report must not reuse the first l's Lefschetz
    # matrices.  Face fan of a 3-polytope with f0 = 7 vertices:
    # h = (1, f0-3, f0-3, 1), HRM signature (h0, h1-h0) on IH^2.
    fan = {"field": "Q", "dim": 3,
           "rays": [[-1, 4, 0], [-4, 1, 0], [-2, -4, 0], [3, -2, 0],
                    [4, 2, 0], [0, 0, 3], [0, 0, -3]],
           "maximal_cones": [[i, (i + 1) % 5, apex] for apex in (5, 6)
                             for i in range(5)]}
    for values in (["-1/2", "3/2", "6", "-2/3", "4/3", "-4/3", "-1/4"],
                   ["-7/8", "7/4", "51/8", "-25/24", "13/12", "-23/24",
                    "-1/8"]):
        path = write(tmp_path, "bipyramid.json",
                     _with_l(dict(fan), {"ray_values": values}))
        assert main(["report", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["h"] == [1, 4, 4, 1]
        assert report["hl_ranks"] == {"0": [1, 1], "2": [4, 4]}
        assert [(r["d"], r["signature"], r["primitive_dim"], r["definite"])
                for r in report["hrm"]] == [(0, [1, 0], 1, True),
                                            (2, [1, 3], 3, True)]


def test_report_icosahedron_face_fan(tmp_path, capsys):
    # the paper's case: a polytope over Q(sqrt 5) with no rational model.
    # f0 = 12 vertices: h = (1, f0-3, f0-3, 1), HL ranks equal to h, and
    # signature (h0, h1-h0) on IH^2
    path = write(tmp_path, "icosahedron.json", {
        "field": {"sqrt": 5}, "fan": "face",
        "vertices": [[format_scalar(x) for x in v]
                     for v in icosahedron_vertices()]})
    assert main(["report", path, "--l", "support"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["h"] == report["oracle_h"] == [1, 9, 9, 1]
    assert report["hl_ranks"] == {"0": [1, 1], "2": [9, 9]}
    assert [(r["d"], r["signature"], r["definite"])
            for r in report["hrm"]] == [(0, [1, 0], True), (2, [1, 8], True)]


def test_report_dodecahedron_face_fan(tmp_path, capsys):
    # the paper's headline case, nonrational and nonsimplicial: a polytope
    # over Q(sqrt 5) with 12 pentagonal facets.  f0 = 20 vertices:
    # h = (1, f0-3, f0-3, 1), pairing and HL ranks equal to h, signatures
    # (1, 0) and (h0, h1-h0) with primitive dims h0 and h1-h0.  A pentagon's
    # fan has h = (1, 3, 1), so the stalk of each pentagonal cone has
    # generators in gradings 0, 2 and 2.
    path = write(tmp_path, "dodecahedron.json", {
        "field": {"sqrt": 5}, "fan": "face",
        "vertices": [[format_scalar(x) for x in v]
                     for v in dodecahedron_vertices()]})
    assert main(["report", path, "--l", "support"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["h"] == report["oracle_h"] == [1, 17, 17, 1]
    assert report["pd_ranks"] == {"0": 1, "2": 17, "4": 17, "6": 1}
    assert report["hl_ranks"] == {"0": [1, 1], "2": [17, 17]}
    assert [(r["d"], r["signature"], r["primitive_dim"], r["definite"])
            for r in report["hrm"]] == [(0, [1, 0], 1, True),
                                        (2, [1, 16], 16, True)]
    dump = tmp_path / "pair.json"
    assert main(["subdivide", path, "--emit-pair", "--out", str(dump)]) == 0
    pair = pair_from_json_dict(json.loads(dump.read_text()))
    fan = pair.fan
    assert len(fan.maximal_ids) == 12
    for m in fan.maximal_ids:
        assert len(fan.cones[m].rays) == 5
        assert tuple(g for g, _ in pair.stalks[m]) == (0, 2, 2)
    assert main(["hvector", str(dump)]) == 0
    assert capsys.readouterr().out == "h = [1,17,17,1]\n"


def test_report_pyramid_over_sqrt2_prism(tmp_path, capsys):
    # Karu's theorem in dimension 4 on a nonrational, nonsimplicial fan: the
    # pyramid over a Q(sqrt 2)-sheared triangular prism (v = 6 vertices at
    # x4 = -1, apex (0, 0, 0, 3)).  Each side cone over a square pyramid
    # flattens to a 3D fan with a square cone, whose stalk needs a second
    # flattening.  Stanley's g(Pyr P) = g(P) gives h = (1, v-3, v-3, v-3, 1),
    # HRM signatures (1, 0), (1, v-4), (1, v-4) and primitive dims 1, v-4, 0
    path = write(tmp_path, "pyramid.json", {
        "field": {"sqrt": 2}, "fan": "face",
        "vertices": pyramid(SQRT2_PRISM)})
    before = exactlin.modp_fallbacks
    assert main(["report", path, "--l", "support"]) == 0
    assert exactlin.modp_fallbacks == before
    report = json.loads(capsys.readouterr().out)
    assert report["h"] == report["oracle_h"] == [1, 3, 3, 3, 1]
    assert report["oracle_match"]
    assert report["pd_ranks"] == {"0": 1, "2": 3, "4": 3, "6": 3, "8": 1}
    assert report["hl_ranks"] == {"0": [1, 1], "2": [3, 3], "4": [3, 3]}
    assert [(r["d"], r["signature"], r["primitive_dim"])
            for r in report["hrm"]] == [(0, [1, 0], 1), (2, [1, 2], 2),
                                        (4, [1, 2], 0)]


def test_verify_inline_l(tmp_path, capsys):
    obj = quadrant_dict()
    obj["l"] = {"ray_values": [1, 1, 1, 1]}
    path = write(tmp_path, "quad_l.json", obj)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    for name in ("ds", "pd", "oracle", "hl", "hrm"):
        assert f"{name}: pass" in out


def test_verify_global_linear_rejected(tmp_path, capsys):
    obj = quadrant_dict()
    obj["l"] = {"per_cone": [["1", "1"]] * 4}
    path = write(tmp_path, "quad_lin.json", obj)
    assert main(["verify", path]) == 2
    assert "strictly convex" in capsys.readouterr().err


def test_verify_prism_support(tmp_path, capsys):
    path = write(tmp_path, "prism.json", prism_face_dict())
    assert main(["verify", path, "--l", "support"]) == 0
    out = capsys.readouterr().out
    assert "hrm: pass" in out and "hl: pass" in out


def test_verify_checks_subset(tmp_path, capsys):
    path = write(tmp_path, "quad.json", quadrant_dict())
    assert main(["verify", path, "--checks", "ds,pd,kunneth"]) == 0
    out = capsys.readouterr().out
    assert "kunneth: pass" in out
    assert "hl" not in out


def test_verify_unknown_check(tmp_path, capsys):
    path = write(tmp_path, "quad.json", quadrant_dict())
    assert main(["verify", path, "--checks", "bogus"]) == 2


def test_verify_hl_without_l(tmp_path, capsys):
    path = write(tmp_path, "quad.json", quadrant_dict())
    assert main(["verify", path, "--checks", "hl"]) == 2
    assert "l source" in capsys.readouterr().err


def test_verify_l_file(tmp_path, capsys):
    path = write(tmp_path, "quad.json", quadrant_dict())
    lpath = write(tmp_path, "l.json", {"ray_values": [2, 1, 1, 1]})
    assert main(["verify", path, "--l", f"file={lpath}"]) == 0


def test_verify_incomplete_fan_rejected(tmp_path, capsys):
    obj = {"field": "Q", "dim": 2, "rays": [["1", "0"], ["0", "1"]],
           "maximal_cones": [[0, 1]]}
    path = write(tmp_path, "single.json", obj)
    assert main(["verify", path]) == 2
    assert "complete" in capsys.readouterr().err


def test_hvector_oracle_needs_a_complete_fan(tmp_path, capsys):
    # the fan recursion is the h-vector of complete fans only: on the
    # single quadrant cone it reads (0, 0, 1) against the sections' (1, 0,
    # 0), so --oracle refuses the input; plain hvector still answers
    obj = {"field": "Q", "dim": 2, "rays": [["1", "0"], ["0", "1"]],
           "maximal_cones": [[0, 1]]}
    path = write(tmp_path, "single.json", obj)
    assert main(["hvector", "--oracle", path]) == 2
    captured = capsys.readouterr()
    assert "complete" in captured.err and captured.out == ""
    assert main(["hvector", path]) == 0
    assert capsys.readouterr().out == "h = [1,0,0]\n"


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_subdivide_out_that_cannot_be_written_exits_2(tmp_path, capsys,
                                                      target):
    path = write(tmp_path, "quad.json", quadrant_dict())
    out = str(tmp_path if target == "directory"
              else tmp_path / "missing" / "dir" / "x.json")
    assert main(["subdivide", "--out", out, path]) == 2
    captured = capsys.readouterr()
    assert f"cannot write {out}" in captured.err and captured.out == ""


def test_subdivide_cube_counts(tmp_path, capsys):
    path = write(tmp_path, "cube.json", cube_face_dict())
    assert main(["subdivide", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    # each of the 6 square cones is coned from its center over its 4 edge
    # cones, which stay whole: 6 * 4 maximal cones, on 8 + 6 rays
    assert len(obj["maximal_cones"]) == 6 * 4
    assert len(obj["rays"]) == 8 + 6


def test_subdivide_simplicial_echo(tmp_path, capsys):
    path = write(tmp_path, "quad.json", quadrant_dict())
    assert main(["subdivide", path]) == 0
    echoed = json.loads(capsys.readouterr().out)
    a = fan_from_json_dict(echoed)
    b = fan_from_json_dict(quadrant_dict())
    assert canonical_json(a) == canonical_json(b)


def test_subdivide_emit_pair_and_verify_roundtrip(tmp_path, capsys):
    src = write(tmp_path, "cube.json", cube_face_dict())
    out = str(tmp_path / "pair.json")
    assert main(["subdivide", src, "--emit-pair", "--out", out]) == 0
    dump = json.loads((tmp_path / "pair.json").read_text())
    shapes = {tuple(sorted(g for g, _ in gens))
              for gens in dump["stalks"].values()}
    assert (0, 2) in shapes and (0,) in shapes
    assert main(["verify", out]) == 0


def test_verify_corrupted_pair_dump(tmp_path, capsys):
    src = write(tmp_path, "cube.json", cube_face_dict())
    out = str(tmp_path / "pair.json")
    assert main(["subdivide", src, "--emit-pair", "--out", out]) == 0
    capsys.readouterr()
    dump = json.loads((tmp_path / "pair.json").read_text())
    # a grading-2 generator zeroed on one piece where it is not zero stays
    # independent of the constant's multiples, so the dump loads, but the
    # sections it gives are not the stalk's (zeroed on every piece, it is
    # a dependent generator and an input error)
    for gens in dump["stalks"].values():
        hit = next((g for g in gens if g[0] == 2), None)
        if hit is not None:
            hit[1][next(pid for pid, c in hit[1].items() if c)] = {}
            break
    bad = write(tmp_path, "pair_bad.json", dump)
    assert main(["verify", bad]) == 1
    assert "pd: FAIL" in capsys.readouterr().out


def test_pair_dump_with_a_section_of_the_wrong_degree_exits_2(tmp_path,
                                                              capsys):
    src = write(tmp_path, "cube.json", cube_face_dict())
    out = str(tmp_path / "pair.json")
    assert main(["subdivide", src, "--emit-pair", "--out", out]) == 0
    capsys.readouterr()
    dump = json.loads((tmp_path / "pair.json").read_text())
    # a grading-2 generator's section is linear; make one quadratic
    gen = next(g for gens in dump["stalks"].values() for g in gens
               if g[0] == 2)
    gen[1][next(iter(gen[1]))] = {"2,0,0": "1"}
    bad = write(tmp_path, "pair_bad.json", dump)
    assert main(["hvector", bad]) == 2
    assert "degree" in capsys.readouterr().err


# a dump's steps must be the centers of the nonsimplicial cones, one each,
# in the order the subdivision takes the cones (the cube face fan's six
# square cones, by id); each case: how the steps are changed, what the
# error says
OTHER_CENTERS = {
    "extra-center": (
        lambda steps: steps + steps[-1:], "7 subdivision centers"),
    "missing-center": (
        lambda steps: steps[:-1], "5 subdivision centers"),
    "reversed-centers": (lambda steps: steps[::-1], "relative interior"),
    "center-outside-its-cone": (
        lambda steps: [["0", "0", "-1"]] + steps[1:], "relative interior"),
    "center-of-length-n-1": (
        lambda steps: [steps[0][:-1]] + steps[1:], "length"),
}


@pytest.mark.parametrize("case", sorted(OTHER_CENTERS))
def test_pair_dump_with_other_centers_exits_2(tmp_path, capsys, cube_fan,
                                              case):
    good = pair_to_json_dict(cached_pair(cube_fan))
    assert len(good["steps"]) == 6
    assert main(["hvector", write(tmp_path, "good.json", good)]) == 0
    capsys.readouterr()
    edit, message = OTHER_CENTERS[case]
    bad = dict(good, steps=edit(good["steps"]))
    with pytest.raises(ValueError, match=message):
        pair_from_json_dict(bad)
    assert main(["hvector", write(tmp_path, "bad.json", bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert message in err


def test_report_json_schema_and_determinism(tmp_path, capsys):
    obj = quadrant_dict()
    obj["l"] = {"ray_values": [1, 1, 1, 1]}
    path = write(tmp_path, "quad_l.json", obj)
    assert main(["report", path, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["report", path, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert set(report) == {"ds", "h", "hl_ranks", "hrm", "oracle_h",
                           "oracle_match", "pd_ranks"}
    assert report["h"] == [1, 2, 1]
    assert report["hrm"][1]["signature"] == [1, 1]
    assert report["pd_ranks"] == {"0": 1, "2": 2, "4": 1}


def test_report_needs_a_generic_point_past_the_first_primes(tmp_path,
                                                             capsys):
    # the point (1, t) lies on the ray (1, t) for each prime t <= 29, so
    # every cone's phi vanishes at one of them.  A complete 2D fan with r
    # rays has h = (1, r-2, 1); here r = 14, and the pairing is perfect.
    rays = [["1", "0"]] + [["1", str(p)]
                           for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)]
    rays += [["0", "1"], ["-1", "0"], ["0", "-1"]]
    path = write(tmp_path, "primes.json", {
        "field": "Q", "dim": 2, "rays": rays,
        "maximal_cones": [[i, (i + 1) % 14] for i in range(14)]})
    assert main(["report", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["h"] == [1, 12, 1]
    assert report["pd_ranks"] == {"0": 1, "2": 12, "4": 1}
    assert main(["verify", path]) == 0
    assert "pd: pass" in capsys.readouterr().out


def test_report_markdown_mirror(tmp_path, capsys):
    obj = quadrant_dict()
    obj["l"] = {"ray_values": [1, 1, 1, 1]}
    path = write(tmp_path, "quad_l.json", obj)
    assert main(["report", path, "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# verification report")
    assert "- h: [1,2,1]" in out
    assert "| 2 | (1, 1) | 1 | true |" in out


def test_seed_choice_variable_is_not_read(tmp_path, capsys, monkeypatch):
    # one subdivision rule: the variable that once chose between two is
    # ignored, whatever its value
    path = write(tmp_path, "cube.json", cube_face_dict())
    for value in ("alt", "bogus"):
        monkeypatch.setenv("IHFAN_SEED_CHOICE", value)
        assert main(["hvector", path]) == 0
        assert capsys.readouterr().out == "h = [1,5,5,1]\n"


def test_pair_dump_with_a_rule_key_loads(tmp_path, capsys, cube_fan):
    # a dump as earlier versions wrote it: other centers than the
    # package's, and a "rule" key, which is ignored; its steps fix the
    # subdivision
    profile = profile_with_centers(cube_fan, barycenter_sum_scaled)
    dump = dict(pair_to_json_dict(profile.pair), rule="default")
    path = write(tmp_path, "pair.json", dump)
    assert pair_from_json_dict(dump).steps == profile.pair.steps
    assert main(["hvector", "--oracle", path]) == 0
    out = capsys.readouterr().out
    assert "h = [1,5,5,1]\n" in out and "oracle match = true\n" in out


def test_main_in_sequence_prints_what_fresh_processes_print(tmp_path,
                                                           capsys):
    # main reuses one parser: a failed parse, then two commands, each print
    # and return what a new process does
    quad = write(tmp_path, "quad.json", quadrant_dict())
    cube = write(tmp_path, "cube.json", cube_face_dict())
    src = os.path.dirname(os.path.dirname(ihfan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    codes = []
    for argv in (["hvector", quad, "--bogus"], ["hvector", cube, "--oracle"],
                 ["report", quad]):
        codes.append(main(argv))
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "ihfan.cli"] + argv,
                              capture_output=True, text=True, env=env)
        assert (codes[-1], out, err) == \
            (proc.returncode, proc.stdout, proc.stderr)
    assert codes == [2, 0, 0]


def test_console_entry_point(tmp_path):
    path = write(tmp_path, "quad.json", quadrant_dict())
    exe = shutil.which("ihfan")
    cmd = [exe] if exe else [sys.executable, "-m", "ihfan.cli"]
    # without an installed copy, the child imports the package under test
    src = os.path.dirname(os.path.dirname(ihfan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(cmd + ["hvector", path, "--oracle"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "h = [1,2,1]" in proc.stdout
    assert "oracle match = true" in proc.stdout
