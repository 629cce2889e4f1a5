import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import ihfan
from ihfan.cli import main
from ihfan.exactlin import sc
from ihfan.fans import fan_from_json_dict, format_scalar

from conftest import prism_vertices


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


MALFORMED = {
    "cone-index-past-rays": (
        ["hvector"], _triangle_fan([[0, 1], [1, 2], [2, 3]])),
    "negative-cone-index": (
        ["hvector"], _triangle_fan([[0, 1], [1, -1], [-1, 0]])),
    "no-vertices": (
        ["hvector"], {"field": "Q", "vertices": [], "fan": "face"}),
    "ray-value-not-a-literal": (
        ["report"], _with_l(quadrant_dict(),
                            {"ray_values": ["1", "one", "1", "1"]})),
    "per-cone-row-length": (
        ["report"], _with_l(quadrant_dict(),
                            {"per_cone": [["1", "1", "1"]] * 4})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit2(tmp_path, capsys, case):
    argv, obj = MALFORMED[case]
    path = write(tmp_path, "bad.json", obj)
    assert main(argv + [path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_subdivide_cube_counts(tmp_path, capsys):
    path = write(tmp_path, "cube.json", cube_face_dict())
    assert main(["subdivide", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["maximal_cones"]) == 48


def test_subdivide_simplicial_echo(tmp_path, capsys):
    path = write(tmp_path, "quad.json", quadrant_dict())
    assert main(["subdivide", path]) == 0
    echoed = json.loads(capsys.readouterr().out)
    a = fan_from_json_dict(echoed)
    b = fan_from_json_dict(quadrant_dict())
    assert a.canonical_json() == b.canonical_json()


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
    for gens in dump["stalks"].values():
        hit = next((g for g in gens if g[0] == 2), None)
        if hit is not None:
            hit[1] = {pid: {} for pid in hit[1]}
            break
    bad = write(tmp_path, "pair_bad.json", dump)
    assert main(["verify", bad]) == 1
    assert "pd: FAIL" in capsys.readouterr().out


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


def test_report_markdown_mirror(tmp_path, capsys):
    obj = quadrant_dict()
    obj["l"] = {"ray_values": [1, 1, 1, 1]}
    path = write(tmp_path, "quad_l.json", obj)
    assert main(["report", path, "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# verification report")
    assert "- h: [1,2,1]" in out
    assert "| 2 | (1, 1) | 1 | true |" in out


def test_seed_choice(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "cube.json", cube_face_dict())
    monkeypatch.setenv("IHFAN_SEED_CHOICE", "alt")
    assert main(["hvector", path]) == 0
    assert capsys.readouterr().out == "h = [1,5,5,1]\n"
    monkeypatch.setenv("IHFAN_SEED_CHOICE", "bogus")
    assert main(["hvector", path]) == 2


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
