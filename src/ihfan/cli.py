"""Batch front end: parse fan or polytope inputs, run the verification
checks, emit reports.

Exit codes: 0 success, 1 a mathematical check failed, 2 input or usage
error.  The nonsimplicial cones of a fan are subdivided at their sup-norm
barycenters (fans.barycenter); a pair dump brings its own centers."""

import argparse
import functools
import json
import sys

from .exactlin import ScalarField, json_list, json_scalar, rank
from .fans import (PLFunction, build_fan, face_fan_with_support,
                   fan_from_json_dict, is_complete, is_strictly_convex,
                   normal_fan, parse_vector, product_fan)
from .ihsheaf import (GradedIH, build_distinguished_pair,
                      pair_from_json_dict, pair_to_json_dict)
from .cohomology import (ds_check, hl_rank_report, hrm_check, kunneth_check,
                         pairing_matrix, profile_for_fan, toric_h_of_fan)

ALL_CHECKS = ("ds", "pd", "hl", "hrm", "kunneth", "oracle")


class InputError(Exception):
    pass


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise InputError(
            f"invalid JSON in {path} at line {e.lineno} column {e.colno}: "
            f"{e.msg}")


class LoadedInput:
    """A parsed input: either a ready distinguished pair (dump) or a fan,
    possibly with a support function and an inline l descriptor."""

    __slots__ = ("fan", "pair", "support", "inline_l")

    def __init__(self, fan=None, pair=None, support=None, inline_l=None):
        self.fan = fan if fan is not None else pair.fan
        self.pair = pair
        self.support = support
        self.inline_l = inline_l


def load_input(path):
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InputError("input must be a JSON object")
    try:
        if "stalks" in obj:
            return LoadedInput(pair=pair_from_json_dict(obj))
        if "vertices" in obj:
            field = ScalarField.from_json(obj.get("field", "Q"))
            verts = [parse_vector(v, field, f"vertex {i}")
                     for i, v in enumerate(json_list(obj["vertices"],
                                                     "vertices"))]
            if not verts:
                raise InputError("a polytope needs at least one vertex")
            if not verts[0]:
                raise InputError("dim must be at least 1, got a vertex "
                                 "with no coordinates")
            for i, v in enumerate(verts):
                if len(v) != len(verts[0]):
                    raise InputError(f"vertex {i} has {len(v)} coordinates, "
                                     f"vertex 0 has {len(verts[0])}")
            kind = obj.get("fan", "face")
            if kind == "face":
                fan, support = face_fan_with_support(verts, field=field)
            elif kind == "normal":
                fan, support = normal_fan(verts, field=field)
            else:
                raise InputError(f"unknown fan kind: {kind}")
            return LoadedInput(fan=fan, support=support,
                               inline_l=obj.get("l"))
        if "maximal_cones" in obj:
            fan = fan_from_json_dict(obj)
            return LoadedInput(fan=fan, inline_l=obj.get("l"))
    except InputError:
        raise
    except (ValueError, KeyError, TypeError) as e:
        raise InputError(f"invalid input: {e}")
    raise InputError(
        "input is not a fan, polytope, or pair dump (expected one of the "
        "keys 'maximal_cones', 'vertices', 'stalks')")


def _l_from_desc(fan, desc):
    if not isinstance(desc, dict):
        raise InputError("l descriptor must be a JSON object")
    if "ray_values" in desc:
        order = fan.ray_ids()
        vals = json_list(desc["ray_values"], "ray_values")
        if len(vals) != len(order):
            raise InputError("ray_values length does not match the ray count")
        values = {rid: json_scalar(v, fan.field, "ray value")
                  for rid, v in zip(order, vals)}
        return PLFunction.from_ray_values(fan, values)
    if "per_cone" in desc:
        rows = json_list(desc["per_cone"], "per_cone")
        # the maximal cones in the order of the fan's JSON, as ray indices
        rays = fan.rays()
        mx = [fan.id_by_key[tuple(rays[i] for i in cone)]
              for cone in fan.to_json_dict()["maximal_cones"]]
        if len(rows) != len(mx):
            raise InputError("per_cone length does not match the maximal "
                             "cone count")
        per = {m: parse_vector(row, fan.field, f"per_cone row {i}")
               for i, (m, row) in enumerate(zip(mx, rows))}
        return PLFunction(fan, per)
    raise InputError("l descriptor needs 'ray_values' or 'per_cone'")


def build_l(loaded, src):
    """Resolve the conewise linear function for hl/hrm from the --l source
    src (None: the input's own); validated strictly convex."""
    if src is None:
        if loaded.inline_l is not None:
            src = "inline"
        elif loaded.support is not None:
            src = "support"
        else:
            return None
    if src == "support":
        if loaded.support is None:
            raise InputError("--l support needs a polytope input")
        desc = None
    elif src == "inline":
        if loaded.inline_l is None:
            raise InputError("no inline l in the input")
        desc = loaded.inline_l
    elif src.startswith("file="):
        desc = _read_json(src[5:])
    else:
        raise InputError(f"unknown l source: {src}")
    try:
        l = loaded.support if desc is None else _l_from_desc(loaded.fan, desc)
        ok = is_strictly_convex(loaded.fan, l)
    except (ValueError, TypeError) as e:
        raise InputError(f"invalid l: {e}")
    if not ok:
        raise InputError("l is not strictly convex on the fan")
    return l


def _profile(loaded, cap):
    try:
        if loaded.pair is not None:
            return GradedIH(loaded.pair, cap=cap)
        if cap is not None:
            return GradedIH(build_distinguished_pair(loaded.fan), cap=cap)
        return profile_for_fan(loaded.fan)
    except ValueError as e:
        raise MathFailure(str(e))


class MathFailure(Exception):
    pass


def _fmt_h(h):
    return "[" + ",".join(str(x) for x in h) + "]"


def run_checks(loaded, checks, profile, l):
    """Run the selected checks (None: the default ones); returns (report
    dict, per-check pass map)."""
    fan = loaded.fan
    h = profile.h_vector()
    if checks is None:
        checks = ["ds", "pd", "oracle"]
        if l is not None:
            checks += ["hl", "hrm"]
    passed = {}
    report = {"h": list(h)}
    report["ds"] = ds_check(h)
    if "ds" in checks:
        passed["ds"] = report["ds"]
    pd_ranks = {}
    pd_ok = True
    for d in range(0, 2 * fan.n + 1, 2):
        try:
            pd_ranks[str(d)] = rank(pairing_matrix(profile, d))
        except ValueError:
            pd_ranks[str(d)] = -1
            pd_ok = False
    report["pd_ranks"] = pd_ranks
    if "pd" in checks:
        passed["pd"] = pd_ok
    oracle_h = list(toric_h_of_fan(fan))
    report["oracle_h"] = oracle_h
    report["oracle_match"] = list(h) == oracle_h
    if "oracle" in checks:
        passed["oracle"] = report["oracle_match"]
    if l is not None:
        hl = hl_rank_report(profile, l)
        report["hl_ranks"] = {str(d): [got, wanted]
                              for d, (got, wanted) in sorted(hl.items())}
        if "hl" in checks:
            passed["hl"] = all(g == w for g, w in hl.values())
        qr = hrm_check(profile, l)
        report["hrm"] = [{"d": r["d"],
                          "signature": list(r["signature"]),
                          "primitive_dim": r["primitive_dim"],
                          "definite": r["definite"]} for r in qr.rows]
        if "hrm" in checks:
            passed["hrm"] = qr.ok
    else:
        report["hl_ranks"] = {}
        report["hrm"] = []
    if "kunneth" in checks:
        line = build_fan(1, [[(1,)], [(-1,)]], field=fan.field)
        prod = product_fan(fan, line)
        passed["kunneth"] = kunneth_check(
            h, (1, 1), profile_for_fan(prod).h_vector())
        report["kunneth"] = passed["kunneth"]
    return report, passed


def cmd_hvector(ns):
    loaded = load_input(ns.input)
    fan = loaded.fan
    if ns.oracle and not is_complete(fan):
        # toric_h_of_fan is the h-vector of complete fans only
        raise InputError("the oracle needs a complete fan")
    if any(fan.cones[m].dim != fan.n for m in fan.maximal_ids):
        # the distinguished pair's own requirement, an input error here
        raise InputError("maximal cones must have full dimension")
    # a cap at or above the top grading 2n caps nothing
    cap = ns.cap if ns.cap is not None and ns.cap < 2 * fan.n else None
    profile = _profile(loaded, cap)
    print("h = " + _fmt_h(profile.h_vector()))
    if ns.oracle:
        oracle_h = toric_h_of_fan(fan)
        want = oracle_h if cap is None else oracle_h[:cap // 2 + 1]
        print("oracle h = " + _fmt_h(oracle_h))
        match = tuple(profile.h_vector()) == tuple(want)
        print("oracle match = " + ("true" if match else "false"))
    return 0


def _checked(ns, incomplete):
    """The one path of verify and report: load the input, require a
    complete fan (raising InputError(incomplete) otherwise), resolve l, then
    build the profile and run the checks.  Returns (report, passed), or None
    after printing a failed mathematical check."""
    loaded = load_input(ns.input)
    if not is_complete(loaded.fan):
        raise InputError(incomplete)
    l = build_l(loaded, ns.l_source)
    checks = ns.checks
    if checks is not None and ("hl" in checks or "hrm" in checks) \
            and l is None:
        raise InputError("checks hl and hrm need an l source "
                         "(--l support|file=PATH or an inline l)")
    try:
        return run_checks(loaded, checks, _profile(loaded, ns.cap), l)
    except MathFailure as e:
        print(f"check failed: {e}")
        return None


def cmd_verify(ns):
    got = _checked(ns, "verification needs a complete fan")
    if got is None:
        return 1
    _, passed = got
    for name in sorted(passed):
        print(f"{name}: {'pass' if passed[name] else 'FAIL'}")
    return 0 if all(passed.values()) else 1


def cmd_subdivide(ns):
    loaded = load_input(ns.input)
    if loaded.pair is not None:
        pair = loaded.pair
    else:
        try:
            pair = build_distinguished_pair(loaded.fan)
        except ValueError as e:
            raise InputError(str(e))
    if ns.emit_pair:
        payload = pair_to_json_dict(pair)
    else:
        payload = pair.subdivided.to_json_dict()
    text = json.dumps(payload, sort_keys=True) + "\n"
    if ns.out:
        try:
            with open(ns.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write {ns.out}: {e.strerror or e}")
    else:
        sys.stdout.write(text)
    return 0


def _render_md(report):
    lines = ["# verification report", ""]
    lines.append("- h: " + _fmt_h(report["h"]))
    lines.append("- ds: " + ("true" if report["ds"] else "false"))
    lines.append("- oracle h: " + _fmt_h(report["oracle_h"]))
    lines.append("- oracle match: "
                 + ("true" if report["oracle_match"] else "false"))
    if "kunneth" in report:
        lines.append("- kunneth: "
                     + ("true" if report["kunneth"] else "false"))
    lines.append("")
    lines.append("## pairing ranks")
    lines.append("")
    lines.append("| d | rank |")
    lines.append("| - | - |")
    for d in sorted(report["pd_ranks"], key=int):
        lines.append(f"| {d} | {report['pd_ranks'][d]} |")
    if report["hl_ranks"]:
        lines.append("")
        lines.append("## Lefschetz ranks")
        lines.append("")
        lines.append("| d | rank | expected |")
        lines.append("| - | - | - |")
        for d in sorted(report["hl_ranks"], key=int):
            got, want = report["hl_ranks"][d]
            lines.append(f"| {d} | {got} | {want} |")
    if report["hrm"]:
        lines.append("")
        lines.append("## quadratic forms")
        lines.append("")
        lines.append("| d | signature | primitive dim | definite |")
        lines.append("| - | - | - | - |")
        for row in report["hrm"]:
            sig = "(%d, %d)" % tuple(row["signature"])
            lines.append("| %d | %s | %d | %s |"
                         % (row["d"], sig, row["primitive_dim"],
                            "true" if row["definite"] else "false"))
    return "\n".join(lines) + "\n"


def cmd_report(ns):
    got = _checked(ns, "reports need a complete fan")
    if got is None:
        return 1
    report, passed = got
    if ns.fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_render_md(report))
    return 0 if all(passed.values()) else 1


@functools.cache
def make_parser():
    """One parser per process: its prog is fixed and parses leave it as is."""
    p = argparse.ArgumentParser(
        prog="ihfan",
        description="graded cohomology of complete fans: h-vectors, "
                    "duality, Lefschetz and signature verification")
    sub = p.add_subparsers(dest="command", required=True)
    hv = sub.add_parser("hvector", help="print the graded dimensions")
    hv.add_argument("input")
    hv.add_argument("--oracle", action="store_true",
                    help="also run the fan recursion and compare (complete "
                         "fans only)")
    hv.add_argument("--cap", type=int, default=None,
                    help="top grading to compute (default 2n; a larger "
                         "cap caps nothing)")
    ve = sub.add_parser("verify", help="run verification checks")
    ve.add_argument("input")
    sd = sub.add_parser("subdivide", help="emit the simplicial subdivision")
    sd.add_argument("input")
    sd.add_argument("--emit-pair", action="store_true",
                    help="emit the full pair dump instead of the bare fan")
    sd.add_argument("--out", default=None)
    rp = sub.add_parser("report", help="emit the full report")
    rp.add_argument("input")
    rp.add_argument("--format", dest="fmt", choices=("json", "md"),
                    default="json")
    for cmd in (ve, rp):
        cmd.add_argument("--l", dest="l_source", default=None,
                         help="l source: support, inline or file=PATH "
                              "(default: the input's inline l, else a "
                              "polytope's support function)")
        cmd.add_argument("--checks", default=None,
                         help="comma-separated subset of "
                              + ",".join(ALL_CHECKS) + " (default: ds,pd,"
                              "oracle, plus hl,hrm when an l is available)")
    # main reads both for every command
    p.set_defaults(cap=None, checks=None)
    return p


def main(argv=None):
    try:
        ns = make_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if ns.cap is not None and (ns.cap < 0 or ns.cap % 2):
            raise InputError("degree cap must be even and nonnegative")
        # an empty --checks runs the default checks, as no --checks does;
        # a list of blanks runs none, so it is refused: a verification
        # that checked nothing must not read as a pass
        given = ns.checks
        ns.checks = tuple(c.strip() for c in given.split(",")
                          if c.strip()) if given else None
        if given and not ns.checks:
            raise InputError("--checks names no check")
        for c in ns.checks or ():
            if c not in ALL_CHECKS:
                raise InputError(f"unknown check: {c}")
        handler = {"hvector": cmd_hvector, "verify": cmd_verify,
                   "subdivide": cmd_subdivide, "report": cmd_report}
        return handler[ns.command](ns)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MathFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
