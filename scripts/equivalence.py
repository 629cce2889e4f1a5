"""Byte-identity digests of the ihfan command line.

    python3 scripts/equivalence.py digest OUT.json [--src DIR]
    python3 scripts/equivalence.py compare BEFORE.json AFTER.json

``digest`` runs the standard command set in one process against the
package under DIR (default: this checkout's ``src/``) and writes one JSON
object: for each command, the sha256 of its standard output and of its
standard error, its exit code and how many systems it sent to the exact
path (the growth of ``exactlin.modp_fallbacks``).  The profile cache is
emptied before every command, so no command reads another's profile.
``compare`` prints every command whose record differs between two digest
files, or that only one of them has, and the fallbacks each file counts;
it exits 0 when the files agree and no command fell back, 1 otherwise.

The standard command set, 778 commands, each run once:

- the seed-1 inputs of both benchmark workloads, one cycle with twins, as
  ``perfbench/gen.py`` draws them (52 fans with an inline l and 52 vertex
  lists over Q(sqrt 2));
- the cube, the octahedron, the icosahedron and the dodecahedron (face and
  normal fans; the last two over Q(sqrt 5));
- the pyramid over the icosahedron and the 4-cube (face fans), with
  ``hvector --oracle`` and ``subdivide --emit-pair`` only;
- ``hvector --oracle`` and ``report`` on the pair dump that every
  ``subdivide --emit-pair`` above emitted.

A full digest takes several minutes; the two dimension-4 polytopes take
most of it.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402  (perfbench's input generator, used as it is)

FAN_COMMANDS = (["report"], ["report", "--format", "md"], ["verify"],
                ["hvector", "--oracle"], ["subdivide", "--emit-pair"])
POLYTOPE_COMMANDS = (["hvector", "--oracle"], ["report", "--l", "support"],
                     ["report", "--format", "md", "--l", "support"],
                     ["verify", "--l", "support"],
                     ["subdivide", "--emit-pair"])
LARGE_COMMANDS = (["hvector", "--oracle"], ["subdivide", "--emit-pair"])
PAIR_COMMANDS = (["hvector", "--oracle"], ["report"])

# +-1, +-phi and +-1/phi as literals, phi = (1 + sqrt 5)/2, 1/phi = phi - 1
ONE = ("1", "-1")
PHI = ("1/2+1/2r5", "-1/2-1/2r5")
INV_PHI = ("-1/2+1/2r5", "1/2-1/2r5")


def _cyclic(v):
    return [v[i:] + v[:i] for i in range(3)]


def fixed_polytopes():
    """(name, vertex-list document, commands) for the fixed polytopes."""
    cube = [list(v) for v in itertools.product(ONE, ONE, ONE)]
    octahedron = [v for i in range(3) for x in ONE
                  for v in [["0"] * i + [x] + ["0"] * (2 - i)]]
    icosahedron = [w for v in itertools.product(("0",), ONE, PHI)
                   for w in _cyclic(list(v))]
    dodecahedron = cube + [w for v in itertools.product(("0",), INV_PHI, PHI)
                           for w in _cyclic(list(v))]
    golden = {"sqrt": 5}
    out = [("cube", {"field": "Q", "vertices": cube}),
           ("octahedron", {"field": "Q", "vertices": octahedron})]
    for name, verts in (("icosahedron", icosahedron),
                        ("dodecahedron", dodecahedron)):
        for kind in ("face", "normal"):
            out.append((f"{name}-{kind}", {"field": golden, "fan": kind,
                                           "vertices": verts}))
    out = [(name, doc, POLYTOPE_COMMANDS) for name, doc in out]
    pyramid = [v + ["-1"] for v in icosahedron] + [["0", "0", "0", "3"]]
    four_cube = [list(v) for v in itertools.product(ONE, repeat=4)]
    out.append(("icosahedron-pyramid",
                {"field": golden, "vertices": pyramid}, LARGE_COMMANDS))
    out.append(("4-cube", {"field": "Q", "vertices": four_cube},
                LARGE_COMMANDS))
    return out


def benchmark_inputs(seed=1):
    """(name, document, commands) for one cycle of each benchmark workload
    with twins, drawn as perfbench/run.py draws them: each job on the first
    attempt whose fan and twin are new to the cycle."""
    for name, cycle, make, commands in (
            ("fan-cold", gen.FAN_COLD_CYCLE, gen.fan_cold_job, FAN_COMMANDS),
            ("polytope-sqrt2", gen.POLYTOPE_CYCLE, gen.polytope_job,
             POLYTOPE_COMMANDS)):
        seen = set()
        for i, spec in enumerate(cycle):
            for attempt in itertools.count():
                salt = (name, i, attempt)
                recs = [make(gen.make_rng("shape", *salt),
                             gen.make_rng(seed, *salt), spec, twin)
                        for twin in (False, True)]
                keys = {r["key"] for r in recs}
                if len(keys) == 2 and not keys & seen:
                    seen |= keys
                    break
            for twin, rec in zip(("", "-twin"), recs):
                yield f"{name}-{i}{twin}", rec["doc"], commands


def standard_cases():
    return list(benchmark_inputs()) + fixed_polytopes()


def load(src):
    """Import ihfan from the directory src; returns (cli, cohomology,
    exactlin)."""
    sys.path.insert(0, str(Path(src).resolve()))
    import ihfan.cli
    import ihfan.cohomology
    import ihfan.exactlin
    want = (Path(src) / "ihfan").resolve()
    if Path(ihfan.__file__).resolve().parent != want:
        raise SystemExit(f"imported ihfan from {ihfan.__file__}, not {want}")
    return ihfan.cli, ihfan.cohomology, ihfan.exactlin


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest(cases, src=ROOT / "src"):
    """{command name: record} for the commands of cases, a list of (name,
    input document, commands); see the module docstring."""
    cli, cohomology, exactlin = load(src)

    def run(argv):
        cohomology.profile_for_fan.cache_clear()
        before = exactlin.modp_fallbacks
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return out.getvalue(), {
            "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue()),
            "exit": code, "modp_fallbacks": exactlin.modp_fallbacks - before}

    records = {}
    old_cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative input paths, so that no message names the directory
        os.chdir(tmp)
        try:
            for name, doc, commands in cases:
                path = f"{name}.json"
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                for argv in commands:
                    label = f"{' '.join(argv)} {path}"
                    text, records[label] = run(argv + [path])
                    if "--emit-pair" not in argv:
                        continue
                    dump = f"{name}.pair.json"
                    with open(dump, "w") as fh:
                        fh.write(text)
                    for pair_argv in PAIR_COMMANDS:
                        records[f"{' '.join(pair_argv)} {dump}"] = \
                            run(pair_argv + [dump])[1]
        finally:
            os.chdir(old_cwd)
    return records


def compare(before, after):
    """Lines naming each difference between two digests; empty when they
    agree."""
    lines = []
    for label in sorted(set(before) | set(after)):
        a, b = before.get(label), after.get(label)
        if a is None or b is None:
            lines.append(f"only in {'after' if a is None else 'before'}: "
                         f"{label}")
        elif a != b:
            fields = ", ".join(k for k in a if a[k] != b.get(k))
            lines.append(f"differs ({fields}): {label}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    dg = sub.add_parser("digest", help="digest the standard command set")
    dg.add_argument("out")
    dg.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the ihfan package")
    cp = sub.add_parser("compare", help="compare two digest files")
    cp.add_argument("before")
    cp.add_argument("after")
    ns = ap.parse_args(argv)
    if ns.mode == "digest":
        records = digest(standard_cases(), ns.src)
        with open(ns.out, "w") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
        print(f"{len(records)} commands, "
              f"{sum(r['modp_fallbacks'] for r in records.values())} "
              f"fallbacks -> {ns.out}")
        return 0
    digests = []
    for path in (ns.before, ns.after):
        with open(path) as fh:
            digests.append(json.load(fh))
    lines = compare(*digests)
    for line in lines:
        print(line)
    falls = [sum(r["modp_fallbacks"] for r in d.values()) for d in digests]
    print(f"{len(digests[0])} and {len(digests[1])} commands, "
          f"{len(lines)} differences, fallbacks {falls[0]} and {falls[1]}")
    return 0 if not lines and not any(falls) else 1


if __name__ == "__main__":
    sys.exit(main())
