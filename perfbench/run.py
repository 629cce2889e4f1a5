"""ihfan benchmark: seeded batches of verification jobs through the public
entry points, every answer checked against an independent expectation.

    python3 perfbench/run.py --workload fan-cold --seed 1 --seconds 44 --trace 0

One closed loop, one caller, one process: each job starts after the
previous one ends.  CLI-shaped jobs call ``ihfan.cli.main`` in-process;
``relight`` jobs call the library.  A run executes a fixed number of whole
cycles of the workload's job mix, ``round(seconds / cycle_seconds)``,
where ``cycle_seconds`` is the cycle time measured when the benchmark was
defined (2-core x86 box, Python 3.11, Fraction backend).  Fixing the job
count keeps the tail percentile and the traced counts comparable between
versions: a faster program finishes the same jobs sooner.

``--trace 0`` times every job and every set-up round and scales each time
by a machine-speed reference measured just before and after it (see
speed.py), then prints the end-to-end metrics; the report lines give the
wall times too.  ``--trace 1`` runs half the cycles with every job twice,
once untraced and once traced, on an input and its twin: its mirror image
through the origin (for ``relight``, the same fan with 2l), the same
arithmetic on a new fan, so no cache hit.  It prints per-layer metrics
plus the tracing overhead.  The last line of standard output is one JSON
object; earlier lines are a readable report.  Records and spans go to
``.perfbench_out/``.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import gen
import speed
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_ROUNDS = 5
# what each job record states about its input size
SIZE_KEYS = ("family", "args", "dim", "rays", "field", "simplicial")


def load_package():
    """Import ihfan from this checkout's src/ (never an installed copy);
    returns (modules, import seconds)."""
    src = ROOT / "src"
    if not (src / "ihfan" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ihfan sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    t = time.perf_counter()
    import ihfan.cli
    import ihfan.cohomology
    import ihfan.exactlin
    import ihfan.fans
    from ihfan.conewise import Polynomial
    took = time.perf_counter() - t
    if Path(ihfan.__file__).resolve().parent != (src / "ihfan").resolve():
        raise SystemExit(f"perfbench: imported ihfan from {ihfan.__file__}, "
                         f"not from {src}")
    mods = {"cli": ihfan.cli, "cohomology": ihfan.cohomology,
            "exactlin": ihfan.exactlin, "fans": ihfan.fans,
            "Polynomial": Polynomial}
    return mods, took


def import_seconds():
    """Import time of the package in a fresh interpreter (an import is
    timed once per process, so each set-up round needs its own)."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(run.load_package()[1])")
    return float(subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent)],
        capture_output=True, text=True, check=True, timeout=120).stdout)


def environment(mods, workload, seed, trace):
    q = mods["exactlin"]._Q
    return {"backend": "Fraction" if q is Fraction else q.__module__,
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "workload": workload, "seed": seed,
            "trace": trace}


# -- CLI-shaped jobs ---------------------------------------------------------


class CliJobs:
    """Jobs that write a JSON input in set-up and run ``ihfan <argv>``."""

    def __init__(self, argv, make, check):
        self.argv, self.make, self.check_text = argv, make, check

    def draw(self, salt, spec, mirror):
        """The job for salt = (seed, workload, position, attempt).  Its
        polygons depend on the position alone, so every run has the same
        shapes; the seed draws their orientation and l."""
        return self.make(gen.make_rng("shape", *salt[1:]),
                         gen.make_rng(*salt), spec, mirror)

    def fresh(self, seen, salt, spec):
        """Salt of the first draw whose fan and twin are new to this run."""
        for attempt in itertools.count():
            keys = {self.draw(salt + (attempt,), spec, twin)["key"]
                    for twin in (False, True)}
            if len(keys) == 2 and not keys & seen:
                seen |= keys
                return salt + (attempt,)

    def prepare(self, mods, salt, spec, path, mirror):
        rec = self.draw(salt, spec, mirror)
        with open(path, "w") as fh:
            json.dump(rec["doc"], fh)
        rec["argv"] = self.argv + [str(path)]
        return rec

    def run(self, mods, job):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mods["cli"].main(job["argv"])
        return code, buf.getvalue()

    def check(self, mods, job, out):
        code, text = out
        return code == 0 and self.check_text(job["h"], text)


def check_report(h, text):
    """``ihfan report`` JSON against the expected h-vector: pairing and HL
    ranks equal h, HRM signatures follow the h-vector formula, every check
    passes."""
    rep = json.loads(text)
    n = len(h) - 1
    if rep["h"] != h or rep["oracle_h"] != h or not rep["oracle_match"] \
            or not rep["ds"]:
        return False
    if rep["pd_ranks"] != {str(2 * i): h[i] for i in range(n + 1)}:
        return False
    if rep["hl_ranks"] != {str(d): [h[d // 2]] * 2
                           for d in range(0, n + 1, 2)}:
        return False
    want = gen.hrm_signatures(h, n)
    rows = {r["d"]: r for r in rep["hrm"]}
    return set(rows) == set(want) and all(
        rows[d]["signature"] == [p, q] and rows[d]["primitive_dim"] == prim
        and rows[d]["definite"] for d, (p, q, prim) in want.items())


def check_hvector(h, text):
    hs = "[" + ",".join(map(str, h)) + "]"
    return text.splitlines() == [f"h = {hs}", f"oracle h = {hs}",
                                 "oracle match = true"]


# -- relight: library reads against a warm profile cache ---------------------


class RelightJobs:
    """Each job builds a fresh strictly convex l from plain ray values and
    queries the cached profile of one of a few Q(sqrt 2) fans.  No lkey is
    passed and no l outlives its job, so a Lefschetz matrix cached for an
    earlier l whose id was reused shows up as a wrong answer."""

    def __init__(self, ks):
        self.ks = ks
        self.fans = None
        self.seen = set()

    def warm(self, mods, rnd):
        """Build the fans and their profiles (set-up).  The fans do not
        depend on the seed, and each set-up round draws new ones, so that no
        round hits the cache another round filled."""
        fans = mods["fans"]
        out = []
        for i, k in enumerate(self.ks):
            for attempt in itertools.count():
                rec = gen.relight_fan(
                    gen.make_rng("relight-fan", rnd, i, attempt), k)
                if rec["key"] not in self.seen:
                    self.seen.add(rec["key"])
                    break
            fan = fans.fan_from_json_dict(rec["doc"])
            mods["cohomology"].profile_for_fan(fan)
            rid = {fan.cones[r].rays[0]: r for r in fan.ray_ids()}
            rec["ray_ids"] = [rid[fans.parse_vector(c, fan.field)]
                              for c in rec["canonical_rays"]]
            rec["fan"] = fan
            out.append(rec)
        self.fans = out

    def fresh(self, seen, salt, spec):
        return salt

    def prepare(self, mods, salt, spec, path, mirror):
        # the twin reads the same warm profile with 2l: equal work, and a
        # matrix left stale by the first still shows
        rec = self.fans[spec]
        job = {k: rec[k] for k in SIZE_KEYS}
        job.update(fan=rec, h=list(rec["h"]),
                   values=gen.relight_values(gen.make_rng(*salt), rec,
                                             2 if mirror else 1))
        return job

    def run(self, mods, job):
        coh = mods["cohomology"]
        rec = job["fan"]
        fan = rec["fan"]
        values = {rid: fan.field.parse(v)
                  for rid, v in zip(rec["ray_ids"], job["values"])}
        l = mods["fans"].PLFunction.from_ray_values(fan, values)
        prof = coh.profile_for_fan(fan)
        hl = coh.hl_rank_report(prof, l)
        hrm = coh.hrm_check(prof, l)
        a = coh.lefschetz_matrix(prof, l, 0)
        return prof, dict(l.per_max), hl, hrm, a

    def check(self, mods, job, out):
        """HL ranks and HRM signatures from h, and <l^n> = a <c> with a the
        1x1 Lefschetz matrix from grading 0 and c the stored grading-2n
        representative (evaluation vanishes on ideal multiples)."""
        prof, forms, hl, hrm, a = out
        h = job["h"]
        n = len(h) - 1
        if hl != {d: (h[d // 2],) * 2 for d in range(0, n + 1, 2)}:
            return False
        want = gen.hrm_signatures(h, n)
        rows = {r["d"]: r for r in hrm.rows}
        if set(rows) != set(want) or not all(
                rows[d]["signature"] == (p, q) and
                rows[d]["primitive_dim"] == prim and rows[d]["definite"]
                for d, (p, q, prim) in want.items()):
            return False
        coh, poly = mods["cohomology"], mods["Polynomial"]
        ctx = prof.context()
        lpow = {}
        for m, form in forms.items():
            lin = poly.from_linear(form)
            p = poly.constant(n, 1)
            for _ in range(n):
                p = p.mul(lin)
            lpow[m] = p
        top = coh.evaluate_fast(ctx, prof.rep_polys(2 * n)[0])
        return coh.evaluate_fast(ctx, lpow) == a.entries[0][0] * top


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A job mix; why each exists is in BENCHMARK.json and README.md."""

    name: str
    cycle: tuple          # job specs of one cycle of the mix
    cycle_seconds: float  # one cycle when defined (see top)
    jobs: object


def workloads():
    relight = RelightJobs(gen.RELIGHT_FANS)
    return {
        "fan-cold": Workload(
            "fan-cold", gen.FAN_COLD_CYCLE, 22.0,
            CliJobs(["report"], gen.fan_cold_job, check_report)),
        "polytope-sqrt2": Workload(
            "polytope-sqrt2", gen.POLYTOPE_CYCLE, 22.0,
            CliJobs(["hvector", "--oracle"], gen.polytope_job,
                    check_hvector)),
        "relight": Workload(
            "relight", tuple(range(len(gen.RELIGHT_FANS))), 1.8, relight),
    }


# -- one run ----------------------------------------------------------------------


def set_up(mods, wl, seed, specs, rnd, twins):
    """Generate every job's input, each on a fan new to the run (and warm
    relight's profiles).  With twins, jobs come in pairs: job 2k is spec k,
    job 2k + 1 its twin."""
    inputs = OUT / "inputs" / f"{wl.name}-s{seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    if isinstance(wl.jobs, RelightJobs):
        wl.jobs.warm(mods, rnd)
    seen, jobs = set(), []
    for i, spec in enumerate(specs):
        salt = wl.jobs.fresh(seen, (seed, wl.name, i), spec)
        for twin in ((False, True) if twins else (False,)):
            jobs.append(wl.jobs.prepare(mods, salt, spec,
                                        inputs / f"{len(jobs)}.json", twin))
    return jobs


def tail(lat):
    """Latency at the highest percentile with at least ten samples beyond
    it; (value, percentile, samples beyond)."""
    s = sorted(lat)
    i = max(len(s) - 11, 0) if len(s) > 10 else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def run(wl, seed, seconds, trace, corrupt=False, cycles=None):
    """One benchmark run; returns (result dict, readable report lines,
    per-job pass flags)."""
    mods, _ = load_package()
    if cycles is None:
        cycles = max(1, round(seconds / wl.cycle_seconds))
        if trace:
            cycles = max(1, cycles // 2)
    specs = [spec for _ in range(cycles) for spec in wl.cycle]
    rounds = []   # (import s, inputs s, scaled s) per set-up round

    def set_up_round():
        """One timed set-up round: import in a fresh interpreter plus input
        generation here.  Later rounds rewrite the same inputs."""
        before = speed.level()
        imp = import_seconds()
        t = time.perf_counter()
        jobs = set_up(mods, wl, seed, specs, len(rounds), trace)
        inp = time.perf_counter() - t
        rounds.append((imp, inp, speed.scaled(imp + inp, before,
                                              speed.level())))
        return jobs

    jobs = set_up_round()
    if corrupt:
        jobs[0]["h"][1] += 1

    n = len(jobs)
    # the other set-up rounds are spread over the run, so that their median
    # does not rest on the machine's speed in the run's first second
    set_up_at = {n * r // SETUP_ROUNDS for r in range(1, SETUP_ROUNDS)}
    # traced second in even pairs, first in odd ones, so that what the
    # first job of a pair leaves warm favours neither side
    traced = {i for i in range(n) if i % 2 != (i // 2) % 2} if trace \
        else set()
    tracer = Tracer() if trace else None
    oks, lat, scaled = [False] * n, [0.0] * n, [0.0] * n
    plain_s = traced_s = 0.0
    t_run = time.perf_counter()
    for i, job in enumerate(jobs):
        if i in set_up_at:
            set_up_round()
        if i in traced:
            tracer.job = i
            tracer.counts["trace.jobs"] += 1
            tracer.install()
        before = speed.level()
        t = time.perf_counter()
        try:
            out = tracer.root(wl.jobs.run, mods, job) if i in traced \
                else wl.jobs.run(mods, job)
        except Exception as e:  # a raising job is a failed job
            out = e
        dt = time.perf_counter() - t
        after = speed.level()
        if i in traced:
            tracer.uninstall()
            traced_s += dt
        else:
            plain_s += dt
        try:
            oks[i] = not isinstance(out, Exception) and \
                wl.jobs.check(mods, job, out)
        except Exception:
            oks[i] = False
        del out
        lat[i], scaled[i] = dt, speed.scaled(dt, before, after)
    run_s = time.perf_counter() - t_run
    attempted, failed = n, oks.count(False)
    env = environment(mods, wl.name, seed, trace)
    lines = ["# env " + json.dumps(env),
             f"# workload {wl.name}: {cycles} x a cycle of {len(wl.cycle)} "
             f"jobs" + (", each run untraced and traced" if trace else "")]
    sizes = {}
    for job in jobs[::2] if trace else jobs:
        key = json.dumps({k: job[k] for k in SIZE_KEYS}, sort_keys=True)
        sizes[key] = sizes.get(key, 0) + 1
    for key, count in sizes.items():
        lines.append(f"# inputs {count} x {key}")
    if trace:
        layer = tracer.per_layer()
        layer["trace.overhead_ratio"] = traced_s / plain_s
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in layer.items()}
        for k, m in metrics.items():
            lines.append(f"{k} {m['value']} {m['unit']}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{wl.name}-s{seed}.jsonl")
    else:
        good = [scaled[i] for i in range(n) if oks[i]]
        wall = [lat[i] for i in range(n) if oks[i]]
        ok = len(good)
        if not good:   # every job failed: no latency to report
            good = wall = [float("nan")]
        tail_v, pct, beyond = tail(good)
        fail_ratio = failed / attempted
        metrics = {
            "jobs_per_s": {"value": ok / sum(good), "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(good), "unit": "s"},
            "job_tail_s": {"value": tail_v, "unit": "s"},
            "ok_ratio": {"value": 1 - fail_ratio, "unit": "ratio"},
            "setup_s": {"value": statistics.median(r[2] for r in rounds),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        notes = {"jobs_per_s": f"{ok} correct jobs over the sum of their "
                               f"scaled times; wall {ok / sum(wall):.4f}; "
                               f"the run took {run_s:.4f} s",
                 "job_p50_s": f"n={ok}; wall "
                              f"{statistics.median(wall):.4f} s",
                 "job_tail_s": f"p{pct:.1f}, n={ok}, {beyond} beyond; "
                               f"wall {tail(wall)[0]:.4f} s",
                 "setup_s": f"median of {len(rounds)} rounds, "
                            f"import + inputs wall -> scaled: " + ", ".join(
                                f"{a:.4f} + {b:.4f} -> {c:.4f}"
                                for a, b, c in rounds)}
        for k, m in metrics.items():
            note = f"  ({notes[k]})" if k in notes else ""
            lines.append(f"{k} {m['value']} {m['unit']}{note}")
            if k == "ok_ratio":
                lines.append(f"fail_ratio {fail_ratio} ratio  "
                             f"({failed} of {attempted})")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-s{seed}-t{int(bool(trace))}.json", "w") as fh:
        json.dump({"env": env, "result": result, "latencies": lat,
                   "scaled": scaled, "passed": oks}, fh)
    return result, lines, oks


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    wls = workloads()
    if ns.workload not in wls:
        ap.error(f"unknown workload {ns.workload!r}; one of {sorted(wls)}")
    result, lines, _ = run(wls[ns.workload], ns.seed, ns.seconds, ns.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
