"""CLI answers on the benchmark's generated inputs and library answers on
its relight fans, checked with the benchmark's own checks against the
expectations its generator derives from combinatorics (perfbench/gen.py)
and with no system recomputed on the exact path (exactlin.modp_fallbacks),
the same answers under the traced benchmark's wrappers, and a guard that
every package name the traced benchmark wraps exists."""

import importlib
import json
import sys
from pathlib import Path

import pytest

from ihfan import cohomology, exactlin
from ihfan.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402

SEEDS = (3, 17)


def _run(tmp_path, capsys, make, argv, spec, seed, mirror):
    job = make(gen.make_rng("shape", "tests", spec),
               gen.make_rng(seed, "tests", spec), spec, mirror)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(job["doc"]))
    before = exactlin.modp_fallbacks
    code = main(argv + [str(path)])
    # a system sent to the exact path is answered right, only slowly, so
    # nothing but this count shows it
    assert exactlin.modp_fallbacks == before
    return job["h"], code, capsys.readouterr().out


@pytest.mark.parametrize("mirror", (False, True))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", sorted(set(gen.FAN_COLD_CYCLE)), ids=str)
def test_report_on_generated_fans(tmp_path, capsys, spec, seed, mirror):
    h, code, out = _run(tmp_path, capsys, gen.fan_cold_job, ["report"],
                        spec, seed, mirror)
    assert code == 0 and bench.check_report(h, out), out


@pytest.mark.parametrize("mirror", (False, True))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", sorted(set(gen.POLYTOPE_CYCLE)), ids=str)
def test_hvector_on_generated_polytopes(tmp_path, capsys, spec, seed,
                                        mirror):
    h, code, out = _run(tmp_path, capsys, gen.polytope_job,
                        ["hvector", "--oracle"], spec, seed, mirror)
    assert code == 0 and bench.check_hvector(h, out), out


@pytest.fixture(scope="module")
def relight():
    """The benchmark's relight jobs with their Q(sqrt 2) bipyramids and
    profiles built once."""
    mods, _ = bench.load_package()
    jobs = bench.RelightJobs(gen.RELIGHT_FANS)
    jobs.warm(mods, "tests")
    return mods, jobs


@pytest.mark.parametrize("mirror", (False, True))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", range(len(gen.RELIGHT_FANS)))
def test_relight_on_generated_fans(relight, spec, seed, mirror):
    # HL ranks, HRM signatures and <l^n> = a <c> for a fresh l on a cached
    # profile: the only jobs that read HL and HRM off Q(sqrt 2) Gram
    # matrices (GradedIH.lefschetz_gram)
    mods, jobs = relight
    job = jobs.prepare(mods, (seed, "tests", spec), spec, None, mirror)
    before = exactlin.modp_fallbacks
    assert jobs.check(mods, job, jobs.run(mods, job)), job["values"]
    assert exactlin.modp_fallbacks == before


def test_answers_do_not_change_under_the_tracer(tmp_path, capsys,
                                                monkeypatch):
    # the traced run rebinds the names in spans.SPANS to plain wrapper
    # functions, so a package name used as a type, not only called, breaks
    # there alone; the profile cache starts empty so that every profile is
    # built under the wrappers
    cohomology.profile_for_fan.cache_clear()
    workloads = ((gen.fan_cold_job, ["report"], bench.check_report,
                  gen.FAN_COLD_CYCLE),
                 (gen.polytope_job, ["hvector", "--oracle"],
                  bench.check_hvector, gen.POLYTOPE_CYCLE))
    tracer = spans.Tracer()
    tracer.install()
    try:
        for make, argv, check, cycle in workloads:
            for spec in sorted(set(cycle)):
                for mirror in (False, True):
                    h, code, out = _run(tmp_path, capsys, make, argv, spec,
                                        SEEDS[0], mirror)
                    assert code == 0 and check(h, out), (spec, out)
    finally:
        tracer.uninstall()
    assert tracer.counts["ihsheaf.section_columns"] > 0


def test_traced_names_resolve():
    # a renamed function would otherwise read as 0 s in the traced run
    for module, attr, _ in spans.SPANS:
        assert callable(getattr(importlib.import_module(module), attr)), \
            (module, attr)
    names = {name for _, _, name in spans.SPANS} | {"job"}
    for metric, span_names in spans.TIME_METRICS.items():
        assert set(span_names) <= names, metric
    from ihfan.conewise import Polynomial
    assert callable(Polynomial.mul)
