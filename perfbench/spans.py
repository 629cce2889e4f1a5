"""Span tracing for the traced benchmark run.

Wrappers are installed on the package's public functions from outside the
package, on the name each caller looks up (``ihfan.cli`` imports most of
what it calls into its own namespace, so those bindings are patched there;
library callers and package-internal calls go through module attributes).
Spans stay in memory as [name, start, end, parent index, job id] and are
written out when the run ends; per-layer self times are derived from them.
"""

import functools
import importlib
import json
import time
from collections import Counter

# (module, attribute, span name).  The same function may be bound under
# several modules; each binding its callers use is patched.
SPANS = (
    ("ihfan.cli", "main", "cli.main"),
    ("ihfan.cli", "load_input", "cli.load_input"),
    ("ihfan.cli", "fan_from_json_dict", "fans.fan_from_json_dict"),
    ("ihfan.cli", "face_fan_with_support", "fans.face_fan_with_support"),
    ("ihfan.cli", "normal_fan", "fans.normal_fan"),
    ("ihfan.cli", "is_complete", "fans.is_complete"),
    ("ihfan.cli", "is_strictly_convex", "fans.is_strictly_convex"),
    ("ihfan.fans", "barycentric_subdivision", "fans.barycentric_subdivision"),
    ("ihfan.cli", "profile_for_fan", "cohomology.profile_for_fan"),
    ("ihfan.cohomology", "profile_for_fan", "cohomology.profile_for_fan"),
    ("ihfan.cli", "build_distinguished_pair",
     "ihsheaf.build_distinguished_pair"),
    ("ihfan.cohomology", "build_distinguished_pair",
     "ihsheaf.build_distinguished_pair"),
    ("ihfan.cohomology", "GradedIH", "ihsheaf.GradedIH"),
    ("ihfan.cli", "pairing_matrix", "cohomology.pairing_matrix"),
    ("ihfan.cli", "rank", "exactlin.rank"),
    ("ihfan.cli", "toric_h_of_fan", "cohomology.toric_h_of_fan"),
    ("ihfan.cli", "hl_rank_report", "cohomology.hl_rank_report"),
    ("ihfan.cohomology", "hl_rank_report", "cohomology.hl_rank_report"),
    ("ihfan.cli", "hrm_check", "cohomology.hrm_check"),
    ("ihfan.cohomology", "hrm_check", "cohomology.hrm_check"),
)

# per-layer time metric -> span names whose self times it sums
TIME_METRICS = {
    "fans.hull_s": ("fans.face_fan_with_support", "fans.normal_fan"),
    "fans.fan_from_json_s": ("fans.fan_from_json_dict",),
    "fans.is_complete_s": ("fans.is_complete",),
    "fans.is_strictly_convex_s": ("fans.is_strictly_convex",),
    "fans.subdivide_s": ("fans.barycentric_subdivision",),
    "ihsheaf.pair_s": ("ihsheaf.build_distinguished_pair",),
    "ihsheaf.graded_s": ("ihsheaf.GradedIH",),
    "cohomology.profile_lookup_s": ("cohomology.profile_for_fan",),
    "cohomology.pairing_s": ("cohomology.pairing_matrix",),
    "cohomology.hl_s": ("cohomology.hl_rank_report",),
    "cohomology.hrm_s": ("cohomology.hrm_check",),
    "cohomology.oracle_s": ("cohomology.toric_h_of_fan",),
    "exactlin.rank_s": ("exactlin.rank",),
    "cli.load_input_s": ("cli.load_input",),
    # a job's time in no child span: the root span of each traced job plus
    # the CLI's own share of ``main``
    "cli.self_s": ("job", "cli.main"),
}
COUNT_METRICS = (
    "fans.maximal_cones", "fans.subdivided_maximal_cones",
    "ihsheaf.section_columns", "ihsheaf.section_basis",
    "exactlin.pairing_entries", "conewise.poly_mul_calls",
    "cohomology.profile_calls", "cohomology.profile_hits", "trace.jobs",
)


def _count_pair(counts, pair):
    counts["fans.maximal_cones"] += len(pair.fan.maximal_ids)
    counts["fans.subdivided_maximal_cones"] += \
        len(pair.subdivided.maximal_ids)


def _count_sections(counts, gih):
    for sp in gih.spaces.values():
        counts["ihsheaf.section_columns"] += len(sp.cols)
        counts["ihsheaf.section_basis"] += len(sp.basis)


def _count_entries(counts, mat):
    counts["exactlin.pairing_entries"] += mat.nrows * mat.ncols


# span name -> hook(counts, result or first argument)
_ON_RESULT = {
    "ihsheaf.build_distinguished_pair": _count_pair,
    "ihsheaf.GradedIH": _count_sections,
}
_ON_ARG = {"exactlin.rank": _count_entries}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        on_result = _ON_RESULT.get(name)
        on_arg = _ON_ARG.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(counts, out)
            if on_arg is not None:
                on_arg(counts, args[0])
            return out
        return traced

    def install(self):
        """Patch every binding in SPANS plus the Polynomial.mul counter."""
        for module, attr, name in SPANS:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr)
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(name, orig))
        from ihfan.conewise import Polynomial

        mul = Polynomial.mul
        counts = self.counts

        def counted_mul(p, other):
            counts["conewise.poly_mul_calls"] += 1
            return mul(p, other)
        self._patches.append((Polynomial, "mul", mul))
        Polynomial.mul = counted_mul

    def uninstall(self):
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def root(self, fn, *args):
        """Run fn as the root span of the current job."""
        return self.wrap("job", fn)(*args)

    def per_layer(self):
        """Self times summed per metric, counts, and the profile hit ratio."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = [[] for _ in spans]
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(i)
        self_by_name = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            self_by_name[name] += end - start - child_time[i]
        out = {metric: sum(self_by_name[n] for n in names)
               for metric, names in TIME_METRICS.items()}
        counts = Counter(self.counts)
        for i, rec in enumerate(spans):
            if rec[0] == "cohomology.profile_for_fan":
                counts["cohomology.profile_calls"] += 1
                if not any(spans[c][0] == "ihsheaf.build_distinguished_pair"
                           for c in children[i]):
                    counts["cohomology.profile_hits"] += 1
        for metric in COUNT_METRICS:
            out[metric] = counts[metric]
        calls = counts["cohomology.profile_calls"]
        out["cohomology.profile_hit_ratio"] = \
            counts["cohomology.profile_hits"] / calls if calls else 0.0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")
