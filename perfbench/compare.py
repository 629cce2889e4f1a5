"""Compare two sets of benchmark records, e.g. parent and change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-s<seed>-t<trace>.json`` records that
run.py writes to ``.perfbench_out/``.  Prints, per workload and metric, the
median of each set, the relative change and each set's quartile spread as a
share of its median.  Refuses (exit 2) when the two sets were measured on
different rational backends or Python versions, or mix them within a set.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MUST_MATCH = ("backend", "python")


def load(directory):
    runs = defaultdict(lambda: defaultdict(list))
    envs = set()
    for path in sorted(Path(directory).glob("*-s*-t*.json")):
        rec = json.loads(path.read_text())
        env = rec["env"]
        envs.add(tuple(env[k] for k in MUST_MATCH))
        key = (env["workload"], env["trace"])
        for name, m in rec["result"]["metrics"].items():
            runs[key][name].append(m["value"])
    return runs, envs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_env), (new, new_env) = load(argv[0]), load(argv[1])
    if len(base_env | new_env) != 1:
        print(f"refusing to compare: environments differ on "
              f"{MUST_MATCH}: {sorted(base_env | new_env)}", file=sys.stderr)
        return 2
    for key in sorted(set(base) & set(new)):
        print(f"== {key[0]} (trace {key[1]})")
        for name in sorted(set(base[key]) & set(new[key])):
            a, b = base[key][name], new[key][name]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / abs(ma) if ma else float("nan")
            print(f"{name:34s} {ma:12.6g} -> {mb:12.6g}  {change:+8.2%}  "
                  f"spread {spread(a):6.2%} / {spread(b):6.2%}  "
                  f"(n={len(a)}/{len(b)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
