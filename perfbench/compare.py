#!/usr/bin/env python3
"""Compare two sets of plutopp benchmark result files.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds result files written by run.py (one per run; several
seeds per workload). For every workload and end-to-end metric the table
gives each side's median and quartiles and the spread (quartile distance
over median). With two sides a change is flagged when the new median is
worse than the base by more than the metric's bound in BENCHMARK.json, and
reported "unresolved" when either side's spread is wider than the bound,
unless every new run beats every base run. The figures that apply to one
workload only (corpus_compile_s, run_speedup_*, serve_p99_ms, ...) are
shown as info rows without a bound.

Traced result files are checked for the deterministic counts: for each
workload and seed, every run on either side must give exactly the same
value. The exit code is 1 when a change is flagged or a count differs.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
from run import DETERMINISTIC  # noqa: E402


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            try:
                doc = json.load(f)
            except ValueError:
                continue
        if isinstance(doc, dict) and "provenance" in doc:
            runs.append(doc)
    if not runs:
        sys.exit("compare.py: no result files in " + directory)
    return runs


def summary(xs):
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med,) * 3
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def series(runs, workload, section, name):
    return [r[section][name] for r in runs
            if r["provenance"]["workload"] == workload and section in r
            and name in r[section]]


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    sides = [load(d) for d in argv[1:]]
    workloads = [w["name"] for w in bench["workloads"]]
    bad = 0

    hdr = "%-15s %-20s" % ("workload", "metric")
    for label in ("base", "new")[:len(sides)]:
        hdr += " %12s %12s %12s %6s" % (label + " med", "q1", "q3", "spread")
    print(hdr + "  %8s %6s  status" % ("change", "bound"))
    rows = [(m["name"], "end_to_end", m["bound"], m["better"])
            for m in bench["end_to_end"]]
    for w in workloads:
        info = set()
        for s in sides:
            for r in s:
                if r["provenance"]["workload"] == w:
                    info.update(r.get("workload_metrics", {}))
        info -= {m[0] for m in rows}
        for name, section, bound, better in rows + [
                (n, "workload_metrics", None, None) for n in sorted(info)]:
            vals = [series(s, w, section, name) for s in sides]
            if not all(vals):
                continue
            stats = [summary(v) for v in vals]
            line = "%-15s %-20s" % (w, name)
            for med, q1, q3, spread in stats:
                line += " %12.5g %12.5g %12.5g %6.3f" % (med, q1, q3, spread)
            if len(sides) == 1:
                status = "" if bound is None or stats[0][3] <= bound \
                    else "spread above bound"
                print(line + "  " + status)
                continue
            (bm, _, _, bs), (nm, _, _, ns) = stats
            change = (nm - bm) / abs(bm) if bm else 0.0
            if bound is None:
                status = "info"
            else:
                worse = change if better == "lower" else -change
                sign = 1 if better == "lower" else -1
                all_better = max(sign * x for x in vals[1]) < \
                    min(sign * x for x in vals[0])
                if max(bs, ns) > bound and not all_better:
                    status = "unresolved"
                elif worse > bound:
                    status = "REGRESSION"
                    bad += 1
                elif -worse > bound:
                    status = "improved"
                else:
                    status = "within bound"
            print(line + "  %+8.3f %6s  %s" % (
                change, "-" if bound is None else "%.2f" % bound, status))

    # Deterministic counts: identical for one workload and seed.
    seen, differ = {}, 0
    for s in sides:
        for r in s:
            if "per_layer" not in r:
                continue
            p = r["provenance"]
            key = (p["workload"], p["seed"])
            counts = {k: r["per_layer"].get(k) for k in DETERMINISTIC}
            if key in seen and seen[key] != counts:
                diff = [k for k in DETERMINISTIC
                        if seen[key][k] != counts[k]]
                print("COUNTS DIFFER %s seed %d: %s" % (
                    key[0], key[1], ", ".join(diff)))
                differ += 1
            seen.setdefault(key, counts)
    print("deterministic counts: %d workload/seed pairs checked, %s" % (
        len(seen), "all equal" if not differ else "see above"))
    return 1 if bad or differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
