#!/usr/bin/env python3
"""plutopp benchmark: one workload, one run, metrics on stdout.

    python3 perfbench/run.py --workload paper_kernels --seed 1 --seconds 40 \
        --trace 0

Run from the repository root. The first run builds the plutopp library,
plutod and the measuring program (plutobench.cpp) from source into
.bench_build/. Every run prints the metrics by name and unit, writes a
result file (with provenance) under .bench_build/results/, and ends its
standard output with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and a Chrome trace-event file). The exit code is 0 only when
every correctness check passed. --self-check runs the traced workload twice
with one seed and checks that inputs and deterministic counts repeat.
WORKLOADS.md explains the workloads and metrics; compare.py compares two
sets of result files.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper_kernels", "large_programs", "serve_mixed")

# Latency limit of a unit of work that counts towards goodput_rps. Cold
# compiles of wide_coupled take seconds; a plutod miss takes ~100 ms plus
# queueing.
LATENCY_LIMIT_MS = {"paper_kernels": 1000.0, "large_programs": 10000.0,
                    "serve_mixed": 1000.0}

# Counts that must repeat exactly for one input set (compare.py checks them
# across result files, --self-check across two runs).
DETERMINISTIC = ("deps.candidates", "transform.hyperplanes",
                 "ilp.lexmin_calls", "ilp.simplex_pivots", "ilp.gomory_cuts",
                 "ilp.warm_starts", "poly.fm_rows_generated",
                 "poly.fm_rows_pruned", "poly.emptiness_tests",
                 "tile.bands_tiled", "tile.wavefronts", "codegen.pieces",
                 "codegen.guard_fallbacks", "codegen.emitted_bytes")

# PassStats counter behind each per-layer count.
COUNTERS = {"deps.candidates": "dep_candidates",
            "transform.hyperplanes": "hyperplanes_found",
            "ilp.lexmin_calls": "lexmin_calls",
            "ilp.simplex_pivots": "simplex_pivots",
            "ilp.gomory_cuts": "gomory_cuts",
            "ilp.warm_starts": "lexmin_warm_starts",
            "poly.fm_rows_generated": "fm_rows_generated",
            "poly.fm_rows_pruned": "fm_rows_pruned",
            "poly.emptiness_tests": "emptiness_tests",
            "tile.bands_tiled": "bands_tiled",
            "tile.wavefronts": "wavefronts_applied",
            "codegen.pieces": "codegen_pieces",
            "codegen.guard_fallbacks": "codegen_guard_fallbacks"}

KERNELS = ("jacobi1d", "fdtd2d", "lu", "mvt", "seidel2d", "matmul")

# Host speed: plutobench times a fixed piece of compiler-like work (the
# reference) between compiles and around set-ups. In-process compile times
# and set-up times are reported scaled to a host on which the reference takes
# REFERENCE_MS: a sample is multiplied by REFERENCE_MS / the median reference
# time of its compile pass, or of the four timings around its set-up. The
# unscaled figures stay in the result file under raw_*. WORKLOADS.md, "Host
# speed".
REFERENCE_MS = 12.0


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def nearest_rank(sorted_xs, q):
    k = max(1, math.ceil(q / 100.0 * len(sorted_xs)))
    return sorted_xs[min(k, len(sorted_xs)) - 1]


def tail(xs):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count); p50 when there are too few samples
    for any higher one."""
    s = sorted(xs)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(s) * (1 - q / 100.0) >= 10:
            return nearest_rank(s, q), q, len(s)
    return (median(s) if s else 0.0), 50.0, len(s)


def geomean(xs):
    xs = [x for x in xs if x > 0]
    return math.exp(sum(map(math.log, xs)) / len(xs)) if xs else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# --------------------------------------------------------------------------
# Build and provenance
# --------------------------------------------------------------------------

def check_tree():
    needed = ["src/CMakeLists.txt", "tools/plutod.cpp", "examples/lu.c",
              "tests/corpus/bombs/wide_coupled.c", "perfbench/CMakeLists.txt"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        die("not a plutopp checkout (missing %s)" % ", ".join(missing))


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            die("build failed: " + " ".join(cmd), 1)


def first_line(cmd):
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             cwd=ROOT, timeout=10).stdout
        return out.splitlines()[0].strip() if out else None
    except (OSError, subprocess.SubprocessError):
        return None


def git_commit():
    """HEAD of the checkout, or None when it is not its own git work tree
    (a checkout nested in some other repository must not report that)."""
    top = first_line(["git", "rev-parse", "--show-toplevel"])
    if not top or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return first_line(["git", "rev-parse", "HEAD"])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_digest():
    """sha256 over the sources the benchmark builds and reads, for when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "tools", "examples", "perfbench"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, f) for f in files]
    paths.append(os.path.join(ROOT, "tests/corpus/bombs/wide_coupled.c"))
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def provenance(doc, args):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "cc_version": first_line(["cc", "--version"]),
        "omp_threads": doc.get("omp_threads"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "input_digest": doc.get("input_digest"),
        "python": platform.python_version(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# --------------------------------------------------------------------------
# One measured run
# --------------------------------------------------------------------------

def measure(workload, seed, seconds, trace, out):
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    cmd = [os.path.join(BUILD, "plutobench"), workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace, "--root=" + ROOT,
           "--out=" + out, "--plutod=" + os.path.join(BUILD, "plutod")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                           timeout=max(150.0, 4 * seconds + 60))
    except subprocess.TimeoutExpired:
        die("plutobench timed out", 1)
    if p.returncode != 0:
        die("plutobench exited with %d" % p.returncode, 1)
    return json.loads(p.stdout)


def compile_phases(doc):
    phases = doc["compile"]
    untraced = next(p for p in phases if not p["traced"])
    traced = next((p for p in phases if p["traced"]), None)
    return untraced, traced


def host_scale(ref_ms):
    """Factor that scales a time measured next to these reference timings
    to the reference host."""
    return REFERENCE_MS / median(ref_ms)


def scaled_ms(p):
    """The compile times of one pass, scaled to the reference host."""
    k = host_scale(p["ref_ms"])
    return [m * k for m in p["ms"]]


def compile_samples(phase, raw=False):
    ms = [m for p in phase["passes"]
          for m in (p["ms"] if raw else scaled_ms(p))]
    ok = [o for p in phase["passes"] for o in p["ok"]]
    return ms, ok


def unit_medians(phase):
    """unit -> (median scaled ms, all ok) over the passes of one phase."""
    per = {}
    for p in phase["passes"]:
        for u, m, o in zip(p["units"], scaled_ms(p), p["ok"]):
            per.setdefault(u, ([], []))
            per[u][0].append(m)
            per[u][1].append(o)
    return {u: (median(ms), all(oks)) for u, (ms, oks) in per.items()}


def runtime_medians(doc):
    rt = {k: median(v) for k, v in doc.get("runtime", {}).items()}
    sp1 = [ratio(rt[k + ".original_ms"], rt[k + ".emitted_1t_ms"])
           for k in KERNELS if k + ".emitted_1t_ms" in rt]
    sp2 = [ratio(rt[k + ".original_ms"], rt[k + ".emitted_2t_ms"])
           for k in KERNELS if k + ".emitted_2t_ms" in rt]
    return rt, geomean(sp1), geomean(sp2)


def end_to_end(doc, workload):
    """The metrics of BENCHMARK.json's end_to_end list, plus the figures
    that apply to this workload only, under their own names (printed and
    kept in the result file)."""
    limit = LATENCY_LIMIT_MS[workload]
    extra = {}
    if workload == "serve_mixed":
        blk = doc["serve"][0]
        lat = blk["lat_ms"]
        good = sum(1 for l, o in zip(lat, blk["ok"]) if o and 0 <= l <= limit)
        goodput = ratio(good, blk["elapsed_s"])
        k = host_scale(blk["ref_ms"])
        p50 = median(lat) * k
        t, q, n = tail(lat)
        rss = blk["hwm_kb"] / 1024.0
        extra.update(serve_p50_ms=(p50, "ms"), serve_p99_ms=(t * k, "ms"),
                     serve_goodput_rps=(goodput, "req/s"),
                     raw_serve_p50_ms=(median(lat), "ms"),
                     raw_serve_p99_ms=(t, "ms"),
                     host_reference_ms=(median(blk["ref_ms"]), "ms"))
        t *= k
    else:
        # The corpus pass time is the sum of per-unit medians: a pass lasts
        # seconds on large_programs, and the median of a few pass sums is
        # hostage to one slow stretch of a shared host.
        phase, _ = compile_phases(doc)
        ms, ok = compile_samples(phase)
        units = unit_medians(phase).values()
        corpus_s = sum(m for m, _ in units) / 1e3
        goodput = ratio(sum(1 for m, o in units if o and m <= limit),
                        corpus_s)
        p50 = median(ms)
        t, q, n = tail(ms)
        raw, _ = compile_samples(phase, raw=True)
        refs = [r for p in phase["passes"] for r in p["ref_ms"]]
        rss = doc["peak_rss_kb"] / 1024.0
        extra.update(corpus_compile_s=(corpus_s, "s"),
                     compile_p50_ms=(p50, "ms"), compile_tail_ms=(t, "ms"),
                     raw_compile_p50_ms=(median(raw), "ms"),
                     raw_compile_tail_ms=(tail(raw)[0], "ms"),
                     host_reference_ms=(median(refs), "ms"))
        if workload == "paper_kernels":
            _, sp1, sp2 = runtime_medians(doc)
            extra.update(run_speedup_1t=(sp1, "x"), run_speedup_2t=(sp2, "x"))
    setup_s = median([s * host_scale(r) for s, r in
                      zip(doc["setup_s"], doc["setup_ref_ms"])])
    extra["raw_setup_s"] = (median(doc["setup_s"]), "s")
    extra["setup_reference_ms"] = (
        median([x for r in doc["setup_ref_ms"] for x in r]), "ms")
    metrics = {
        "setup_s": (setup_s, "s"),
        "request_p50_ms": (p50, "ms"),
        "request_tail_ms": (t, "ms"),
        "goodput_rps": (goodput, "req/s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    extra["peak_rss_mb"] = metrics["peak_rss_mb"]
    extra["setup_s"] = metrics["setup_s"]
    return metrics, extra, {"percentile": q, "samples": n}


def plutod_log(path):
    """name -> server latency_ms of plutod's per-request log lines."""
    out = {}
    if not path or not os.path.exists(path):
        return out
    with open(path) as f:
        for line in f:
            if line.startswith("{"):
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue
                out[rec.get("name")] = rec.get("latency_ms")
    return out


def per_layer(doc, workload):
    """Every per_layer metric of BENCHMARK.json; 0 for a layer the
    workload does not exercise."""
    m = {}
    spans = doc.get("spans", {})

    def self_ms(name, units):
        return ratio(spans.get(name, {}).get("self_us", 0.0), units) / 1e3

    counts = {}
    layer_ms = {}
    emitted_bytes = 0.0
    overhead = 0.0
    remainder = 0.0
    if workload == "serve_mixed":
        untraced, traced = doc["serve"][0], doc["serve"][-1]
        md = traced.get("metrics") or {}
        cache = md.get("cache", {})
        cold = cache.get("misses", 0)
        passes = md.get("passes", {})
        sec = {k: v.get("seconds", 0.0) for k, v in passes.items()}
        layer_ms = {
            "parser.ms": ratio(sec.get("parse", 0), cold) * 1e3,
            "deps.ms": ratio(sec.get("deps", 0), cold) * 1e3,
            "transform.ms": ratio(sec.get("schedule", 0), cold) * 1e3,
            "codegen.lower_ms": ratio(
                sec.get("tile", 0) + sec.get("codegen", 0), cold) * 1e3,
            "codegen.emit_ms": 0.0,
        }
        counts = md.get("counters", {})
        emitted_bytes = traced.get("cold_bytes", 0.0)
        lat = traced["lat_ms"]
        hits = [l for l, c in zip(lat, traced["cold"]) if not c]
        misses = [l for l, c in zip(lat, traced["cold"]) if c]
        log = plutod_log(traced.get("log"))
        first = traced["first"]
        server = [log.get("r%d" % (first + i)) for i in range(len(lat))]
        wire = [r - s for r, s in zip(traced["rtt_ms"], server)
                if s is not None]
        server = [s for s in server if s is not None]
        m.update({
            "service.cache_hit_ratio": ratio(
                cache.get("hits", 0), cache.get("hits", 0) + cold),
            "service.hit_p50_us": median(hits) * 1e3,
            "service.miss_p50_ms": median(misses),
            "serve.server_ms_p50": median(server),
            "serve.server_ms_p99": tail(server)[0],
            "serve.wire_ms_p50": median(wire),
            "serve.overloaded": md.get("server", {}).get("rejected_overload",
                                                         0),
            "loadgen.lag_p99_ms": tail(traced["lag_ms"])[0],
            "loadgen.sent": len(lat),
        })
        overhead = ratio(median(lat), median(untraced["lat_ms"])) - 1.0
    else:
        untraced, traced = compile_phases(doc)
        units = spans.get("unit", {}).get("count", 0)
        layer_ms = {
            "parser.ms": self_ms("parsed", units),
            "deps.ms": self_ms("dependences", units),
            "transform.ms": self_ms("scheduled", units),
            "codegen.lower_ms": self_ms("lowered", units),
            "codegen.emit_ms": self_ms("emitted", units),
        }
        remainder = self_ms("unit", units)
        counts = doc.get("counts", {})
        emitted_bytes = traced["passes"][0]["bytes"]
        overhead = ratio(sum(m for m, _ in unit_medians(traced).values()),
                         sum(m for m, _ in unit_medians(untraced).values())) \
            - 1.0
    m.update(layer_ms)
    for name, counter in COUNTERS.items():
        m[name] = counts.get(counter, 0)
    m["codegen.emitted_bytes"] = emitted_bytes
    m["transform.fastpath_hit_ratio"] = ratio(
        counts.get("schedule_fastpath_hits", 0),
        counts.get("schedule_fastpath_hits", 0)
        + counts.get("schedule_fastpath_fallbacks", 0))
    gen = counts.get("fm_rows_generated", 0)
    m["poly.fm_useful_ratio"] = (1.0 - ratio(counts.get("fm_rows_pruned", 0),
                                             gen)) if gen else 0.0
    m["stage.remainder_ms"] = remainder
    m["trace.overhead"] = overhead
    rt, sp1, sp2 = runtime_medians(doc)
    for k in KERNELS:
        for v in ("original_ms", "emitted_1t_ms", "emitted_2t_ms"):
            m["runtime.%s.%s" % (k, v)] = rt.get("%s.%s" % (k, v), 0.0)
    m["runtime.speedup_1t"] = sp1
    m["runtime.speedup_2t"] = sp2
    for name in ("service.cache_hit_ratio", "service.hit_p50_us",
                 "service.miss_p50_ms", "serve.server_ms_p50",
                 "serve.server_ms_p99", "serve.wire_ms_p50",
                 "serve.overloaded", "loadgen.lag_p99_ms", "loadgen.sent"):
        m.setdefault(name, 0)
    return m


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    units = {x["name"]: x["unit"] for x in b["end_to_end"] + b["per_layer"]}
    return b, units


def self_check(args, out):
    """Two traced runs with one seed must see the same inputs and the same
    deterministic counts."""
    runs = [measure(args.workload, args.seed, args.seconds, 1, out)
            for _ in range(2)]
    a, b = [per_layer(d, args.workload) for d in runs]
    bad = [k for k in DETERMINISTIC if a[k] != b[k]]
    if runs[0]["input_digest"] != runs[1]["input_digest"]:
        bad.append("input_digest")
    for k in DETERMINISTIC:
        print("%-26s %14s %14s %s" % (k, a[k], b[k],
                                      "" if a[k] == b[k] else "DIFFERS"))
    print("input_digest %s %s" % (runs[0]["input_digest"],
                                  runs[1]["input_digest"]))
    print("self-check:", "ok" if not bad else "FAILED: " + ", ".join(bad))
    return 0 if not bad else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                  "results"))
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")
    check_tree()
    out = os.path.abspath(args.out)
    build()
    if args.self_check:
        return self_check(args, out)

    doc = measure(args.workload, args.seed, args.seconds, args.trace, out)
    bench, units = declared()
    failures = doc["failures"]
    attempted = max(1, doc["attempted"])
    failed = doc["failed"]
    if failed:
        # A failed set-up can leave a phase without samples; the run is
        # incorrect either way, so report the failures and stop.
        try:
            (per_layer if args.trace else end_to_end)(doc, args.workload)
        except (KeyError, IndexError, StopIteration, ZeroDivisionError):
            for f in failures:
                print("  FAILED: " + f)
            names = [x["name"] for x in bench["per_layer" if args.trace
                                               else "end_to_end"]]
            print(json.dumps({"correct": False, "attempted": attempted,
                              "failed": failed,
                              "metrics": {n: {"value": 0, "unit": units[n]}
                                          for n in names}}))
            return 1
    result = {"provenance": provenance(doc, args), "correct": failed == 0,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "failures": failures,
              "setup_s_samples": doc["setup_s"],
              "setup_reference_ms_samples": doc["setup_ref_ms"]}
    print("workload %s  seed %d  %gs  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    if args.trace:
        names = [x["name"] for x in bench["per_layer"]]
        values = per_layer(doc, args.workload)
        metrics = {n: values[n] for n in names}
        result["per_layer"] = metrics
        result["spans"] = doc["spans"]
        result["counts"] = doc.get("counts", {})
        result["trace_file"] = doc.get("trace_file")
        for n in names:
            print("  %-34s %14.6g %s" % (n, metrics[n], units[n]))
    else:
        e2e, extra, tail_info = end_to_end(doc, args.workload)
        names = [x["name"] for x in bench["end_to_end"]]
        metrics = {n: e2e[n][0] for n in names}
        result["end_to_end"] = metrics
        result["workload_metrics"] = {k: v[0] for k, v in extra.items()}
        result["tail"] = tail_info
        for k, (v, u) in sorted(extra.items()):
            print("  %-34s %14.6g %s" % (k, v, u))
        print("  %-34s %14.6g fraction" % ("error_rate", result["error_rate"]))
        print("  (tail = p%g of %d samples)" % (tail_info["percentile"],
                                               tail_info["samples"]))
    for f in failures:
        print("  FAILED: " + f)
    path = os.path.join(out, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print("  result file: " + os.path.relpath(path, ROOT))
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]}
                        for n in names}}
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
