#!/usr/bin/env python3
"""The CWelMax end-to-end benchmark: builds, runs, checks and reports.

Run from anywhere inside a checkout (paths resolve from this file):

  python3 bench/e2e/run.py --workload W [--seed S] [--trace 0|1]
  python3 bench/e2e/run.py --workload W --repeat 10 --out A.json  # a set
  python3 bench/e2e/run.py --compare A.json B.json    # verdict per metric
  python3 bench/e2e/run.py --regen-expected           # rewrite expected/

The first run configures and builds `cwm_bench` (bench/e2e/CMakeLists.txt)
into build-bench/e2e at the repository root; later runs rebuild only what
changed. Each run is its own `cwm_bench` process, so peak RSS is per
workload, and lasts BENCHMARK.json's run_seconds. A run prints every
metric with its unit, then, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end ones, with --trace 1 its per_layer ones.
With --repeat the last line covers every run: counts add up and each
metric is its median. A failed output check prints correct=false and
exits 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / "build-bench"
BUILD = SCRATCH / "e2e"
BINARY = BUILD / "cwm_bench"
EXPECTED = HERE / "expected"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SWEEPS = ("fig3-sweep", "fig6d-cold-rr")
# Algorithms of Fig 3, whose allocation-time shares give its ordering.
FIG3_ALGOS = ("SeqGRD-NM", "TCIM", "MaxGRD", "SeqGRD", "Balance-C",
              "greedyWM")
# A run that takes longer than this is hung.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds cwm_bench (a no-op when up to date); cmake's
    output goes to stderr so stdout's last line stays the result."""
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "--target", "cwm_bench",
                 "-j", BUILD_JOBS]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit("cwm_bench failed to build")


def harness(workload, seed, seconds, trace, rows=None):
    """Runs one cwm_bench process; returns its raw measurement object."""
    work = SCRATCH / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work)]
    if rows is not None:
        cmd += ["--rows", str(rows)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"cwm_bench {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    latency = raw["latency_ms"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "wall_s": statistics.median(raw["unit_wall_s"]),
        "cpu_s": statistics.median(raw["unit_cpu_s"]),
        "peak_rss_mb": statistics.median(raw["unit_peak_rss_mb"]),
        "p50_ms": statistics.median(latency),
        "p75_ms": statistics.quantiles(latency, n=4, method="inclusive")[2],
    }


def layer_of(span):
    """The layer a span's self time belongs to (its name prefix)."""
    if span == "api.apply_delta":
        return "delta"
    return span.split(".", 1)[0]


def per_layer(raw):
    trace = raw["trace"]
    setup = trace["setup"]["spans"]
    timed = trace["timed"]["spans"]
    algos = trace["timed"]["algo_allocate_s"]
    units = trace["units"]
    counters = raw["counters"]

    def self_s(spans, *names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def per_unit(value):
        return ratio(value, units)

    def counter(name):
        return ratio(counters.get(name, 0), raw["units"])

    sampled = timed.get("rr.sample_era", {}).get("count", 0.0)
    busy = {}
    for name, span in timed.items():
        if not name.startswith("bench."):
            layer = layer_of(name)
            busy[layer] = busy.get(layer, 0.0) + span["self_s"]
    busy_total = sum(busy.values())
    allocate_total = sum(algos.values())
    untraced = statistics.median(raw["unit_wall_s"])
    traced = statistics.median(trace["traced_wall_s"])
    values = {
        "store.build_graph_s": ratio(self_s(setup, "store.build_graph"),
                                     trace["setups"]),
        "store.open_graph_s": statistics.median(raw["open_graph_s"]),
        "store.rr_io_s": per_unit(self_s(timed, "store.store_rr",
                                         "store.load_rr")),
        "cache.bytes_written": counter("cache.bytes_written"),
        "cache.rr_hit_ratio": ratio(
            counters.get("cache.rr_hits", 0),
            counters.get("cache.rr_hits", 0) +
            counters.get("cache.rr_misses", 0)),
        "rr.sample_s": per_unit(self_s(timed, "rr.sample_era",
                                       "rr.serve_cache")),
        "rr.sets_sampled": per_unit(sampled),
        "rr.sets_per_s": ratio(sampled, self_s(timed, "rr.sample_era")),
        "rr.select_nodes_s": per_unit(self_s(timed, "rr.select_nodes")),
        "simulate.pool_frac": ratio(
            self_s(timed, "simulate.materialize_pool", "simulate.patch_pool",
                   "simulate.pack_worlds"),
            busy.get("simulate", 0.0)),
        "simulate.estimate_s": per_unit(self_s(
            timed, "simulate.stats_batch", "simulate.marginal_batch",
            "simulate.exposure_batch", "simulate.stats",
            "simulate.marginal", "simulate.exposure", "simulate.spread")),
        "simulate.worlds_materialized": per_unit(
            timed.get("simulate.materialize_pool", {}).get("worlds", 0.0)),
        "simulate.packed_worlds": counter("simulate.packed_worlds"),
        "simulate.packed_fallback": counter("simulate.packed_fallback"),
        "simulate.stream_fallback_worlds":
            counter("simulate.stream_fallback_worlds"),
        "pool.reuse_ratio": ratio(
            counters.get("pool.reuses", 0),
            counters.get("pool.reuses", 0) + counters.get("pool.builds", 0)),
        "pool.evictions": counter("pool.evictions"),
        "pool.patches": counter("pool.patches"),
        "api.allocate_s": per_unit(allocate_total),
        "api.evaluate_s": per_unit(
            timed.get("api.evaluate", {}).get("total_s", 0.0)),
        "idle_frac": trace["idle_frac"],
        "delta.eras_patched": counter("delta.eras_patched"),
        "serve.rejected": counters.get("serve.rejected", 0),
        "serve.errors": counters.get("serve.errors", 0),
        "obs.trace_overhead": ratio(traced, untraced) - 1.0,
    }
    for layer in ("rr", "simulate", "store", "api", "scenario", "serve",
                  "delta"):
        values[f"share.{layer}"] = ratio(busy.get(layer, 0.0), busy_total)
    for algo in FIG3_ALGOS:
        values[f"algo.{algo}.share"] = ratio(algos.get(algo, 0.0),
                                             allocate_total)
    # Measured by the harness on the one workload that has the layer.
    for name in ("delta.apply_frac", "delta.set_reuse_ratio",
                 "heap_mb_per_delta", "serve.wait_share",
                 "serve.backlog_ratio", "serve.late_sends"):
        values[name] = raw["layer"].get(name, 0.0)
    return values


def compare_rows(workload, rows_path):
    """Rows of the default seed against expected/<workload>.jsonl: welfare
    and adopter counts within relative 1e-9, everything else exact.
    Returns the number of mismatched rows."""
    expected_path = EXPECTED / f"{workload}.ndjson"
    got = [json.loads(line) for line in rows_path.read_text().splitlines()]
    want = [json.loads(line)
            for line in expected_path.read_text().splitlines()]
    if len(got) != len(want):
        log(f"{workload}: {len(got)} rows, expected {len(want)}")
        return max(len(got), len(want))

    def close(a, b):
        return abs(a - b) <= 1e-9 * max(abs(a), abs(b))

    def same(a, b):
        if isinstance(a, float) or isinstance(b, float):
            return close(float(a), float(b))
        if isinstance(a, list) and isinstance(b, list):
            return len(a) == len(b) and all(map(same, a, b))
        if isinstance(a, dict) and isinstance(b, dict):
            return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
        return a == b

    bad = [i for i, (g, w) in enumerate(zip(got, want)) if not same(g, w)]
    for i in bad[:3]:
        log(f"{workload}: row {i} differs from expected:\n  got  {got[i]}"
            f"\n  want {want[i]}")
    return len(bad)


def run_once(workload, seed, trace):
    """One benchmark run; returns the object of its last output line."""
    rows = None
    if workload in SWEEPS and seed == 1:
        rows = SCRATCH / f"rows-{workload}-{os.getpid()}.ndjson"
    try:
        raw = harness(workload, seed, SPEC["run_seconds"], trace, rows)
        failed = int(raw["failed"])
        correct = all(raw["checks"].values())
        if rows is not None:
            mismatched = compare_rows(workload, rows)
            failed += mismatched
            correct = correct and mismatched == 0
    finally:
        if rows is not None:
            rows.unlink(missing_ok=True)
    group = "per_layer" if trace else "end_to_end"
    values = per_layer(raw) if trace else end_to_end(raw)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC[group]}
    return {"correct": correct, "attempted": int(raw["attempted"]),
            "failed": failed, "metrics": metrics}


def print_result(workload, seed, result):
    print(f"== {workload} (seed {seed}): correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")


def regen_expected():
    EXPECTED.mkdir(exist_ok=True)
    for workload in SWEEPS:
        rows = EXPECTED / f"{workload}.ndjson"
        raw = harness(workload, 1, 1, 0, rows)
        if not all(raw["checks"].values()):
            raise SystemExit(f"{workload}: output checks failed")
        log(f"wrote {rows}")


def quartiles(values):
    """First and third quartile (statistics.quantiles, n=4)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def compare(path_a, path_b):
    """Per workload and end-to-end metric: medians, quartiles, verdict."""
    a_runs = json.loads(Path(path_a).read_text())
    b_runs = json.loads(Path(path_b).read_text())
    regressed = False
    print(f"{'workload':14s} {'metric':12s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for workload in WORKLOADS:
        if workload not in a_runs or workload not in b_runs:
            continue
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in a_runs[workload]]
            b = [r["metrics"][name]["value"] for r in b_runs[workload]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            a_med, b_med = statistics.median(a), statistics.median(b)
            # Positive change = worse, as a share of A's median.
            change = sign * ratio(b_med - a_med, a_med)
            spread = max(ratio(quartiles(v)[1] - quartiles(v)[0],
                               statistics.median(v)) for v in (a, b))
            all_better = all(sign * (y - x) < 0 for x in a for y in b)
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "regressed"
                regressed = True
            elif change < -bound or all_better:
                verdict = "improved"
            else:
                verdict = "unchanged"

            def cell(v, med):
                q1, q3 = quartiles(v)
                return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
            print(f"{workload:14s} {name:12s} {cell(a, a_med):>30s} "
                  f"{cell(b, b_med):>30s} {change:>+8.1%} {spread:>7.1%} "
                  f"{bound:>6.0%}  {verdict}")
    return 1 if regressed else 0


def summary(results):
    """One result for a workload's runs: correct when every run is, counts
    added up, each metric its median (a single run's own result)."""
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": statistics.median(
                       r["metrics"][name]["value"] for r in results),
                   "unit": metric["unit"]}
            for name, metric in results[0]["metrics"].items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    # Part of the benchmark's command line. Every run lasts run_seconds,
    # so a recorded set cannot differ in run length from its baseline.
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"],
                        help="must equal BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs, seeds seed, seed+1, ...")
    parser.add_argument("--out",
                        help="store the runs as this file's entry for "
                             "the workload ({workload: [results]})")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.seconds != SPEC["run_seconds"]:
        parser.error(f"--seconds must be {SPEC['run_seconds']}")
    if not args.regen_expected and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.regen_expected:
        regen_expected()
        return 0

    results = []
    for i in range(args.repeat):
        seed = args.seed + i
        results.append(run_once(args.workload, seed, args.trace))
        print_result(args.workload, seed, results[-1])
    if args.out:
        out = Path(args.out)
        sets = json.loads(out.read_text()) if out.exists() else {}
        sets[args.workload] = results
        out.write_text(json.dumps(sets, indent=1) + "\n")
    result = summary(results)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
