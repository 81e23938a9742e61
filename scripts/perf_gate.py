#!/usr/bin/env python3
"""CI perf gates over one google-benchmark JSON file from bench_micro.

Every gate compares two arms of bench/bench_micro.cc, each taken as the
best of its repetitions (the highest items/s, or the lowest real time);
runs with `error_occurred` never count, since SkipWithError still emits
an entry with a near-zero time. Gates, at the arms and thresholds CI
holds the code to:

  rr      RR sampling at 4 threads >= 2.0x the 1-thread throughput
  store   mmap open of the Orkut-like .cwg >= 10x regenerating it
  batch   16 candidates per world build >= 3.0x the per-candidate rate
          of batch 1
  trace   a trace site with no recorder installed <= 2% slower than no
          site at all (the enabled-recorder arm is printed, not gated)
  delta   absorbing a 10-edit delta incrementally >= 10x a full rebuild
          and resample (subcritical IC fixture; docs/dynamic-graphs.md)

Every gate is evaluated and printed. Exits 1 if any gate fails or any
arm is missing from the input.

Usage:
  perf_gate.py perf_bench.json
"""
import json
import sys

_NS_PER_UNIT = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}


class MissingArm(Exception):
    pass


def _runs(benchmarks, name):
    runs = [bench for bench in benchmarks
            if bench.get("name") == name
            and bench.get("run_type", "iteration") == "iteration"
            and not bench.get("error_occurred", False)]
    if not runs:
        raise MissingArm(f"benchmark '{name}' not found in the JSON input")
    return runs


def best_rate(benchmarks, name):
    """Best items/s across repetitions of `name`."""
    return max(float(run["items_per_second"])
               for run in _runs(benchmarks, name))


def best_time(benchmarks, name):
    """Best (lowest) real time across repetitions of `name`, in ns."""
    return min(float(run["real_time"]) *
               _NS_PER_UNIT.get(run.get("time_unit", "ns"), 1)
               for run in _runs(benchmarks, name))


def rate_speedup(arm, base):
    return arm / base if base > 0 else 0.0


def time_speedup(arm, base):
    return base / arm if arm > 0 else float("inf")


def overhead(arm, base):
    return base / arm - 1.0 if arm > 0 else float("inf")


# Each gate: how its arms are measured, the gated arm and its baseline,
# how the two combine into the gated value, which side of the threshold
# passes, and the report lines. The lines format the measured `arm` and
# `base` (ms for time gates), `value`, `gate` and any `context` arms.
GATES = [
    {
        "name": "rr", "measure": best_rate,
        "arm": "BM_RrPipelineSampling/4/real_time",
        "base": "BM_RrPipelineSampling/1/real_time",
        "value": rate_speedup, "gate": 2.0, "passes": "at_least",
        "line": "RR sampling throughput: 1 thread = {base:,.0f} sets/s, "
                "4 threads = {arm:,.0f} sets/s "
                "(speedup {value:.2f}x, gate {gate:.2f}x)",
        "fail": "4-thread throughput is only {value:.2f}x the "
                "single-thread baseline (needs >= {gate:.2f}x)",
    },
    {
        "name": "store", "measure": best_time,
        "arm": "BM_GraphStoreOpenOrkutLike",
        "base": "BM_GraphBuildOrkutLike",
        "value": time_speedup, "gate": 10.0, "passes": "at_least",
        "line": "Graph availability: regenerate = {base:,.2f} ms, "
                "store open = {arm:,.3f} ms "
                "(speedup {value:.1f}x, gate {gate:.1f}x)",
        "fail": "the binary store open is only {value:.1f}x faster than "
                "regeneration (needs >= {gate:.1f}x)",
    },
    {
        "name": "batch", "measure": best_rate,
        "arm": "BM_WelfareBatch/16/real_time",
        "base": "BM_WelfareBatch/1/real_time",
        "value": rate_speedup, "gate": 3.0, "passes": "at_least",
        "line": "Welfare estimation throughput: batch 1 = {base:,.0f} "
                "candidates/s, batch 16 = {arm:,.0f} candidates/s "
                "(per-candidate speedup {value:.2f}x, gate {gate:.2f}x)",
        "fail": "batch-16 per-candidate throughput is only {value:.2f}x "
                "the batch-1 baseline (needs >= {gate:.2f}x)",
    },
    {
        "name": "trace", "measure": best_rate,
        "arm": "BM_TraceOverhead/0/real_time",
        "base": "BM_TraceOverhead/2/real_time",
        "context": {"enabled": "BM_TraceOverhead/1/real_time"},
        "value": overhead, "gate": 0.02, "passes": "at_most",
        "line": "Trace overhead: baseline = {base:,.0f} units/s, "
                "disabled-tracing = {arm:,.0f} units/s "
                "(overhead {value:.2%}, gate {gate:.2%}), "
                "enabled-tracing = {enabled:,.0f} units/s (not gated)",
        "fail": "disabled tracing costs {value:.2%} "
                "(needs <= {gate:.2%})",
    },
    {
        "name": "delta", "measure": best_time,
        "arm": "BM_ApplyDeltaIncremental/10",
        "base": "BM_ApplyDeltaFullRebuild/10",
        "value": time_speedup, "gate": 10.0, "passes": "at_least",
        "line": "Delta absorption at 10 edits: full rebuild+resample = "
                "{base:,.2f} ms, incremental = {arm:,.2f} ms "
                "(speedup {value:.1f}x, gate {gate:.1f}x)",
        "fail": "incremental delta application is only {value:.1f}x "
                "faster than a full rebuild (needs >= {gate:.1f}x)",
    },
]


def run_gate(gate, benchmarks):
    """Prints the gate's report; returns True when it passes."""
    measure = gate["measure"]
    try:
        arm = measure(benchmarks, gate["arm"])
        base = measure(benchmarks, gate["base"])
        context = {key: measure(benchmarks, name)
                   for key, name in gate.get("context", {}).items()}
    except MissingArm as missing:
        print(f"FAIL ({gate['name']}): {missing}", file=sys.stderr)
        return False
    value = gate["value"](arm, base)
    scale = 1e6 if measure is best_time else 1.0  # time gates print ms
    fields = dict(context, arm=arm / scale, base=base / scale, value=value,
                  gate=gate["gate"])
    print(gate["line"].format(**fields))
    if gate["passes"] == "at_least":
        passed = value >= gate["gate"]
    else:
        passed = value <= gate["gate"]
    if passed:
        print("PASS")
    else:
        print("FAIL: " + gate["fail"].format(**fields), file=sys.stderr)
    return passed


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as fh:
        benchmarks = json.load(fh).get("benchmarks", [])
    results = [run_gate(gate, benchmarks) for gate in GATES]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
