// cwm_run — scenario-engine CLI.
//
//   cwm_run --list                      enumerate registered scenarios
//   cwm_run --describe <scenario>      print a scenario's spec as JSON
//   cwm_run --describe algos           print the allocator registry
//                                      (names + capabilities)
//   cwm_run <scenario>... [options]    run scenarios
//
// Options:
//   --out FILE        write JSON-Lines results (FILE '-' = stdout)
//   --csv FILE        write CSV results
//   --algos CSV       run only these algorithms (registry names, e.g.
//                     "SeqGRD,MaxGRD"): each named scenario's algorithm
//                     axis is filtered to the requested subset; unknown
//                     names list the registry
//   --threads N       task-level parallelism (0 = hardware concurrency)
//   --cache-dir DIR   artifact cache (CWM_CACHE_DIR): graphs and RR
//                     collections are mmap-served from DIR when their
//                     build recipe matches, and stored there on miss.
//                     Bit-identical results either way; hit/miss stats
//                     print to stderr after each sweep.
//   --rr-threads N    RR-set sampling threads per task (default 1; any
//                     value yields bit-identical results — the sampler
//                     derives one RNG stream per sample index). Two-level
//                     budget: threads x rr-threads workers may be live at
//                     once; keep the product within the core count.
//   --inner-threads N Monte-Carlo threads per task (default 1; >1 trades
//                     reproducibility across settings for speed)
//   --sims N          estimator worlds for specs that don't pin them
//   --eval-sims N     evaluation worlds for specs that don't pin them
//   --scale X         node-count multiplier for scalable networks
//   --seed S          override the spec's sweep seeds with {S}
//   --snapshot-budget-mb N
//                     per-estimator memory budget for materialized world
//                     snapshots backing batched welfare evaluation
//                     (default 256; 0 streams every world lazily).
//                     Bit-identical results at any value.
//   --shard I/N       run only grid cells with task index ≡ I (mod N), for
//                     multi-process sweeps (I in [0, N)). Every emitted
//                     row is bit-identical to the same row of an
//                     unsharded run; scripts/merge_artifacts.py
//                     interleaves the N shard files back into the exact
//                     single-process artifact.
//   --slow            run greedyWM/Balance-C on every cell (CWM_GREEDY=1)
//   --timing          include wall-clock timing (seconds + the sample_s/
//                     select_s/estimate_s phase breakdown) in --out/--csv
//                     records (off by default so artifacts are
//                     bit-reproducible)
//   --trace FILE      record spans from every instrumented layer and
//                     write Chrome trace-event JSON to FILE (load in
//                     chrome://tracing or https://ui.perfetto.dev).
//                     Observation only: results are bit-identical with
//                     and without it.
//   --metrics FILE    write the unified metrics registry (cache/pool/API
//                     counters, task-seconds histogram) as JSON to FILE
//   --quiet           suppress the progress table on stdout
//
// Environment knobs (CWM_SIMS, CWM_EVAL_SIMS, CWM_BENCH_SCALE, CWM_GREEDY,
// CWM_THREADS, CWM_INNER_THREADS, CWM_RR_THREADS, CWM_SNAPSHOT_BUDGET_MB)
// provide defaults; flags win.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "scenario/sink.h"
#include "scenario/sweep.h"
#include "support/failpoint.h"

namespace {

using namespace cwm;

int Usage(const char* argv0, int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: %s --list\n"
               "       %s --list-failpoints\n"
               "       %s --describe <scenario>|algos\n"
               "       %s <scenario>... [--out FILE] [--csv FILE]\n"
               "         [--algos CSV] [--threads N] [--rr-threads N]\n"
               "         [--inner-threads N]\n"
               "         [--sims N] [--eval-sims N] [--scale X] [--seed S]\n"
               "         [--snapshot-budget-mb N]\n"
               "         [--cache-dir DIR] [--shard I/N] [--slow]\n"
               "         [--timing] [--quiet]\n"
               "         [--trace FILE.json] [--metrics FILE.json]\n",
               argv0, argv0, argv0, argv0);
  return code;
}

/// The allocator registry as a table — the source of truth for algorithm
/// names and capabilities (replaces the hand-maintained enum comments).
void DescribeAlgorithms() {
  const AllocatorRegistry& registry = GlobalAllocatorRegistry();
  std::printf("%zu registered allocators:\n\n", registry.All().size());
  std::printf("  %-12s %s\n", "name", "capabilities");
  for (const Allocator* allocator : registry.All()) {
    const AllocatorCapabilities caps = allocator->Capabilities();
    std::string notes;
    if (caps.slow) notes += " slow(gated)";
    if (caps.two_items_only) notes += " two-items-only";
    if (caps.needs_superior_item) notes += " needs-superior-item";
    if (caps.uses_shared_ranking) notes += " shared-ranking";
    if (notes.empty()) notes = " -";
    std::printf("  %-12s%s\n", allocator->Name(), notes.c_str());
  }
}

/// Parses --algos into kinds; exits with the registry listing on unknown
/// names.
std::vector<AlgoKind> ParseAlgosFilter(const std::string& csv) {
  std::vector<AlgoKind> kinds;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string name = csv.substr(start, comma - start);
    start = comma + 1;
    if (name.empty()) continue;
    const std::optional<AlgoKind> kind = ParseAlgo(name);
    if (!kind.has_value()) {
      std::string known;
      for (const std::string& n : GlobalAllocatorRegistry().Names()) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      std::fprintf(stderr, "--algos: unknown algorithm '%s'; registry: %s\n",
                   name.c_str(), known.c_str());
      std::exit(2);
    }
    kinds.push_back(*kind);
  }
  if (kinds.empty()) {
    std::fprintf(stderr, "--algos: no algorithm named\n");
    std::exit(2);
  }
  return kinds;
}

void ListScenarios() {
  const ScenarioRegistry& registry = GlobalScenarioRegistry();
  std::printf("%zu registered scenarios:\n\n", registry.All().size());
  for (const ScenarioSpec& spec : registry.All()) {
    const std::size_t rows = ExpandGrid(spec, false).size();
    std::printf("  %-22s %s\n", spec.name.c_str(), spec.title.c_str());
    std::printf("  %-22s   %s; %zu networks x %zu configs x %zu budgets "
                "x %zu seeds x %zu algos = %zu rows\n",
                "",
                spec.paper_ref.empty() ? "beyond paper"
                                       : spec.paper_ref.c_str(),
                spec.networks.size(), spec.configs.size(),
                spec.budget_points.size(), spec.seeds.size(),
                spec.algorithms.size(), rows);
  }
}

/// The registry counters behind the per-sweep `cache:` and `pools:`
/// stderr lines.
constexpr const char* kSweepCounters[] = {
    "cache.graph_hits", "cache.graph_misses", "cache.rr_hits",
    "cache.rr_misses",  "pool.builds",        "pool.reuses",
    "pool.evictions"};

bool ParseValue(int argc, char** argv, int* i, const char* flag,
                std::string* out) {
  if (std::strcmp(argv[*i], flag) != 0) return false;
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "%s requires a value\n", flag);
    std::exit(2);
  }
  *out = argv[++*i];
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0], 2);

  std::vector<std::string> scenario_names;
  std::string out_path, csv_path, trace_path, metrics_path, value;
  bool list = false, list_failpoints = false, quiet = false, timing = false;
  std::string describe, algos_csv;
  SweepOptions options = EnvSweepOptions();
  uint64_t seed_override = 0;
  bool has_seed_override = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Usage(argv[0], 0);
    if (arg == "--list") { list = true; continue; }
    if (arg == "--list-failpoints") { list_failpoints = true; continue; }
    if (ParseValue(argc, argv, &i, "--describe", &describe)) continue;
    if (ParseValue(argc, argv, &i, "--out", &out_path)) continue;
    if (ParseValue(argc, argv, &i, "--csv", &csv_path)) continue;
    if (ParseValue(argc, argv, &i, "--algos", &algos_csv)) continue;
    if (ParseValue(argc, argv, &i, "--threads", &value)) {
      options.num_threads = static_cast<unsigned>(std::atoi(value.c_str()));
      continue;
    }
    if (ParseValue(argc, argv, &i, "--rr-threads", &value)) {
      options.rr_threads =
          static_cast<unsigned>(std::max(1, std::atoi(value.c_str())));
      continue;
    }
    if (ParseValue(argc, argv, &i, "--inner-threads", &value)) {
      options.inner_threads =
          static_cast<unsigned>(std::max(1, std::atoi(value.c_str())));
      continue;
    }
    if (ParseValue(argc, argv, &i, "--sims", &value)) {
      options.default_sims = std::max(1, std::atoi(value.c_str()));
      continue;
    }
    if (ParseValue(argc, argv, &i, "--eval-sims", &value)) {
      options.default_eval_sims = std::max(1, std::atoi(value.c_str()));
      continue;
    }
    if (ParseValue(argc, argv, &i, "--scale", &value)) {
      options.scale = std::atof(value.c_str());
      if (options.scale <= 0) {
        std::fprintf(stderr, "--scale must be positive\n");
        return 2;
      }
      continue;
    }
    if (ParseValue(argc, argv, &i, "--seed", &value)) {
      char* end = nullptr;
      seed_override = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "--seed requires an unsigned integer, got '%s'\n",
                     value.c_str());
        return 2;
      }
      has_seed_override = true;
      continue;
    }
    if (ParseValue(argc, argv, &i, "--snapshot-budget-mb", &value)) {
      options.snapshot_budget_bytes =
          static_cast<std::size_t>(
              std::max(0, std::atoi(value.c_str())))
          << 20;
      continue;
    }
    if (ParseValue(argc, argv, &i, "--cache-dir", &value)) {
      options.cache_dir = value;
      continue;
    }
    if (ParseValue(argc, argv, &i, "--shard", &value)) {
      char* end = nullptr;
      const unsigned long index = std::strtoul(value.c_str(), &end, 10);
      unsigned long count = 0;
      if (end != value.c_str() && *end == '/') {
        const char* rest = end + 1;
        count = std::strtoul(rest, &end, 10);
        if (end == rest) count = 0;
      }
      if (count == 0 || *end != '\0' || index >= count) {
        std::fprintf(stderr,
                     "--shard requires I/N with 0 <= I < N, got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.shard_index = static_cast<unsigned>(index);
      options.shard_count = static_cast<unsigned>(count);
      continue;
    }
    if (ParseValue(argc, argv, &i, "--trace", &trace_path)) continue;
    if (ParseValue(argc, argv, &i, "--metrics", &metrics_path)) continue;
    if (arg == "--slow") { options.run_slow_everywhere = true; continue; }
    if (arg == "--timing") { timing = true; continue; }
    if (arg == "--quiet") { quiet = true; continue; }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0], 2);
    }
    scenario_names.push_back(arg);
  }

  if (list) {
    ListScenarios();
    return 0;
  }

  if (list_failpoints) {
    // One name per line: scripts/check_fault_injection.py iterates this.
    for (const FailpointInfo& info : FailpointRegistry::Global().List()) {
      std::printf("%s\n", info.name.c_str());
    }
    return 0;
  }

  const ScenarioRegistry& registry = GlobalScenarioRegistry();

  if (!describe.empty()) {
    if (describe == "algos") {
      DescribeAlgorithms();
      return 0;
    }
    StatusOr<ScenarioSpec> spec = registry.Find(describe);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", SpecToJson(spec.value()).c_str());
    return 0;
  }

  if (scenario_names.empty()) {
    std::fprintf(stderr, "no scenario named; try --list\n");
    return 2;
  }

  // Resolve all names before running anything.
  std::vector<AlgoKind> algos_filter;
  if (!algos_csv.empty()) algos_filter = ParseAlgosFilter(algos_csv);
  std::vector<ScenarioSpec> specs;
  for (const std::string& name : scenario_names) {
    StatusOr<ScenarioSpec> spec = registry.Find(name);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    specs.push_back(std::move(spec).value());
    if (has_seed_override) specs.back().seeds = {seed_override};
    if (!algos_filter.empty()) {
      // Keep the spec's own order; run only the requested subset.
      std::vector<AlgoKind> kept;
      for (AlgoKind algo : specs.back().algorithms) {
        if (std::find(algos_filter.begin(), algos_filter.end(), algo) !=
            algos_filter.end()) {
          kept.push_back(algo);
        }
      }
      if (kept.empty()) {
        std::fprintf(stderr,
                     "--algos: no requested algorithm in scenario '%s'\n",
                     name.c_str());
        return 2;
      }
      specs.back().algorithms = std::move(kept);
    }
  }

  std::ofstream out_file, csv_file;
  const bool out_to_stdout = out_path == "-";
  if (!out_path.empty() && !out_to_stdout) {
    out_file.open(out_path);
    if (!out_file) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
  }
  if (!csv_path.empty()) {
    csv_file.open(csv_path);
    if (!csv_file) {
      std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
      return 1;
    }
  }

  const SinkOptions sink_options{.include_timing = timing};
  // The CSV header is written once, even when several scenarios stream
  // into the same file.
  if (csv_file.is_open()) csv_file << CsvHeader() << "\n";

  // Tracing spans every sweep of this invocation; the recorder flushes
  // once after the loop. Observation only — results are bit-identical
  // with or without it (the obs_test/golden gates enforce this).
  TraceRecorder recorder;
  if (!trace_path.empty()) recorder.Install();

  TablePrinter table(stdout);
  int failures = 0;
  for (ScenarioSpec& spec : specs) {
    if (!quiet) {
      std::printf("== %s  (%s)\n", spec.name.c_str(),
                  spec.paper_ref.empty() ? "beyond paper"
                                         : spec.paper_ref.c_str());
    }
    SweepOptions run_options = options;
    if (!quiet && !out_to_stdout) {
      run_options.on_result = [&table](const TaskResult& row) {
        table.Print(row);
      };
    }
    // Sweeps run one after another, so a counter's rise across RunSweep
    // is exactly this sweep's count.
    const MetricsRegistry& metrics = MetricsRegistry::Global();
    std::map<std::string_view, uint64_t> before;
    for (const char* name : kSweepCounters) {
      before[name] = metrics.CounterValue(name);
    }
    StatusOr<SweepResult> result = RunSweep(spec, run_options);
    const auto swept = [&](const char* name) {
      return metrics.CounterValue(name) - before[name];
    };
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   result.status().ToString().c_str());
      ++failures;
      continue;
    }
    if (!quiet) {
      std::printf("== %s: %zu rows in %.2fs\n\n", spec.name.c_str(),
                  result.value().rows.size(),
                  result.value().total_seconds);
    }
    if (result.value().cache_enabled) {
      // stderr, even under --quiet: CI's warm-cache smoke greps
      // "graphs hits=" / "rr hits=" out of this line (ci.yml), and it
      // must never contaminate --out - (JSONL on stdout). The formatter
      // keeps the key=value grammar that contract depends on.
      MetricsLineFormatter line;
      line.Count("graphs hits", swept("cache.graph_hits"))
          .Count("misses", swept("cache.graph_misses"))
          .Sep("; ")
          .Count("rr hits", swept("cache.rr_hits"))
          .Count("misses", swept("cache.rr_misses"));
      std::fprintf(stderr, "%s cache: %s\n", spec.name.c_str(),
                   line.str().c_str());
    }
    // Keyed snapshot-pool telemetry (stderr like the cache stats; reuses
    // count estimators served by an already materialized pool).
    if (swept("pool.builds") > 0 || swept("pool.reuses") > 0) {
      MetricsLineFormatter line;
      line.Count("built", swept("pool.builds"))
          .Count("reused", swept("pool.reuses"))
          .Count("evicted", swept("pool.evictions"));
      std::fprintf(stderr, "%s pools: %s\n", spec.name.c_str(),
                   line.str().c_str());
    }
    // Per-phase wall-time totals over the sweep's rows (only meaningful
    // per run, so stderr telemetry rather than an artifact column —
    // per-row values land in --out/--csv under --timing).
    {
      double sample = 0.0, select = 0.0, estimate = 0.0;
      for (const TaskResult& row : result.value().rows) {
        sample += row.sample_s;
        select += row.select_s;
        estimate += row.estimate_s;
      }
      if (sample + select + estimate > 0.0) {
        MetricsLineFormatter line;
        line.Fixed("sample", sample, 2, "s")
            .Fixed("select", select, 2, "s")
            .Fixed("estimate", estimate, 2, "s");
        std::fprintf(stderr, "%s phases: %s\n", spec.name.c_str(),
                     line.str().c_str());
      }
    }
    if (out_to_stdout) {
      WriteJsonLines(result.value(), std::cout, sink_options);
    } else if (out_file.is_open()) {
      WriteJsonLines(result.value(), out_file, sink_options);
    }
    if (csv_file.is_open()) {
      for (const TaskResult& row : result.value().rows) {
        csv_file << TaskResultToCsv(row, sink_options) << "\n";
      }
    }
  }

  if (!trace_path.empty()) {
    // Uninstall before flushing so no worker started by a failed sweep
    // can append mid-serialization.
    recorder.Uninstall();
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
      return 1;
    }
    recorder.WriteChromeJson(trace_file);
    std::fprintf(stderr, "trace: %zu events -> %s (chrome://tracing)\n",
                 recorder.snapshot_events().size(), trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream metrics_file(metrics_path);
    if (!metrics_file) {
      std::fprintf(stderr, "cannot open %s\n", metrics_path.c_str());
      return 1;
    }
    metrics_file << MetricsToJson(MetricsRegistry::Global().Snapshot())
                 << "\n";
    std::fprintf(stderr, "metrics: %s\n", metrics_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
