// Parallel sweep runtime for declarative scenarios.
//
// RunSweep expands a ScenarioSpec into its task grid and executes it over
// ParallelFor. Determinism: every task derives its RNG streams from
// (sweep seed, cell coordinates) via MixHash — never from thread identity
// — and results land in a pre-sized vector indexed by grid position, so a
// sweep's output is bit-identical at 1 thread and at DefaultThreads().
// Tasks start longest-first (slow allocators, larger graphs and budgets
// first; gated rows last), which changes only wall time and the order
// SweepOptions::on_result sees.
// Algorithms within one experiment cell (network, config, budget, seed)
// share one evaluation-world seed, so they are compared on the same
// possible worlds (the paper's protocol, §6.1.3).
//
// Monte-Carlo estimators are run with a *fixed* inner thread count
// (default 1) because the estimator's world-to-chunk assignment depends
// on its chunk count: raising SweepOptions::inner_threads is allowed but
// produces estimates comparable only to runs with the same setting.
//
// RR-set sampling inside each task is different: the pipeline derives one
// RNG stream per sample index (rrset/rr_pipeline.h), so
// SweepOptions::rr_threads scales the IMM-family algorithms without
// changing any result. Two-level budget: num_threads x rr_threads worker
// threads can be live at once — keep the product within the machine's
// core count (the engine does not clamp, so oversubscription is explicit).
#ifndef CWM_SCENARIO_SWEEP_H_
#define CWM_SCENARIO_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "simulate/world_pool.h"
#include "store/artifact_cache.h"
#include "support/status.h"

namespace cwm {

/// Execution knobs; env defaults via EnvSweepOptions().
struct SweepOptions {
  /// Threads across tasks (0 = DefaultThreads()). Does not affect results.
  unsigned num_threads = 0;
  /// Threads inside each Monte-Carlo estimate. Values > 1 change estimator
  /// chunking and therefore the sampled worlds; keep at 1 for
  /// reproducibility across machines and runs.
  unsigned inner_threads = 1;
  /// Threads inside each task's RR-set sampling (specs may pin their own
  /// via ScenarioSpec::rr_threads). Unlike inner_threads this never
  /// changes results — the pipeline is deterministic at any value.
  unsigned rr_threads = 1;
  /// Byte budget per estimator for materialized world snapshots backing
  /// the batched welfare evaluations (CWM_SNAPSHOT_BUDGET_MB, cwm_run
  /// --snapshot-budget-mb; 0 disables materialization). Never changes
  /// results — snapshot evaluation is bit-identical to streaming.
  std::size_t snapshot_budget_bytes = 256ull << 20;
  /// Estimator worlds when the spec leaves ScenarioSpec::sims == 0.
  int default_sims = 200;
  /// Evaluation worlds when the spec leaves eval_sims == 0.
  int default_eval_sims = 500;
  /// Multiplier on the node counts of the scalable network families
  /// (CWM_BENCH_SCALE semantics).
  double scale = 1.0;
  /// Artifact-cache directory ("" = disabled; CWM_CACHE_DIR). Graphs and
  /// cacheable RR collections are served from / stored into it. Never
  /// changes results: a hit is bit-identical to a rebuild, so artifacts
  /// from cold and warm runs compare equal.
  std::string cache_dir;
  /// Run greedyWM / Balance-C on every cell (CWM_GREEDY=1 semantics).
  bool run_slow_everywhere = false;
  /// Deterministic grid partition for multi-process sweeps (cwm_run
  /// --shard i/n): this process runs only the grid cells with
  /// task.index % shard_count == shard_index and emits only those rows,
  /// each bit-identical to the same row of an unsharded run (every task
  /// derives its streams from its grid coordinates, never from which
  /// process runs it). scripts/merge_artifacts.py interleaves shard
  /// artifacts by the rows' task field back into the exact byte sequence
  /// of the single-process output.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  /// Evaluate welfare batches with the word-parallel kernel
  /// (EstimatorOptions::packed_kernel; CWM_PACKED=0 / cwm_run --no-packed
  /// to disable). Never changes results — bit-identical to the scalar
  /// path — only wall time.
  bool packed_kernel = true;
  /// Progress callback, invoked in completion order from worker threads
  /// (serialize externally if needed). May be empty.
  std::function<void(const struct TaskResult&)> on_result;
};

/// SweepOptions populated from the CWM_SIMS / CWM_EVAL_SIMS /
/// CWM_BENCH_SCALE / CWM_GREEDY / CWM_THREADS / CWM_INNER_THREADS /
/// CWM_RR_THREADS / CWM_SNAPSHOT_BUDGET_MB / CWM_PACKED / CWM_CACHE_DIR
/// environment knobs.
SweepOptions EnvSweepOptions();

/// One executed (or skipped) grid cell.
struct TaskResult {
  std::size_t task_index = 0;  ///< position in the grid / output ordering

  // Cell identity.
  std::string scenario;
  std::string network;
  std::string config;
  std::string algorithm;
  std::vector<int> budgets;  ///< resolved per-item budgets
  uint64_t seed = 0;         ///< the sweep seed of this repetition

  // Graph shape (after scaling / subsampling).
  std::size_t graph_nodes = 0;
  std::size_t graph_edges = 0;
  /// Content hash of the task's graph (16 hex digits): provenance linking
  /// result rows to store artifacts. Identical however the graph was
  /// obtained (generated, loaded, or cache hit).
  std::string graph_hash;

  // Outcome.
  bool skipped = false;
  std::string skip_reason;     ///< why (gating, unmet preconditions)
  double seconds = 0.0;        ///< seed-selection wall time
  /// Per-phase wall-time breakdown of the task (obs/phase.h): RR-set
  /// sampling, greedy node selection, Monte-Carlo welfare estimation.
  /// Machine noise like `seconds` — the file sinks emit these only under
  /// SinkOptions::include_timing, keeping artifacts bit-reproducible.
  double sample_s = 0.0;
  double select_s = 0.0;
  double estimate_s = 0.0;
  double welfare = 0.0;        ///< rho(alloc ∪ S_P), common evaluator
  double adopting_nodes = 0.0;
  std::vector<double> adopters_per_item;
  std::size_t seeds_allocated = 0;  ///< (node, item) pairs chosen
  std::string note;                 ///< e.g. BestOf's chosen arm
};

/// A finished sweep: one row per grid cell, in grid order.
struct SweepResult {
  ScenarioSpec spec;
  std::vector<TaskResult> rows;
  double total_seconds = 0.0;
  /// Artifact-cache counters for this sweep (all zero when disabled).
  /// Execution telemetry like `total_seconds` — not part of the artifact.
  bool cache_enabled = false;
  CacheStats cache_stats;
  /// Keyed snapshot-pool counters, summed over the per-cell engines.
  /// pool_reuses > 0 means estimators shared materialized worlds (every
  /// task of a cell resolves the cell's evaluation pool by key).
  /// Execution telemetry — not part of the artifact.
  WorldPoolStoreStats pool_stats;
};

/// Validates, expands and runs `spec`. Fails fast on validation or
/// network-construction errors; per-task algorithm precondition failures
/// (e.g. SupGRD without a superior item) become skipped rows instead.
StatusOr<SweepResult> RunSweep(const ScenarioSpec& spec,
                               const SweepOptions& options = {});

}  // namespace cwm

#endif  // CWM_SCENARIO_SWEEP_H_
