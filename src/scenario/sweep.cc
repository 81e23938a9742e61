#include "scenario/sweep.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <tuple>
#include <utility>

#include "api/engine.h"
#include "exp/env.h"
#include "exp/reduction.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rrset/imm.h"
#include "store/format.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace cwm {

namespace {

// Seed-derivation tags: every random stream a task consumes is
// MixHash(cell or algo seed, tag), so streams never collide and never
// depend on scheduling.
constexpr uint64_t kEvalTag = 0xE7A1;
constexpr uint64_t kRankTag = 0x7A2C;
constexpr uint64_t kImmTag = 0x1221;
constexpr uint64_t kEstTag = 0xE521;
constexpr uint64_t kFixedTag = 0xF12ED;

/// Broadcasts a budget grid point to one entry per global ItemId.
BudgetVector ResolveBudgets(const BudgetVector& point, int num_items) {
  if (point.size() == static_cast<std::size_t>(num_items)) return point;
  return BudgetVector(num_items, point[0]);
}

/// The items a task's algorithm allocates (everything S_P does not fix).
std::vector<ItemId> AllocatedItems(const ScenarioSpec& spec, int num_items) {
  std::vector<ItemId> items;
  for (ItemId i = 0; i < num_items; ++i) {
    if (spec.fixed.kind == FixedSeedSpec::Kind::kTopSpread &&
        i == spec.fixed.item) {
      continue;
    }
    if (spec.fixed.kind == FixedSeedSpec::Kind::kTheorem2 && i != 0) {
      continue;  // the gadget fixes i2..i4; only i1 is allocated
    }
    items.push_back(i);
  }
  return items;
}

/// Everything shared by the tasks of one (network, config) pair: the
/// long-lived Engine (graph + config + cache binding + keyed snapshot
/// pool, shared by every task of the cell pair) and the fixed S_P.
struct CellInputs {
  std::unique_ptr<Engine> engine;
  Allocation sp;  ///< fixed allocation S_P (possibly empty)
};

/// Inner RR-sampling threads for a spec's tasks: the spec's own pin wins,
/// then the sweep-level knob. Never affects results (rr_pipeline.h).
unsigned ResolveRrThreads(const ScenarioSpec& spec,
                          const SweepOptions& options) {
  if (spec.rr_threads > 0) return spec.rr_threads;
  return options.rr_threads > 0 ? options.rr_threads : 1;
}

/// Runs one non-gated task through the cell's Engine; fills the outcome
/// fields of `row`. The per-algorithm wiring (estimators, rankings,
/// preconditions) lives behind the cwm::api registry — this function only
/// derives the task's seeds and translates the result into a row.
void RunTask(const ScenarioSpec& spec, const ScenarioTask& task,
             const CellInputs& cell, const SweepOptions& options,
             uint64_t cell_seed, TaskResult* row) {
  const int m = cell.engine->config().num_items();
  const BudgetVector budgets =
      ResolveBudgets(spec.budget_points[task.budget_index], m);
  row->budgets = budgets;

  const uint64_t algo_seed =
      MixHash(cell_seed, static_cast<uint64_t>(task.algo) + 0x100);
  const int sims = spec.sims > 0 ? spec.sims : options.default_sims;
  const int eval_sims =
      spec.eval_sims > 0 ? spec.eval_sims : options.default_eval_sims;
  const unsigned rr_threads = ResolveRrThreads(spec, options);

  AllocateRequest request;
  request.algo = task.algo;
  request.items = AllocatedItems(spec, m);
  request.budgets = budgets;
  request.fixed = &cell.sp;
  request.params.imm = {.epsilon = spec.epsilon,
                        .ell = spec.ell,
                        .seed = MixHash(algo_seed, kImmTag),
                        .num_threads = rr_threads};
  request.params.estimator = {
      .num_worlds = sims,
      .seed = MixHash(algo_seed, kEstTag),
      .num_threads = options.inner_threads,
      .snapshot_budget_bytes = options.snapshot_budget_bytes,
      .packed_kernel = options.packed_kernel};
  // Positional allocators share one cell-keyed ranking, so RR / Snake /
  // BlockUtil differ only in the item-to-position assignment (§6.4.3).
  request.ranking = {.epsilon = spec.epsilon,
                     .ell = spec.ell,
                     .seed = MixHash(cell_seed, kRankTag),
                     .num_threads = rr_threads};
  // All algorithms of one cell share the evaluation worlds (cell-keyed
  // seed): they are compared on the same sampled universes — and, through
  // the engine's keyed pool store, on the same materialized snapshots.
  request.eval = {.num_worlds = eval_sims,
                  .seed = MixHash(cell_seed, kEvalTag),
                  .num_threads = options.inner_threads,
                  .packed_kernel = options.packed_kernel};

  AllocateResult result;
  const Status status = cell.engine->Allocate(std::move(request), &result);
  if (!status.ok()) {
    row->skipped = true;
    row->skip_reason = status.ToString();
    return;
  }
  if (result.skipped) {
    row->skipped = true;
    row->skip_reason = result.skip_reason;
    return;
  }
  row->seconds = result.allocate_seconds;
  row->sample_s = result.phases.sample_s();
  row->select_s = result.phases.select_s();
  row->estimate_s = result.phases.estimate_s();
  row->seeds_allocated = result.allocation.TotalPairs();
  row->note = result.note;
  row->welfare = result.stats.welfare;
  row->adopting_nodes = result.stats.adopting_nodes;
  row->adopters_per_item = result.stats.adopters_per_item;
}

}  // namespace

SweepOptions EnvSweepOptions() {
  SweepOptions options;
  options.default_sims = EnvInt("CWM_SIMS", 200, /*min_value=*/1);
  options.default_eval_sims = EnvInt("CWM_EVAL_SIMS", 500, /*min_value=*/1);
  options.scale = EnvDouble("CWM_BENCH_SCALE", 1.0, /*min_value=*/1e-6);
  options.run_slow_everywhere = EnvInt("CWM_GREEDY", 0) == 1;
  options.num_threads =
      static_cast<unsigned>(EnvInt("CWM_THREADS", 0, /*min_value=*/0));
  options.inner_threads =
      static_cast<unsigned>(EnvInt("CWM_INNER_THREADS", 1, /*min_value=*/1));
  options.rr_threads =
      static_cast<unsigned>(EnvInt("CWM_RR_THREADS", 1, /*min_value=*/1));
  options.snapshot_budget_bytes =
      static_cast<std::size_t>(
          EnvInt("CWM_SNAPSHOT_BUDGET_MB", 256, /*min_value=*/0))
      << 20;
  options.packed_kernel = EnvInt("CWM_PACKED", 1) != 0;
  if (const char* dir = std::getenv("CWM_CACHE_DIR");
      dir != nullptr && *dir != '\0') {
    options.cache_dir = dir;
  }
  return options;
}

StatusOr<SweepResult> RunSweep(const ScenarioSpec& spec,
                               const SweepOptions& options) {
  const Status valid = spec.Validate();
  if (!valid.ok()) return valid;
  if (options.shard_count < 1 ||
      options.shard_index >= options.shard_count) {
    return Status::InvalidArgument("shard index out of range");
  }

  Timer total_timer;

  // Artifact cache: the spec's own pin wins, then the sweep-level knob
  // (CWM_CACHE_DIR). An unopenable cache dir degrades to an uncached
  // sweep — results are bit-identical either way (the cache only trades
  // time), so a broken disk must not fail hours of compute. The loud
  // stderr note keeps the performance expectation honest.
  const std::string& cache_dir =
      !spec.cache_dir.empty() ? spec.cache_dir : options.cache_dir;
  std::unique_ptr<ArtifactCache> cache_holder;
  ArtifactCache* cache = nullptr;
  if (!cache_dir.empty()) {
    StatusOr<std::unique_ptr<ArtifactCache>> opened =
        ArtifactCache::Open(cache_dir);
    if (opened.ok()) {
      cache_holder = std::move(opened).value();
      cache = cache_holder.get();
    } else {
      NoteDegradedEvent("store.degraded.cache_disabled");
      std::fprintf(stderr,
                   "cwm: cache disabled for this sweep: %s (continuing "
                   "uncached; results are unaffected)\n",
                   opened.status().ToString().c_str());
    }
  }

  // Phase 1 (serial, deterministic): materialize networks and configs once.
  // Content hashes are provenance for result rows and the key half of
  // every cached RR era; warm cache opens serve them from the .cwg header
  // (O(1), no edge page-in), everything else pays one O(edges) pass.
  CWM_TRACE_SPAN("scenario.sweep", {{"networks", spec.networks.size()},
                                    {"configs", spec.configs.size()},
                                    {"seeds", spec.seeds.size()}});
  std::vector<Graph> graphs;
  graphs.reserve(spec.networks.size());
  std::vector<uint64_t> graph_hashes;
  graph_hashes.reserve(spec.networks.size());
  {
    CWM_TRACE_SPAN("scenario.build_networks",
                   {{"networks", spec.networks.size()}});
    for (const NetworkSpec& net : spec.networks) {
      uint64_t stored_hash = 0;
      StatusOr<Graph> graph = net.Build(options.scale, cache, &stored_hash);
      if (!graph.ok()) return graph.status();
      graphs.push_back(std::move(graph).value());
      graph_hashes.push_back(stored_hash != 0
                                 ? stored_hash
                                 : GraphContentHash(graphs.back()));
    }
  }
  std::vector<UtilityConfig> configs;
  configs.reserve(spec.configs.size());
  for (const ConfigSpec& config_spec : spec.configs) {
    StatusOr<UtilityConfig> config = config_spec.Build();
    if (!config.ok()) return config.status();
    configs.push_back(std::move(config).value());
  }

  // Fixed S_P inputs. Top-spread seeds are per network and shared by all
  // configs (the §6.2.3 protocol: the inferior item's seeds do not move).
  std::vector<std::vector<NodeId>> fixed_nodes(spec.networks.size());
  if (spec.fixed.kind == FixedSeedSpec::Kind::kTopSpread) {
    CWM_TRACE_SPAN("scenario.fixed_seeds", {{"count", spec.fixed.count}});
    for (std::size_t n = 0; n < graphs.size(); ++n) {
      // Serial phase: the whole machine is free, so the fixed-seed IMM
      // uses outer x inner threads.
      const unsigned fixed_threads = std::max(
          1u, (options.num_threads == 0 ? DefaultThreads()
                                        : options.num_threads) *
                  ResolveRrThreads(spec, options));
      fixed_nodes[n] = Imm(graphs[n], spec.fixed.count,
                           {.epsilon = spec.epsilon,
                            .ell = spec.ell,
                            .seed = MixHash(kFixedTag, n),
                            .num_threads = fixed_threads,
                            .cache = cache,
                            .graph_hash = graph_hashes[n]})
                           .seeds;
    }
  }

  // Per-(network, config) cell inputs: one long-lived Engine per pair,
  // so every task of the pair shares the cache binding and the keyed
  // snapshot-pool store (the cell evaluator materializes once, not once
  // per task). Sharing never changes results — only wall time.
  std::vector<CellInputs> cells(spec.networks.size() * spec.configs.size());
  for (std::size_t n = 0; n < spec.networks.size(); ++n) {
    for (std::size_t c = 0; c < spec.configs.size(); ++c) {
      CellInputs& cell = cells[n * spec.configs.size() + c];
      cell.engine = std::make_unique<Engine>(
          graphs[n], configs[c],
          EngineOptions{
              .cache = cache,
              .graph_hash = graph_hashes[n],
              .snapshot_budget_bytes = options.snapshot_budget_bytes});
      const int m = configs[c].num_items();
      cell.sp = Allocation(m);
      switch (spec.fixed.kind) {
        case FixedSeedSpec::Kind::kNone:
          break;
        case FixedSeedSpec::Kind::kTopSpread:
          cell.sp.AddAll(fixed_nodes[n], spec.fixed.item);
          break;
        case FixedSeedSpec::Kind::kTheorem2: {
          // The gadget's graph is already cells' graph; rebuilding it for
          // the fixed allocation is cheap and deterministic.
          const Theorem2Gadget gadget = BuildTheorem2Gadget(
              DefaultSetCoverInstance(),
              spec.networks[n].num_nodes == 0 ? 8
                                              : spec.networks[n].num_nodes);
          cell.sp = gadget.fixed_sp;
          break;
        }
      }
    }
  }

  std::vector<ScenarioTask> grid =
      ExpandGrid(spec, options.run_slow_everywhere);
  // Shard partition: keep only this process's slice of the grid. Each
  // task is self-contained (streams keyed by its grid coordinates, cell
  // seeds by cell id — both survive the filtering below), so the rows a
  // shard emits are bit-identical to the same rows of an unsharded run.
  if (options.shard_count > 1) {
    std::erase_if(grid, [&](const ScenarioTask& task) {
      return task.index % options.shard_count != options.shard_index;
    });
  }

  SweepResult result;
  result.spec = spec;
  result.rows.assign(grid.size(), TaskResult{});

  // Task wall times, bucketed for `--metrics` (seconds; the top bucket
  // catches the slow gated baselines when they run).
  static constexpr double kTaskSecondsBounds[] = {0.01, 0.1, 1.0, 10.0,
                                                  100.0};
  static Histogram& task_seconds_histogram =
      MetricsRegistry::Global().GetHistogram("scenario.task_seconds",
                                             kTaskSecondsBounds);

  // Longest-first start order. Tasks start in decreasing expected cost
  // so the long poles begin early instead of finishing alone at the end
  // of the grid (the registry lists networks smallest first). Key: gated
  // rows (no work) last, slow allocators first, then the larger graph by
  // edge count, then the larger total budget; grid index breaks ties.
  // Only the start order changes: every row still lands at its grid
  // position, and no task's result depends on which task ran before it.
  using StartKey = std::tuple<bool, bool, int64_t, int64_t, std::size_t>;
  std::vector<std::pair<StartKey, std::size_t>> starts;
  starts.reserve(grid.size());
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const ScenarioTask& task = grid[t];
    const BudgetVector budgets =
        ResolveBudgets(spec.budget_points[task.budget_index],
                       configs[task.config_index].num_items());
    const int64_t total_budget =
        std::accumulate(budgets.begin(), budgets.end(), int64_t{0});
    const int64_t edges =
        static_cast<int64_t>(graphs[task.network_index].num_edges());
    starts.emplace_back(StartKey(task.gated, !IsSlowAlgo(task.algo), -edges,
                                 -total_budget, task.index),
                        t);
  }
  std::sort(starts.begin(), starts.end());

  ParallelFor(
      starts.size(),
      [&](std::size_t k) {
        const std::size_t t = starts[k].second;
        const ScenarioTask& task = grid[t];
        TaskResult& row = result.rows[t];
        CWM_TRACE_SPAN("scenario.task",
                       {{"task", task.index},
                        {"algo", AlgoName(task.algo)},
                        {"gated", task.gated}});

        row.task_index = task.index;
        row.scenario = spec.name;
        row.network = spec.networks[task.network_index].Label();
        row.config = spec.configs[task.config_index].Label();
        row.algorithm = AlgoName(task.algo);
        row.seed = spec.seeds[task.seed_index];

        const CellInputs& cell =
            cells[task.network_index * spec.configs.size() +
                  task.config_index];
        row.graph_nodes = cell.engine->graph().num_nodes();
        row.graph_edges = cell.engine->graph().num_edges();
        row.graph_hash = HashToHex(cell.engine->graph_hash());
        row.budgets =
            ResolveBudgets(spec.budget_points[task.budget_index],
                           cell.engine->config().num_items());

        if (task.gated) {
          row.skipped = true;
          row.skip_reason =
              std::string("slow baseline gated to ") +
              SlowGateDescription(spec.slow_gate) +
              " (CWM_GREEDY=1 or --slow runs it everywhere)";
        } else {
          // The cell id deliberately excludes the algorithm, so all
          // algorithms of a cell share evaluation worlds and rankings.
          const std::size_t cell_id =
              ((task.network_index * spec.configs.size() +
                task.config_index) *
                   spec.budget_points.size() +
               task.budget_index) *
                  spec.seeds.size() +
              task.seed_index;
          const uint64_t cell_seed =
              MixHash(spec.seeds[task.seed_index], cell_id + 1);
          RunTask(spec, task, cell, options, cell_seed, &row);
          if (!row.skipped) task_seconds_histogram.Observe(row.seconds);
        }
        if (options.on_result) options.on_result(row);
      },
      options.num_threads);

  result.total_seconds = total_timer.Seconds();
  result.cache_enabled = cache != nullptr;
  if (cache != nullptr) result.cache_stats = cache->stats();
  for (const CellInputs& cell : cells) {
    const WorldPoolStoreStats stats = cell.engine->pool_stats();
    result.pool_stats.pools_built += stats.pools_built;
    result.pool_stats.pool_reuses += stats.pool_reuses;
    result.pool_stats.pools_evicted += stats.pools_evicted;
    result.pool_stats.resident_bytes += stats.resident_bytes;
    result.pool_stats.resident_pools += stats.resident_pools;
  }
  return result;
}

}  // namespace cwm
