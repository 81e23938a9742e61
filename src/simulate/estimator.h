// Monte-Carlo estimators for expected social welfare rho(S), influence
// spread sigma(S), per-item adoption counts, and marginal welfare.
//
// Marginals use common random numbers: the same world seeds evaluate both
// allocations, so the difference estimator has far lower variance than two
// independent estimates — essential for the marginal checks of SeqGRD and
// the greedyWM baseline. The paper runs 5000 simulations per estimate
// (§6.1.3); EstimatorOptions defaults to 500, and the sweep engine
// (cwm_run) reads the in-algorithm count from the CWM_SIMS environment
// variable, default 200.
//
// Batched evaluation: StatsBatch / MarginalWelfareBatch /
// MarginalBalancedExposureBatch sweep every candidate allocation through
// each possible world in one pass, amortizing world materialization (a
// WorldPool of live-edge snapshots + per-world utility tables,
// simulate/world_pool.h) over the whole batch — and, for marginals, the
// base allocation's diffusion over all extras. The pool is built lazily
// on the first batch call and reused by every later batch on the same
// estimator, within EstimatorOptions::snapshot_budget_bytes; worlds past
// the budget stream lazily exactly like the non-batch path. Batched
// results are bit-identical to calling the corresponding streaming method
// per candidate, at any thread count.
//
// Incremental marginals: a marginal records the base's diffusion once per
// snapshotted world and re-simulates only each extra's live-reach region
// on top of it (UicSimulator::Record/RunOver). The batch marginals do
// this per world in one pass; a MarginalSession keeps the records across
// calls for the lazy CELF refreshes of greedyWM and Balance-C, and
// advances them by each round's pick (UicSimulator::Advance) instead of
// re-recording. See docs/ARCHITECTURE.md for the exactness argument.
#ifndef CWM_SIMULATE_ESTIMATOR_H_
#define CWM_SIMULATE_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "model/allocation.h"
#include "model/utility.h"
#include "simulate/uic_simulator.h"
#include "simulate/world_pool.h"

namespace cwm {

/// Options shared by all Monte-Carlo estimates.
struct EstimatorOptions {
  /// Number of possible worlds averaged per estimate.
  int num_worlds = 500;
  /// Base seed; world w uses seed MixHash(seed, w).
  uint64_t seed = 0x5eedu;
  /// Worker threads (0 = hardware concurrency).
  unsigned num_threads = 0;
  /// Byte budget for the materialized worlds backing the batch API
  /// (CWM_SNAPSHOT_BUDGET_MB in the sweep engine). Without a pool_store it
  /// sizes the estimator's own WorldPoolStore. Worlds whose snapshots
  /// exceed the budget are streamed lazily instead; 0 disables
  /// materialization entirely. Never changes results — only wall time.
  std::size_t snapshot_budget_bytes = 256ull << 20;
  /// Optional shared pool store (simulate/world_pool.h). Estimators always
  /// resolve their worlds through a store's (graph, config, seed,
  /// num_worlds) key; with this set, estimators with the same
  /// world-sequence identity share the materialization and the *shared
  /// store's* budget governs (this option's snapshot_budget_bytes is
  /// ignored). Not owned; must outlive the estimator. Never changes
  /// results — only wall time.
  WorldPoolStore* pool_store = nullptr;
};

/// Expected-value statistics of an allocation.
struct WelfareStats {
  /// Estimated rho(S): expected social welfare.
  double welfare = 0.0;
  /// Expected number of adopters of each item (Table 6 columns).
  std::vector<double> adopters_per_item;
  /// Expected number of nodes adopting at least one item.
  double adopting_nodes = 0.0;
};

class WelfareEstimator;

/// Marginal gains of many extras against a base that grows by one pick
/// per round — the lazy CELF refreshes of greedyWM and Balance-C — from
/// WelfareEstimator::Marginals. The first gain records the base's
/// diffusion once per snapshotted world (UicSimulator::Record); every gain
/// then re-simulates only the extra's live-reach region per world
/// (UicSimulator::RunOver) instead of running base and base ∪ extra in
/// full, and the first gain after Advance derives each world's next record
/// from the current one (UicSimulator::Advance). Each gain is
/// bit-identical to the streaming MarginalWelfare /
/// MarginalBalancedExposure against the current base at any thread count.
/// Records stay within the estimator's snapshot (or store) byte budget;
/// worlds past it, or without a snapshot, take the plain diffusion. Not
/// thread-safe; the estimator must outlive the session.
class MarginalSession {
 public:
  /// rho(base ∪ extra) - rho(base).
  double Welfare(const Allocation& extra);

  /// BalancedExposure(base ∪ extra) - BalancedExposure(base).
  double BalancedExposure(const Allocation& extra);

  /// Moves the base to base ∪ pick. The records advance at the next gain,
  /// by every pick since the last one at once.
  void Advance(const Allocation& pick);

 private:
  friend class WelfareEstimator;
  enum class Objective { kWelfare, kExposure };

  /// `retain` keeps every world's record for later calls; otherwise each
  /// world's record lives only while that world's extras are evaluated
  /// (the one-shot pass behind the scalar batch marginals).
  MarginalSession(const WelfareEstimator& estimator, const Allocation& base,
                  bool retain);

  /// Gain of every extra, chunked and summed exactly like the streaming
  /// marginals.
  std::vector<double> Gains(std::span<const Allocation> extras,
                            Objective objective);

  /// Sets `world` to world `w`'s base outcome, plus its replayable record
  /// when the world has a snapshot and the record fits in `*room` bytes.
  /// A replayable record of an earlier base advances by `pending_`, with
  /// `spare` as the buffer it is written into.
  void Prepare(UicSimulator& sim, int w, RecordedWorld* world,
               RecordedWorld* spare, std::size_t* room) const;

  const WelfareEstimator* estimator_;
  Allocation base_;
  std::vector<std::pair<NodeId, ItemSet>> base_seeds_;
  bool retain_;
  bool recorded_ = false;
  /// Seed nodes of the picks the records have not advanced by yet
  /// (ascending, unique).
  std::vector<NodeId> pending_;
  std::size_t chunks_ = 1;
  const WorldPool* pool_ = nullptr;
  // Kept across calls by a retaining session only.
  std::vector<std::unique_ptr<UicSimulator>> sims_;  // per chunk
  std::vector<RecordedWorld> worlds_;                // per world
};

/// Monte-Carlo welfare/spread estimator bound to one graph + utility config.
/// Thread-safe for concurrent const calls (each call builds its own
/// simulator scratch).
class WelfareEstimator {
 public:
  WelfareEstimator(const Graph& graph, const UtilityConfig& config,
                   EstimatorOptions options = {});

  /// rho(S): expected social welfare of `allocation`.
  double Welfare(const Allocation& allocation) const;

  /// Welfare plus per-item adopter counts (used by the adoption-vs-welfare
  /// experiment, Table 6).
  WelfareStats Stats(const Allocation& allocation) const;

  /// Batched Stats: element j is bit-identical to Stats(allocations[j]),
  /// but every world is materialized once (snapshot + utility table) and
  /// shared by all candidates instead of being re-derived per candidate.
  std::vector<WelfareStats> StatsBatch(
      std::span<const Allocation> allocations) const;

  /// rho(base ∪ extra) - rho(base), with common random numbers. The
  /// streaming reference every faster marginal path is tested against.
  double MarginalWelfare(const Allocation& base,
                         const Allocation& extra) const;

  /// Batched MarginalWelfare against one shared base: element j is
  /// bit-identical to MarginalWelfare(base, extras[j]). On top of the
  /// shared world snapshots, the base allocation's diffusion runs once
  /// per world for the whole batch, and each extra re-simulates only its
  /// live-reach region of that world (a one-shot MarginalSession pass).
  std::vector<double> MarginalWelfareBatch(
      const Allocation& base, std::span<const Allocation> extras) const;

  /// A session evaluating marginal gains against `base` (see
  /// MarginalSession); keeps the recorded base between calls.
  MarginalSession Marginals(const Allocation& base) const;

  /// sigma(S): expected number of nodes reachable from `seeds` over live
  /// edges (classic IC spread; item-independent).
  double Spread(const std::vector<NodeId>& seeds) const;

  /// sigma(S | S_P) = sigma(S ∪ S_P) - sigma(S_P), common random numbers.
  double MarginalSpread(const std::vector<NodeId>& base,
                        const std::vector<NodeId>& extra) const;

  /// Balanced-exposure objective of Garimella et al. (Balance-C baseline):
  /// expected number of nodes whose desire set contains both of items
  /// {0, 1} or neither. Only meaningful for two-item configurations.
  double BalancedExposure(const Allocation& allocation) const;

  /// BalancedExposure(base ∪ extra) - BalancedExposure(base), common
  /// random numbers. The streaming reference of the batch and session.
  double MarginalBalancedExposure(const Allocation& base,
                                  const Allocation& extra) const;

  /// Batched MarginalBalancedExposure against one shared base; element j
  /// is bit-identical to MarginalBalancedExposure(base, extras[j]).
  std::vector<double> MarginalBalancedExposureBatch(
      const Allocation& base, std::span<const Allocation> extras) const;

  /// Snapshot-pool telemetry. All zeros until the first batch call
  /// builds the pool.
  WorldPoolStats snapshot_stats() const;

  const EstimatorOptions& options() const { return options_; }
  const Graph& graph() const { return graph_; }
  const UtilityConfig& config() const { return config_; }

 private:
  friend class MarginalSession;

  /// Worker threads: num_threads, or the hardware concurrency when 0.
  unsigned NumThreads() const;

  /// World-to-chunk striding shared by every estimate (streaming and
  /// batched): max(1, min(threads, num_worlds)).
  std::size_t NumChunks() const;

  /// Byte budget of materialized worlds: the store's when one is set.
  std::size_t BudgetBytes() const;

  /// options_.pool_store, or the estimator's own store sized by
  /// snapshot_budget_bytes, made on first use. Caller holds pool_mutex_.
  WorldPoolStore& Store() const;

  /// The snapshot pool, resolved through Store() once per lifetime.
  const WorldPool& EnsurePool() const;

  const Graph& graph_;
  const UtilityConfig& config_;
  EstimatorOptions options_;

  mutable std::mutex pool_mutex_;
  mutable std::unique_ptr<WorldPoolStore> own_store_;
  mutable std::shared_ptr<const WorldPool> pool_;
};

}  // namespace cwm

#endif  // CWM_SIMULATE_ESTIMATOR_H_
