// Engine — the long-lived facade over the allocation stack.
//
// An Engine binds the per-task state the sweep used to rebuild ad hoc for
// every algorithm run: the (possibly mmap'd) Graph, the utility
// configuration, the ArtifactCache serving RR-set eras, and a keyed
// WorldPoolStore so every estimator resolving the same world-sequence
// identity — the per-cell evaluator rebuilt by each task, or the
// estimators one AlgoParams spawns inside BestOf — shares one
// materialized snapshot pool under one byte budget.
//
// Allocate() is the single algorithm-agnostic entry point: it resolves
// the requested AlgoKind in the global AllocatorRegistry, binds the
// engine's cache/hash/pool-store into the request (without overriding
// caller-pinned values), times the allocator, evaluates the resulting
// allocation's welfare on the request's evaluation estimator, and reports
// per-phase timing. Pool and cache events are counted in the metrics
// registry (pool.*, cache.*). Results are bit-identical to hand-wiring the
// underlying algorithm: the engine only shares state that never changes
// results (artifact cache, snapshot pools).
//
// Thread-safety: Allocate is const and safe to call concurrently; the
// pool store serializes pool construction internally. ApplyDelta may run
// concurrently with Allocate calls: each allocation pins the graph state
// current at its entry and runs to completion on it, while the swap to
// the post-delta state is atomic (readers never observe a half-applied
// delta). Retired states are retained for the engine's lifetime, so
// references handed out before a delta stay valid.
#ifndef CWM_API_ENGINE_H_
#define CWM_API_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "api/registry.h"
#include "delta/delta_log.h"
#include "delta/overlay.h"
#include "delta/rr_patch.h"
#include "exp/specs.h"
#include "simulate/world_pool.h"
#include "store/artifact_cache.h"
#include "support/status.h"

namespace cwm {

/// Long-lived bindings of an Engine.
struct EngineOptions {
  /// Artifact cache serving graph images and RR eras (not owned; may be
  /// null). Bound into requests that did not pin their own.
  ArtifactCache* cache = nullptr;
  /// GraphContentHash of the engine's graph; 0 = compute on construction
  /// (one O(edges) pass). Callers that already know it (the sweep, warm
  /// cache opens) pass it to skip the pass.
  uint64_t graph_hash = 0;
  /// Byte budget of the engine's keyed snapshot-pool store
  /// (CWM_SNAPSHOT_BUDGET_MB semantics; 0 streams every world lazily).
  std::size_t snapshot_budget_bytes = 256ull << 20;
};

/// Outcome of one Engine::ApplyDelta call.
struct ApplyDeltaResult {
  uint64_t old_hash = 0;        ///< GraphContentHash before the delta
  uint64_t new_hash = 0;        ///< GraphContentHash after the delta
  std::size_t dirty_nodes = 0;  ///< vertices whose in-edge lists changed
  /// Forward edges below this are unchanged (simulate pools patch by
  /// prefix copy above it).
  EdgeId first_dirty_edge = 0;
  /// RR-era repair outcome (all zero when the engine has no cache).
  RrPatchStats rr;
};

/// The facade. Construct over borrowed graph/config (the sweep's cells),
/// or Open() a declarative NetworkSpec/ConfigSpec pair the engine owns —
/// served mmap zero-copy from the artifact cache when bound.
class Engine {
 public:
  /// Borrows `graph` and `config`; both must outlive the engine.
  Engine(const Graph& graph, const UtilityConfig& config,
         EngineOptions options = {});

  /// Builds (or cache-opens) the network and utility configuration and
  /// returns an engine owning both. `scale` multiplies scalable network
  /// families (CWM_BENCH_SCALE semantics).
  static StatusOr<std::unique_ptr<Engine>> Open(const NetworkSpec& network,
                                                const ConfigSpec& config,
                                                EngineOptions options = {},
                                                double scale = 1.0);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the registered allocator named by request.algo and fills
  /// `result` (allocation, diagnostics, welfare stats, timing).
  /// FailedPrecondition from the allocator (e.g. SupGRD without a
  /// superior item, or budgets needing a ranking longer than the nodes
  /// the allocator can pick) becomes a *skipped* result with OK status
  /// (the caller decides severity). A malformed request — including an
  /// item budget above the graph's node count or a fixed seed outside
  /// the graph — returns InvalidArgument; unknown kinds, cancellation,
  /// and other failures return non-OK too and leave `result`
  /// unspecified.
  Status Allocate(AllocateRequest request, AllocateResult* result) const;

  /// Runs request.algo once per budget point (request.budgets is ignored;
  /// each point replaces it) and fills one result per point. MaxGRD and
  /// SeqGRD/SeqGRD-NM share a single PRIMA+ ranking across the whole
  /// batch and evaluate every point's welfare in one batched sweep — the
  /// per-point results keep the algorithms' approximation guarantees but
  /// are NOT bit-identical to per-point Allocate calls when the batch has
  /// more than one point (the shared ranking samples under the union of
  /// levels). Every other algorithm falls back to one Allocate per point,
  /// bit-identical to the loop it replaces — and so does a batch with a
  /// point whose ranking would need more nodes than PRIMA+ can pick
  /// (Allocate reports that point skipped).
  Status AllocateBatch(AllocateRequest request,
                       std::span<const BudgetVector> budget_points,
                       std::vector<AllocateResult>* results) const;

  /// Applies one delta log to the engine's current graph and atomically
  /// swaps the composition in: in-flight Allocate calls finish on the
  /// graph they pinned at entry; calls entering after the swap see the
  /// new graph. When the hash changes, the engine takes the cache's
  /// working set of the old graph (the RR eras this process loaded or
  /// stored under the old hash since that hash was last patched;
  /// ArtifactCache::TakeRrWorkingSet) and re-keys its standard eras
  /// (Imm's, and PRIMA+'s when the request had no fixed allocation) onto
  /// the new graph in parallel, one era per worker (dirty sets
  /// resampled, the rest reused), so post-delta allocations hit the
  /// cache. Every other era stays on its old key and a later read
  /// resamples it cold: a non-empty fixed allocation's, one this process
  /// never touched on the old graph, and one an allocation still pinned
  /// to the old graph loads after the take. The snapshot-pool store is
  /// told to patch rather than rebuild pools above the dirty-edge
  /// watermark.
  /// Concurrent ApplyDelta calls serialize in arrival order. On failure
  /// the engine is unchanged. `result` may be null.
  Status ApplyDelta(const DeltaLog& log, ApplyDeltaResult* result = nullptr);

  const Graph& graph() const { return *CurrentState()->graph; }
  const UtilityConfig& config() const { return *config_; }
  uint64_t graph_hash() const { return CurrentState()->hash; }
  ArtifactCache* cache() const { return options_.cache; }

  /// Delta logs applied over the engine's lifetime (provenance of the
  /// current graph relative to the one the engine opened with).
  std::vector<DeltaChainLink> delta_chain() const;

 private:
  /// One immutable graph identity: the engine swaps whole states on
  /// ApplyDelta so readers pin a consistent (graph, hash) pair. `owned`
  /// is null when the engine borrows the caller's graph (the pre-delta
  /// state of the borrowing constructor).
  struct GraphState {
    std::unique_ptr<const Graph> owned;
    const Graph* graph = nullptr;
    uint64_t hash = 0;
  };

  Engine(std::unique_ptr<const Graph> owned_graph,
         std::unique_ptr<const UtilityConfig> owned_config,
         EngineOptions options);

  /// The graph state current right now, pinned against concurrent swaps.
  std::shared_ptr<const GraphState> CurrentState() const;

  /// Binds the engine's long-lived state (graph, config, cache, hash,
  /// pool store, cancellation threading, candidate-pool default) into a
  /// request, never overriding caller-pinned values.
  void BindRequest(AllocateRequest* request, const GraphState& state) const;

  // Owned storage for the Open() path; null when borrowing.
  std::unique_ptr<const UtilityConfig> owned_config_;
  const UtilityConfig* config_;
  EngineOptions options_;
  mutable WorldPoolStore pool_store_;

  /// Guards state_ and chain_ only; ApplyDelta holds apply_mutex_ across
  /// the whole application so appliers serialize without blocking
  /// readers.
  mutable std::shared_mutex state_mutex_;
  std::shared_ptr<const GraphState> state_;
  std::mutex apply_mutex_;
  /// States replaced by deltas, retained so references (and pool-store
  /// keys) handed out before the swap stay valid for the engine's
  /// lifetime — a reused heap address must never alias a distinct graph.
  std::vector<std::shared_ptr<const GraphState>> retired_;
  std::vector<DeltaChainLink> chain_;
};

}  // namespace cwm

#endif  // CWM_API_ENGINE_H_
