// Materialized possible worlds for batched welfare estimation.
//
// The streaming estimator realizes a possible world lazily: every edge
// coin is a MixHash of (world seed, edge id), re-flipped on every
// traversal, and the per-world noise/utility table is rebuilt per
// estimate. That is optimal when a world is visited once — but MaxGRD's
// argmax, SeqGRD's marginal checks, greedyWM's CELF loop and BestOf's
// final comparison all sweep *many* candidate allocations through the
// *same* sequence of worlds, paying O(candidates x worlds x edges) in
// hashing where O(worlds x edges) suffices.
//
// A WorldSnapshot materializes one world once: the live-edge subgraph as
// a flat CSR (targets in canonical EdgeId order, so diffusion visits
// nodes in exactly the order the lazy path does) plus the world's noise
// utility table. Both are derived from the same WorldEdgeSeedOf /
// WorldNoiseRngOf streams as the streaming path (simulate/world.h), so
// evaluating an allocation against a snapshot is bit-identical to
// evaluating it on the fly — snapshots only ever change wall time.
//
// A WorldPool owns the snapshots of one estimator's world sequence,
// capped by a byte budget: worlds [0, k) are materialized where k is the
// largest prefix whose estimated footprint fits, and Get() returns
// nullptr for the rest, which callers stream exactly as before
// (transparent fallback — results are identical either way). The cutoff
// depends only on the graph and the budget, never on thread count.
// A WorldPoolStore (bottom of this header) extends the sharing across
// *estimators*: pools are keyed by (graph, config, seed, num_worlds), so
// every estimator of one task — and every task of one sweep cell, which
// all share the evaluation seed — resolves to the same materialized pool
// instead of building its own. The store is budget-capped as a whole and
// evicts unreferenced pools LRU-first; like the pools themselves it only
// ever changes wall time, never results.
#ifndef CWM_SIMULATE_WORLD_POOL_H_
#define CWM_SIMULATE_WORLD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "model/utility.h"
#include "simulate/world.h"

namespace cwm {

class PackedWorldSet;

/// One fully materialized possible world: live out-edges as a CSR over
/// the full node universe, plus the world's fixed-noise utility table.
class WorldSnapshot {
 public:
  /// State a snapshot build reuses across worlds of one graph: every
  /// edge's coin threshold (CoinThresholds, simulate/world.h — computed
  /// once per pool build and shared read-only by its workers) and one
  /// worker's compaction buffer. Coins flip branch-free against the
  /// thresholds; every out-target is stored into `live` and the cursor
  /// advances past live ones only, so the snapshot copies its targets out
  /// at their exact count.
  struct Scratch {
    std::span<const uint64_t> thresholds;
    std::vector<NodeId> live;
  };

  /// Materializes world (`edge_seed`, `noise_rng`) of `graph` + `config`.
  /// Without `scratch` the build computes its own thresholds and buffer.
  WorldSnapshot(const Graph& graph, const UtilityConfig& config,
                uint64_t edge_seed, Rng noise_rng,
                Scratch* scratch = nullptr);

  /// Incremental rematerialization after a delta: `prior` is the same
  /// world of the graph this one was derived from (delta/overlay.h), and
  /// every forward edge below `first_dirty_edge` is position-, endpoint-
  /// and probability-identical between the two graphs. The clean node
  /// prefix's live targets are copied from `prior` (the coins are keyed
  /// by positional EdgeId, so they cannot differ) and only edges at or
  /// above the watermark re-flip; the noise table — graph-independent by
  /// construction — is copied verbatim. Bit-identical to the cold
  /// constructor on `graph` with the same seeds.
  WorldSnapshot(const Graph& graph, const WorldSnapshot& prior,
                uint64_t edge_seed, EdgeId first_dirty_edge,
                Scratch* scratch = nullptr);

  /// Live out-neighbours of `u`, in canonical (EdgeId) order — the same
  /// order the lazy EdgeWorld path visits survivors in.
  std::span<const NodeId> LiveOut(NodeId u) const {
    return {targets_.data() + offsets_[u],
            targets_.data() + offsets_[u + 1]};
  }

  const WorldUtilityTable& utilities() const { return table_; }

  std::size_t live_edges() const { return targets_.size(); }

  /// Heap footprint of this snapshot (pool accounting).
  std::size_t bytes() const {
    return offsets_.capacity() * sizeof(uint32_t) +
           targets_.capacity() * sizeof(NodeId);
  }

 private:
  /// Flips the out-edges of nodes [first, n) against the thresholds and
  /// sets offsets_[first + 1 ..] from `live_before`, the live targets of
  /// nodes below `first`. Leaves the suffix's targets in scratch.live and
  /// returns their count.
  std::size_t FlipSuffix(const Graph& graph, uint64_t edge_seed,
                         NodeId first, uint32_t live_before,
                         Scratch& scratch);

  std::vector<uint32_t> offsets_;  // num_nodes + 1
  std::vector<NodeId> targets_;    // live edges, canonical order
  WorldUtilityTable table_;
};

/// Telemetry of one pool (exposed via WelfareEstimator::snapshot_stats).
struct WorldPoolStats {
  int num_worlds = 0;    ///< worlds in the estimator's sequence
  int snapshotted = 0;   ///< worlds materialized (prefix [0, snapshotted))
  std::size_t bytes = 0; ///< total snapshot footprint
};

/// Deterministic per-world snapshot footprint estimate, in heap bytes: the
/// offset array is exact, the live edge count is taken at its expectation
/// (sum of edge probabilities). Shared by WorldPool's prefix cutoff and
/// WorldPoolStore's eviction policy so both agree on what a world costs.
std::size_t EstimateSnapshotBytes(const Graph& graph);

/// The materialized prefix of one estimator's world sequence. Immutable
/// after construction; safe to share across threads.
class WorldPool {
 public:
  /// Builds snapshots for worlds [0, k) of the sequence derived from
  /// `seed`, where k is the longest prefix within `budget_bytes`
  /// (estimated as offsets + expected live edges per world — the cutoff
  /// is deterministic in the graph and budget alone). Building is
  /// parallelized over `num_threads` workers; snapshot content never
  /// depends on the thread count. A caller that already computed the
  /// graph's EstimateSnapshotBytes passes it as `per_world_bytes` to skip
  /// the edge scan (0 recomputes; the estimate is deterministic either
  /// way).
  WorldPool(const Graph& graph, const UtilityConfig& config, uint64_t seed,
            int num_worlds, std::size_t budget_bytes, unsigned num_threads,
            std::size_t per_world_bytes = 0);

  /// Incremental rebuild after a delta: worlds materialized by `prior`
  /// (a pool of the pre-delta graph with the same identity) are patched
  /// via the prefix-copy snapshot constructor; worlds `prior` never
  /// materialized build cold. The prefix cutoff is recomputed on `graph`
  /// exactly as the cold constructor would, so the patched pool is
  /// bit-identical to a cold build — patching only changes wall time.
  WorldPool(const Graph& graph, const UtilityConfig& config, uint64_t seed,
            int num_worlds, std::size_t budget_bytes, unsigned num_threads,
            std::size_t per_world_bytes, const WorldPool& prior,
            EdgeId first_dirty_edge);

  /// Snapshot of world `w`, or nullptr when `w` fell outside the budget
  /// (the caller streams that world lazily instead).
  const WorldSnapshot* Get(int w) const {
    return static_cast<std::size_t>(w) < snapshots_.size()
               ? snapshots_[w].get()
               : nullptr;
  }

  WorldPoolStats stats() const;

 private:
  int num_worlds_;
  std::vector<std::unique_ptr<WorldSnapshot>> snapshots_;
};

/// Telemetry of one store (surfaced through Engine/AllocateResult and the
/// sweep's aggregate counters).
struct WorldPoolStoreStats {
  uint64_t pools_built = 0;    ///< keys materialized from scratch
  uint64_t pool_reuses = 0;    ///< GetOrBuild calls served by a resident pool
  uint64_t pools_evicted = 0;  ///< unreferenced pools dropped for budget
  uint64_t pools_patched = 0;  ///< builds served incrementally from a
                               ///< pre-delta pool (subset of pools_built)
  std::size_t resident_bytes = 0;  ///< snapshot bytes currently resident
  std::size_t resident_pools = 0;  ///< pools currently resident
};

/// A keyed, budget-capped cache of WorldPools shared by the estimators of
/// one engine/task. The key is (graph, config, seed, num_worlds) — the
/// full identity of an estimator's world sequence — so two estimators
/// with the same identity (e.g. the per-cell evaluator rebuilt by every
/// task of a sweep cell, or the estimators BestOf's two arms construct
/// from one AlgoParams) share one materialized pool. The byte budget caps
/// the *store*: a new pool is built with whatever budget remains after
/// evicting unreferenced pools (LRU-first), and falls back to streaming
/// when nothing remains. Thread-safe; concurrent GetOrBuild calls for one
/// key build once and share. Never changes results — only wall time.
///
/// Concurrency: hits take a shared lock (concurrent serve requests for
/// resident pools never contend), and a miss builds its pool *outside*
/// the exclusive lock — the key is reserved first with its budget
/// estimate and a build future, so same-key callers wait on that one
/// build while distinct-key callers build in parallel, and the combined
/// reservations never overshoot the store budget.
class WorldPoolStore {
 public:
  explicit WorldPoolStore(std::size_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  WorldPoolStore(const WorldPoolStore&) = delete;
  WorldPoolStore& operator=(const WorldPoolStore&) = delete;

  /// The pool for (graph, config, seed, num_worlds): resident if already
  /// built, otherwise built under the store's remaining budget. The
  /// returned pointer keeps the pool alive independently of the store.
  std::shared_ptr<const WorldPool> GetOrBuild(const Graph& graph,
                                              const UtilityConfig& config,
                                              uint64_t seed, int num_worlds,
                                              unsigned num_threads);

  /// The packed world set (simulate/packed_world.h) for
  /// (graph, config, seed, num_worlds) laid out for a `chunks`-way
  /// evaluation — the extra key field, because lane packing bakes the
  /// chunk stride in. Unlike snapshot pools, a packed set is
  /// all-or-nothing: returns nullptr when it cannot fit the store budget
  /// even after LRU eviction, and the caller falls back to the scalar
  /// path. Packed entries share the store's budget, eviction policy, and
  /// built/reuse/evict counters with snapshot pools.
  std::shared_ptr<const PackedWorldSet> GetOrBuildPacked(
      const Graph& graph, const UtilityConfig& config, uint64_t seed,
      int num_worlds, std::size_t chunks, unsigned num_threads);

  /// Registers that `new_graph` is `old_graph` composed with a delta
  /// whose dirty watermark is `first_dirty_edge` (delta/overlay.h). A
  /// later miss for `new_graph` then *patches* the matching resident
  /// pool/packed set of `old_graph` (prefix copy below the watermark)
  /// instead of building cold — bit-identical, proportional to the dirty
  /// region. Hints chain: after several deltas a miss walks back to the
  /// nearest resident ancestor with the watermarks combined. Both graphs
  /// must outlive the store (Engine retains retired graph states).
  void NotifyDelta(const Graph& old_graph, const Graph& new_graph,
                   EdgeId first_dirty_edge);

  WorldPoolStoreStats stats() const;

  std::size_t budget_bytes() const { return budget_bytes_; }

 private:
  struct Key {
    const Graph* graph;
    const UtilityConfig* config;
    uint64_t seed;
    int num_worlds;
    std::size_t chunks;  // 0 = snapshot pool; > 0 = packed set layout
    bool operator<(const Key& o) const {
      if (graph != o.graph) return graph < o.graph;
      if (config != o.config) return config < o.config;
      if (seed != o.seed) return seed < o.seed;
      if (num_worlds != o.num_worlds) return num_worlds < o.num_worlds;
      return chunks < o.chunks;
    }
  };
  struct Entry {
    // Exactly one of the two is set, per Key::chunks. Written once, by
    // the building thread under the exclusive lock; `ready` (release)
    // publishes them to shared-lock readers (acquire).
    std::shared_ptr<const WorldPool> pool;
    std::shared_ptr<const PackedWorldSet> packed;
    /// Budget reservation while building; actual footprint once ready.
    std::size_t bytes = 0;
    /// LRU stamp; atomic because shared-lock hits refresh it.
    std::atomic<uint64_t> last_use{0};
    std::atomic<bool> ready{false};
    /// Valid while !ready: same-key callers wait on it outside the lock.
    std::shared_future<void> build;
    long use_count() const {
      return pool != nullptr ? pool.use_count() : packed.use_count();
    }
  };

  /// Evicts unreferenced ready entries LRU-first until `desired` more
  /// bytes fit (or nothing evictable remains); returns resident bytes
  /// after eviction. Caller holds the exclusive lock.
  std::size_t EvictFor(std::size_t desired);
  /// The graph's EstimateSnapshotBytes, computed once per graph (the
  /// O(edges) scan) and memoized. Caller holds the exclusive lock.
  std::size_t FootprintOf(const Graph& graph);

  /// Delta ancestry recorded by NotifyDelta.
  struct DeltaHint {
    const Graph* base = nullptr;
    EdgeId first_dirty_edge = 0;
  };
  /// The nearest resident ancestor entry patchable into `key`, walking
  /// the delta-hint chain; sets `*watermark` to the combined dirty
  /// watermark. Caller holds the exclusive lock.
  const Entry* FindPatchSource(Key key, EdgeId* watermark) const;

  const std::size_t budget_bytes_;
  mutable std::shared_mutex mutex_;
  std::atomic<uint64_t> tick_{0};
  std::map<Key, Entry> pools_;
  std::map<const Graph*, std::size_t> footprints_;
  std::map<const Graph*, DeltaHint> deltas_;
  std::atomic<uint64_t> pools_built_{0};
  std::atomic<uint64_t> pool_reuses_{0};
  std::atomic<uint64_t> pools_evicted_{0};
  std::atomic<uint64_t> pools_patched_{0};
};

}  // namespace cwm

#endif  // CWM_SIMULATE_WORLD_POOL_H_
