#include "simulate/world_pool.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simulate/packed_world.h"
#include "support/check.h"
#include "support/thread_pool.h"

namespace cwm {

namespace {

// One snapshot-build scratch per worker ParallelForWorkers can run over
// `worlds` worlds, all sharing `thresholds`.
std::vector<WorldSnapshot::Scratch> WorkerScratch(
    std::span<const uint64_t> thresholds, std::size_t worlds,
    unsigned num_threads) {
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(
             num_threads == 0 ? DefaultThreads() : num_threads, worlds));
  std::vector<WorldSnapshot::Scratch> scratch(workers);
  for (WorldSnapshot::Scratch& s : scratch) s.thresholds = thresholds;
  return scratch;
}

}  // namespace

WorldSnapshot::WorldSnapshot(const Graph& graph, const UtilityConfig& config,
                             uint64_t edge_seed, Rng noise_rng,
                             Scratch* scratch)
    : table_(config, noise_rng) {
  std::vector<uint64_t> thresholds;
  Scratch local;
  if (scratch == nullptr) {
    thresholds = CoinThresholds(graph);
    local.thresholds = thresholds;
    scratch = &local;
  }
  offsets_.resize(graph.num_nodes() + 1);
  offsets_[0] = 0;
  const std::size_t live = FlipSuffix(graph, edge_seed, 0, 0, *scratch);
  targets_.assign(scratch->live.begin(), scratch->live.begin() + live);
}

WorldSnapshot::WorldSnapshot(const Graph& graph, const WorldSnapshot& prior,
                             uint64_t edge_seed, EdgeId first_dirty_edge,
                             Scratch* scratch)
    : table_(prior.table_) {
  std::vector<uint64_t> thresholds;
  Scratch local;
  if (scratch == nullptr) {
    thresholds = CoinThresholds(graph);
    local.thresholds = thresholds;
    scratch = &local;
  }
  const std::size_t n = graph.num_nodes();
  const std::span<const uint64_t> offsets = graph.RawOutOffsets();
  offsets_.resize(n + 1);
  offsets_[0] = 0;
  // Nodes whose whole out-range sits below the dirty watermark have
  // identical (position, endpoint, probability) edges in both graphs, so
  // their coins — keyed by positional EdgeId — cannot differ: copy their
  // live targets from the prior world instead of re-flipping.
  NodeId resume = 0;
  while (resume < n && offsets[resume + 1] <= first_dirty_edge) ++resume;
  const uint32_t clean = prior.offsets_[resume];
  std::copy(prior.offsets_.begin() + 1, prior.offsets_.begin() + resume + 1,
            offsets_.begin() + 1);
  const std::size_t live =
      FlipSuffix(graph, edge_seed, resume, clean, *scratch);
  targets_.reserve(clean + live);
  targets_.assign(prior.targets_.begin(), prior.targets_.begin() + clean);
  targets_.insert(targets_.end(), scratch->live.begin(),
                  scratch->live.begin() + live);
}

std::size_t WorldSnapshot::FlipSuffix(const Graph& graph, uint64_t edge_seed,
                                      NodeId first, uint32_t live_before,
                                      Scratch& scratch) {
  const std::span<const uint64_t> offsets = graph.RawOutOffsets();
  const auto edges = graph.RawOutEdges();
  const std::size_t n = graph.num_nodes();
  const uint64_t begin = offsets[first];
  if (scratch.live.size() < edges.size() - begin) {
    scratch.live.resize(edges.size() - begin);
  }
  NodeId* live = scratch.live.data();
  std::size_t count = 0;
  for (NodeId u = first; u < n; ++u) {
    for (uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      live[count] = edges[e].to;
      count += CoinLive(edge_seed, static_cast<EdgeId>(e),
                        scratch.thresholds[e]);
    }
    offsets_[u + 1] = live_before + static_cast<uint32_t>(count);
  }
  return count;
}

std::size_t EstimateSnapshotBytes(const Graph& graph) {
  // Estimating instead of counting avoids a second full coin-flip pass;
  // the estimate is deterministic, so budget cutoffs derived from it
  // never depend on sampled worlds or threads.
  double expected_live = 0.0;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (const OutEdge& e : graph.OutEdges(u)) {
      expected_live += std::min(1.0f, std::max(0.0f, e.prob));
    }
  }
  return (graph.num_nodes() + 1) * sizeof(uint32_t) +
         static_cast<std::size_t>(std::ceil(expected_live)) * sizeof(NodeId);
}

WorldPool::WorldPool(const Graph& graph, const UtilityConfig& config,
                     uint64_t seed, int num_worlds,
                     std::size_t budget_bytes, unsigned num_threads,
                     std::size_t per_world_bytes)
    : num_worlds_(num_worlds) {
  // Materialization disabled: skip even the footprint-estimate edge scan.
  if (budget_bytes == 0) return;
  CWM_TRACE_SPAN("simulate.materialize_pool",
                 {{"worlds", num_worlds},
                  {"budget_bytes", budget_bytes},
                  {"seed", seed}});
  if (per_world_bytes == 0) per_world_bytes = EstimateSnapshotBytes(graph);
  const std::size_t limit = budget_bytes / per_world_bytes;
  const std::size_t prefix =
      std::min<std::size_t>(static_cast<std::size_t>(num_worlds), limit);

  snapshots_.resize(prefix);
  if (prefix == 0) return;
  const std::vector<uint64_t> thresholds = CoinThresholds(graph);
  std::vector<WorldSnapshot::Scratch> scratch =
      WorkerScratch(thresholds, prefix, num_threads);
  ParallelForWorkers(
      prefix,
      [&](std::size_t worker, std::size_t w) {
        snapshots_[w] = std::make_unique<WorldSnapshot>(
            graph, config, WorldEdgeSeedOf(seed, static_cast<int>(w)),
            WorldNoiseRngOf(seed, static_cast<int>(w)), &scratch[worker]);
      },
      num_threads);
}

WorldPool::WorldPool(const Graph& graph, const UtilityConfig& config,
                     uint64_t seed, int num_worlds,
                     std::size_t budget_bytes, unsigned num_threads,
                     std::size_t per_world_bytes, const WorldPool& prior,
                     EdgeId first_dirty_edge)
    : num_worlds_(num_worlds) {
  if (budget_bytes == 0) return;
  CWM_TRACE_SPAN("simulate.patch_pool",
                 {{"worlds", num_worlds},
                  {"budget_bytes", budget_bytes},
                  {"first_dirty_edge", first_dirty_edge}});
  // The prefix cutoff is recomputed on the *new* graph exactly as the
  // cold constructor computes it, so patched and cold pools materialize
  // the same worlds; only the per-world construction differs.
  if (per_world_bytes == 0) per_world_bytes = EstimateSnapshotBytes(graph);
  const std::size_t limit = budget_bytes / per_world_bytes;
  const std::size_t prefix =
      std::min<std::size_t>(static_cast<std::size_t>(num_worlds), limit);

  snapshots_.resize(prefix);
  if (prefix == 0) return;
  const std::vector<uint64_t> thresholds = CoinThresholds(graph);
  std::vector<WorldSnapshot::Scratch> scratch =
      WorkerScratch(thresholds, prefix, num_threads);
  ParallelForWorkers(
      prefix,
      [&](std::size_t worker, std::size_t w) {
        const int world = static_cast<int>(w);
        const WorldSnapshot* prev = prior.Get(world);
        snapshots_[w] =
            prev != nullptr
                ? std::make_unique<WorldSnapshot>(
                      graph, *prev, WorldEdgeSeedOf(seed, world),
                      first_dirty_edge, &scratch[worker])
                : std::make_unique<WorldSnapshot>(
                      graph, config, WorldEdgeSeedOf(seed, world),
                      WorldNoiseRngOf(seed, world), &scratch[worker]);
      },
      num_threads);
}

WorldPoolStats WorldPool::stats() const {
  WorldPoolStats stats;
  stats.num_worlds = num_worlds_;
  stats.snapshotted = static_cast<int>(snapshots_.size());
  for (const auto& snapshot : snapshots_) stats.bytes += snapshot->bytes();
  return stats;
}

namespace {

// Process-wide twins of the per-store counters (same increment sites),
// read by `--metrics` and the stderr formatter.
Counter& PoolBuildsCounter() {
  static Counter& counter = MetricsRegistry::Global().GetCounter("pool.builds");
  return counter;
}
Counter& PoolReusesCounter() {
  static Counter& counter = MetricsRegistry::Global().GetCounter("pool.reuses");
  return counter;
}
Counter& PoolEvictionsCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("pool.evictions");
  return counter;
}
Counter& PoolPatchesCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("pool.patches");
  return counter;
}

}  // namespace

std::size_t WorldPoolStore::FootprintOf(const Graph& graph) {
  auto [it, inserted] = footprints_.try_emplace(&graph);
  if (inserted) it->second = EstimateSnapshotBytes(graph);
  return it->second;
}

void WorldPoolStore::NotifyDelta(const Graph& old_graph,
                                 const Graph& new_graph,
                                 EdgeId first_dirty_edge) {
  const std::unique_lock<std::shared_mutex> lock(mutex_);
  // Address-reuse insurance: anything memoized under the new graph's
  // address describes a dead object, never this graph.
  footprints_.erase(&new_graph);
  for (auto it = pools_.begin(); it != pools_.end();) {
    if (it->first.graph == &new_graph &&
        it->second.ready.load(std::memory_order_relaxed)) {
      it = pools_.erase(it);
    } else {
      ++it;
    }
  }
  deltas_[&new_graph] = DeltaHint{&old_graph, first_dirty_edge};
}

const WorldPoolStore::Entry* WorldPoolStore::FindPatchSource(
    Key key, EdgeId* watermark) const {
  // Walk the delta ancestry toward the base until a resident same-identity
  // entry appears; edits below every hop's watermark left edge positions,
  // endpoints, and probabilities untouched, so the combined watermark is
  // the minimum along the walk.
  EdgeId combined = key.graph == nullptr ? 0 : ~EdgeId{0};
  const Graph* cursor = key.graph;
  while (true) {
    const auto hint = deltas_.find(cursor);
    if (hint == deltas_.end()) return nullptr;
    combined = std::min(combined, hint->second.first_dirty_edge);
    cursor = hint->second.base;
    key.graph = cursor;
    if (const auto it = pools_.find(key);
        it != pools_.end() &&
        it->second.ready.load(std::memory_order_acquire)) {
      *watermark = combined;
      return &it->second;
    }
  }
}

std::size_t WorldPoolStore::EvictFor(std::size_t desired) {
  std::size_t resident = 0;
  for (const auto& [k, entry] : pools_) resident += entry.bytes;
  // Make room LRU-first, but never drop a pool an estimator still holds
  // (evicting it would not free memory, only forfeit future reuse) and
  // never a building entry (its bytes are a reservation another thread
  // is actively filling, and waiters hold its future).
  while (resident + desired > budget_bytes_) {
    auto victim = pools_.end();
    for (auto it = pools_.begin(); it != pools_.end(); ++it) {
      if (!it->second.ready.load(std::memory_order_relaxed)) continue;
      if (it->second.use_count() > 1) continue;
      if (victim == pools_.end() ||
          it->second.last_use.load(std::memory_order_relaxed) <
              victim->second.last_use.load(std::memory_order_relaxed)) {
        victim = it;
      }
    }
    if (victim == pools_.end()) break;
    resident -= victim->second.bytes;
    pools_.erase(victim);
    PoolEvictionsCounter().Add(1);
    pools_evicted_.fetch_add(1, std::memory_order_relaxed);
  }
  return resident;
}

std::shared_ptr<const WorldPool> WorldPoolStore::GetOrBuild(
    const Graph& graph, const UtilityConfig& config, uint64_t seed,
    int num_worlds, unsigned num_threads) {
  const Key key{&graph, &config, seed, num_worlds, /*chunks=*/0};

  // Fast path: resident pools serve under a shared lock, so concurrent
  // requests (a serving worker pool evaluating many requests against one
  // engine) never contend once the pool exists.
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    if (auto it = pools_.find(key);
        it != pools_.end() && it->second.ready.load(std::memory_order_acquire)) {
      PoolReusesCounter().Add(1);
      pool_reuses_.fetch_add(1, std::memory_order_relaxed);
      it->second.last_use.store(
          tick_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      return it->second.pool;
    }
  }

  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (;;) {
    auto it = pools_.find(key);
    if (it == pools_.end()) break;
    if (it->second.ready.load(std::memory_order_acquire)) {
      PoolReusesCounter().Add(1);
      pool_reuses_.fetch_add(1, std::memory_order_relaxed);
      it->second.last_use.store(
          tick_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      return it->second.pool;
    }
    // Another thread is building this key: wait on its build outside the
    // lock, then re-check (the finished entry could have been evicted in
    // the window, in which case we become the builder).
    std::shared_future<void> build = it->second.build;
    lock.unlock();
    build.wait();
    lock.lock();
  }

  // Miss: reserve the key and its budget estimate under the lock, build
  // outside it. One footprint estimate per graph feeds the reservation,
  // the eviction target, and the pool's own prefix cutoff.
  const std::size_t per_world_bytes = FootprintOf(graph);
  // A resident pre-delta pool with this identity turns the build into a
  // prefix-copy patch. Pin it before the eviction scan (the pin also
  // shields it from being evicted out from under the build).
  EdgeId watermark = 0;
  std::shared_ptr<const WorldPool> prior;
  if (const Entry* source = FindPatchSource(key, &watermark);
      source != nullptr) {
    prior = source->pool;
  }
  const std::size_t desired = std::min(
      budget_bytes_, per_world_bytes * static_cast<std::size_t>(num_worlds));
  const std::size_t resident = EvictFor(desired);
  const std::size_t remaining =
      budget_bytes_ > resident ? budget_bytes_ - resident : 0;
  std::promise<void> done;
  auto [it, inserted] = pools_.try_emplace(key);
  CWM_CHECK(inserted);
  Entry& entry = it->second;
  entry.bytes = std::min(desired, remaining);  // reservation until built
  entry.build = done.get_future().share();
  entry.last_use.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  lock.unlock();

  auto pool =
      prior != nullptr
          ? std::make_shared<const WorldPool>(graph, config, seed,
                                              num_worlds, remaining,
                                              num_threads, per_world_bytes,
                                              *prior, watermark)
          : std::make_shared<const WorldPool>(graph, config, seed,
                                              num_worlds, remaining,
                                              num_threads, per_world_bytes);

  lock.lock();
  entry.pool = pool;  // the entry cannot be evicted while !ready
  entry.bytes = pool->stats().bytes;
  entry.ready.store(true, std::memory_order_release);
  PoolBuildsCounter().Add(1);
  pools_built_.fetch_add(1, std::memory_order_relaxed);
  if (prior != nullptr) {
    PoolPatchesCounter().Add(1);
    pools_patched_.fetch_add(1, std::memory_order_relaxed);
  }
  lock.unlock();
  done.set_value();
  return pool;
}

std::shared_ptr<const PackedWorldSet> WorldPoolStore::GetOrBuildPacked(
    const Graph& graph, const UtilityConfig& config, uint64_t seed,
    int num_worlds, std::size_t chunks, unsigned num_threads) {
  // Same counters and build discipline as GetOrBuild: a packed set is the
  // same cached artifact (one key's materialized world sequence) in a
  // different layout, so the `--metrics` pool counters and the stderr
  // "pools:" line cover both.
  const Key key{&graph, &config, seed, num_worlds, chunks};

  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    if (auto it = pools_.find(key);
        it != pools_.end() && it->second.ready.load(std::memory_order_acquire)) {
      PoolReusesCounter().Add(1);
      pool_reuses_.fetch_add(1, std::memory_order_relaxed);
      it->second.last_use.store(
          tick_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      return it->second.packed;
    }
  }

  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (;;) {
    auto it = pools_.find(key);
    if (it == pools_.end()) break;
    if (it->second.ready.load(std::memory_order_acquire)) {
      PoolReusesCounter().Add(1);
      pool_reuses_.fetch_add(1, std::memory_order_relaxed);
      it->second.last_use.store(
          tick_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      return it->second.packed;
    }
    std::shared_future<void> build = it->second.build;
    lock.unlock();
    build.wait();
    lock.lock();
  }

  // All-or-nothing: a partially packed set has no transparent fallback
  // per world, so refuse (before reserving anything) rather than
  // overshoot the budget. A refusal inserts no entry — concurrent
  // same-key callers each re-evaluate, which only costs repeated
  // eviction scans, never repeated builds.
  const std::size_t desired = PackedWorldSet::EstimateBytes(
      graph, config.num_items(), num_worlds, chunks);
  if (desired > budget_bytes_) return nullptr;
  // Same patch opportunity as the snapshot path: a resident pre-delta
  // packed set with this identity is prefix-copied below the watermark.
  EdgeId watermark = 0;
  std::shared_ptr<const PackedWorldSet> prior;
  if (const Entry* source = FindPatchSource(key, &watermark);
      source != nullptr) {
    prior = source->packed;
  }
  const std::size_t resident = EvictFor(desired);
  if (resident + desired > budget_bytes_) return nullptr;

  std::promise<void> done;
  auto [it, inserted] = pools_.try_emplace(key);
  CWM_CHECK(inserted);
  Entry& entry = it->second;
  entry.bytes = desired;  // reservation until built
  entry.build = done.get_future().share();
  entry.last_use.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  lock.unlock();

  auto packed =
      prior != nullptr
          ? std::make_shared<const PackedWorldSet>(graph, *prior, seed,
                                                   watermark, num_threads)
          : std::make_shared<const PackedWorldSet>(
                graph, config, seed, num_worlds, chunks, num_threads);

  lock.lock();
  entry.packed = packed;
  entry.bytes = packed->bytes();
  entry.ready.store(true, std::memory_order_release);
  PoolBuildsCounter().Add(1);
  pools_built_.fetch_add(1, std::memory_order_relaxed);
  if (prior != nullptr) {
    PoolPatchesCounter().Add(1);
    pools_patched_.fetch_add(1, std::memory_order_relaxed);
  }
  lock.unlock();
  done.set_value();
  return packed;
}

WorldPoolStoreStats WorldPoolStore::stats() const {
  const std::shared_lock<std::shared_mutex> lock(mutex_);
  WorldPoolStoreStats stats;
  stats.pools_built = pools_built_.load(std::memory_order_relaxed);
  stats.pool_reuses = pool_reuses_.load(std::memory_order_relaxed);
  stats.pools_evicted = pools_evicted_.load(std::memory_order_relaxed);
  stats.pools_patched = pools_patched_.load(std::memory_order_relaxed);
  stats.resident_pools = pools_.size();
  for (const auto& [key, entry] : pools_) stats.resident_bytes += entry.bytes;
  return stats;
}

}  // namespace cwm
