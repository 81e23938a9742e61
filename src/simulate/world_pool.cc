#include "simulate/world_pool.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"
#include "support/thread_pool.h"

namespace cwm {

WorldSnapshot::WorldSnapshot(const Graph& graph, const UtilityConfig& config,
                             uint64_t edge_seed, Rng noise_rng,
                             Scratch* scratch, const WorldSnapshot* prior,
                             EdgeId first_dirty_edge)
    : table_(prior != nullptr ? prior->table_
                              : WorldUtilityTable(config, noise_rng)) {
  std::vector<uint64_t> thresholds;
  Scratch local;
  if (scratch == nullptr) {
    thresholds = CoinThresholds(graph);
    local.thresholds = thresholds;
    scratch = &local;
  }
  const std::size_t n = graph.num_nodes();
  offsets_.resize(n + 1);
  offsets_[0] = 0;
  // Nodes whose whole out-range sits below the dirty watermark have
  // identical (position, endpoint, probability) edges in both graphs, so
  // their coins — keyed by positional EdgeId — cannot differ: copy their
  // live targets from the prior world instead of re-flipping.
  NodeId resume = 0;
  uint32_t clean = 0;
  if (prior != nullptr) {
    const std::span<const uint64_t> offsets = graph.RawOutOffsets();
    while (resume < n && offsets[resume + 1] <= first_dirty_edge) ++resume;
    clean = prior->offsets_[resume];
    std::copy(prior->offsets_.begin() + 1,
              prior->offsets_.begin() + resume + 1, offsets_.begin() + 1);
  }
  const std::size_t live =
      FlipSuffix(graph, edge_seed, resume, clean, *scratch);
  targets_.reserve(clean + live);
  if (prior != nullptr) {
    targets_.assign(prior->targets_.begin(), prior->targets_.begin() + clean);
  }
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
                     std::size_t per_world_bytes, const WorldPool* prior,
                     EdgeId first_dirty_edge)
    : num_worlds_(num_worlds) {
  // Materialization disabled: skip even the footprint-estimate edge scan.
  if (budget_bytes == 0) return;
  CWM_TRACE_SPAN(
      prior == nullptr ? "simulate.materialize_pool" : "simulate.patch_pool",
      {{"worlds", num_worlds},
       {"budget_bytes", budget_bytes},
       prior == nullptr ? TraceArg{"seed", seed}
                        : TraceArg{"first_dirty_edge", first_dirty_edge}});
  // The prefix cutoff depends on `graph` and the budget alone, so patched
  // and cold pools materialize the same worlds.
  if (per_world_bytes == 0) per_world_bytes = EstimateSnapshotBytes(graph);
  const std::size_t limit = budget_bytes / per_world_bytes;
  const std::size_t prefix =
      std::min<std::size_t>(static_cast<std::size_t>(num_worlds), limit);

  snapshots_.resize(prefix);
  if (prefix == 0) return;
  // One build scratch per worker ParallelForWorkers can run, all sharing
  // one coin threshold table.
  const std::vector<uint64_t> thresholds = CoinThresholds(graph);
  std::vector<WorldSnapshot::Scratch> scratch(std::min<std::size_t>(
      num_threads == 0 ? DefaultThreads() : num_threads, prefix));
  for (WorldSnapshot::Scratch& s : scratch) s.thresholds = thresholds;
  ParallelForWorkers(
      prefix,
      [&](std::size_t worker, std::size_t w) {
        const int world = static_cast<int>(w);
        snapshots_[w] = std::make_unique<WorldSnapshot>(
            graph, config, WorldEdgeSeedOf(seed, world),
            WorldNoiseRngOf(seed, world), &scratch[worker],
            prior != nullptr ? prior->Get(world) : nullptr, first_dirty_edge);
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
      if (it->second.pool.use_count() > 1) continue;
      if (victim == pools_.end() ||
          it->second.last_use.load(std::memory_order_relaxed) <
              victim->second.last_use.load(std::memory_order_relaxed)) {
        victim = it;
      }
    }
    if (victim == pools_.end()) break;
    resident -= victim->second.bytes;
    pools_.erase(victim);
    static Counter& evictions =
        MetricsRegistry::Global().GetCounter("pool.evictions");
    evictions.Add(1);
  }
  return resident;
}

std::shared_ptr<const WorldPool> WorldPoolStore::GetOrBuild(
    const Graph& graph, const UtilityConfig& config, uint64_t seed,
    int num_worlds, unsigned num_threads) {
  const Key key{&graph, &config, seed, num_worlds};
  // The pool.* counters are the one count of pool events, summed over
  // every store of the process: `--metrics` dumps them and cwm_run prints
  // their per-sweep differences. Each registers at its first event.
  const auto reuse = [this](Entry& entry) {
    static Counter& reuses =
        MetricsRegistry::Global().GetCounter("pool.reuses");
    reuses.Add(1);
    entry.last_use.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    return entry.pool;
  };
  // Fast path: resident pools serve under a shared lock, so concurrent
  // requests (a serving worker pool evaluating many requests against one
  // engine) never contend once the pool exists.
  {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    if (auto it = pools_.find(key);
        it != pools_.end() && it->second.ready.load(std::memory_order_acquire)) {
      return reuse(it->second);
    }
  }

  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (;;) {
    auto it = pools_.find(key);
    if (it == pools_.end()) break;
    if (it->second.ready.load(std::memory_order_acquire)) {
      return reuse(it->second);
    }
    // Another thread is building this key: wait on its build outside the
    // lock, then re-check (the finished entry could have been evicted in
    // the window, in which case we become the builder).
    std::shared_future<void> pending = it->second.build;
    lock.unlock();
    pending.wait();
    lock.lock();
  }

  // Miss: reserve the key and its budget under the lock, build outside
  // it. One footprint estimate per graph feeds the reservation, the
  // eviction target, and the pool's own prefix cutoff. A resident
  // pre-delta pool with this identity turns the build into a prefix-copy
  // patch. Pin it before the eviction scan (the pin also shields it from
  // being evicted out from under the build).
  const std::size_t per_world_bytes = FootprintOf(graph);
  const std::size_t want = std::min(
      budget_bytes_, per_world_bytes * static_cast<std::size_t>(num_worlds));
  EdgeId watermark = 0;
  std::shared_ptr<const WorldPool> prior;
  if (const Entry* source = FindPatchSource(key, &watermark);
      source != nullptr) {
    prior = source->pool;
  }
  const std::size_t resident = EvictFor(want);
  const std::size_t remaining =
      budget_bytes_ > resident ? budget_bytes_ - resident : 0;
  std::promise<void> done;
  auto [it, inserted] = pools_.try_emplace(key);
  CWM_CHECK(inserted);
  Entry& entry = it->second;
  entry.bytes = std::min(want, remaining);  // reservation until built
  entry.build = done.get_future().share();
  entry.last_use.store(tick_.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  lock.unlock();

  auto pool = std::make_shared<const WorldPool>(
      graph, config, seed, num_worlds, remaining, num_threads,
      per_world_bytes, prior.get(), watermark);
  const std::size_t bytes = pool->stats().bytes;

  lock.lock();
  entry.pool = pool;  // the entry cannot be evicted while !ready
  entry.bytes = bytes;
  entry.ready.store(true, std::memory_order_release);
  static Counter& builds = MetricsRegistry::Global().GetCounter("pool.builds");
  builds.Add(1);
  if (prior != nullptr) {  // a patch is also a build
    static Counter& patches =
        MetricsRegistry::Global().GetCounter("pool.patches");
    patches.Add(1);
  }
  lock.unlock();
  done.set_value();
  return pool;
}

}  // namespace cwm
