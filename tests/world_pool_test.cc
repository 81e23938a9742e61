// Protocol tests for WorldPoolStore (simulate/world_pool.h): one build
// per key under concurrency, parallel builds of distinct keys, pools
// shared across estimators with one world-sequence identity, concurrent
// distinct-key builds held within the budget, LRU eviction
// of released pools only, and a store full of held pools building a
// shorter prefix instead of evicting.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "exp/configs.h"
#include "graph/graph_builder.h"
#include "model/allocation.h"
#include "obs/metrics.h"
#include "simulate/estimator.h"
#include "simulate/world_pool.h"

namespace cwm {
namespace {

/// The estimator-batch test graph: reproducible, mixed probabilities,
/// including the p = 0 and p = 1 EdgeWorld short-circuit cases.
Graph TestGraph() {
  GraphBuilder b(120);
  Rng rng(42);
  for (int e = 0; e < 600; ++e) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(120));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(120));
    if (u == v) continue;
    double p = rng.NextDouble();
    if (e % 17 == 0) p = 1.0;
    if (e % 23 == 0) p = 0.0;
    b.AddEdge(u, v, p);
  }
  return std::move(b).Build();
}

void ExpectStatsBitEqual(const WelfareStats& a, const WelfareStats& b) {
  EXPECT_EQ(a.welfare, b.welfare);
  EXPECT_EQ(a.adopting_nodes, b.adopting_nodes);
  ASSERT_EQ(a.adopters_per_item.size(), b.adopters_per_item.size());
  for (std::size_t i = 0; i < a.adopters_per_item.size(); ++i) {
    EXPECT_EQ(a.adopters_per_item[i], b.adopters_per_item[i]);
  }
}

TEST(WorldPoolStoreTest, ConcurrentSameKeyBuildsOnce) {
  // The serve daemon's workers hit one engine's store concurrently: all
  // same-key callers must share a single build and pointer. 2000 worlds
  // keep the build running while the other threads arrive, so they take
  // the wait-on-a-same-key-build path.
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  WorldPoolStore store(64ull << 20);
  const Counter& builds = MetricsRegistry::Global().GetCounter("pool.builds");
  const Counter& reuses = MetricsRegistry::Global().GetCounter("pool.reuses");
  const uint64_t builds_before = builds.value();
  const uint64_t reuses_before = reuses.value();
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const WorldPool>> pools(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      pools[t] = store.GetOrBuild(g, c, /*seed=*/77, /*num_worlds=*/2000,
                                  /*num_threads=*/1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(pools[t], nullptr);
    EXPECT_EQ(pools[t], pools[0]);
  }
  EXPECT_EQ(builds.value() - builds_before, 1u);
  EXPECT_EQ(reuses.value() - reuses_before, kThreads - 1u);
}

TEST(WorldPoolStoreTest, ConcurrentDistinctKeysAllMaterialize) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  WorldPoolStore store(256ull << 20);
  const Counter& builds = MetricsRegistry::Global().GetCounter("pool.builds");
  const uint64_t builds_before = builds.value();
  constexpr int kThreads = 6;
  std::vector<std::shared_ptr<const WorldPool>> pools(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Distinct seeds = distinct keys: builds may run in parallel.
      pools[t] = store.GetOrBuild(g, c, /*seed=*/100 + t,
                                  /*num_worlds=*/32, /*num_threads=*/1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(pools[t], nullptr);
    for (int u = 0; u < t; ++u) EXPECT_NE(pools[t], pools[u]);
  }
  EXPECT_EQ(builds.value() - builds_before, static_cast<uint64_t>(kThreads));
}

TEST(WorldPoolStoreTest, ConcurrentDistinctKeyBuildsStayWithinTheBudget) {
  // Distinct-key builds run in parallel outside the lock, so each must
  // reserve its share of the budget before it starts. With room for one
  // and a half pools, four builds started together hold one and a half
  // pools' worth in all, not four pools. 2000 worlds keep each build
  // running while the others reserve; five rounds give the race as many
  // chances to show.
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  constexpr int kThreads = 4;
  constexpr int kWorlds = 2000;
  const std::size_t per_world = EstimateSnapshotBytes(g);
  const std::size_t budget = per_world * kWorlds * 3 / 2;
  for (int round = 0; round < 5; ++round) {
    WorldPoolStore store(budget);
    std::vector<std::shared_ptr<const WorldPool>> pools(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        pools[t] = store.GetOrBuild(g, c, /*seed=*/200 + 10 * round + t,
                                    kWorlds, /*num_threads=*/1);
      });
    }
    for (std::thread& thread : threads) thread.join();
    std::size_t held = 0;
    for (const std::shared_ptr<const WorldPool>& pool : pools) {
      ASSERT_NE(pool, nullptr);
      held += static_cast<std::size_t>(pool->stats().snapshotted) * per_world;
    }
    EXPECT_LE(held, budget) << "round " << round;
  }
}

// Two estimators with one world-sequence identity resolve to one pool:
// the second builds nothing and scores the same candidates bit-equally.
TEST(WorldPoolStoreTest, SharesPoolsAcrossEstimators) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  Allocation spread(c.num_items());
  for (NodeId v = 0; v < 10; ++v) spread.Add(v * 11, v % 2);
  const std::vector<Allocation> candidates = {Allocation(c.num_items()),
                                              spread};
  WorldPoolStore store(64ull << 20);
  const Counter& builds = MetricsRegistry::Global().GetCounter("pool.builds");
  const Counter& reuses = MetricsRegistry::Global().GetCounter("pool.reuses");
  const uint64_t builds_before = builds.value();
  const uint64_t reuses_before = reuses.value();
  const EstimatorOptions opts{
      .num_worlds = 64, .seed = 55, .num_threads = 2, .pool_store = &store};
  const WelfareEstimator first(g, c, opts);
  const std::vector<WelfareStats> a = first.StatsBatch(candidates);
  EXPECT_EQ(builds.value() - builds_before, 1u);
  const WelfareEstimator second(g, c, opts);
  const std::vector<WelfareStats> b = second.StatsBatch(candidates);
  EXPECT_EQ(builds.value() - builds_before, 1u);
  EXPECT_EQ(reuses.value() - reuses_before, 1u);
  EXPECT_EQ(first.snapshot_stats().snapshotted, 64);
  EXPECT_EQ(second.snapshot_stats().snapshotted, 64);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) ExpectStatsBitEqual(a[j], b[j]);
}

// ---- WorldPoolStore eviction -------------------------------------------

constexpr int kLruWorlds = 10;

// A store holding about two and a half 10-world pools of TestGraph(), so
// a third pool needs exactly one eviction to fit whole.
std::size_t TwoAndAHalfPools(const Graph& g) {
  return EstimateSnapshotBytes(g) * kLruWorlds * 5 / 2;
}

struct PoolCounters {
  const Counter& builds = MetricsRegistry::Global().GetCounter("pool.builds");
  const Counter& reuses = MetricsRegistry::Global().GetCounter("pool.reuses");
  const Counter& evictions =
      MetricsRegistry::Global().GetCounter("pool.evictions");
};

TEST(WorldPoolStoreTest, EvictsReleasedPoolsLeastRecentlyUsedFirst) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  WorldPoolStore store(TwoAndAHalfPools(g));
  const PoolCounters counters;
  ASSERT_NE(store.GetOrBuild(g, c, /*seed=*/1, kLruWorlds, 1), nullptr);
  ASSERT_NE(store.GetOrBuild(g, c, /*seed=*/2, kLruWorlds, 1), nullptr);
  // Touching pool 1 makes pool 2 the least recently used.
  ASSERT_NE(store.GetOrBuild(g, c, /*seed=*/1, kLruWorlds, 1), nullptr);
  const uint64_t evictions_before = counters.evictions.value();
  const std::shared_ptr<const WorldPool> third =
      store.GetOrBuild(g, c, /*seed=*/3, kLruWorlds, 1);
  EXPECT_EQ(counters.evictions.value() - evictions_before, 1u);
  EXPECT_EQ(third->stats().snapshotted, kLruWorlds);

  const uint64_t builds_before = counters.builds.value();
  store.GetOrBuild(g, c, /*seed=*/1, kLruWorlds, 1);  // still resident
  EXPECT_EQ(counters.builds.value(), builds_before);
  store.GetOrBuild(g, c, /*seed=*/2, kLruWorlds, 1);  // was evicted
  EXPECT_EQ(counters.builds.value() - builds_before, 1u);
}

TEST(WorldPoolStoreTest, NeverEvictsHeldPools) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  WorldPoolStore store(TwoAndAHalfPools(g));
  const PoolCounters counters;
  // Pool 1 is the least recently used, but an estimator still holds it.
  const std::shared_ptr<const WorldPool> held =
      store.GetOrBuild(g, c, /*seed=*/1, kLruWorlds, 1);
  ASSERT_NE(store.GetOrBuild(g, c, /*seed=*/2, kLruWorlds, 1), nullptr);
  const uint64_t evictions_before = counters.evictions.value();
  ASSERT_NE(store.GetOrBuild(g, c, /*seed=*/3, kLruWorlds, 1), nullptr);
  EXPECT_EQ(counters.evictions.value() - evictions_before, 1u);

  const uint64_t builds_before = counters.builds.value();
  const uint64_t reuses_before = counters.reuses.value();
  EXPECT_EQ(store.GetOrBuild(g, c, /*seed=*/1, kLruWorlds, 1), held);
  EXPECT_EQ(counters.builds.value(), builds_before);
  EXPECT_EQ(counters.reuses.value() - reuses_before, 1u);
  store.GetOrBuild(g, c, /*seed=*/2, kLruWorlds, 1);  // was evicted
  EXPECT_EQ(counters.builds.value() - builds_before, 1u);
}

TEST(WorldPoolStoreTest, FullOfHeldPoolsBuildsAShorterPrefix) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  WorldPoolStore store(TwoAndAHalfPools(g));
  const PoolCounters counters;
  const std::shared_ptr<const WorldPool> first =
      store.GetOrBuild(g, c, /*seed=*/1, kLruWorlds, 1);
  const std::shared_ptr<const WorldPool> second =
      store.GetOrBuild(g, c, /*seed=*/2, kLruWorlds, 1);
  const uint64_t evictions_before = counters.evictions.value();
  const std::shared_ptr<const WorldPool> third =
      store.GetOrBuild(g, c, /*seed=*/3, kLruWorlds, 1);
  // Nothing is evictable: the new pool materializes what the remaining
  // budget holds and streams the rest.
  EXPECT_EQ(counters.evictions.value(), evictions_before);
  EXPECT_GT(third->stats().snapshotted, 0);
  EXPECT_LT(third->stats().snapshotted, kLruWorlds);
  EXPECT_EQ(third->stats().num_worlds, kLruWorlds);
}

}  // namespace
}  // namespace cwm
