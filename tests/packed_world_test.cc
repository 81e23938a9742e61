// Bit-equality tests for the word-parallel diffusion kernel
// (simulate/packed_world.h): every lane of every packed block must
// reproduce the scalar UicSimulator outcome of its world exactly, and the
// estimator's packed batch paths must be bit-identical to the scalar
// snapshot/streaming paths — at 1/2/8 threads, across full and partial
// lane blocks (worlds 1/63/64/65/1000), for empty allocations, under the
// zero-budget fallback, with the wide (AVX2-dispatched) arm on or off,
// and on a graph with every edge-coin edge case (tests/coin_edge_graph.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "coin_edge_graph.h"
#include "exp/configs.h"
#include "graph/graph_builder.h"
#include "model/allocation.h"
#include "obs/metrics.h"
#include "simulate/estimator.h"
#include "simulate/packed_world.h"
#include "simulate/uic_simulator.h"
#include "simulate/world.h"
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

/// Candidate allocations spanning the shapes the algorithms submit.
std::vector<Allocation> Candidates(int num_items) {
  std::vector<Allocation> out;
  out.emplace_back(num_items);  // empty allocation
  Allocation single(num_items);
  single.Add(3, 0);
  out.push_back(single);
  Allocation spread(num_items);
  for (NodeId v = 0; v < 10; ++v) spread.Add(v * 11, 0);
  out.push_back(spread);
  if (num_items >= 2) {
    Allocation both(num_items);
    both.Add(5, 0);
    both.Add(5, 1);
    both.Add(40, 1);
    out.push_back(both);
  }
  for (ItemId i = 2; i < num_items; ++i) {
    Allocation extra(num_items);
    for (NodeId v = 0; v < 4; ++v) extra.Add(v * 13 + i, i);
    out.push_back(extra);
  }
  return out;
}

void ExpectStatsBitEqual(const WelfareStats& a, const WelfareStats& b) {
  EXPECT_EQ(a.welfare, b.welfare);
  EXPECT_EQ(a.adopting_nodes, b.adopting_nodes);
  ASSERT_EQ(a.adopters_per_item.size(), b.adopters_per_item.size());
  for (std::size_t i = 0; i < a.adopters_per_item.size(); ++i) {
    EXPECT_EQ(a.adopters_per_item[i], b.adopters_per_item[i]);
  }
}

EstimatorOptions PackedOpts(int worlds, unsigned threads, uint64_t seed) {
  return {.num_worlds = worlds,
          .seed = seed,
          .num_threads = threads,
          .packed_min_worlds = 1,
          .packed_min_mean_prob = 0.0};
}

EstimatorOptions ScalarOpts(int worlds, unsigned threads, uint64_t seed) {
  return {.num_worlds = worlds,
          .seed = seed,
          .num_threads = threads,
          .packed_kernel = false};
}

// Lane-level harness: every lane of every block must reproduce the scalar
// simulator's WorldOutcome for world `c + (b*64 + l) * chunks` exactly —
// the most surgical check of the lane order, edge masks, transition
// planes, and canonical aggregation.
TEST(PackedWorldTest, EveryLaneMatchesScalarWorldOutcome) {
  const Graph g = TestGraph();
  for (const UtilityConfig& c :
       {MakeConfigC5(), MakeConfigC1(), MakeThreeItemConfig()}) {
    const uint64_t seed = 0xFEEDu ^ static_cast<uint64_t>(c.num_items());
    const int num_worlds = 130;
    const std::size_t chunks = 3;
    const PackedWorldSet set(g, c, seed, num_worlds, chunks,
                             /*num_threads=*/2);
    ASSERT_EQ(set.chunks(), chunks);
    UicSimulator sim(g, c);
    PackedDiffusion engine(g, c);
    const std::vector<Allocation> candidates = Candidates(c.num_items());
    for (const Allocation& alloc : candidates) {
      for (std::size_t ch = 0; ch < chunks; ++ch) {
        const auto blocks = set.ChunkBlocks(ch);
        for (std::size_t b = 0; b < blocks.size(); ++b) {
          const PackedWorldSet::Block* block = &blocks[b];
          PackedOutcome out;
          engine.Run(&block, 1, alloc, &out);
          for (int l = 0; l < block->lane_count; ++l) {
            const int w = static_cast<int>(
                ch + (b * kPackedLanes + static_cast<std::size_t>(l)) *
                         chunks);
            ASSERT_LT(w, num_worlds);
            const EdgeWorld edges{WorldEdgeSeedOf(seed, w)};
            Rng noise_rng = WorldNoiseRngOf(seed, w);
            const WorldUtilityTable table(c, noise_rng);
            const WorldOutcome ref = sim.RunWorld(alloc, edges, table);
            EXPECT_EQ(out.welfare[l], ref.welfare) << "world " << w;
            EXPECT_EQ(out.adopting_nodes[l], ref.adopting_nodes);
            EXPECT_EQ(out.one_sided_01[l], ref.one_sided_exposure_01);
            for (ItemId i = 0; i < c.num_items(); ++i) {
              EXPECT_EQ(
                  out.adopters[static_cast<std::size_t>(i) * kPackedLanes +
                               l],
                  ref.adopters_per_item[i])
                  << "world " << w << " item " << i;
            }
          }
        }
      }
    }
  }
}

class PackedBatchTest
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(PackedBatchTest, StatsBatchBitEqualsScalar) {
  const auto [threads, worlds] = GetParam();
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  const std::vector<Allocation> candidates = Candidates(c.num_items());
  const WelfareEstimator packed(g, c, PackedOpts(worlds, threads, 77));
  const WelfareEstimator scalar(g, c, ScalarOpts(worlds, threads, 77));
  const std::vector<WelfareStats> got = packed.StatsBatch(candidates);
  const std::vector<WelfareStats> want = scalar.StatsBatch(candidates);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    ExpectStatsBitEqual(got[j], want[j]);
  }
  // The packed estimator never materialized scalar snapshots.
  EXPECT_EQ(packed.snapshot_stats().snapshotted, 0);
}

TEST_P(PackedBatchTest, MarginalBatchesBitEqualScalar) {
  const auto [threads, worlds] = GetParam();
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  const std::vector<Allocation> extras = Candidates(c.num_items());
  const WelfareEstimator packed(g, c, PackedOpts(worlds, threads, 99));
  const WelfareEstimator scalar(g, c, ScalarOpts(worlds, threads, 99));
  Allocation base(c.num_items());
  base.Add(7, 0);
  base.Add(50, 1);
  for (const Allocation& b : {Allocation(c.num_items()), base}) {
    const std::vector<double> got = packed.MarginalWelfareBatch(b, extras);
    const std::vector<double> want = scalar.MarginalWelfareBatch(b, extras);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j], want[j]) << "extra " << j;
    }
    const std::vector<double> got_exp =
        packed.MarginalBalancedExposureBatch(b, extras);
    const std::vector<double> want_exp =
        scalar.MarginalBalancedExposureBatch(b, extras);
    ASSERT_EQ(got_exp.size(), want_exp.size());
    for (std::size_t j = 0; j < got_exp.size(); ++j) {
      EXPECT_EQ(got_exp[j], want_exp[j]) << "extra " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsWorlds, PackedBatchTest,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(1, 63, 64, 65, 1000)));

// The wide arm (4 blocks per pass, AVX2-compiled where available) must be
// bit-identical to the scalar path. With 1000 worlds on 2 threads each
// chunk has 8 blocks, all in wide groups; with 320 worlds on 1 thread the
// single chunk's 5 blocks run as one wide group plus a narrow remainder.
TEST(PackedWorldTest, WideArmBitEqualsNarrowArm) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  const std::vector<Allocation> candidates = Candidates(c.num_items());
  for (const auto& [worlds, threads] :
       {std::pair{1000, 2u}, std::pair{320, 1u}}) {
    const WelfareEstimator packed(g, c, PackedOpts(worlds, threads, 31));
    const WelfareEstimator scalar(g, c, ScalarOpts(worlds, threads, 31));
    const std::vector<WelfareStats> a = packed.StatsBatch(candidates);
    const std::vector<WelfareStats> b = scalar.StatsBatch(candidates);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      ExpectStatsBitEqual(a[j], b[j]);
    }
  }
  // Informational only — results above hold either way.
  (void)PackedAvx2Active();
}

// Packed vs scalar on the coin edge-case graph: every lane's edge mask
// holds exactly EdgeWorld::Live's coins for its world (bits past the
// block's lanes stay clear), and the packed batches equal the scalar ones.
TEST(PackedWorldTest, CoinEdgeGraphBitEqualsScalar) {
  const Graph g = CoinEdgeGraph();
  const UtilityConfig c = MakeConfigC5();
  const uint64_t seed = 0xC0DE;
  const int num_worlds = 130;
  const std::size_t chunks = 2;
  const PackedWorldSet set(g, c, seed, num_worlds, chunks,
                           /*num_threads=*/2);
  const auto edges = g.RawOutEdges();
  for (std::size_t ch = 0; ch < chunks; ++ch) {
    const auto blocks = set.ChunkBlocks(ch);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const PackedWorldSet::Block& block = blocks[b];
      for (std::size_t e = 0; e < edges.size(); ++e) {
        ASSERT_EQ(block.edge_mask[e] & ~block.lane_mask, 0u);
        for (int l = 0; l < block.lane_count; ++l) {
          const int w = static_cast<int>(
              ch + (b * kPackedLanes + static_cast<std::size_t>(l)) *
                       chunks);
          const EdgeWorld world{WorldEdgeSeedOf(seed, w)};
          ASSERT_EQ((block.edge_mask[e] >> l) & 1u,
                    world.Live(static_cast<EdgeId>(e), edges[e].prob) ? 1u
                                                                      : 0u)
              << "world " << w << " edge " << e;
        }
      }
    }
  }

  const std::vector<Allocation> candidates = Candidates(c.num_items());
  const WelfareEstimator packed(g, c, PackedOpts(num_worlds, 2, seed));
  const WelfareEstimator scalar(g, c, ScalarOpts(num_worlds, 2, seed));
  const std::vector<WelfareStats> got = packed.StatsBatch(candidates);
  const std::vector<WelfareStats> want = scalar.StatsBatch(candidates);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    ExpectStatsBitEqual(got[j], want[j]);
  }
  Allocation base(c.num_items());
  base.Add(9, 0);
  const std::vector<double> gains =
      packed.MarginalWelfareBatch(base, candidates);
  const std::vector<double> scalar_gains =
      scalar.MarginalWelfareBatch(base, candidates);
  for (std::size_t j = 0; j < gains.size(); ++j) {
    EXPECT_EQ(gains[j], scalar_gains[j]) << "extra " << j;
  }
  EXPECT_EQ(packed.snapshot_stats().snapshotted, 0);
}

TEST(PackedWorldTest, ZeroBudgetFallsBackToScalarPath) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  const std::vector<Allocation> candidates = Candidates(c.num_items());
  Counter& fallback =
      MetricsRegistry::Global().GetCounter("simulate.packed_fallback");
  const uint64_t fallback_before = fallback.value();
  EstimatorOptions starved = PackedOpts(64, 2, 13);
  starved.snapshot_budget_bytes = 0;
  const WelfareEstimator est(g, c, starved);
  const WelfareEstimator scalar(g, c, ScalarOpts(64, 2, 13));
  const std::vector<WelfareStats> got = est.StatsBatch(candidates);
  const std::vector<WelfareStats> want = scalar.StatsBatch(candidates);
  for (std::size_t j = 0; j < got.size(); ++j) {
    ExpectStatsBitEqual(got[j], want[j]);
  }
  EXPECT_GT(fallback.value(), fallback_before);
  // The fallback streams (budget 0 disables snapshots too).
  EXPECT_EQ(est.snapshot_stats().snapshotted, 0);
}

TEST(PackedWorldTest, BelowMinWorldsUsesScalarSnapshots) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  const std::vector<Allocation> candidates = Candidates(c.num_items());
  // Default packed_min_worlds = 32: a 20-world batch snapshots as before.
  const WelfareEstimator est(g, c, {.num_worlds = 20, .seed = 21});
  const std::vector<WelfareStats> got = est.StatsBatch(candidates);
  EXPECT_EQ(est.snapshot_stats().snapshotted, 20);
  const WelfareEstimator scalar(g, c, ScalarOpts(20, 0, 21));
  const std::vector<WelfareStats> want = scalar.StatsBatch(candidates);
  for (std::size_t j = 0; j < got.size(); ++j) {
    ExpectStatsBitEqual(got[j], want[j]);
  }
}

// The regime heuristic: a weak-tie graph (mean edge probability below
// packed_min_mean_prob) takes the scalar snapshot path under default
// options, because near-disjoint per-world cascades make word-parallel
// evaluation a loss. Forcing the threshold to 0 packs anyway, and the
// results are bit-identical either way — the knob is speed-only.
TEST(PackedWorldTest, WeakTieGraphDefaultsToScalarPath) {
  GraphBuilder b(120);
  Rng rng(43);
  for (int e = 0; e < 600; ++e) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(120));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(120));
    if (u == v) continue;
    b.AddEdge(u, v, 0.05);  // mean prob 0.05 << default threshold 0.4
  }
  const Graph g = std::move(b).Build();
  const UtilityConfig c = MakeConfigC5();
  const std::vector<Allocation> candidates = Candidates(c.num_items());
  // Defaults (packed_kernel on, threshold 0.4): scalar snapshots engage.
  const WelfareEstimator heuristic(g, c,
                                   {.num_worlds = 64, .seed = 91,
                                    .num_threads = 2});
  const std::vector<WelfareStats> want = heuristic.StatsBatch(candidates);
  EXPECT_EQ(heuristic.snapshot_stats().snapshotted, 64);
  // Threshold 0: packed engages on the same graph, bit-identically.
  const WelfareEstimator forced(g, c, PackedOpts(64, 2, 91));
  const std::vector<WelfareStats> got = forced.StatsBatch(candidates);
  EXPECT_EQ(forced.snapshot_stats().snapshotted, 0);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    ExpectStatsBitEqual(got[j], want[j]);
  }
}

TEST(PackedWorldTest, PoolStoreConcurrentSameKeyBuildsOnce) {
  // The serve daemon's workers hit one engine's store concurrently: all
  // same-key callers must share a single build and pointer.
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  WorldPoolStore store(64ull << 20);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const WorldPool>> pools(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      pools[t] = store.GetOrBuild(g, c, /*seed=*/77, /*num_worlds=*/64,
                                  /*num_threads=*/1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(pools[t], nullptr);
    EXPECT_EQ(pools[t], pools[0]);
  }
  EXPECT_EQ(store.stats().pools_built, 1u);
  EXPECT_EQ(store.stats().pool_reuses, kThreads - 1u);
}

TEST(PackedWorldTest, PoolStoreConcurrentDistinctKeysAllMaterialize) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  WorldPoolStore store(256ull << 20);
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
  EXPECT_EQ(store.stats().pools_built, static_cast<uint64_t>(kThreads));
}

TEST(PackedWorldTest, PoolStoreSharesPackedSetsAcrossEstimators) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  const std::vector<Allocation> candidates = Candidates(c.num_items());
  WorldPoolStore store(64ull << 20);
  EstimatorOptions opts = PackedOpts(64, 2, 55);
  opts.pool_store = &store;
  const WelfareEstimator first(g, c, opts);
  const std::vector<WelfareStats> a = first.StatsBatch(candidates);
  EXPECT_EQ(store.stats().pools_built, 1u);
  const WelfareEstimator second(g, c, opts);
  const std::vector<WelfareStats> b = second.StatsBatch(candidates);
  EXPECT_EQ(store.stats().pools_built, 1u);
  EXPECT_GE(store.stats().pool_reuses, 1u);
  for (std::size_t j = 0; j < a.size(); ++j) ExpectStatsBitEqual(a[j], b[j]);
}

}  // namespace
}  // namespace cwm
