// Tests for the UIC diffusion engine and Monte-Carlo estimators, including
// exact replays of the paper's Theorem 1 counterexamples and the §5.2
// SeqGRD-vs-MaxGRD example (both have deterministic graphs and no noise,
// so simulated welfare must match the paper's arithmetic exactly), and
// the threshold-table coins materialized worlds flip against the
// streaming EdgeWorld coins.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "coin_edge_graph.h"
#include "exp/configs.h"
#include "graph/graph_builder.h"
#include "model/allocation.h"
#include "simulate/estimator.h"
#include "simulate/uic_simulator.h"
#include "simulate/world.h"
#include "simulate/world_pool.h"

namespace cwm {
namespace {

Graph Chain(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1, 1.0);
  return std::move(b).Build();
}

UtilityConfig SingleItemUnit() {
  UtilityConfigBuilder b(1);
  b.SetItemValue(0, 1.0).SetItemPrice(0, 0.0);
  return std::move(b).Build().value();
}

TEST(EdgeWorldTest, DeterministicCoins) {
  const EdgeWorld w{123};
  for (EdgeId e = 0; e < 100; ++e) {
    EXPECT_EQ(w.Live(e, 0.5), w.Live(e, 0.5));
  }
  EXPECT_TRUE(w.Live(0, 1.0));
  EXPECT_FALSE(w.Live(0, 0.0));
}

// The threshold-table coin (CoinThreshold + CoinLive) that materialized
// worlds flip is EdgeWorld::Live at every probability edge case, over
// 12,800 (seed, edge) pairs each.
TEST(EdgeWorldTest, ThresholdCoinsEqualLive) {
  EXPECT_EQ(CoinThreshold(0.0), 0u);
  EXPECT_EQ(CoinThreshold(1.0), kCoinAlwaysLive);
  EXPECT_LT(CoinThreshold(std::nextafter(1.0, 0.0)), kCoinAlwaysLive);
  for (const float p : CoinEdgeProbabilities()) {
    const uint64_t threshold = CoinThreshold(p);
    int live = 0;
    for (uint64_t s = 0; s < 100; ++s) {
      const uint64_t seed = MixHash(0xC014, s);
      const EdgeWorld world{seed};
      for (EdgeId e = 0; e < 128; ++e) {
        const bool want = world.Live(e, p);
        ASSERT_EQ(CoinLive(seed, e, threshold), want)
            << "p " << p << " seed " << seed << " edge " << e;
        live += want ? 1 : 0;
      }
    }
    if (p == 1.0f) {
      EXPECT_EQ(live, 12800);
    }
    if (p <= std::numeric_limits<float>::denorm_min()) {
      EXPECT_EQ(live, 0);  // p * 2^64 truncates to 0 at the smallest float
    }
  }
}

// Snapshot vs streaming on the coin edge-case graph: a pool's snapshots
// (one threshold table shared by its workers) and a standalone snapshot
// hold exactly EdgeWorld::Live's live edges, diffusions over them equal
// the streaming ones, and so do the estimator's batch and streaming stats.
TEST(WorldSnapshotTest, CoinEdgeGraphSnapshotsEqualStreaming) {
  const Graph g = CoinEdgeGraph();
  const UtilityConfig c = MakeConfigC5();
  const uint64_t seed = 0xC0DE;
  const int worlds = 9;
  const WorldPool pool(g, c, seed, worlds, 64ull << 20, /*num_threads=*/3);
  ASSERT_EQ(pool.stats().snapshotted, worlds);
  Allocation alloc(c.num_items());
  for (NodeId v = 0; v < 8; ++v) alloc.Add(v * 19, v % 2);
  UicSimulator sim(g, c);
  for (int w = 0; w < worlds; ++w) {
    const WorldSnapshot standalone(g, c, WorldEdgeSeedOf(seed, w),
                                   WorldNoiseRngOf(seed, w));
    const EdgeWorld lazy{WorldEdgeSeedOf(seed, w)};
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      std::vector<NodeId> want;
      const auto out = g.OutEdges(u);
      for (std::size_t k = 0; k < out.size(); ++k) {
        if (lazy.Live(g.OutEdgeId(u, k), out[k].prob)) {
          want.push_back(out[k].to);
        }
      }
      for (const WorldSnapshot* snapshot : {pool.Get(w), &standalone}) {
        const auto got = snapshot->LiveOut(u);
        ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), want)
            << "world " << w << " node " << u;
      }
    }
    Rng noise = WorldNoiseRngOf(seed, w);
    const WorldUtilityTable table(c, noise);
    const WorldOutcome streamed = sim.RunWorld(alloc, lazy, table);
    const WorldOutcome snapped = sim.RunWorld(alloc, *pool.Get(w));
    EXPECT_EQ(std::memcmp(&snapped.welfare, &streamed.welfare,
                          sizeof(double)),
              0);
    EXPECT_EQ(snapped.adopters_per_item, streamed.adopters_per_item);
    EXPECT_EQ(snapped.adopting_nodes, streamed.adopting_nodes);
  }
  const WelfareEstimator est(g, c,
                             {.num_worlds = 40,
                              .seed = seed,
                              .num_threads = 2,
                              .packed_kernel = false});
  const WelfareStats batched = est.StatsBatch({&alloc, 1})[0];
  const WelfareStats streamed = est.Stats(alloc);
  EXPECT_EQ(batched.welfare, streamed.welfare);
  EXPECT_EQ(batched.adopters_per_item, streamed.adopters_per_item);
  EXPECT_EQ(batched.adopting_nodes, streamed.adopting_nodes);
  EXPECT_EQ(est.snapshot_stats().snapshotted, 40);
}

TEST(UicSimulatorTest, SingleItemFullChainAdoption) {
  const Graph g = Chain(5);
  const UtilityConfig c = SingleItemUnit();
  UicSimulator sim(g, c);
  Allocation alloc(1);
  alloc.Add(0, 0);
  const WorldOutcome out =
      sim.RunWorld(alloc, EdgeWorld{1}, WorldUtilityTable(c, {0.0}));
  EXPECT_EQ(out.adopting_nodes, 5u);
  EXPECT_DOUBLE_EQ(out.welfare, 5.0);
  EXPECT_EQ(out.adopters_per_item[0], 5u);
}

TEST(UicSimulatorTest, NegativeUtilityNeverAdopted) {
  const Graph g = Chain(3);
  UtilityConfigBuilder b(1);
  b.SetItemValue(0, 1.0).SetItemPrice(0, 2.0);
  const UtilityConfig c = std::move(b).Build().value();
  UicSimulator sim(g, c);
  Allocation alloc(1);
  alloc.Add(0, 0);
  const WorldOutcome out =
      sim.RunWorld(alloc, EdgeWorld{1}, WorldUtilityTable(c, {0.0}));
  EXPECT_EQ(out.adopting_nodes, 0u);
  EXPECT_DOUBLE_EQ(out.welfare, 0.0);
}

TEST(UicSimulatorTest, ScratchReusableAcrossWorlds) {
  const Graph g = Chain(4);
  const UtilityConfig c = SingleItemUnit();
  UicSimulator sim(g, c);
  Allocation alloc(1);
  alloc.Add(0, 0);
  const WorldUtilityTable table(c, {0.0});
  for (int w = 0; w < 10; ++w) {
    const WorldOutcome out = sim.RunWorld(alloc, EdgeWorld{1}, table);
    EXPECT_EQ(out.adopting_nodes, 4u);
  }
}

// The two-node network of Theorem 1 (Fig 1(a) utilities): u -> v, prob 1.
class Theorem1Test : public ::testing::Test {
 protected:
  Theorem1Test() : config_(MakeTheorem1Config()) {
    GraphBuilder b(2);
    b.AddEdge(0, 1, 1.0);  // u = 0, v = 1
    graph_ = std::move(b).Build();
  }

  double Welfare(const Allocation& alloc) {
    UicSimulator sim(graph_, config_);
    return sim.RunWorld(alloc, EdgeWorld{1},
                        WorldUtilityTable(config_, {0.0, 0.0, 0.0}))
        .welfare;
  }

  Graph graph_;
  UtilityConfig config_;
};

TEST_F(Theorem1Test, MonotonicityCounterexample) {
  // S1 = {(u, i1)}: both adopt i1, welfare 8.
  Allocation s1(3);
  s1.Add(0, 0);
  EXPECT_DOUBLE_EQ(Welfare(s1), 8.0);
  // S2 = S1 + (v, i2): u adopts i1, v adopts i2 -> welfare 7 < 8.
  Allocation s2 = s1;
  s2.Add(1, 1);
  EXPECT_DOUBLE_EQ(Welfare(s2), 7.0);
}

TEST_F(Theorem1Test, SubmodularityCounterexample) {
  // S1 = {(v,i2)}; marginal of (u,i1) is 4.
  Allocation s1(3);
  s1.Add(1, 1);
  Allocation s1x = s1;
  s1x.Add(0, 0);
  EXPECT_DOUBLE_EQ(Welfare(s1), 3.0);
  EXPECT_DOUBLE_EQ(Welfare(s1x), 7.0);
  // S2 = {(v,i2),(v,i3)}; v adopts i3 alone (3.5); with (u,i1) added v
  // upgrades to {i1,i3} (4.5): marginal 5 > 4. Non-submodular.
  Allocation s2(3);
  s2.Add(1, 1);
  s2.Add(1, 2);
  Allocation s2x = s2;
  s2x.Add(0, 0);
  EXPECT_DOUBLE_EQ(Welfare(s2), 3.5);
  EXPECT_DOUBLE_EQ(Welfare(s2x), 8.5);
  EXPECT_GT(Welfare(s2x) - Welfare(s2), Welfare(s1x) - Welfare(s1));
}

TEST_F(Theorem1Test, SupermodularityCounterexample) {
  // Marginal of (u,i1) at the empty allocation is 8; at {(v,i2)} it is 4.
  Allocation empty(3);
  Allocation just_u(3);
  just_u.Add(0, 0);
  Allocation s2(3);
  s2.Add(1, 1);
  Allocation s2x = s2;
  s2x.Add(0, 0);
  const double marginal_at_empty = Welfare(just_u) - Welfare(empty);
  const double marginal_at_s2 = Welfare(s2x) - Welfare(s2);
  EXPECT_DOUBLE_EQ(marginal_at_empty, 8.0);
  EXPECT_DOUBLE_EQ(marginal_at_s2, 4.0);
  EXPECT_LT(marginal_at_s2, marginal_at_empty);
}

// §5.2 example: nodes {u,v,w,x}, edges u->v->w and x->w, all prob 1.
// Items i (U=10), j (U=1), bundle {i,j} has utility 0.
class MaxVsSeqExampleTest : public ::testing::Test {
 protected:
  MaxVsSeqExampleTest() {
    GraphBuilder b(4);  // u=0, v=1, w=2, x=3
    b.AddEdge(0, 1, 1.0);
    b.AddEdge(1, 2, 1.0);
    b.AddEdge(3, 2, 1.0);
    graph_ = std::move(b).Build();
    UtilityConfigBuilder cb(2);
    cb.SetItemValue(0, 11.0).SetItemValue(1, 13.0);
    cb.SetItemPrice(0, 1.0).SetItemPrice(1, 12.0);
    cb.SetBundleValue(0x3, 13.0);  // U({i,j}) = 13 - 13 = 0
    config_ = std::move(cb).Build().value();
  }

  double Welfare(const Allocation& alloc) {
    UicSimulator sim(graph_, config_);
    return sim
        .RunWorld(alloc, EdgeWorld{1}, WorldUtilityTable(config_, {0.0, 0.0}))
        .welfare;
  }

  Graph graph_;
  UtilityConfig config_;
};

TEST_F(MaxVsSeqExampleTest, SeqStyleAllocationGets22) {
  // {(u,i),(x,j)}: w hears j at t=2 (adopts), i at t=3 (blocked by the
  // progressive constraint since U({i,j}) = 0 < 1).
  Allocation alloc(2);
  alloc.Add(0, 0);
  alloc.Add(3, 1);
  EXPECT_DOUBLE_EQ(Welfare(alloc), 22.0);
}

TEST_F(MaxVsSeqExampleTest, MaxStyleAllocationGets30) {
  Allocation alloc(2);
  alloc.Add(0, 0);
  EXPECT_DOUBLE_EQ(Welfare(alloc), 30.0);
}

TEST_F(MaxVsSeqExampleTest, ArrivalOrderDecidesBlocking) {
  // Seeding j at v instead: w hears i (via v? no — v adopts j? v desires j
  // only at t=1). Seed i at u, j at v: v desires {j} at t=1 adopts j
  // (U=1); at t=2 v hears i: candidates containing j: {j}=1, {i,j}=0 ->
  // stays. w hears j at t=2, adopts j; i never reaches w (blocked at v).
  Allocation alloc(2);
  alloc.Add(0, 0);
  alloc.Add(1, 1);
  // welfare: u adopts i (10), v adopts j (1), w adopts j (1) = 12.
  EXPECT_DOUBLE_EQ(Welfare(alloc), 12.0);
}

TEST(EstimatorTest, DeterministicGraphExactWelfare) {
  const Graph g = Chain(4);
  const UtilityConfig c = SingleItemUnit();
  WelfareEstimator est(g, c, {.num_worlds = 16, .seed = 3});
  Allocation alloc(1);
  alloc.Add(0, 0);
  EXPECT_DOUBLE_EQ(est.Welfare(alloc), 4.0);
}

TEST(EstimatorTest, WelfareMatchesSpreadTimesUtilitySingleItem) {
  // For one noiseless item with U = u, rho(S) = u * sigma(S).
  GraphBuilder b(50);
  Rng rng(7);
  for (int e = 0; e < 200; ++e) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(50));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(50));
    if (u != v) b.AddEdge(u, v, 0.3);
  }
  const Graph g = std::move(b).Build();
  UtilityConfigBuilder cb(1);
  cb.SetItemValue(0, 3.5).SetItemPrice(0, 1.0);  // U = 2.5
  const UtilityConfig c = std::move(cb).Build().value();
  WelfareEstimator est(g, c, {.num_worlds = 4000, .seed = 5});
  Allocation alloc(1);
  alloc.Add(0, 0);
  alloc.Add(1, 0);
  const double welfare = est.Welfare(alloc);
  const double spread = est.Spread({0, 1});
  EXPECT_NEAR(welfare, 2.5 * spread, 1e-9);  // same worlds, exact identity
}

TEST(EstimatorTest, MarginalOfNothingIsZero) {
  const Graph g = Chain(4);
  const UtilityConfig c = SingleItemUnit();
  WelfareEstimator est(g, c, {.num_worlds = 32, .seed = 3});
  Allocation base(1);
  base.Add(0, 0);
  Allocation empty(1);
  EXPECT_DOUBLE_EQ(est.MarginalWelfare(base, empty), 0.0);
}

TEST(EstimatorTest, MarginalMatchesDifferenceOfWelfares) {
  const Graph g = Chain(6);
  const UtilityConfig c = SingleItemUnit();
  WelfareEstimator est(g, c, {.num_worlds = 64, .seed = 9});
  Allocation base(1);
  base.Add(3, 0);
  Allocation extra(1);
  extra.Add(0, 0);
  const double direct = est.MarginalWelfare(base, extra);
  const double diff =
      est.Welfare(Allocation::Union(base, extra)) - est.Welfare(base);
  EXPECT_NEAR(direct, diff, 1e-9);  // common random numbers: exact
}

TEST(EstimatorTest, SpreadOnProbabilisticChain) {
  // Chain with p = 0.5: sigma({head}) = 1 + 0.5 + 0.25 + ... = 2 - 2^-k.
  GraphBuilder b(10);
  for (NodeId v = 0; v + 1 < 10; ++v) b.AddEdge(v, v + 1, 0.5);
  const Graph g = std::move(b).Build();
  const UtilityConfig c = SingleItemUnit();
  WelfareEstimator est(g, c, {.num_worlds = 40000, .seed = 13});
  EXPECT_NEAR(est.Spread({0}), 2.0, 0.05);
}

TEST(EstimatorTest, StatsCountsAdoptersPerItem) {
  const Graph g = Chain(3);
  const UtilityConfig c = MakeConfigC1();
  WelfareEstimator est(g, c, {.num_worlds = 500, .seed = 17});
  Allocation alloc(2);
  alloc.Add(0, 0);  // item i at the head: flows down the chain
  const WelfareStats stats = est.Stats(alloc);
  EXPECT_GT(stats.adopters_per_item[0], 2.0);  // usually all 3 nodes
  EXPECT_DOUBLE_EQ(stats.adopters_per_item[1], 0.0);
  EXPECT_GT(stats.welfare, 0.0);
  EXPECT_LE(stats.adopting_nodes, 3.0);
}

TEST(EstimatorTest, BalancedExposureFullWhenNoSeeds) {
  const Graph g = Chain(5);
  const UtilityConfig c = MakeConfigC1();
  WelfareEstimator est(g, c, {.num_worlds = 50, .seed = 19});
  EXPECT_DOUBLE_EQ(est.BalancedExposure(Allocation(2)), 5.0);
}

TEST(EstimatorTest, BalancedExposureDropsWithOneSidedSeed) {
  const Graph g = Chain(5);
  const UtilityConfig c = MakeConfigC1();
  WelfareEstimator est(g, c, {.num_worlds = 200, .seed = 19});
  Allocation alloc(2);
  alloc.Add(0, 0);
  // Item i alone exposes nodes one-sidedly wherever it reaches.
  EXPECT_LT(est.BalancedExposure(alloc), 5.0);
}

TEST(EstimatorTest, BalancedExposureRestoredByPairedSeeds) {
  const Graph g = Chain(5);
  const UtilityConfig c = MakeConfigC3();  // soft competition: both adopted
  WelfareEstimator est(g, c, {.num_worlds = 200, .seed = 23});
  Allocation one(2);
  one.Add(0, 0);
  Allocation both(2);
  both.Add(0, 0);
  both.Add(0, 1);
  EXPECT_GT(est.BalancedExposure(both), est.BalancedExposure(one));
}

TEST(ReachableCountTest, MatchesBfsOnDeterministicGraph) {
  const Graph g = Chain(7);
  const UtilityConfig c = SingleItemUnit();
  UicSimulator sim(g, c);
  EXPECT_EQ(sim.ReachableCount({0}, EdgeWorld{4}), 7u);
  EXPECT_EQ(sim.ReachableCount({3}, EdgeWorld{4}), 4u);
  EXPECT_EQ(sim.ReachableCount({0, 3}, EdgeWorld{4}), 7u);
}

}  // namespace
}  // namespace cwm
