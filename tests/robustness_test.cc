// Edge-case and robustness tests across modules: degenerate graphs,
// extreme budgets, estimator determinism and thread invariance, IMM driver
// boundary conditions, and failure-injection on the fallible paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "algo/seq_grd.h"
#include "algo/sup_grd.h"
#include "exp/configs.h"
#include "graph/edge_prob.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/loader.h"
#include "rrset/imm.h"
#include "rrset/prima_plus.h"
#include "obs/metrics.h"
#include "simulate/estimator.h"
#include "simulate/uic_simulator.h"
#include "store/artifact_cache.h"
#include "store/format.h"
#include "support/failpoint.h"

namespace cwm {
namespace {

UtilityConfig UnitItem() {
  UtilityConfigBuilder b(1);
  b.SetItemValue(0, 1.0);
  return std::move(b).Build().value();
}

TEST(DegenerateGraphTest, EdgelessGraphDiffusesNowhere) {
  GraphBuilder b(10);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 0u);
  const UtilityConfig c = UnitItem();
  WelfareEstimator est(g, c, {.num_worlds = 8, .seed = 1});
  Allocation alloc(1);
  alloc.Add(3, 0);
  EXPECT_DOUBLE_EQ(est.Welfare(alloc), 1.0);  // only the seed adopts
}

TEST(DegenerateGraphTest, ZeroProbabilityEdgesNeverFire) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.0);
  b.AddEdge(1, 2, 0.0);
  const Graph g = std::move(b).Build();
  const UtilityConfig c = UnitItem();
  UicSimulator sim(g, c);
  Allocation alloc(1);
  alloc.Add(0, 0);
  for (uint64_t w = 1; w <= 20; ++w) {
    EXPECT_EQ(sim.RunWorld(alloc, EdgeWorld{w}, WorldUtilityTable(c, {0.0}))
                  .adopting_nodes,
              1u);
  }
}

TEST(DegenerateGraphTest, CycleTerminates) {
  GraphBuilder b(4);
  for (NodeId v = 0; v < 4; ++v) b.AddEdge(v, (v + 1) % 4, 1.0);
  const Graph g = std::move(b).Build();
  const UtilityConfig c = MakeConfigC1();
  UicSimulator sim(g, c);
  Allocation alloc(2);
  alloc.Add(0, 0);
  alloc.Add(2, 1);
  const WorldOutcome out =
      sim.RunWorld(alloc, EdgeWorld{1}, WorldUtilityTable(c, {0.0, 0.0}));
  EXPECT_EQ(out.adopting_nodes, 4u);  // converges despite the cycle
}

TEST(DegenerateGraphTest, SelfCompetitionOnSharedSeed) {
  // Both items seeded at the same node: it adopts the better one only
  // (pure competition) and the welfare counts once.
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  const Graph g = std::move(b).Build();
  UtilityConfigBuilder cb(2);
  cb.SetItemValue(0, 3.0).SetItemValue(1, 2.5);
  cb.SetItemPrice(0, 1.0).SetItemPrice(1, 1.0);
  const UtilityConfig c = std::move(cb).Build().value();
  UicSimulator sim(g, c);
  Allocation alloc(2);
  alloc.Add(0, 0);
  alloc.Add(0, 1);
  const WorldOutcome out =
      sim.RunWorld(alloc, EdgeWorld{1}, WorldUtilityTable(c, {0.0, 0.0}));
  EXPECT_DOUBLE_EQ(out.welfare, 4.0);  // both nodes adopt item 0 (U = 2)
  EXPECT_EQ(out.adopters_per_item[1], 0u);
}

TEST(EstimatorDeterminismTest, SameSeedSameAnswer) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(200, 2, 3));
  const UtilityConfig c = MakeConfigC1();
  Allocation alloc(2);
  alloc.Add(0, 0);
  alloc.Add(1, 1);
  WelfareEstimator a(g, c, {.num_worlds = 100, .seed = 42});
  WelfareEstimator b(g, c, {.num_worlds = 100, .seed = 42});
  EXPECT_DOUBLE_EQ(a.Welfare(alloc), b.Welfare(alloc));
}

TEST(EstimatorDeterminismTest, ThreadCountInvariant) {
  // The chunked world partition must not change the estimate: world w's
  // randomness depends only on (seed, w).
  const Graph g = WithWeightedCascade(BarabasiAlbert(200, 2, 5));
  const UtilityConfig c = MakeConfigC1();
  Allocation alloc(2);
  alloc.Add(0, 0);
  WelfareEstimator one(g, c,
                       {.num_worlds = 64, .seed = 7, .num_threads = 1});
  WelfareEstimator four(g, c,
                        {.num_worlds = 64, .seed = 7, .num_threads = 4});
  EXPECT_NEAR(one.Welfare(alloc), four.Welfare(alloc), 1e-9);
}

TEST(EstimatorDeterminismTest, DifferentSeedsDiffer) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(200, 2, 7));
  const UtilityConfig c = MakeConfigC1();
  Allocation alloc(2);
  alloc.Add(0, 0);
  WelfareEstimator a(g, c, {.num_worlds = 50, .seed = 1});
  WelfareEstimator b(g, c, {.num_worlds = 50, .seed = 2});
  EXPECT_NE(a.Welfare(alloc), b.Welfare(alloc));
}

TEST(ImmBoundaryTest, BudgetEqualsNodeCount) {
  GraphBuilder b(6);
  b.AddEdge(0, 1, 1.0);
  const Graph g = std::move(b).Build();
  const ImmResult r = Imm(g, 6, {.epsilon = 0.5, .ell = 1.0, .seed = 3});
  EXPECT_EQ(r.seeds.size(), 6u);
  // All nodes selected; estimate equals n.
  EXPECT_NEAR(r.coverage_estimate, 6.0, 1e-9);
}

TEST(ImmBoundaryTest, TinyGraph) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  const Graph g = std::move(b).Build();
  const ImmResult r = Imm(g, 1, {.epsilon = 0.5, .ell = 1.0, .seed = 5});
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0], 0u);
}

TEST(ImmBoundaryTest, MaxRrSetCapRespected) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(300, 2, 9));
  ImmParams params{.epsilon = 0.2, .ell = 1.0, .seed = 7};
  params.max_rr_sets = 500;  // far below the theoretical theta
  const ImmResult r = Imm(g, 10, params);
  EXPECT_LE(r.rr_count, 500u);
  EXPECT_EQ(r.seeds.size(), 10u);  // still returns a full seed set
}

TEST(ImmBoundaryTest, PrimaPlusWithAllPriorBlocked) {
  // Prior seeds that dominate the graph: marginal RR sets are mostly
  // empty, yet PRIMA+ must terminate and return budget-many nodes.
  GraphBuilder b(30);
  for (NodeId v = 0; v + 1 < 30; ++v) b.AddEdge(v, v + 1, 1.0);
  const Graph g = std::move(b).Build();
  const ImmResult r = PrimaPlus(g, {0}, {3}, 3,
                                {.epsilon = 0.5, .ell = 1.0, .seed = 11,
                                 .max_rr_sets = 200000});
  EXPECT_EQ(r.seeds.size(), 3u);
  for (NodeId s : r.seeds) EXPECT_NE(s, 0u);
}

TEST(SupGrdBoundaryTest, ZeroUtilitySuperiorItemShortCircuits) {
  GraphBuilder b(10);
  b.AddEdge(0, 1, 1.0);
  const Graph g = std::move(b).Build();
  // Superior item with zero deterministic utility: E[U+] = 0.
  UtilityConfigBuilder cb(2);
  cb.SetItemValue(0, 1.0).SetItemPrice(0, 1.0);   // U = 0
  cb.SetItemValue(1, 0.5).SetItemPrice(1, 1.0);   // U = -0.5
  const UtilityConfig c = std::move(cb).Build().value();
  ASSERT_TRUE(CanRunSupGrd(c, Allocation(2)).ok());
  AlgoParams params;
  params.imm = {.epsilon = 0.5, .ell = 1.0, .seed = 3};
  const Allocation alloc = SupGrd(g, c, Allocation(2), 2, params);
  EXPECT_EQ(alloc.SeedsOf(0).size(), 2u);
}

TEST(SeqGrdBoundaryTest, SingleItemReducesToMarginalIm) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(300, 2, 13));
  const UtilityConfig c = UnitItem();
  AlgoParams params;
  params.imm = {.epsilon = 0.5, .ell = 1.0, .seed = 5};
  params.estimator = {.num_worlds = 100, .seed = 7};
  const Allocation seq = SeqGrd(g, c, Allocation(1), {0}, {5}, params);
  const ImmResult imm = Imm(g, 5, params.imm);
  // With one item and no prior seeds, SeqGRD is spread maximization: the
  // two seed sets should reach comparable spread.
  WelfareEstimator est(g, c, {.num_worlds = 2000, .seed = 9});
  EXPECT_NEAR(est.Welfare(seq), est.Spread(imm.seeds),
              0.15 * est.Spread(imm.seeds) + 2.0);
}

TEST(SeqGrdBoundaryTest, BudgetLargerThanPoolStillFeasible) {
  GraphBuilder b(12);
  for (NodeId v = 0; v + 1 < 12; ++v) b.AddEdge(v, v + 1, 0.5);
  const Graph g = std::move(b).Build();
  const UtilityConfig c = MakeConfigC1();
  AlgoParams params;
  params.imm = {.epsilon = 0.5, .ell = 1.0, .seed = 3};
  params.estimator = {.num_worlds = 50, .seed = 5};
  // Budgets sum to the full node count.
  const Allocation alloc =
      SeqGrdNm(g, c, Allocation(2), {0, 1}, {6, 6}, params);
  EXPECT_EQ(alloc.SeedsOf(0).size(), 6u);
  EXPECT_EQ(alloc.SeedsOf(1).size(), 6u);
}

TEST(LoaderFailureTest, WriteToUnwritablePathFails) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(10, 2, 3));
  const Status s = WriteEdgeList(g, "/nonexistent_dir/out.txt");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kIOError);
}

TEST(LoaderFailureTest, EmptyFileYieldsEmptyGraph) {
  const std::string path = ::testing::TempDir() + "/cwm_empty.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  StatusOr<Graph> g = ReadEdgeList(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 0u);
  EXPECT_EQ(g.value().num_edges(), 0u);
}

TEST(NoiseWorldTest, SampleNoiseWorldMatchesDistributions) {
  const UtilityConfig c = MakeConfigC5();  // clamped noise both items
  Rng rng(3);
  for (int it = 0; it < 200; ++it) {
    const std::vector<double> noise = SampleNoiseWorld(c, rng);
    ASSERT_EQ(noise.size(), 2u);
    EXPECT_LE(std::abs(noise[0]), 0.04 + 1e-12);
    EXPECT_LE(std::abs(noise[1]), 0.04 + 1e-12);
  }
}

TEST(ExposureAccountingTest, DesireTracksBlockedItems) {
  // Even when item j is never adopted (blocked), nodes exposed to it
  // count in the one-sided-exposure statistic via their desire sets.
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(0, 2, 1.0);
  const Graph g = std::move(b).Build();
  const UtilityConfig c = MakeConfigC1();
  UicSimulator sim(g, c);
  Allocation alloc(2);
  alloc.Add(0, 0);  // item i only: everyone one-sided
  const WorldOutcome out =
      sim.RunWorld(alloc, EdgeWorld{1}, WorldUtilityTable(c, {0.0, 0.0}));
  EXPECT_EQ(out.one_sided_exposure_01, 3u);
}

// ---- Failpoint machinery ----------------------------------------------

TEST(FailpointTest, UnknownNamesAndBadSpecsAreRejected) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  EXPECT_FALSE(failpoints.Set("no.such.site", "error").ok());
  EXPECT_FALSE(failpoints.Set("store.write.fsync", "bogus").ok());
  EXPECT_FALSE(failpoints.Set("store.write.fsync", "error(bogus)").ok());
  EXPECT_FALSE(failpoints.Set("store.write.fsync", "delay(-1)").ok());
  EXPECT_FALSE(failpoints.Set("store.write.fsync", "0x*error").ok());
  EXPECT_FALSE(FailpointsArmed());
}

TEST(FailpointTest, CountedErrorFiresThenDisarms) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  ASSERT_TRUE(
      failpoints.Set("store.write.fsync", "2*error(corruption)").ok());
  EXPECT_TRUE(FailpointsArmed());
  const uint64_t before = failpoints.HitCount("store.write.fsync");

  EXPECT_EQ(failpoint_internal::Fire("store.write.fsync").code(),
            Status::Code::kCorruption);
  EXPECT_EQ(failpoint_internal::Fire("store.write.fsync").code(),
            Status::Code::kCorruption);
  // Exhausted: the site disarmed itself and later calls pass through.
  EXPECT_TRUE(failpoint_internal::Fire("store.write.fsync").ok());
  EXPECT_EQ(failpoints.HitCount("store.write.fsync"), before + 2);
  EXPECT_FALSE(FailpointsArmed());
}

TEST(FailpointTest, DelayPolicySleepsThenSucceeds) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  ASSERT_TRUE(failpoints.Set("serve.send", "1*delay(20)").ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(failpoint_internal::Fire("serve.send").ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            20);
  EXPECT_FALSE(FailpointsArmed());  // 1* exhausted
}

TEST(FailpointTest, InstallFromSpecListAndClearAll) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  ASSERT_TRUE(failpoints
                  .InstallFromSpec("cache.rr.load=error(notfound);"
                                   "store.write.rename=3*error")
                  .ok());
  bool saw_load = false, saw_rename = false;
  for (const FailpointInfo& info : failpoints.List()) {
    if (info.name == "cache.rr.load") {
      saw_load = true;
      EXPECT_EQ(info.policy, "error(notfound)");
    }
    if (info.name == "store.write.rename") {
      saw_rename = true;
      EXPECT_EQ(info.policy, "3*error");
    }
  }
  EXPECT_TRUE(saw_load);
  EXPECT_TRUE(saw_rename);
  // The first bad entry stops the parse and reports which one.
  EXPECT_FALSE(failpoints.InstallFromSpec("cache.rr.load=error;oops").ok());

  failpoints.ClearAll();
  EXPECT_FALSE(FailpointsArmed());
  EXPECT_EQ(failpoints.HitCount("cache.rr.load"), 0u);
  for (const FailpointInfo& info : failpoints.List()) {
    EXPECT_TRUE(info.policy.empty()) << info.name;
  }
}

// ---- Degraded-mode end-to-end -----------------------------------------

// A warm cache whose every RR read fails mid-run must resample and land
// on bit-identical results — the cache is an accelerator, never an
// input — while counting each fallback in store.degraded.rr_resamples.
TEST(FailpointTest, RrLoadFailureResamplesBitIdentically) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  const Graph g = WithWeightedCascade(BarabasiAlbert(400, 3, 21));

  ImmParams params;
  params.seed = 0xFA11;
  params.num_threads = 2;
  const ImmResult uncached = Imm(g, 8, params);

  static const uint64_t token = std::random_device{}();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("cwm_robust_" + std::to_string(token));
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(dir.string());
  ASSERT_TRUE(cache.ok());
  params.cache = cache.value().get();
  params.graph_hash = GraphContentHash(g);
  const ImmResult cold = Imm(g, 8, params);

  FailpointRegistry& failpoints = FailpointRegistry::Global();
  ASSERT_TRUE(failpoints.Set("cache.rr.load", "error(corruption)").ok());
  Counter& resamples =
      MetricsRegistry::Global().GetCounter("store.degraded.rr_resamples");
  Counter& quarantined =
      MetricsRegistry::Global().GetCounter("cache.quarantined");
  const uint64_t before = resamples.value();
  const uint64_t quarantined_before = quarantined.value();
  const ImmResult degraded = Imm(g, 8, params);
  failpoints.Clear("cache.rr.load");

  EXPECT_GT(resamples.value(), before);
  EXPECT_GT(quarantined.value(), quarantined_before);
  for (const ImmResult* other : {&cold, &degraded}) {
    ASSERT_EQ(uncached.seeds, other->seeds);
    ASSERT_EQ(uncached.rr_count, other->rr_count);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace cwm
