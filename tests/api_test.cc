// Tests for the cwm::api layer: AlgoKind name round-trips, allocator
// registry coverage (every enum value resolves — a new algorithm cannot
// silently miss registration), Engine semantics (reuse bit-identical to
// fresh engines, keyed snapshot-pool sharing, precondition skips,
// cooperative cancellation, progress hooks), and the sweep's pool-reuse
// telemetry.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/registry.h"
#include "exp/configs.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "scenario/registry.h"
#include "scenario/sweep.h"
#include "support/rng.h"

namespace cwm {
namespace {

/// A reproducible sparse digraph (same shape as the estimator tests).
Graph TestGraph() {
  GraphBuilder b(150);
  Rng rng(42);
  for (int e = 0; e < 900; ++e) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(150));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(150));
    if (u == v) continue;
    b.AddEdge(u, v, 0.4 * rng.NextDouble());
  }
  return std::move(b).Build();
}

/// A small request exercising the full path (RR sampling + marginal
/// checks + evaluation) quickly.
AllocateRequest TinyRequest(AlgoKind algo) {
  AllocateRequest request;
  request.algo = algo;
  request.items = {0, 1};
  request.budgets = {3, 3};
  request.params.imm.seed = 11;
  request.params.estimator = {.num_worlds = 20, .seed = 21,
                              .num_threads = 1};
  request.ranking.seed = 31;
  request.eval = {.num_worlds = 40, .seed = 41, .num_threads = 1};
  return request;
}

void ExpectResultsBitEqual(const AllocateResult& a, const AllocateResult& b) {
  EXPECT_EQ(a.allocation.ToString(), b.allocation.ToString());
  EXPECT_EQ(a.stats.welfare, b.stats.welfare);
  EXPECT_EQ(a.stats.adopting_nodes, b.stats.adopting_nodes);
  ASSERT_EQ(a.stats.adopters_per_item.size(),
            b.stats.adopters_per_item.size());
  for (std::size_t i = 0; i < a.stats.adopters_per_item.size(); ++i) {
    EXPECT_EQ(a.stats.adopters_per_item[i], b.stats.adopters_per_item[i]);
  }
  EXPECT_EQ(a.note, b.note);
  EXPECT_EQ(a.skipped, b.skipped);
}

TEST(AlgoKindTest, NameParseRoundTripsForEveryKind) {
  for (AlgoKind kind : AllAlgoKinds()) {
    const std::optional<AlgoKind> parsed = ParseAlgo(AlgoName(kind));
    ASSERT_TRUE(parsed.has_value()) << AlgoName(kind);
    EXPECT_EQ(*parsed, kind) << AlgoName(kind);
  }
  EXPECT_FALSE(ParseAlgo("NoSuchAlgorithm").has_value());
  EXPECT_FALSE(ParseAlgo("").has_value());
}

TEST(AlgoKindTest, AllKindsAreDistinctAndNamed) {
  std::set<AlgoKind> kinds;
  std::set<std::string> names;
  for (AlgoKind kind : AllAlgoKinds()) {
    kinds.insert(kind);
    names.insert(AlgoName(kind));
    EXPECT_STRNE(AlgoName(kind), "?");
  }
  EXPECT_EQ(kinds.size(), AllAlgoKinds().size());
  EXPECT_EQ(names.size(), AllAlgoKinds().size());
}

TEST(RegistryTest, EveryAlgoKindHasARegisteredAllocator) {
  const AllocatorRegistry& registry = GlobalAllocatorRegistry();
  for (AlgoKind kind : AllAlgoKinds()) {
    const Allocator* allocator = registry.Find(kind);
    ASSERT_NE(allocator, nullptr) << AlgoName(kind);
    EXPECT_EQ(allocator->Kind(), kind);
    EXPECT_STREQ(allocator->Name(), AlgoName(kind));
    // Name lookups resolve to the same allocator.
    EXPECT_EQ(registry.Find(AlgoName(kind)), allocator);
    // The registry-free gating predicate agrees with the capabilities.
    EXPECT_EQ(allocator->Capabilities().slow, IsSlowAlgo(kind))
        << AlgoName(kind);
  }
  EXPECT_EQ(registry.All().size(), AllAlgoKinds().size());
}

TEST(RegistryTest, KnownCapabilitiesAreDeclared) {
  const AllocatorRegistry& registry = GlobalAllocatorRegistry();
  EXPECT_TRUE(registry.Find(AlgoKind::kSupGrd)
                  ->Capabilities()
                  .needs_superior_item);
  EXPECT_TRUE(registry.Find(AlgoKind::kBalanceC)
                  ->Capabilities()
                  .two_items_only);
  EXPECT_TRUE(
      registry.Find(AlgoKind::kRoundRobin)->Capabilities().uses_shared_ranking);
  EXPECT_FALSE(registry.Find(AlgoKind::kSeqGrd)->Capabilities().slow);
}

TEST(RegistryTest, RejectsDuplicateRegistration) {
  AllocatorRegistry registry;
  RegisterBuiltinAllocators(registry);
  EXPECT_EQ(registry.All().size(), AllAlgoKinds().size());
  // Registering any builtin again must fail on the kind collision.
  AllocatorRegistry second;
  RegisterBuiltinAllocators(second);
  EXPECT_EQ(second.All().size(), AllAlgoKinds().size());
  class Fake final : public Allocator {
   public:
    AlgoKind Kind() const override { return AlgoKind::kSeqGrd; }
    AllocatorCapabilities Capabilities() const override { return {}; }
    Status Allocate(const AllocateRequest&,
                    AllocateResult*) const override {
      return Status::OK();
    }
  };
  const Status duplicate = registry.Register(std::make_unique<Fake>());
  EXPECT_FALSE(duplicate.ok());
  EXPECT_EQ(registry.All().size(), AllAlgoKinds().size());
}

TEST(EngineTest, ReusedEngineBitIdenticalToFreshEnginesAndSharesPools) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();

  // Two consecutive Allocate calls on one engine...
  const Counter& builds = MetricsRegistry::Global().GetCounter("pool.builds");
  const Counter& reuses = MetricsRegistry::Global().GetCounter("pool.reuses");
  const uint64_t builds_before = builds.value();
  const uint64_t reuses_before = reuses.value();
  Engine reused(g, c);
  AllocateResult reused_first, reused_second;
  ASSERT_TRUE(
      reused.Allocate(TinyRequest(AlgoKind::kSeqGrd), &reused_first).ok());
  ASSERT_TRUE(
      reused.Allocate(TinyRequest(AlgoKind::kMaxGrd), &reused_second).ok());
  const uint64_t reused_builds = builds.value() - builds_before;
  const uint64_t reused_reuses = reuses.value() - reuses_before;

  // ...must be bit-identical to two fresh engines.
  Engine fresh_a(g, c), fresh_b(g, c);
  AllocateResult fresh_first, fresh_second;
  ASSERT_TRUE(
      fresh_a.Allocate(TinyRequest(AlgoKind::kSeqGrd), &fresh_first).ok());
  ASSERT_TRUE(
      fresh_b.Allocate(TinyRequest(AlgoKind::kMaxGrd), &fresh_second).ok());

  ExpectResultsBitEqual(reused_first, fresh_first);
  ExpectResultsBitEqual(reused_second, fresh_second);

  // The two calls share the evaluation worlds (same eval seed/sims), so
  // the keyed pool store must report cross-estimator snapshot reuse.
  EXPECT_GE(reused_reuses, 1u);
  EXPECT_GE(reused_builds, 1u);
}

TEST(EngineTest, SupGrdPreconditionBecomesSkippedResult) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();  // no superior item fixed in S_P
  Engine engine(g, c);
  AllocateResult result;
  const Status status =
      engine.Allocate(TinyRequest(AlgoKind::kSupGrd), &result);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(result.skipped);
  EXPECT_NE(result.skip_reason.find("SupGRD preconditions"),
            std::string::npos)
      << result.skip_reason;
}

TEST(EngineTest, BudgetAboveNodeCountIsInvalidForEveryAllocator) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  Engine engine(g, c);
  const int over = static_cast<int>(g.num_nodes()) + 1;
  for (AlgoKind algo : AllAlgoKinds()) {
    AllocateRequest request = TinyRequest(algo);
    request.budgets = {over, over};
    AllocateResult result;
    EXPECT_EQ(engine.Allocate(std::move(request), &result).code(),
              Status::Code::kInvalidArgument)
        << AlgoName(algo);
    std::vector<AllocateResult> batch;
    const std::vector<BudgetVector> points = {{2, 2}, {3, over}};
    EXPECT_EQ(engine
                  .AllocateBatch(TinyRequest(algo),
                                 std::span<const BudgetVector>(points),
                                 &batch)
                  .code(),
              Status::Code::kInvalidArgument)
        << AlgoName(algo);
  }
}

// Each item's budget fits the graph but their sum does not: the
// allocators that give every seed its own node report a skipped result,
// the others answer with the full budgets.
TEST(EngineTest, TotalBudgetAboveNodeCountSkipsOrAnswers) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  Engine engine(g, c);
  const int half = static_cast<int>(g.num_nodes()) / 2 + 5;
  const std::set<AlgoKind> ranks_total = {
      AlgoKind::kSeqGrd,         AlgoKind::kSeqGrdNm,
      AlgoKind::kBestOf,         AlgoKind::kRoundRobin,
      AlgoKind::kSnake,          AlgoKind::kBlockUtility,
      AlgoKind::kHighDegreeRank, AlgoKind::kDegreeDiscountRank,
      AlgoKind::kPageRankRank};
  for (AlgoKind algo : AllAlgoKinds()) {
    AllocateRequest request = TinyRequest(algo);
    request.budgets = {half, half};
    request.eval.num_worlds = 4;
    AllocateResult result;
    const Status status = engine.Allocate(std::move(request), &result);
    ASSERT_TRUE(status.ok()) << AlgoName(algo) << ": " << status.ToString();
    if (algo == AlgoKind::kSupGrd) continue;  // skipped: no superior item
    if (ranks_total.contains(algo)) {
      EXPECT_TRUE(result.skipped) << AlgoName(algo);
      EXPECT_NE(result.skip_reason.find("distinct nodes"), std::string::npos)
          << AlgoName(algo) << ": " << result.skip_reason;
    } else {
      EXPECT_FALSE(result.skipped) << AlgoName(algo);
      EXPECT_GE(result.allocation.TotalPairs(),
                static_cast<std::size_t>(half))
          << AlgoName(algo);
    }
  }

  // A SeqGRD batch with such a point runs point by point: the fitting
  // point is answered, the oversized one skipped.
  const std::vector<BudgetVector> points = {{3, 3}, {half, half}};
  std::vector<AllocateResult> batch;
  ASSERT_TRUE(engine
                  .AllocateBatch(TinyRequest(AlgoKind::kSeqGrdNm),
                                 std::span<const BudgetVector>(points),
                                 &batch)
                  .ok());
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch[0].skipped);
  EXPECT_EQ(batch[0].allocation.TotalPairs(), 6u);
  EXPECT_TRUE(batch[1].skipped);
}

// A fixed allocation S_P shrinks what PRIMA+ can pick: MaxGRD's ranking
// must fit in the nodes outside S_P, and S_P must lie in the graph.
TEST(EngineTest, FixedAllocationBoundsTheRanking) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  Engine engine(g, c);
  Allocation fixed(c.num_items());
  for (NodeId v = 0; v < 100; ++v) fixed.Add(v, 1);
  AllocateRequest request = TinyRequest(AlgoKind::kMaxGrd);
  request.items = {0};
  request.fixed = &fixed;
  AllocateResult result;
  request.budgets = {60, 0};  // 150 nodes, 100 of them in S_P
  ASSERT_TRUE(engine.Allocate(request, &result).ok());
  EXPECT_TRUE(result.skipped);
  request.budgets = {40, 0};
  ASSERT_TRUE(engine.Allocate(request, &result).ok());
  EXPECT_FALSE(result.skipped);
  EXPECT_EQ(result.allocation.TotalPairs(), 40u);

  const std::vector<BudgetVector> points = {{10, 0}, {60, 0}};
  std::vector<AllocateResult> batch;
  ASSERT_TRUE(
      engine
          .AllocateBatch(request, std::span<const BudgetVector>(points),
                         &batch)
          .ok());
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch[0].skipped);
  EXPECT_TRUE(batch[1].skipped);

  Allocation outside(c.num_items());
  outside.Add(static_cast<NodeId>(g.num_nodes()), 1);
  request.fixed = &outside;
  EXPECT_EQ(engine.Allocate(request, &result).code(),
            Status::Code::kInvalidArgument);
}

TEST(EngineTest, UnknownKindIsNotFound) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  Engine engine(g, c);
  AllocateRequest request = TinyRequest(static_cast<AlgoKind>(10'000));
  AllocateResult result;
  const Status status = engine.Allocate(std::move(request), &result);
  EXPECT_EQ(status.code(), Status::Code::kNotFound);
}

TEST(EngineTest, CooperativeCancellationReturnsCancelled) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  Engine engine(g, c);
  std::atomic<bool> cancel{true};
  AllocateRequest request = TinyRequest(AlgoKind::kSeqGrdNm);
  request.cancel = &cancel;
  AllocateResult result;
  const Status status = engine.Allocate(std::move(request), &result);
  EXPECT_EQ(status.code(), Status::Code::kCancelled);
}

TEST(EngineTest, PreCancelledRequestFailsFastAndCountsPolls) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  Engine engine(g, c);
  Counter& checks =
      MetricsRegistry::Global().GetCounter("api.cancel_checks");
  const uint64_t before = checks.value();
  std::atomic<bool> cancel{true};
  // A request whose uncancelled run samples plenty (SeqGRD with marginal
  // checks): the pre-set flag must short-circuit it at the first poll.
  AllocateRequest request = TinyRequest(AlgoKind::kSeqGrd);
  request.params.estimator.num_worlds = 2000;
  request.cancel = &cancel;
  AllocateResult result;
  const auto start = std::chrono::steady_clock::now();
  const Status status = engine.Allocate(std::move(request), &result);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();
  EXPECT_EQ(status.code(), Status::Code::kCancelled);
  EXPECT_GT(checks.value(), before);  // every poll is counted
  EXPECT_LT(elapsed, 5.0);  // orders of magnitude under the full run
}

// A deadline that fires while the allocation is being evaluated must
// still cancel the request: the engine re-checks the flag after
// evaluation, so a late success is never returned.
TEST(EngineTest, CancelDuringEvaluationReturnsCancelled) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  Engine engine(g, c);
  for (AlgoKind algo : {AlgoKind::kSeqGrdNm, AlgoKind::kRoundRobin}) {
    std::atomic<bool> cancel{false};
    AllocateRequest request = TinyRequest(algo);
    request.cancel = &cancel;
    request.progress = [&cancel](std::string_view stage) {
      if (stage == "evaluate") cancel.store(true);
    };
    AllocateResult result;
    EXPECT_EQ(engine.Allocate(request, &result).code(),
              Status::Code::kCancelled)
        << AlgoName(algo);

    cancel.store(false);
    const std::vector<BudgetVector> points = {{2, 2}, {3, 3}};
    std::vector<AllocateResult> batch;
    EXPECT_EQ(engine
                  .AllocateBatch(request,
                                 std::span<const BudgetVector>(points),
                                 &batch)
                  .code(),
              Status::Code::kCancelled)
        << AlgoName(algo);
  }
}

TEST(EngineTest, AllocateBatchOfOneIsBitIdenticalToAllocate) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  Engine engine(g, c);
  // The algorithms that share a PRIMA+ ranking across the batch, plus a
  // fallback algorithm (per-point Allocate) for contrast.
  for (AlgoKind algo : {AlgoKind::kSeqGrd, AlgoKind::kSeqGrdNm,
                        AlgoKind::kMaxGrd, AlgoKind::kRoundRobin}) {
    AllocateResult single;
    ASSERT_TRUE(engine.Allocate(TinyRequest(algo), &single).ok())
        << AlgoName(algo);
    const std::vector<BudgetVector> points = {{3, 3}};
    std::vector<AllocateResult> batch;
    ASSERT_TRUE(engine
                    .AllocateBatch(TinyRequest(algo),
                                   std::span<const BudgetVector>(points),
                                   &batch)
                    .ok())
        << AlgoName(algo);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].allocation.ToString(), single.allocation.ToString())
        << AlgoName(algo);
    EXPECT_EQ(batch[0].stats.welfare, single.stats.welfare)
        << AlgoName(algo);
    EXPECT_EQ(batch[0].skipped, single.skipped);
  }
}

TEST(EngineTest, AllocateBatchServesEveryBudgetPoint) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  Engine engine(g, c);
  const std::vector<BudgetVector> points = {{2, 2}, {4, 4}, {6, 6}};
  for (AlgoKind algo :
       {AlgoKind::kSeqGrd, AlgoKind::kMaxGrd, AlgoKind::kRoundRobin}) {
    std::vector<AllocateResult> batch;
    ASSERT_TRUE(engine
                    .AllocateBatch(TinyRequest(algo),
                                   std::span<const BudgetVector>(points),
                                   &batch)
                    .ok())
        << AlgoName(algo);
    ASSERT_EQ(batch.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      EXPECT_FALSE(batch[p].skipped);
      // Every point's allocation respects its own budget exactly —
      // MaxGRD spends one item's budget (everything on the best item),
      // the others spend every item's.
      const std::size_t want =
          algo == AlgoKind::kMaxGrd
              ? static_cast<std::size_t>(points[p][0])
              : static_cast<std::size_t>(points[p][0] + points[p][1]);
      EXPECT_EQ(batch[p].allocation.TotalPairs(), want)
          << AlgoName(algo) << " point " << p;
      EXPECT_GT(batch[p].stats.welfare, 0.0);
    }
    // More budget never hurts the estimated welfare materially; the
    // batch rows must at least be monotone-ish (loose sanity, not a
    // bit-exact contract).
    EXPECT_GE(batch[2].stats.welfare, batch[0].stats.welfare * 0.9);
  }
}

TEST(EngineTest, AllocateBatchRejectsEmptyPoints) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  Engine engine(g, c);
  std::vector<AllocateResult> batch;
  const Status status =
      engine.AllocateBatch(TinyRequest(AlgoKind::kSeqGrd), {}, &batch);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
}

TEST(EngineTest, ProgressHookReportsStages) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  Engine engine(g, c);
  std::vector<std::string> stages;
  AllocateRequest request = TinyRequest(AlgoKind::kBestOf);
  request.progress = [&stages](std::string_view stage) {
    stages.emplace_back(stage);
  };
  AllocateResult result;
  ASSERT_TRUE(engine.Allocate(std::move(request), &result).ok());
  ASSERT_GE(stages.size(), 2u);
  EXPECT_EQ(stages.front(), "BestOf");
  EXPECT_EQ(stages.back(), "evaluate");
  EXPECT_FALSE(result.note.empty());  // "chose SeqGRD" / "chose MaxGRD"
}

TEST(EngineTest, OpenOwnsGraphAndConfig) {
  const StatusOr<std::unique_ptr<Engine>> engine = Engine::Open(
      {.family = "erdos-renyi", .num_nodes = 200, .degree = 4},
      {.name = "C1"});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_GT(engine.value()->graph().num_nodes(), 0u);
  EXPECT_NE(engine.value()->graph_hash(), 0u);
  AllocateResult result;
  ASSERT_TRUE(engine.value()
                  ->Allocate(TinyRequest(AlgoKind::kSeqGrdNm), &result)
                  .ok());
  EXPECT_FALSE(result.skipped);
  EXPECT_GT(result.stats.welfare, 0.0);
  EXPECT_EQ(result.allocation.TotalPairs(), 6u);
}

TEST(EngineTest, EvaluateOffSkipsEvaluation) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  Engine engine(g, c);
  AllocateRequest request = TinyRequest(AlgoKind::kSeqGrdNm);
  request.evaluate = false;
  AllocateResult result;
  ASSERT_TRUE(engine.Allocate(std::move(request), &result).ok());
  EXPECT_EQ(result.stats.welfare, 0.0);
  EXPECT_EQ(result.evaluate_seconds, 0.0);
  EXPECT_EQ(result.allocation.TotalPairs(), 6u);
}

TEST(SweepTest, GoldenTaskReportsCrossEstimatorPoolReuse) {
  // The acceptance telemetry: in a golden scenario, the per-cell keyed
  // pool must show estimators sharing materialized worlds (every task of
  // a cell resolves the cell evaluator's pool by key).
  const StatusOr<ScenarioSpec> spec =
      GlobalScenarioRegistry().Find("smoke-tiny");
  ASSERT_TRUE(spec.ok());
  SweepOptions options;
  options.num_threads = 2;
  options.default_sims = 20;
  options.default_eval_sims = 30;
  const Counter& builds = MetricsRegistry::Global().GetCounter("pool.builds");
  const Counter& reuses = MetricsRegistry::Global().GetCounter("pool.reuses");
  const uint64_t builds_before = builds.value();
  const uint64_t reuses_before = reuses.value();
  const StatusOr<SweepResult> result = RunSweep(spec.value(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(reuses.value() - reuses_before, 1u);
  EXPECT_GE(builds.value() - builds_before, 1u);
}

}  // namespace
}  // namespace cwm
