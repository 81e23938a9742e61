// Tests for the scenario engine: spec validation, registry catalog, grid
// expansion, sinks, and the sweep determinism contract (bit-identical
// JSON-Lines at 1 thread and at DefaultThreads()/4 threads).
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/sink.h"
#include "scenario/sweep.h"
#include "support/thread_pool.h"

namespace cwm {
namespace {

ScenarioSpec TinySpec() {
  const StatusOr<ScenarioSpec> spec =
      GlobalScenarioRegistry().Find("smoke-tiny");
  EXPECT_TRUE(spec.ok());
  return spec.value();
}

TEST(RegistryTest, CatalogHasAtLeastTwelveScenarios) {
  EXPECT_GE(GlobalScenarioRegistry().All().size(), 12u);
}

TEST(RegistryTest, EveryNamedScenarioIsFoundAndValid) {
  const ScenarioRegistry& registry = GlobalScenarioRegistry();
  for (const std::string& name : registry.Names()) {
    const StatusOr<ScenarioSpec> spec = registry.Find(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec.value().name, name);
    const Status valid = spec.value().Validate();
    EXPECT_TRUE(valid.ok()) << name << ": " << valid.ToString();
  }
}

TEST(RegistryTest, NamesAreUnique) {
  const std::vector<std::string> names = GlobalScenarioRegistry().Names();
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

TEST(RegistryTest, CoversPaperAndBeyondPaperWorkloads) {
  const ScenarioRegistry& registry = GlobalScenarioRegistry();
  for (const char* name :
       {"fig3-runtime", "fig4-welfare", "fig4d-budget-skew", "fig5-supgrd",
        "fig6ab-num-items", "fig6c-blocking", "fig6d-scaling",
        "fig7-real-utility", "table6-adoption", "theory-theorem1",
        "theory-theorem2"}) {
    EXPECT_TRUE(registry.Find(name).ok()) << name;
  }
  int beyond = 0;
  for (const ScenarioSpec& spec : registry.All()) {
    if (spec.paper_ref.empty()) ++beyond;
  }
  EXPECT_GE(beyond, 3);
}

TEST(RegistryTest, EveryConfigSpecBuilds) {
  for (const ScenarioSpec& spec : GlobalScenarioRegistry().All()) {
    for (const ConfigSpec& config : spec.configs) {
      const StatusOr<UtilityConfig> built = config.Build();
      ASSERT_TRUE(built.ok()) << spec.name << "/" << config.Label();
      EXPECT_GE(built.value().num_items(), 1);
    }
  }
}

TEST(RegistryTest, UnknownNameReportsNearMisses) {
  const StatusOr<ScenarioSpec> result =
      GlobalScenarioRegistry().Find("fig4");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kNotFound);
  EXPECT_NE(result.status().message().find("fig4-welfare"),
            std::string::npos);
}

TEST(RegistryTest, RejectsDuplicatesAndInvalidSpecs) {
  ScenarioRegistry registry;
  ScenarioSpec spec = TinySpec();
  EXPECT_TRUE(registry.Register(spec).ok());
  EXPECT_FALSE(registry.Register(spec).ok());  // duplicate name

  ScenarioSpec invalid = TinySpec();
  invalid.name = "no-algos";
  invalid.algorithms.clear();
  EXPECT_FALSE(registry.Register(invalid).ok());
}

TEST(SpecTest, ValidateCatchesStructuralErrors) {
  ScenarioSpec spec = TinySpec();
  spec.networks[0].family = "no-such-family";
  EXPECT_FALSE(spec.Validate().ok());

  spec = TinySpec();
  spec.budget_points = {{5, 5, 5}};  // C1 has two items
  EXPECT_FALSE(spec.Validate().ok());

  spec = TinySpec();
  spec.algorithms.push_back(AlgoKind::kSupGrd);  // needs a fixed S_P
  EXPECT_FALSE(spec.Validate().ok());

  spec = TinySpec();
  spec.algorithms = {AlgoKind::kBalanceC};  // fine for two items
  EXPECT_TRUE(spec.Validate().ok());
  spec.configs = {{.name = "lastfm"}};  // four items: Balance-C invalid
  EXPECT_FALSE(spec.Validate().ok());
}

TEST(SpecTest, AlgoNamesRoundTrip) {
  for (AlgoKind kind :
       {AlgoKind::kSeqGrd, AlgoKind::kSeqGrdNm, AlgoKind::kMaxGrd,
        AlgoKind::kSupGrd, AlgoKind::kBestOf, AlgoKind::kTcim,
        AlgoKind::kGreedyWm, AlgoKind::kBalanceC, AlgoKind::kRoundRobin,
        AlgoKind::kSnake, AlgoKind::kBlockUtility, AlgoKind::kHighDegreeRank,
        AlgoKind::kDegreeDiscountRank, AlgoKind::kPageRankRank}) {
    const auto parsed = ParseAlgo(AlgoName(kind));
    ASSERT_TRUE(parsed.has_value()) << AlgoName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseAlgo("NoSuchAlgo").has_value());
}

TEST(GridTest, ExpansionCountsMatchAxes) {
  const ScenarioRegistry& registry = GlobalScenarioRegistry();

  // fig3: 4 networks x 1 config x 3 budgets x 1 seed x 6 algorithms.
  const ScenarioSpec fig3 = registry.Find("fig3-runtime").value();
  EXPECT_EQ(ExpandGrid(fig3, false).size(), 4u * 1 * 3 * 1 * 6);

  // smoke-tiny: 1 x 1 x 2 budgets x 2 seeds x 6 algorithms.
  EXPECT_EQ(ExpandGrid(TinySpec(), false).size(), 1u * 1 * 2 * 2 * 6);

  // table6: 2 networks x 2 configs x 2 budgets x 1 seed x 3 allocators.
  const ScenarioSpec t6 = registry.Find("table6-adoption").value();
  EXPECT_EQ(ExpandGrid(t6, false).size(), 2u * 2 * 2 * 1 * 3);
}

TEST(GridTest, IndicesAreStableAndGatingDoesNotChangeRowCount) {
  const ScenarioSpec fig3 =
      GlobalScenarioRegistry().Find("fig3-runtime").value();
  const std::vector<ScenarioTask> gated = ExpandGrid(fig3, false);
  const std::vector<ScenarioTask> open = ExpandGrid(fig3, true);
  ASSERT_EQ(gated.size(), open.size());
  std::size_t gated_count = 0;
  for (std::size_t i = 0; i < gated.size(); ++i) {
    EXPECT_EQ(gated[i].index, i);
    EXPECT_EQ(gated[i].algo, open[i].algo);
    EXPECT_FALSE(open[i].gated);
    if (gated[i].gated) {
      ++gated_count;
      EXPECT_TRUE(IsSlowAlgo(gated[i].algo));
    }
  }
  // fig3 gates on the first network (the paper runs greedyWM/Balance-C on
  // NetHEPT at every budget): two slow algorithms gated on the other
  // three networks' three budget points each.
  EXPECT_EQ(gated_count, 2u * 3 * 3);
}

TEST(GridTest, GateWindowsFollowTheSpec) {
  // fig4 gates on the first budget point: greedyWM/Balance-C run at
  // budget 10 for every configuration (the old driver's protocol).
  const ScenarioSpec fig4 =
      GlobalScenarioRegistry().Find("fig4-welfare").value();
  ASSERT_EQ(fig4.slow_gate, SlowGate::kFirstBudget);
  std::size_t gated = 0, open_slow = 0;
  for (const ScenarioTask& task : ExpandGrid(fig4, false)) {
    if (!IsSlowAlgo(task.algo)) continue;
    if (task.gated) {
      ++gated;
      EXPECT_NE(task.budget_index, 0u);
    } else {
      ++open_slow;
      EXPECT_EQ(task.budget_index, 0u);
    }
  }
  EXPECT_EQ(open_slow, 2u * 3);  // 2 slow algos x 3 configs at budget 10
  EXPECT_EQ(gated, 2u * 3 * 2);  // gated at budgets 30 and 50
}

TEST(NetworkSpecTest, BuildsTinyGeneratorFamilies) {
  NetworkSpec net;
  net.family = "erdos-renyi";
  net.num_nodes = 200;
  net.degree = 4;
  const StatusOr<Graph> graph = net.Build();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().num_nodes(), 200u);
  // The generator draws 4 * 200 distinct directed edges; a handful of
  // duplicate draws may be rejected, so allow a small shortfall.
  EXPECT_GE(graph.value().num_edges(), 700u);
  EXPECT_LE(graph.value().num_edges(), 800u);

  NetworkSpec bad;
  bad.family = "edge-list";  // no path
  EXPECT_FALSE(bad.Build().ok());

  // Scale multiplies generator node counts.
  const StatusOr<Graph> scaled = net.Build(/*scale=*/0.5);
  ASSERT_TRUE(scaled.ok());
  EXPECT_EQ(scaled.value().num_nodes(), 100u);
}

TEST(SinkTest, JsonEscapingAndDoubles) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonDouble(0.0), "0");
  EXPECT_EQ(JsonDouble(2.5), "2.5");
}

TEST(SweepTest, TinySweepProducesOneRowPerGridCell) {
  const ScenarioSpec spec = TinySpec();
  SweepOptions options;
  options.num_threads = 1;
  const StatusOr<SweepResult> result = RunSweep(spec, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().rows.size(), ExpandGrid(spec, false).size());
  for (const TaskResult& row : result.value().rows) {
    EXPECT_EQ(row.scenario, "smoke-tiny");
    EXPECT_FALSE(row.skipped) << row.skip_reason;
    ASSERT_EQ(row.budgets.size(), 2u);  // size-1 point broadcast to 2 items
    EXPECT_GT(row.welfare, 0.0) << row.algorithm;
    EXPECT_EQ(row.graph_nodes, 300u);
    EXPECT_EQ(row.adopters_per_item.size(), 2u);
  }
}

TEST(SweepTest, GoldenDeterminismAcrossThreadCounts) {
  const ScenarioSpec spec = TinySpec();

  SweepOptions single;
  single.num_threads = 1;
  const StatusOr<SweepResult> a = RunSweep(spec, single);
  ASSERT_TRUE(a.ok());

  SweepOptions multi;
  multi.num_threads = std::max(4u, DefaultThreads());
  const StatusOr<SweepResult> b = RunSweep(spec, multi);
  ASSERT_TRUE(b.ok());

  std::ostringstream ja, jb, ca, cb;
  WriteJsonLines(a.value(), ja);
  WriteJsonLines(b.value(), jb);
  WriteCsv(a.value(), ca);
  WriteCsv(b.value(), cb);
  EXPECT_EQ(ja.str(), jb.str());  // byte-identical artifacts
  EXPECT_EQ(ca.str(), cb.str());
  EXPECT_GT(ja.str().size(), 0u);
}

// Tasks start longest-first: gated rows last, slow allocators first,
// then the larger graph (edges), then the larger total budget, grid index
// breaking ties. At one thread on_result fires in start order; rows stay
// in grid order either way.
TEST(SweepTest, TasksStartLongestFirstAndRowsStayInGridOrder) {
  ScenarioSpec spec = TinySpec();
  NetworkSpec small = spec.networks[0];
  small.num_nodes = 200;
  small.label = "er-small";
  NetworkSpec large = spec.networks[0];
  large.label = "er-large";
  spec.networks = {small, large};
  spec.algorithms = {AlgoKind::kSeqGrdNm, AlgoKind::kGreedyWm};
  spec.budget_points = {{2}, {3}};
  spec.seeds = {1, 2};
  spec.sims = 10;
  spec.eval_sims = 20;
  spec.slow_gate = SlowGate::kFirstNetwork;  // greedyWM gated on er-large

  std::vector<std::size_t> started;
  SweepOptions single;
  single.num_threads = 1;
  single.on_result = [&started](const TaskResult& row) {
    started.push_back(row.task_index);
  };
  const StatusOr<SweepResult> a = RunSweep(spec, single);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  const std::vector<TaskResult>& rows = a.value().rows;
  ASSERT_EQ(rows.size(), 16u);
  ASSERT_GT(rows[8].graph_edges, rows[0].graph_edges);

  // Grid (network, budget, seed, algorithm): 0-7 on er-small, 8-15 on
  // er-large; even indices SeqGRD-NM, odd greedyWM; budget 3 at 4-7 and
  // 12-15.
  const std::vector<std::size_t> want = {
      5,  7,  1,  3,   // greedyWM (slow) on er-small: budget 3, then 2
      12, 14, 8,  10,  // SeqGRD-NM on the larger graph: budget 3, then 2
      4,  6,  0,  2,   // SeqGRD-NM on er-small
      13, 15, 9,  11,  // gated greedyWM rows last
  };
  EXPECT_EQ(started, want);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    EXPECT_EQ(rows[t].task_index, t);
    EXPECT_EQ(rows[t].skipped, t >= 8 && t % 2 == 1) << rows[t].skip_reason;
  }

  SweepOptions multi;
  multi.num_threads = 4;
  const StatusOr<SweepResult> b = RunSweep(spec, multi);
  ASSERT_TRUE(b.ok());
  std::ostringstream ja, jb;
  WriteJsonLines(a.value(), ja);
  WriteJsonLines(b.value(), jb);
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(SweepTest, SeedChangesResults) {
  ScenarioSpec spec = TinySpec();
  spec.seeds = {1};
  SweepOptions options;
  options.num_threads = 1;
  const StatusOr<SweepResult> a = RunSweep(spec, options);
  ASSERT_TRUE(a.ok());
  spec.seeds = {99};
  const StatusOr<SweepResult> b = RunSweep(spec, options);
  ASSERT_TRUE(b.ok());
  std::ostringstream ja, jb;
  WriteJsonLines(a.value(), ja);
  WriteJsonLines(b.value(), jb);
  EXPECT_NE(ja.str(), jb.str());
}

TEST(SweepTest, EvaluationWorldsAreSharedWithinACell) {
  // All algorithms of one cell must be scored on the same sampled worlds:
  // two algorithms that produce the same allocation get the same welfare.
  ScenarioSpec spec = TinySpec();
  spec.algorithms = {AlgoKind::kSeqGrdNm, AlgoKind::kBlockUtility};
  spec.budget_points = {{5}};
  spec.seeds = {7};
  SweepOptions options;
  options.num_threads = 1;
  const StatusOr<SweepResult> result = RunSweep(spec, options);
  ASSERT_TRUE(result.ok());
  // Not asserting equality of welfare (allocations differ); asserting the
  // shared-world seed derivation ran: both rows evaluated, same budgets.
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0].budgets, result.value().rows[1].budgets);
}

TEST(SweepTest, Theorem2GadgetScenarioRuns) {
  const ScenarioSpec spec =
      GlobalScenarioRegistry().Find("theory-theorem2").value();
  SweepOptions options;
  options.num_threads = 1;
  const StatusOr<SweepResult> result = RunSweep(spec, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const TaskResult& row : result.value().rows) {
    EXPECT_FALSE(row.skipped) << row.algorithm << ": " << row.skip_reason;
    // The fixed allocation alone already yields positive welfare; any
    // i1 placement on the YES instance should keep it positive.
    EXPECT_GT(row.welfare, 0.0) << row.algorithm;
  }
}

TEST(SweepTest, JsonRecordsRoundTripStructure) {
  const ScenarioSpec spec = TinySpec();
  SweepOptions options;
  options.num_threads = 1;
  const StatusOr<SweepResult> result = RunSweep(spec, options);
  ASSERT_TRUE(result.ok());
  std::ostringstream os;
  WriteJsonLines(result.value(), os);
  const std::string text = os.str();
  // One header + one line per row, each a JSON object.
  std::size_t lines = 0, pos = 0;
  while ((pos = text.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, 1 + result.value().rows.size());
  EXPECT_EQ(text.rfind("{\"type\":\"spec\"", 0), 0u);
  EXPECT_NE(text.find("{\"type\":\"result\""), std::string::npos);
  // Timing is excluded by default so artifacts are reproducible.
  EXPECT_EQ(text.find("\"seconds\""), std::string::npos);
  std::ostringstream timed;
  WriteJsonLines(result.value(), timed, {.include_timing = true});
  EXPECT_NE(timed.str().find("\"seconds\""), std::string::npos);
}

}  // namespace
}  // namespace cwm
