// Golden bit-equality tests for the batched world-snapshot estimator:
// StatsBatch / MarginalWelfareBatch / MarginalBalancedExposureBatch must
// return values *bit-identical* to the streaming methods for every
// candidate — at 1/2/8 threads, for empty allocations and batch size 1,
// and whether worlds come from materialized snapshots or the streaming
// fallback (tiny / zero snapshot budget). The incremental marginals
// (UicSimulator::Record / RunOver / Advance and MarginalSession) are held
// to the same standard: per world against RunWorld and Record, per gain
// against the streaming references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "exp/configs.h"
#include "graph/edge_prob.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/allocation.h"
#include "simulate/estimator.h"
#include "simulate/uic_simulator.h"
#include "simulate/world_pool.h"

namespace cwm {
namespace {

/// A reproducible sparse digraph with mixed probabilities, including
/// p = 0 and p = 1 edges (the EdgeWorld short-circuit cases).
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

/// Candidate allocations spanning the shapes the algorithms submit:
/// empty, single pair, per-item prefixes, overlapping seeds.
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
    Allocation second(num_items);
    for (NodeId v = 0; v < 6; ++v) second.Add(v * 7 + 1, 1);
    out.push_back(second);
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

class EstimatorBatchTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(EstimatorBatchTest, StatsBatchBitEqualsStreaming) {
  const Graph g = TestGraph();
  // C5 carries clamped-normal noise, so the per-world utility tables are
  // genuinely world-dependent — the noise stream must replay exactly.
  const UtilityConfig c = MakeConfigC5();
  const WelfareEstimator est(
      g, c, {.num_worlds = 33, .seed = 77, .num_threads = GetParam()});
  const std::vector<Allocation> candidates = Candidates(c.num_items());
  const std::vector<WelfareStats> batched = est.StatsBatch(candidates);
  ASSERT_EQ(batched.size(), candidates.size());
  for (std::size_t j = 0; j < candidates.size(); ++j) {
    ExpectStatsBitEqual(batched[j], est.Stats(candidates[j]));
  }
}

TEST_P(EstimatorBatchTest, MarginalWelfareBatchBitEqualsStreaming) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  const WelfareEstimator est(
      g, c, {.num_worlds = 33, .seed = 99, .num_threads = GetParam()});
  const std::vector<Allocation> extras = Candidates(c.num_items());

  Allocation base(c.num_items());
  base.Add(7, 0);
  base.Add(50, 1);
  for (const Allocation& b : {Allocation(c.num_items()), base}) {
    const std::vector<double> batched = est.MarginalWelfareBatch(b, extras);
    ASSERT_EQ(batched.size(), extras.size());
    for (std::size_t j = 0; j < extras.size(); ++j) {
      EXPECT_EQ(batched[j], est.MarginalWelfare(b, extras[j]))
          << "extra " << j << " base " << b.ToString();
    }
  }
}

TEST_P(EstimatorBatchTest, MarginalBalancedExposureBatchBitEqualsStreaming) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  const WelfareEstimator est(
      g, c, {.num_worlds = 25, .seed = 5, .num_threads = GetParam()});
  const std::vector<Allocation> extras = Candidates(c.num_items());
  Allocation base(c.num_items());
  base.Add(2, 1);
  for (const Allocation& b : {Allocation(c.num_items()), base}) {
    const std::vector<double> batched =
        est.MarginalBalancedExposureBatch(b, extras);
    for (std::size_t j = 0; j < extras.size(); ++j) {
      EXPECT_EQ(batched[j], est.MarginalBalancedExposure(b, extras[j]));
    }
  }
}

TEST_P(EstimatorBatchTest, TinyBudgetStreamsWorldsWithIdenticalResults) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC5();
  // 1 byte: every world falls back to streaming regeneration inside the
  // batch loop. 0: materialization disabled outright. Both must match the
  // default-budget batch bit for bit.
  const std::vector<Allocation> candidates = Candidates(c.num_items());
  // packed_kernel off: this test is about the snapshot pool's streaming
  // fallback, so the reference must actually build snapshots.
  const WelfareEstimator full(g, c,
                              {.num_worlds = 33,
                               .seed = 13,
                               .num_threads = GetParam(),
                               .packed_kernel = false});
  const std::vector<WelfareStats> reference = full.StatsBatch(candidates);
  EXPECT_GT(full.snapshot_stats().snapshotted, 0);
  for (const std::size_t budget : {std::size_t{1}, std::size_t{0}}) {
    const WelfareEstimator starved(g, c,
                                   {.num_worlds = 33,
                                    .seed = 13,
                                    .num_threads = GetParam(),
                                    .snapshot_budget_bytes = budget});
    const std::vector<WelfareStats> streamed =
        starved.StatsBatch(candidates);
    EXPECT_EQ(starved.snapshot_stats().snapshotted, 0);
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      ExpectStatsBitEqual(streamed[j], reference[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, EstimatorBatchTest,
                         ::testing::Values(1u, 2u, 8u));

TEST(EstimatorBatchTest, BatchOfOneAndEmptyBatch) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  const WelfareEstimator est(g, c, {.num_worlds = 16, .seed = 3});
  Allocation alloc(c.num_items());
  alloc.Add(0, 0);
  const std::vector<WelfareStats> one = est.StatsBatch({&alloc, 1});
  ASSERT_EQ(one.size(), 1u);
  ExpectStatsBitEqual(one[0], est.Stats(alloc));
  EXPECT_TRUE(est.StatsBatch({}).empty());
  EXPECT_TRUE(est.MarginalWelfareBatch(alloc, {}).empty());
}

TEST(EstimatorBatchTest, PoolIsBuiltOnceAndReused) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  const WelfareEstimator est(g, c, {.num_worlds = 20, .seed = 21});
  EXPECT_EQ(est.snapshot_stats().snapshotted, 0);  // lazy until first batch
  Allocation alloc(c.num_items());
  alloc.Add(1, 0);
  const std::vector<WelfareStats> first = est.StatsBatch({&alloc, 1});
  const WorldPoolStats stats = est.snapshot_stats();
  EXPECT_EQ(stats.snapshotted, 20);
  EXPECT_GT(stats.bytes, 0u);
  const std::vector<WelfareStats> second = est.StatsBatch({&alloc, 1});
  ExpectStatsBitEqual(first[0], second[0]);
  EXPECT_EQ(est.snapshot_stats().bytes, stats.bytes);  // same pool object
}

// ---------------------------------------------------------------------
// Incremental marginals.
// ---------------------------------------------------------------------

struct Network {
  std::string name;
  Graph graph;
};

/// Small weak-tie and strong-tie graphs: weighted cascade, and uniform
/// p = 0.1 / 0.5 on the same topology. Strong ties make the extras'
/// live-reach regions outgrow the base, so the fallback runs too.
std::vector<Network> Networks() {
  const Graph topology = ErdosRenyi(150, 750, 11);
  std::vector<Network> out;
  out.push_back({"wc", WithWeightedCascade(topology)});
  out.push_back({"p0.1", WithConstantProb(topology, 0.1)});
  out.push_back({"p0.5", WithConstantProb(topology, 0.5)});
  return out;
}

struct NamedConfig {
  std::string name;
  UtilityConfig config;
};

std::vector<NamedConfig> Configs() {
  std::vector<NamedConfig> out;
  out.push_back({"C1", MakeConfigC1()});
  out.push_back({"C5", MakeConfigC5()});
  out.push_back({"table4", MakeThreeItemConfig()});
  out.push_back({"mixed", MakeMixedComplementConfig()});
  return out;
}

/// Bases: empty, an S_P-like pair of seeds, and 30 seeded pairs.
std::vector<Allocation> Bases(int num_items) {
  std::vector<Allocation> out;
  out.emplace_back(num_items);
  Allocation sp(num_items);
  sp.Add(3, 0);
  sp.Add(40, num_items - 1);
  out.push_back(sp);
  Allocation large(num_items);
  Rng rng(2024);
  while (large.TotalPairs() < 30) {
    large.Add(static_cast<NodeId>(rng.NextBounded(150)),
              static_cast<ItemId>(rng.NextBounded(num_items)));
  }
  out.push_back(large);
  return out;
}

/// Extras against `base`: a single pair, a base node with another item, a
/// pair already in the base, and a multi-node block.
std::vector<Allocation> Extras(const Allocation& base) {
  const int m = base.num_items();
  std::vector<Allocation> out;
  Allocation single(m);
  single.Add(17, 0);
  out.push_back(single);
  for (ItemId i = 0; i < m; ++i) {
    if (base.SeedsOf(i).empty()) continue;
    Allocation other_item(m);
    other_item.Add(base.SeedsOf(i).front(), (i + 1) % m);
    out.push_back(other_item);
    Allocation existing(m);
    existing.Add(base.SeedsOf(i).back(), i);
    out.push_back(existing);
    break;
  }
  Allocation block(m);
  for (NodeId v : {5u, 23u, 61u, 88u, 120u}) block.Add(v, 1 % m);
  out.push_back(block);
  return out;
}

void ExpectOutcomeEqual(const WorldOutcome& got, const WorldOutcome& want,
                        const std::string& where) {
  EXPECT_EQ(std::memcmp(&got.welfare, &want.welfare, sizeof(double)), 0)
      << where << ": welfare " << got.welfare << " vs " << want.welfare;
  EXPECT_EQ(got.adopters_per_item, want.adopters_per_item) << where;
  EXPECT_EQ(got.adopting_nodes, want.adopting_nodes) << where;
  EXPECT_EQ(got.one_sided_exposure_01, want.one_sided_exposure_01) << where;
}

/// Size of the live-reach closure of `nodes` in `snapshot` — whether
/// RunOver re-simulates a region or falls back is decided by this.
std::size_t ReachSize(const WorldSnapshot& snapshot, std::size_t num_nodes,
                      const std::vector<NodeId>& nodes) {
  std::vector<bool> seen(num_nodes, false);
  std::vector<NodeId> queue;
  for (NodeId v : nodes) {
    if (!seen[v]) {
      seen[v] = true;
      queue.push_back(v);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (NodeId to : snapshot.LiveOut(queue[head])) {
      if (!seen[to]) {
        seen[to] = true;
        queue.push_back(to);
      }
    }
  }
  return queue.size();
}

// World level: the outcome RunOver re-simulates from a record is the
// outcome RunWorld computes for base ∪ extra, field by field, welfare to
// the bit — one record serving every extra, as in a session.
TEST(IncrementalMarginalTest, RunOverEqualsRunWorldPerWorld) {
  std::size_t replayed = 0;
  for (const Network& net : Networks()) {
    for (const NamedConfig& nc : Configs()) {
      const UtilityConfig& c = nc.config;
      UicSimulator sim(net.graph, c);
      UicSimulator reference(net.graph, c);
      RecordedWorld record;
      for (int w = 0; w < 12; ++w) {
        const WorldSnapshot snapshot(net.graph, c, WorldEdgeSeedOf(5, w),
                                     WorldNoiseRngOf(5, w));
        for (const Allocation& base : Bases(c.num_items())) {
          sim.Record(base.SeededItemsets(), snapshot, &record);
          const std::string where = net.name + "/" + nc.name + " world " +
                                    std::to_string(w) + " base " +
                                    base.ToString();
          ExpectOutcomeEqual(record.outcome,
                             reference.RunWorld(base, snapshot), where);
          for (const Allocation& extra : Extras(base)) {
            const Allocation merged = Allocation::Union(base, extra);
            const std::vector<NodeId> nodes = extra.SeedNodes();
            ExpectOutcomeEqual(
                sim.RunOver(record, merged.SeededItemsets(), nodes,
                            snapshot),
                reference.RunWorld(merged, snapshot),
                where + " extra " + extra.ToString());
            if (record.outcome.adopting_nodes > 0 &&
                ReachSize(snapshot, net.graph.num_nodes(), nodes) <=
                    record.nodes.size()) {
              ++replayed;
            }
          }
        }
      }
    }
  }
  // The inputs must exercise the re-simulation, not only the fallback.
  EXPECT_GT(replayed, 500u);
}

// A boundary offer can reach R after R's own frontier has died out: the
// re-run must keep going until every recorded offer into R is delivered.
// Chain 0 -> 1 -> 2 -> 3 -> 4 (base seed 0) brings item 0 to node 4 in
// round 3; the extra seeds node 6 -> 4 -> 5 with item 1, whose own
// cascade is over after round 1.
TEST(IncrementalMarginalTest, LateBoundaryOfferAfterRegionFrontierDies) {
  GraphBuilder b(7);
  for (const auto& [u, v] : {std::pair{0u, 1u}, std::pair{1u, 2u},
                            std::pair{2u, 3u}, std::pair{3u, 4u},
                            std::pair{6u, 4u}, std::pair{4u, 5u}}) {
    b.AddEdge(u, v, 1.0);
  }
  const Graph g = std::move(b).Build();
  for (const UtilityConfig& c : {MakeConfigC1(), MakeConfigC3()}) {
    Allocation base(c.num_items());
    base.Add(0, 0);
    Allocation extra(c.num_items());
    extra.Add(6, 1);
    const Allocation merged = Allocation::Union(base, extra);
    UicSimulator sim(g, c);
    UicSimulator reference(g, c);
    RecordedWorld record;
    int late = 0;
    for (int w = 0; w < 40; ++w) {
      const WorldSnapshot snapshot(g, c, WorldEdgeSeedOf(9, w),
                                   WorldNoiseRngOf(9, w));
      sim.Record(base.SeededItemsets(), snapshot, &record);
      ExpectOutcomeEqual(
          sim.RunOver(record, merged.SeededItemsets(), {{6}}, snapshot),
          reference.RunWorld(merged, snapshot),
          "world " + std::to_string(w));
      // Item 0 crossed the whole chain, so node 4 gets it in round 3.
      if (record.nodes.size() == 6) ++late;
    }
    EXPECT_GE(late, 10);  // noise lets the base adopt in most worlds
  }
}

/// Pick `step` of a chain of advances from `current`: a new pair, a seed
/// node of `current` with another item, a pair already in `current`, a
/// multi-node block, then another new pair.
Allocation ChainPick(const Allocation& current, int step) {
  const int m = current.num_items();
  Allocation pick(m);
  ItemId seeded = 0;
  while (seeded < m && current.SeedsOf(seeded).empty()) ++seeded;
  switch (step) {
    case 0:
      pick.Add(17, 0);
      break;
    case 1:
      pick.Add(current.SeedsOf(seeded).front(), (seeded + 1) % m);
      break;
    case 2:
      pick.Add(current.SeedsOf(seeded).back(), seeded);
      break;
    case 3:
      for (NodeId v : {5u, 23u, 61u}) pick.Add(v, 1 % m);
      break;
    default:
      pick.Add(120, m - 1);
      break;
  }
  return pick;
}

/// Receiver i's offers as a sorted list: the order of one receiver's
/// offers is not part of a record's contract.
std::vector<std::tuple<NodeId, uint32_t, ItemSet>> OffersOf(
    const RecordedWorld& record, std::size_t i) {
  std::vector<std::tuple<NodeId, uint32_t, ItemSet>> out;
  for (uint32_t k = record.offer_begin[i]; k < record.offer_begin[i + 1];
       ++k) {
    const RecordedWorld::Offer& offer = record.offers[k];
    out.emplace_back(offer.sender, offer.round, offer.fresh);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectRecordEqual(const RecordedWorld& got, const RecordedWorld& want,
                       const std::string& where) {
  ExpectOutcomeEqual(got.outcome, want.outcome, where);
  EXPECT_EQ(got.replayable, want.replayable) << where;
  ASSERT_EQ(got.nodes, want.nodes) << where;
  EXPECT_EQ(got.desire, want.desire) << where;
  EXPECT_EQ(got.adopted, want.adopted) << where;
  ASSERT_EQ(got.utility.size(), want.utility.size()) << where;
  EXPECT_EQ(std::memcmp(got.utility.data(), want.utility.data(),
                        got.utility.size() * sizeof(double)),
            0)
      << where << ": utilities differ";
  ASSERT_EQ(got.offer_begin.size(), want.offer_begin.size()) << where;
  for (std::size_t i = 0; i < got.nodes.size(); ++i) {
    EXPECT_EQ(OffersOf(got, i), OffersOf(want, i))
        << where << ": offers to node " << got.nodes[i];
  }
}

// World level: advancing a record by a pick gives Record(base ∪ pick) —
// the same node, desire, adoption and utility arrays, the same outcome
// (welfare to the bit) and the same offers per receiver — along chains of
// five advances from every base, and RunOver on each advanced record
// still equals RunWorld.
TEST(IncrementalMarginalTest, AdvanceEqualsRecordAlongChains) {
  std::size_t spliced = 0;
  for (const Network& net : Networks()) {
    for (const NamedConfig& nc : Configs()) {
      const UtilityConfig& c = nc.config;
      UicSimulator sim(net.graph, c);
      UicSimulator reference(net.graph, c);
      RecordedWorld record, advanced, fresh;
      for (int w = 0; w < 8; ++w) {
        const WorldSnapshot snapshot(net.graph, c, WorldEdgeSeedOf(6, w),
                                     WorldNoiseRngOf(6, w));
        for (const Allocation& base : Bases(c.num_items())) {
          sim.Record(base.SeededItemsets(), snapshot, &record);
          Allocation current = base;
          for (int step = 0; step < 5; ++step) {
            const Allocation pick = ChainPick(current, step);
            const Allocation next = Allocation::Union(current, pick);
            const std::vector<NodeId> nodes = pick.SeedNodes();
            const std::string where =
                net.name + "/" + nc.name + " world " + std::to_string(w) +
                " base " + base.ToString() + " step " +
                std::to_string(step) + " pick " + pick.ToString();
            if (record.outcome.adopting_nodes > 0 &&
                ReachSize(snapshot, net.graph.num_nodes(), nodes) <=
                    record.nodes.size()) {
              ++spliced;
            }
            sim.Advance(record, next.SeededItemsets(), nodes, snapshot,
                        &advanced);
            reference.Record(next.SeededItemsets(), snapshot, &fresh);
            ExpectRecordEqual(advanced, fresh, where);
            for (const Allocation& extra : Extras(next)) {
              const Allocation merged = Allocation::Union(next, extra);
              ExpectOutcomeEqual(
                  sim.RunOver(advanced, merged.SeededItemsets(),
                              extra.SeedNodes(), snapshot),
                  reference.RunWorld(merged, snapshot),
                  where + " extra " + extra.ToString());
            }
            std::swap(record, advanced);
            current = next;
          }
        }
      }
    }
  }
  // The chains must exercise the splice, not only the fallback.
  EXPECT_GT(spliced, 500u);
}

class MarginalSessionTest : public ::testing::TestWithParam<unsigned> {};

// Gain level: session gains (retained records, reused across calls) and
// the one-shot batch pass equal the streaming references to the bit, with
// a full snapshot budget and with one covering only some worlds.
TEST_P(MarginalSessionTest, GainsBitEqualStreaming) {
  for (const Network& net : Networks()) {
    const std::size_t per_world = EstimateSnapshotBytes(net.graph);
    for (const NamedConfig& nc : Configs()) {
      const UtilityConfig& c = nc.config;
      for (const std::size_t budget :
           {std::size_t{256} << 20, per_world * 10}) {
        const WelfareEstimator est(net.graph, c,
                                   {.num_worlds = 33,
                                    .seed = 71,
                                    .num_threads = GetParam(),
                                    .snapshot_budget_bytes = budget,
                                    .packed_kernel = false});
        for (const Allocation& base : Bases(c.num_items())) {
          const std::vector<Allocation> extras = Extras(base);
          MarginalSession session = est.Marginals(base);
          const std::vector<double> welfare_batch =
              est.MarginalWelfareBatch(base, extras);
          const std::vector<double> exposure_batch =
              est.MarginalBalancedExposureBatch(base, extras);
          for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t j = 0; j < extras.size(); ++j) {
              const std::string where =
                  net.name + "/" + nc.name + " budget " +
                  std::to_string(budget) + " base " + base.ToString() +
                  " extra " + extras[j].ToString();
              const double welfare = est.MarginalWelfare(base, extras[j]);
              const double exposure =
                  est.MarginalBalancedExposure(base, extras[j]);
              EXPECT_EQ(session.Welfare(extras[j]), welfare) << where;
              EXPECT_EQ(session.BalancedExposure(extras[j]), exposure)
                  << where;
              EXPECT_EQ(welfare_batch[j], welfare) << where;
              EXPECT_EQ(exposure_batch[j], exposure) << where;
            }
          }
        }
        if (budget != (std::size_t{256} << 20)) {
          const int snapshotted = est.snapshot_stats().snapshotted;
          EXPECT_GT(snapshotted, 0);
          EXPECT_LT(snapshotted, 33);
        }
      }
    }
  }
}

// Gain level after advancing: gains after 1, 2 and 3 Advance calls, and
// after two picks left pending for a single gain, equal the streaming
// references against the grown base to the bit — with a full snapshot
// budget and with one covering only some worlds.
TEST_P(MarginalSessionTest, AdvancedGainsBitEqualStreaming) {
  for (const Network& net : Networks()) {
    const std::size_t per_world = EstimateSnapshotBytes(net.graph);
    for (const NamedConfig& nc : Configs()) {
      const UtilityConfig& c = nc.config;
      const auto options = [&](std::size_t budget) {
        return EstimatorOptions{.num_worlds = 33,
                                .seed = 72,
                                .num_threads = GetParam(),
                                .snapshot_budget_bytes = budget,
                                .packed_kernel = false};
      };
      const WelfareEstimator full(net.graph, c, options(256ull << 20));
      const WelfareEstimator partial(net.graph, c, options(per_world * 10));
      for (const Allocation& base : Bases(c.num_items())) {
        MarginalSession sessions[] = {full.Marginals(base),
                                      partial.Marginals(base)};
        Allocation current = base;
        int step = 0;
        // Advances before each check: 0, 1, 1, 1, then 2 pending.
        for (const int advances : {0, 1, 1, 1, 2}) {
          for (int a = 0; a < advances; ++a, ++step) {
            const Allocation pick = ChainPick(current, step);
            for (MarginalSession& session : sessions) session.Advance(pick);
            current = Allocation::Union(current, pick);
          }
          for (const Allocation& extra : Extras(current)) {
            // Streaming results do not depend on the snapshot budget.
            const double welfare = full.MarginalWelfare(current, extra);
            const double exposure =
                full.MarginalBalancedExposure(current, extra);
            for (int b = 0; b < 2; ++b) {
              const std::string where =
                  net.name + "/" + nc.name +
                  (b == 0 ? " full" : " partial") + " budget, base " +
                  current.ToString() + " extra " + extra.ToString();
              EXPECT_EQ(sessions[b].Welfare(extra), welfare) << where;
              EXPECT_EQ(sessions[b].BalancedExposure(extra), exposure)
                  << where;
            }
          }
        }
      }
      const int snapshotted = partial.snapshot_stats().snapshotted;
      EXPECT_GT(snapshotted, 0);
      EXPECT_LT(snapshotted, 33);
    }
  }
}

// With the packed kernel engaged (strong ties, enough worlds) a session
// takes the packed batch; its gains still equal the streaming references,
// before and after advancing.
TEST_P(MarginalSessionTest, PackedEstimatorSessionBitEqualsStreaming) {
  const Graph g = WithConstantProb(ErdosRenyi(150, 750, 11), 0.5);
  const UtilityConfig c = MakeConfigC1();
  const WelfareEstimator est(
      g, c, {.num_worlds = 64, .seed = 8, .num_threads = GetParam()});
  for (const Allocation& base : Bases(c.num_items())) {
    MarginalSession session = est.Marginals(base);
    Allocation current = base;
    for (int step = 0; step < 3; ++step) {
      for (const Allocation& extra : Extras(current)) {
        EXPECT_EQ(session.Welfare(extra),
                  est.MarginalWelfare(current, extra));
        EXPECT_EQ(session.BalancedExposure(extra),
                  est.MarginalBalancedExposure(current, extra));
      }
      const Allocation pick = ChainPick(current, step);
      session.Advance(pick);
      current = Allocation::Union(current, pick);
    }
  }
  EXPECT_EQ(est.snapshot_stats().snapshotted, 0);  // never left packing
}

INSTANTIATE_TEST_SUITE_P(Threads, MarginalSessionTest,
                         ::testing::Values(1u, 2u, 8u));

TEST(WorldSnapshotTest, LiveOutMatchesLazyEdgeWorld) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  const uint64_t seed = 0xABCDEF;
  const WorldSnapshot snapshot(g, c, WorldEdgeSeedOf(seed, 4),
                               WorldNoiseRngOf(seed, 4));
  const EdgeWorld lazy{WorldEdgeSeedOf(seed, 4)};
  std::size_t live_total = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::vector<NodeId> expect;
    const auto out = g.OutEdges(u);
    for (std::size_t k = 0; k < out.size(); ++k) {
      if (lazy.Live(g.OutEdgeId(u, k), out[k].prob)) {
        expect.push_back(out[k].to);
      }
    }
    const auto got = snapshot.LiveOut(u);
    ASSERT_EQ(got.size(), expect.size()) << "node " << u;
    for (std::size_t k = 0; k < expect.size(); ++k) {
      EXPECT_EQ(got[k], expect[k]);
    }
    live_total += expect.size();
  }
  EXPECT_EQ(snapshot.live_edges(), live_total);
}

TEST(WorldPoolTest, BudgetBoundsThePrefixDeterministically) {
  const Graph g = TestGraph();
  const UtilityConfig c = MakeConfigC1();
  const WorldPool all(g, c, /*seed=*/9, /*num_worlds=*/12,
                      /*budget_bytes=*/64ull << 20, /*num_threads=*/1);
  EXPECT_EQ(all.stats().snapshotted, 12);
  // The same pool built with more threads materializes the same prefix.
  const WorldPool threaded(g, c, 9, 12, 64ull << 20, 4);
  EXPECT_EQ(threaded.stats().snapshotted, 12);
  for (int w = 0; w < 12; ++w) {
    ASSERT_NE(all.Get(w), nullptr);
    EXPECT_EQ(all.Get(w)->live_edges(), threaded.Get(w)->live_edges());
  }
  EXPECT_EQ(all.Get(12), nullptr);

  // A budget covering roughly half the worlds materializes a strict,
  // deterministic prefix and streams the rest.
  const std::size_t half_budget = all.stats().bytes / 2;
  const WorldPool half(g, c, 9, 12, half_budget, 2);
  const int prefix = half.stats().snapshotted;
  EXPECT_GT(prefix, 0);
  EXPECT_LT(prefix, 12);
  for (int w = 0; w < 12; ++w) {
    EXPECT_EQ(half.Get(w) != nullptr, w < prefix) << "world " << w;
  }
}

}  // namespace
}  // namespace cwm
