// Tests for the RR-set substrate: collection bookkeeping, greedy coverage,
// the three samplers, IMM bounds and end-to-end seed quality, PRIMA+
// marginality and prefix preservation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/edge_prob.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "model/allocation.h"
#include "rrset/imm.h"
#include "rrset/node_selection.h"
#include "rrset/prima_plus.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_pipeline.h"
#include "rrset/rr_sampler.h"
#include "simulate/estimator.h"
#include "coin_edge_graph.h"

namespace cwm {
namespace {

UtilityConfig SingleItemUnit() {
  UtilityConfigBuilder b(1);
  b.SetItemValue(0, 1.0).SetItemPrice(0, 0.0);
  return std::move(b).Build().value();
}

TEST(RrCollectionTest, AddAndReadBack) {
  RrCollection rr(5);
  const std::vector<NodeId> m1{1, 2};
  const std::vector<NodeId> m2{2, 3};
  EXPECT_EQ(rr.Add(m1, 1.0), 0u);
  EXPECT_EQ(rr.Add(m2, 0.5), 1u);
  EXPECT_EQ(rr.size(), 2u);
  EXPECT_EQ(rr.TotalMembers(), 4u);
  EXPECT_DOUBLE_EQ(rr.TotalWeight(), 1.5);
  EXPECT_EQ(std::vector<NodeId>(rr.Members(0).begin(), rr.Members(0).end()),
            m1);
  EXPECT_EQ(std::vector<NodeId>(rr.Members(1).begin(), rr.Members(1).end()),
            m2);
  EXPECT_EQ(std::vector<uint64_t>(rr.RawOffsets().begin(),
                                  rr.RawOffsets().end()),
            (std::vector<uint64_t>{0, 2, 4}));
  EXPECT_DOUBLE_EQ(rr.Weight(1), 0.5);
}

TEST(RrCollectionTest, EmptySetsCountTowardSize) {
  RrCollection rr(3);
  rr.Add(std::vector<NodeId>{}, 1.0);
  rr.Add(std::vector<NodeId>{1}, 1.0);
  EXPECT_EQ(rr.size(), 2u);
  EXPECT_EQ(rr.Members(0).size(), 0u);
}

TEST(RrCollectionTest, ClearKeepsUniverse) {
  RrCollection rr(3);
  rr.Add(std::vector<NodeId>{1, 2}, 1.0);
  rr.Clear();
  EXPECT_EQ(rr.size(), 0u);
  EXPECT_EQ(rr.num_nodes(), 3u);
  EXPECT_EQ(rr.TotalMembers(), 0u);
  EXPECT_EQ(rr.RawOffsets().size(), 1u);
  EXPECT_DOUBLE_EQ(rr.TotalWeight(), 0.0);
  // The universe still bounds members after Clear().
  EXPECT_EQ(rr.Add(std::vector<NodeId>{2}, 1.0), 0u);
}

std::vector<uint64_t> Bits(std::span<const double> values) {
  std::vector<uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

TEST(RrCollectionTest, AppendMatchesAddBitwise) {
  // A source era in CSR form, as a .cwr file stores it.
  Rng rng(19);
  std::vector<uint64_t> offsets{0};
  std::vector<NodeId> members;
  std::vector<double> weights;
  for (int k = 0; k < 300; ++k) {
    if (!rng.NextBernoulli(0.2)) {  // every fifth set or so stays empty
      for (NodeId v = 0; v < 30; ++v) {
        if (rng.NextBernoulli(0.2)) members.push_back(v);
      }
    }
    offsets.push_back(members.size());
    weights.push_back(k % 7 == 0 ? 1.0 : rng.NextDouble());
  }
  const std::span<const uint64_t> all_offsets = offsets;
  const std::span<const NodeId> all_members = members;
  const std::span<const double> all_weights = weights;

  RrCollection by_add(30);
  for (std::size_t k = 0; k < weights.size(); ++k) {
    by_add.Add(all_members.subspan(offsets[k], offsets[k + 1] - offsets[k]),
               weights[k]);
  }
  // The same sets in ranges cut the way RrPipeline serves a cached era:
  // an empty range, a one-set range, and ranges starting mid-era.
  RrCollection by_append(30);
  const std::size_t cuts[] = {0, 0, 1, 97, 98, 250, 300};
  for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
    const std::size_t from = cuts[i], to = cuts[i + 1];
    const auto range = all_offsets.subspan(from, to - from + 1);
    by_append.Append(range,
                     all_members.subspan(range.front(),
                                         range.back() - range.front()),
                     all_weights.subspan(from, to - from));
  }

  ASSERT_EQ(by_append.size(), by_add.size());
  EXPECT_TRUE(std::ranges::equal(by_append.RawOffsets(), by_add.RawOffsets()));
  EXPECT_TRUE(std::ranges::equal(by_append.RawMembers(), by_add.RawMembers()));
  EXPECT_EQ(Bits(by_append.RawWeights()), Bits(by_add.RawWeights()));
  EXPECT_EQ(std::bit_cast<uint64_t>(by_append.TotalWeight()),
            std::bit_cast<uint64_t>(by_add.TotalWeight()));
}

TEST(NodeSelectionTest, PicksGreedyOptimal) {
  // Node 0 covers sets {0,1}, node 1 covers {2}, node 2 covers {1,2}.
  RrCollection rr(3);
  rr.Add(std::vector<NodeId>{0}, 1.0);
  rr.Add(std::vector<NodeId>{0, 2}, 1.0);
  rr.Add(std::vector<NodeId>{1, 2}, 1.0);
  const GreedySelection sel = SelectMaxCoverage(rr, 1);
  ASSERT_EQ(sel.seeds.size(), 1u);
  // Nodes 0 and 2 both cover weight 2; tie breaks to node 0.
  EXPECT_EQ(sel.seeds[0], 0u);
  EXPECT_DOUBLE_EQ(sel.covered_prefix[0], 2.0);
}

TEST(NodeSelectionTest, WeightsChangeTheWinner) {
  RrCollection rr(3);
  rr.Add(std::vector<NodeId>{0}, 0.1);
  rr.Add(std::vector<NodeId>{0}, 0.1);
  rr.Add(std::vector<NodeId>{1}, 0.9);
  const GreedySelection sel = SelectMaxCoverage(rr, 1);
  EXPECT_EQ(sel.seeds[0], 1u);
  EXPECT_DOUBLE_EQ(sel.covered_prefix[0], 0.9);
}

TEST(NodeSelectionTest, MarginalGainsNotDoubleCounted) {
  RrCollection rr(2);
  rr.Add(std::vector<NodeId>{0, 1}, 1.0);
  rr.Add(std::vector<NodeId>{0}, 1.0);
  const GreedySelection sel = SelectMaxCoverage(rr, 2);
  ASSERT_EQ(sel.seeds.size(), 2u);
  EXPECT_EQ(sel.seeds[0], 0u);
  EXPECT_DOUBLE_EQ(sel.covered_prefix[0], 2.0);
  // Node 1's only set is already covered: no extra weight.
  EXPECT_DOUBLE_EQ(sel.covered_prefix[1], 2.0);
}

TEST(NodeSelectionTest, FillsBudgetWithZeroGainNodes) {
  RrCollection rr(5);
  rr.Add(std::vector<NodeId>{4}, 1.0);
  const GreedySelection sel = SelectMaxCoverage(rr, 3);
  ASSERT_EQ(sel.seeds.size(), 3u);
  EXPECT_EQ(sel.seeds[0], 4u);
  EXPECT_DOUBLE_EQ(sel.CoveredAt(3), 1.0);
}

TEST(NodeSelectionTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    RrCollection rr(6);
    const int sets = 12;
    for (int s = 0; s < sets; ++s) {
      std::vector<NodeId> members;
      for (NodeId v = 0; v < 6; ++v) {
        if (rng.NextBernoulli(0.3)) members.push_back(v);
      }
      rr.Add(members, 0.25 + 0.75 * rng.NextDouble());
    }
    const GreedySelection sel = SelectMaxCoverage(rr, 1);
    // Budget 1: greedy == optimal; check against brute force.
    double best = -1.0;
    for (NodeId v = 0; v < 6; ++v) {
      double w = 0;
      for (uint32_t id = 0; id < rr.size(); ++id) {
        const auto set = rr.Members(id);
        if (std::find(set.begin(), set.end(), v) != set.end()) {
          w += rr.Weight(id);
        }
      }
      best = std::max(best, w);
    }
    EXPECT_NEAR(sel.CoveredAt(1), best, 1e-9);
  }
}

/// The lazy greedy as SelectMaxCoverage ran it over a whole node -> RR
/// index: every node's RR ids in ascending order, gains summed along
/// them, every positive-gain node in the heap from the start.
/// SelectMaxCoverage lists only candidate tiers and must match it bit for
/// bit.
GreedySelection ReferenceSelectMaxCoverage(const RrCollection& rr,
                                           std::size_t budget) {
  const std::size_t n = rr.num_nodes();
  budget = std::min(budget, n);
  std::vector<std::vector<uint32_t>> sets_of(n);
  for (uint32_t id = 0; id < rr.size(); ++id) {
    for (NodeId v : rr.Members(id)) sets_of[v].push_back(id);
  }
  std::vector<double> gain(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    for (uint32_t id : sets_of[v]) gain[v] += rr.Weight(id);
  }
  std::vector<char> covered(rr.size(), 0);
  std::vector<char> taken(n, 0);

  using Entry = std::pair<double, NodeId>;
  auto cmp = [](const Entry& a, const Entry& b) {
    return a.first != b.first ? a.first < b.first : a.second > b.second;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (NodeId v = 0; v < n; ++v) {
    if (gain[v] > 0.0) heap.push({gain[v], v});
  }

  GreedySelection out;
  double covered_weight = 0.0;
  while (out.seeds.size() < budget && !heap.empty()) {
    const auto [g, v] = heap.top();
    heap.pop();
    if (taken[v]) continue;
    if (g > gain[v] + 1e-12) {
      if (gain[v] > 0.0) heap.push({gain[v], v});
      continue;
    }
    taken[v] = 1;
    covered_weight += gain[v];
    out.seeds.push_back(v);
    out.covered_prefix.push_back(covered_weight);
    for (uint32_t id : sets_of[v]) {
      if (covered[id]) continue;
      covered[id] = 1;
      const double w = rr.Weight(id);
      for (NodeId u : rr.Members(id)) gain[u] -= w;
    }
  }
  for (NodeId v = 0; out.seeds.size() < budget && v < n; ++v) {
    if (!taken[v]) {
      taken[v] = 1;
      out.seeds.push_back(v);
      out.covered_prefix.push_back(covered_weight);
    }
  }
  return out;
}

/// SelectMaxCoverage against the reference at each budget: same seeds,
/// same covered_prefix bits.
void ExpectMatchesReference(const RrCollection& rr,
                            std::initializer_list<std::size_t> budgets,
                            const std::string& what) {
  for (std::size_t budget : budgets) {
    const GreedySelection got = SelectMaxCoverage(rr, budget);
    const GreedySelection want = ReferenceSelectMaxCoverage(rr, budget);
    ASSERT_EQ(got.seeds, want.seeds) << what << ", budget " << budget;
    ASSERT_EQ(Bits(got.covered_prefix), Bits(want.covered_prefix))
        << what << ", budget " << budget;
  }
}

/// Up to `count` members drawn by `draw()`, duplicates dropped (an RR set
/// holds each node once).
template <typename Draw>
std::vector<NodeId> DistinctSet(int count, Draw draw) {
  std::vector<NodeId> set;
  for (int i = 0; i < count; ++i) {
    const NodeId v = draw();
    if (std::find(set.begin(), set.end(), v) == set.end()) set.push_back(v);
  }
  return set;
}

/// Up to `count` members v < n, biased toward small ids (skewed gains,
/// like RR sets on a heavy-tailed graph).
std::vector<NodeId> SkewedSet(Rng& rng, std::size_t n, int count) {
  return DistinctSet(count, [&] {
    const double u = rng.NextDouble();
    return static_cast<NodeId>(static_cast<double>(n) * u * u * u);
  });
}

TEST(NodeSelectionReferenceTest, UnitWeights) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    RrCollection rr(600);
    for (int k = 0; k < 4000; ++k) {
      rr.Add(SkewedSet(rng, 600, 1 + static_cast<int>(rng.NextBounded(12))),
             1.0);
    }
    ExpectMatchesReference(rr, {1, 5, 16, 40},
                           "unit weights, seed " + std::to_string(seed));
  }
}

TEST(NodeSelectionReferenceTest, FractionalWeightsIncludingTinyOnes) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(100 + seed);
    RrCollection rr(800);
    for (int k = 0; k < 5000; ++k) {
      // Weights in [0, 1]: exact 0 and 1, plain fractions, and some below
      // the stale-entry tolerance of 1e-12.
      const uint64_t kind = rng.NextBounded(10);
      const double w = kind == 0   ? 0.0
                       : kind == 1 ? 1.0
                       : kind <= 3 ? 1e-12 * rng.NextDouble()
                                   : rng.NextDouble();
      rr.Add(SkewedSet(rng, 800, 1 + static_cast<int>(rng.NextBounded(10))),
             w);
    }
    ExpectMatchesReference(rr, {1, 7, 30, 120},
                           "weights in [0,1], seed " + std::to_string(seed));
  }
  // Only tiny weights: every gain sits below the tolerance.
  Rng rng(99);
  RrCollection tiny(300);
  for (int k = 0; k < 2000; ++k) {
    tiny.Add(SkewedSet(rng, 300, 1 + static_cast<int>(rng.NextBounded(6))),
             1e-13 * rng.NextDouble());
  }
  ExpectMatchesReference(tiny, {1, 10, 64}, "tiny weights only");
}

TEST(NodeSelectionReferenceTest, HeavyGainTies) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(200 + seed);
    RrCollection rr(400);
    for (int k = 0; k < 3000; ++k) {
      // Uniform members and dyadic weights: sums are exact, so many
      // nodes share a gain and the id tie-break decides.
      const int size = 1 + static_cast<int>(rng.NextBounded(3));
      const std::vector<NodeId> set = DistinctSet(
          size, [&] { return static_cast<NodeId>(rng.NextBounded(400)); });
      rr.Add(set, seed % 2 == 0 ? 1.0 : 0.25 * (1 + rng.NextBounded(4)));
    }
    ExpectMatchesReference(rr, {1, 10, 50, 100},
                           "ties, seed " + std::to_string(seed));
  }
}

TEST(NodeSelectionReferenceTest, TiesAcrossTheTierBoundary) {
  // Node v sits in (v % 3) + 1 singleton sets: 2,000 nodes tie at the top
  // gain, interleaved in id order with lower gains, so a tier holds the
  // smallest-id nodes of a tie group only if the tier is cut by id too.
  const std::size_t n = 6000;
  RrCollection rr(n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId copy = 0; copy <= v % 3; ++copy) {
      rr.Add(std::vector<NodeId>{v}, 1.0);
    }
  }
  ExpectMatchesReference(rr, {1, 10, 40, 100}, "singleton ties");
}

TEST(NodeSelectionReferenceTest, EmptySets) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(300 + seed);
    RrCollection rr(500);
    for (int k = 0; k < 4000; ++k) {
      if (rng.NextBernoulli(0.4)) {
        rr.Add(std::vector<NodeId>{}, 1.0);  // a zeroed marginal sample
      } else {
        rr.Add(SkewedSet(rng, 500, 1 + static_cast<int>(rng.NextBounded(8))),
               rng.NextDouble());
      }
    }
    ExpectMatchesReference(rr, {1, 12, 60},
                           "empty sets, seed " + std::to_string(seed));
  }
  RrCollection all_empty(50);
  for (int k = 0; k < 100; ++k) all_empty.Add(std::vector<NodeId>{}, 1.0);
  ExpectMatchesReference(all_empty, {0, 1, 50}, "only empty sets");
  ExpectMatchesReference(RrCollection(20), {0, 3, 20}, "no sets");
}

TEST(NodeSelectionReferenceTest, BudgetBeyondPositiveGainNodes) {
  // Only 30 of 400 nodes ever appear: the filler path pads with the
  // smallest untaken ids.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(400 + seed);
    RrCollection rr(400);
    for (int k = 0; k < 600; ++k) {
      rr.Add(DistinctSet(3,
                         [&] {
                           return static_cast<NodeId>(
                               13 * rng.NextBounded(30) + 5);
                         }),
             rng.NextDouble());
    }
    ExpectMatchesReference(rr, {29, 30, 31, 50, 400, 1000},
                           "filler, seed " + std::to_string(seed));
  }
}

TEST(NodeSelectionReferenceTest, TinyUniverseAgainstTheBudget) {
  // The first tier already reaches an eighth of the positive-gain nodes,
  // so every one is listed in one pass.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(500 + seed);
    RrCollection small(40);
    for (int k = 0; k < 500; ++k) {
      small.Add(SkewedSet(rng, 40, 1 + static_cast<int>(rng.NextBounded(6))),
                rng.NextDouble());
    }
    ExpectMatchesReference(small, {1, 20, 39, 40},
                           "n=40, seed " + std::to_string(seed));
    RrCollection mid(2000);
    for (int k = 0; k < 6000; ++k) {
      mid.Add(SkewedSet(rng, 2000, 1 + static_cast<int>(rng.NextBounded(20))),
              1.0);
    }
    ExpectMatchesReference(mid, {50, 100, 150},
                           "n=2000, seed " + std::to_string(seed));
  }
}

TEST(NodeSelectionReferenceTest, FlatGainsExpandSeveralTiers) {
  // 500 hubs share the same eight heavy sets, so each ranks near the top
  // at its initial gain; taking one covers those sets and leaves the rest
  // stale. The greedy then pops every hub before it reaches the flat
  // background, which takes tiers of 64, 128, 256 and 512 candidates.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(600 + seed);
    const std::size_t n = 50000;
    RrCollection rr(n);
    std::vector<NodeId> hubs;
    for (NodeId h = 0; h < 500; ++h) hubs.push_back(h * 97 + 11);
    for (int k = 0; k < 8; ++k) rr.Add(hubs, 1.0);
    for (int k = 0; k < 20000; ++k) {
      const std::vector<NodeId> set = DistinctSet(
          3, [&] { return static_cast<NodeId>(rng.NextBounded(n)); });
      rr.Add(set, seed == 3 ? rng.NextDouble() : 1.0);
    }
    ExpectMatchesReference(rr, {1, 2, 10, 40},
                           "flat gains, seed " + std::to_string(seed));
  }
}

TEST(NodeSelectionReferenceTest, ImmCollectionsOnPreferentialAttachment) {
  // Collections as the IMM driver grows them: standard sets on a
  // weighted-cascade Barabasi-Albert graph, and weighted sets (SupGRD's
  // Algorithm 7 sampler) whose weights fall in [0, 1].
  const Graph g = WithWeightedCascade(BarabasiAlbert(3000, 3, 61));
  const RrSourceFactory standard = [&g]() -> RrSampleFn {
    auto sampler = std::make_shared<RrSampler>(g);
    return [sampler](Rng& rng, std::vector<NodeId>* out) {
      sampler->SampleStandard(rng, out);
      return 1.0;
    };
  };
  UtilityConfigBuilder cb(2);
  cb.SetItemValue(0, 1.0).SetItemValue(1, 0.4);
  const UtilityConfig c = std::move(cb).Build().value();
  Allocation sp(2);
  for (NodeId v = 0; v < 3000; v += 37) sp.Add(v, 1);
  const auto fixed = std::make_shared<FixedAllocationIndex>(
      FixedAllocationIndex::Build(3000, c, sp));
  const RrSourceFactory weighted = [&g, fixed]() -> RrSampleFn {
    auto sampler = std::make_shared<RrSampler>(g);
    return [sampler, fixed](Rng& rng, std::vector<NodeId>* out) {
      return sampler->SampleWeighted(rng, *fixed, 1.0, out);
    };
  };
  for (const auto& [source, what] :
       {std::pair{standard, "standard"}, std::pair{weighted, "weighted"}}) {
    RrPipeline pipeline(source, /*seed=*/71, /*num_threads=*/2);
    RrCollection rr(g.num_nodes());
    pipeline.ExtendTo(&rr, 3000);
    ExpectMatchesReference(rr, {1, 10, 50}, std::string(what) + ", 3k sets");
    pipeline.ExtendTo(&rr, 30000);
    ExpectMatchesReference(rr, {1, 10, 50, 150},
                           std::string(what) + ", 30k sets");
  }
}

TEST(RrSamplerTest, StandardRrSetOnDeterministicGraphIsReverseReachable) {
  // 0 -> 1 -> 2, prob 1: RR(2) = {2,1,0}, RR(0) = {0}.
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  const Graph g = std::move(b).Build();
  RrSampler sampler(g);
  Rng rng(3);
  int seen_sizes[4] = {0, 0, 0, 0};
  std::vector<NodeId> out;
  for (int i = 0; i < 300; ++i) {
    sampler.SampleStandard(rng, &out);
    ASSERT_GE(out.size(), 1u);
    ASSERT_LE(out.size(), 3u);
    seen_sizes[out.size()]++;
    // Root is the first entry; members must be ancestors of the root.
    if (out[0] == 0) EXPECT_EQ(out.size(), 1u);
    if (out[0] == 2) EXPECT_EQ(out.size(), 3u);
  }
  EXPECT_GT(seen_sizes[1], 0);
  EXPECT_GT(seen_sizes[3], 0);
}

TEST(RrSamplerTest, MarginalZeroedWhenHittingBlocked) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  const Graph g = std::move(b).Build();
  RrSampler sampler(g);
  Rng rng(5);
  std::vector<char> blocked{1, 0, 0};  // node 0 is an S_P seed
  std::vector<NodeId> out;
  for (int i = 0; i < 300; ++i) {
    sampler.SampleMarginal(rng, blocked, &out);
    // Any RR set rooted at 0, or reaching back to 0, must be empty.
    for (NodeId v : out) EXPECT_NE(v, 0u);
    if (!out.empty() && out[0] == 2) {
      // Root 2 reaches back through 1 to 0 deterministically -> zeroed.
      ADD_FAILURE() << "RR set rooted at 2 should have been zeroed";
    }
  }
}

TEST(RrSamplerTest, WeightedStopsAtFixedSeedsWithCorrectWeight) {
  // 0 -> 1 -> 2 -> 3 (prob 1). S_P = {0: item j with E[U+] = 0.4}.
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(2, 3, 1.0);
  const Graph g = std::move(b).Build();
  UtilityConfigBuilder cb(2);
  cb.SetItemValue(0, 1.0).SetItemValue(1, 0.4);  // i superior-ish, j
  const UtilityConfig c = std::move(cb).Build().value();
  Allocation sp(2);
  sp.Add(0, 1);
  const auto fixed = FixedAllocationIndex::Build(4, c, sp);
  EXPECT_EQ(fixed.is_seed[0], 1);
  EXPECT_DOUBLE_EQ(fixed.best_value[0], 0.4);

  RrSampler sampler(g);
  Rng rng(7);
  std::vector<NodeId> out;
  const double wmax = 1.0;  // E[U+(i)]
  for (int it = 0; it < 200; ++it) {
    const double w = sampler.SampleWeighted(rng, fixed, wmax, &out);
    ASSERT_FALSE(out.empty());
    if (out[0] == 0) {
      // Root is the fixed seed itself: weight wmax - 0.4.
      EXPECT_DOUBLE_EQ(w, 0.6);
      EXPECT_EQ(out.size(), 1u);
    } else {
      // Every root reaches back to node 0 deterministically: BFS stops at
      // the level containing node 0, weight 0.6.
      EXPECT_DOUBLE_EQ(w, 0.6);
      EXPECT_EQ(out.back(), 0u);
    }
  }
}

TEST(RrSamplerTest, WeightedFullWeightWhenUnreachable) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1.0);  // node 2 isolated
  const Graph g = std::move(b).Build();
  UtilityConfigBuilder cb(2);
  cb.SetItemValue(0, 2.0).SetItemValue(1, 1.0);
  const UtilityConfig c = std::move(cb).Build().value();
  Allocation sp(2);
  sp.Add(0, 1);
  const auto fixed = FixedAllocationIndex::Build(3, c, sp);
  RrSampler sampler(g);
  Rng rng(11);
  std::vector<NodeId> out;
  for (int it = 0; it < 100; ++it) {
    const double w = sampler.SampleWeighted(rng, fixed, 2.0, &out);
    if (!out.empty() && out[0] == 2) {
      EXPECT_DOUBLE_EQ(w, 2.0);  // S_P never reached: full marginal
      EXPECT_EQ(out.size(), 1u);
    }
  }
}

/// The three sampler loops as they read when RrSampler drew straight
/// from the caller's Rng&. RrSampler now draws from a local copy and
/// writes it back; it must match these member for member, weight for
/// weight, and leave the caller's Rng in the same state.
class ReferenceRrSampler {
 public:
  explicit ReferenceRrSampler(const Graph& graph)
      : graph_(graph), visited_(graph.num_nodes(), 0) {}

  void SampleStandard(Rng& rng, std::vector<NodeId>* out) {
    Begin(out);
    const NodeId root =
        static_cast<NodeId>(rng.NextBounded(graph_.num_nodes()));
    Visit(root);
    out->push_back(root);
    for (std::size_t head = 0; head < out->size(); ++head) {
      for (const InEdge& e : graph_.InEdges((*out)[head])) {
        if (!rng.NextBernoulli(e.prob)) continue;
        if (!Visit(e.from)) continue;
        out->push_back(e.from);
      }
    }
  }

  void SampleMarginal(Rng& rng, const std::vector<char>& blocked,
                      std::vector<NodeId>* out) {
    Begin(out);
    const NodeId root =
        static_cast<NodeId>(rng.NextBounded(graph_.num_nodes()));
    if (blocked[root]) return;
    Visit(root);
    out->push_back(root);
    for (std::size_t head = 0; head < out->size(); ++head) {
      for (const InEdge& e : graph_.InEdges((*out)[head])) {
        if (!rng.NextBernoulli(e.prob)) continue;
        if (!Visit(e.from)) continue;
        if (blocked[e.from]) {
          out->clear();
          return;
        }
        out->push_back(e.from);
      }
    }
  }

  double SampleWeighted(Rng& rng, const FixedAllocationIndex& fixed,
                        double wmax_im, std::vector<NodeId>* out) {
    Begin(out);
    const NodeId root =
        static_cast<NodeId>(rng.NextBounded(graph_.num_nodes()));
    Visit(root);
    out->push_back(root);
    double best_hit = fixed.is_seed[root] ? fixed.best_value[root] : -1.0;
    std::size_t level_begin = 0;
    while (level_begin < out->size() && best_hit < 0.0) {
      const std::size_t level_end = out->size();
      for (std::size_t idx = level_begin; idx < level_end; ++idx) {
        for (const InEdge& e : graph_.InEdges((*out)[idx])) {
          if (!rng.NextBernoulli(e.prob)) continue;
          if (!Visit(e.from)) continue;
          out->push_back(e.from);
          if (fixed.is_seed[e.from]) {
            best_hit = std::max(best_hit, fixed.best_value[e.from]);
          }
        }
      }
      level_begin = level_end;
    }
    return std::max(0.0, best_hit < 0.0 ? wmax_im : wmax_im - best_hit);
  }

 private:
  void Begin(std::vector<NodeId>* out) {
    for (NodeId v : touched_) visited_[v] = 0;
    touched_.clear();
    out->clear();
  }
  bool Visit(NodeId v) {
    if (visited_[v]) return false;
    visited_[v] = 1;
    touched_.push_back(v);
    return true;
  }

  const Graph& graph_;
  std::vector<char> visited_;
  std::vector<NodeId> touched_;
};

/// Next draw of a copy: equal iff the two generators' states are equal
/// (for the purposes of every later draw).
uint64_t PeekNext(const Rng& rng) {
  Rng copy = rng;
  return copy.Next();
}

TEST(RrSamplerTest, SamplersMatchReferenceLoopsAndAdvanceTheCallersRng) {
  const Graph wc = WithWeightedCascade(BarabasiAlbert(1500, 4, 51));
  const Graph p01 = WithConstantProb(ErdosRenyi(800, 80000, 53), 0.01);
  const Graph coins = CoinEdgeGraph();
  for (const Graph* g : {&wc, &p01, &coins}) {
    const std::size_t n = g->num_nodes();
    std::vector<char> blocked(n, 0);
    for (std::size_t v = 0; v < n; v += 61) blocked[v] = 1;
    UtilityConfigBuilder cb(2);
    cb.SetItemValue(0, 1.0).SetItemValue(1, 0.4);
    const UtilityConfig c = std::move(cb).Build().value();
    Allocation sp(2);
    for (NodeId v = 3; v < n; v += 97) sp.Add(v, 1);
    const FixedAllocationIndex fixed = FixedAllocationIndex::Build(n, c, sp);

    RrSampler sampler(*g);
    ReferenceRrSampler reference(*g);
    std::vector<NodeId> got, want;
    std::size_t nonempty = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      // One Rng reused across consecutive samples of every flavour, as a
      // caller looping over samples would: a sampler that did not write
      // its local copy back would replay the same draws next time.
      Rng rng(seed), ref_rng(seed);
      for (int k = 0; k < 12; ++k) {
        switch (k % 3) {
          case 0:
            sampler.SampleStandard(rng, &got);
            reference.SampleStandard(ref_rng, &want);
            break;
          case 1:
            sampler.SampleMarginal(rng, blocked, &got);
            reference.SampleMarginal(ref_rng, blocked, &want);
            break;
          default: {
            const double w = sampler.SampleWeighted(rng, fixed, 1.0, &got);
            const double ref_w =
                reference.SampleWeighted(ref_rng, fixed, 1.0, &want);
            ASSERT_EQ(std::bit_cast<uint64_t>(w),
                      std::bit_cast<uint64_t>(ref_w))
                << "seed " << seed << " sample " << k;
          }
        }
        ASSERT_EQ(got, want) << "seed " << seed << " sample " << k;
        ASSERT_EQ(PeekNext(rng), PeekNext(ref_rng))
            << "seed " << seed << " sample " << k;
        nonempty += got.empty() ? 0 : 1;
      }
      // A fresh generator per sample, as the RR pipeline draws them.
      Rng fresh(seed ^ 0x5EED), ref_fresh(seed ^ 0x5EED);
      sampler.SampleMarginal(fresh, blocked, &got);
      reference.SampleMarginal(ref_fresh, blocked, &want);
      ASSERT_EQ(got, want) << "fresh seed " << seed;
      ASSERT_EQ(PeekNext(fresh), PeekNext(ref_fresh));
    }
    EXPECT_GT(nonempty, 0u);

    // An all-zero mask blocks nothing, so Algorithm 3 is the standard
    // sampler draw for draw: same members, same Rng state after. This is
    // what lets an empty S_P share the standard source id below.
    const std::vector<char> none(n, 0);
    RrSampler marginal(*g);
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      Rng std_rng(seed), marg_rng(seed);
      for (int k = 0; k < 12; ++k) {
        sampler.SampleStandard(std_rng, &want);
        marginal.SampleMarginal(marg_rng, none, &got);
        ASSERT_EQ(got, want) << "seed " << seed << " sample " << k;
        ASSERT_EQ(PeekNext(marg_rng), PeekNext(std_rng))
            << "seed " << seed << " sample " << k;
      }
      Rng fresh(seed ^ 0x5EED), marg_fresh(seed ^ 0x5EED);
      sampler.SampleStandard(fresh, &want);
      marginal.SampleMarginal(marg_fresh, none, &got);
      ASSERT_EQ(got, want) << "fresh seed " << seed;
      ASSERT_EQ(PeekNext(marg_fresh), PeekNext(fresh));
    }
  }

  // One stream, one cache identity; any blocked node makes another.
  EXPECT_EQ(MarginalRrSourceId({}), kStandardRrSourceId);
  EXPECT_NE(MarginalRrSourceId({0}), kStandardRrSourceId);
  EXPECT_NE(MarginalRrSourceId({3, 5}), kStandardRrSourceId);
  EXPECT_EQ(MarginalRrSourceId({5, 3, 5}), MarginalRrSourceId({3, 5}));
}

TEST(ImmBoundsTest, LambdasPositiveAndMonotoneInBudget) {
  const double eps = 0.5, ell = 1.0;
  const double l1 = LambdaStar(10000, 10, eps, ell);
  const double l2 = LambdaStar(10000, 50, eps, ell);
  EXPECT_GT(l1, 0.0);
  EXPECT_GT(l2, l1);  // log C(n,b) grows with b (b << n)
  const double p1 = LambdaPrime(10000, 10, eps, ell);
  const double p2 = LambdaPrime(10000, 50, eps, ell);
  EXPECT_GT(p1, 0.0);
  EXPECT_GT(p2, p1);
}

TEST(ImmTest, PicksHubOnStarGraph) {
  // Star: center 0 -> 100 leaves, prob 1. Best single seed is the center.
  const std::size_t n = 101;
  GraphBuilder b(n);
  for (NodeId leaf = 1; leaf < n; ++leaf) b.AddEdge(0, leaf, 1.0);
  const Graph g = std::move(b).Build();
  const ImmResult result = Imm(g, 1, {.epsilon = 0.5, .ell = 1.0, .seed = 3});
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_NEAR(result.coverage_estimate, 101.0, 8.0);
}

TEST(ImmTest, SpreadEstimateMatchesForwardMonteCarlo) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(400, 2, 21));
  const ImmResult result =
      Imm(g, 5, {.epsilon = 0.3, .ell = 1.0, .seed = 7});
  const UtilityConfig c = SingleItemUnit();
  WelfareEstimator est(g, c, {.num_worlds = 4000, .seed = 9});
  const double forward = est.Spread(result.seeds);
  // IMM guarantees a multiplicative (1 +- eps') estimate; allow slack.
  EXPECT_NEAR(result.coverage_estimate, forward,
              0.25 * forward + 3.0);
}

TEST(ImmTest, MoreBudgetNeverHurtsSpread) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(500, 2, 23));
  const ImmParams params{.epsilon = 0.4, .ell = 1.0, .seed = 11};
  const ImmResult r1 = Imm(g, 2, params);
  const ImmResult r2 = Imm(g, 10, params);
  const UtilityConfig c = SingleItemUnit();
  WelfareEstimator est(g, c, {.num_worlds = 2000, .seed = 13});
  EXPECT_GE(est.Spread(r2.seeds) + 1.0, est.Spread(r1.seeds));
}

TEST(PrimaPlusTest, NeverSelectsBlockedSeeds) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(300, 2, 31));
  const std::vector<NodeId> prior{0, 1, 2, 3, 4};
  const ImmResult result =
      PrimaPlus(g, prior, {3, 5}, 8, {.epsilon = 0.5, .ell = 1.0, .seed = 3});
  ASSERT_EQ(result.seeds.size(), 8u);
  for (NodeId s : result.seeds) {
    // Blocked nodes appear in no RR set, so they can only be selected as
    // zero-gain filler; with 300 candidate nodes that never happens.
    EXPECT_EQ(std::count(prior.begin(), prior.end(), s), 0);
  }
}

TEST(PrimaPlusTest, PrefixEstimatesAreMonotone) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(300, 2, 37));
  const ImmResult result = PrimaPlus(
      g, {}, {2, 4, 6}, 12, {.epsilon = 0.5, .ell = 1.0, .seed = 5});
  ASSERT_EQ(result.prefix_estimates.size(), 4u);  // 2, 4, 6, 12
  for (std::size_t i = 1; i < result.prefix_estimates.size(); ++i) {
    EXPECT_GE(result.prefix_estimates[i] + 1e-9,
              result.prefix_estimates[i - 1]);
  }
}

TEST(PrimaPlusTest, MarginalSpreadEstimateIsMarginal) {
  // With prior seeds saturating a component, marginal spread of extra
  // seeds should be far below their unconditional spread.
  GraphBuilder b(200);
  // Two chains: 0->1->...->99 and 100->...->199, prob 1.
  for (NodeId v = 0; v < 99; ++v) b.AddEdge(v, v + 1, 1.0);
  for (NodeId v = 100; v < 199; ++v) b.AddEdge(v, v + 1, 1.0);
  const Graph g = std::move(b).Build();
  // Prior seed at 0 claims the whole first chain.
  const ImmResult result =
      PrimaPlus(g, {0}, {1}, 1, {.epsilon = 0.4, .ell = 1.0, .seed = 7});
  ASSERT_EQ(result.seeds.size(), 1u);
  // The best marginal seed must be the head of the *second* chain.
  EXPECT_EQ(result.seeds[0], 100u);
  EXPECT_NEAR(result.coverage_estimate, 100.0, 15.0);
}

TEST(PrimaPlusTest, SeedsOrderedByGreedyGain) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(400, 3, 41));
  const ImmResult result =
      PrimaPlus(g, {}, {4}, 4, {.epsilon = 0.5, .ell = 1.0, .seed = 9});
  const UtilityConfig c = SingleItemUnit();
  WelfareEstimator est(g, c, {.num_worlds = 2000, .seed = 11});
  // The first seed alone should achieve a large fraction of the pair's
  // spread — a loose check that the order is by decreasing gain.
  const double s1 = est.Spread({result.seeds[0]});
  const double s_last = est.Spread({result.seeds[3]});
  EXPECT_GE(s1 + 5.0, s_last);
}

}  // namespace
}  // namespace cwm
