// Tests for the deterministic parallel RR-set pipeline: bit-identical
// collections and seed sets across thread counts, CSR equivalence against
// a per-set reference, sharded-merge bookkeeping (including empty RR
// sets), and the worker-indexed ParallelFor variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "algo/params.h"
#include "algo/sup_grd.h"
#include "exp/configs.h"
#include "graph/edge_prob.h"
#include "graph/generators.h"
#include "model/allocation.h"
#include "rrset/imm.h"
#include "rrset/prima_plus.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_pipeline.h"
#include "rrset/rr_sampler.h"
#include "support/thread_pool.h"

namespace cwm {
namespace {

const Graph& TestGraph() {
  static const Graph g = WithWeightedCascade(BarabasiAlbert(300, 3, 91));
  return g;
}

RrSourceFactory StandardSource(const Graph& g) {
  return [&g]() -> RrSampleFn {
    auto sampler = std::make_shared<RrSampler>(g);
    return [sampler](Rng& rng, std::vector<NodeId>* out) {
      sampler->SampleStandard(rng, out);
      return 1.0;
    };
  };
}

/// Full structural equality of two collections: sizes, per-set members
/// and weights, totals, and the raw CSR offsets.
void ExpectSameCollection(const RrCollection& a, const RrCollection& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.TotalMembers(), b.TotalMembers());
  EXPECT_EQ(a.TotalWeight(), b.TotalWeight());  // bit-identical, not near
  for (uint32_t id = 0; id < a.size(); ++id) {
    const auto ma = a.Members(id);
    const auto mb = b.Members(id);
    ASSERT_EQ(ma.size(), mb.size()) << "set " << id;
    EXPECT_TRUE(std::equal(ma.begin(), ma.end(), mb.begin()))
        << "set " << id;
    EXPECT_EQ(a.Weight(id), b.Weight(id)) << "set " << id;
  }
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_TRUE(std::ranges::equal(a.RawOffsets(), b.RawOffsets()));
}

TEST(RrPipelineTest, CollectionBitIdenticalAcrossThreadCounts) {
  const Graph& g = TestGraph();
  // Two epochs (grow, then extend past several chunk boundaries) followed
  // by a fresh pass after Clear — the driver's exact usage pattern.
  auto run = [&](unsigned threads) {
    RrPipeline pipeline(StandardSource(g), /*seed=*/42, threads);
    auto rr = std::make_unique<RrCollection>(g.num_nodes());
    pipeline.ExtendTo(rr.get(), 300);
    pipeline.ExtendTo(rr.get(), 1500);
    rr->Clear();
    pipeline.ExtendTo(rr.get(), 700);
    return rr;
  };
  const auto rr1 = run(1);
  for (unsigned threads : {2u, 7u}) {
    const auto rrt = run(threads);
    ExpectSameCollection(*rr1, *rrt);
  }
}

TEST(RrPipelineTest, FreshPassUsesNewSampleStreams) {
  const Graph& g = TestGraph();
  RrPipeline pipeline(StandardSource(g), /*seed=*/7, /*num_threads=*/2);
  RrCollection rr(g.num_nodes());
  pipeline.ExtendTo(&rr, 400);
  std::vector<NodeId> first_roots;
  for (uint32_t id = 0; id < 400; ++id) {
    first_roots.push_back(rr.Members(id).front());
  }
  rr.Clear();
  pipeline.ExtendTo(&rr, 400);
  EXPECT_EQ(pipeline.samples_generated(), 800u);
  std::vector<NodeId> second_roots;
  for (uint32_t id = 0; id < 400; ++id) {
    second_roots.push_back(rr.Members(id).front());
  }
  EXPECT_NE(first_roots, second_roots);
}

TEST(RrPipelineTest, ThreadCountZeroMeansHardwareAndStaysDeterministic) {
  const Graph& g = TestGraph();
  RrPipeline auto_pipeline(StandardSource(g), 11, /*num_threads=*/0);
  EXPECT_GE(auto_pipeline.num_threads(), 1u);
  RrCollection rr_auto(g.num_nodes());
  auto_pipeline.ExtendTo(&rr_auto, 600);
  RrPipeline one(StandardSource(g), 11, 1);
  RrCollection rr_one(g.num_nodes());
  one.ExtendTo(&rr_one, 600);
  ExpectSameCollection(rr_one, rr_auto);
}

TEST(RrCollectionTest, CsrMatchesPerSetReference) {
  Rng rng(5);
  RrCollection rr(40);
  std::vector<std::vector<NodeId>> reference;
  std::vector<double> weights;
  for (int id = 0; id < 200; ++id) {
    std::vector<NodeId> members;
    for (NodeId v = 0; v < 40; ++v) {
      if (rng.NextBernoulli(0.15)) members.push_back(v);
    }
    const double w = rng.NextDouble();
    const uint32_t got = rr.Add(members, w);
    ASSERT_EQ(got, static_cast<uint32_t>(id));
    reference.push_back(members);
    weights.push_back(w);
    // Interleave reads with appends: every read reflects every set added
    // so far.
    if (id % 67 == 0) {
      const auto span = rr.Members(static_cast<uint32_t>(id / 2));
      EXPECT_TRUE(std::ranges::equal(span, reference[id / 2]));
      EXPECT_EQ(rr.RawOffsets().size(), reference.size() + 1);
    }
  }
  std::size_t total = 0;
  for (uint32_t id = 0; id < rr.size(); ++id) {
    EXPECT_TRUE(std::ranges::equal(rr.Members(id), reference[id]))
        << "set " << id;
    EXPECT_EQ(rr.Weight(id), weights[id]) << "set " << id;
    EXPECT_EQ(rr.RawOffsets()[id], total) << "set " << id;
    total += reference[id].size();
  }
  EXPECT_EQ(rr.RawOffsets().back(), total);
  EXPECT_EQ(rr.TotalMembers(), total);
}

TEST(RrCollectionTest, MergeMatchesSequentialAdd) {
  Rng rng(9);
  std::vector<std::vector<NodeId>> sets;
  std::vector<double> weights;
  for (int id = 0; id < 120; ++id) {
    std::vector<NodeId> members;
    for (NodeId v = 0; v < 25; ++v) {
      if (rng.NextBernoulli(0.2)) members.push_back(v);
    }
    sets.push_back(members);
    weights.push_back(rng.NextDouble());
  }

  RrCollection by_add(25);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    by_add.Add(sets[i], weights[i]);
  }

  RrCollection by_merge(25);
  std::vector<RrShard> shards(4);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    shards[i / 30].Add(sets[i], weights[i]);
  }
  for (const RrShard& shard : shards) by_merge.Merge(shard);

  ExpectSameCollection(by_add, by_merge);
}

TEST(RrCollectionTest, EmptySetsSurviveShardedMerge) {
  RrShard shard;
  shard.Add(std::vector<NodeId>{}, 1.0);
  shard.Add(std::vector<NodeId>{2, 4}, 0.5);
  shard.Add(std::vector<NodeId>{}, 0.25);
  ASSERT_EQ(shard.size(), 3u);

  RrCollection rr(6);
  rr.Merge(shard);
  rr.Merge(shard);
  // Empty sets count toward theta (size) but contribute no members.
  EXPECT_EQ(rr.size(), 6u);
  EXPECT_EQ(rr.TotalMembers(), 4u);
  EXPECT_DOUBLE_EQ(rr.TotalWeight(), 3.5);
  EXPECT_TRUE(rr.Members(0).empty());
  EXPECT_TRUE(rr.Members(5).empty());
  const std::vector<NodeId> pair{2, 4};
  EXPECT_TRUE(std::ranges::equal(rr.Members(1), pair));
  EXPECT_TRUE(std::ranges::equal(rr.Members(4), pair));
  EXPECT_TRUE(rr.Members(3).empty());
}

TEST(RrPipelineTest, AllEmptySamplesStillCountTowardTarget) {
  // A marginal sampler with every node blocked yields only empty sets;
  // the pipeline must still hit its size target at any thread count.
  const Graph& g = TestGraph();
  auto blocked = std::make_shared<std::vector<char>>(g.num_nodes(), 1);
  const RrSourceFactory source = [&g, blocked]() -> RrSampleFn {
    auto sampler = std::make_shared<RrSampler>(g);
    return [sampler, blocked](Rng& rng, std::vector<NodeId>* out) {
      sampler->SampleMarginal(rng, *blocked, out);
      return 1.0;
    };
  };
  for (unsigned threads : {1u, 3u}) {
    RrPipeline pipeline(source, 13, threads);
    RrCollection rr(g.num_nodes());
    pipeline.ExtendTo(&rr, 500);
    EXPECT_EQ(rr.size(), 500u);
    EXPECT_EQ(rr.TotalMembers(), 0u);
    EXPECT_DOUBLE_EQ(rr.TotalWeight(), 500.0);
  }
}

TEST(ImmParallelTest, SeedsAndEstimatesBitIdenticalAcrossThreadCounts) {
  const Graph& g = TestGraph();
  ImmParams params{.epsilon = 0.4, .ell = 1.0, .seed = 17, .num_threads = 1};
  const ImmResult r1 = Imm(g, 6, params);
  for (unsigned threads : {2u, 7u}) {
    params.num_threads = threads;
    const ImmResult rt = Imm(g, 6, params);
    EXPECT_EQ(r1.seeds, rt.seeds);
    EXPECT_EQ(r1.coverage_estimate, rt.coverage_estimate);
    EXPECT_EQ(r1.prefix_estimates, rt.prefix_estimates);
    EXPECT_EQ(r1.rr_count, rt.rr_count);
  }
}

TEST(ImmParallelTest, PrimaPlusBitIdenticalAcrossThreadCounts) {
  const Graph& g = TestGraph();
  const std::vector<NodeId> prior{1, 5, 9};
  ImmParams params{.epsilon = 0.5, .ell = 1.0, .seed = 23, .num_threads = 1};
  const ImmResult r1 = PrimaPlus(g, prior, {2, 4}, 6, params);
  for (unsigned threads : {2u, 7u}) {
    params.num_threads = threads;
    const ImmResult rt = PrimaPlus(g, prior, {2, 4}, 6, params);
    EXPECT_EQ(r1.seeds, rt.seeds);
    EXPECT_EQ(r1.coverage_estimate, rt.coverage_estimate);
    EXPECT_EQ(r1.prefix_estimates, rt.prefix_estimates);
  }
}

TEST(ImmParallelTest, SupGrdBitIdenticalAcrossThreadCounts) {
  const Graph& g = TestGraph();
  const UtilityConfig config = MakeConfigC6();
  Allocation sp(2);
  for (NodeId v = 0; v < 5; ++v) sp.Add(v * 7, 1);
  ASSERT_TRUE(CanRunSupGrd(config, sp).ok());

  auto run = [&](unsigned threads) {
    AlgoParams params;
    params.imm = {.epsilon = 0.5, .ell = 1.0, .seed = 29,
                  .num_threads = threads};
    AlgoDiagnostics diagnostics;
    const Allocation alloc = SupGrd(g, config, sp, 4, params, &diagnostics);
    return std::make_pair(alloc.SeedsOf(0), diagnostics.internal_estimate);
  };
  const auto [seeds1, estimate1] = run(1);
  ASSERT_EQ(seeds1.size(), 4u);
  for (unsigned threads : {2u, 7u}) {
    const auto [seedst, estimatet] = run(threads);
    EXPECT_EQ(seeds1, seedst);
    EXPECT_EQ(estimate1, estimatet);
  }
}

TEST(ParallelForWorkersTest, CoversAllChunksWithStableWorkerIds) {
  const std::size_t chunks = 103;
  const unsigned threads = 5;
  std::vector<std::atomic<int>> hits(chunks);
  std::vector<std::atomic<int>> worker_of(chunks);
  ParallelForWorkers(
      chunks,
      [&](std::size_t worker, std::size_t chunk) {
        EXPECT_LT(worker, threads);
        worker_of[chunk].store(static_cast<int>(worker));
        hits[chunk].fetch_add(1);
      },
      threads);
  for (std::size_t c = 0; c < chunks; ++c) {
    EXPECT_EQ(hits[c].load(), 1) << "chunk " << c;
    EXPECT_GE(worker_of[c].load(), 0);
  }
}

}  // namespace
}  // namespace cwm
