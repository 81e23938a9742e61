// Tests for the dynamic-graph delta subsystem: .cwd round-trips (empty,
// duplicate, and mutually cancelling edits), overlay composition vs a
// from-scratch rebuild, chain sidecars, truncated/corrupt file rejection
// (including the store.delta.validate failpoint), RR-era invalidation
// accounting (clean sets reused verbatim, dirty sets resampled
// bit-identically), patched world snapshots / packed sets vs cold
// rebuilds, and Engine::ApplyDelta — equivalence across every registered
// allocator at 1 and 8 threads, plus atomicity under concurrent
// Allocate traffic.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "coin_edge_graph.h"
#include "api/registry.h"
#include "delta/delta_log.h"
#include "delta/overlay.h"
#include "delta/rr_patch.h"
#include "exp/configs.h"
#include "graph/graph_builder.h"
#include "rrset/imm.h"
#include "rrset/rr_pipeline.h"
#include "rrset/rr_sampler.h"
#include "simulate/packed_world.h"
#include "simulate/world.h"
#include "simulate/world_pool.h"
#include "store/artifact_cache.h"
#include "store/graph_store.h"
#include "support/failpoint.h"
#include "support/rng.h"

namespace cwm {
namespace {

std::string UniqueTempPath(const std::string& stem) {
  static const uint64_t token = std::random_device{}();
  static std::atomic<uint64_t> next{0};
  return (std::filesystem::path(::testing::TempDir()) /
          (stem + "_" + std::to_string(token) + "_" +
           std::to_string(next.fetch_add(1))))
      .string();
}

/// A reproducible sparse digraph (same shape as the api tests).
Graph TestGraph(int n = 150, int edges = 900, uint64_t seed = 42) {
  GraphBuilder b(static_cast<std::size_t>(n));
  Rng rng(seed);
  for (int e = 0; e < edges; ++e) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    b.AddEdge(u, v, 0.4 * rng.NextDouble());
  }
  return std::move(b).Build();
}

void ExpectGraphsBitEqual(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  const auto ao = a.RawOutOffsets(), bo = b.RawOutOffsets();
  ASSERT_EQ(ao.size(), bo.size());
  for (std::size_t i = 0; i < ao.size(); ++i) EXPECT_EQ(ao[i], bo[i]);
  const auto ae = a.RawOutEdges(), be = b.RawOutEdges();
  for (std::size_t e = 0; e < ae.size(); ++e) {
    EXPECT_EQ(ae[e].to, be[e].to);
    EXPECT_EQ(ae[e].prob, be[e].prob);
  }
  EXPECT_EQ(GraphContentHash(a), GraphContentHash(b));
}

// ---- splice vs builder-rebuild oracle ----------------------------------

struct RefApplied {
  Graph graph;
  std::vector<NodeId> dirty;
  EdgeId first_dirty_edge = 0;
};

/// Reference composition: the original sort/dedup GraphBuilder rebuild of
/// base+log. ApplyDeltaToGraph now splices the CSR arrays instead; this
/// oracle pins the splice to the rebuild semantics bit for bit.
RefApplied ReferenceApply(const Graph& base, const DeltaLog& log) {
  enum class Intent { kAbsent, kPresent, kReweight };
  struct Folded {
    Intent intent;
    float prob;
    bool consumed = false;
  };
  auto key = [](NodeId u, NodeId v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  };
  std::unordered_map<uint64_t, Folded> folded;
  for (const DeltaEdit& e : log.edits) {
    auto [it, inserted] =
        folded.try_emplace(key(e.from, e.to), Folded{Intent::kReweight, e.prob});
    Folded& slot = it->second;
    switch (static_cast<DeltaOp>(e.op)) {
      case DeltaOp::kInsert:
        slot = Folded{Intent::kPresent, e.prob};
        break;
      case DeltaOp::kDelete:
        slot = Folded{Intent::kAbsent, 0.0f};
        break;
      case DeltaOp::kReweight:
        if (inserted || slot.intent != Intent::kAbsent) slot.prob = e.prob;
        break;
    }
  }
  const auto offsets = base.RawOutOffsets();
  const std::size_t n = base.num_nodes();
  GraphBuilder builder(n);
  RefApplied ref;
  ref.first_dirty_edge = static_cast<EdgeId>(base.num_edges());
  auto mark_dirty = [&](NodeId u, NodeId v) {
    ref.dirty.push_back(v);
    ref.first_dirty_edge =
        std::min(ref.first_dirty_edge, static_cast<EdgeId>(offsets[u]));
  };
  for (NodeId u = 0; u < n; ++u) {
    for (const OutEdge& out : base.OutEdges(u)) {
      const auto it = folded.find(key(u, out.to));
      if (it == folded.end()) {
        builder.AddEdge(u, out.to, out.prob);
        continue;
      }
      it->second.consumed = true;
      if (it->second.intent == Intent::kAbsent) {
        mark_dirty(u, out.to);
        continue;
      }
      builder.AddEdge(u, out.to, it->second.prob);
      if (it->second.prob != out.prob) mark_dirty(u, out.to);
    }
  }
  for (const auto& [k, f] : folded) {
    if (f.consumed || f.intent != Intent::kPresent) continue;
    const NodeId u = static_cast<NodeId>(k >> 32);
    const NodeId v = static_cast<NodeId>(k & 0xFFFFFFFFull);
    builder.AddEdge(u, v, f.prob);
    mark_dirty(u, v);
  }
  std::sort(ref.dirty.begin(), ref.dirty.end());
  ref.dirty.erase(std::unique(ref.dirty.begin(), ref.dirty.end()),
                  ref.dirty.end());
  ref.graph = std::move(builder).Build();
  return ref;
}

/// Both CSR directions byte-equal, plus the forward-id invariant: every
/// in-entry's id must point at the matching forward slot.
void ExpectCsrBitEqual(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  const auto go = got.RawOutOffsets(), wo = want.RawOutOffsets();
  ASSERT_EQ(go.size(), wo.size());
  for (std::size_t i = 0; i < go.size(); ++i) ASSERT_EQ(go[i], wo[i]) << i;
  const auto ge = got.RawOutEdges(), we = want.RawOutEdges();
  for (std::size_t e = 0; e < ge.size(); ++e) {
    ASSERT_EQ(ge[e].to, we[e].to) << e;
    ASSERT_EQ(ge[e].prob, we[e].prob) << e;
  }
  const auto gi = got.RawInOffsets(), wi = want.RawInOffsets();
  ASSERT_EQ(gi.size(), wi.size());
  for (std::size_t i = 0; i < gi.size(); ++i) ASSERT_EQ(gi[i], wi[i]) << i;
  const auto gn = got.RawInEdges(), wn = want.RawInEdges();
  for (std::size_t e = 0; e < gn.size(); ++e) {
    ASSERT_EQ(gn[e].from, wn[e].from) << e;
    ASSERT_EQ(gn[e].prob, wn[e].prob) << e;
    ASSERT_EQ(gn[e].id, wn[e].id) << e;
  }
  for (NodeId v = 0; v < got.num_nodes(); ++v) {
    for (const InEdge& in : got.InEdges(v)) {
      ASSERT_LT(in.id, got.num_edges());
      ASSERT_EQ(got.RawOutEdges()[in.id].to, v);
      ASSERT_EQ(got.RawOutEdges()[in.id].prob, in.prob);
      ASSERT_GE(in.id, got.RawOutOffsets()[in.from]);
      ASSERT_LT(in.id, got.RawOutOffsets()[in.from + 1]);
    }
  }
  EXPECT_EQ(GraphContentHash(got), GraphContentHash(want));
}

TEST(DeltaSpliceTest, SpliceMatchesBuilderRebuildBitForBit) {
  const Graph graphs[] = {TestGraph(), TestGraph(1000, 20000, 9),
                          TestGraph(40, 120, 3)};
  for (const Graph& base : graphs) {
    for (const uint64_t seed : {1u, 5u, 99u}) {
      // 600 edits on the small graphs exceeds the edge count, forcing
      // heavy insert/delete/reweight collisions through the fold.
      for (const std::size_t edits : {std::size_t{1}, std::size_t{10},
                                      std::size_t{600}}) {
        const DeltaLog log = GenerateChurnDelta(base, seed, edits);
        StatusOr<AppliedDelta> applied = ApplyDeltaToGraph(base, log);
        ASSERT_TRUE(applied.ok()) << applied.status().ToString();
        const RefApplied ref = ReferenceApply(base, log);
        ExpectCsrBitEqual(applied.value().graph, ref.graph);
        EXPECT_EQ(applied.value().dirty_nodes, ref.dirty);
        EXPECT_EQ(applied.value().first_dirty_edge, ref.first_dirty_edge);
        EXPECT_EQ(applied.value().result_hash, GraphContentHash(ref.graph));
      }
    }
  }
}

TEST(DeltaSpliceTest, HandCraftedEditsMatchReference) {
  // A tiny graph exercising every structural case: delete an absent
  // edge, reweight an absent edge, upsert to the identical probability,
  // insert into an isolated node, cancelling insert/delete pairs, and
  // inserts at both ends of an adjacency list.
  GraphBuilder b(6);
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(0, 3, 0.25);
  b.AddEdge(1, 2, 0.125);
  b.AddEdge(3, 0, 0.75);
  const Graph base = std::move(b).Build();

  DeltaLog log;
  log.num_nodes = base.num_nodes();
  auto push = [&](DeltaOp op, NodeId u, NodeId v, float p) {
    DeltaEdit e;
    e.op = static_cast<uint32_t>(op);
    e.from = u;
    e.to = v;
    e.prob = p;
    log.edits.push_back(e);
  };
  push(DeltaOp::kDelete, 2, 4, 0.0f);           // absent: no-op
  push(DeltaOp::kReweight, 4, 5, 0.5f);         // absent: no-op
  push(DeltaOp::kInsert, 0, 1, 0.5f);           // upsert, same prob: clean
  push(DeltaOp::kInsert, 5, 2, 0.0625f);        // isolated source
  push(DeltaOp::kInsert, 1, 4, 0.5f);           // insert then delete:
  push(DeltaOp::kDelete, 1, 4, 0.0f);           //   cancels to absent
  push(DeltaOp::kDelete, 0, 3, 0.0f);           // real delete
  push(DeltaOp::kInsert, 1, 0, 0.5f);           // before existing neighbor
  push(DeltaOp::kInsert, 1, 5, 0.5f);           // after existing neighbor
  push(DeltaOp::kReweight, 3, 0, 0.875f);       // real reweight

  StatusOr<AppliedDelta> applied = ApplyDeltaToGraph(base, log);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  const RefApplied ref = ReferenceApply(base, log);
  ExpectCsrBitEqual(applied.value().graph, ref.graph);
  EXPECT_EQ(applied.value().dirty_nodes, ref.dirty);
  EXPECT_EQ(applied.value().first_dirty_edge, ref.first_dirty_edge);
}

// ---- .cwd round-trips --------------------------------------------------

TEST(DeltaLogTest, RoundTripsThroughDisk) {
  const Graph g = TestGraph();
  DeltaLog log = GenerateChurnDelta(g, 7, 25);
  EXPECT_EQ(log.edits.size(), 25u);
  EXPECT_EQ(log.num_nodes, g.num_nodes());
  EXPECT_EQ(log.base_hash, GraphContentHash(g));

  const std::string path = UniqueTempPath("delta") + ".cwd";
  ASSERT_TRUE(WriteDeltaFile(log, path).ok());
  const StatusOr<DeltaLog> back = OpenDeltaFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().num_nodes, log.num_nodes);
  EXPECT_EQ(back.value().base_hash, log.base_hash);
  ASSERT_EQ(back.value().edits.size(), log.edits.size());
  for (std::size_t i = 0; i < log.edits.size(); ++i) {
    EXPECT_EQ(back.value().edits[i].op, log.edits[i].op);
    EXPECT_EQ(back.value().edits[i].from, log.edits[i].from);
    EXPECT_EQ(back.value().edits[i].to, log.edits[i].to);
    EXPECT_EQ(back.value().edits[i].prob, log.edits[i].prob);
  }
  EXPECT_EQ(DeltaLogHash(back.value()), DeltaLogHash(log));
  EXPECT_TRUE(VerifyDeltaFile(path).ok());

  const StatusOr<DeltaFileHeader> header = ReadDeltaHeader(path);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().num_edits, 25u);
  std::filesystem::remove(path);
}

TEST(DeltaLogTest, EmptyLogRoundTripsAndComposesToIdentity) {
  const Graph g = TestGraph();
  DeltaLog log;
  log.num_nodes = g.num_nodes();
  const std::string path = UniqueTempPath("delta_empty") + ".cwd";
  ASSERT_TRUE(WriteDeltaFile(log, path).ok());
  const StatusOr<DeltaLog> back = OpenDeltaFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().edits.empty());

  const StatusOr<AppliedDelta> applied = ApplyDeltaToGraph(g, back.value());
  ASSERT_TRUE(applied.ok());
  ExpectGraphsBitEqual(applied.value().graph, g);
  EXPECT_TRUE(applied.value().dirty_nodes.empty());
  // A no-op log leaves the whole edge array clean.
  EXPECT_EQ(applied.value().first_dirty_edge, g.num_edges());
  std::filesystem::remove(path);
}

TEST(DeltaLogTest, ChurnGenerationIsDeterministic) {
  const Graph g = TestGraph();
  const DeltaLog a = GenerateChurnDelta(g, 99, 40);
  const DeltaLog b = GenerateChurnDelta(g, 99, 40);
  EXPECT_EQ(DeltaLogHash(a), DeltaLogHash(b));
  const DeltaLog c = GenerateChurnDelta(g, 100, 40);
  EXPECT_NE(DeltaLogHash(a), DeltaLogHash(c));
}

TEST(DeltaLogTest, WriteRejectsMalformedEdits) {
  DeltaLog log;
  log.num_nodes = 10;
  log.edits.push_back({0, 3, 3, 0.5f});  // self-loop
  EXPECT_EQ(WriteDeltaFile(log, UniqueTempPath("bad") + ".cwd").code(),
            Status::Code::kInvalidArgument);
  log.edits[0] = {0, 3, 99, 0.5f};  // endpoint out of range
  EXPECT_FALSE(WriteDeltaFile(log, UniqueTempPath("bad") + ".cwd").ok());
  log.edits[0] = {0, 3, 4, 1.5f};  // probability out of range
  EXPECT_FALSE(WriteDeltaFile(log, UniqueTempPath("bad") + ".cwd").ok());
  log.edits[0] = {7, 3, 4, 0.5f};  // unknown op
  EXPECT_FALSE(WriteDeltaFile(log, UniqueTempPath("bad") + ".cwd").ok());
}

TEST(DeltaLogTest, TruncationAtEveryBoundaryIsRejected) {
  const Graph g = TestGraph();
  const DeltaLog log = GenerateChurnDelta(g, 3, 10);
  const std::string path = UniqueTempPath("trunc") + ".cwd";
  ASSERT_TRUE(WriteDeltaFile(log, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_EQ(bytes.size(), sizeof(DeltaFileHeader) + 10 * sizeof(DeltaEdit));

  for (std::size_t cut :
       {std::size_t{0}, std::size_t{7}, sizeof(DeltaFileHeader) - 1,
        sizeof(DeltaFileHeader), sizeof(DeltaFileHeader) + 3,
        bytes.size() - sizeof(DeltaEdit), bytes.size() - 1}) {
    const std::string cut_path = UniqueTempPath("cut") + ".cwd";
    std::ofstream out(cut_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_FALSE(OpenDeltaFile(cut_path).ok()) << "cut at " << cut;
    std::filesystem::remove(cut_path);
  }

  // A flipped payload byte fails the checksum even at full length.
  std::string corrupt = bytes;
  corrupt[sizeof(DeltaFileHeader) + 5] ^= 0x40;
  const std::string corrupt_path = UniqueTempPath("corrupt") + ".cwd";
  std::ofstream out(corrupt_path, std::ios::binary);
  out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  out.close();
  EXPECT_EQ(OpenDeltaFile(corrupt_path).status().code(),
            Status::Code::kCorruption);
  std::filesystem::remove(corrupt_path);
  std::filesystem::remove(path);
}

TEST(DeltaLogTest, ValidateFailpointInjectsOpenFailure) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  const Graph g = TestGraph();
  const std::string path = UniqueTempPath("failpoint") + ".cwd";
  ASSERT_TRUE(WriteDeltaFile(GenerateChurnDelta(g, 1, 4), path).ok());
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  ASSERT_TRUE(
      failpoints.Set("store.delta.validate", "1*error(corruption)").ok());
  EXPECT_EQ(OpenDeltaFile(path).status().code(), Status::Code::kCorruption);
  // Exhausted: the next open succeeds on the same healthy bytes.
  EXPECT_TRUE(OpenDeltaFile(path).ok());
  failpoints.Clear("store.delta.validate");
  std::filesystem::remove(path);
}

// ---- Composition -------------------------------------------------------

TEST(DeltaApplyTest, DuplicateAndCancellingEditsFoldInLogOrder) {
  GraphBuilder b(6);
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(1, 2, 0.25);
  b.AddEdge(2, 3, 0.75);
  const Graph base = std::move(b).Build();

  DeltaLog log;
  log.num_nodes = 6;
  using enum DeltaOp;
  // 0->1: reweight twice — the later value wins.
  log.edits.push_back({static_cast<uint32_t>(kReweight), 0, 1, 0.9f});
  log.edits.push_back({static_cast<uint32_t>(kReweight), 0, 1, 0.6f});
  // 1->2: delete then insert — net effect is the re-inserted edge.
  log.edits.push_back({static_cast<uint32_t>(kDelete), 1, 2, 0.0f});
  log.edits.push_back({static_cast<uint32_t>(kInsert), 1, 2, 0.4f});
  // 4->5: insert then delete — net effect is no edge (a reverse edit).
  log.edits.push_back({static_cast<uint32_t>(kInsert), 4, 5, 0.3f});
  log.edits.push_back({static_cast<uint32_t>(kDelete), 4, 5, 0.0f});
  // 2->3: delete then reweight — stays deleted.
  log.edits.push_back({static_cast<uint32_t>(kDelete), 2, 3, 0.0f});
  log.edits.push_back({static_cast<uint32_t>(kReweight), 2, 3, 0.1f});
  // 3->4: reweight of an absent edge — a no-op.
  log.edits.push_back({static_cast<uint32_t>(kReweight), 3, 4, 0.2f});

  const StatusOr<AppliedDelta> applied = ApplyDeltaToGraph(base, log);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  GraphBuilder want(6);
  want.AddEdge(0, 1, 0.6f);
  want.AddEdge(1, 2, 0.4f);
  const Graph expect = std::move(want).Build();
  ExpectGraphsBitEqual(applied.value().graph, expect);
  // Dirty vertices: the `to` endpoints of the effective changes only —
  // the cancelled 4->5 insert and the absent-edge edits contribute none.
  const std::vector<NodeId> dirty(applied.value().dirty_nodes.begin(),
                                  applied.value().dirty_nodes.end());
  EXPECT_EQ(dirty, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(applied.value().first_dirty_edge, 0u);
}

TEST(DeltaApplyTest, RejectsWrongUniverseAndWrongBase) {
  const Graph g = TestGraph();
  DeltaLog log;
  log.num_nodes = g.num_nodes() + 1;
  EXPECT_EQ(ApplyDeltaToGraph(g, log).status().code(),
            Status::Code::kInvalidArgument);
  log.num_nodes = g.num_nodes();
  log.base_hash = 0xDEAD;
  EXPECT_EQ(ApplyDeltaToGraph(g, log).status().code(),
            Status::Code::kInvalidArgument);
  log.base_hash = 0;
  log.result_hash = 0xBEEF;  // recorded result must match the composition
  log.edits.push_back({static_cast<uint32_t>(DeltaOp::kDelete), 0, 1, 0.0f});
  EXPECT_EQ(ApplyDeltaToGraph(g, log).status().code(),
            Status::Code::kCorruption);
}

TEST(DeltaOverlayTest, ChainComposesAndCompactsToIdenticalBytes) {
  const Graph base = TestGraph();
  DeltaOverlay overlay(TestGraph());
  ASSERT_TRUE(overlay.Apply(GenerateChurnDelta(overlay.graph(), 1, 15)).ok());
  ASSERT_TRUE(overlay.Apply(GenerateChurnDelta(overlay.graph(), 2, 15)).ok());
  EXPECT_EQ(overlay.chain().size(), 2u);
  EXPECT_EQ(overlay.total_edits(), 30u);
  EXPECT_TRUE(overlay.ShouldCompact(29));
  EXPECT_FALSE(overlay.ShouldCompact(30));

  // One-shot replay of the same logs lands on the same composition and
  // the same recipe hash (the chain fold is path-independent).
  DeltaOverlay replay(TestGraph());
  ASSERT_TRUE(replay.Apply(GenerateChurnDelta(base, 1, 15)).ok());
  ASSERT_TRUE(
      replay.Apply(GenerateChurnDelta(replay.graph(), 2, 15)).ok());
  EXPECT_EQ(replay.content_hash(), overlay.content_hash());
  EXPECT_EQ(replay.recipe_hash(), overlay.recipe_hash());

  // Compact() materializes the overlay; the reopened graph is the
  // composition bit for bit, and the overlay keeps serving unchanged.
  const std::string path = UniqueTempPath("compact") + ".cwg";
  ASSERT_TRUE(overlay.Compact(path).ok());
  uint64_t stored_hash = 0;
  const StatusOr<Graph> reopened = OpenGraphFile(path, &stored_hash);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectGraphsBitEqual(reopened.value(), overlay.graph());
  EXPECT_EQ(stored_hash, overlay.content_hash());
  const StatusOr<GraphFileHeader> header = ReadGraphHeader(path);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().recipe_hash, overlay.recipe_hash());
  std::filesystem::remove(path);
}

TEST(DeltaOverlayTest, ChainSidecarRoundTrips) {
  DeltaOverlay overlay(TestGraph());
  ASSERT_TRUE(overlay.Apply(GenerateChurnDelta(overlay.graph(), 5, 8)).ok());
  ASSERT_TRUE(overlay.Apply(GenerateChurnDelta(overlay.graph(), 6, 8)).ok());
  const std::string path = UniqueTempPath("sidecar") + ".cwg";
  ASSERT_TRUE(overlay.Compact(path).ok());
  DeltaChainFile chain;
  chain.base_hash = overlay.base_hash();
  chain.links = overlay.chain();
  ASSERT_TRUE(WriteChainSidecar(path, chain).ok());

  const StatusOr<DeltaChainFile> back = ReadChainSidecar(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().base_hash, chain.base_hash);
  ASSERT_EQ(back.value().links.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.value().links[i].log_hash, chain.links[i].log_hash);
    EXPECT_EQ(back.value().links[i].num_edits, chain.links[i].num_edits);
    EXPECT_EQ(back.value().links[i].dirty_count, chain.links[i].dirty_count);
    EXPECT_EQ(back.value().links[i].result_hash, chain.links[i].result_hash);
  }
  EXPECT_EQ(ReadChainSidecar(UniqueTempPath("absent")).status().code(),
            Status::Code::kNotFound);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".chain");
}

// ---- Incremental world materialization ---------------------------------

void ExpectSnapshotsEqual(const WorldSnapshot& got, const WorldSnapshot& want,
                          const Graph& graph, int num_items,
                          const std::string& where) {
  ASSERT_EQ(got.live_edges(), want.live_edges()) << where;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto a = want.LiveOut(u), b = got.LiveOut(u);
    ASSERT_EQ(a.size(), b.size()) << where << " node " << u;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  for (int s = 0; s < (1 << num_items); ++s) {
    EXPECT_EQ(got.utilities().Utility(static_cast<ItemSet>(s)),
              want.utilities().Utility(static_cast<ItemSet>(s)));
  }
}

// Patched snapshots of `base` after a churn delta equal cold builds of the
// new graph, standalone and through the pools (whose workers share one
// coin threshold table).
void ExpectPatchedSnapshotsEqualCold(const Graph& base, uint64_t churn_seed) {
  const UtilityConfig config = MakeConfigC1();
  const StatusOr<AppliedDelta> applied =
      ApplyDeltaToGraph(base, GenerateChurnDelta(base, churn_seed, 20));
  ASSERT_TRUE(applied.ok());
  const Graph& next = applied.value().graph;
  const EdgeId watermark = applied.value().first_dirty_edge;
  ASSERT_LT(watermark, base.num_edges());  // the churn touched something

  const uint64_t seed = 0x5EED;
  const int worlds = 6;
  const WorldPool prior_pool(base, config, seed, worlds, 64ull << 20, 3);
  const WorldPool cold_pool(next, config, seed, worlds, 64ull << 20, 3);
  const WorldPool patched_pool(next, config, seed, worlds, 64ull << 20, 3,
                               {}, prior_pool, watermark);
  for (int w = 0; w < worlds; ++w) {
    const WorldSnapshot prior(base, config, WorldEdgeSeedOf(seed, w),
                              WorldNoiseRngOf(seed, w));
    const WorldSnapshot cold(next, config, WorldEdgeSeedOf(seed, w),
                             WorldNoiseRngOf(seed, w));
    const WorldSnapshot patched(next, prior, WorldEdgeSeedOf(seed, w),
                                watermark);
    const std::string where = "world " + std::to_string(w);
    ExpectSnapshotsEqual(patched, cold, next, config.num_items(), where);
    ExpectSnapshotsEqual(*cold_pool.Get(w), cold, next, config.num_items(),
                         where + " (cold pool)");
    ExpectSnapshotsEqual(*patched_pool.Get(w), cold, next,
                         config.num_items(), where + " (patched pool)");
  }
}

// Patched packed sets equal cold ones, word for word.
void ExpectPatchedPackedEqualsCold(const Graph& base, uint64_t churn_seed) {
  const StatusOr<AppliedDelta> applied =
      ApplyDeltaToGraph(base, GenerateChurnDelta(base, churn_seed, 20));
  ASSERT_TRUE(applied.ok());
  const Graph& next = applied.value().graph;
  const UtilityConfig config = MakeConfigC1();
  const uint64_t seed = 0xACE;
  const int num_worlds = 130;
  const std::size_t chunks = 2;

  const PackedWorldSet prior(base, config, seed, num_worlds, chunks, 4);
  const PackedWorldSet cold(next, config, seed, num_worlds, chunks, 4);
  const PackedWorldSet patched(next, prior, seed,
                               applied.value().first_dirty_edge, 4);
  ASSERT_EQ(patched.chunks(), cold.chunks());
  ASSERT_EQ(patched.num_worlds(), cold.num_worlds());
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto a = cold.ChunkBlocks(c), b = patched.ChunkBlocks(c);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t blk = 0; blk < a.size(); ++blk) {
      EXPECT_EQ(a[blk].lane_count, b[blk].lane_count);
      EXPECT_EQ(a[blk].lane_mask, b[blk].lane_mask);
      EXPECT_EQ(a[blk].edge_mask, b[blk].edge_mask);
      EXPECT_EQ(a[blk].utility, b[blk].utility);
      EXPECT_EQ(a[blk].adopt_plane, b[blk].adopt_plane);
      EXPECT_EQ(a[blk].adopt_changed, b[blk].adopt_changed);
    }
  }
}

TEST(DeltaWorldTest, PatchedSnapshotBitIdenticalToColdBuild) {
  ExpectPatchedSnapshotsEqualCold(TestGraph(), 11);
}

TEST(DeltaWorldTest, PatchedPackedSetBitIdenticalToColdBuild) {
  ExpectPatchedPackedEqualsCold(TestGraph(), 13);
}

// The same on a graph with p = 0, p = 1 and the other coin edge cases.
TEST(DeltaWorldTest, CoinEdgeGraphPatchedWorldsBitIdenticalToColdBuilds) {
  ExpectPatchedSnapshotsEqualCold(CoinEdgeGraph(), 17);
  ExpectPatchedPackedEqualsCold(CoinEdgeGraph(), 19);
}

TEST(DeltaRrPatchTest, CleanSetsReusedDirtySetsResampledBitIdentically) {
  const Graph base = TestGraph(300, 1800, 5);
  const uint64_t base_hash = GraphContentHash(base);
  const StatusOr<AppliedDelta> applied =
      ApplyDeltaToGraph(base, GenerateChurnDelta(base, 17, 12), base_hash);
  ASSERT_TRUE(applied.ok());
  const Graph& next = applied.value().graph;
  const uint64_t next_hash = applied.value().result_hash;
  ASSERT_NE(next_hash, base_hash);

  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(UniqueTempPath("rrcache"));
  ASSERT_TRUE(cache.ok());

  // A base-graph era sampled exactly the way the pipeline does.
  const uint64_t sample_seed = 0x1D;
  const std::size_t num_sets = 400;
  RrProvenance provenance;
  provenance.graph_hash = base_hash;
  provenance.sample_seed = sample_seed;
  provenance.source_id = kStandardRrSourceId;
  provenance.era_start = 0;
  {
    RrCollection era(base.num_nodes());
    RrSampler sampler(base);
    std::vector<NodeId> out;
    for (std::size_t k = 0; k < num_sets; ++k) {
      Rng rng(MixHash(sample_seed, kRrSampleTag ^ k));
      sampler.SampleStandard(rng, &out);
      era.Add(out, 1.0);
    }
    ASSERT_TRUE(cache.value()
                    ->StoreRrEra(RrRecipeHash(base_hash, kStandardRrSourceId,
                                              sample_seed, 0),
                                 provenance, era)
                    .ok());
  }

  const RrPatchStats stats =
      PatchCachedRrEras(*cache.value(), next, base_hash, next_hash,
                        applied.value().dirty_nodes);
  EXPECT_EQ(stats.eras_scanned, 1u);
  EXPECT_EQ(stats.eras_patched, 1u);
  EXPECT_EQ(stats.sets_reused + stats.sets_resampled, num_sets);
  // Selective invalidation: a 12-edit churn must dirty some sets but
  // nowhere near all of them.
  EXPECT_GT(stats.sets_reused, 0u);
  EXPECT_GT(stats.sets_resampled, 0u);
  EXPECT_LT(stats.sets_resampled, num_sets / 2);

  // The patched era is byte-for-byte the era a cold pipeline would
  // sample on the new graph.
  RrProvenance fresh = provenance;
  fresh.graph_hash = next_hash;
  const std::optional<RrEraData> patched = cache.value()->LoadRrEra(
      RrRecipeHash(next_hash, kStandardRrSourceId, sample_seed, 0), fresh,
      next.num_nodes());
  ASSERT_TRUE(patched.has_value());
  ASSERT_EQ(patched->num_sets(), num_sets);
  RrSampler sampler(next);
  std::vector<NodeId> want;
  for (std::size_t k = 0; k < num_sets; ++k) {
    Rng rng(MixHash(sample_seed, kRrSampleTag ^ k));
    sampler.SampleStandard(rng, &want);
    const std::span<const NodeId> got = patched->members.subspan(
        patched->offsets[k], patched->offsets[k + 1] - patched->offsets[k]);
    ASSERT_EQ(got.size(), want.size()) << "set " << k;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "set " << k;
    }
  }
}

TEST(DeltaRrPatchTest, NoOpWhenHashesMatchOrNoErasCached) {
  const Graph g = TestGraph();
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(UniqueTempPath("rrcache_empty"));
  ASSERT_TRUE(cache.ok());
  const RrPatchStats same =
      PatchCachedRrEras(*cache.value(), g, 1, 1, {});
  EXPECT_EQ(same.eras_scanned, 0u);
  const RrPatchStats empty =
      PatchCachedRrEras(*cache.value(), g, 1, 2, {});
  EXPECT_EQ(empty.eras_scanned, 0u);
  EXPECT_EQ(empty.eras_patched, 0u);
}

// ---- Engine::ApplyDelta ------------------------------------------------

AllocateRequest TinyRequest(AlgoKind algo, unsigned threads) {
  AllocateRequest request;
  request.algo = algo;
  request.items = {0, 1};
  request.budgets = {3, 3};
  request.params.imm.seed = 11;
  request.params.estimator = {.num_worlds = 20, .seed = 21,
                              .num_threads = threads};
  request.ranking.seed = 31;
  request.eval = {.num_worlds = 40, .seed = 41, .num_threads = threads};
  return request;
}

TEST(EngineDeltaTest, PostDeltaAllocationsMatchColdRebuildForEveryAlgo) {
  const Graph base = TestGraph();
  const UtilityConfig config = MakeConfigC1();
  const DeltaLog log = GenerateChurnDelta(base, 23, 18);
  const StatusOr<AppliedDelta> applied = ApplyDeltaToGraph(base, log);
  ASSERT_TRUE(applied.ok());

  Engine incremental(base, config);
  ApplyDeltaResult outcome;
  ASSERT_TRUE(incremental.ApplyDelta(log, &outcome).ok());
  EXPECT_EQ(outcome.old_hash, GraphContentHash(base));
  EXPECT_EQ(outcome.new_hash, applied.value().result_hash);
  EXPECT_EQ(outcome.dirty_nodes, applied.value().dirty_nodes.size());
  EXPECT_EQ(incremental.graph_hash(), outcome.new_hash);
  ASSERT_EQ(incremental.delta_chain().size(), 1u);
  EXPECT_EQ(incremental.delta_chain()[0].log_hash, DeltaLogHash(log));

  // A cold engine over the composed graph: every registered allocator at
  // 1 and 8 threads must land on bit-identical results.
  Engine cold(applied.value().graph, config);
  for (AlgoKind algo : AllAlgoKinds()) {
    for (unsigned threads : {1u, 8u}) {
      AllocateResult inc_result, cold_result;
      const Status inc =
          incremental.Allocate(TinyRequest(algo, threads), &inc_result);
      const Status cold_status =
          cold.Allocate(TinyRequest(algo, threads), &cold_result);
      ASSERT_EQ(inc.ok(), cold_status.ok()) << AlgoName(algo);
      if (!inc.ok()) continue;
      EXPECT_EQ(inc_result.skipped, cold_result.skipped) << AlgoName(algo);
      EXPECT_EQ(inc_result.allocation.ToString(),
                cold_result.allocation.ToString())
          << AlgoName(algo) << " threads=" << threads;
      EXPECT_EQ(inc_result.stats.welfare, cold_result.stats.welfare)
          << AlgoName(algo) << " threads=" << threads;
    }
  }
  // Patching telemetry: the evaluator pools of the post-delta runs were
  // served incrementally from the pre-delta pools where one existed.
  EXPECT_GE(incremental.pool_stats().pools_built, 1u);
}

TEST(EngineDeltaTest, PoolsArePatchedAcrossDelta) {
  const Graph base = TestGraph();
  const UtilityConfig config = MakeConfigC1();
  Engine engine(base, config);
  AllocateResult result;
  // Warm the keyed pool store on the pre-delta graph.
  ASSERT_TRUE(
      engine.Allocate(TinyRequest(AlgoKind::kSeqGrdNm, 1), &result).ok());
  const uint64_t built_before = engine.pool_stats().pools_built;
  ASSERT_TRUE(engine.ApplyDelta(GenerateChurnDelta(base, 29, 10)).ok());
  ASSERT_TRUE(
      engine.Allocate(TinyRequest(AlgoKind::kSeqGrdNm, 1), &result).ok());
  EXPECT_GT(engine.pool_stats().pools_built, built_before);
  EXPECT_GE(engine.pool_stats().pools_patched, 1u);
}

TEST(EngineDeltaTest, ApplyDeltaIsAtomicUnderConcurrentAllocates) {
  const Graph base = TestGraph();
  const UtilityConfig config = MakeConfigC1();
  Engine engine(base, config);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&engine, &stop, &failures] {
      while (!stop.load(std::memory_order_relaxed)) {
        AllocateResult result;
        const Status status =
            engine.Allocate(TinyRequest(AlgoKind::kSeqGrdNm, 2), &result);
        if (!status.ok() || result.allocation.TotalPairs() != 6u) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Three deltas land while allocations are in flight; every allocation
  // must see a consistent graph (pinned at entry) and succeed.
  Graph current = TestGraph();
  for (uint64_t round = 0; round < 3; ++round) {
    const DeltaLog log = GenerateChurnDelta(current, 31 + round, 8);
    StatusOr<AppliedDelta> applied = ApplyDeltaToGraph(current, log);
    ASSERT_TRUE(applied.ok());
    ASSERT_TRUE(engine.ApplyDelta(log).ok());
    current = std::move(applied.value().graph);
  }
  stop.store(true);
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.delta_chain().size(), 3u);
  EXPECT_EQ(engine.graph_hash(), GraphContentHash(current));

  // The engine's post-churn allocations equal a cold engine's.
  Engine cold(current, config);
  AllocateResult warm_result, cold_result;
  ASSERT_TRUE(
      engine.Allocate(TinyRequest(AlgoKind::kSeqGrd, 2), &warm_result).ok());
  ASSERT_TRUE(
      cold.Allocate(TinyRequest(AlgoKind::kSeqGrd, 2), &cold_result).ok());
  EXPECT_EQ(warm_result.allocation.ToString(),
            cold_result.allocation.ToString());
  EXPECT_EQ(warm_result.stats.welfare, cold_result.stats.welfare);
}

}  // namespace
}  // namespace cwm
