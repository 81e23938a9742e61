// Tests for the dynamic-graph delta subsystem: .cwd round-trips (empty,
// duplicate, and mutually cancelling edits), overlay composition vs a
// from-scratch rebuild, chain sidecars, truncated/corrupt file rejection
// (including the store.delta.validate failpoint), RR-era invalidation
// accounting (clean sets reused verbatim, dirty sets resampled
// bit-identically, several eras patched concurrently), patched world
// snapshots and pools vs cold rebuilds, and Engine::ApplyDelta —
// equivalence across every registered allocator at 1 and 8 threads,
// patched empty-S_P PRIMA+ eras serving the post-delta runs, the RR
// working set a delta patches (the engine's own eras only, taken once
// per hash move), plus atomicity under concurrent Allocate traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <span>
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
#include "obs/metrics.h"
#include "rrset/imm.h"
#include "rrset/rr_pipeline.h"
#include "rrset/rr_sampler.h"
#include "simulate/world.h"
#include "simulate/world_pool.h"
#include "store/artifact_cache.h"
#include "store/graph_store.h"
#include "store/rr_store.h"
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
                               0, &prior_pool, watermark);
  for (int w = 0; w < worlds; ++w) {
    const WorldSnapshot prior(base, config, WorldEdgeSeedOf(seed, w),
                              WorldNoiseRngOf(seed, w));
    const WorldSnapshot cold(next, config, WorldEdgeSeedOf(seed, w),
                             WorldNoiseRngOf(seed, w));
    const WorldSnapshot patched(next, config, WorldEdgeSeedOf(seed, w),
                                WorldNoiseRngOf(seed, w), nullptr, &prior,
                                watermark);
    const std::string where = "world " + std::to_string(w);
    ExpectSnapshotsEqual(patched, cold, next, config.num_items(), where);
    ExpectSnapshotsEqual(*cold_pool.Get(w), cold, next, config.num_items(),
                         where + " (cold pool)");
    ExpectSnapshotsEqual(*patched_pool.Get(w), cold, next,
                         config.num_items(), where + " (patched pool)");
  }
}

TEST(DeltaWorldTest, PatchedSnapshotBitIdenticalToColdBuild) {
  ExpectPatchedSnapshotsEqualCold(TestGraph(), 11);
}

// The same on a graph with p = 0, p = 1 and the other coin edge cases.
TEST(DeltaWorldTest, CoinEdgeGraphPatchedWorldsBitIdenticalToColdBuilds) {
  ExpectPatchedSnapshotsEqualCold(CoinEdgeGraph(), 17);
}

// Two deltas A -> B -> C with the pool resident on A only: a miss on C
// walks the hint chain back to A and patches from it below the lower of
// the two watermarks, bit-identically to cold builds on C.
TEST(DeltaWorldTest, StorePatchesAcrossATwoHopDeltaChain) {
  const Graph a = TestGraph();
  const StatusOr<AppliedDelta> ab =
      ApplyDeltaToGraph(a, GenerateChurnDelta(a, 23, 20));
  ASSERT_TRUE(ab.ok());
  const Graph& b = ab.value().graph;
  const StatusOr<AppliedDelta> bc =
      ApplyDeltaToGraph(b, GenerateChurnDelta(b, 29, 20));
  ASSERT_TRUE(bc.ok());
  const Graph& c = bc.value().graph;
  ASSERT_NE(ab.value().first_dirty_edge, bc.value().first_dirty_edge);

  const UtilityConfig config = MakeConfigC1();
  const uint64_t seed = 0xC4A1;
  const int pool_worlds = 6;
  WorldPoolStore store(64ull << 20);
  ASSERT_NE(store.GetOrBuild(a, config, seed, pool_worlds, 3), nullptr);
  store.NotifyDelta(a, b, ab.value().first_dirty_edge);
  store.NotifyDelta(b, c, bc.value().first_dirty_edge);

  const Counter& patches =
      MetricsRegistry::Global().GetCounter("pool.patches");
  const uint64_t patches_before = patches.value();
  const std::shared_ptr<const WorldPool> pool =
      store.GetOrBuild(c, config, seed, pool_worlds, 3);
  EXPECT_EQ(patches.value() - patches_before, 1u);

  for (int w = 0; w < pool_worlds; ++w) {
    const WorldSnapshot cold(c, config, WorldEdgeSeedOf(seed, w),
                             WorldNoiseRngOf(seed, w));
    ASSERT_NE(pool->Get(w), nullptr);
    ExpectSnapshotsEqual(*pool->Get(w), cold, c, config.num_items(),
                         "world " + std::to_string(w));
  }
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
  std::vector<char> dirty(base.num_nodes(), 0);
  for (NodeId v : applied.value().dirty_nodes) dirty[v] = 1;

  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(UniqueTempPath("rrcache"));
  ASSERT_TRUE(cache.ok());

  // Five base-graph eras, sampled exactly the way the pipeline does, with
  // different seeds, starts and sizes, so several patch workers run.
  struct Era {
    uint64_t seed;
    uint64_t start;
    std::size_t num_sets;
  };
  const Era eras[] = {
      {0x1D, 0, 400}, {0x2E, 0, 150}, {0x3F, 250, 600}, {0x1D, 400, 90},
      {0x51, 0, 1}};
  auto sample_era = [](const Graph& g, const Era& era, RrCollection* out) {
    RrSampler sampler(g);
    std::vector<NodeId> members;
    for (std::size_t k = 0; k < era.num_sets; ++k) {
      Rng rng(MixHash(era.seed, kRrSampleTag ^ (era.start + k)));
      sampler.SampleStandard(rng, &members);
      out->Add(members, 1.0);
    }
  };
  auto provenance_of = [](const Era& era, uint64_t graph_hash) {
    return RrProvenance{.graph_hash = graph_hash,
                        .sample_seed = era.seed,
                        .source_id = kStandardRrSourceId,
                        .era_start = era.start};
  };
  std::size_t want_reused = 0, want_resampled = 0;
  std::vector<RrProvenance> stored;
  for (const Era& era : eras) {
    stored.push_back(provenance_of(era, base_hash));
    RrCollection rr(base.num_nodes());
    sample_era(base, era, &rr);
    for (std::size_t k = 0; k < rr.size(); ++k) {
      const auto members = rr.Members(static_cast<uint32_t>(k));
      const bool touched =
          std::any_of(members.begin(), members.end(),
                      [&](NodeId v) { return dirty[v] != 0; });
      ++(touched ? want_resampled : want_reused);
    }
    ASSERT_TRUE(cache.value()
                    ->StoreRrEra(RrRecipeHash(base_hash, kStandardRrSourceId,
                                              era.seed, era.start),
                                 provenance_of(era, base_hash), rr)
                    .ok());
  }
  // A marginal era of a non-empty S_P is left alone: its zeroed sets do
  // not say which in-edge lists they read.
  const uint64_t marginal_id = MarginalRrSourceId({7, 9});
  {
    RrCollection rr(base.num_nodes());
    sample_era(base, eras[0], &rr);
    RrProvenance provenance = provenance_of(eras[0], base_hash);
    provenance.source_id = marginal_id;
    stored.push_back(provenance);
    ASSERT_TRUE(cache.value()
                    ->StoreRrEra(RrRecipeHash(base_hash, marginal_id,
                                              eras[0].seed, 0),
                                 provenance, rr)
                    .ok());
  }

  const RrPatchStats stats =
      PatchCachedRrEras(*cache.value(), next, base_hash, next_hash,
                        applied.value().dirty_nodes, stored);
  EXPECT_EQ(stats.eras_scanned, std::size(eras));
  EXPECT_EQ(stats.eras_patched, std::size(eras));
  // The returned stats are the per-era sums.
  EXPECT_EQ(stats.sets_reused, want_reused);
  EXPECT_EQ(stats.sets_resampled, want_resampled);
  // Selective invalidation: a 12-edit churn must dirty some sets but
  // nowhere near all of them.
  const std::size_t total_sets = want_reused + want_resampled;
  EXPECT_GT(stats.sets_reused, 0u);
  EXPECT_GT(stats.sets_resampled, 0u);
  EXPECT_LT(stats.sets_resampled, total_sets / 2);
  EXPECT_FALSE(cache.value()
                   ->LoadRrEra(RrRecipeHash(next_hash, marginal_id,
                                            eras[0].seed, 0),
                               {.graph_hash = next_hash,
                                .sample_seed = eras[0].seed,
                                .source_id = marginal_id,
                                .era_start = 0},
                               next.num_nodes())
                   .has_value());

  // Every patched era is, set for set, the era a cold pipeline would
  // sample on the new graph.
  for (const Era& era : eras) {
    const std::optional<RrEraData> patched = cache.value()->LoadRrEra(
        RrRecipeHash(next_hash, kStandardRrSourceId, era.seed, era.start),
        provenance_of(era, next_hash), next.num_nodes());
    ASSERT_TRUE(patched.has_value()) << "era seed " << era.seed;
    RrCollection want(next.num_nodes());
    sample_era(next, era, &want);
    ASSERT_EQ(patched->num_sets(), era.num_sets);
    for (std::size_t k = 0; k < era.num_sets; ++k) {
      const std::span<const NodeId> got = patched->members.subspan(
          patched->offsets[k], patched->offsets[k + 1] - patched->offsets[k]);
      const auto expected = want.Members(static_cast<uint32_t>(k));
      ASSERT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                             expected.end()))
          << "era seed " << era.seed << " start " << era.start << " set "
          << k;
      EXPECT_EQ(patched->weights[k], 1.0);
    }
  }
}

TEST(DeltaRrPatchTest, NoOpWhenHashesMatchOrNoErasCached) {
  const Graph g = TestGraph();
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(UniqueTempPath("rrcache_empty"));
  ASSERT_TRUE(cache.ok());
  const RrProvenance era{.graph_hash = 1,
                         .sample_seed = 3,
                         .source_id = kStandardRrSourceId,
                         .era_start = 0};
  const RrPatchStats same =
      PatchCachedRrEras(*cache.value(), g, 1, 1, {}, {&era, 1});
  EXPECT_EQ(same.eras_scanned, 0u);
  const RrPatchStats empty =
      PatchCachedRrEras(*cache.value(), g, 1, 2, {}, {});
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

/// Each run of `algos` on `engine` reads cached eras, and its results
/// equal a cold engine's (no cache) on the same graph bit for bit.
void ExpectServedFromCacheAndEqualCold(const Engine& engine,
                                       const UtilityConfig& config,
                                       std::span<const AlgoKind> algos) {
  const Engine cold(engine.graph(), config);
  const Counter& rr_hits =
      MetricsRegistry::Global().GetCounter("cache.rr_hits");
  for (AlgoKind algo : algos) {
    const uint64_t hits_before = rr_hits.value();
    AllocateResult served, fresh;
    ASSERT_TRUE(engine.Allocate(TinyRequest(algo, 2), &served).ok());
    EXPECT_GT(rr_hits.value(), hits_before) << AlgoName(algo);
    ASSERT_TRUE(cold.Allocate(TinyRequest(algo, 2), &fresh).ok());
    EXPECT_EQ(served.allocation.ToString(), fresh.allocation.ToString())
        << AlgoName(algo);
    EXPECT_EQ(std::bit_cast<uint64_t>(served.stats.welfare),
              std::bit_cast<uint64_t>(fresh.stats.welfare))
        << AlgoName(algo);
  }
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
  const Counter& pool_builds =
      MetricsRegistry::Global().GetCounter("pool.builds");
  uint64_t incremental_builds = 0;
  for (AlgoKind algo : AllAlgoKinds()) {
    for (unsigned threads : {1u, 8u}) {
      AllocateResult inc_result, cold_result;
      const uint64_t builds_before = pool_builds.value();
      const Status inc =
          incremental.Allocate(TinyRequest(algo, threads), &inc_result);
      incremental_builds += pool_builds.value() - builds_before;
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
  EXPECT_GE(incremental_builds, 1u);
}

// SeqGRD-NM and MaxGRD without a fixed allocation run PRIMA+ with an
// empty S_P, whose eras are standard eras: ApplyDelta patches them, and
// the post-delta allocations are served from the patched eras.
TEST(EngineDeltaTest, EmptyPriorSetErasArePatchedAndServeThePostDeltaRuns) {
  const Graph base = TestGraph();
  const UtilityConfig config = MakeConfigC1();
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(UniqueTempPath("engine_rrcache"));
  ASSERT_TRUE(cache.ok());
  ArtifactCache& store = *cache.value();
  Engine engine(base, config, {.cache = &store});
  const AlgoKind algos[] = {AlgoKind::kSeqGrdNm, AlgoKind::kMaxGrd};
  for (AlgoKind algo : algos) {
    AllocateResult warm;
    ASSERT_TRUE(engine.Allocate(TinyRequest(algo, 2), &warm).ok());
  }
  std::size_t standard_eras = 0;
  for (const CacheEntry& entry : store.List()) {
    if (entry.is_graph) continue;
    const StatusOr<RrFileHeader> header = ReadRrHeader(entry.path);
    ASSERT_TRUE(header.ok());
    if (header.value().graph_hash == engine.graph_hash() &&
        header.value().source_id == kStandardRrSourceId) {
      ++standard_eras;
    }
  }
  // Each PRIMA+ run persists a search era and a final era.
  EXPECT_GE(standard_eras, 2u);

  ApplyDeltaResult outcome;
  ASSERT_TRUE(
      engine.ApplyDelta(GenerateChurnDelta(base, 37, 12), &outcome).ok());
  EXPECT_EQ(outcome.rr.eras_scanned, standard_eras);
  EXPECT_EQ(outcome.rr.eras_patched, standard_eras);
  EXPECT_GT(outcome.rr.sets_reused, 0u);

  // Each post-delta run reads patched eras, and its results equal a cold
  // engine's (no cache) on the composed graph bit for bit.
  ExpectServedFromCacheAndEqualCold(engine, config, algos);
}

// ---- the RR working set a delta patches --------------------------------

/// The allocators engine-churn runs after every delta: all three read
/// standard eras.
constexpr AlgoKind kChurnAlgos[] = {AlgoKind::kSeqGrdNm, AlgoKind::kMaxGrd,
                                    AlgoKind::kTcim};

/// Runs kChurnAlgos on `engine` with RR eras drawn from `rr_seed`.
void AllocateChurn(const Engine& engine, uint64_t rr_seed) {
  for (AlgoKind algo : kChurnAlgos) {
    AllocateRequest request = TinyRequest(algo, 2);
    request.params.imm.seed = rr_seed;
    AllocateResult result;
    ASSERT_TRUE(engine.Allocate(request, &result).ok()) << AlgoName(algo);
  }
}

/// The standard RR eras of `graph_hash` in the cache directory.
std::vector<RrProvenance> StandardErasOnDisk(const ArtifactCache& cache,
                                             uint64_t graph_hash) {
  std::vector<RrProvenance> eras;
  for (const CacheEntry& entry : cache.List()) {
    if (entry.is_graph) continue;
    const StatusOr<RrFileHeader> header = ReadRrHeader(entry.path);
    if (!header.ok() || header.value().graph_hash != graph_hash ||
        header.value().source_id != kStandardRrSourceId) {
      continue;
    }
    eras.push_back({.graph_hash = graph_hash,
                    .sample_seed = header.value().sample_seed,
                    .source_id = kStandardRrSourceId,
                    .era_start = header.value().era_start});
  }
  return eras;
}

// Eras another process (or an earlier engine) left on the base graph are
// not this engine's working set: the delta patches only the eras its own
// allocations touched, and writes nothing for the others.
TEST(EngineDeltaTest, ErasOutsideTheWorkingSetAreNotPatched) {
  const Graph base = TestGraph();
  const UtilityConfig config = MakeConfigC1();
  const uint64_t base_hash = GraphContentHash(base);
  const std::string dir = UniqueTempPath("shared_rrcache");
  {
    StatusOr<std::unique_ptr<ArtifactCache>> other = ArtifactCache::Open(dir);
    ASSERT_TRUE(other.ok());
    const Engine earlier(base, config, {.cache = other.value().get()});
    AllocateChurn(earlier, /*rr_seed=*/101);
  }
  StatusOr<std::unique_ptr<ArtifactCache>> cache = ArtifactCache::Open(dir);
  ASSERT_TRUE(cache.ok());
  ArtifactCache& store = *cache.value();
  const std::vector<RrProvenance> foreign = StandardErasOnDisk(store, base_hash);
  ASSERT_GE(foreign.size(), 2u);

  Engine engine(base, config, {.cache = &store});
  AllocateChurn(engine, /*rr_seed=*/11);
  std::vector<RrProvenance> own;
  for (const RrProvenance& era : StandardErasOnDisk(store, base_hash)) {
    if (std::find(foreign.begin(), foreign.end(), era) == foreign.end()) {
      own.push_back(era);
    }
  }
  ASSERT_GE(own.size(), 2u);

  ApplyDeltaResult outcome;
  ASSERT_TRUE(
      engine.ApplyDelta(GenerateChurnDelta(base, 37, 12), &outcome).ok());
  EXPECT_EQ(outcome.rr.eras_scanned, own.size());
  EXPECT_EQ(outcome.rr.eras_patched, own.size());
  auto patched_path = [&](const RrProvenance& era) {
    return store.RrPathFor(RrRecipeHash(outcome.new_hash, era.source_id,
                                        era.sample_seed, era.era_start));
  };
  for (const RrProvenance& era : own) {
    EXPECT_TRUE(std::filesystem::exists(patched_path(era)))
        << "own era seed " << era.sample_seed;
  }
  for (const RrProvenance& era : foreign) {
    EXPECT_FALSE(std::filesystem::exists(patched_path(era)))
        << "foreign era seed " << era.sample_seed;
  }
  ExpectServedFromCacheAndEqualCold(engine, config, kChurnAlgos);
}

// engine-churn's passes: engines in sequence on one cache object, each
// warming its own seed on the base graph and then walking its own delta
// chain. The second engine patches its own working set at every hop, as
// it would on a cache nobody else used; the first engine's base-graph
// eras do not ride its chain.
TEST(EngineDeltaTest, EnginesInSequenceEachPatchOnlyTheirOwnWorkingSet) {
  const Graph base = TestGraph();
  const UtilityConfig config = MakeConfigC1();
  constexpr int kHops = 3;
  // One pass: warm-up allocations, then kHops deltas each followed by
  // allocations. Returns eras_patched per hop; `on_disk` gets the
  // standard eras of each hop's old graph in the cache directory.
  auto run_pass = [&](ArtifactCache& store, uint64_t rr_seed,
                      uint64_t delta_seed, std::vector<std::size_t>* on_disk) {
    Engine engine(base, config, {.cache = &store});
    AllocateChurn(engine, rr_seed);
    std::vector<std::size_t> patched;
    for (int hop = 0; hop < kHops; ++hop) {
      on_disk->push_back(StandardErasOnDisk(store, engine.graph_hash()).size());
      ApplyDeltaResult outcome;
      EXPECT_TRUE(engine
                      .ApplyDelta(GenerateChurnDelta(engine.graph(),
                                                     delta_seed + hop, 10),
                                  &outcome)
                      .ok());
      patched.push_back(outcome.rr.eras_patched);
      AllocateChurn(engine, rr_seed);
    }
    return patched;
  };

  // Alone on a fresh cache, every standard era of each hop's old graph is
  // the engine's own: its working set.
  StatusOr<std::unique_ptr<ArtifactCache>> solo_cache =
      ArtifactCache::Open(UniqueTempPath("solo_rrcache"));
  ASSERT_TRUE(solo_cache.ok());
  std::vector<std::size_t> solo_on_disk;
  const std::vector<std::size_t> solo = run_pass(
      *solo_cache.value(), /*rr_seed=*/202, /*delta_seed=*/500, &solo_on_disk);
  EXPECT_EQ(solo, solo_on_disk);
  for (std::size_t hop = 0; hop < solo.size(); ++hop) {
    EXPECT_GE(solo[hop], 2u) << "hop " << hop;
  }

  StatusOr<std::unique_ptr<ArtifactCache>> shared_cache =
      ArtifactCache::Open(UniqueTempPath("passes_rrcache"));
  ASSERT_TRUE(shared_cache.ok());
  std::vector<std::size_t> ignored;
  run_pass(*shared_cache.value(), /*rr_seed=*/101, /*delta_seed=*/400,
           &ignored);
  std::vector<std::size_t> after_first;
  EXPECT_EQ(run_pass(*shared_cache.value(), /*rr_seed=*/202,
                     /*delta_seed=*/500, &after_first),
            solo);
  // The first engine's base-graph eras are still on disk: the second
  // engine left them alone.
  EXPECT_GT(after_first[0], solo_on_disk[0]);
}

// A working set is taken once per hash move: a delta that keeps the hash
// keeps the list, a second take is empty, and an era recorded under the
// old hash after the take (an allocation still pinned to the old graph)
// stays on that hash's list instead of joining the chain.
TEST(EngineDeltaTest, WorkingSetIsTakenOnceWhenTheHashMoves) {
  const Graph base = TestGraph();
  const UtilityConfig config = MakeConfigC1();
  const uint64_t base_hash = GraphContentHash(base);
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(UniqueTempPath("take_rrcache"));
  ASSERT_TRUE(cache.ok());
  ArtifactCache& store = *cache.value();
  Engine engine(base, config, {.cache = &store});
  AllocateChurn(engine, /*rr_seed=*/11);
  const std::vector<RrProvenance> own = StandardErasOnDisk(store, base_hash);
  ASSERT_GE(own.size(), 2u);

  DeltaLog no_op;
  no_op.num_nodes = base.num_nodes();
  ApplyDeltaResult kept;
  ASSERT_TRUE(engine.ApplyDelta(no_op, &kept).ok());
  EXPECT_EQ(kept.new_hash, base_hash);
  EXPECT_EQ(kept.rr.eras_scanned, 0u);

  ApplyDeltaResult first;
  ASSERT_TRUE(engine.ApplyDelta(GenerateChurnDelta(base, 37, 12), &first).ok());
  EXPECT_EQ(first.rr.eras_scanned, own.size());
  EXPECT_EQ(first.rr.eras_patched, own.size());
  EXPECT_TRUE(store.TakeRrWorkingSet(base_hash).empty());

  // A straggler pinned to the base graph reads one of its eras.
  const RrProvenance& straggler = own.front();
  ASSERT_TRUE(store
                  .LoadRrEra(RrRecipeHash(base_hash, straggler.source_id,
                                          straggler.sample_seed,
                                          straggler.era_start),
                             straggler, base.num_nodes())
                  .has_value());

  // The next hop carries the patched eras forward, and only those.
  ApplyDeltaResult second;
  ASSERT_TRUE(engine
                  .ApplyDelta(GenerateChurnDelta(engine.graph(), 38, 12),
                              &second)
                  .ok());
  EXPECT_EQ(second.rr.eras_scanned, own.size());
  EXPECT_EQ(second.rr.eras_patched, own.size());
  const std::vector<RrProvenance> left = store.TakeRrWorkingSet(base_hash);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left.front(), straggler);
  EXPECT_TRUE(store.TakeRrWorkingSet(base_hash).empty());
  ExpectServedFromCacheAndEqualCold(engine, config, kChurnAlgos);
}

TEST(EngineDeltaTest, PoolsArePatchedAcrossDelta) {
  const Graph base = TestGraph();
  const UtilityConfig config = MakeConfigC1();
  Engine engine(base, config);
  AllocateResult result;
  // Warm the keyed pool store on the pre-delta graph.
  ASSERT_TRUE(
      engine.Allocate(TinyRequest(AlgoKind::kSeqGrdNm, 1), &result).ok());
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const Counter& builds = metrics.GetCounter("pool.builds");
  const Counter& patches = metrics.GetCounter("pool.patches");
  const uint64_t built_before = builds.value();
  const uint64_t patched_before = patches.value();
  ASSERT_TRUE(engine.ApplyDelta(GenerateChurnDelta(base, 29, 10)).ok());
  ASSERT_TRUE(
      engine.Allocate(TinyRequest(AlgoKind::kSeqGrdNm, 1), &result).ok());
  EXPECT_GT(builds.value(), built_before);
  EXPECT_GE(patches.value() - patched_before, 1u);
}

// Without a cache and with one: cached, the allocations record the RR
// working set while the deltas take it.
TEST(EngineDeltaTest, ApplyDeltaIsAtomicUnderConcurrentAllocates) {
  const Graph base = TestGraph();
  const UtilityConfig config = MakeConfigC1();
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(UniqueTempPath("concurrent_rrcache"));
  ASSERT_TRUE(cache.ok());
  for (ArtifactCache* store : {static_cast<ArtifactCache*>(nullptr),
                               cache.value().get()}) {
    SCOPED_TRACE(store == nullptr ? "uncached" : "cached");
    Engine engine(base, config, {.cache = store});

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
}

}  // namespace
}  // namespace cwm
