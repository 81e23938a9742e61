// Artifact-store tests: binary round-trips (bit-identical), corruption
// rejection, the content-addressed cache, and the cache's end-to-end
// determinism guarantee (hit vs. miss produce identical seeds/estimates).
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <random>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "exp/networks.h"
#include "graph/edge_prob.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/loader.h"
#include "obs/metrics.h"
#include "rrset/imm.h"
#include "rrset/prima_plus.h"
#include "rrset/rr_sampler.h"
#include "scenario/registry.h"
#include "scenario/sink.h"
#include "scenario/sweep.h"
#include "store/artifact_cache.h"
#include "store/format.h"
#include "store/graph_store.h"
#include "store/mapped_file.h"
#include "store/rr_store.h"
#include "support/failpoint.h"

namespace cwm {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique across concurrent test processes (e.g. build/ and
    // build-asan/ ctest sharing one /tmp) and across fixtures within a
    // process — a heap address alone is neither, and random_device
    // avoids a POSIX-only getpid dependency.
    static const uint64_t process_token = std::random_device{}();
    static std::atomic<uint64_t> counter{0};
    dir_ = fs::path(::testing::TempDir()) /
           ("cwm_store_" + std::to_string(process_token) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(dir_);
    // Cache events are counted in the process-wide registry only: zero
    // it so each test counts its own cache from zero.
    MetricsRegistry::Global().ResetForTest();
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

uint64_t Count(const char* counter) {
  return MetricsRegistry::Global().CounterValue(counter);
}

void ExpectGraphsBitIdentical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.RawOutOffsets().size(), b.RawOutOffsets().size());
  for (std::size_t i = 0; i < a.RawOutOffsets().size(); ++i) {
    ASSERT_EQ(a.RawOutOffsets()[i], b.RawOutOffsets()[i]) << i;
    ASSERT_EQ(a.RawInOffsets()[i], b.RawInOffsets()[i]) << i;
  }
  for (std::size_t i = 0; i < a.num_edges(); ++i) {
    ASSERT_EQ(a.RawOutEdges()[i].to, b.RawOutEdges()[i].to) << i;
    // Bit-level float compare: the store must not perturb probabilities.
    ASSERT_EQ(std::bit_cast<uint32_t>(a.RawOutEdges()[i].prob),
              std::bit_cast<uint32_t>(b.RawOutEdges()[i].prob))
        << i;
    ASSERT_EQ(a.RawInEdges()[i].from, b.RawInEdges()[i].from) << i;
    ASSERT_EQ(a.RawInEdges()[i].id, b.RawInEdges()[i].id) << i;
  }
  ASSERT_EQ(GraphContentHash(a), GraphContentHash(b));
}

TEST_F(StoreTest, GraphRoundTripIsBitIdentical) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(500, 3, 7));
  const std::string path = Path("g.cwg");
  ASSERT_TRUE(WriteGraphFile(g, path, /*recipe_hash=*/42).ok());

  StatusOr<Graph> opened = OpenGraphFile(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened.value().is_external());
  EXPECT_FALSE(g.is_external());
  ExpectGraphsBitIdentical(g, opened.value());

  StatusOr<GraphFileHeader> header = ReadGraphHeader(path);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().recipe_hash, 42u);
  EXPECT_EQ(header.value().num_nodes, g.num_nodes());
  EXPECT_TRUE(VerifyGraphFile(path).ok());
}

TEST_F(StoreTest, GraphRoundTripSparseLoaderIdsAndIsolatedNodes) {
  // Sparse source ids (densified by the loader) and a node universe with
  // isolated nodes (GraphBuilder with unused slots).
  const std::string edges = Path("edges.txt");
  {
    std::ofstream out(edges);
    out << "# sparse ids\n1000000 5 0.5\n5 70000 0.25\n";
  }
  LoadOptions options;
  options.default_prob = 0.1;
  StatusOr<Graph> loaded = ReadEdgeList(edges, options);
  ASSERT_TRUE(loaded.ok());

  const std::string path = Path("sparse.cwg");
  ASSERT_TRUE(WriteGraphFile(loaded.value(), path).ok());
  StatusOr<Graph> opened = OpenGraphFile(path);
  ASSERT_TRUE(opened.ok());
  ExpectGraphsBitIdentical(loaded.value(), opened.value());

  GraphBuilder builder(10);  // nodes 3..9 isolated
  builder.AddEdge(0, 1, 0.5);
  builder.AddEdge(2, 1, 0.125);
  const Graph sparse = std::move(builder).Build();
  const std::string path2 = Path("isolated.cwg");
  ASSERT_TRUE(WriteGraphFile(sparse, path2).ok());
  StatusOr<Graph> opened2 = OpenGraphFile(path2);
  ASSERT_TRUE(opened2.ok());
  ExpectGraphsBitIdentical(sparse, opened2.value());
  EXPECT_EQ(opened2.value().OutDegree(9), 0u);
}

TEST_F(StoreTest, EmptyGraphRoundTrips) {
  const std::string path = Path("empty.cwg");
  ASSERT_TRUE(WriteGraphFile(Graph{}, path).ok());
  StatusOr<Graph> opened = OpenGraphFile(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().num_nodes(), 0u);
  EXPECT_EQ(opened.value().num_edges(), 0u);
  EXPECT_TRUE(VerifyGraphFile(path).ok());
}

TEST_F(StoreTest, MappedGraphSurvivesCopyAndMove) {
  const Graph g = WithConstantProb(BarabasiAlbert(200, 2, 9), 0.25);
  const std::string path = Path("copy.cwg");
  ASSERT_TRUE(WriteGraphFile(g, path).ok());
  StatusOr<Graph> opened = OpenGraphFile(path);
  ASSERT_TRUE(opened.ok());

  Graph copy = opened.value();           // shares the mapping
  const Graph moved = std::move(opened).value();
  ExpectGraphsBitIdentical(g, copy);
  ExpectGraphsBitIdentical(g, moved);

  Graph owned_copy = g;  // owning copy re-points spans at its own storage
  ExpectGraphsBitIdentical(g, owned_copy);
}

TEST_F(StoreTest, GraphOpenRejectsCorruption) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(100, 2, 3));
  const std::string path = Path("corrupt.cwg");
  ASSERT_TRUE(WriteGraphFile(g, path).ok());

  // Truncation.
  {
    StatusOr<MappedFile> mapped = MappedFile::Open(path);
    ASSERT_TRUE(mapped.ok());
    std::ofstream out(Path("trunc.cwg"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(mapped.value().data()),
              static_cast<std::streamsize>(mapped.value().size() / 2));
  }
  EXPECT_FALSE(OpenGraphFile(Path("trunc.cwg")).ok());

  // Bad magic.
  {
    std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(0);
    io.put('X');
  }
  StatusOr<Graph> bad_magic = OpenGraphFile(path);
  ASSERT_FALSE(bad_magic.ok());
  EXPECT_EQ(bad_magic.status().code(), Status::Code::kCorruption);

  // Bad version (restore magic, bump version halfword at offset 4).
  ASSERT_TRUE(WriteGraphFile(g, path).ok());
  {
    std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(4);
    io.put(static_cast<char>(kFormatVersion + 1));
  }
  EXPECT_FALSE(OpenGraphFile(path).ok());

  // Payload bit flip: structural open succeeds, Verify catches it.
  ASSERT_TRUE(WriteGraphFile(g, path).ok());
  {
    std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(static_cast<std::streamoff>(sizeof(GraphFileHeader)) +
             static_cast<std::streamoff>(
                 (g.num_nodes() + 2) * sizeof(uint64_t)) +
             5);
    io.put('\x7f');
  }
  EXPECT_TRUE(OpenGraphFile(path).ok());
  const Status verify = VerifyGraphFile(path);
  ASSERT_FALSE(verify.ok());
  EXPECT_EQ(verify.code(), Status::Code::kCorruption);

  // An empty file is rejected, not crashed on.
  { std::ofstream out(Path("empty_file.cwg")); }
  EXPECT_FALSE(OpenGraphFile(Path("empty_file.cwg")).ok());
}

TEST_F(StoreTest, GraphOpenRejectsOverflowingHeaderCounts) {
  // num_nodes = 2^61 - 1 makes (num_nodes + 1) * 8 wrap to zero; a naive
  // size check would accept the 64-byte file and then walk a 2^61-entry
  // offsets span over a one-page mapping.
  GraphFileHeader header;
  header.num_nodes = (1ull << 61) - 1;
  header.num_edges = 0;
  header.payload_bytes = 0;
  const std::string path = Path("overflow.cwg");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  }
  StatusOr<Graph> opened = OpenGraphFile(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), Status::Code::kCorruption);
}

TEST_F(StoreTest, VerifyCatchesOutOfRangeEdgeEndpoints) {
  // Structure and checksum intact, but an endpoint outside the node
  // universe: only the deep verify pass reads the edge sections.
  GraphBuilder builder(4);
  builder.AddEdge(0, 1, 0.5);
  builder.AddEdge(2, 3, 0.5);
  Graph g = std::move(builder).Build();
  const_cast<OutEdge&>(g.RawOutEdges()[1]).to = 0x7FFFFFFF;
  const std::string path = Path("bad_endpoint.cwg");
  ASSERT_TRUE(WriteGraphFile(g, path).ok());
  EXPECT_TRUE(OpenGraphFile(path).ok());  // structural open cannot see it
  const Status verify = VerifyGraphFile(path);
  ASSERT_FALSE(verify.ok());
  EXPECT_EQ(verify.code(), Status::Code::kCorruption);
}

RrCollection SampleCollection(const Graph& g, std::size_t count,
                              bool with_empty) {
  RrCollection rr(g.num_nodes());
  RrSampler sampler(g);
  Rng rng(13);
  std::vector<NodeId> members;
  for (std::size_t i = 0; i < count; ++i) {
    sampler.SampleStandard(rng, &members);
    if (with_empty && i % 5 == 0) members.clear();  // empty RR sets count
    rr.Add(members, with_empty && i % 3 == 0 ? 0.5 : 1.0);
  }
  return rr;
}

TEST_F(StoreTest, RrRoundTripIsBitIdenticalIncludingEmptySets) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(300, 2, 11));
  const RrCollection rr = SampleCollection(g, 200, /*with_empty=*/true);
  const RrProvenance provenance{.graph_hash = GraphContentHash(g),
                                .sample_seed = 99,
                                .source_id = kStandardRrSourceId,
                                .era_start = 7};
  const std::string path = Path("rr.cwr");
  ASSERT_TRUE(WriteRrFile(rr, provenance, path).ok());

  StatusOr<RrEraData> opened = OpenRrFile(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const RrEraData& data = opened.value();
  EXPECT_EQ(data.provenance, provenance);
  ASSERT_EQ(data.num_sets(), rr.size());
  ASSERT_EQ(data.members.size(), rr.TotalMembers());
  for (std::size_t k = 0; k < rr.size(); ++k) {
    ASSERT_EQ(data.offsets[k + 1] - data.offsets[k],
              rr.Members(static_cast<uint32_t>(k)).size());
    ASSERT_EQ(std::bit_cast<uint64_t>(data.weights[k]),
              std::bit_cast<uint64_t>(rr.Weight(static_cast<uint32_t>(k))));
  }
  for (std::size_t i = 0; i < data.members.size(); ++i) {
    ASSERT_EQ(data.members[i], rr.RawMembers()[i]);
  }
  EXPECT_TRUE(VerifyRrFile(path).ok());

  // Provenance mismatch is NotFound (cache treats it as a miss).
  RrProvenance wrong = provenance;
  wrong.sample_seed = 100;
  StatusOr<RrEraData> mismatch = OpenRrFile(path, &wrong, g.num_nodes());
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), Status::Code::kNotFound);
}

TEST_F(StoreTest, RrOpenRejectsCorruption) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(100, 2, 5));
  const RrCollection rr = SampleCollection(g, 50, true);
  const std::string path = Path("rr_corrupt.cwr");
  ASSERT_TRUE(WriteRrFile(rr, {}, path).ok());

  {
    std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(0);
    io.put('X');
  }
  EXPECT_FALSE(OpenRrFile(path).ok());

  ASSERT_TRUE(WriteRrFile(rr, {}, path).ok());
  {
    StatusOr<MappedFile> mapped = MappedFile::Open(path);
    ASSERT_TRUE(mapped.ok());
    std::ofstream out(Path("rr_trunc.cwr"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(mapped.value().data()),
              static_cast<std::streamsize>(mapped.value().size() - 8));
  }
  EXPECT_FALSE(OpenRrFile(Path("rr_trunc.cwr")).ok());

  // A corrupted weight must fail the *open* (the cache then treats the
  // entry as a miss) — not abort later inside RrCollection::Add.
  ASSERT_TRUE(WriteRrFile(rr, {}, path).ok());
  {
    const double bad = 7.5;
    std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(static_cast<std::streamoff>(sizeof(RrFileHeader) +
                                         (rr.size() + 1) * sizeof(uint64_t)));
    io.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }
  StatusOr<RrEraData> bad_weight = OpenRrFile(path);
  ASSERT_FALSE(bad_weight.ok());
  EXPECT_EQ(bad_weight.status().code(), Status::Code::kCorruption);
}

TEST_F(StoreTest, CacheGetOrBuildGraphHitsAreBitIdentical) {
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(Path("cache"));
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();

  int builds = 0;
  const auto build = [&]() -> StatusOr<Graph> {
    ++builds;
    return WithWeightedCascade(BarabasiAlbert(400, 3, 17));
  };
  StatusOr<Graph> cold = cache.value()->GetOrBuildGraph("recipe-a", build);
  ASSERT_TRUE(cold.ok());
  StatusOr<Graph> warm = cache.value()->GetOrBuildGraph("recipe-a", build);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(builds, 1);
  EXPECT_TRUE(warm.value().is_external());
  ExpectGraphsBitIdentical(cold.value(), warm.value());

  // A different recipe builds afresh, even though the first is cached.
  StatusOr<Graph> other = cache.value()->GetOrBuildGraph("recipe-b", build);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(builds, 2);

  EXPECT_EQ(Count("cache.graph_hits"), 1u);
  EXPECT_EQ(Count("cache.graph_misses"), 2u);
  EXPECT_GT(Count("cache.bytes_written"), 0u);
  EXPECT_EQ(cache.value()->List().size(), 2u);
}

TEST_F(StoreTest, CacheGcEvictsDownToBudget) {
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(Path("cache_gc"));
  ASSERT_TRUE(cache.ok());
  for (int i = 0; i < 4; ++i) {
    const auto build = [&]() -> StatusOr<Graph> {
      return WithConstantProb(BarabasiAlbert(100 + 10 * i, 2, i), 0.1);
    };
    ASSERT_TRUE(
        cache.value()
            ->GetOrBuildGraph("gc-recipe-" + std::to_string(i), build)
            .ok());
  }
  ASSERT_EQ(cache.value()->List().size(), 4u);

  // A stale temp file from a killed writer: invisible to List(), but Gc
  // must reclaim it once it is old enough.
  const fs::path stale =
      fs::path(cache.value()->root()) / "graphs" / "dead.cwg.tmp.1.0";
  { std::ofstream out(stale); }
  fs::last_write_time(stale,
                      fs::file_time_type::clock::now() -
                          std::chrono::hours(2));

  const GcResult result = cache.value()->Gc(/*max_bytes=*/1);
  EXPECT_EQ(result.files_removed, 5u);  // 4 entries + the stale temp
  EXPECT_EQ(cache.value()->List().size(), 0u);
  EXPECT_FALSE(fs::exists(stale));

  const GcResult noop = cache.value()->Gc(/*max_bytes=*/1 << 30);
  EXPECT_EQ(noop.files_removed, 0u);
}

TEST_F(StoreTest, CachedEdgeListLoadIsContentKeyed) {
  const std::string edges = Path("snap.txt");
  {
    std::ofstream out(edges);
    out << "0 1 0.5\n1 2 0.25\n2 0 0.125\n";
  }
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(Path("cache_el"));
  ASSERT_TRUE(cache.ok());

  const LoadOptions options;
  StatusOr<Graph> cold =
      ReadEdgeListCached(edges, options, cache.value().get());
  ASSERT_TRUE(cold.ok());
  StatusOr<Graph> warm =
      ReadEdgeListCached(edges, options, cache.value().get());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().is_external());
  ExpectGraphsBitIdentical(cold.value(), warm.value());
  EXPECT_EQ(Count("cache.graph_hits"), 1u);

  // Editing the file changes the content hash: no stale hit.
  {
    std::ofstream out(edges);
    out << "0 1 0.5\n1 2 0.25\n2 0 0.125\n0 2 1.0\n";
  }
  StatusOr<Graph> edited =
      ReadEdgeListCached(edges, options, cache.value().get());
  ASSERT_TRUE(edited.ok());
  EXPECT_EQ(edited.value().num_edges(), 4u);
  EXPECT_EQ(Count("cache.graph_misses"), 2u);
}

TEST_F(StoreTest, GraphHeaderPersistsContentHash) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(300, 3, 29));
  const uint64_t expected = GraphContentHash(g);
  const std::string path = Path("hashed.cwg");
  ASSERT_TRUE(WriteGraphFile(g, path, /*recipe_hash=*/1).ok());

  // Header carries the hash; the open reports it without needing the
  // edge payload.
  StatusOr<GraphFileHeader> header = ReadGraphHeader(path);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().content_hash, expected);
  uint64_t from_open = 0;
  StatusOr<Graph> opened = OpenGraphFile(path, &from_open);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(from_open, expected);
  EXPECT_TRUE(VerifyGraphFile(path).ok());

  // Verify must catch a header whose stored hash lies about the payload.
  {
    const uint64_t bogus = expected ^ 0xBADull;
    std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(offsetof(GraphFileHeader, content_hash));
    io.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  EXPECT_FALSE(VerifyGraphFile(path).ok());
}

TEST_F(StoreTest, CacheReturnsContentHashOnMissHitAndLegacyFiles) {
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(Path("cache_hash"));
  ASSERT_TRUE(cache.ok());
  const auto build = [&]() -> StatusOr<Graph> {
    return WithWeightedCascade(BarabasiAlbert(250, 3, 31));
  };

  uint64_t miss_hash = 0;
  StatusOr<Graph> cold =
      cache.value()->GetOrBuildGraph("hash-recipe", build, &miss_hash);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(miss_hash, GraphContentHash(cold.value()));

  uint64_t hit_hash = 0;
  StatusOr<Graph> warm =
      cache.value()->GetOrBuildGraph("hash-recipe", build, &hit_hash);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(hit_hash, miss_hash);

  // A pre-content-hash entry (header field zeroed, as an older build
  // would have written) must fall back to computing the hash on hit.
  const std::string entry = cache.value()->GraphPathFor("hash-recipe");
  {
    const uint64_t zero = 0;
    std::fstream io(entry, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(offsetof(GraphFileHeader, content_hash));
    io.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
  }
  uint64_t legacy_hash = 0;
  StatusOr<Graph> legacy =
      cache.value()->GetOrBuildGraph("hash-recipe", build, &legacy_hash);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(Count("cache.graph_hits"), 2u);  // still a hit
  EXPECT_EQ(legacy_hash, miss_hash);
}

TEST_F(StoreTest, EdgeListSidecarMemoizesTheContentHash) {
  const std::string edges = Path("side.txt");
  {
    std::ofstream out(edges);
    out << "0 1 0.5\n1 2 0.25\n";
  }
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(Path("cache_side"));
  ASSERT_TRUE(cache.ok());
  const LoadOptions options;

  ASSERT_TRUE(ReadEdgeListCached(edges, options, cache.value().get()).ok());
  // The cold load wrote a (size, mtime) -> hash sidecar under the root.
  const fs::path side_dir = fs::path(cache.value()->root()) / "edge-hashes";
  ASSERT_TRUE(fs::exists(side_dir));
  fs::path sidecar;
  for (const auto& entry : fs::directory_iterator(side_dir)) {
    sidecar = entry.path();
  }
  ASSERT_FALSE(sidecar.empty());

  // A warm load with an intact sidecar skips the hashing read, hits, and
  // serves the graph's content hash straight from the .cwg header.
  uint64_t served_hash = 0;
  StatusOr<Graph> warm =
      ReadEdgeListCached(edges, options, cache.value().get(), &served_hash);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(Count("cache.graph_hits"), 1u);
  EXPECT_EQ(served_hash, GraphContentHash(warm.value()));

  // A forged sidecar (size/mtime identity intact, hash wrong) must
  // self-heal: the keyed parse disproves the memoized hash, the sidecar
  // is refreshed with the true value, and the retry serves the original
  // cache entry — a hit, never a stale graph and never a hard error.
  std::string first_line, source_line;
  {
    std::ifstream in(sidecar);
    std::getline(in, first_line);
    std::getline(in, source_line);
  }
  unsigned long long size = 0, hash = 0;
  long long mtime = 0;
  ASSERT_EQ(std::sscanf(first_line.c_str(), "v1 size=%llu mtime=%lld "
                        "hash=%llx", &size, &mtime, &hash), 3);
  {
    std::ofstream out(sidecar);
    char line[256];
    std::snprintf(line, sizeof(line), "v1 size=%llu mtime=%lld "
                  "hash=%016llx\n", size, mtime,
                  static_cast<unsigned long long>(hash ^ 0xD15EA5Eull));
    out << line << source_line << "\n";
  }
  ASSERT_TRUE(ReadEdgeListCached(edges, options, cache.value().get()).ok());
  EXPECT_EQ(Count("cache.graph_hits"), 2u);
  {
    std::ifstream in(sidecar);
    std::string healed;
    std::getline(in, healed);
    EXPECT_EQ(healed, first_line);  // true hash restored
  }

  // Dropping the sidecar forces a re-hash, recovers the same key (a
  // hit), and rewrites the sidecar.
  fs::remove(sidecar);
  ASSERT_TRUE(ReadEdgeListCached(edges, options, cache.value().get()).ok());
  EXPECT_EQ(Count("cache.graph_hits"), 3u);
  EXPECT_TRUE(fs::exists(sidecar));

  // A mismatched identity (size changed) ignores the sidecar: the edit
  // below is re-hashed and keyed afresh, never served stale.
  {
    std::ofstream out(edges);
    out << "0 1 0.5\n1 2 0.25\n2 0 1.0\n";
  }
  StatusOr<Graph> edited =
      ReadEdgeListCached(edges, options, cache.value().get());
  ASSERT_TRUE(edited.ok());
  EXPECT_EQ(edited.value().num_edges(), 3u);

  // Gc reclaims a sidecar once its dataset is gone (and only then):
  // with the file present the entry survives, deleted it is swept with
  // the other stale-file classes.
  fs::last_write_time(sidecar, fs::file_time_type::clock::now() -
                                   std::chrono::hours(2));
  (void)cache.value()->Gc(/*max_bytes=*/1 << 30);
  EXPECT_TRUE(fs::exists(sidecar));
  fs::remove(edges);
  const GcResult swept = cache.value()->Gc(/*max_bytes=*/1 << 30);
  EXPECT_FALSE(fs::exists(sidecar));
  EXPECT_GE(swept.files_removed, 1u);
}

TEST_F(StoreTest, RrEraDataAliasesTheMappingZeroCopy) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(200, 2, 13));
  const RrCollection rr = SampleCollection(g, 80, /*with_empty=*/true);
  const std::string path = Path("era.cwr");
  ASSERT_TRUE(WriteRrFile(rr, {}, path).ok());

  StatusOr<RrEraData> opened = OpenRrFile(path);
  ASSERT_TRUE(opened.ok());
  RrEraData data = std::move(opened).value();
  ASSERT_NE(data.mapping, nullptr);
  // The spans alias the mapping's bytes — no intermediate copies.
  const std::byte* begin = data.mapping->data();
  const std::byte* end = begin + data.mapping->size();
  const auto within = [&](const void* p) {
    return reinterpret_cast<const std::byte*>(p) >= begin &&
           reinterpret_cast<const std::byte*>(p) < end;
  };
  EXPECT_TRUE(within(data.offsets.data()));
  EXPECT_TRUE(within(data.weights.data()));
  if (!data.members.empty()) EXPECT_TRUE(within(data.members.data()));
  // And the views stay valid for the struct's lifetime (the mapping is
  // pinned): replay the members after moving the struct around.
  ASSERT_EQ(data.members.size(), rr.TotalMembers());
  for (std::size_t i = 0; i < data.members.size(); ++i) {
    ASSERT_EQ(data.members[i], rr.RawMembers()[i]);
  }
}

// The headline guarantee: an IMM run against a warm cache returns
// bit-identical seeds and estimates to a cold run and to an uncached run,
// at any thread count.
TEST_F(StoreTest, CachedImmMatchesUncachedBitForBit) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(600, 3, 23));
  const uint64_t graph_hash = GraphContentHash(g);

  ImmParams params;
  params.seed = 0xABCDE;
  params.num_threads = 1;
  const ImmResult uncached = Imm(g, 10, params);

  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(Path("cache_imm"));
  ASSERT_TRUE(cache.ok());
  params.cache = cache.value().get();
  params.graph_hash = graph_hash;
  const ImmResult cold = Imm(g, 10, params);
  EXPECT_GT(Count("cache.rr_misses"), 0u);

  params.num_threads = 4;  // warm run on a different thread count
  const ImmResult warm = Imm(g, 10, params);
  EXPECT_GT(Count("cache.rr_hits"), 0u);

  for (const ImmResult* other : {&cold, &warm}) {
    ASSERT_EQ(uncached.seeds, other->seeds);
    ASSERT_EQ(std::bit_cast<uint64_t>(uncached.coverage_estimate),
              std::bit_cast<uint64_t>(other->coverage_estimate));
    ASSERT_EQ(uncached.rr_count, other->rr_count);
  }
}

TEST_F(StoreTest, CachedPrimaPlusMatchesUncached) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(500, 3, 29));
  const std::vector<NodeId> prior = {3, 7, 11};

  ImmParams params;
  params.seed = 0x5151;
  const ImmResult uncached = PrimaPlus(g, prior, {5}, 5, params);

  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(Path("cache_prima"));
  ASSERT_TRUE(cache.ok());
  params.cache = cache.value().get();
  params.graph_hash = GraphContentHash(g);
  const ImmResult cold = PrimaPlus(g, prior, {5}, 5, params);
  const ImmResult warm = PrimaPlus(g, prior, {5}, 5, params);
  EXPECT_GT(Count("cache.rr_hits"), 0u);

  for (const ImmResult* other : {&cold, &warm}) {
    ASSERT_EQ(uncached.seeds, other->seeds);
    ASSERT_EQ(uncached.prefix_estimates, other->prefix_estimates);
  }

  // A different blocked set is a different source id: no false hits.
  const ImmResult different = PrimaPlus(g, {3, 7, 12}, {5}, 5, params);
  (void)different;
  EXPECT_GT(Count("cache.rr_misses"), 0u);
}

// Each RR era is written once, when the IMM driver is done with it: after a
// cold Imm and a cold PrimaPlus run the cache has written exactly the
// bytes of the .cwr files it holds, so no era was written twice. A warm
// rerun hits every era, writes nothing and returns bit-identical results.
TEST_F(StoreTest, ColdRunsWriteEachRrEraExactlyOnce) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(600, 3, 23));
  StatusOr<std::unique_ptr<ArtifactCache>> opened =
      ArtifactCache::Open(Path("cache_once"));
  ASSERT_TRUE(opened.ok());
  ArtifactCache& cache = *opened.value();
  ImmParams params;
  params.seed = 0xE7A;
  params.cache = &cache;
  params.graph_hash = GraphContentHash(g);
  const std::vector<NodeId> prior = {3, 7, 11};

  const ImmResult imm_cold = Imm(g, 10, params);
  const ImmResult prima_cold = PrimaPlus(g, prior, {3, 5}, 5, params);
  const uint64_t cold_rr_hits = Count("cache.rr_hits");
  const uint64_t cold_rr_misses = Count("cache.rr_misses");
  const uint64_t cold_bytes_written = Count("cache.bytes_written");
  uint64_t cwr_bytes = 0;
  std::size_t cwr_files = 0;
  for (const fs::directory_entry& file :
       fs::directory_iterator(dir_ / "cache_once" / "rr")) {
    if (file.path().extension() != ".cwr") continue;
    cwr_bytes += file.file_size();
    ++cwr_files;
  }
  EXPECT_EQ(cwr_files, 4u);  // a search era and a final era per run
  EXPECT_EQ(cold_rr_misses, cwr_files);
  EXPECT_GT(cwr_bytes, 0u);
  EXPECT_EQ(cold_bytes_written, cwr_bytes);

  const ImmResult imm_warm = Imm(g, 10, params);
  const ImmResult prima_warm = PrimaPlus(g, prior, {3, 5}, 5, params);
  EXPECT_EQ(Count("cache.rr_hits") - cold_rr_hits, cwr_files);
  EXPECT_EQ(Count("cache.rr_misses"), cold_rr_misses);
  EXPECT_EQ(Count("cache.bytes_written"), cold_bytes_written);
  for (const auto& [a, b] : {std::pair(&imm_cold, &imm_warm),
                             std::pair(&prima_cold, &prima_warm)}) {
    EXPECT_EQ(a->seeds, b->seeds);
    EXPECT_EQ(a->rr_count, b->rr_count);
    EXPECT_EQ(std::bit_cast<uint64_t>(a->coverage_estimate),
              std::bit_cast<uint64_t>(b->coverage_estimate));
    EXPECT_EQ(a->prefix_estimates, b->prefix_estimates);
  }
}

// End-to-end: a registry scenario swept against a warm cache emits
// byte-identical JSONL/CSV artifacts (timing excluded by default).
TEST_F(StoreTest, SweepColdVsWarmCacheArtifactsAreByteIdentical) {
  const ScenarioSpec spec =
      GlobalScenarioRegistry().Find("smoke-tiny").value();

  SweepOptions uncached_options;
  uncached_options.num_threads = 2;
  const StatusOr<SweepResult> uncached = RunSweep(spec, uncached_options);
  ASSERT_TRUE(uncached.ok());

  SweepOptions cache_options = uncached_options;
  cache_options.cache_dir = Path("cache_sweep");
  const uint64_t graph_misses_before = Count("cache.graph_misses");
  const StatusOr<SweepResult> cold = RunSweep(spec, cache_options);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(cold.value().cache_enabled);
  EXPECT_GT(Count("cache.graph_misses"), graph_misses_before);

  const uint64_t graph_hits_before = Count("cache.graph_hits");
  const uint64_t rr_hits_before = Count("cache.rr_hits");
  const StatusOr<SweepResult> warm = RunSweep(spec, cache_options);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(Count("cache.graph_hits"), graph_hits_before);
  EXPECT_GT(Count("cache.rr_hits"), rr_hits_before);

  std::ostringstream js_uncached, js_cold, js_warm, csv_cold, csv_warm;
  WriteJsonLines(uncached.value(), js_uncached);
  WriteJsonLines(cold.value(), js_cold);
  WriteJsonLines(warm.value(), js_warm);
  WriteCsv(cold.value(), csv_cold);
  WriteCsv(warm.value(), csv_warm);
  EXPECT_EQ(js_cold.str(), js_warm.str());
  EXPECT_EQ(csv_cold.str(), csv_warm.str());
  EXPECT_EQ(js_uncached.str(), js_cold.str());  // caching changes nothing
}

TEST_F(StoreTest, WriteFileAtomicReplacesAndNeverTears) {
  const std::string path = Path("atomic/nested/file.bin");
  const std::string first(1000, 'a');
  const ByteSection a{first.data(), first.size()};
  ASSERT_TRUE(WriteFileAtomic(path, {&a, 1}).ok());
  const std::string second(10, 'b');
  const ByteSection b{second.data(), second.size()};
  ASSERT_TRUE(WriteFileAtomic(path, {&b, 1}).ok());
  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value().size(), second.size());
  // No temp litter.
  std::size_t files = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(path).parent_path())) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

// Torn-write robustness: a .cwg cut at every 1/8 of its length — plus a
// cut inside the header itself — must come back as a clean Status from
// Open and Verify, never a crash. These are the byte patterns a torn
// rename or a power cut mid-write leaves behind.
TEST_F(StoreTest, TruncatedGraphFileFailsCleanly) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(300, 3, 13));
  const std::string path = Path("whole.cwg");
  ASSERT_TRUE(WriteGraphFile(g, path).ok());
  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  const std::size_t size = mapped.value().size();

  std::vector<std::size_t> cuts = {sizeof(GraphFileHeader) / 2};
  for (std::size_t i = 1; i < 8; ++i) cuts.push_back(size * i / 8);
  for (const std::size_t keep : cuts) {
    SCOPED_TRACE("truncated to " + std::to_string(keep) + " of " +
                 std::to_string(size) + " bytes");
    const std::string cut = Path("cut.cwg");
    std::ofstream(cut, std::ios::binary)
        .write(reinterpret_cast<const char*>(mapped.value().data()),
               static_cast<std::streamsize>(keep));
    EXPECT_FALSE(OpenGraphFile(cut).ok());
    EXPECT_FALSE(VerifyGraphFile(cut).ok());
  }
}

TEST_F(StoreTest, TruncatedRrFileFailsCleanly) {
  const Graph g = WithWeightedCascade(BarabasiAlbert(200, 2, 19));
  const RrCollection rr = SampleCollection(g, 150, /*with_empty=*/true);
  const std::string path = Path("whole.cwr");
  ASSERT_TRUE(WriteRrFile(rr, {}, path).ok());
  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  const std::size_t size = mapped.value().size();

  std::vector<std::size_t> cuts = {sizeof(RrFileHeader) / 2};
  for (std::size_t i = 1; i < 8; ++i) cuts.push_back(size * i / 8);
  for (const std::size_t keep : cuts) {
    SCOPED_TRACE("truncated to " + std::to_string(keep) + " of " +
                 std::to_string(size) + " bytes");
    const std::string cut = Path("cut.cwr");
    std::ofstream(cut, std::ios::binary)
        .write(reinterpret_cast<const char*>(mapped.value().data()),
               static_cast<std::streamsize>(keep));
    EXPECT_FALSE(OpenRrFile(cut).ok());
    EXPECT_FALSE(VerifyRrFile(cut).ok());
  }
}

// Self-healing: a corrupt cached graph is quarantined (entry + recipe
// sidecar moved into <cache>/quarantine/) and transparently rebuilt
// bit-identically; the rebuilt entry serves hits again afterwards.
TEST_F(StoreTest, CacheQuarantinesCorruptEntryAndRebuilds) {
  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(Path("cache_heal"));
  ASSERT_TRUE(cache.ok());

  int builds = 0;
  const auto build = [&]() -> StatusOr<Graph> {
    ++builds;
    return WithWeightedCascade(BarabasiAlbert(400, 3, 17));
  };
  StatusOr<Graph> cold = cache.value()->GetOrBuildGraph("heal-recipe", build);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(builds, 1);

  const std::string path = cache.value()->GraphPathFor("heal-recipe");
  {
    std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(0);
    io.put('X');  // smash the magic: the next open must fail
  }

  StatusOr<Graph> healed =
      cache.value()->GetOrBuildGraph("heal-recipe", build);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(builds, 2);
  ExpectGraphsBitIdentical(cold.value(), healed.value());
  EXPECT_EQ(Count("cache.quarantined"), 1u);

  // The broken bytes (and their sidecar) moved aside, not vanished.
  std::size_t cwg = 0, recipe = 0;
  for (const auto& entry :
       fs::directory_iterator(cache.value()->QuarantineDir())) {
    cwg += entry.path().extension() == ".cwg";
    recipe += entry.path().extension() == ".recipe";
  }
  EXPECT_EQ(cwg, 1u);
  EXPECT_EQ(recipe, 1u);

  // The rebuild rewrote a valid entry: the third call is a plain hit.
  StatusOr<Graph> warm = cache.value()->GetOrBuildGraph("heal-recipe", build);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(Count("cache.graph_hits"), 1u);
}

// Degraded-mode write contract: the first failed store flips the cache
// read-only for the process and every later allocation continues
// uncached — a full or read-only cache disk must never fail a build.
TEST_F(StoreTest, CacheWriteFailureFlipsReadOnlyAndContinues) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  ASSERT_TRUE(failpoints.Set("cache.graph.store", "1*error").ok());

  StatusOr<std::unique_ptr<ArtifactCache>> cache =
      ArtifactCache::Open(Path("cache_ro"));
  ASSERT_TRUE(cache.ok());
  ASSERT_TRUE(cache.value()->writes_enabled());

  int builds = 0;
  const auto build = [&]() -> StatusOr<Graph> {
    ++builds;
    return WithConstantProb(BarabasiAlbert(150, 2, 31), 0.1);
  };
  StatusOr<Graph> first = cache.value()->GetOrBuildGraph("ro-a", build);
  ASSERT_TRUE(first.ok());  // the failed store must not fail the build
  EXPECT_EQ(builds, 1);
  EXPECT_FALSE(cache.value()->writes_enabled());

  // The failpoint is exhausted, but writes stay off: later stores are
  // skipped entirely and the cache keeps serving builds uncached.
  StatusOr<Graph> second = cache.value()->GetOrBuildGraph("ro-b", build);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(builds, 2);
  EXPECT_TRUE(cache.value()->List().empty());
  failpoints.Clear("cache.graph.store");
}

TEST(StoreFormatTest, HashHelpers) {
  EXPECT_EQ(HashToHex(0), "0000000000000000");
  EXPECT_EQ(HashToHex(0xDEADBEEFull), "00000000deadbeef");
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_EQ(Fnv1a64("recipe"), Fnv1a64("recipe"));
  // Graph hash is sensitive to probability bits, not just topology.
  const Graph g1 = WithConstantProb(BarabasiAlbert(50, 2, 1), 0.1);
  const Graph g2 = WithConstantProb(BarabasiAlbert(50, 2, 1), 0.2);
  EXPECT_NE(GraphContentHash(g1), GraphContentHash(g2));
}

}  // namespace
}  // namespace cwm
