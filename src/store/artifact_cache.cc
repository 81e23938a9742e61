#include "store/artifact_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <unordered_set>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/graph_store.h"
#include "store/mapped_file.h"
#include "support/failpoint.h"
#include "support/rng.h"

namespace cwm {

namespace fs = std::filesystem;

namespace {

// The one count of cache events: `--metrics` dumps these counters and
// cwm_run prints their per-sweep differences.
Counter& GraphHitsCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("cache.graph_hits");
  return counter;
}
Counter& GraphMissesCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("cache.graph_misses");
  return counter;
}
Counter& RrHitsCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("cache.rr_hits");
  return counter;
}
Counter& RrMissesCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("cache.rr_misses");
  return counter;
}
Counter& BytesWrittenCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("cache.bytes_written");
  return counter;
}

std::optional<std::string> ReadSmallFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return std::move(os).str();
}

int64_t MtimeSeconds(const fs::path& path, std::error_code& ec) {
  const auto t = fs::last_write_time(path, ec);
  if (ec) return 0;
  return std::chrono::duration_cast<std::chrono::seconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

uint64_t RrRecipeHash(uint64_t graph_hash, uint64_t source_id,
                      uint64_t sample_seed, uint64_t era_start) {
  uint64_t h = MixHash(graph_hash, source_id);
  h = MixHash(h, sample_seed);
  h = MixHash(h, era_start);
  return MixHash(h, kFormatVersion);
}

StatusOr<std::unique_ptr<ArtifactCache>> ArtifactCache::Open(
    std::string root) {
  if (root.empty()) {
    return Status::InvalidArgument("artifact cache root is empty");
  }
  CWM_FAILPOINT("cache.open");
  std::error_code ec;
  fs::create_directories(fs::path(root) / "graphs", ec);
  if (!ec) fs::create_directories(fs::path(root) / "rr", ec);
  if (ec) {
    return Status::IOError("cannot create cache directories under " + root +
                           ": " + ec.message());
  }
  // Touch every cache.* and degraded-mode counter so a `--metrics` dump
  // always carries the full family once a cache is open — a zero is data
  // ("no degradations"), an absent name is not.
  GraphHitsCounter();
  GraphMissesCounter();
  RrHitsCounter();
  RrMissesCounter();
  BytesWrittenCounter();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("cache.quarantined");
  registry.GetCounter("store.degraded.events");
  registry.GetCounter("store.degraded.heap_loads");
  registry.GetCounter("store.degraded.graph_rebuilds");
  registry.GetCounter("store.degraded.rr_resamples");
  registry.GetCounter("store.degraded.cache_write_off");
  registry.GetCounter("store.degraded.cache_disabled");
  return std::unique_ptr<ArtifactCache>(new ArtifactCache(std::move(root)));
}

std::string ArtifactCache::GraphPathFor(const std::string& recipe) const {
  return (fs::path(root_) / "graphs" / (HashToHex(Fnv1a64(recipe)) + ".cwg"))
      .string();
}

std::string ArtifactCache::RrPathFor(uint64_t recipe_hash) const {
  return (fs::path(root_) / "rr" / (HashToHex(recipe_hash) + ".cwr"))
      .string();
}

StatusOr<Graph> ArtifactCache::GetOrBuildGraph(
    const std::string& recipe,
    const std::function<StatusOr<Graph>()>& build,
    uint64_t* content_hash) {
  const std::string path = GraphPathFor(recipe);
  const std::string recipe_path = path.substr(0, path.size() - 4) + ".recipe";

  std::error_code ec;
  if (fs::exists(path, ec)) {
    // The sidecar guards against recipe-hash collisions: a different
    // recipe under the same hash is treated as a miss and overwritten.
    const std::optional<std::string> stored = ReadSmallFile(recipe_path);
    if (stored.has_value() && *stored == recipe) {
      CWM_TRACE_SPAN("store.open_graph");
      uint64_t stored_hash = 0;
      StatusOr<Graph> opened = [&]() -> StatusOr<Graph> {
        if (Status s = CWM_FAILPOINT_STATUS("cache.graph.load"); !s.ok()) {
          return s;
        }
        return OpenGraphFile(path, &stored_hash);
      }();
      if (opened.ok()) {
        if (content_hash != nullptr) {
          // Old entries (pre-content-hash header) report 0: compute the
          // hash once here — the legacy O(edges) page-in — so callers
          // always get a usable value.
          *content_hash = stored_hash != 0
                              ? stored_hash
                              : GraphContentHash(opened.value());
        }
        GraphHitsCounter().Add(1);
        return opened;
      }
      // Corrupt entry (torn disk, bit rot): move it aside and rebuild
      // from the recipe below — the rebuild is bit-identical by the
      // content-addressing contract.
      (void)QuarantineEntry(path);
      NoteDegradedEvent("store.degraded.graph_rebuilds");
    } else if (!stored.has_value()) {
      // The entry exists but its recipe sidecar is missing or unreadable:
      // without it a hit can never be validated, so the entry is dead
      // weight — quarantine and rebuild.
      (void)QuarantineEntry(path);
      NoteDegradedEvent("store.degraded.graph_rebuilds");
    }
  }

  CWM_TRACE_SPAN("store.build_graph");
  StatusOr<Graph> built = build();
  if (!built.ok()) return built.status();
  const uint64_t recipe_hash = Fnv1a64(recipe);
  const uint64_t built_hash = GraphContentHash(built.value());
  if (content_hash != nullptr) *content_hash = built_hash;
  Status write = writes_enabled()
                     ? CWM_FAILPOINT_STATUS("cache.graph.store")
                     : Status::FailedPrecondition("cache writes disabled");
  if (write.ok()) {
    write = WriteGraphFile(built.value(), path, recipe_hash, built_hash);
  }
  if (write.ok()) {
    const ByteSection section{recipe.data(), recipe.size()};
    const Status sidecar = WriteFileAtomic(recipe_path, {&section, 1});
    if (!sidecar.ok()) DisableWrites(sidecar);
  } else if (writes_enabled()) {
    DisableWrites(write);
  }
  // A failed store is not a failed build: return the graph regardless and
  // continue uncached.
  GraphMissesCounter().Add(1);
  if (write.ok()) {
    std::error_code size_ec;
    const uint64_t bytes = fs::file_size(path, size_ec);
    if (!size_ec) BytesWrittenCounter().Add(bytes);
  }
  return built;
}

std::optional<RrEraData> ArtifactCache::LoadRrEra(uint64_t recipe_hash,
                                                  const RrProvenance& expect,
                                                  std::size_t num_nodes) {
  CWM_TRACE_SPAN("store.load_rr");
  const std::string path = RrPathFor(recipe_hash);
  std::error_code ec;
  if (fs::exists(path, ec)) {
    StatusOr<RrEraData> opened = [&]() -> StatusOr<RrEraData> {
      if (Status s = CWM_FAILPOINT_STATUS("cache.rr.load"); !s.ok()) {
        return s;
      }
      return OpenRrFile(path, &expect, num_nodes);
    }();
    if (opened.ok()) {
      RrHitsCounter().Add(1);
      NoteRrEra(recipe_hash, expect);
      return std::move(opened).value();
    }
    // NotFound = provenance mismatch (hash collision or stale key): a
    // plain miss; the entry is wrong-for-us, not broken. Anything else
    // means the file existed but could not be used — quarantine it and
    // let the pipeline resample the era (bit-identical: the sampler's
    // RNG streams never depend on the cache).
    if (opened.status().code() != Status::Code::kNotFound) {
      (void)QuarantineEntry(path);
      NoteDegradedEvent("store.degraded.rr_resamples");
    }
  }
  RrMissesCounter().Add(1);
  return std::nullopt;
}

Status ArtifactCache::StoreRrEra(uint64_t recipe_hash,
                                 const RrProvenance& provenance,
                                 const RrCollection& rr) {
  CWM_TRACE_SPAN("store.store_rr", {{"rr_sets", rr.size()}});
  const std::string path = RrPathFor(recipe_hash);
  // Eras only ever grow; never replace a larger entry with a smaller one
  // (two processes with different targets can race on the same key — the
  // bytes of any shared prefix are identical, so keeping the longer
  // collection serves both). A TOCTOU window remains, but losing it only
  // costs resampling, never correctness.
  if (StatusOr<RrFileHeader> existing = ReadRrHeader(path);
      existing.ok() && existing.value().num_sets >= rr.size() &&
      existing.value().graph_hash == provenance.graph_hash &&
      existing.value().sample_seed == provenance.sample_seed &&
      existing.value().source_id == provenance.source_id &&
      existing.value().era_start == provenance.era_start) {
    NoteRrEra(recipe_hash, provenance);
    return Status::OK();
  }
  if (!writes_enabled()) {
    return Status::FailedPrecondition("cache writes disabled");
  }
  Status status = CWM_FAILPOINT_STATUS("cache.rr.store");
  if (status.ok()) status = WriteRrFile(rr, provenance, path);
  if (!status.ok()) DisableWrites(status);
  if (status.ok()) {
    std::error_code ec;
    const uint64_t bytes = fs::file_size(path, ec);
    if (!ec) BytesWrittenCounter().Add(bytes);
    NoteRrEra(recipe_hash, provenance);
  }
  return status;
}

void ArtifactCache::NoteRrEra(uint64_t recipe_hash, const RrProvenance& era) {
  std::lock_guard lock(working_set_mutex_);
  working_set_[era.graph_hash].try_emplace(recipe_hash, era);
}

std::vector<RrProvenance> ArtifactCache::TakeRrWorkingSet(
    uint64_t graph_hash) {
  std::lock_guard lock(working_set_mutex_);
  const auto node = working_set_.extract(graph_hash);
  std::vector<RrProvenance> eras;
  if (node.empty()) return eras;
  eras.reserve(node.mapped().size());
  for (const auto& [recipe_hash, era] : node.mapped()) eras.push_back(era);
  return eras;
}

std::vector<CacheEntry> ArtifactCache::List() const {
  std::vector<CacheEntry> entries;
  std::error_code ec;
  for (const char* sub : {"graphs", "rr"}) {
    const fs::path dir = fs::path(root_) / sub;
    fs::directory_iterator it(dir, ec);
    if (ec) continue;
    for (const fs::directory_entry& file : it) {
      const std::string ext = file.path().extension().string();
      if (ext != ".cwg" && ext != ".cwr") continue;
      CacheEntry entry;
      entry.path = file.path().string();
      entry.is_graph = ext == ".cwg";
      std::error_code size_ec;
      entry.bytes = file.file_size(size_ec);
      entry.mtime_seconds = MtimeSeconds(file.path(), size_ec);
      if (entry.is_graph) {
        const std::string recipe_path =
            entry.path.substr(0, entry.path.size() - 4) + ".recipe";
        entry.recipe = ReadSmallFile(recipe_path).value_or("");
        // The sidecar is part of the entry's footprint: Gc evicts the
        // pair together, so budgets and reports must count both.
        std::error_code recipe_ec;
        const uint64_t recipe_bytes = fs::file_size(recipe_path, recipe_ec);
        if (!recipe_ec) entry.bytes += recipe_bytes;
      } else {
        StatusOr<RrFileHeader> header = ReadRrHeader(entry.path);
        if (header.ok()) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "graph=%s seed=%llu source=%s era=%llu sets=%llu",
                        HashToHex(header.value().graph_hash).c_str(),
                        static_cast<unsigned long long>(
                            header.value().sample_seed),
                        HashToHex(header.value().source_id).c_str(),
                        static_cast<unsigned long long>(
                            header.value().era_start),
                        static_cast<unsigned long long>(
                            header.value().num_sets));
          entry.recipe = buf;
        }
      }
      entries.push_back(std::move(entry));
    }
  }
  return entries;
}

GcResult ArtifactCache::Gc(uint64_t max_bytes) {
  CWM_TRACE_SPAN("store.gc", {{"max_bytes", max_bytes}});
  GcResult result;

  // Writers killed mid-WriteFileAtomic leave *.tmp.* files that List()
  // (and therefore the byte accounting) never sees; reclaim them here.
  // The age threshold protects a concurrent writer's live temp file.
  constexpr auto kStaleTmpAge = std::chrono::hours(1);
  const auto now = fs::file_time_type::clock::now();
  std::error_code ec;
  for (const char* sub : {"graphs", "rr", "edge-hashes", "quarantine"}) {
    fs::directory_iterator it(fs::path(root_) / sub, ec);
    if (ec) continue;
    for (const fs::directory_entry& file : it) {
      const std::string name = file.path().filename().string();
      // Quarantined entries are evidence, not cache state: keep them
      // long enough for doctor to look, then reclaim like stale temps.
      bool reclaimable = name.find(".tmp.") != std::string::npos ||
                         std::string_view(sub) == "quarantine";
      if (!reclaimable && file.path().extension() == ".recipe") {
        // A sidecar whose .cwg is gone (interrupted eviction, manual
        // delete) is invisible to List(); reclaim it once stale.
        std::error_code exists_ec;
        const fs::path graph_path =
            fs::path(file.path()).replace_extension(".cwg");
        reclaimable = !fs::exists(graph_path, exists_ec);
      }
      if (!reclaimable && std::string_view(sub) == "edge-hashes" &&
          file.path().extension() == ".txt") {
        // Edge-list hash sidecars (graph/loader.cc) record their source
        // path on the second line; once the dataset is gone the entry
        // can never match again — reclaim it when stale.
        std::ifstream in(file.path());
        std::string identity_line, source_path;
        if (std::getline(in, identity_line) &&
            std::getline(in, source_path)) {
          std::error_code exists_ec;
          reclaimable = !fs::exists(source_path, exists_ec);
        } else {
          reclaimable = true;  // malformed sidecar: useless, reclaim
        }
      }
      if (!reclaimable) continue;
      std::error_code file_ec;
      const auto mtime = fs::last_write_time(file.path(), file_ec);
      if (file_ec || now - mtime < kStaleTmpAge) continue;
      if (fs::remove(file.path(), file_ec) && !file_ec) {
        ++result.files_removed;
      }
    }
  }

  std::vector<CacheEntry> entries = List();

  // Delta re-keying (delta/rr_patch.h) stores every surviving era under
  // the *new* graph hash; eras keyed to a graph no cached .cwg carries
  // are almost certainly its abandoned pre-delta ancestors. Evict those
  // first when over budget: an orphaned era is dead weight at any
  // recency, while an old-but-live entry is one warm open away from
  // paying for itself. (Eras for uncached graph families — gadgets,
  // transformed edge lists — also match this test; eviction order is a
  // heuristic, never correctness, so mis-ranking them only costs a
  // resample under memory pressure.)
  std::unordered_set<uint64_t> live_graph_hashes;
  for (const CacheEntry& entry : entries) {
    if (!entry.is_graph) continue;
    if (StatusOr<GraphFileHeader> header = ReadGraphHeader(entry.path);
        header.ok() && header.value().content_hash != 0) {
      live_graph_hashes.insert(header.value().content_hash);
    }
  }
  auto is_orphaned_era = [&](const CacheEntry& entry) {
    if (entry.is_graph) return false;
    const StatusOr<RrFileHeader> header = ReadRrHeader(entry.path);
    // Unreadable headers are LoadRrEra's (quarantine) problem, not Gc's.
    return header.ok() &&
           !live_graph_hashes.contains(header.value().graph_hash);
  };
  std::vector<bool> orphaned(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    orphaned[i] = is_orphaned_era(entries[i]);
  }
  std::vector<std::size_t> order(entries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (orphaned[a] != orphaned[b]) return static_cast<bool>(orphaned[a]);
    return entries[a].mtime_seconds != entries[b].mtime_seconds
               ? entries[a].mtime_seconds < entries[b].mtime_seconds
               : entries[a].path < entries[b].path;
  });
  {
    std::vector<CacheEntry> sorted;
    sorted.reserve(entries.size());
    for (const std::size_t i : order) sorted.push_back(std::move(entries[i]));
    entries = std::move(sorted);
  }
  for (const CacheEntry& entry : entries) result.bytes_before += entry.bytes;
  result.bytes_after = result.bytes_before;
  for (const CacheEntry& entry : entries) {
    if (result.bytes_after <= max_bytes) break;
    std::error_code remove_ec;
    if (!fs::remove(entry.path, remove_ec) || remove_ec) continue;
    if (entry.is_graph) {
      fs::remove(entry.path.substr(0, entry.path.size() - 4) + ".recipe",
                 remove_ec);
    }
    result.bytes_after -= entry.bytes;
    ++result.files_removed;
  }
  return result;
}

std::string ArtifactCache::QuarantineDir() const {
  return (fs::path(root_) / "quarantine").string();
}

Status ArtifactCache::QuarantineEntry(const std::string& path) {
  const fs::path source(path);
  const fs::path dir(QuarantineDir());
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (!ec) fs::rename(source, dir / source.filename(), ec);
  if (ec) {
    // Cannot move it aside (read-only filesystem?): removing unblocks
    // the rebuild at the cost of the evidence.
    std::error_code remove_ec;
    fs::remove(source, remove_ec);
    if (remove_ec) {
      return Status::IOError("cannot quarantine " + path + ": " +
                             ec.message());
    }
  }
  if (source.extension() == ".cwg") {
    // The sidecar travels with its entry; a leftover .recipe would pair
    // with the rebuilt .cwg anyway (same recipe), but moving both keeps
    // quarantine/ self-describing for doctor.
    const fs::path recipe = fs::path(source).replace_extension(".recipe");
    std::error_code side_ec;
    if (fs::exists(recipe, side_ec)) {
      fs::rename(recipe, dir / recipe.filename(), side_ec);
      if (side_ec) fs::remove(recipe, side_ec);
    }
  }
  NoteDegradedEvent("cache.quarantined");
  return Status::OK();
}

void ArtifactCache::DisableWrites(const Status& cause) {
  bool expected = true;
  if (!writes_enabled_.compare_exchange_strong(expected, false,
                                               std::memory_order_relaxed)) {
    return;  // already disabled; first failure already reported
  }
  NoteDegradedEvent("store.degraded.cache_write_off");
  std::fprintf(stderr,
               "cwm: artifact cache now read-only after write failure: "
               "%s (continuing uncached; results are unaffected)\n",
               cause.ToString().c_str());
}

}  // namespace cwm
