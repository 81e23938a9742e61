// Content-addressed artifact cache for graphs and RR collections.
//
// Every artifact is keyed by a hash of its *full build recipe* — for a
// graph, the canonical string rendering of everything that determines its
// bytes (network family, scale knobs, seeds, edge-probability model,
// loader options, source-file content hash for edge lists, and the format
// version); for an RR collection, the tuple (graph content hash, sampler
// source id, pipeline seed, era start, format version). Identical recipes
// therefore always map to identical bytes, so a hit is bit-equivalent to
// a rebuild — the determinism contract of the scenario engine survives
// caching unchanged.
//
// Layout under the root (CWM_CACHE_DIR):
//
//   <root>/graphs/<hex16>.cwg       binary graph (store/graph_store.h)
//   <root>/graphs/<hex16>.recipe    the recipe string (collision guard +
//                                   human-readable `cwm_data list`)
//   <root>/rr/<hex16>.cwr           RR collection (store/rr_store.h)
//   <root>/quarantine/              entries that failed to open (torn
//                                   write, bit rot): moved aside — never
//                                   deleted in the serving path — so the
//                                   rebuild can proceed and `cwm_data
//                                   doctor` can examine the evidence
//
// Degraded-mode contract (docs/robustness.md): a read failure quarantines
// the entry and the caller rebuilds/resamples from the recipe — bytes
// identical to a healthy hit, because RNG streams never depend on the
// cache. A write failure (ENOSPC, EROFS, permissions) flips the cache to
// read-only for the rest of the process; every later store is skipped and
// allocations continue uncached. Both paths count store.degraded.* /
// cache.quarantined metrics.
//
// Counting: hits, misses, bytes written and quarantines are counted only
// in the process-wide metrics registry (cache.* counters, obs/metrics.h).
// A per-run view is the difference of a counter read before and after
// the run, which is how cwm_run prints its per-sweep cache line.
//
// Writes are atomic (temp + rename), so concurrent sweep workers may race
// on a key safely: both compute identical bytes and the loser's rename
// simply replaces the file with identical content. Hits are validated
// (recipe string for graphs, header provenance for RR) so a hash
// collision degrades to a miss, never to wrong data.
//
// RR working set: each cache object records, per graph hash, the RR eras
// it served (LoadRrEra hit) or holds on disk after a store (StoreRrEra
// success, including the keep-the-longer-entry return), deduplicated by
// recipe hash. Misses, quarantined loads and failed stores are not
// recorded. A graph delta takes the old graph's list once
// (TakeRrWorkingSet) and patches exactly those eras
// (delta/rr_patch.h); the patch's own stores join the new graph's list,
// so a delta chain carries its eras forward hop by hop. The record is
// per object, not per engine or per directory: engines sharing one
// cache object and graph hash share one list (the first delta takes
// it), eras other processes or cache objects wrote are not on it, and
// an era recorded under a hash after its take waits for the next take
// of that hash. It costs about 50 bytes per era touched, against
// megabytes of disk per era.
#ifndef CWM_STORE_ARTIFACT_CACHE_H_
#define CWM_STORE_ARTIFACT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "store/rr_store.h"
#include "support/status.h"

namespace cwm {

/// One cache entry as reported by List().
struct CacheEntry {
  std::string path;
  bool is_graph = false;  ///< false = RR collection
  uint64_t bytes = 0;
  int64_t mtime_seconds = 0;  ///< for GC ordering
  std::string recipe;         ///< graphs: recipe string; rr: provenance text
};

/// Outcome of a Gc() pass.
struct GcResult {
  uint64_t bytes_before = 0;
  uint64_t bytes_after = 0;
  std::size_t files_removed = 0;
};

/// A directory of content-addressed artifacts. Thread-safe: file
/// operations are per-key and atomic, and a mutex guards the RR working
/// set.
class ArtifactCache {
 public:
  /// Opens (creating directories if needed) a cache rooted at `root`.
  static StatusOr<std::unique_ptr<ArtifactCache>> Open(std::string root);

  const std::string& root() const { return root_; }

  /// Returns the cached graph for `recipe` (zero-copy mmap open), or
  /// builds it with `build`, stores it, and returns the built graph.
  /// A structurally invalid or recipe-mismatched entry is rebuilt in
  /// place. Build failures are returned verbatim and nothing is stored.
  /// If `content_hash` is non-null it receives GraphContentHash of the
  /// returned graph — from the .cwg header on a hit (O(1), no edge
  /// page-in) and computed once on a miss.
  StatusOr<Graph> GetOrBuildGraph(
      const std::string& recipe,
      const std::function<StatusOr<Graph>()>& build,
      uint64_t* content_hash = nullptr);

  /// Path a graph with `recipe` would be stored at (for cwm_data).
  std::string GraphPathFor(const std::string& recipe) const;

  /// Loads the RR era stored under `recipe_hash` whose header matches
  /// (`expect`, num_nodes) exactly; nullopt on absence or mismatch. A hit
  /// joins the working set of expect.graph_hash.
  std::optional<RrEraData> LoadRrEra(uint64_t recipe_hash,
                                     const RrProvenance& expect,
                                     std::size_t num_nodes);

  /// Stores `rr` under `recipe_hash`, replacing any previous entry (eras
  /// only ever grow, so replacement is monotone). On success the era
  /// joins the working set of provenance.graph_hash.
  Status StoreRrEra(uint64_t recipe_hash, const RrProvenance& provenance,
                    const RrCollection& rr);

  /// Path an RR era with `recipe_hash` is stored at. The delta patcher
  /// opens eras here directly: its reads are not allocation hits.
  std::string RrPathFor(uint64_t recipe_hash) const;

  /// Removes and returns the working set of `graph_hash`: the eras this
  /// object loaded or stored under it since its last take (unordered).
  /// A second take of the same hash returns nothing new.
  std::vector<RrProvenance> TakeRrWorkingSet(uint64_t graph_hash);

  /// All entries currently in the cache (unordered).
  std::vector<CacheEntry> List() const;

  /// Deletes oldest-first (by mtime) until total size <= max_bytes.
  /// Also reclaims stale `*.tmp.*` files (> 1 hour old) left behind by
  /// writers killed mid-publication, and quarantined entries older than
  /// the same threshold (doctor has had its chance to look).
  GcResult Gc(uint64_t max_bytes);

  /// Moves an unreadable entry (and a graph's .recipe sidecar) into
  /// <root>/quarantine/ so a rebuild can publish a fresh one and doctor
  /// can examine the bytes; deletes it if the move itself fails. Counts
  /// cache.quarantined. Public for `cwm_data doctor`.
  Status QuarantineEntry(const std::string& path);

  std::string QuarantineDir() const;

  /// False once a write failure flipped the cache to read-only.
  bool writes_enabled() const {
    return writes_enabled_.load(std::memory_order_relaxed);
  }

 private:
  explicit ArtifactCache(std::string root) : root_(std::move(root)) {}

  /// First write failure wins: logs once, flips writes_enabled_ off,
  /// counts store.degraded.cache_write_off.
  void DisableWrites(const Status& cause);

  /// Adds the era under `recipe_hash` to its graph's working set.
  void NoteRrEra(uint64_t recipe_hash, const RrProvenance& era);

  std::string root_;
  std::atomic<bool> writes_enabled_{true};
  std::mutex working_set_mutex_;
  /// graph hash -> recipe hash -> era, for every era touched since the
  /// graph hash's last take.
  std::unordered_map<uint64_t, std::unordered_map<uint64_t, RrProvenance>>
      working_set_;
};

/// Folds an RR sampling identity into the single cache key used by the
/// RR pipeline: graph content, sampler source, seed, era start, and the
/// on-disk format version.
uint64_t RrRecipeHash(uint64_t graph_hash, uint64_t source_id,
                      uint64_t sample_seed, uint64_t era_start);

}  // namespace cwm

#endif  // CWM_STORE_ARTIFACT_CACHE_H_
