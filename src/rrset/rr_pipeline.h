// Deterministic parallel RR-set generation.
//
// The pipeline decouples *what* one RR sample is from *where* it runs:
//
//  * RrSampleFn   — draws exactly one RR set from an Rng, returning its
//                   normalized weight. Stateful (owns a sampler's scratch)
//                   and not thread-safe; one instance per worker.
//  * RrSourceFactory — builds one independent RrSampleFn per worker.
//  * RrPipeline   — grows an RrCollection to a target size. Sample i is a
//                   pure function of (seed, i): its Rng is constructed from
//                   MixHash(seed, kRrSampleTag ^ i), where i is a global
//                   monotone counter that survives RrCollection::Clear()
//                   (so IMM's fresh final pass really is fresh). Samples
//                   are produced in fixed-size chunks whose boundaries
//                   depend only on the counter, each chunk fills a private
//                   RrShard, and shards merge in chunk order — so the
//                   resulting collection is bit-identical at any thread
//                   count, including 1.
//
// This is the split discipline the sweep engine already uses across runs
// (seed streams keyed by grid coordinates, never by thread identity),
// applied *within* a run.
#ifndef CWM_RRSET_RR_PIPELINE_H_
#define CWM_RRSET_RR_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "rrset/rr_collection.h"
#include "support/rng.h"

namespace cwm {

class ArtifactCache;
struct RrEraData;

/// Samples one RR set: fills `members` (cleared first by the sampler) and
/// returns the set's normalized weight in [0, 1]. Not thread-safe.
using RrSampleFn = std::function<double(Rng&, std::vector<NodeId>*)>;

/// Creates one independent RrSampleFn per worker thread. Invoked at most
/// `num_threads` times per pipeline; instances may share immutable state
/// (the graph, a blocked mask) but never mutable scratch.
using RrSourceFactory = std::function<RrSampleFn()>;

/// Stream tag folded into every per-sample seed so sample streams never
/// collide with the sweep engine's other MixHash-derived streams.
inline constexpr uint64_t kRrSampleTag = 0x52525E7ull;

/// Deterministic parallel RR-set generator. One instance drives all
/// sampling epochs of one IMM run.
class RrPipeline {
 public:
  /// `num_threads`: worker threads for sampling; 0 = DefaultThreads(),
  /// 1 = inline on the caller's thread. Thread count never affects the
  /// samples produced.
  RrPipeline(RrSourceFactory factory, uint64_t seed, unsigned num_threads);
  ~RrPipeline();

  /// Binds a persistent artifact cache (store/artifact_cache.h). The
  /// caller asserts that (graph_hash, source_id, seed) uniquely identify
  /// the sample stream this pipeline's factory produces; under that
  /// contract a cache hit is bit-identical to sampling, because sample k
  /// is a pure function of (seed, k). Entries are keyed per era — an era
  /// starts at construction and at each RrCollection::Clear() — and carry
  /// the full provenance in their header, so a key collision degrades to
  /// a miss. ExtendTo reads a cached era when the era starts; PersistEra
  /// writes it. Call before the first ExtendTo.
  void BindCache(ArtifactCache* cache, uint64_t graph_hash,
                 uint64_t source_id);

  /// Binds a cooperative cancellation flag (obs/cancel.h; not owned, may
  /// be null). ExtendTo polls it per sampling chunk: once it reads true,
  /// workers stop drawing samples, the call returns without reaching its
  /// target, and PersistEra stores nothing more (a partially sampled era
  /// must never be stored — it would not be the canonical prefix its
  /// provenance claims). The flag is only ever read, so binding it never
  /// changes the samples of an uncancelled run.
  void BindCancel(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// True once a bound cancellation flag has been observed set.
  bool cancelled() const {
    return cancel_observed_.load(std::memory_order_relaxed);
  }

  /// Appends RR sets to `rr` until rr->size() >= target (no-op if it
  /// already is). Deterministic: the k-th sample ever generated by this
  /// pipeline is the same for any thread count, and — when a cache is
  /// bound — whether it was sampled or served from a cached era. Serves
  /// from a bound cache but never writes to it: an era grows over several
  /// calls, and storing it after each would rewrite (and fsync) the whole
  /// collection every time.
  void ExtendTo(RrCollection* rr, std::size_t target);

  /// Persists the current era to the bound cache, once, when the caller
  /// is done growing it: before the RrCollection::Clear() that ends it,
  /// and after the last ExtendTo of the final era. `rr` must be the
  /// collection the era's ExtendTo calls filled. Skipped without a bound
  /// cache, after a cancellation, and when nothing was sampled beyond
  /// what the cache already holds (a fully served era). A failed store
  /// only loses the warm start (the cache degrades, results do not).
  void PersistEra(const RrCollection& rr);

  /// Total samples generated across all ExtendTo calls (the global
  /// counter; keeps advancing over RrCollection::Clear()).
  uint64_t samples_generated() const { return next_sample_; }

  unsigned num_threads() const { return num_threads_; }

  /// Samples per chunk. Chunk boundaries are part of the determinism
  /// contract only insofar as shards merge in chunk order; the value
  /// balances scheduling granularity against merge overhead.
  static constexpr std::size_t kChunkSize = 256;

 private:
  /// Serves cached samples of the current era into `rr` (up to `target`)
  /// and refreshes the era bookkeeping. Only called with a bound cache.
  void ServeFromCache(RrCollection* rr, std::size_t target);

  RrSourceFactory factory_;
  uint64_t seed_;
  unsigned num_threads_;
  const std::atomic<bool>* cancel_ = nullptr;
  /// Sticky: set by any worker that observes the flag (atomic because
  /// chunk workers poll concurrently).
  std::atomic<bool> cancel_observed_{false};
  uint64_t next_sample_ = 0;
  /// Per-worker samplers, created lazily on first use and reused across
  /// epochs (their scratch/stamp state never leaks into results).
  std::vector<RrSampleFn> workers_;
  /// Per-worker member scratch buffers.
  std::vector<std::vector<NodeId>> scratch_;

  // Optional persistent cache binding (see BindCache).
  ArtifactCache* cache_ = nullptr;
  uint64_t graph_hash_ = 0;
  uint64_t source_id_ = 0;
  bool era_valid_ = false;
  uint64_t era_start_ = 0;        ///< global index of the era's sample 0
  std::size_t era_stored_ = 0;    ///< sets the cache holds for this era
  std::unique_ptr<RrEraData> era_data_;  ///< cached samples being served
  /// The one collection this era's samples land in; provenance is only
  /// sound for a single collection per era (checked, never assumed).
  const RrCollection* era_collection_ = nullptr;
};

}  // namespace cwm

#endif  // CWM_RRSET_RR_PIPELINE_H_
