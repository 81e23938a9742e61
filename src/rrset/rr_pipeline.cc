#include "rrset/rr_pipeline.h"

#include <algorithm>
#include <utility>

#include "obs/cancel.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "store/artifact_cache.h"
#include "support/check.h"
#include "support/thread_pool.h"

namespace cwm {

RrPipeline::RrPipeline(RrSourceFactory factory, uint64_t seed,
                       unsigned num_threads)
    : factory_(std::move(factory)),
      seed_(seed),
      num_threads_(num_threads == 0 ? DefaultThreads() : num_threads) {
  CWM_CHECK(factory_ != nullptr);
  workers_.resize(num_threads_);
  scratch_.resize(num_threads_);
}

RrPipeline::~RrPipeline() = default;

void RrPipeline::BindCache(ArtifactCache* cache, uint64_t graph_hash,
                           uint64_t source_id) {
  CWM_CHECK_MSG(next_sample_ == 0,
                "BindCache must precede the first ExtendTo");
  cache_ = cache;
  graph_hash_ = graph_hash;
  source_id_ = source_id;
}

void RrPipeline::ServeFromCache(RrCollection* rr, std::size_t target) {
  // Era bookkeeping: the era's first sample has global index
  // next_sample_ - rr->size(); it changes exactly when the caller Clears
  // the collection (IMM's fresh final pass) or starts a new collection.
  const uint64_t era_start = next_sample_ - rr->size();
  if (!era_valid_ || era_start != era_start_) {
    // Era provenance is derived from the collection's size, which is only
    // sound if every era's samples land in one collection that started
    // empty. Interleaving collections would store misattributed eras and
    // silently poison the persistent cache — abort instead.
    CWM_CHECK_MSG(rr->size() == 0,
                  "cached RrPipeline eras must start from an empty "
                  "RrCollection (one collection per era)");
    era_valid_ = true;
    era_start_ = era_start;
    era_stored_ = 0;
    era_data_.reset();
    era_collection_ = rr;
    const RrProvenance expect{.graph_hash = graph_hash_,
                              .sample_seed = seed_,
                              .source_id = source_id_,
                              .era_start = era_start};
    // Degraded-mode contract: a corrupt or unreadable era comes back as
    // nullopt (the cache quarantines it), so the pipeline falls through
    // to resampling below — bit-identical, because sample k's RNG stream
    // is derived from (seed, k), never from what the cache held.
    std::optional<RrEraData> loaded = cache_->LoadRrEra(
        RrRecipeHash(graph_hash_, source_id_, seed_, era_start), expect,
        rr->num_nodes());
    if (loaded.has_value()) {
      era_data_ = std::make_unique<RrEraData>(std::move(*loaded));
      era_stored_ = era_data_->num_sets();
    }
  }
  CWM_CHECK_MSG(rr == era_collection_,
                "cached RrPipeline fed a different RrCollection mid-era");
  if (era_data_ == nullptr) return;

  // Serve cached samples [rr->size(), min(target, cached count)). Replay
  // through Add in sample order, so weight accumulation and member layout
  // are bit-identical to the cold path's chunk-ordered merges.
  const std::size_t upto =
      std::min<std::size_t>(target, era_data_->num_sets());
  for (std::size_t k = rr->size(); k < upto; ++k) {
    const uint64_t begin = era_data_->offsets[k];
    const uint64_t end = era_data_->offsets[k + 1];
    rr->Add({era_data_->members.data() + begin,
             era_data_->members.data() + end},
            era_data_->weights[k]);
    ++next_sample_;
  }
  // Fully consumed: the arrays are dead weight (eras only grow past them).
  if (rr->size() >= era_data_->num_sets()) era_data_.reset();
}

void RrPipeline::ExtendTo(RrCollection* rr, std::size_t target) {
  ScopedPhaseTimer phase(Phase::kSample);
  std::size_t served = 0;
  if (cache_ != nullptr && rr->size() < target) {
    const std::size_t before = rr->size();
    CWM_TRACE_SPAN("rr.serve_cache", {{"have", before}, {"target", target}});
    ServeFromCache(rr, target);
    served = rr->size() - before;
  }
  if (rr->size() >= target) return;
  if (cancel_ != nullptr && CancelRequested(cancel_)) {
    cancel_observed_.store(true, std::memory_order_relaxed);
  }
  if (cancelled()) return;
  const std::size_t fresh = target - rr->size();
  const std::size_t num_chunks = (fresh + kChunkSize - 1) / kChunkSize;
  std::vector<RrShard> shards(num_chunks);

  CWM_TRACE_SPAN("rr.sample_era", {{"era_start", next_sample_},
                                   {"count", fresh},
                                   {"cache_served", served},
                                   {"seed", seed_}});
  ParallelForWorkers(
      num_chunks,
      [&](std::size_t worker, std::size_t chunk) {
        // Fine-grained cancellation: one poll per chunk (~kChunkSize
        // samples) bounds the latency between a deadline firing and the
        // pipeline going quiet, without a per-sample atomic in the hot
        // loop. Skipped chunks leave their shard empty; the collection is
        // then not the canonical prefix, which is fine because a
        // cancelled run's output is discarded and never cached.
        if (cancel_ != nullptr && CancelRequested(cancel_)) {
          cancel_observed_.store(true, std::memory_order_relaxed);
          return;
        }
        RrSampleFn& sample = workers_[worker];
        if (!sample) sample = factory_();
        std::vector<NodeId>& members = scratch_[worker];
        RrShard& shard = shards[chunk];
        const std::size_t begin = chunk * kChunkSize;
        const std::size_t end = std::min(fresh, begin + kChunkSize);
        for (std::size_t j = begin; j < end; ++j) {
          // The sample's whole randomness budget comes from its global
          // index, never from worker state: sample k is reproducible in
          // isolation.
          Rng rng(MixHash(seed_, kRrSampleTag ^ (next_sample_ + j)));
          const double weight = sample(rng, &members);
          shard.Add(members, weight);
        }
      },
      num_threads_);

  next_sample_ += fresh;
  for (const RrShard& shard : shards) rr->Merge(shard);
}

void RrPipeline::PersistEra(const RrCollection& rr) {
  if (cache_ == nullptr) return;
  if (cancel_ != nullptr && CancelRequested(cancel_)) {
    cancel_observed_.store(true, std::memory_order_relaxed);
  }
  // Never after a cancellation: skipped chunks mean the collection may
  // not be the canonical prefix its provenance would claim, and storing
  // it would poison the persistent cache for every later run. Nothing
  // sampled beyond the loaded era means the cache already holds it.
  if (cancelled() || rr.size() <= era_stored_) return;
  // Sets beyond era_stored_ were sampled by ExtendTo, whose
  // ServeFromCache pinned this era to one collection; check that `rr` is
  // that collection so era_start_ is its true provenance.
  CWM_CHECK_MSG(era_valid_ && &rr == era_collection_ &&
                    next_sample_ - rr.size() == era_start_,
                "PersistEra must be given the current era's collection");
  const RrProvenance provenance{.graph_hash = graph_hash_,
                                .sample_seed = seed_,
                                .source_id = source_id_,
                                .era_start = era_start_};
  const Status stored = cache_->StoreRrEra(
      RrRecipeHash(graph_hash_, source_id_, seed_, era_start_), provenance,
      rr);
  // A failed store only loses the warm start; sampling stays correct.
  if (stored.ok()) era_stored_ = rr.size();
}

}  // namespace cwm
