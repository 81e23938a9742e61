#include "delta/rr_patch.h"

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "rrset/imm.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_pipeline.h"
#include "rrset/rr_sampler.h"
#include "store/rr_store.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace cwm {

namespace {

/// Patches one old-graph standard era: opens it, reuses its clean sets,
/// resamples the dirty ones on `new_graph` and stores the result under
/// `new_hash`. Returns this era's share of the stats (eras_scanned is the
/// caller's).
RrPatchStats PatchEra(ArtifactCache& cache, const RrProvenance& era,
                      uint64_t new_hash, const std::vector<char>& dirty,
                      const Graph& new_graph) {
  RrPatchStats stats;
  const std::size_t n = new_graph.num_nodes();
  const std::string path = cache.RrPathFor(RrRecipeHash(
      era.graph_hash, era.source_id, era.sample_seed, era.era_start));
  StatusOr<RrEraData> opened = OpenRrFile(path, &era, n);
  if (!opened.ok()) return stats;  // the pipeline will resample it cold
  const RrEraData& data = opened.value();

  RrSampler sampler(new_graph);
  std::vector<NodeId> scratch;
  RrCollection patched(n);
  for (std::size_t k = 0; k < data.num_sets(); ++k) {
    const std::span<const NodeId> members = data.members.subspan(
        data.offsets[k], data.offsets[k + 1] - data.offsets[k]);
    bool touched = false;
    for (NodeId v : members) {
      if (dirty[v]) {
        touched = true;
        break;
      }
    }
    if (!touched) {
      // Clean of every dirty vertex: resampling on the new graph would
      // walk byte-identical in-edge lists from the same root stream, so
      // serve the cached members verbatim.
      patched.Add(members, data.weights[k]);
      ++stats.sets_reused;
      continue;
    }
    Rng rng(MixHash(era.sample_seed, kRrSampleTag ^ (era.era_start + k)));
    sampler.SampleStandard(rng, &scratch);
    patched.Add(scratch, 1.0);
    ++stats.sets_resampled;
  }

  RrProvenance fresh = era;
  fresh.graph_hash = new_hash;
  const uint64_t recipe = RrRecipeHash(new_hash, fresh.source_id,
                                       fresh.sample_seed, fresh.era_start);
  // A failed store loses only this era's warm start.
  if (cache.StoreRrEra(recipe, fresh, patched).ok()) stats.eras_patched = 1;
  return stats;
}

}  // namespace

RrPatchStats PatchCachedRrEras(ArtifactCache& cache, const Graph& new_graph,
                               uint64_t old_hash, uint64_t new_hash,
                               std::span<const NodeId> dirty_nodes,
                               std::span<const RrProvenance> eras) {
  static Counter& eras_patched =
      MetricsRegistry::Global().GetCounter("delta.eras_patched");
  static Counter& sets_reused =
      MetricsRegistry::Global().GetCounter("delta.sets_reused");
  static Counter& sets_resampled =
      MetricsRegistry::Global().GetCounter("delta.sets_resampled");

  RrPatchStats stats;
  if (old_hash == new_hash) return stats;
  std::vector<RrProvenance> standard;
  for (const RrProvenance& era : eras) {
    if (era.graph_hash == old_hash && era.source_id == kStandardRrSourceId) {
      standard.push_back(era);
    }
  }
  stats.eras_scanned = standard.size();
  if (standard.empty()) return stats;

  const std::size_t n = new_graph.num_nodes();
  std::vector<char> dirty(n, 0);
  for (NodeId v : dirty_nodes) {
    if (v < n) dirty[v] = 1;
  }

  // One era per task. Eras are independent files and every set's stream
  // is pinned by (seed, index), so the patched bytes do not depend on
  // which worker runs which era.
  std::vector<RrPatchStats> per_era(standard.size());
  ParallelFor(standard.size(), [&](std::size_t i) {
    per_era[i] = PatchEra(cache, standard[i], new_hash, dirty, new_graph);
  });
  for (const RrPatchStats& era : per_era) {
    stats.eras_patched += era.eras_patched;
    stats.sets_reused += era.sets_reused;
    stats.sets_resampled += era.sets_resampled;
  }

  eras_patched.Add(stats.eras_patched);
  sets_reused.Add(stats.sets_reused);
  sets_resampled.Add(stats.sets_resampled);
  return stats;
}

}  // namespace cwm
