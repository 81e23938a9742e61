// RR-era invalidation and repair after a graph delta.
//
// A cached RR era is a list of reverse-reachable sets sampled on the old
// graph. Sampling (rrset/rr_sampler.h) is a reverse BFS that reads only
// in-edge (from, prob) sequences, and a delta pins num_nodes, so:
//
//   - a set touching no *dirty* vertex (delta/overlay.h: a `to` endpoint
//     whose in-edge list changed) traverses in-edge lists that are
//     byte-identical between old and new graph. Its root stream
//     (Rng(MixHash(seed, kRrSampleTag ^ k))) is also unchanged, so
//     resampling it on the new graph would reproduce the cached members
//     bit for bit — the cached set is *reused* verbatim.
//   - a set touching any dirty vertex may differ and is *resampled* from
//     its pinned per-sample stream on the new graph.
//
// The repaired era is stored under the new graph's recipe hash, so the
// next pipeline run over the new graph finds a warm era and reports a
// cache hit; the old-keyed entry becomes a Gc orphan.
//
// Which eras are patched: the caller names them. Engine::ApplyDelta
// passes the old graph's working set, the eras this process loaded or
// stored under the old hash since that hash was last patched
// (ArtifactCache::TakeRrWorkingSet); nothing lists the cache directory.
// An era outside the working set (an earlier engine's, another
// process's) stays on its old key, and a later read resamples it like
// any miss. Of the eras given, only standard eras (kStandardRrSourceId)
// of the old graph are patched. They are Imm()'s eras and PRIMA+'s eras
// with an empty S_P (SeqGRD, SeqGRD-NM, MaxGRD and greedyWM's candidate
// pool without a fixed allocation), because that marginal sampler
// blocks nothing and draws the standard sets. Eras of a non-empty S_P
// keep their marginal id and are skipped: a zeroed set does not record
// which in-edge lists its BFS read, so it cannot be checked against the
// dirty vertices.
//
// Eras are patched in parallel, one era per task (DefaultThreads()
// workers, capped by the era count), each task with its own sampler. An
// era that fails to open or store loses only its own warm start.
//
// Counters: delta.eras_patched, delta.sets_reused, delta.sets_resampled
// (the acceptance "invalidation counter": nonzero resamples alongside
// nonzero downstream `rr hits=` proves selective invalidation worked).
#ifndef CWM_DELTA_RR_PATCH_H_
#define CWM_DELTA_RR_PATCH_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/graph.h"
#include "store/artifact_cache.h"

namespace cwm {

/// Outcome of one PatchCachedRrEras pass.
struct RrPatchStats {
  std::size_t eras_scanned = 0;    ///< old-graph standard eras given
  std::size_t eras_patched = 0;    ///< re-keyed to the new graph
  std::size_t sets_reused = 0;     ///< served verbatim from the old era
  std::size_t sets_resampled = 0;  ///< touched a dirty vertex; resampled
};

/// Re-keys the cached RR eras named by `eras` onto `new_graph` (content
/// hash `new_hash`), reusing sets clean of `dirty_nodes` (sorted,
/// unique) and resampling the rest from their pinned per-sample streams.
/// Eras of another graph hash than `old_hash`, or with a marginal source
/// id, are skipped. Eras are patched concurrently; the stats are the
/// per-era sums. No-op when old_hash == new_hash. Best effort: an era
/// that fails to open is skipped (the pipeline will resample it cold),
/// and store failures follow the cache's degraded-mode contract.
RrPatchStats PatchCachedRrEras(ArtifactCache& cache, const Graph& new_graph,
                               uint64_t old_hash, uint64_t new_hash,
                               std::span<const NodeId> dirty_nodes,
                               std::span<const RrProvenance> eras);

}  // namespace cwm

#endif  // CWM_DELTA_RR_PATCH_H_
