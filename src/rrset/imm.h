// IMM-style sampling driver with martingale stopping (Tang et al. [44],
// including the corrected final fresh-sampling pass of Chen [17]), shared
// by three clients:
//
//  * Imm()        — classic single-item influence maximization (standard
//                   RR sets, unit weights);
//  * PrimaPlus()  — prefix-preserving marginal seed selection over several
//                   budget levels (rrset/prima_plus.h);
//  * SupGrd()     — weighted RR sets for marginal-welfare maximization
//                   (algo/sup_grd.h).
//
// The driver works in *normalized* coverage units: every RR set carries a
// weight in [0, 1] (unit for spread, w(R)/wmax for welfare), so the
// bounds of Lemma 7 / Eqs. (6)-(8) apply verbatim; callers rescale the
// returned estimate by their wmax.
//
// Sampling runs on the deterministic parallel pipeline (rr_pipeline.h):
// per-sample RNG streams derived from (ImmParams::seed, sample index), so
// seed sets and estimates are bit-identical at any ImmParams::num_threads.
#ifndef CWM_RRSET_IMM_H_
#define CWM_RRSET_IMM_H_

#include <atomic>
#include <vector>

#include "graph/graph.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_pipeline.h"
#include "support/rng.h"

namespace cwm {

class ArtifactCache;

/// Accuracy parameters shared by all RR-set algorithms (paper defaults
/// epsilon = 0.5, ell = 1; §6.1.3).
struct ImmParams {
  double epsilon = 0.5;
  double ell = 1.0;
  uint64_t seed = 0x1337u;
  /// Safety valve: never materialize more than this many RR sets (the
  /// theoretical theta can explode when OPT is near zero, e.g. when S_P
  /// already saturates the graph). 0 = unlimited.
  std::size_t max_rr_sets = 50'000'000;
  /// Worker threads for RR-set sampling (0 = hardware concurrency).
  /// Never affects results — only wall time. Callers running many IMM
  /// instances concurrently (the sweep engine) keep this at 1 unless the
  /// product of outer tasks and inner threads stays within the pool.
  unsigned num_threads = 1;
  /// Optional persistent RR cache (store/artifact_cache.h). Only consulted
  /// when `graph_hash` is nonzero AND the driver invocation supplies a
  /// sampler source id — drivers whose samplers cannot describe their
  /// provenance (e.g. per-iteration blocked masks) stay uncached. Results
  /// are bit-identical with or without a cache.
  ArtifactCache* cache = nullptr;
  /// Content hash of the graph being sampled (store/format.h's
  /// GraphContentHash); 0 = unknown, disables caching.
  uint64_t graph_hash = 0;
  /// Optional cooperative cancellation flag (obs/cancel.h), polled per
  /// sampling chunk inside the RR pipeline and between driver phases so a
  /// deadline fires within milliseconds, not at the next phase boundary.
  /// A cancelled driver run returns fast with structurally valid filler
  /// seeds (callers observing the flag must discard the result). Not
  /// owned; may be null. Never affects results of uncancelled runs.
  const std::atomic<bool>* cancel = nullptr;
};

/// Result of a driver run.
struct ImmResult {
  /// Selected nodes in greedy order; size = the last budget level.
  std::vector<NodeId> seeds;
  /// n/theta * M_R(seeds) over the final fresh collection — an unbiased
  /// estimate of the (normalized) objective of `seeds`. Multiply by wmax
  /// for welfare units.
  double coverage_estimate = 0.0;
  /// prefix_estimates[j] = the same estimate for the prefix of size
  /// budget_levels[j].
  std::vector<double> prefix_estimates;
  /// Number of RR sets in the final pass.
  std::size_t rr_count = 0;
};

/// Stable source id of the standard (unblocked) RR stream: Imm()'s
/// sampler, and PRIMA+'s marginal sampler when S_P is empty (it then
/// blocks nothing and draws the same sets). Eras under this id are the
/// ones delta/rr_patch.h re-keys onto a post-delta graph.
inline constexpr uint64_t kStandardRrSourceId = 0x5374645252ull;  // "StdRR"

/// Source id of a marginal sampler blocked on `prior_seeds` (order
/// independent: the nodes are hashed in sorted order, duplicates once).
/// An empty set returns kStandardRrSourceId: Algorithm 3 with S_P = {}
/// is the standard sampler, draw for draw. A non-empty set gets an id of
/// its own, distinct from the standard one.
uint64_t MarginalRrSourceId(std::vector<NodeId> prior_seeds);

/// Runs the sampling + selection pipeline of Algorithms 4/6.
/// `budget_levels` must be ascending and non-empty; the returned seed set
/// has size budget_levels.back() and every prefix of size budget_levels[j]
/// is (1 - 1/e - epsilon)-optimal w.r.t. its own budget w.h.p.
/// `source` builds one RR sampler per worker (rr_pipeline.h).
/// `source_id` identifies the sampler for the persistent RR cache
/// (0 = this source is not cacheable; see ImmParams::cache).
ImmResult RunImmDriver(std::size_t num_nodes,
                       const std::vector<int>& budget_levels,
                       const ImmParams& params,
                       const RrSourceFactory& source,
                       uint64_t source_id = 0);

/// Classic IMM: seeds maximizing expected spread sigma(S), |S| = budget.
/// Used to place the fixed inferior-item seeds of configurations C5/C6 and
/// as a component of baselines.
ImmResult Imm(const Graph& graph, int budget, const ImmParams& params);

/// lambda* of Eq. (6) (normalized units, natural logs).
double LambdaStar(std::size_t n, int b, double epsilon, double ell);
/// lambda' of Eq. (8).
double LambdaPrime(std::size_t n, int b, double eps_prime, double ell_prime);

}  // namespace cwm

#endif  // CWM_RRSET_IMM_H_
