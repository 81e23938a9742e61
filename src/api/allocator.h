// The stable allocation API: one algorithm-agnostic entry point.
//
// Every algorithm of the paper (SeqGRD/MaxGRD/SupGRD/BestOf) and every
// baseline (TCIM, greedyWM, Balance-C, the positional and heuristic
// allocators) implements the Allocator interface and registers itself in
// the AllocatorRegistry (api/registry.h), so callers — the sweep engine,
// the bench harness, the CLIs, and third-party embedders — run any of
// them through one AllocateRequest/AllocateResult pair instead of
// hand-wiring per-algorithm estimator and RR-pipeline plumbing.
//
// Determinism contract: an allocator's output is a pure function of the
// request (graph, config, budgets, seeds, accuracy knobs). Thread-count
// knobs inside the request never change the allocation, matching the
// repo-wide bit-reproducibility guarantees.
//
// Layering: this header and api/registry.h depend on graph/, model/,
// algo/params.h, rrset/ and simulate/. No api/ header includes scenario/
// or serve/ (scripts/check_api_headers.sh fails if one does): the Engine
// facade takes the declarative NetworkSpec/ConfigSpec types from
// exp/specs.h, a layer below.
// Algorithm modules implement adapters in their own .cc files and expose
// a Register*(AllocatorRegistry&) hook (declared in their headers with a
// forward declaration only), so no algorithm header depends on this one.
#ifndef CWM_API_ALLOCATOR_H_
#define CWM_API_ALLOCATOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "algo/params.h"
#include "api/algo_kind.h"
#include "graph/graph.h"
#include "model/allocation.h"
#include "model/utility.h"
#include "obs/cancel.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "support/status.h"

namespace cwm {

/// What an allocator can and cannot do; drives gating, validation, and
/// the README capability table (instead of hand-maintained comments).
struct AllocatorCapabilities {
  /// Monte-Carlo-greedy: too slow for large cells; the sweep gates it.
  bool slow = false;
  /// Only defined for two-item configurations (Balance-C).
  bool two_items_only = false;
  /// Requires a superior item and every inferior item fixed in S_P
  /// (SupGRD); Allocate returns FailedPrecondition otherwise.
  bool needs_superior_item = false;
  /// Consumes AllocateRequest::ranking (the shared positional ranking)
  /// rather than running its own RR-set selection.
  bool uses_shared_ranking = false;
};

/// Progress hook: invoked with a short stage label ("SeqGRD arm",
/// "evaluate", ...) from the calling thread. May be empty.
using ProgressFn = std::function<void(std::string_view stage)>;

/// Everything an allocation needs, as one stable value type. Seeds are
/// explicit (ImmParams::seed, EstimatorOptions::seed), so a request is a
/// complete, replayable description of the run.
struct AllocateRequest {
  /// Which registered allocator runs (registry lookup key).
  AlgoKind algo = AlgoKind::kSeqGrdNm;

  /// The network. Engine::Allocate fills this with the engine's graph;
  /// only direct Allocator::Allocate callers set it.
  const Graph* graph = nullptr;
  /// The utility configuration; same ownership rule as `graph`.
  const UtilityConfig* config = nullptr;

  /// The fixed allocation S_P (nullptr or zero items = empty).
  const Allocation* fixed = nullptr;
  /// I_2 — the items the allocator assigns (everything S_P does not fix).
  std::vector<ItemId> items;
  /// Per-item budgets, indexed by global ItemId.
  BudgetVector budgets;

  /// RR-set accuracy + marginal-check estimator knobs (epsilon, ell,
  /// seeds, sims, threads, cache binding).
  AlgoParams params;
  /// The shared seed ranking consumed by the positional allocators
  /// (capabilities().uses_shared_ranking): one cell-keyed PRIMA+ ranking
  /// lets RR / Snake / BlockUtil differ only in the item-to-position
  /// assignment (§6.4.3).
  ImmParams ranking;
  /// Candidate pool for the slow Monte-Carlo baselines; 0 lets the
  /// engine derive the bench default (max budget + 20).
  std::size_t candidate_pool = 0;

  /// Evaluation estimator for the returned allocation's welfare stats
  /// (consumed by Engine::Allocate, not by allocators).
  EstimatorOptions eval;
  /// Evaluate welfare after allocating (Engine::Allocate). Off = the
  /// caller only wants the allocation.
  bool evaluate = true;

  /// Optional progress callback (stage labels, calling thread).
  ProgressFn progress;
  /// Optional cooperative cancellation flag. Allocators and the engine
  /// poll it between phases and return Cancelled when set; a cancelled
  /// run produces no result. Not owned; may be null.
  const std::atomic<bool>* cancel = nullptr;
};

/// Everything a run produces. Allocators fill the first block; the
/// engine adds evaluation and timing.
struct AllocateResult {
  /// The chosen allocation over `items` only (union with S_P to deploy).
  Allocation allocation;
  AlgoDiagnostics diagnostics;
  /// Free-form annotation (e.g. BestOf's chosen arm).
  std::string note;

  // --- Filled by Engine::Allocate ---
  /// True when the allocator's preconditions failed (FailedPrecondition);
  /// `skip_reason` carries the message and the fields below stay empty.
  bool skipped = false;
  std::string skip_reason;
  /// Welfare statistics of allocation ∪ S_P under the request's `eval`
  /// estimator (all algorithms of one cell are compared on the same
  /// sampled worlds when the caller keys `eval.seed` per cell).
  WelfareStats stats;
  double allocate_seconds = 0.0;  ///< seed-selection wall time
  double evaluate_seconds = 0.0;  ///< evaluation wall time
  /// Wall-time breakdown of the run by phase (RR sampling, greedy node
  /// selection, Monte-Carlo estimation — obs/phase.h). Collected on the
  /// calling thread by Engine::Allocate; zero for direct allocator calls.
  PhaseTimes phases;
};

/// One allocation algorithm behind the stable API. Implementations are
/// stateless and thread-safe: Allocate is const and every run's state
/// lives on the stack.
class Allocator {
 public:
  virtual ~Allocator() = default;

  /// The registry key this allocator serves.
  virtual AlgoKind Kind() const = 0;
  /// Canonical display name; equals AlgoName(Kind()).
  virtual const char* Name() const { return AlgoName(Kind()); }
  virtual AllocatorCapabilities Capabilities() const = 0;

  /// Runs the algorithm. Fills result->allocation (and diagnostics/note);
  /// returns FailedPrecondition when the request violates the
  /// capabilities' preconditions, Cancelled when request.cancel was set.
  virtual Status Allocate(const AllocateRequest& request,
                          AllocateResult* result) const = 0;
};

/// Shared adapter helper: polls the cooperative cancellation flag
/// (obs/cancel.h — same counted poll the RR pipeline and the greedy
/// round loops use).
inline Status CheckCancelled(const AllocateRequest& request) {
  if (CancelRequested(request.cancel)) {
    return Status::Cancelled(std::string(AlgoName(request.algo)) +
                             " cancelled");
  }
  return Status::OK();
}

/// Shared adapter helper: reports a stage label if a progress hook is
/// set, and records it as a trace instant. `stage` must be a static-
/// duration string (literal, AlgoName(), Allocator::Name()) — the trace
/// event keeps the pointer until flush.
inline void ReportProgress(const AllocateRequest& request,
                           const char* stage) {
  CWM_TRACE_INSTANT("api.stage", {{"stage", stage}});
  if (request.progress) request.progress(stage);
}

/// Shared adapter helper: the request's fixed allocation S_P, or the
/// zero-item empty allocation (which every algorithm treats as "no fixed
/// seeds").
inline const Allocation& FixedOf(const AllocateRequest& request) {
  static const Allocation kEmpty;
  return request.fixed != nullptr ? *request.fixed : kEmpty;
}

/// Shared adapter helper: Σb over the allocated items — the ranking
/// length of the allocators that give every seed its own node.
inline std::size_t TotalBudgetOf(const AllocateRequest& request) {
  std::size_t total = 0;
  for (ItemId i : request.items) {
    total += static_cast<std::size_t>(request.budgets[i]);
  }
  return total;
}

/// Shared adapter helper: the largest allocated budget — the ranking
/// length of MaxGRD, whose items all draw from one prefix.
inline std::size_t MaxBudgetOf(const AllocateRequest& request) {
  std::size_t largest = 0;
  for (ItemId i : request.items) {
    largest = std::max(largest, static_cast<std::size_t>(request.budgets[i]));
  }
  return largest;
}

/// Shared adapter helper: FailedPrecondition when a ranking of `seeds`
/// distinct nodes cannot be drawn from the `pickable` ones.
inline Status CheckRankingFits(std::size_t seeds, std::size_t pickable) {
  if (seeds <= pickable) return Status::OK();
  return Status::FailedPrecondition(
      "ranking needs " + std::to_string(seeds) + " distinct nodes but " +
      "only " + std::to_string(pickable) + " can be picked");
}

/// Shared adapter helper: the nodes a PRIMA+ ranking over `graph` may
/// pick for `request` — every node outside the fixed allocation S_P.
inline std::size_t PrimaPlusPickable(const Graph& graph,
                                     const AllocateRequest& request) {
  const std::size_t fixed = FixedOf(request).SeedNodes().size();
  return graph.num_nodes() > fixed ? graph.num_nodes() - fixed : 0;
}

/// Shared adapter helper: the request's items in decreasing expected
/// truncated utility order — the block order of SeqGRD-NM's placement
/// (Table 6), used by every block-assigning allocator.
inline std::vector<ItemId> ItemsByUtilityOf(const AllocateRequest& request) {
  std::vector<ItemId> ordered;
  for (ItemId i : request.config->ItemsByTruncatedUtilityDesc()) {
    if (std::find(request.items.begin(), request.items.end(), i) !=
        request.items.end()) {
      ordered.push_back(i);
    }
  }
  return ordered;
}

}  // namespace cwm

#endif  // CWM_API_ALLOCATOR_H_
