#include "api/engine.h"

#include <algorithm>
#include <mutex>
#include <span>
#include <utility>

#include "algo/max_grd.h"
#include "algo/seq_grd.h"
#include "delta/overlay.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "simulate/estimator.h"
#include "store/format.h"
#include "support/timer.h"

namespace cwm {

Engine::Engine(const Graph& graph, const UtilityConfig& config,
               EngineOptions options)
    : config_(&config),
      options_(options),
      pool_store_(options.snapshot_budget_bytes) {
  auto state = std::make_shared<GraphState>();
  state->graph = &graph;
  state->hash = options.graph_hash != 0 ? options.graph_hash
                                        : GraphContentHash(graph);
  state_ = std::move(state);
}

Engine::Engine(std::unique_ptr<const Graph> owned_graph,
               std::unique_ptr<const UtilityConfig> owned_config,
               EngineOptions options)
    : owned_config_(std::move(owned_config)),
      config_(owned_config_.get()),
      options_(options),
      pool_store_(options.snapshot_budget_bytes) {
  auto state = std::make_shared<GraphState>();
  state->owned = std::move(owned_graph);
  state->graph = state->owned.get();
  state->hash = options.graph_hash != 0 ? options.graph_hash
                                        : GraphContentHash(*state->graph);
  state_ = std::move(state);
}

std::shared_ptr<const Engine::GraphState> Engine::CurrentState() const {
  std::shared_lock lock(state_mutex_);
  return state_;
}

std::vector<DeltaChainLink> Engine::delta_chain() const {
  std::shared_lock lock(state_mutex_);
  return chain_;
}

Status Engine::ApplyDelta(const DeltaLog& log, ApplyDeltaResult* result) {
  // Appliers serialize here; readers keep pinning the pre-swap state via
  // CurrentState() until the single unique-lock swap below.
  std::lock_guard apply_lock(apply_mutex_);
  const std::shared_ptr<const GraphState> old_state = CurrentState();

  CWM_TRACE_SPAN("api.apply_delta", {{"edits", log.edits.size()}});
  StatusOr<AppliedDelta> applied =
      ApplyDeltaToGraph(*old_state->graph, log, old_state->hash);
  if (!applied.ok()) return applied.status();
  AppliedDelta& a = applied.value();

  ApplyDeltaResult outcome;
  outcome.old_hash = a.base_hash;
  outcome.new_hash = a.result_hash;
  outcome.dirty_nodes = a.dirty_nodes.size();
  outcome.first_dirty_edge = a.first_dirty_edge;
  // Taken only when the hash moves: a no-op delta keeps the working set
  // for the next one.
  if (options_.cache != nullptr && a.base_hash != a.result_hash) {
    outcome.rr = PatchCachedRrEras(
        *options_.cache, a.graph, a.base_hash, a.result_hash, a.dirty_nodes,
        options_.cache->TakeRrWorkingSet(a.base_hash));
  }

  auto next = std::make_shared<GraphState>();
  next->owned = std::make_unique<const Graph>(std::move(a.graph));
  next->graph = next->owned.get();
  next->hash = a.result_hash;
  pool_store_.NotifyDelta(*old_state->graph, *next->graph,
                          a.first_dirty_edge);

  {
    std::unique_lock lock(state_mutex_);
    retired_.push_back(state_);
    state_ = std::move(next);
    chain_.push_back(DeltaChainLink{a.log_hash, log.edits.size(),
                                    a.dirty_nodes.size(), a.result_hash});
  }
  if (result != nullptr) *result = outcome;
  return Status::OK();
}

StatusOr<std::unique_ptr<Engine>> Engine::Open(const NetworkSpec& network,
                                               const ConfigSpec& config,
                                               EngineOptions options,
                                               double scale) {
  uint64_t stored_hash = 0;
  StatusOr<Graph> graph = network.Build(scale, options.cache, &stored_hash);
  if (!graph.ok()) return graph.status();
  StatusOr<UtilityConfig> utilities = config.Build();
  if (!utilities.ok()) return utilities.status();
  if (options.graph_hash == 0) options.graph_hash = stored_hash;
  return std::unique_ptr<Engine>(new Engine(
      std::make_unique<const Graph>(std::move(graph).value()),
      std::make_unique<const UtilityConfig>(std::move(utilities).value()),
      options));
}

namespace {

/// Structural validation of a request against the engine's configuration
/// and graph, so malformed embedder input fails with a Status instead of
/// reaching the algorithms' unchecked indexing / CWM_CHECK aborts.
Status ValidateRequest(const AllocateRequest& request,
                       const UtilityConfig& config, std::size_t num_nodes) {
  const int m = config.num_items();
  if (request.items.empty()) {
    return Status::InvalidArgument("AllocateRequest: no items to allocate");
  }
  if (request.budgets.size() != static_cast<std::size_t>(m)) {
    return Status::InvalidArgument(
        "AllocateRequest: budgets must have one entry per config item");
  }
  for (ItemId i : request.items) {
    if (i < 0 || i >= m) {
      return Status::InvalidArgument(
          "AllocateRequest: item id out of range");
    }
    if (std::count(request.items.begin(), request.items.end(), i) != 1) {
      return Status::InvalidArgument("AllocateRequest: duplicate item id");
    }
  }
  for (int b : request.budgets) {
    if (b < 0) {
      return Status::InvalidArgument("AllocateRequest: negative budget");
    }
  }
  // No item can have more distinct seed nodes than the graph has. (Sums
  // above the node count are the allocators' call: several rank that
  // many distinct nodes and report FailedPrecondition, the rest reuse
  // nodes across items.)
  for (ItemId i : request.items) {
    if (static_cast<std::size_t>(request.budgets[i]) > num_nodes) {
      return Status::InvalidArgument(
          "AllocateRequest: budget " + std::to_string(request.budgets[i]) +
          " exceeds the graph's " + std::to_string(num_nodes) + " nodes");
    }
  }
  if (request.fixed != nullptr && request.fixed->num_items() != 0 &&
      request.fixed->num_items() != m) {
    return Status::InvalidArgument(
        "AllocateRequest: fixed allocation item count mismatch");
  }
  if (request.fixed != nullptr) {
    const std::vector<NodeId> fixed_nodes = request.fixed->SeedNodes();
    if (!fixed_nodes.empty() && fixed_nodes.back() >= num_nodes) {
      return Status::InvalidArgument(
          "AllocateRequest: fixed allocation seeds a node outside the graph");
    }
  }
  return Status::OK();
}

}  // namespace

void Engine::BindRequest(AllocateRequest* request,
                         const GraphState& state) const {
  request->graph = state.graph;
  request->config = config_;
  if (request->params.imm.cache == nullptr) {
    request->params.imm.cache = options_.cache;
  }
  if (request->params.imm.graph_hash == 0) {
    request->params.imm.graph_hash = state.hash;
  }
  if (request->ranking.cache == nullptr) {
    request->ranking.cache = options_.cache;
  }
  if (request->ranking.graph_hash == 0) {
    request->ranking.graph_hash = state.hash;
  }
  // Thread the request-level cancellation flag into the sampling and
  // ranking parameter blocks, so the RR pipeline's per-chunk polls and
  // the greedy round loops observe a deadline mid-run instead of only
  // between engine phases.
  if (request->params.imm.cancel == nullptr) {
    request->params.imm.cancel = request->cancel;
  }
  if (request->ranking.cancel == nullptr) {
    request->ranking.cancel = request->cancel;
  }
  if (request->params.estimator.pool_store == nullptr) {
    request->params.estimator.pool_store = &pool_store_;
  }
  if (request->eval.pool_store == nullptr) {
    request->eval.pool_store = &pool_store_;
  }
  if (request->candidate_pool == 0 && !request->budgets.empty()) {
    // The bench default for the slow baselines: a pool around the
    // largest budget.
    request->candidate_pool =
        static_cast<std::size_t>(*std::max_element(
            request->budgets.begin(), request->budgets.end())) +
        20;
  }
}

Status Engine::Allocate(AllocateRequest request,
                        AllocateResult* result) const {
  const Allocator* allocator = GlobalAllocatorRegistry().Find(request.algo);
  if (allocator == nullptr) {
    return Status::NotFound(std::string("no allocator registered for '") +
                            AlgoName(request.algo) + "'");
  }
  // Pin the graph state current right now: a concurrent ApplyDelta swap
  // never retargets an allocation mid-run.
  const std::shared_ptr<const GraphState> state = CurrentState();
  if (Status valid =
          ValidateRequest(request, *config_, state->graph->num_nodes());
      !valid.ok()) {
    return valid;
  }
  *result = AllocateResult{};

  // Bind the engine's long-lived state into the request, never
  // overriding caller-pinned values.
  BindRequest(&request, *state);

  if (Status cancelled = CheckCancelled(request); !cancelled.ok()) {
    return cancelled;
  }
  // Phase attribution (obs/phase.h): the instrumented entry points all
  // block on this thread, so the collector sees the whole run.
  PhaseCollector phases;
  CWM_TRACE_SPAN("api.allocate", {{"algo", allocator->Name()}});
  ReportProgress(request, allocator->Name());
  Timer allocate_timer;
  const Status run = allocator->Allocate(request, result);
  result->allocate_seconds = allocate_timer.Seconds();
  if (!run.ok()) {
    if (run.code() == Status::Code::kFailedPrecondition) {
      // Preconditions are a property of the request's content, not an
      // engine failure: report a skipped result the caller can record.
      result->skipped = true;
      result->skip_reason = run.message();
      result->phases = phases.times();
      return Status::OK();
    }
    return run;
  }
  // A cancelled inner loop returns OK with a structurally valid filler
  // allocation (so mid-algorithm invariants hold); the engine is the
  // discard point — re-check the flag here so a cancelled run never
  // reaches evaluation or the caller's hands.
  if (Status cancelled = CheckCancelled(request); !cancelled.ok()) {
    return cancelled;
  }

  if (request.evaluate) {
    ReportProgress(request, "evaluate");
    CWM_TRACE_SPAN("api.evaluate", {{"worlds", request.eval.num_worlds}});
    Timer evaluate_timer;
    const WelfareEstimator evaluator(*state->graph, *config_, request.eval);
    const Allocation& sp = FixedOf(request);
    const Allocation deployed = Allocation::Union(
        result->allocation,
        sp.num_items() == 0 ? Allocation(config_->num_items()) : sp);
    // Batch-of-1 so the evaluation worlds resolve through the keyed pool
    // store: every estimator with this (seed, num_worlds) — e.g. each
    // task of one sweep cell — shares the materialization. Bit-identical
    // to the streaming Stats() path.
    result->stats =
        evaluator.StatsBatch(std::span<const Allocation>(&deployed, 1))[0];
    result->evaluate_seconds = evaluate_timer.Seconds();
    // A deadline that fired during evaluation must not turn into a late
    // success: same discard point as after allocation.
    if (Status cancelled = CheckCancelled(request); !cancelled.ok()) {
      return cancelled;
    }
  }
  result->phases = phases.times();
  return Status::OK();
}

Status Engine::AllocateBatch(AllocateRequest request,
                             std::span<const BudgetVector> budget_points,
                             std::vector<AllocateResult>* results) const {
  if (budget_points.empty()) {
    return Status::InvalidArgument("AllocateBatch: no budget points");
  }
  results->clear();

  // One Allocate per point, bit-identical to the loop this call replaces.
  const auto point_by_point = [&]() -> Status {
    results->resize(budget_points.size());
    for (std::size_t p = 0; p < budget_points.size(); ++p) {
      AllocateRequest point = request;
      point.budgets = budget_points[p];
      if (Status run = Allocate(std::move(point), &(*results)[p]);
          !run.ok()) {
        return run;
      }
    }
    return Status::OK();
  };
  const bool shares_ranking = request.algo == AlgoKind::kMaxGrd ||
                              request.algo == AlgoKind::kSeqGrd ||
                              request.algo == AlgoKind::kSeqGrdNm;
  // No cross-point sharing for this algorithm.
  if (!shares_ranking) return point_by_point();

  // Validate every point up front: one bad point fails the whole batch
  // before any sampling happens. The batch algorithms additionally
  // require a positive budget per allocated item (their prefix blocks
  // have no zero-size form).
  const std::shared_ptr<const GraphState> state = CurrentState();
  const std::size_t pickable = PrimaPlusPickable(*state->graph, request);
  bool ranking_fits = true;
  for (const BudgetVector& budgets : budget_points) {
    AllocateRequest point = request;
    point.budgets = budgets;
    if (Status valid =
            ValidateRequest(point, *config_, state->graph->num_nodes());
        !valid.ok()) {
      return valid;
    }
    for (ItemId i : request.items) {
      if (budgets[i] < 1) {
        return Status::InvalidArgument(
            "AllocateBatch: every allocated item needs budget >= 1");
      }
    }
    const std::size_t seeds = request.algo == AlgoKind::kMaxGrd
                                  ? MaxBudgetOf(point)
                                  : TotalBudgetOf(point);
    ranking_fits = ranking_fits && seeds <= pickable;
  }
  // A point whose ranking would need more nodes than PRIMA+ can pick
  // leaves no ranking to share: run point by point, where Allocate
  // reports that point skipped.
  if (!ranking_fits) return point_by_point();

  request.budgets = budget_points.front();
  BindRequest(&request, *state);
  if (Status cancelled = CheckCancelled(request); !cancelled.ok()) {
    return cancelled;
  }

  PhaseCollector phases;
  CWM_TRACE_SPAN("api.allocate_batch", {{"algo", AlgoName(request.algo)},
                                        {"points", budget_points.size()}});
  ReportProgress(request, AlgoName(request.algo));
  Timer allocate_timer;
  AlgoDiagnostics diagnostics;
  std::vector<Allocation> allocations;
  if (request.algo == AlgoKind::kMaxGrd) {
    allocations =
        MaxGrdBatch(*state->graph, *config_, FixedOf(request), request.items,
                    budget_points, request.params, &diagnostics);
  } else {
    allocations = SeqGrdBatch(
        *state->graph, *config_, FixedOf(request), request.items,
        budget_points, request.params,
        {.marginal_check = request.algo == AlgoKind::kSeqGrd},
        &diagnostics);
  }
  const double allocate_seconds = allocate_timer.Seconds();
  // Same discard point as Allocate: a cancelled batch returns filler
  // allocations that must never reach evaluation or the caller.
  if (Status cancelled = CheckCancelled(request); !cancelled.ok()) {
    return cancelled;
  }

  results->resize(budget_points.size());
  double evaluate_seconds = 0.0;
  if (request.evaluate) {
    ReportProgress(request, "evaluate");
    CWM_TRACE_SPAN("api.evaluate", {{"worlds", request.eval.num_worlds}});
    Timer evaluate_timer;
    const WelfareEstimator evaluator(*state->graph, *config_, request.eval);
    const Allocation& sp = FixedOf(request);
    const Allocation sp_or_empty =
        sp.num_items() == 0 ? Allocation(config_->num_items()) : sp;
    std::vector<Allocation> deployed;
    deployed.reserve(allocations.size());
    for (const Allocation& allocation : allocations) {
      deployed.push_back(Allocation::Union(allocation, sp_or_empty));
    }
    // One batched evaluation for the whole sweep: every point is scored
    // on the same materialized worlds, bit-identical to evaluating each
    // point alone with the same eval options.
    const std::vector<WelfareStats> stats = evaluator.StatsBatch(deployed);
    for (std::size_t p = 0; p < budget_points.size(); ++p) {
      (*results)[p].stats = stats[p];
    }
    evaluate_seconds = evaluate_timer.Seconds();
    if (Status cancelled = CheckCancelled(request); !cancelled.ok()) {
      return cancelled;
    }
  }

  const PhaseTimes batch_phases = phases.times();
  for (std::size_t p = 0; p < budget_points.size(); ++p) {
    AllocateResult& result = (*results)[p];
    result.allocation = std::move(allocations[p]);
    result.diagnostics = diagnostics;
    // The ranking and evaluation are shared across the batch, so wall
    // time is attributed evenly — per-point times are averages, not
    // independent measurements.
    result.allocate_seconds =
        allocate_seconds / static_cast<double>(budget_points.size());
    result.evaluate_seconds =
        evaluate_seconds / static_cast<double>(budget_points.size());
    result.phases = batch_phases;
  }
  return Status::OK();
}

}  // namespace cwm
