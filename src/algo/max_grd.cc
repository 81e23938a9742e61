#include "algo/max_grd.h"

#include <algorithm>
#include <memory>

#include "api/registry.h"
#include "rrset/prima_plus.h"
#include "simulate/estimator.h"

namespace cwm {

Allocation MaxGrd(const Graph& graph, const UtilityConfig& config,
                  const Allocation& sp, const std::vector<ItemId>& items,
                  const BudgetVector& budgets, const AlgoParams& params,
                  AlgoDiagnostics* diagnostics) {
  // The batched form with one point runs exactly Algorithm 2 — the level
  // set, ranking, and scoring sweep all degenerate to the single-point
  // ones — so delegating keeps the two entry points bit-identical by
  // construction.
  return std::move(MaxGrdBatch(graph, config, sp, items,
                               std::span<const BudgetVector>(&budgets, 1),
                               params, diagnostics)[0]);
}

std::vector<Allocation> MaxGrdBatch(
    const Graph& graph, const UtilityConfig& config, const Allocation& sp,
    const std::vector<ItemId>& items,
    std::span<const BudgetVector> budget_points, const AlgoParams& params,
    AlgoDiagnostics* diagnostics) {
  CWM_CHECK(!items.empty());
  CWM_CHECK(!budget_points.empty());
  const Allocation sp_or_empty =
      sp.num_items() == 0 ? Allocation(config.num_items()) : sp;

  int max_b = 0;
  std::vector<int> levels;
  for (const BudgetVector& budgets : budget_points) {
    CWM_CHECK(budgets.size() ==
              static_cast<std::size_t>(config.num_items()));
    for (ItemId i : items) {
      CWM_CHECK(budgets[i] >= 1);
      max_b = std::max(max_b, budgets[i]);
      levels.push_back(budgets[i]);
    }
  }

  // Line 1: one PRIMA+ seed set of size b = the largest budget anywhere
  // in the batch. Prefix preservation holds at the union of every
  // point's levels, so each (point, item) prefix is near-optimal for its
  // own budget — this is what lets a whole budget sweep share one
  // ranking instead of resampling per point.
  const ImmResult prima = PrimaPlus(graph, sp_or_empty.SeedNodes(), levels,
                                    max_b, params.imm);
  if (diagnostics != nullptr) {
    diagnostics->rr_count = prima.rr_count;
    diagnostics->internal_estimate = prima.coverage_estimate;
  }

  // Line 3: pick, per point, the item whose prefix allocation yields the
  // best marginal welfare. With S_P = ∅ this is E[U+(i)] * sigma(S_i)
  // (single-item allocations diffuse independently), estimated by Monte
  // Carlo for consistency with S_P != ∅ runs. All (point, item)
  // candidates are scored in one batched pass, so every possible world
  // is materialized once for the entire sweep instead of once per item
  // per point.
  WelfareEstimator estimator(graph, config, params.estimator);
  std::vector<Allocation> candidates;
  candidates.reserve(budget_points.size() * items.size());
  for (const BudgetVector& budgets : budget_points) {
    for (ItemId i : items) {
      Allocation candidate(config.num_items());
      const std::size_t bi = static_cast<std::size_t>(budgets[i]);
      for (std::size_t k = 0; k < bi; ++k) candidate.Add(prima.seeds[k], i);
      candidates.push_back(std::move(candidate));
    }
  }
  std::vector<double> welfare;
  if (sp_or_empty.Empty()) {
    welfare.reserve(candidates.size());
    for (const WelfareStats& stats : estimator.StatsBatch(candidates)) {
      welfare.push_back(stats.welfare);
    }
  } else {
    welfare = estimator.MarginalWelfareBatch(sp_or_empty, candidates);
  }

  std::vector<Allocation> out;
  out.reserve(budget_points.size());
  std::size_t j = 0;
  for (std::size_t p = 0; p < budget_points.size(); ++p) {
    double best_welfare = -1.0;
    Allocation best(config.num_items());
    for (std::size_t k = 0; k < items.size(); ++k, ++j) {
      if (welfare[j] > best_welfare) {
        best_welfare = welfare[j];
        best = candidates[j];
      }
    }
    out.push_back(std::move(best));
  }
  return out;
}

namespace {

class MaxGrdAllocator final : public Allocator {
 public:
  AlgoKind Kind() const override { return AlgoKind::kMaxGrd; }
  AllocatorCapabilities Capabilities() const override { return {}; }

  Status Allocate(const AllocateRequest& request,
                  AllocateResult* result) const override {
    if (Status cancelled = CheckCancelled(request); !cancelled.ok()) {
      return cancelled;
    }
    const std::size_t pickable = PrimaPlusPickable(*request.graph, request);
    if (Status fits = CheckRankingFits(MaxBudgetOf(request), pickable);
        !fits.ok()) {
      return fits;
    }
    result->allocation =
        MaxGrd(*request.graph, *request.config, FixedOf(request),
               request.items, request.budgets, request.params,
               &result->diagnostics);
    return Status::OK();
  }
};

}  // namespace

void RegisterMaxGrdAllocator(AllocatorRegistry& registry) {
  registry.Register(std::make_unique<MaxGrdAllocator>());
}

}  // namespace cwm
