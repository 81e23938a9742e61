#include "algo/seq_grd.h"

#include <algorithm>
#include <memory>

#include "api/registry.h"
#include "rrset/prima_plus.h"
#include "simulate/estimator.h"

namespace cwm {

Allocation SeqGrd(const Graph& graph, const UtilityConfig& config,
                  const Allocation& sp, const std::vector<ItemId>& items,
                  const BudgetVector& budgets, const AlgoParams& params,
                  const SeqGrdOptions& options,
                  AlgoDiagnostics* diagnostics) {
  // The batched form with one point runs exactly Algorithm 1 — the level
  // set (point total == total_b is filtered and re-appended by PRIMA+)
  // and the block loop degenerate to the single-point ones — so
  // delegating keeps the two entry points bit-identical by construction.
  return std::move(SeqGrdBatch(graph, config, sp, items,
                               std::span<const BudgetVector>(&budgets, 1),
                               params, options, diagnostics)[0]);
}

std::vector<Allocation> SeqGrdBatch(
    const Graph& graph, const UtilityConfig& config, const Allocation& sp,
    const std::vector<ItemId>& items,
    std::span<const BudgetVector> budget_points, const AlgoParams& params,
    const SeqGrdOptions& options, AlgoDiagnostics* diagnostics) {
  CWM_CHECK(!items.empty());
  CWM_CHECK(!budget_points.empty());
  const Allocation sp_or_empty =
      sp.num_items() == 0 ? Allocation(config.num_items()) : sp;
  CWM_CHECK(sp_or_empty.num_items() == config.num_items());

  int total_b = 0;
  std::vector<int> levels;
  for (const BudgetVector& budgets : budget_points) {
    CWM_CHECK(budgets.size() ==
              static_cast<std::size_t>(config.num_items()));
    int point_total = 0;
    for (ItemId i : items) {
      CWM_CHECK(budgets[i] >= 1);
      point_total += budgets[i];
      levels.push_back(budgets[i]);
    }
    // Each point's block assignment consumes the prefix of size
    // point_total, so that prefix must be preserved too.
    levels.push_back(point_total);
    total_b = std::max(total_b, point_total);
  }

  // Line 2: one pooled PRIMA+ seed set sized for the largest point, with
  // every point's levels preserved — the whole budget sweep shares one
  // ranking instead of resampling per point.
  const ImmResult prima = PrimaPlus(graph, sp_or_empty.SeedNodes(), levels,
                                    total_b, params.imm);
  if (diagnostics != nullptr) {
    diagnostics->rr_count = prima.rr_count;
    diagnostics->internal_estimate = prima.coverage_estimate;
  }

  // Line 4: items in decreasing expected truncated utility (depends only
  // on the config, so it is shared by every point).
  std::vector<ItemId> order = items;
  std::stable_sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    return config.ExpectedTruncatedUtility(a) >
           config.ExpectedTruncatedUtility(b);
  });

  // One estimator for every point's marginal checks: each check's result
  // is a pure function of (base, candidate), so sharing the instance —
  // and through it the world-snapshot pool — never changes a decision.
  WelfareEstimator estimator(graph, config, params.estimator);
  std::vector<Allocation> out;
  out.reserve(budget_points.size());
  for (const BudgetVector& budgets : budget_points) {
    Allocation result(config.num_items());
    std::size_t cursor = 0;  // next unused position in the greedy order
    std::vector<ItemId> skipped;

    for (ItemId i : order) {
      // Greedy rounds poll the cooperative-cancellation flag: the
      // marginal check below is a full Monte-Carlo estimate, so without
      // this a deadline could stall one whole estimate per remaining
      // item. A cancelled run just stops accepting blocks (result
      // discarded by the caller after it re-checks the flag).
      if (CancelRequested(params.imm.cancel)) break;
      const std::size_t bi = static_cast<std::size_t>(budgets[i]);
      CWM_CHECK(cursor + bi <= prima.seeds.size());
      Allocation candidate(config.num_items());
      for (std::size_t k = 0; k < bi; ++k) {
        candidate.Add(prima.seeds[cursor + k], i);
      }
      bool accept = true;
      if (options.marginal_check) {
        // Line 8: commit only if the block adds positive marginal welfare
        // on top of everything allocated so far (including S_P). Checks
        // are inherently sequential (each base depends on the previous
        // accept), so the batch is a single candidate — but routing it
        // through the batch API shares the estimator's world-snapshot
        // pool across all of this run's checks.
        const Allocation base = Allocation::Union(result, sp_or_empty);
        accept =
            estimator.MarginalWelfareBatch(base, {&candidate, 1})[0] > 0.0;
      }
      if (accept) {
        result = Allocation::Union(result, candidate);
        cursor += bi;  // consume these seeds
      } else {
        skipped.push_back(i);
      }
    }

    // Lines 14-18: append the skipped items (arbitrary order — we reuse
    // the utility order) so every budget is exhausted. Cheap (no
    // estimator calls), so it runs even for cancelled runs — the result
    // keeps its structural invariants either way.
    for (ItemId i : skipped) {
      const std::size_t bi = static_cast<std::size_t>(budgets[i]);
      CWM_CHECK(cursor + bi <= prima.seeds.size());
      for (std::size_t k = 0; k < bi; ++k) {
        result.Add(prima.seeds[cursor + k], i);
      }
      cursor += bi;
    }
    out.push_back(std::move(result));
  }
  return out;
}

namespace {

class SeqGrdAllocator final : public Allocator {
 public:
  explicit SeqGrdAllocator(bool marginal_check)
      : marginal_check_(marginal_check) {}

  AlgoKind Kind() const override {
    return marginal_check_ ? AlgoKind::kSeqGrd : AlgoKind::kSeqGrdNm;
  }
  AllocatorCapabilities Capabilities() const override { return {}; }

  Status Allocate(const AllocateRequest& request,
                  AllocateResult* result) const override {
    if (Status cancelled = CheckCancelled(request); !cancelled.ok()) {
      return cancelled;
    }
    const std::size_t pickable = PrimaPlusPickable(*request.graph, request);
    if (Status fits = CheckRankingFits(TotalBudgetOf(request), pickable);
        !fits.ok()) {
      return fits;
    }
    result->allocation =
        SeqGrd(*request.graph, *request.config, FixedOf(request),
               request.items, request.budgets, request.params,
               {.marginal_check = marginal_check_}, &result->diagnostics);
    return Status::OK();
  }

 private:
  bool marginal_check_;
};

}  // namespace

void RegisterSeqGrdAllocators(AllocatorRegistry& registry) {
  registry.Register(std::make_unique<SeqGrdAllocator>(true));
  registry.Register(std::make_unique<SeqGrdAllocator>(false));
}

}  // namespace cwm
