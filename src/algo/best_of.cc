#include "algo/best_of.h"

#include <memory>

#include "algo/max_grd.h"
#include "algo/seq_grd.h"
#include "api/registry.h"
#include "simulate/estimator.h"

namespace cwm {

Allocation BestOfSeqMax(const Graph& graph, const UtilityConfig& config,
                        const Allocation& sp,
                        const std::vector<ItemId>& items,
                        const BudgetVector& budgets, const AlgoParams& params,
                        const char** chosen) {
  const Allocation sp_or_empty =
      sp.num_items() == 0 ? Allocation(config.num_items()) : sp;
  Allocation seq =
      SeqGrd(graph, config, sp_or_empty, items, budgets, params);
  Allocation max =
      MaxGrd(graph, config, sp_or_empty, items, budgets, params);
  WelfareEstimator estimator(graph, config, params.estimator);
  // One batched pass: both arms share each world's snapshot and utility
  // table instead of materializing the world sequence twice.
  const Allocation finals[] = {Allocation::Union(seq, sp_or_empty),
                               Allocation::Union(max, sp_or_empty)};
  const std::vector<WelfareStats> stats = estimator.StatsBatch(finals);
  const double seq_welfare = stats[0].welfare;
  const double max_welfare = stats[1].welfare;
  if (seq_welfare >= max_welfare) {
    if (chosen != nullptr) *chosen = "SeqGRD";
    return seq;
  }
  if (chosen != nullptr) *chosen = "MaxGRD";
  return max;
}

namespace {

class BestOfAllocator final : public Allocator {
 public:
  AlgoKind Kind() const override { return AlgoKind::kBestOf; }
  AllocatorCapabilities Capabilities() const override { return {}; }

  Status Allocate(const AllocateRequest& request,
                  AllocateResult* result) const override {
    if (Status cancelled = CheckCancelled(request); !cancelled.ok()) {
      return cancelled;
    }
    // The SeqGRD arm ranks Σb nodes; the MaxGRD arm's max b fits in that.
    const std::size_t pickable = PrimaPlusPickable(*request.graph, request);
    if (Status fits = CheckRankingFits(TotalBudgetOf(request), pickable);
        !fits.ok()) {
      return fits;
    }
    ReportProgress(request, "SeqGRD + MaxGRD arms");
    const char* chosen = nullptr;
    result->allocation =
        BestOfSeqMax(*request.graph, *request.config, FixedOf(request),
                     request.items, request.budgets, request.params,
                     &chosen);
    if (chosen != nullptr) result->note = std::string("chose ") + chosen;
    return Status::OK();
  }
};

}  // namespace

void RegisterBestOfAllocator(AllocatorRegistry& registry) {
  registry.Register(std::make_unique<BestOfAllocator>());
}

}  // namespace cwm
