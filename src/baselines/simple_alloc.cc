#include "baselines/simple_alloc.h"

#include <algorithm>
#include <memory>

#include "api/registry.h"
#include "rrset/prima_plus.h"
#include "support/check.h"

namespace cwm {

namespace {

int TotalBudget(const std::vector<ItemId>& items,
                const BudgetVector& budgets) {
  int total = 0;
  for (ItemId i : items) {
    CWM_CHECK(budgets[i] >= 0);
    total += budgets[i];
  }
  return total;
}

}  // namespace

Allocation BlockAllocate(int num_items,
                         const std::vector<NodeId>& ordered_seeds,
                         const std::vector<ItemId>& items,
                         const BudgetVector& budgets) {
  const int total = TotalBudget(items, budgets);
  CWM_CHECK(ordered_seeds.size() >= static_cast<std::size_t>(total));
  Allocation out(num_items);
  std::size_t cursor = 0;
  for (ItemId i : items) {
    for (int k = 0; k < budgets[i]; ++k) out.Add(ordered_seeds[cursor++], i);
  }
  return out;
}

Allocation RoundRobinAllocate(int num_items,
                              const std::vector<NodeId>& ordered_seeds,
                              const std::vector<ItemId>& items,
                              const BudgetVector& budgets) {
  const int total = TotalBudget(items, budgets);
  CWM_CHECK(ordered_seeds.size() >= static_cast<std::size_t>(total));
  Allocation out(num_items);
  std::vector<int> remaining(num_items, 0);
  for (ItemId i : items) remaining[i] = budgets[i];
  std::size_t cursor = 0;
  int assigned = 0;
  while (assigned < total) {
    for (ItemId i : items) {
      if (remaining[i] == 0) continue;
      out.Add(ordered_seeds[cursor++], i);
      --remaining[i];
      ++assigned;
    }
  }
  return out;
}

Allocation SnakeAllocate(int num_items,
                         const std::vector<NodeId>& ordered_seeds,
                         const std::vector<ItemId>& items,
                         const BudgetVector& budgets) {
  const int total = TotalBudget(items, budgets);
  CWM_CHECK(ordered_seeds.size() >= static_cast<std::size_t>(total));
  Allocation out(num_items);
  std::vector<int> remaining(num_items, 0);
  for (ItemId i : items) remaining[i] = budgets[i];
  std::size_t cursor = 0;
  int assigned = 0;
  bool forward = true;
  std::vector<ItemId> pass(items);
  while (assigned < total) {
    pass = items;
    if (!forward) std::reverse(pass.begin(), pass.end());
    for (ItemId i : pass) {
      if (remaining[i] == 0) continue;
      out.Add(ordered_seeds[cursor++], i);
      --remaining[i];
      ++assigned;
    }
    forward = !forward;
  }
  return out;
}

namespace {

/// Shared wiring of the PRIMA+-ranked positional allocators: one
/// cell-keyed ranking (AllocateRequest::ranking) feeds RR / Snake /
/// BlockUtil, which differ only in the item-to-position assignment.
class PositionalAllocator final : public Allocator {
 public:
  explicit PositionalAllocator(AlgoKind kind) : kind_(kind) {}

  AlgoKind Kind() const override { return kind_; }
  AllocatorCapabilities Capabilities() const override {
    return {.uses_shared_ranking = true};
  }

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
    BudgetVector level_budgets;
    int total_budget = 0;
    for (ItemId i : request.items) {
      level_budgets.push_back(request.budgets[i]);
      total_budget += request.budgets[i];
    }
    ReportProgress(request, "PRIMA+ ranking");
    const ImmResult prima =
        PrimaPlus(*request.graph, FixedOf(request).SeedNodes(),
                  level_budgets, total_budget, request.ranking);
    result->diagnostics.rr_count = prima.rr_count;
    result->diagnostics.internal_estimate = prima.coverage_estimate;
    const int m = request.config->num_items();
    switch (kind_) {
      case AlgoKind::kRoundRobin:
        result->allocation = RoundRobinAllocate(m, prima.seeds,
                                                request.items,
                                                request.budgets);
        break;
      case AlgoKind::kSnake:
        result->allocation =
            SnakeAllocate(m, prima.seeds, request.items, request.budgets);
        break;
      default:
        result->allocation = BlockAllocate(m, prima.seeds,
                                           ItemsByUtilityOf(request),
                                           request.budgets);
        break;
    }
    return Status::OK();
  }

 private:
  AlgoKind kind_;
};

}  // namespace

void RegisterPositionalAllocators(AllocatorRegistry& registry) {
  registry.Register(std::make_unique<PositionalAllocator>(AlgoKind::kRoundRobin));
  registry.Register(std::make_unique<PositionalAllocator>(AlgoKind::kSnake));
  registry.Register(
      std::make_unique<PositionalAllocator>(AlgoKind::kBlockUtility));
}

}  // namespace cwm
