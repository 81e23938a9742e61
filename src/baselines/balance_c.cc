#include "baselines/balance_c.h"

#include <algorithm>
#include <memory>
#include <queue>

#include "api/registry.h"
#include "baselines/greedy_wm.h"
#include "simulate/estimator.h"

namespace cwm {

Allocation BalanceC(const Graph& graph, const UtilityConfig& config,
                    const Allocation& sp, const std::vector<ItemId>& items,
                    const BudgetVector& budgets, const AlgoParams& params,
                    const BalanceCOptions& options) {
  CWM_CHECK_MSG(items.size() == 2 && items[0] == 0 && items[1] == 1,
                "Balance-C handles exactly the two items {0, 1}");
  const Allocation sp_or_empty =
      sp.num_items() == 0 ? Allocation(config.num_items()) : sp;
  WelfareEstimator estimator(graph, config, params.estimator);
  const std::vector<NodeId> pool =
      TopSpreadNodes(graph, options.candidate_pool, params.imm);

  std::vector<int> remaining(config.num_items(), 0);
  int total_remaining = 0;
  for (ItemId i : items) {
    remaining[i] = budgets[i];
    total_remaining += budgets[i];
    CWM_CHECK(pool.size() >= static_cast<std::size_t>(budgets[i]));
  }

  struct Entry {
    double gain;
    int round;
    NodeId node;
    ItemId item;
  };
  auto cmp = [](const Entry& a, const Entry& b) {
    if (a.gain != b.gain) return a.gain < b.gain;
    if (a.node != b.node) return a.node > b.node;
    return a.item > b.item;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);

  Allocation result(config.num_items());
  // One marginal session advanced by every pick, as in GreedyWm
  // (greedy_wm.cc).
  MarginalSession session =
      estimator.Marginals(Allocation::Union(result, sp_or_empty));
  auto marginal = [&](NodeId v, ItemId i) {
    Allocation extra(config.num_items());
    extra.Add(v, i);
    return session.BalancedExposure(extra);
  };

  // The initial candidate grid shares one base; sweep it in one batch.
  {
    const std::vector<double> gains =
        estimator.MarginalBalancedExposureBatch(
            Allocation::Union(result, sp_or_empty),
            CandidatePairGrid(config.num_items(), pool, items));
    std::size_t j = 0;
    for (NodeId v : pool) {
      for (ItemId i : items) heap.push({gains[j++], 0, v, i});
    }
  }

  int round = 0;
  while (total_remaining > 0 && !heap.empty()) {
    // Same per-pop cancellation poll as GreedyWm (see greedy_wm.cc).
    if (CancelRequested(params.imm.cancel)) break;
    Entry top = heap.top();
    heap.pop();
    if (remaining[top.item] == 0) continue;
    if (top.round != round) {
      top.gain = marginal(top.node, top.item);
      top.round = round;
      heap.push(top);
      continue;
    }
    result.Add(top.node, top.item);
    --remaining[top.item];
    --total_remaining;
    ++round;
    if (total_remaining > 0) {
      Allocation pick(config.num_items());
      pick.Add(top.node, top.item);
      session.Advance(pick);
    }
  }
  return result;
}

namespace {

class BalanceCAllocator final : public Allocator {
 public:
  AlgoKind Kind() const override { return AlgoKind::kBalanceC; }
  AllocatorCapabilities Capabilities() const override {
    return {.slow = true, .two_items_only = true};
  }

  Status Allocate(const AllocateRequest& request,
                  AllocateResult* result) const override {
    if (Status cancelled = CheckCancelled(request); !cancelled.ok()) {
      return cancelled;
    }
    // Mirror BalanceC()'s own contract (items exactly {0, 1}) so near-miss
    // requests skip instead of hitting its CWM_CHECK abort.
    if (request.config->num_items() != 2 || request.items.size() != 2 ||
        request.items[0] != 0 || request.items[1] != 1) {
      return Status::FailedPrecondition(
          "Balance-C requires exactly the two items {0, 1}");
    }
    result->allocation =
        BalanceC(*request.graph, *request.config, FixedOf(request),
                 request.items, request.budgets, request.params,
                 {.candidate_pool = request.candidate_pool});
    return Status::OK();
  }
};

}  // namespace

void RegisterBalanceCAllocator(AllocatorRegistry& registry) {
  registry.Register(std::make_unique<BalanceCAllocator>());
}

}  // namespace cwm
