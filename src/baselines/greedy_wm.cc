#include "baselines/greedy_wm.h"

#include <algorithm>
#include <memory>
#include <queue>

#include "api/registry.h"
#include "rrset/prima_plus.h"
#include "simulate/estimator.h"

namespace cwm {

std::vector<NodeId> TopOutDegreeNodes(const Graph& graph, std::size_t pool) {
  std::vector<NodeId> nodes(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) nodes[v] = v;
  if (pool == 0 || pool >= graph.num_nodes()) return nodes;
  std::partial_sort(nodes.begin(), nodes.begin() + pool, nodes.end(),
                    [&](NodeId a, NodeId b) {
                      const auto da = graph.OutDegree(a);
                      const auto db = graph.OutDegree(b);
                      return da != db ? da > db : a < b;
                    });
  nodes.resize(pool);
  return nodes;
}

std::vector<NodeId> TopSpreadNodes(const Graph& graph, std::size_t pool,
                                   const ImmParams& params) {
  if (pool == 0 || pool >= graph.num_nodes()) {
    return TopOutDegreeNodes(graph, 0);
  }
  return PrimaPlus(graph, {}, {static_cast<int>(pool)},
                   static_cast<int>(pool), params)
      .seeds;
}

std::vector<Allocation> CandidatePairGrid(int num_items,
                                          const std::vector<NodeId>& pool,
                                          const std::vector<ItemId>& items) {
  std::vector<Allocation> grid;
  grid.reserve(pool.size() * items.size());
  for (NodeId v : pool) {
    for (ItemId i : items) {
      Allocation extra(num_items);
      extra.Add(v, i);
      grid.push_back(std::move(extra));
    }
  }
  return grid;
}

Allocation GreedyWm(const Graph& graph, const UtilityConfig& config,
                    const Allocation& sp, const std::vector<ItemId>& items,
                    const BudgetVector& budgets, const AlgoParams& params,
                    const GreedyWmOptions& options) {
  CWM_CHECK(!items.empty());
  const Allocation sp_or_empty =
      sp.num_items() == 0 ? Allocation(config.num_items()) : sp;
  WelfareEstimator estimator(graph, config, params.estimator);
  const std::vector<NodeId> pool =
      TopSpreadNodes(graph, options.candidate_pool, params.imm);

  std::vector<int> remaining(config.num_items(), 0);
  int total_remaining = 0;
  int max_budget = 0;
  for (ItemId i : items) {
    remaining[i] = budgets[i];
    total_remaining += budgets[i];
    max_budget = std::max(max_budget, budgets[i]);
  }
  // Every item draws its seeds from the pool, so the pool must cover the
  // largest single budget.
  CWM_CHECK(pool.size() >= static_cast<std::size_t>(max_budget));

  // CELF entries: (gain, evaluation round, node, item). An entry is fresh
  // if it was evaluated in the current round (== picks made so far).
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
  // Lazy CELF refreshes are sequential, but every refresh of one round
  // shares its base (the picks so far): the session keeps the base
  // diffusion recorded per world, each refresh re-simulates only the
  // candidate's live-reach region on top of it, and each pick advances
  // the records by the pick's own region instead of re-recording them.
  MarginalSession session =
      estimator.Marginals(Allocation::Union(result, sp_or_empty));
  auto marginal = [&](NodeId v, ItemId i) {
    Allocation extra(config.num_items());
    extra.Add(v, i);
    return session.Welfare(extra);
  };

  // Initial heap population: the full (node, item) candidate grid shares
  // one base (nothing picked yet), so all pool x items marginals go
  // through a single batched sweep — one snapshot build and one base
  // diffusion per world for the entire grid.
  {
    const std::vector<double> gains = estimator.MarginalWelfareBatch(
        Allocation::Union(result, sp_or_empty),
        CandidatePairGrid(config.num_items(), pool, items));
    std::size_t j = 0;
    for (NodeId v : pool) {
      for (ItemId i : items) {
        heap.push({gains[j++], 0, v, i});
      }
    }
  }

  int round = 0;
  while (total_remaining > 0 && !heap.empty()) {
    // Each lazy refresh is a full Monte-Carlo marginal, so poll the
    // cooperative-cancellation flag per CELF pop; a cancelled run breaks
    // with a partial allocation the caller discards.
    if (CancelRequested(params.imm.cancel)) break;
    Entry top = heap.top();
    heap.pop();
    if (remaining[top.item] == 0) continue;  // budget exhausted
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

class GreedyWmAllocator final : public Allocator {
 public:
  AlgoKind Kind() const override { return AlgoKind::kGreedyWm; }
  AllocatorCapabilities Capabilities() const override {
    return {.slow = true};
  }

  Status Allocate(const AllocateRequest& request,
                  AllocateResult* result) const override {
    if (Status cancelled = CheckCancelled(request); !cancelled.ok()) {
      return cancelled;
    }
    result->allocation =
        GreedyWm(*request.graph, *request.config, FixedOf(request),
                 request.items, request.budgets, request.params,
                 {.candidate_pool = request.candidate_pool});
    return Status::OK();
  }
};

}  // namespace

void RegisterGreedyWmAllocator(AllocatorRegistry& registry) {
  registry.Register(std::make_unique<GreedyWmAllocator>());
}

}  // namespace cwm
