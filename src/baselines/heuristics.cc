#include "baselines/heuristics.h"

#include <algorithm>
#include <memory>
#include <queue>

#include "api/registry.h"
#include "baselines/simple_alloc.h"
#include "support/check.h"

namespace cwm {

namespace {

std::vector<NodeId> TopKByScore(const std::vector<double>& score,
                                std::size_t k) {
  std::vector<NodeId> nodes(score.size());
  for (NodeId v = 0; v < score.size(); ++v) nodes[v] = v;
  k = std::min(k, nodes.size());
  std::partial_sort(nodes.begin(), nodes.begin() + k, nodes.end(),
                    [&](NodeId a, NodeId b) {
                      return score[a] != score[b] ? score[a] > score[b]
                                                  : a < b;
                    });
  nodes.resize(k);
  return nodes;
}

}  // namespace

std::vector<NodeId> HighDegreeRank(const Graph& graph, std::size_t k) {
  std::vector<double> score(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    score[v] = static_cast<double>(graph.OutDegree(v));
  }
  return TopKByScore(score, k);
}

std::vector<NodeId> DegreeDiscountRank(const Graph& graph, std::size_t k,
                                       double p) {
  CWM_CHECK(p >= 0.0 && p <= 1.0);
  const std::size_t n = graph.num_nodes();
  k = std::min(k, n);
  std::vector<double> dd(n);
  std::vector<int> picked_neighbours(n, 0);
  std::vector<char> selected(n, 0);
  using Entry = std::pair<double, NodeId>;
  auto cmp = [](const Entry& a, const Entry& b) {
    return a.first != b.first ? a.first < b.first : a.second > b.second;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (NodeId v = 0; v < n; ++v) {
    dd[v] = static_cast<double>(graph.OutDegree(v));
    heap.push({dd[v], v});
  }
  std::vector<NodeId> out;
  out.reserve(k);
  while (out.size() < k && !heap.empty()) {
    const auto [score, v] = heap.top();
    heap.pop();
    if (selected[v]) continue;
    if (score > dd[v] + 1e-12) continue;  // stale entry
    selected[v] = 1;
    out.push_back(v);
    // Discount the out-neighbours: dd_u = d_u - 2 t_u - (d_u - t_u) t_u p.
    for (const OutEdge& e : graph.OutEdges(v)) {
      const NodeId u = e.to;
      if (selected[u]) continue;
      const int t = ++picked_neighbours[u];
      const double d = static_cast<double>(graph.OutDegree(u));
      dd[u] = d - 2.0 * t - (d - t) * t * p;
      heap.push({dd[u], u});
    }
  }
  // Deterministic fill if the heap ran dry (k close to n).
  for (NodeId v = 0; out.size() < k && v < n; ++v) {
    if (!selected[v]) {
      selected[v] = 1;
      out.push_back(v);
    }
  }
  return out;
}

std::vector<double> ReversePageRank(const Graph& graph, double alpha,
                                    int iterations) {
  CWM_CHECK(alpha > 0.0 && alpha < 1.0);
  CWM_CHECK(iterations >= 1);
  const std::size_t n = graph.num_nodes();
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (int it = 0; it < iterations; ++it) {
    double dangling = 0.0;
    std::fill(next.begin(), next.end(), 0.0);
    // Reverse-graph random walk: mass at v splits over v's in-neighbours
    // (i.e. it walks *against* influence edges).
    for (NodeId v = 0; v < n; ++v) {
      const auto in = graph.InEdges(v);
      if (in.empty()) {
        dangling += rank[v];
        continue;
      }
      const double share = rank[v] / static_cast<double>(in.size());
      for (const InEdge& e : in) next[e.from] += share;
    }
    const double teleport =
        (1.0 - alpha) / static_cast<double>(n) +
        alpha * dangling / static_cast<double>(n);
    for (NodeId v = 0; v < n; ++v) {
      next[v] = alpha * next[v] + teleport;
    }
    rank.swap(next);
  }
  return rank;
}

std::vector<NodeId> PageRankRank(const Graph& graph, std::size_t k,
                                 double alpha, int iterations) {
  return TopKByScore(ReversePageRank(graph, alpha, iterations), k);
}

namespace {

/// Classic-IM rankings feeding utility-ordered blocks: sanity baselines
/// the RR-set algorithms must dominate (`cwm_run ranking-quality`).
class HeuristicRankAllocator final : public Allocator {
 public:
  explicit HeuristicRankAllocator(AlgoKind kind) : kind_(kind) {}

  AlgoKind Kind() const override { return kind_; }
  AllocatorCapabilities Capabilities() const override { return {}; }

  Status Allocate(const AllocateRequest& request,
                  AllocateResult* result) const override {
    if (Status cancelled = CheckCancelled(request); !cancelled.ok()) {
      return cancelled;
    }
    std::size_t total_budget = 0;
    for (ItemId i : request.items) {
      total_budget += static_cast<std::size_t>(request.budgets[i]);
    }
    const Graph& graph = *request.graph;
    std::vector<NodeId> ranking;
    switch (kind_) {
      case AlgoKind::kHighDegreeRank:
        ranking = HighDegreeRank(graph, total_budget);
        break;
      case AlgoKind::kDegreeDiscountRank:
        ranking = DegreeDiscountRank(graph, total_budget);
        break;
      default:
        ranking = PageRankRank(graph, total_budget);
        break;
    }
    // Items in decreasing expected-truncated-utility order, like
    // BlockUtil (§6.4.3): the rankings compete on placement quality only.
    result->allocation =
        BlockAllocate(request.config->num_items(), ranking,
                      ItemsByUtilityOf(request), request.budgets);
    return Status::OK();
  }

 private:
  AlgoKind kind_;
};

}  // namespace

void RegisterHeuristicRankAllocators(AllocatorRegistry& registry) {
  registry.Register(
      std::make_unique<HeuristicRankAllocator>(AlgoKind::kHighDegreeRank));
  registry.Register(std::make_unique<HeuristicRankAllocator>(
      AlgoKind::kDegreeDiscountRank));
  registry.Register(
      std::make_unique<HeuristicRankAllocator>(AlgoKind::kPageRankRank));
}

}  // namespace cwm
