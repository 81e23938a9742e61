// A fixture graph whose edge probabilities hit every edge case of the edge
// coins: p = 0 and p = 1 (EdgeWorld::Live's short-circuits and the
// threshold table's sentinels), the smallest positive float, 1e-6, 0.25,
// 0.5 and the largest float below 1. Shared by the snapshot
// (simulate_test) and patch (delta_test) suites, which each check their
// materialized worlds against the streaming coins on it.
#ifndef CWM_TESTS_COIN_EDGE_GRAPH_H_
#define CWM_TESTS_COIN_EDGE_GRAPH_H_

#include <cmath>
#include <limits>
#include <vector>

#include "graph/graph_builder.h"
#include "support/rng.h"

namespace cwm {

/// The edge probabilities the coin tests sweep (floats, as edges store
/// them).
inline std::vector<float> CoinEdgeProbabilities() {
  return {0.0f,
          std::numeric_limits<float>::denorm_min(),
          1e-6f,
          0.25f,
          0.5f,
          std::nextafter(1.0f, 0.0f),
          1.0f};
}

/// A reproducible sparse digraph whose edges cycle through
/// CoinEdgeProbabilities(); the p = 1 edges make cascades long enough to
/// reach most of the graph.
inline Graph CoinEdgeGraph() {
  const std::vector<float> probs = CoinEdgeProbabilities();
  constexpr uint32_t kNodes = 160;
  GraphBuilder b(kNodes);
  Rng rng(7);
  for (std::size_t e = 0; e < 1100; ++e) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(kNodes));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(kNodes));
    if (u == v) continue;
    b.AddEdge(u, v, probs[e % probs.size()]);
  }
  return std::move(b).Build();
}

}  // namespace cwm

#endif  // CWM_TESTS_COIN_EDGE_GRAPH_H_
