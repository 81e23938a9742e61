#include "rrset/rr_sampler.h"

#include <algorithm>

namespace cwm {

FixedAllocationIndex FixedAllocationIndex::Build(std::size_t num_nodes,
                                                 const UtilityConfig& config,
                                                 const Allocation& sp) {
  FixedAllocationIndex out;
  out.is_seed.assign(num_nodes, 0);
  out.best_value.assign(num_nodes, 0.0);
  for (ItemId i = 0; i < sp.num_items(); ++i) {
    const double value = config.ExpectedTruncatedUtility(i);
    for (NodeId v : sp.SeedsOf(i)) {
      CWM_CHECK(v < num_nodes);
      out.is_seed[v] = 1;
      out.best_value[v] = std::max(out.best_value[v], value);
    }
  }
  return out;
}

RrSampler::RrSampler(const Graph& graph)
    : graph_(graph), stamp_(graph.num_nodes(), 0) {}

bool RrSampler::Visit(NodeId v) {
  if (stamp_[v] == epoch_) return false;
  stamp_[v] = epoch_;
  return true;
}

// The samplers draw from a local copy of the caller's Rng and write it
// back on every return path. Drawing through the reference, GCC keeps the
// xoshiro state in memory, loading and storing all four words per in-edge
// coin; a local whose address never escapes lives in registers. The draws
// and their order are unchanged, so a caller reusing one Rng across
// samples sees the same state as if the sampler drew from it directly.

void RrSampler::SampleStandard(Rng& caller_rng, std::vector<NodeId>* out) {
  Rng rng = caller_rng;
  out->clear();
  ++epoch_;
  const NodeId root = static_cast<NodeId>(rng.NextBounded(graph_.num_nodes()));
  Visit(root);
  out->push_back(root);
  for (std::size_t head = 0; head < out->size(); ++head) {
    const NodeId u = (*out)[head];
    for (const InEdge& e : graph_.InEdges(u)) {
      if (!rng.NextBernoulli(e.prob)) continue;
      if (!Visit(e.from)) continue;
      out->push_back(e.from);
    }
  }
  caller_rng = rng;
}

void RrSampler::SampleMarginal(Rng& caller_rng,
                               const std::vector<char>& blocked,
                               std::vector<NodeId>* out) {
  Rng rng = caller_rng;
  out->clear();
  ++epoch_;
  const NodeId root = static_cast<NodeId>(rng.NextBounded(graph_.num_nodes()));
  if (blocked[root]) {  // zeroed immediately
    caller_rng = rng;
    return;
  }
  Visit(root);
  out->push_back(root);
  for (std::size_t head = 0; head < out->size(); ++head) {
    const NodeId u = (*out)[head];
    for (const InEdge& e : graph_.InEdges(u)) {
      if (!rng.NextBernoulli(e.prob)) continue;
      if (!Visit(e.from)) continue;
      if (blocked[e.from]) {
        // Hitting S_P zeroes the whole sample (Algorithm 3, line 4-5).
        out->clear();
        caller_rng = rng;
        return;
      }
      out->push_back(e.from);
    }
  }
  caller_rng = rng;
}

double RrSampler::SampleWeighted(Rng& caller_rng,
                                 const FixedAllocationIndex& fixed,
                                 double wmax_im, std::vector<NodeId>* out) {
  Rng rng = caller_rng;
  out->clear();
  ++epoch_;
  queue_.clear();
  const NodeId root = static_cast<NodeId>(rng.NextBounded(graph_.num_nodes()));
  Visit(root);
  queue_.push_back(root);
  double best_hit = -1.0;  // best fixed-item value among hit S_P seeds
  if (fixed.is_seed[root]) best_hit = fixed.best_value[root];

  std::size_t level_begin = 0;
  while (level_begin < queue_.size() && best_hit < 0.0) {
    const std::size_t level_end = queue_.size();
    for (std::size_t idx = level_begin; idx < level_end; ++idx) {
      const NodeId u = queue_[idx];
      for (const InEdge& e : graph_.InEdges(u)) {
        if (!rng.NextBernoulli(e.prob)) continue;
        if (!Visit(e.from)) continue;
        queue_.push_back(e.from);
        if (fixed.is_seed[e.from]) {
          // Complete this level (so all equally-near S_P seeds count for
          // the weight) and then stop expanding.
          best_hit = std::max(best_hit, fixed.best_value[e.from]);
        }
      }
    }
    level_begin = level_end;
  }
  caller_rng = rng;
  out->assign(queue_.begin(), queue_.end());
  const double weight = best_hit < 0.0 ? wmax_im : wmax_im - best_hit;
  return std::max(0.0, weight);
}

}  // namespace cwm
