#include "rrset/node_selection.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/phase.h"
#include "obs/trace.h"
#include "support/check.h"

namespace cwm {

namespace {

/// A lazy-heap entry: (gain when pushed, node).
using Entry = std::pair<double, NodeId>;

/// True if `a` pops after `b`: smaller gain, or equal gain and larger id.
/// The heap's "less"; ties break toward smaller node id for determinism.
bool PopsAfter(const Entry& a, const Entry& b) {
  return a.first != b.first ? a.first < b.first : a.second > b.second;
}

bool PopsBefore(const Entry& a, const Entry& b) { return PopsAfter(b, a); }

constexpr uint32_t kUnlisted = std::numeric_limits<uint32_t>::max();

/// Relative slack of the top-b bound (node_selection.h).
constexpr double kBoundMargin = 1e-9;

/// Adds the sets of `rr` past sums->num_sets to `*sums`, in ascending set
/// id.
void CatchUp(const RrCollection& rr, CoverageSums* sums) {
  if (sums->num_sets == 0) {
    sums->gain.assign(rr.num_nodes(), 0.0);
    sums->count.assign(rr.num_nodes(), 0);
  }
  CWM_CHECK(sums->gain.size() == rr.num_nodes());
  CWM_CHECK(sums->num_sets <= rr.size());
  const std::span<const uint64_t> offsets = rr.RawOffsets();
  const std::span<const NodeId> members = rr.RawMembers();
  const std::span<const double> weights = rr.RawWeights();
  for (std::size_t id = sums->num_sets; id < rr.size(); ++id) {
    const double w = weights[id];
    for (uint64_t m = offsets[id]; m < offsets[id + 1]; ++m) {
      sums->gain[members[m]] += w;
      ++sums->count[members[m]];
    }
  }
  sums->num_sets = rr.size();
}

/// Sum of the `b` (at most gain.size()) largest entries of `gain`, added
/// smallest first, so the sum depends on those values alone.
double TopGainSum(const std::vector<double>& gain, std::size_t b) {
  std::vector<double> top(b);
  std::partial_sort_copy(gain.begin(), gain.end(), top.begin(), top.end(),
                         std::greater<>());
  return std::accumulate(top.rbegin(), top.rend(), 0.0);
}

}  // namespace

GreedySelection SelectMaxCoverage(const RrCollection& rr,
                                  std::size_t budget) {
  CoverageSums sums;
  return *SelectMaxCoverage(rr, budget, &sums, 0.0);
}

std::optional<GreedySelection> SelectMaxCoverage(const RrCollection& rr,
                                                 std::size_t budget,
                                                 CoverageSums* sums,
                                                 double needed) {
  ScopedPhaseTimer phase(Phase::kSelect);
  TraceSpan span("rr.select_nodes",
                 {{"rr_sets", rr.size()}, {"budget", budget}});
  const std::size_t n = rr.num_nodes();
  budget = std::min(budget, n);
  GreedySelection out;
  out.seeds.reserve(budget);
  out.covered_prefix.reserve(budget);
  if (budget == 0) return out;

  CatchUp(rr, sums);
  const bool skip = needed > 0.0 && TopGainSum(sums->gain, budget) <
                                        needed * (1.0 - kBoundMargin);
  span.AddArg({"greedy", !skip});
  if (skip) return std::nullopt;

  const std::span<const uint64_t> offsets = rr.RawOffsets();
  const std::span<const NodeId> members = rr.RawMembers();
  const std::span<const double> weights = rr.RawWeights();
  const std::size_t num_sets = rr.size();
  // gain[v] = sum of weights of not-yet-covered RR sets containing v;
  // count[v] = v's list length.
  std::vector<double> gain = sums->gain;
  const std::vector<uint32_t>& count = sums->count;

  // Positive-gain nodes at their initial gains; [0, listed) are listed,
  // and candidates[listed] is the best unlisted one.
  std::vector<Entry> candidates;
  for (NodeId v = 0; v < n; ++v) {
    if (gain[v] > 0.0) candidates.push_back({gain[v], v});
  }
  std::size_t listed = 0;
  std::size_t tier = std::max<std::size_t>(4 * budget, 64);
  // slot[v] = v's position in candidates once listed. v's list, ascending
  // RR ids, is list_ids[list_begin[slot[v]] ...] of length count[v].
  std::vector<uint32_t> slot(n, kUnlisted);
  std::vector<uint64_t> list_begin;
  std::vector<uint32_t> list_ids;
  std::vector<Entry> heap;

  // Lists the next tier and pushes it at its initial gains, which is
  // where the whole-index heap still holds nodes it never popped.
  auto list_next_tier = [&]() {
    const std::size_t first = listed;
    // Every remaining node once a tier would reach an eighth of them (the
    // one-eighth rule, node_selection.h).
    std::size_t size = candidates.size() - first;
    if (8 * tier < candidates.size() && tier < size) {
      size = tier;
      std::nth_element(candidates.begin() + first,
                       candidates.begin() + first + size, candidates.end(),
                       PopsBefore);
    }
    tier *= 2;
    listed = first + size;

    std::vector<uint64_t> cursor(size);
    uint64_t total = list_ids.size();
    list_begin.resize(listed);
    for (std::size_t p = first; p < listed; ++p) {
      const NodeId v = candidates[p].second;
      slot[v] = static_cast<uint32_t>(p);
      list_begin[p] = cursor[p - first] = total;
      total += count[v];
    }
    list_ids.resize(total);
    // Filtered counting sort: one pass in ascending set id, keeping only
    // this tier's members (earlier tiers and unlisted nodes wrap past
    // `size`).
    for (std::size_t id = 0; id < num_sets; ++id) {
      for (uint64_t m = offsets[id]; m < offsets[id + 1]; ++m) {
        const uint32_t s = slot[members[m]] - static_cast<uint32_t>(first);
        if (s < size) list_ids[cursor[s]++] = static_cast<uint32_t>(id);
      }
    }
    heap.insert(heap.end(), candidates.begin() + first,
                candidates.begin() + listed);
    std::make_heap(heap.begin(), heap.end(), PopsAfter);
  };

  std::vector<char> covered(num_sets, 0);
  double covered_weight = 0.0;
  while (out.seeds.size() < budget) {
    if (listed < candidates.size() &&
        (heap.empty() || PopsAfter(heap.front(), candidates[listed]))) {
      list_next_tier();
    }
    if (heap.empty()) break;
    std::pop_heap(heap.begin(), heap.end(), PopsAfter);
    const auto [g, v] = heap.back();
    heap.pop_back();
    if (g > gain[v] + 1e-12) {
      // Stale: reinsert with the refreshed gain.
      if (gain[v] > 0.0) {
        heap.push_back({gain[v], v});
        std::push_heap(heap.begin(), heap.end(), PopsAfter);
      }
      continue;
    }
    covered_weight += gain[v];
    out.seeds.push_back(v);
    out.covered_prefix.push_back(covered_weight);
    // Mark v's RR sets covered and debit other members' gains.
    const uint64_t begin = list_begin[slot[v]];
    for (uint64_t k = begin; k < begin + count[v]; ++k) {
      const uint32_t id = list_ids[k];
      if (covered[id]) continue;
      covered[id] = 1;
      const double w = weights[id];
      for (uint64_t m = offsets[id]; m < offsets[id + 1]; ++m) {
        gain[members[m]] -= w;
      }
    }
  }

  // Fill remaining slots with zero-gain nodes (smallest ids first).
  if (out.seeds.size() < budget) {
    std::vector<char> taken(n, 0);
    for (NodeId v : out.seeds) taken[v] = 1;
    for (NodeId v = 0; out.seeds.size() < budget && v < n; ++v) {
      if (!taken[v]) {
        out.seeds.push_back(v);
        out.covered_prefix.push_back(covered_weight);
      }
    }
  }
  CWM_CHECK(out.seeds.size() == budget);
  return out;
}

}  // namespace cwm
