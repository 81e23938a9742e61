#include "rrset/rr_collection.h"

#include <algorithm>

#include "support/check.h"

namespace cwm {

uint32_t RrCollection::Add(std::span<const NodeId> members, double weight) {
  CWM_CHECK(weight >= 0.0 && weight <= 1.0 + 1e-9);
  const uint32_t id = static_cast<uint32_t>(size());
  for (NodeId v : members) CWM_CHECK(v < num_nodes_);
  rr_members_.insert(rr_members_.end(), members.begin(), members.end());
  rr_offsets_.push_back(rr_members_.size());
  rr_weights_.push_back(weight);
  total_weight_ += weight;
  return id;
}

void RrCollection::Append(std::span<const uint64_t> offsets,
                          std::span<const NodeId> members,
                          std::span<const double> weights) {
  CWM_CHECK(offsets.size() == weights.size() + 1);
  CWM_CHECK(offsets.back() - offsets.front() == members.size());
  // One reduction instead of a branch per member keeps the range check
  // vectorizable.
  NodeId max_member = 0;
  for (NodeId v : members) max_member = std::max(max_member, v);
  CWM_CHECK(members.empty() || max_member < num_nodes_);

  const uint64_t base = rr_members_.size();
  rr_members_.insert(rr_members_.end(), members.begin(), members.end());
  // resize, not reserve: an exact reserve per call would reallocate on
  // every merge of a chunked era.
  const std::size_t first = rr_offsets_.size();
  rr_offsets_.resize(first + weights.size());
  for (std::size_t k = 0; k < weights.size(); ++k) {
    CWM_CHECK(offsets[k + 1] >= offsets[k]);
    rr_offsets_[first + k] = base + (offsets[k + 1] - offsets.front());
  }
  rr_weights_.insert(rr_weights_.end(), weights.begin(), weights.end());
  for (double w : weights) {
    CWM_CHECK(w >= 0.0 && w <= 1.0 + 1e-9);
    total_weight_ += w;
  }
}

void RrCollection::Clear() {
  rr_offsets_.assign(1, 0);
  rr_members_.clear();
  rr_weights_.clear();
  total_weight_ = 0.0;
}

}  // namespace cwm
