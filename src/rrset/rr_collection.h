// Storage for (weighted) reverse-reachable set collections.
//
// A collection R of RR sets supports the coverage estimator at the heart of
// IMM-family algorithms: M_R(S) = sum over R in R of w(R) * I[S covers R]
// (§5.3, Lemma 6). Weights are normalized by the caller to [0, 1] so the
// martingale concentration bounds apply unchanged (Lemma 7's x_i).
//
// Empty RR sets are first-class citizens: the marginal sampler (Algorithm 3)
// yields the empty set whenever a reverse BFS hits the fixed seed set S_P,
// and those samples still count toward the sample-size target theta.
//
// Layout: RR members live in one flat CSR array (rr_offsets_/rr_members_)
// beside the weights, exactly the sections a .cwr file stores
// (store/rr_store.h). Readers that need node -> RR lists build what they
// need from it (rrset/node_selection.h lists only a candidate tier).
//
// Parallel producers append into private RrShards (no node-universe
// allocation) which are merged single-threaded in a deterministic order;
// see rrset/rr_pipeline.h.
#ifndef CWM_RRSET_RR_COLLECTION_H_
#define CWM_RRSET_RR_COLLECTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace cwm {

/// A lightweight, append-only batch of weighted RR sets produced by one
/// worker/chunk, merged into an RrCollection with RrCollection::Merge.
struct RrShard {
  std::vector<uint64_t> offsets{0};
  std::vector<NodeId> members;
  std::vector<double> weights;

  /// Appends one RR set (possibly empty) with normalized weight.
  void Add(std::span<const NodeId> set, double weight) {
    members.insert(members.end(), set.begin(), set.end());
    offsets.push_back(members.size());
    weights.push_back(weight);
  }

  std::size_t size() const { return weights.size(); }

  void Clear() {
    offsets.assign(1, 0);
    members.clear();
    weights.clear();
  }
};

/// Append-only collection of weighted RR sets in flat CSR form. Appends
/// and reads are single-threaded; parallel producers fill RrShards and
/// Merge them in a deterministic order.
class RrCollection {
 public:
  /// `num_nodes` bounds member ids.
  explicit RrCollection(std::size_t num_nodes) : num_nodes_(num_nodes) {}

  /// Adds one RR set with normalized weight in [0, 1]. `members` may be
  /// empty (a zeroed marginal sample). Returns the new RR id.
  uint32_t Add(std::span<const NodeId> members, double weight);

  /// Appends a run of RR sets in CSR form, as one Add per set would:
  /// `offsets` has weights.size() + 1 non-decreasing entries and set k's
  /// members are members[offsets[k] - offsets[0], offsets[k + 1] -
  /// offsets[0]). The offsets may start anywhere, so a range cut from the
  /// middle of a stored era (store/rr_store.h) appends without rebasing.
  /// Weights are checked and summed into TotalWeight() set by set.
  void Append(std::span<const uint64_t> offsets,
              std::span<const NodeId> members,
              std::span<const double> weights);

  /// Appends every RR set of `shard`, in shard order. Merging the same
  /// shards in the same order yields the same collection regardless of
  /// how many workers produced them.
  void Merge(const RrShard& shard) {
    Append(shard.offsets, shard.members, shard.weights);
  }

  /// Number of RR sets, including empty ones (the theta denominator).
  std::size_t size() const { return rr_weights_.size(); }

  /// Total member entries across all RR sets (memory/telemetry).
  std::size_t TotalMembers() const { return rr_members_.size(); }

  /// Members of RR set `id`.
  std::span<const NodeId> Members(uint32_t id) const {
    return {rr_members_.data() + rr_offsets_[id],
            rr_members_.data() + rr_offsets_[id + 1]};
  }

  /// Normalized weight of RR set `id`.
  double Weight(uint32_t id) const { return rr_weights_[id]; }

  /// Sum of all weights (the maximum possible coverage).
  double TotalWeight() const { return total_weight_; }

  std::size_t num_nodes() const { return num_nodes_; }

  // Raw CSR sections in storage order, exactly as persisted by the
  // artifact store (store/rr_store.h): offsets has size()+1 entries, set
  // k's members span [offsets[k], offsets[k+1]).
  std::span<const uint64_t> RawOffsets() const { return rr_offsets_; }
  std::span<const NodeId> RawMembers() const { return rr_members_; }
  std::span<const double> RawWeights() const { return rr_weights_; }

  /// Drops all RR sets but keeps the node universe (IMM's fresh final
  /// sampling pass, following the fix of Chen [17]).
  void Clear();

 private:
  std::size_t num_nodes_;
  std::vector<uint64_t> rr_offsets_{0};
  std::vector<NodeId> rr_members_;
  std::vector<double> rr_weights_;
  double total_weight_ = 0.0;
};

}  // namespace cwm

#endif  // CWM_RRSET_RR_COLLECTION_H_
