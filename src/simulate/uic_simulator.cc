#include "simulate/uic_simulator.h"

#include <algorithm>

#include "simulate/world_pool.h"

namespace cwm {

namespace {

// Hooks of a plain diffusion: nothing injected, nothing recorded.
struct NoHooks {
  bool Pending(uint32_t) const { return false; }
  template <typename Deliver>
  void Inject(uint32_t, const Deliver&) const {}
  void Offer(uint32_t, NodeId, NodeId, ItemSet) const {}
};

// Adds one node's final state to `outcome`. Every outcome — plain, recorded
// or re-simulated — is this fold over nodes in ascending order, so the
// welfare double is the same sum in the same order on every path.
void Accumulate(const WorldUtilityTable& utilities, ItemSet desire,
                ItemSet adopted, WorldOutcome* outcome) {
  const ItemSet both = static_cast<ItemSet>(desire & 0x3u);
  if (both == 0x1u || both == 0x2u) ++outcome->one_sided_exposure_01;
  if (adopted == kEmptyItemSet) return;
  ++outcome->adopting_nodes;
  outcome->welfare += utilities.Utility(adopted);
  ForEachItem(adopted, [&](ItemId i) { ++outcome->adopters_per_item[i]; });
}

// Live out-neighbours from a materialized world's CSR.
auto SnapshotLiveOut(const WorldSnapshot& snapshot) {
  return [&snapshot](NodeId u, const auto& visit) {
    for (NodeId to : snapshot.LiveOut(u)) visit(to);
  };
}

}  // namespace

UicSimulator::UicSimulator(const Graph& graph, const UtilityConfig& config)
    : graph_(graph),
      config_(config),
      stamp_(graph.num_nodes(), 0),
      desire_(graph.num_nodes(), 0),
      adopted_(graph.num_nodes(), 0),
      affected_stamp_(graph.num_nodes(), 0) {}

void UicSimulator::Touch(NodeId v) {
  if (stamp_[v] != epoch_) {
    stamp_[v] = epoch_;
    desire_[v] = kEmptyItemSet;
    adopted_[v] = kEmptyItemSet;
    touched_.push_back(v);
  }
}

WorldOutcome UicSimulator::RunWorld(const Allocation& allocation,
                                    const EdgeWorld& edges,
                                    const WorldUtilityTable& utilities) {
  return RunWorld(allocation.SeededItemsets(), edges, utilities);
}

WorldOutcome UicSimulator::RunWorld(Seeds seeds, const EdgeWorld& edges,
                                    const WorldUtilityTable& utilities) {
  NoHooks hooks;
  RunDiffusion(seeds, utilities,
               [&](NodeId u, const auto& visit) {
                 const auto out = graph_.OutEdges(u);
                 for (std::size_t k = 0; k < out.size(); ++k) {
                   const OutEdge& e = out[k];
                   if (!edges.Live(graph_.OutEdgeId(u, k), e.prob)) {
                     continue;
                   }
                   visit(e.to);
                 }
               },
               hooks);
  return Aggregate(utilities);
}

WorldOutcome UicSimulator::RunWorld(const Allocation& allocation,
                                    const WorldSnapshot& snapshot) {
  return RunWorld(allocation.SeededItemsets(), snapshot);
}

WorldOutcome UicSimulator::RunWorld(Seeds seeds,
                                    const WorldSnapshot& snapshot) {
  NoHooks hooks;
  RunDiffusion(seeds, snapshot.utilities(),
               SnapshotLiveOut(snapshot), hooks);
  return Aggregate(snapshot.utilities());
}

template <typename LiveOutFn, typename Hooks>
void UicSimulator::RunDiffusion(Seeds seeds,
                                const WorldUtilityTable& utilities,
                                const LiveOutFn& live_out, Hooks& hooks) {
  ++epoch_;
  touched_.clear();
  frontier_.clear();
  next_frontier_.clear();

  // t = 1: seeds desire their allocated items and adopt the best bundle.
  for (const auto& [v, itemset] : seeds) {
    Touch(v);
    desire_[v] = itemset;
    const ItemSet adopt = utilities.BestAdoption(itemset, kEmptyItemSet);
    if (adopt != kEmptyItemSet) {
      adopted_[v] = adopt;
      frontier_.push_back({v, adopt});
    }
  }

  // t >= 2: propagate newly adopted items along live edges. Round r
  // carries the items adopted at t = r + 1.
  for (uint32_t round = 0; !frontier_.empty() || hooks.Pending(round);
       ++round) {
    ++affected_epoch_;
    affected_.clear();
    const auto deliver = [&](NodeId to, ItemSet fresh) {
      Touch(to);
      const ItemSet before = desire_[to];
      const ItemSet after = static_cast<ItemSet>(before | fresh);
      if (after == before) return;
      desire_[to] = after;
      if (affected_stamp_[to] != affected_epoch_) {
        affected_stamp_[to] = affected_epoch_;
        affected_.push_back(to);
      }
    };
    hooks.Inject(round, deliver);
    for (const FrontierEntry& entry : frontier_) {
      live_out(entry.node, [&](NodeId to) {
        hooks.Offer(round, entry.node, to, entry.fresh);
        deliver(to, entry.fresh);
      });
    }
    next_frontier_.clear();
    for (NodeId v : affected_) {
      const ItemSet prev = adopted_[v];
      const ItemSet now = utilities.BestAdoption(desire_[v], prev);
      if (now != prev) {
        adopted_[v] = now;
        next_frontier_.push_back({v, static_cast<ItemSet>(now & ~prev)});
      }
    }
    frontier_.swap(next_frontier_);
  }
}

WorldOutcome UicSimulator::Aggregate(const WorldUtilityTable& utilities) {
  // Touch order is world-specific (it follows the frontier), but the
  // canonical ascending order is reproducible by any evaluation engine —
  // in particular the word-parallel kernel (simulate/packed_world.h),
  // which must land on bit-identical welfare sums.
  std::sort(touched_.begin(), touched_.end());
  WorldOutcome outcome;
  outcome.adopters_per_item.assign(config_.num_items(), 0);
  for (NodeId v : touched_) {
    Accumulate(utilities, desire_[v], adopted_[v], &outcome);
  }
  return outcome;
}

// Record's hooks: every live-edge offer is kept.
struct UicSimulator::RecordHooks {
  std::vector<RawOffer>* offers;
  bool Pending(uint32_t) const { return false; }
  template <typename Deliver>
  void Inject(uint32_t, const Deliver&) const {}
  void Offer(uint32_t round, NodeId from, NodeId to, ItemSet fresh) {
    offers->push_back({to, {from, round, fresh}});
  }
};

// RunOver's hooks: the recorded offers into R from outside it arrive at
// their rounds.
struct UicSimulator::ReplayHooks {
  std::span<const Injection> injections;  // ascending round
  std::size_t next = 0;
  // Injections are consumed in round order, so any left are still due —
  // possibly after R's own frontier has died out.
  bool Pending(uint32_t) const { return next < injections.size(); }
  template <typename Deliver>
  void Inject(uint32_t round, const Deliver& deliver) {
    for (; next < injections.size() && injections[next].round == round;
         ++next) {
      deliver(injections[next].to, injections[next].fresh);
    }
  }
  void Offer(uint32_t, NodeId, NodeId, ItemSet) const {}
};

void UicSimulator::Record(Seeds base, const WorldSnapshot& snapshot,
                          RecordedWorld* record) {
  raw_offers_.clear();
  RecordHooks hooks{&raw_offers_};
  RunDiffusion(base, snapshot.utilities(),
               SnapshotLiveOut(snapshot), hooks);
  record->outcome = Aggregate(snapshot.utilities());  // sorts touched_
  record->replayable = true;

  const std::size_t count = touched_.size();
  record->nodes.assign(touched_.begin(), touched_.end());
  record->desire.resize(count);
  record->adopted.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    record->desire[i] = desire_[touched_[i]];
    record->adopted[i] = adopted_[touched_[i]];
  }
  record->offer_begin.assign(count + 1, 0);
  record->offers.resize(raw_offers_.size());
  if (raw_offers_.empty()) return;
  // Group the offers by receiver (a counting sort: every receiver was
  // touched, so slot_ holds its index for this run).
  if (slot_.empty()) slot_.assign(graph_.num_nodes(), 0);
  for (std::size_t i = 0; i < count; ++i) {
    slot_[touched_[i]] = static_cast<uint32_t>(i);
  }
  for (const RawOffer& raw : raw_offers_) {
    ++record->offer_begin[slot_[raw.to] + 1];
  }
  for (std::size_t i = 0; i < count; ++i) {
    record->offer_begin[i + 1] += record->offer_begin[i];
  }
  for (const RawOffer& raw : raw_offers_) {
    record->offers[record->offer_begin[slot_[raw.to]]++] = raw.offer;
  }
  // The scatter advanced each start to the next node's; shift back.
  std::move_backward(record->offer_begin.begin(),
                     record->offer_begin.end() - 1,
                     record->offer_begin.end());
  record->offer_begin[0] = 0;
}

WorldOutcome UicSimulator::RunOver(const RecordedWorld& record, Seeds merged,
                                   std::span<const NodeId> extra_nodes,
                                   const WorldSnapshot& snapshot) {
  if (!record.replayable || record.outcome.adopting_nodes == 0) {
    return RunWorld(merged, snapshot);
  }
  if (region_stamp_.empty()) region_stamp_.assign(graph_.num_nodes(), 0);
  ++region_epoch_;
  const auto in_region = [&](NodeId v) {
    return region_stamp_[v] == region_epoch_;
  };

  // R: the live-reach closure of the extra's seeds, given up once it is
  // larger than the whole base diffusion it would save re-running.
  region_.clear();
  const auto reach = [&](NodeId v) {
    if (in_region(v)) return;
    region_stamp_[v] = region_epoch_;
    region_.push_back(v);
  };
  for (NodeId v : extra_nodes) reach(v);
  for (std::size_t head = 0; head < region_.size(); ++head) {
    for (NodeId to : snapshot.LiveOut(region_[head])) reach(to);
    if (region_.size() > record.nodes.size()) {
      return RunWorld(merged, snapshot);
    }
  }

  // Offers from senders outside R arrive exactly as recorded.
  injections_.clear();
  for (NodeId v : region_) {
    const auto it =
        std::lower_bound(record.nodes.begin(), record.nodes.end(), v);
    if (it == record.nodes.end() || *it != v) continue;
    const std::size_t i = static_cast<std::size_t>(it - record.nodes.begin());
    for (uint32_t k = record.offer_begin[i]; k < record.offer_begin[i + 1];
         ++k) {
      const RecordedWorld::Offer& offer = record.offers[k];
      if (!in_region(offer.sender)) {
        injections_.push_back({offer.round, v, offer.fresh});
      }
    }
  }
  std::sort(injections_.begin(), injections_.end(),
            [](const Injection& a, const Injection& b) {
              return a.round < b.round;
            });
  region_seeds_.clear();
  for (const auto& seed : merged) {
    if (in_region(seed.first)) region_seeds_.push_back(seed);
  }

  ReplayHooks hooks{injections_};
  RunDiffusion(region_seeds_, snapshot.utilities(),
               SnapshotLiveOut(snapshot), hooks);

  // Merge: recorded state outside R, re-simulated state inside R (empty
  // where the re-run never reached), in ascending node order.
  std::sort(region_.begin(), region_.end());
  const WorldUtilityTable& utilities = snapshot.utilities();
  WorldOutcome outcome;
  outcome.adopters_per_item.assign(config_.num_items(), 0);
  const std::size_t count = record.nodes.size();
  std::size_t i = 0;
  for (NodeId v : region_) {
    for (; i < count && record.nodes[i] < v; ++i) {
      Accumulate(utilities, record.desire[i], record.adopted[i], &outcome);
    }
    if (i < count && record.nodes[i] == v) ++i;
    if (stamp_[v] == epoch_) {
      Accumulate(utilities, desire_[v], adopted_[v], &outcome);
    }
  }
  for (; i < count; ++i) {
    Accumulate(utilities, record.desire[i], record.adopted[i], &outcome);
  }
  return outcome;
}

uint64_t UicSimulator::ReachableCount(const std::vector<NodeId>& seeds,
                                      const EdgeWorld& edges) {
  ++epoch_;
  touched_.clear();
  // Reuse desire_ as a visited flag (non-zero == visited).
  std::vector<NodeId> queue;
  for (NodeId s : seeds) {
    Touch(s);
    if (desire_[s] == 0) {
      desire_[s] = 1;
      queue.push_back(s);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const auto out = graph_.OutEdges(u);
    for (std::size_t k = 0; k < out.size(); ++k) {
      const OutEdge& e = out[k];
      if (!edges.Live(graph_.OutEdgeId(u, k), e.prob)) continue;
      Touch(e.to);
      if (desire_[e.to] == 0) {
        desire_[e.to] = 1;
        queue.push_back(e.to);
      }
    }
  }
  return queue.size();
}

}  // namespace cwm
