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

// Adds one node's final state to the counts of `outcome` — or, with
// `step` = -1 (mod 2^64), takes it back out.
void Count(ItemSet desire, ItemSet adopted, uint64_t step,
           WorldOutcome* outcome) {
  const ItemSet both = static_cast<ItemSet>(desire & 0x3u);
  if (both == 0x1u || both == 0x2u) outcome->one_sided_exposure_01 += step;
  if (adopted == kEmptyItemSet) return;
  outcome->adopting_nodes += step;
  ForEachItem(adopted,
              [&](ItemId i) { outcome->adopters_per_item[i] += step; });
}

// The utility a node contributes to welfare: +0.0 when it adopted nothing.
double UtilityOf(const WorldUtilityTable& utilities, ItemSet adopted) {
  return adopted == kEmptyItemSet ? 0.0 : utilities.Utility(adopted);
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
  // Touch order is world-specific (it follows the frontier), and a
  // spliced outcome (RunOver, Advance) merges recorded and re-run nodes
  // by node id. So every outcome — plain, recorded or spliced — sums
  // welfare over nodes in ascending order, and the double is the same sum
  // on every path (tests/golden/ pins these doubles).
  std::sort(touched_.begin(), touched_.end());
  WorldOutcome outcome;
  outcome.adopters_per_item.assign(config_.num_items(), 0);
  for (NodeId v : touched_) {
    Count(desire_[v], adopted_[v], 1, &outcome);
    if (adopted_[v] != kEmptyItemSet) {
      outcome.welfare += utilities.Utility(adopted_[v]);
    }
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

// The region re-run's hooks: the recorded offers into R from outside it
// arrive at their rounds, and the re-run's own offers are kept when
// `offers` is set.
struct UicSimulator::ReplayHooks {
  std::span<const Injection> injections;  // ascending round
  std::vector<RawOffer>* offers;
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
  void Offer(uint32_t round, NodeId from, NodeId to, ItemSet fresh) {
    if (offers != nullptr) offers->push_back({to, {from, round, fresh}});
  }
};

void UicSimulator::Record(Seeds base, const WorldSnapshot& snapshot,
                          RecordedWorld* record) {
  raw_offers_.clear();
  RecordHooks hooks{&raw_offers_};
  const WorldUtilityTable& utilities = snapshot.utilities();
  RunDiffusion(base, utilities, SnapshotLiveOut(snapshot), hooks);
  record->outcome = Aggregate(utilities);  // sorts touched_
  record->replayable = true;

  const std::size_t count = touched_.size();
  record->nodes.assign(touched_.begin(), touched_.end());
  record->desire.resize(count);
  record->adopted.resize(count);
  record->utility.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId v = touched_[i];
    record->desire[i] = desire_[v];
    record->adopted[i] = adopted_[v];
    record->utility[i] = UtilityOf(utilities, adopted_[v]);
  }
  GroupOffers(touched_, &record->offer_begin, &record->offers);
}

void UicSimulator::GroupOffers(std::span<const NodeId> receivers,
                               std::vector<uint32_t>* begin,
                               std::vector<RecordedWorld::Offer>* offers) {
  const std::size_t count = receivers.size();
  begin->assign(count + 1, 0);
  offers->resize(raw_offers_.size());
  if (raw_offers_.empty()) return;
  // A counting sort by receiver index.
  if (slot_.empty()) slot_.assign(graph_.num_nodes(), 0);
  for (std::size_t i = 0; i < count; ++i) {
    slot_[receivers[i]] = static_cast<uint32_t>(i);
  }
  for (const RawOffer& raw : raw_offers_) ++(*begin)[slot_[raw.to] + 1];
  for (std::size_t i = 0; i < count; ++i) (*begin)[i + 1] += (*begin)[i];
  for (const RawOffer& raw : raw_offers_) {
    (*offers)[(*begin)[slot_[raw.to]]++] = raw.offer;
  }
  // The scatter advanced each start to the next receiver's; shift back.
  std::move_backward(begin->begin(), begin->end() - 1, begin->end());
  (*begin)[0] = 0;
}

bool UicSimulator::ReplayRegion(const RecordedWorld& record, Seeds merged,
                                std::span<const NodeId> extra_nodes,
                                const WorldSnapshot& snapshot,
                                bool keep_offers) {
  if (!record.replayable || record.outcome.adopting_nodes == 0) {
    return false;
  }
  if (region_stamp_.empty()) region_stamp_.assign(graph_.num_nodes(), 0);
  ++region_epoch_;
  const auto in_region = [&](NodeId v) {
    return region_stamp_[v] == region_epoch_;
  };

  // R: the live-reach closure of the extra's seeds, given up once it is
  // larger than the whole base diffusion it would save re-running.
  const std::size_t count = record.nodes.size();
  region_.clear();
  const auto reach = [&](NodeId v) {
    if (in_region(v)) return;
    region_stamp_[v] = region_epoch_;
    region_.push_back(v);
  };
  for (NodeId v : extra_nodes) reach(v);
  for (std::size_t head = 0; head < region_.size(); ++head) {
    for (NodeId to : snapshot.LiveOut(region_[head])) reach(to);
    if (region_.size() > count) return false;
  }

  // One merge-join of sorted R against the recorded nodes finds R's
  // slots; offers from senders outside R arrive exactly as recorded.
  std::sort(region_.begin(), region_.end());
  region_pos_.resize(region_.size());
  injections_.clear();
  std::size_t i = 0;
  for (std::size_t k = 0; k < region_.size(); ++k) {
    const NodeId v = region_[k];
    while (i < count && record.nodes[i] < v) ++i;
    region_pos_[k] = static_cast<uint32_t>(i);
    if (i == count || record.nodes[i] != v) continue;
    for (uint32_t o = record.offer_begin[i]; o < record.offer_begin[i + 1];
         ++o) {
      const RecordedWorld::Offer& offer = record.offers[o];
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

  raw_offers_.clear();
  ReplayHooks hooks{injections_, keep_offers ? &raw_offers_ : nullptr};
  RunDiffusion(region_seeds_, snapshot.utilities(),
               SnapshotLiveOut(snapshot), hooks);
  return true;
}

WorldOutcome UicSimulator::Splice(const RecordedWorld& record,
                                  const WorldUtilityTable& utilities,
                                  RecordedWorld* advanced) {
  const std::size_t count = record.nodes.size();
  WorldOutcome outcome = record.outcome;
  outcome.welfare = 0.0;
  if (advanced != nullptr) {
    // Room for every recorded node and all of R, so nothing regrows.
    const auto reset = [](auto& array, std::size_t capacity) {
      array.clear();
      array.reserve(capacity);
    };
    const std::size_t capacity = count + region_.size();
    reset(advanced->nodes, capacity);
    reset(advanced->desire, capacity);
    reset(advanced->adopted, capacity);
    reset(advanced->utility, capacity);
    reset(advanced->offer_begin, capacity + 1);
    reset(advanced->offers, record.offers.size() + region_offers_.size());
  }
  // Recorded nodes [i, end) lie outside R: they keep their state, offers
  // and utility. Adding a non-adopter's +0.0 leaves the sum's bits alone:
  // a sum that starts at +0.0 is never -0.0, and x + (+0.0) == x for
  // every other x.
  std::size_t i = 0;
  const auto keep = [&](std::size_t end) {
    if (advanced != nullptr && i < end) {
      const auto copy = [](auto& to, const auto& from, std::size_t first,
                           std::size_t last) {
        to.insert(to.end(), from.begin() + first, from.begin() + last);
      };
      copy(advanced->nodes, record.nodes, i, end);
      copy(advanced->desire, record.desire, i, end);
      copy(advanced->adopted, record.adopted, i, end);
      copy(advanced->utility, record.utility, i, end);
      const uint32_t shift = static_cast<uint32_t>(advanced->offers.size()) -
                             record.offer_begin[i];  // mod 2^32
      for (std::size_t j = i; j < end; ++j) {
        advanced->offer_begin.push_back(record.offer_begin[j] + shift);
      }
      copy(advanced->offers, record.offers, record.offer_begin[i],
           record.offer_begin[end]);
    }
    for (; i < end; ++i) outcome.welfare += record.utility[i];
  };
  for (std::size_t k = 0; k < region_.size(); ++k) {
    const NodeId v = region_[k];
    keep(region_pos_[k]);
    const bool recorded = i < count && record.nodes[i] == v;
    const std::size_t slot = i;
    if (recorded) {
      // R's recorded nodes give back their recorded contributions.
      Count(record.desire[i], record.adopted[i], ~uint64_t{0}, &outcome);
      ++i;
    }
    // A node of R the re-run never reached is not touched in base ∪ extra.
    if (stamp_[v] != epoch_) continue;
    const double utility = UtilityOf(utilities, adopted_[v]);
    Count(desire_[v], adopted_[v], 1, &outcome);
    outcome.welfare += utility;
    if (advanced == nullptr) continue;
    advanced->nodes.push_back(v);
    advanced->desire.push_back(desire_[v]);
    advanced->adopted.push_back(adopted_[v]);
    advanced->utility.push_back(utility);
    advanced->offer_begin.push_back(
        static_cast<uint32_t>(advanced->offers.size()));
    if (recorded) {
      for (uint32_t o = record.offer_begin[slot];
           o < record.offer_begin[slot + 1]; ++o) {
        if (region_stamp_[record.offers[o].sender] != region_epoch_) {
          advanced->offers.push_back(record.offers[o]);
        }
      }
    }
    advanced->offers.insert(
        advanced->offers.end(),
        region_offers_.begin() + region_offer_begin_[k],
        region_offers_.begin() + region_offer_begin_[k + 1]);
  }
  keep(count);
  if (advanced != nullptr) {
    advanced->offer_begin.push_back(
        static_cast<uint32_t>(advanced->offers.size()));
  }
  return outcome;
}

WorldOutcome UicSimulator::RunOver(const RecordedWorld& record, Seeds merged,
                                   std::span<const NodeId> extra_nodes,
                                   const WorldSnapshot& snapshot) {
  if (!ReplayRegion(record, merged, extra_nodes, snapshot,
                    /*keep_offers=*/false)) {
    return RunWorld(merged, snapshot);
  }
  return Splice(record, snapshot.utilities(), nullptr);
}

void UicSimulator::Advance(const RecordedWorld& record, Seeds merged,
                           std::span<const NodeId> extra_nodes,
                           const WorldSnapshot& snapshot,
                           RecordedWorld* advanced) {
  if (!ReplayRegion(record, merged, extra_nodes, snapshot,
                    /*keep_offers=*/true)) {
    Record(merged, snapshot, advanced);
    return;
  }
  GroupOffers(region_, &region_offer_begin_, &region_offers_);
  advanced->outcome = Splice(record, snapshot.utilities(), advanced);
  advanced->replayable = true;
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
