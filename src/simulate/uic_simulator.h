// Deterministic UIC diffusion inside one possible world (§3).
//
// Semantics implemented exactly as the paper defines them:
//  * t = 1: seeds' desire sets are initialized from the allocation; each
//    seed adopts its utility-maximizing non-negative bundle.
//  * t >= 2: every item newly adopted by u' at t-1 is offered along each
//    *live* out-edge (u', u) (one shared edge world for all items); u adds
//    offered items to its desire set and re-solves
//    argmax { U(T) : A(u,t-1) ⊆ T ⊆ R(u,t), U(T) >= 0 }.
//  * Adoption is progressive; newly adopted items propagate exactly once.
//  * The process stops when no adoption changes.
//
// The simulator keeps n-sized scratch arrays with epoch stamps, so running
// thousands of Monte-Carlo worlds costs O(touched) per world, not O(n).
#ifndef CWM_SIMULATE_UIC_SIMULATOR_H_
#define CWM_SIMULATE_UIC_SIMULATOR_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "model/allocation.h"
#include "model/utility.h"
#include "simulate/world.h"

namespace cwm {

class WorldSnapshot;

/// Outcome of one deterministic possible-world diffusion.
struct WorldOutcome {
  /// rho_w(S): sum over nodes of the utility of their final adoption set.
  /// Summed in ascending node order — the order a spliced outcome
  /// (UicSimulator::RunOver, Advance) merges nodes in — so the double is
  /// bit-identical across the lazy, snapshot and incremental paths.
  double welfare = 0.0;
  /// Number of nodes whose final adoption set contains item i.
  std::vector<uint64_t> adopters_per_item;
  /// Number of nodes with a non-empty adoption set.
  uint64_t adopting_nodes = 0;
  /// Number of nodes whose *desire* set contains exactly one of items
  /// {0, 1}. The Balance-C baseline maximizes n minus this count (nodes
  /// exposed to both ideas or to neither); meaningless for m != 2.
  uint64_t one_sided_exposure_01 = 0;
};

/// A base allocation's diffusion in one world, recorded by
/// UicSimulator::Record (or derived by UicSimulator::Advance) so that
/// UicSimulator::RunOver can evaluate base ∪ extra by re-simulating only
/// the extra's live-reach region.
struct RecordedWorld {
  /// One live-edge offer received by a touched node: `sender` offered the
  /// items `fresh` (adopted one round earlier) in frontier round `round`.
  struct Offer {
    NodeId sender;
    uint32_t round;
    ItemSet fresh;
  };

  /// The base's own outcome, bit-identical to RunWorld(base, snapshot).
  WorldOutcome outcome;
  /// False when only `outcome` is kept (the world had no snapshot, or the
  /// record exceeded its byte budget); RunOver then runs the plain
  /// diffusion of base ∪ extra.
  bool replayable = false;
  /// Touched nodes in ascending order with their final desire and
  /// adoption sets and the utility of the adoption set — +0.0 for a node
  /// that adopted nothing (index-aligned).
  std::vector<NodeId> nodes;
  std::vector<ItemSet> desire;
  std::vector<ItemSet> adopted;
  std::vector<double> utility;
  /// Offers received by nodes[i]: offers[offer_begin[i], offer_begin[i+1]).
  std::vector<uint32_t> offer_begin;
  std::vector<Offer> offers;

  /// Heap footprint (record budget accounting).
  std::size_t bytes() const {
    return nodes.capacity() * sizeof(NodeId) +
           (desire.capacity() + adopted.capacity()) * sizeof(ItemSet) +
           utility.capacity() * sizeof(double) +
           offer_begin.capacity() * sizeof(uint32_t) +
           offers.capacity() * sizeof(Offer);
  }
};

/// Reusable single-thread UIC diffusion engine for one graph + utility
/// configuration. Not thread-safe; create one per worker.
class UicSimulator {
 public:
  /// Seeded itemsets in the form Allocation::SeededItemsets returns.
  using Seeds = std::span<const std::pair<NodeId, ItemSet>>;

  UicSimulator(const Graph& graph, const UtilityConfig& config);

  /// Runs the diffusion of `allocation` in world (`edges`, `utilities`).
  WorldOutcome RunWorld(const Allocation& allocation, const EdgeWorld& edges,
                        const WorldUtilityTable& utilities);
  WorldOutcome RunWorld(Seeds seeds, const EdgeWorld& edges,
                        const WorldUtilityTable& utilities);

  /// Runs the diffusion of `allocation` in a materialized world
  /// (simulate/world_pool.h). Bit-identical to the lazy overload for the
  /// same world: the snapshot's live edges are stored in canonical order,
  /// so the traversal touches nodes in exactly the same sequence.
  WorldOutcome RunWorld(const Allocation& allocation,
                        const WorldSnapshot& snapshot);
  WorldOutcome RunWorld(Seeds seeds, const WorldSnapshot& snapshot);

  /// Runs the diffusion of `base` in `snapshot` and records it into
  /// `record` (replayable, outcome bit-identical to RunWorld).
  void Record(Seeds base, const WorldSnapshot& snapshot,
              RecordedWorld* record);

  /// The outcome of base ∪ extra in `snapshot`, where `record` is base's
  /// recording in the same world, `merged` the seeded itemsets of
  /// base ∪ extra and `extra_nodes` the extra's seed nodes. Bit-identical
  /// to RunWorld(merged, snapshot).
  ///
  /// Only R, the live-reach closure of `extra_nodes`, is re-simulated. A
  /// node outside R has the same seeds in both allocations and receives
  /// offers only from nodes outside R (a live edge into it from R would
  /// put it in R), so by induction over the synchronous rounds it follows
  /// its recorded trajectory exactly. R is re-run from t = 1 with the
  /// recorded offers of senders outside R injected at their rounds, and
  /// the outcome is the record's, with R's contributions swapped: counts
  /// lose R's recorded nodes and gain its re-simulated ones, and welfare
  /// is one ascending pass over the recorded utilities with R's values
  /// substituted (a non-adopter's +0.0 cannot change a sum that starts at
  /// +0.0, so this is RunWorld's sum over adopters). Runs the plain
  /// diffusion instead when the record is not replayable, the base has no
  /// adopters, or R outgrows the base's touched-node count.
  WorldOutcome RunOver(const RecordedWorld& record, Seeds merged,
                       std::span<const NodeId> extra_nodes,
                       const WorldSnapshot& snapshot);

  /// Writes into `*advanced` the record of base ∪ extra in `snapshot`
  /// (arguments as for RunOver; `advanced` must not be `record`), equal to
  /// what Record(merged, snapshot) writes up to the order of each node's
  /// offers. R is re-run as in RunOver, keeping the offers it makes, and
  /// spliced into the record: a node outside R is copied with its offers
  /// — every one from a sender outside R, which keeps its trajectory —
  /// and a node of R takes its re-run state, its recorded offers from
  /// senders outside R and the re-run's offers to it, which together are
  /// every offer it receives. Falls back to Record(merged, snapshot) where
  /// RunOver falls back to the plain diffusion.
  void Advance(const RecordedWorld& record, Seeds merged,
               std::span<const NodeId> extra_nodes,
               const WorldSnapshot& snapshot, RecordedWorld* advanced);

  /// Influence spread special case: number of nodes reachable from `seeds`
  /// via live edges (the sigma(S) of classic IC; used by Lemma 2 style
  /// bounds and tests).
  uint64_t ReachableCount(const std::vector<NodeId>& seeds,
                          const EdgeWorld& edges);

 private:
  /// Shared diffusion engine: runs the rounds and leaves the final state
  /// of every touched node in desire_/adopted_. `live_out(u, visit)` calls
  /// visit(NodeId to) for every live out-neighbour of `u` in canonical
  /// edge order; the RunWorld overloads differ only in how they enumerate
  /// live edges. `hooks` sees every live-edge offer
  /// (hooks.Offer(round, from, to, fresh)), can deliver extra offers at
  /// the start of a round (hooks.Inject(round, deliver)), and keeps the
  /// rounds going while hooks.Pending(round) says offers are still due.
  template <typename LiveOutFn, typename Hooks>
  void RunDiffusion(Seeds seeds, const WorldUtilityTable& utilities,
                    const LiveOutFn& live_out, Hooks& hooks);

  /// Outcome over the touched nodes, summed in ascending node order.
  WorldOutcome Aggregate(const WorldUtilityTable& utilities);

  /// Groups raw_offers_ by receiver into (`begin`, `offers`), where
  /// `receivers` (ascending) holds every receiver: receivers[i]'s offers
  /// are offers[begin[i], begin[i+1]), in the order they were made.
  void GroupOffers(std::span<const NodeId> receivers,
                   std::vector<uint32_t>* begin,
                   std::vector<RecordedWorld::Offer>* offers);

  /// RunOver's and Advance's region re-run: finds R (ascending in
  /// region_, with region_pos_[k] the number of recorded nodes below
  /// region_[k]) and re-simulates it over `record`, keeping the re-run's
  /// offers in raw_offers_ when `keep_offers`. False, with nothing run,
  /// when the caller must fall back to a full diffusion.
  bool ReplayRegion(const RecordedWorld& record, Seeds merged,
                    std::span<const NodeId> extra_nodes,
                    const WorldSnapshot& snapshot, bool keep_offers);

  /// The merge walk after ReplayRegion, in ascending node order: recorded
  /// nodes outside R keep their state, R's nodes take the re-run's.
  /// Returns the spliced outcome; with `advanced`, also writes the
  /// spliced record's arrays (R's offers from region_offer_begin_ /
  /// region_offers_).
  WorldOutcome Splice(const RecordedWorld& record,
                      const WorldUtilityTable& utilities,
                      RecordedWorld* advanced);

  /// Ensures node scratch entries are current for this run.
  void Touch(NodeId v);

  const Graph& graph_;
  const UtilityConfig& config_;

  uint32_t epoch_ = 0;
  std::vector<uint32_t> stamp_;    // last epoch touching the node
  std::vector<ItemSet> desire_;    // R(v, t)
  std::vector<ItemSet> adopted_;   // A(v, t)
  std::vector<NodeId> touched_;    // nodes touched this world

  // Frontier entries: (node, items newly adopted last round).
  struct FrontierEntry {
    NodeId node;
    ItemSet fresh;
  };
  std::vector<FrontierEntry> frontier_, next_frontier_;
  std::vector<NodeId> affected_;       // nodes whose desire grew this round
  std::vector<uint32_t> affected_stamp_;
  uint32_t affected_epoch_ = 0;

  // Record / RunOver scratch, allocated on first use.
  struct RawOffer {
    NodeId to;
    RecordedWorld::Offer offer;
  };
  struct Injection {
    uint32_t round;
    NodeId to;
    ItemSet fresh;
  };
  struct RecordHooks;
  struct ReplayHooks;
  std::vector<RawOffer> raw_offers_;
  std::vector<uint32_t> slot_;          // GroupOffers: node -> receiver index
  std::vector<uint32_t> region_stamp_;  // RunOver: node in R
  uint32_t region_epoch_ = 0;
  std::vector<NodeId> region_;
  std::vector<uint32_t> region_pos_;
  std::vector<std::pair<NodeId, ItemSet>> region_seeds_;
  std::vector<Injection> injections_;
  std::vector<uint32_t> region_offer_begin_;  // Advance: re-run offers
  std::vector<RecordedWorld::Offer> region_offers_;
};

}  // namespace cwm

#endif  // CWM_SIMULATE_UIC_SIMULATOR_H_
