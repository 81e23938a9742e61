// Greedy weighted max-coverage seed selection (Algorithm 5, NodeSelection).
//
// Selects up to b nodes greedily by marginal covered weight over an
// RrCollection, with CELF-style lazy evaluation (valid because coverage
// gain is submodular in the selected set). Returns seeds in greedy order —
// the order is what gives PRIMA+ its prefix-preservation property
// (Definition 1) and SeqGRD/MaxGRD their per-budget prefixes.
//
// Candidate tiers. Taking a node debits the sets that contain it, so the
// greedy needs node -> RR lists, but only for nodes it pops. One pass over
// the collection's CSR sums every node's gain and set count; a filtered
// counting-sort pass then lists only a tier of candidates: the top
// max(4*budget, 64) positive-gain nodes in the heap's own order (gain
// descending, then smaller id). The lazy heap holds listed nodes only.
// Before each pop, if the best unlisted node at its initial gain would pop
// ahead of the heap top, the next tier (twice the size) is listed and
// pushed. A call usually pops a few dozen entries and rarely reaches far
// down the initial ranking, so on a collection of tens of thousands of
// positive-gain nodes one small tier replaces the whole index.
//
// The one-eighth rule: once a tier would reach an eighth of the
// positive-gain nodes, every remaining one is listed in that pass. Each
// tier costs a pass over all members however few nodes it lists, so a
// collection over few nodes at a large budget (Fig 6(d)'s 1,000-2,000-node
// subgraphs at budgets 50-150, whose greedy does reach deep into the
// ranking) would otherwise pay several passes where one whole index does.
//
// Equivalence with the whole-index greedy (tests/rrset_test.cc keeps it as
// the reference): seeds and covered_prefix are bit-identical.
//  * The heap holds at most one entry per node (a popped entry is either
//    taken or re-pushed at its refreshed gain), so entries are distinct
//    under the total order (gain descending, id ascending) and pops
//    follow that order whatever the heap's layout.
//  * An unlisted node was never popped, so the whole-index heap would
//    still hold it at its initial gain. Listing the next tier whenever
//    the best such entry would pop first makes every pop the one the
//    whole-index heap makes; gains of unlisted nodes are debited all the
//    same, so a later pop sees the same refreshed gain.
//  * Gains are summed in ascending set id, as the index walk summed them,
//    and each node's list is in ascending set id, so every debit happens
//    in the same order on the same doubles.
//
// Carried sums. The IMM search loop (imm.h) selects over one collection
// that only grows until its final pass clears it. It keeps the gains and
// set counts in a CoverageSums between calls, and each call adds only the
// sets appended since the last. Appending continues the ascending set-id
// order, so the carried sums equal a fresh pass bit for bit. The greedy
// debits a copy of the gains.
//
// The top-b bound. A search step reads only whether the greedy's covered
// weight reaches the stopping test's threshold. That weight is at most the
// sum of the b largest initial gains: the picks are distinct nodes, and
// each pick is credited its debited gain, which is at most its initial
// gain because subtracting a non-negative weight never rounds upward. The
// two floating-point sums add their terms in different orders, so they
// can differ by about b * 2^-53 relative. A call given a threshold skips
// the greedy, tier passes included, when the b largest gains fall short
// of it by more than a relative 1e-9, which covers that rounding and the
// caller's for any budget below a million.
#ifndef CWM_RRSET_NODE_SELECTION_H_
#define CWM_RRSET_NODE_SELECTION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "rrset/rr_collection.h"

namespace cwm {

/// Result of a greedy max-coverage run.
struct GreedySelection {
  /// Selected nodes in greedy (descending marginal gain) order.
  std::vector<NodeId> seeds;
  /// covered_prefix[k] = total covered weight after the first k+1 seeds;
  /// covered_prefix.back() is M_R(seeds).
  std::vector<double> covered_prefix;

  /// Covered weight of the first `k` seeds (0 for k == 0).
  double CoveredAt(std::size_t k) const {
    return k == 0 ? 0.0 : covered_prefix[k - 1];
  }
};

/// Per-node sums over the first `num_sets` sets of an append-only
/// collection: gain[v] adds, in ascending set id, the weights of those
/// sets that contain v, and count[v] counts them. Start one empty and pass
/// it to every SelectMaxCoverage call on one collection until that
/// collection is cleared.
struct CoverageSums {
  std::vector<double> gain;
  std::vector<uint32_t> count;
  std::size_t num_sets = 0;
};

/// Greedy max-coverage of `budget` seeds over `rr`. If fewer than `budget`
/// nodes have positive gain, remaining slots are filled with the smallest
/// untaken node ids (gain 0) so callers always receive `budget` seeds, as
/// SeqGRD requires to exhaust item budgets.
GreedySelection SelectMaxCoverage(const RrCollection& rr, std::size_t budget);

/// The same greedy from carried sums: first adds the sets of `rr` past
/// sums->num_sets to `*sums`. Returns std::nullopt, without running the
/// greedy, when the `budget` largest gains fall short of `needed` by more
/// than a relative 1e-9; the greedy's covered weight would then be below
/// `needed` (the top-b bound above). A `needed` of 0 never skips.
std::optional<GreedySelection> SelectMaxCoverage(const RrCollection& rr,
                                                 std::size_t budget,
                                                 CoverageSums* sums,
                                                 double needed);

}  // namespace cwm

#endif  // CWM_RRSET_NODE_SELECTION_H_
