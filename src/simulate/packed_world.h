// Word-parallel possible worlds: 64 diffusions per machine word.
//
// The batched estimator (simulate/estimator.h) made *candidates* cheap by
// materializing each world once; this layer makes *worlds* cheap. A
// PackedWorldSet re-lays-out the same live-edge outcomes the WorldSnapshot
// CSR stores — derived from the identical WorldEdgeSeedOf / WorldNoiseRngOf
// streams (simulate/world.h) — into an SoA of per-edge lane masks: one
// uint64_t per graph edge per block, bit l set iff the edge is live in the
// block's lane-l world. The UIC frontier BFS then runs as bitwise
// AND/OR/ANDN over all 64 worlds of a block simultaneously, with per-node
// desire/adoption state held as one word per item.
//
// Lane order is the estimator's chunk stride: lane l of block b of chunk c
// is world `c + (b*64 + l) * chunks`, i.e. the consecutive worlds of chunk
// c in the exact order the scalar chunk loop visits them. Draining a
// block's per-lane outcomes lane 0..lane_count-1, blocks in order,
// therefore reproduces the scalar path's floating-point accumulation order
// bit for bit (the scalar welfare sum itself is canonicalized to ascending
// node order inside UicSimulator::RunDiffusion for the same reason).
//
// Per-world noise vectorizes through precomputation: each block carries
// its 64 lanes' utility tables plus, for every (desired, adopted) pair
// with adopted ⊆ desired, per-item *transition bit-planes* — bit l of
// plane i says item i is in BestAdoption_l(desired, adopted). The kernel
// resolves the §3 adoption argmax for all 64 worlds of a node with a few
// mask intersections instead of 64 table searches. 3^m pairs are stored
// per block, which is why packing is gated at kMaxPackedItems items (the
// paper's configurations have m <= 5).
//
// The optional wide arm groups kPackedGroup consecutive blocks of one
// chunk and runs their (independent, purely bitwise) state updates
// jointly, compiled with AVX2 behind a runtime dispatch where available.
// Outcomes are still drained block by block in lane order, so the wide,
// portable, and scalar paths are all bit-identical — see docs/kernel.md
// for the full determinism argument.
#ifndef CWM_SIMULATE_PACKED_WORLD_H_
#define CWM_SIMULATE_PACKED_WORLD_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "model/allocation.h"
#include "model/utility.h"

namespace cwm {

/// Worlds per block: one lane per bit of a machine word.
inline constexpr int kPackedLanes = 64;

/// Blocks the wide kernel arm processes jointly (256 worlds per pass).
inline constexpr int kPackedGroup = 4;

/// Maximum item count the packed kernel supports: the per-block transition
/// tables enumerate 3^m (desired, adopted) pairs, so packing is gated well
/// below the ItemSet limit of 16. Estimators fall back to the scalar
/// snapshot path above this (transparently — results are identical).
inline constexpr int kMaxPackedItems = 6;

/// The packed re-layout of one estimator's world sequence. Immutable after
/// construction; safe to share across threads (and across estimators, via
/// WorldPoolStore::GetOrBuildPacked).
class PackedWorldSet {
 public:
  /// One block: 64 consecutive worlds of one chunk, packed lane-per-bit.
  struct Block {
    /// Worlds actually present (1..64; the chunk's tail block is partial).
    int lane_count = 0;
    /// Low `lane_count` bits set; every state/mask word is ⊆ lane_mask.
    uint64_t lane_mask = 0;
    /// SoA edge masks: edge_mask[e] bit l = edge e live in lane l's world.
    std::vector<uint64_t> edge_mask;
    /// Lane-major per-world utility tables: utility[(l << m) | s] = U_l(s).
    std::vector<double> utility;
    /// Transition bit-planes, indexed pair * m + i where `pair` counts
    /// (d, a ⊆ d) pairs in canonical order (d ascending; a in
    /// ForEachSubset order, d down to 0): bit l = item i in
    /// BestAdoption_l(d, a).
    std::vector<uint64_t> adopt_plane;
    /// adopt_changed[pair] bit l = BestAdoption_l(d, a) != a.
    std::vector<uint64_t> adopt_changed;

    std::size_t bytes() const {
      return edge_mask.capacity() * sizeof(uint64_t) +
             utility.capacity() * sizeof(double) +
             adopt_plane.capacity() * sizeof(uint64_t) +
             adopt_changed.capacity() * sizeof(uint64_t);
    }
  };

  /// Packs worlds [0, num_worlds) of the sequence derived from `seed`
  /// (simulate/world.h streams), laid out for a `chunks`-way chunk-strided
  /// evaluation. Building parallelizes over blocks with `num_threads`
  /// workers; block content never depends on the thread count.
  ///
  /// With a `prior` the build is an incremental repack after a delta:
  /// `prior` is the same identity (seed, num_worlds, chunks — checked)
  /// packed against the graph `graph` was derived from, and every forward
  /// edge below `first_dirty_edge` is position-, endpoint- and
  /// probability-identical between the two graphs (delta/overlay.h).
  /// Edge-mask words below the watermark are copied — the lane coins are
  /// keyed by positional EdgeId, so they cannot differ — and only edges
  /// at or above it re-flip per lane. The noise-derived planes (utility,
  /// adoption transitions) are graph-independent and copy verbatim.
  /// Bit-identical to the build without a prior.
  PackedWorldSet(const Graph& graph, const UtilityConfig& config,
                 uint64_t seed, int num_worlds, std::size_t chunks,
                 unsigned num_threads, const PackedWorldSet* prior = nullptr,
                 EdgeId first_dirty_edge = 0);

  /// The blocks of chunk `c`, in world order.
  std::span<const Block> ChunkBlocks(std::size_t c) const {
    return chunk_blocks_[c];
  }

  int num_worlds() const { return num_worlds_; }
  std::size_t chunks() const { return chunk_blocks_.size(); }
  std::size_t bytes() const { return bytes_; }

  /// Deterministic footprint estimate for the budget gate: the set's own
  /// blocks plus the per-chunk kernel scratch (desire/adoption words for
  /// every node). Estimators fall back to the scalar snapshot path when
  /// this exceeds the snapshot budget — all-or-nothing, unlike the
  /// snapshot pool's prefix cutoff, because lane packing cannot partially
  /// materialize a block.
  static std::size_t EstimateBytes(const Graph& graph, int num_items,
                                   int num_worlds, std::size_t chunks);

 private:
  int num_worlds_;
  std::vector<std::vector<Block>> chunk_blocks_;
  std::size_t bytes_ = 0;
};

/// Per-lane outcomes of one block's diffusion — the packed analogue of
/// WorldOutcome (simulate/uic_simulator.h), one entry per lane.
struct PackedOutcome {
  double welfare[kPackedLanes];
  uint32_t adopting_nodes[kPackedLanes];
  uint32_t one_sided_01[kPackedLanes];
  /// adopters[i * kPackedLanes + l]: nodes adopting item i in lane l.
  std::vector<uint32_t> adopters;

  void Reset(int num_items);
};

namespace internal {

/// Kernel scratch: epoch-stamped per-node state sized for the widest arm
/// (stride kPackedGroup regardless of the arm actually running, so the
/// wide kernel reads contiguous 4-word groups).
struct PackedScratch {
  int num_items = 0;
  uint32_t epoch = 0;
  std::vector<uint32_t> stamp;        // last epoch touching the node
  std::vector<uint64_t> desire;       // (v * m + i) * kPackedGroup + g
  std::vector<uint64_t> adopted;      // same layout
  std::vector<uint64_t> grew;         // v * kPackedGroup + g
  std::vector<NodeId> touched;
  std::vector<uint32_t> affected_stamp;
  uint32_t affected_epoch = 0;
  std::vector<NodeId> affected;
  std::vector<NodeId> frontier_nodes, next_nodes;
  std::vector<uint64_t> frontier_fresh, next_fresh;  // m * W words per entry
  std::vector<uint32_t> pair_base;  // pair index of (d, a = d), per d
};

/// The wide kernel arm compiled in the AVX2 translation unit
/// (packed_world_avx2.cc). Only linked — and only called — when the build
/// defines CWM_HAVE_AVX2_TU and the CPU reports AVX2 at runtime.
void RunPackedKernelAvx2(PackedScratch& s, const Graph& graph,
                         const PackedWorldSet::Block* const* blocks,
                         const Allocation& allocation, PackedOutcome* out);

}  // namespace internal

/// Reusable word-parallel diffusion engine for one graph + utility
/// configuration. Not thread-safe; create one per worker (the estimator
/// creates one per chunk).
class PackedDiffusion {
 public:
  PackedDiffusion(const Graph& graph, const UtilityConfig& config);

  /// Runs `allocation` through `count` consecutive blocks of one chunk
  /// (count == 1, or count == kPackedGroup for the wide arm — the wide
  /// call dispatches to the AVX2 kernel when the CPU has it) and fills
  /// out[0..count) with per-lane outcomes. All arms are bit-identical.
  void Run(const PackedWorldSet::Block* const* blocks, int count,
           const Allocation& allocation, PackedOutcome* out);

 private:
  const Graph& graph_;
  internal::PackedScratch scratch_;
};

/// True when the wide kernel arm dispatches to the AVX2-compiled
/// translation unit at runtime (x86 with AVX2, compiler support built
/// in). Informational: results never depend on it.
bool PackedAvx2Active();

}  // namespace cwm

#endif  // CWM_SIMULATE_PACKED_WORLD_H_
