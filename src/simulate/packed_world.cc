#include "simulate/packed_world.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "simulate/packed_kernel_inl.h"
#include "simulate/world.h"
#include "support/check.h"
#include "support/thread_pool.h"

namespace cwm {

namespace {

/// 3^m: the number of (desired, adopted ⊆ desired) transition pairs.
std::size_t NumPairs(int num_items) {
  std::size_t pairs = 1;
  for (int i = 0; i < num_items; ++i) pairs *= 3;
  return pairs;
}

std::size_t WorldsInChunk(int num_worlds, std::size_t chunks, std::size_t c) {
  if (c >= static_cast<std::size_t>(num_worlds)) return 0;
  return (static_cast<std::size_t>(num_worlds) - c + chunks - 1) / chunks;
}

/// World of lane `l` of block `b` of chunk `c` (the chunk stride).
int WorldOfLane(std::size_t chunks, std::size_t c, std::size_t b, int l) {
  return static_cast<int>(
      c + (b * kPackedLanes + static_cast<std::size_t>(l)) * chunks);
}

/// Edge seeds of the lanes of block `b` of chunk `c`.
std::array<uint64_t, kPackedLanes> LaneSeeds(uint64_t seed,
                                             std::size_t chunks,
                                             std::size_t c, std::size_t b,
                                             int lane_count) {
  std::array<uint64_t, kPackedLanes> seeds{};
  for (int l = 0; l < lane_count; ++l) {
    seeds[l] = WorldEdgeSeedOf(seed, WorldOfLane(chunks, c, b, l));
  }
  return seeds;
}

/// Sets (*masks)[e] for every edge e >= `first`: bit l is the coin of
/// edge e in lane l's world, flipped branch-free against the edge's
/// threshold (CoinLive, simulate/world.h).
void FlipLanes(std::span<const uint64_t> thresholds,
               const std::array<uint64_t, kPackedLanes>& lane_seeds,
               int lane_count, std::size_t first,
               std::vector<uint64_t>* masks) {
  for (std::size_t e = first; e < thresholds.size(); ++e) {
    const uint64_t threshold = thresholds[e];
    uint64_t mask = 0;
    for (int l = 0; l < lane_count; ++l) {
      mask |= uint64_t{CoinLive(lane_seeds[l], static_cast<EdgeId>(e),
                                threshold)}
              << l;
    }
    (*masks)[e] = mask;
  }
}

}  // namespace

PackedWorldSet::PackedWorldSet(const Graph& graph, const UtilityConfig& config,
                               uint64_t seed, int num_worlds,
                               std::size_t chunks, unsigned num_threads)
    : num_worlds_(num_worlds) {
  CWM_CHECK(num_worlds >= 1);
  CWM_CHECK(chunks >= 1);
  const int m = config.num_items();
  CWM_CHECK(m >= 1 && m <= kMaxPackedItems);

  struct Job {
    std::size_t chunk;
    std::size_t block;
  };
  std::vector<Job> jobs;
  chunk_blocks_.resize(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t worlds = WorldsInChunk(num_worlds, chunks, c);
    const std::size_t blocks = (worlds + kPackedLanes - 1) / kPackedLanes;
    chunk_blocks_[c].resize(blocks);
    for (std::size_t b = 0; b < blocks; ++b) jobs.push_back({c, b});
  }

  const std::size_t pairs = NumPairs(m);
  const std::size_t table_size = std::size_t{1} << m;
  const std::vector<uint64_t> thresholds = CoinThresholds(graph);
  ParallelFor(
      jobs.size(),
      [&](std::size_t j) {
        const auto [c, b] = jobs[j];
        Block& blk = chunk_blocks_[c][b];
        const std::size_t worlds = WorldsInChunk(num_worlds, chunks, c);
        blk.lane_count = static_cast<int>(
            std::min<std::size_t>(kPackedLanes, worlds - b * kPackedLanes));
        blk.lane_mask = blk.lane_count == kPackedLanes
                            ? ~uint64_t{0}
                            : (uint64_t{1} << blk.lane_count) - 1;
        blk.edge_mask.resize(graph.num_edges());
        blk.utility.assign(std::size_t{kPackedLanes} << m, 0.0);
        blk.adopt_plane.assign(pairs * m, 0);
        blk.adopt_changed.assign(pairs, 0);
        // Live-edge lanes: the same WorldEdgeSeedOf streams and the same
        // coins as the lazy/snapshot paths.
        FlipLanes(thresholds, LaneSeeds(seed, chunks, c, b, blk.lane_count),
                  blk.lane_count, 0, &blk.edge_mask);
        for (int l = 0; l < blk.lane_count; ++l) {
          const int world = WorldOfLane(chunks, c, b, l);
          const uint64_t bit = uint64_t{1} << l;
          Rng rng = WorldNoiseRngOf(seed, world);
          const WorldUtilityTable table(config, rng);
          for (std::size_t s = 0; s < table_size; ++s) {
            blk.utility[(static_cast<std::size_t>(l) << m) | s] =
                table.Utility(static_cast<ItemSet>(s));
          }
          std::size_t pair = 0;
          for (std::size_t d = 0; d < table_size; ++d) {
            ForEachSubset(static_cast<ItemSet>(d), [&](ItemSet a) {
              const ItemSet best =
                  table.BestAdoption(static_cast<ItemSet>(d), a);
              if (best != a) blk.adopt_changed[pair] |= bit;
              ForEachItem(best, [&](ItemId i) {
                blk.adopt_plane[pair * m + i] |= bit;
              });
              ++pair;
            });
          }
        }
      },
      num_threads);

  for (const auto& blocks : chunk_blocks_) {
    for (const Block& blk : blocks) bytes_ += blk.bytes();
  }
}

PackedWorldSet::PackedWorldSet(const Graph& graph, const PackedWorldSet& prior,
                               uint64_t seed, EdgeId first_dirty_edge,
                               unsigned num_threads)
    : num_worlds_(prior.num_worlds_) {
  const std::size_t chunks = prior.chunk_blocks_.size();
  struct Job {
    std::size_t chunk;
    std::size_t block;
  };
  std::vector<Job> jobs;
  chunk_blocks_.resize(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    chunk_blocks_[c].resize(prior.chunk_blocks_[c].size());
    for (std::size_t b = 0; b < chunk_blocks_[c].size(); ++b) {
      jobs.push_back({c, b});
    }
  }

  const std::vector<uint64_t> thresholds = CoinThresholds(graph);
  const std::size_t clean =
      std::min<std::size_t>(first_dirty_edge, thresholds.size());
  ParallelFor(
      jobs.size(),
      [&](std::size_t j) {
        const auto [c, b] = jobs[j];
        Block& blk = chunk_blocks_[c][b];
        const Block& old = prior.chunk_blocks_[c][b];
        blk.lane_count = old.lane_count;
        blk.lane_mask = old.lane_mask;
        // The noise-derived planes never read the graph: copy verbatim.
        blk.utility = old.utility;
        blk.adopt_plane = old.adopt_plane;
        blk.adopt_changed = old.adopt_changed;
        // Edge coins are keyed by positional EdgeId, so every word below
        // the watermark is identical to the prior's; only the dirty
        // suffix re-flips.
        blk.edge_mask.resize(thresholds.size());
        std::copy(old.edge_mask.begin(),
                  old.edge_mask.begin() + static_cast<std::ptrdiff_t>(clean),
                  blk.edge_mask.begin());
        FlipLanes(thresholds, LaneSeeds(seed, chunks, c, b, blk.lane_count),
                  blk.lane_count, clean, &blk.edge_mask);
      },
      num_threads);

  for (const auto& blocks : chunk_blocks_) {
    for (const Block& blk : blocks) bytes_ += blk.bytes();
  }
}

std::size_t PackedWorldSet::EstimateBytes(const Graph& graph, int num_items,
                                          int num_worlds, std::size_t chunks) {
  const std::size_t pairs = NumPairs(num_items);
  const std::size_t per_block =
      graph.num_edges() * sizeof(uint64_t) +
      (std::size_t{kPackedLanes} << num_items) * sizeof(double) +
      pairs * static_cast<std::size_t>(num_items) * sizeof(uint64_t) +
      pairs * sizeof(uint64_t);
  std::size_t blocks = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t worlds = WorldsInChunk(num_worlds, chunks, c);
    blocks += (worlds + kPackedLanes - 1) / kPackedLanes;
  }
  // One kernel engine lives per chunk; its node-state scratch (desire +
  // adopted words, grew masks, stamps) dominates on large graphs, so the
  // budget gate must see it.
  const std::size_t scratch_per_chunk =
      graph.num_nodes() * static_cast<std::size_t>(num_items) * kPackedGroup *
          sizeof(uint64_t) * 2 +
      graph.num_nodes() * (kPackedGroup * sizeof(uint64_t) +
                           2 * sizeof(uint32_t));
  const std::size_t live_chunks =
      std::min(chunks, static_cast<std::size_t>(num_worlds));
  return blocks * per_block + live_chunks * scratch_per_chunk;
}

void PackedOutcome::Reset(int num_items) {
  std::fill(std::begin(welfare), std::end(welfare), 0.0);
  std::fill(std::begin(adopting_nodes), std::end(adopting_nodes), 0u);
  std::fill(std::begin(one_sided_01), std::end(one_sided_01), 0u);
  adopters.assign(static_cast<std::size_t>(num_items) * kPackedLanes, 0u);
}

PackedDiffusion::PackedDiffusion(const Graph& graph,
                                 const UtilityConfig& config)
    : graph_(graph) {
  const int m = config.num_items();
  CWM_CHECK(m >= 1 && m <= kMaxPackedItems);
  const std::size_t n = graph.num_nodes();
  scratch_.num_items = m;
  scratch_.stamp.assign(n, 0);
  scratch_.desire.assign(n * static_cast<std::size_t>(m) * kPackedGroup, 0);
  scratch_.adopted.assign(n * static_cast<std::size_t>(m) * kPackedGroup, 0);
  scratch_.grew.assign(n * kPackedGroup, 0);
  scratch_.affected_stamp.assign(n, 0);
  scratch_.pair_base.assign(std::size_t{1} << m, 0);
  uint32_t acc = 0;
  for (std::size_t d = 0; d < (std::size_t{1} << m); ++d) {
    scratch_.pair_base[d] = acc;
    acc += uint32_t{1} << SetSize(static_cast<ItemSet>(d));
  }
}

void PackedDiffusion::Run(const PackedWorldSet::Block* const* blocks,
                          int count, const Allocation& allocation,
                          PackedOutcome* out) {
  CWM_CHECK(count == 1 || count == kPackedGroup);
  if (count == kPackedGroup) {
#if defined(CWM_HAVE_AVX2_TU) && (defined(__x86_64__) || defined(__i386__))
    if (__builtin_cpu_supports("avx2")) {
      internal::RunPackedKernelAvx2(scratch_, graph_, blocks, allocation, out);
      return;
    }
#endif
    internal::RunPackedKernel<kPackedGroup>(scratch_, graph_, blocks,
                                            allocation, out);
    return;
  }
  internal::RunPackedKernel<1>(scratch_, graph_, blocks, allocation, out);
}

bool PackedAvx2Active() {
#if defined(CWM_HAVE_AVX2_TU) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace cwm
