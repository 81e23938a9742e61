// Possible worlds (§3): w = (w1, w2).
//
// EdgeWorld realizes the edge world w1 lazily: whether edge e is live is a
// pure hash of (world seed, edge id), so the sampled subgraph is consistent
// across every query in the world — all items see the same live edges, as
// the model requires — without materializing anything.
//
// NoiseWorld is the noise world w2: one sampled noise value per item, fixed
// for the whole diffusion.
#ifndef CWM_SIMULATE_WORLD_H_
#define CWM_SIMULATE_WORLD_H_

#include <vector>

#include "graph/graph.h"
#include "model/utility.h"
#include "support/rng.h"

namespace cwm {

/// Lazy edge possible world keyed by a seed.
struct EdgeWorld {
  uint64_t seed;

  /// True iff edge `id` (with probability `p`) is live in this world.
  /// Deterministic: repeated queries agree.
  bool Live(EdgeId id, double p) const {
    if (p >= 1.0) return true;
    if (p <= 0.0) return false;
    return HashCoin::Flip(seed, id, p);
  }
};

// Threshold-table coins for materializing worlds. EdgeWorld::Live pays two
// range branches and a double -> uint64 conversion on every flip; a build
// that flips every edge of many worlds converts each edge's probability
// once instead and flips branch-free against the stored integer.

/// Threshold of a coin that is always live (p >= 1). No p < 1 reaches it:
/// the largest double below 1 maps to 2^64 - 2^11.
inline constexpr uint64_t kCoinAlwaysLive = ~uint64_t{0};

/// The integer HashCoin::Flip compares against for probability `p`, with
/// sentinels for EdgeWorld::Live's short-circuits: 0 (no hash is below
/// it) for p <= 0 and kCoinAlwaysLive for p >= 1.
inline uint64_t CoinThreshold(double p) {
  if (p >= 1.0) return kCoinAlwaysLive;
  if (p <= 0.0) return 0;
  return static_cast<uint64_t>(p * 18446744073709551616.0);
}

/// EdgeWorld{seed}.Live(id, p) for threshold == CoinThreshold(p), without
/// a branch.
inline bool CoinLive(uint64_t seed, EdgeId id, uint64_t threshold) {
  return (MixHash(seed, id) < threshold) | (threshold == kCoinAlwaysLive);
}

/// CoinThreshold of every edge of `graph`, in EdgeId order (the edge's
/// float probability promoted to double, as EdgeWorld::Live receives it).
inline std::vector<uint64_t> CoinThresholds(const Graph& graph) {
  const auto edges = graph.RawOutEdges();
  std::vector<uint64_t> thresholds(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    thresholds[e] = CoinThreshold(edges[e].prob);
  }
  return thresholds;
}

/// Samples the per-item noise vector of a noise world w2.
inline std::vector<double> SampleNoiseWorld(const UtilityConfig& config,
                                            Rng& rng) {
  std::vector<double> noise(config.num_items());
  for (ItemId i = 0; i < config.num_items(); ++i) {
    noise[i] = config.Noise(i).Sample(rng);
  }
  return noise;
}

// World-stream derivation shared by the streaming estimator and the
// snapshot engine (simulate/world_pool.h): world w of an estimate seeded
// with `base` always uses these exact streams, so a materialized snapshot
// is bit-identical to the lazy on-the-fly world.

/// Edge-world seed of world `world` under estimator seed `base`.
inline uint64_t WorldEdgeSeedOf(uint64_t base, int world) {
  return MixHash(base, static_cast<uint64_t>(world) * 2 + 1);
}

/// Noise-world RNG of world `world` under estimator seed `base`.
inline Rng WorldNoiseRngOf(uint64_t base, int world) {
  return Rng(MixHash(base ^ 0x9e3779b97f4a7c15ULL,
                     static_cast<uint64_t>(world) * 2));
}

}  // namespace cwm

#endif  // CWM_SIMULATE_WORLD_H_
