// Declarative network and utility-configuration specs: the values of a
// scenario's network and configuration axes (scenario/scenario.h) and what
// Engine::Open (api/engine.h) builds an engine from. Both build
// deterministically from their fields; a NetworkSpec's recipe string keys
// its finished graph in the artifact cache.
#ifndef CWM_EXP_SPECS_H_
#define CWM_EXP_SPECS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "graph/graph.h"
#include "model/utility.h"
#include "support/status.h"

namespace cwm {

class ArtifactCache;

/// Edge influence-probability model applied after topology generation.
enum class ProbModel {
  kWeightedCascade,  ///< p(u,v) = 1/din(v) (the paper's default, §6.1.3)
  kConstant,         ///< p(u,v) = prob_value (Fig 6(d) uses 0.01)
  kTrivalency,       ///< p(u,v) in {0.1, 0.01, 0.001} uniformly at random
  kAsIs,             ///< keep the probabilities the source provides
                     ///< (edge lists with a probability column; gadgets)
};

/// One network choice: a generator family with its scale knobs, an
/// edge-list path, or a theory gadget. `num_nodes`/`degree`/`seed` of 0
/// mean "family default".
struct NetworkSpec {
  /// One of: "nethept-like", "douban-book-like", "douban-movie-like",
  /// "orkut-like", "twitter-like" (Table 2 stand-ins); "erdos-renyi",
  /// "barabasi-albert", "directed-pa", "watts-strogatz" (raw generator
  /// families); "edge-list" (SNAP file at `path`); "theorem2-gadget"
  /// (the Theorem 2 hardness instance, exp/reduction.h).
  std::string family = "nethept-like";
  std::size_t num_nodes = 0;  ///< generator size; 0 = family default
  std::size_t degree = 0;     ///< avg-degree knob; 0 = family default
  double aux = 0.0;           ///< Watts-Strogatz beta / directed-pa random_frac
  uint64_t seed = 0;          ///< generator seed; 0 = family default
  std::string path;           ///< edge-list path (family "edge-list")
  ProbModel prob = ProbModel::kWeightedCascade;
  double prob_value = 0.01;   ///< constant-model probability
  double bfs_fraction = 1.0;  ///< induced-BFS subsample (Fig 6(d)); 1 = all
  /// Dynamic-graph churn replay: > 0 applies this many deterministic
  /// churn deltas (delta/delta_log.h, `churn_edits` edits each, streams
  /// derived from `churn_seed`) on top of the generated base before the
  /// sweep sees the graph. The composed graph is part of the spec's
  /// recipe, so caching and determinism behave exactly as for any other
  /// family knob.
  std::size_t churn_steps = 0;
  std::size_t churn_edits = 10;
  uint64_t churn_seed = 1;
  std::string label;          ///< display name; empty = derived from family

  /// Display name, e.g. "orkut-like" or "orkut-like-50pct-const".
  std::string Label() const;

  /// Builds topology + probabilities. `scale` multiplies the effective
  /// node count of the scalable families (CWM_BENCH_SCALE semantics).
  /// With a non-null `cache` the finished graph (probabilities applied)
  /// is served from / stored into the artifact store under this spec's
  /// full recipe — a hit mmap-opens the binary image zero-copy and is
  /// bit-identical to a rebuild. If `content_hash` is non-null it
  /// receives GraphContentHash of the returned graph when the cached
  /// path can provide it cheaply (from the .cwg header on warm opens —
  /// no edge page-in), or 0 when the caller must compute it itself
  /// (uncached families, post-load transforms).
  StatusOr<Graph> Build(double scale = 1.0, ArtifactCache* cache = nullptr,
                        uint64_t* content_hash = nullptr) const;

  /// The canonical recipe string keying this spec (+ scale) in the
  /// artifact cache; exposed for cwm_data and tests.
  std::string CacheRecipe(double scale) const;
};

/// True if `family` names a known NetworkSpec family.
bool IsKnownNetworkFamily(std::string_view family);

/// One utility-configuration choice, by factory name.
struct ConfigSpec {
  /// One of: "C1", "C2", "C3", "C5", "C6" (Table 3 / §6.2.3), "table4"
  /// (three-item blocking config), "lastfm" (Table 5), "uniform"
  /// (num_items unit items in pure competition, Fig 6(a,b)), "theorem1",
  /// "theorem2" (theory configs), "mixed" (§7 competition +
  /// complementarity).
  std::string name = "C1";
  int num_items = 2;  ///< only read by "uniform"

  /// Display name: the factory name, plus "-m" for "uniform".
  std::string Label() const;

  StatusOr<UtilityConfig> Build() const;
};

/// The canned SET COVER instance behind the "theorem2-gadget" network
/// family: 4 elements, 5 subsets, k = 2 (a YES instance).
struct SetCoverInstance;
const SetCoverInstance& DefaultSetCoverInstance();

}  // namespace cwm

#endif  // CWM_EXP_SPECS_H_
