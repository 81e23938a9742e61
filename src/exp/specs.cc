#include "exp/specs.h"

#include <algorithm>
#include <cstdio>

#include "delta/delta_log.h"
#include "delta/overlay.h"
#include "exp/configs.h"
#include "exp/networks.h"
#include "exp/reduction.h"
#include "graph/edge_prob.h"
#include "graph/generators.h"
#include "graph/loader.h"
#include "store/artifact_cache.h"

namespace cwm {

namespace {

std::size_t OrDefault(std::size_t value, std::size_t fallback) {
  return value == 0 ? fallback : value;
}
uint64_t OrDefault64(uint64_t value, uint64_t fallback) {
  return value == 0 ? fallback : value;
}
double OrDefaultD(double value, double fallback) {
  return value == 0.0 ? fallback : value;
}

std::size_t Scaled(std::size_t nodes, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(nodes) * scale));
}

}  // namespace

const SetCoverInstance& DefaultSetCoverInstance() {
  // A YES instance: {0,1} and {2,3} cover the 4 elements with k = 2.
  static const SetCoverInstance instance{
      .num_elements = 4,
      .sets = {{0, 1}, {2, 3}, {0, 2}, {1, 3}, {3}},
      .k = 2,
  };
  return instance;
}

bool IsKnownNetworkFamily(std::string_view family) {
  return family == "nethept-like" || family == "douban-book-like" ||
         family == "douban-movie-like" || family == "orkut-like" ||
         family == "twitter-like" || family == "erdos-renyi" ||
         family == "barabasi-albert" || family == "directed-pa" ||
         family == "watts-strogatz" || family == "edge-list" ||
         family == "theorem2-gadget";
}

std::string NetworkSpec::Label() const {
  if (!label.empty()) return label;
  if (churn_steps == 0) return family;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "-churn%zux%zu", churn_steps, churn_edits);
  return family + buf;
}

std::string NetworkSpec::CacheRecipe(double scale) const {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "network;family=%s;n=%zu;deg=%zu;aux=%.17g;seed=%llu;"
                "prob=%d;pv=%.17g;bfs=%.17g;scale=%.17g;path=%s;"
                "churn=%zux%zu@%llu;v=%u",
                family.c_str(), num_nodes, degree, aux,
                static_cast<unsigned long long>(seed),
                static_cast<int>(prob), prob_value, bfs_fraction, scale,
                path.c_str(), churn_steps, churn_edits,
                static_cast<unsigned long long>(churn_seed), kFormatVersion);
  return buf;
}

StatusOr<Graph> NetworkSpec::Build(double scale, ArtifactCache* cache,
                                   uint64_t* content_hash) const {
  if (content_hash != nullptr) *content_hash = 0;
  // Generator families cache the *finished* graph (probabilities and BFS
  // subsampling applied) under the full recipe. Edge lists are instead
  // content-keyed at the load level (ReadEdgeListCached below), so an
  // edited file can never serve stale bytes; the gadget is trivially
  // cheap and stays uncached. The header's content hash is propagated
  // wherever the cached artifact is returned untransformed: this branch
  // always, and the edge-list path when neither a probability model nor
  // BFS subsampling rewrites the loaded graph.
  if (cache != nullptr && family != "edge-list" &&
      family != "theorem2-gadget") {
    return cache->GetOrBuildGraph(CacheRecipe(scale),
                                  [&]() { return Build(scale, nullptr); },
                                  content_hash);
  }

  Graph topology;
  if (family == "nethept-like") {
    topology = NetHeptLike(OrDefault64(seed, 11));
  } else if (family == "douban-book-like") {
    topology = DoubanBookLike(OrDefault64(seed, 12));
  } else if (family == "douban-movie-like") {
    topology = DoubanMovieLike(OrDefault64(seed, 13));
  } else if (family == "orkut-like") {
    topology = OrkutLike(Scaled(OrDefault(num_nodes, 20000), scale),
                         OrDefault64(seed, 14));
  } else if (family == "twitter-like") {
    topology = TwitterLike(Scaled(OrDefault(num_nodes, 30000), scale),
                           OrDefault64(seed, 15));
  } else if (family == "erdos-renyi") {
    const std::size_t n = Scaled(OrDefault(num_nodes, 10000), scale);
    topology = ErdosRenyi(n, n * OrDefault(degree, 8), OrDefault64(seed, 21));
  } else if (family == "barabasi-albert") {
    topology = BarabasiAlbert(Scaled(OrDefault(num_nodes, 10000), scale),
                              OrDefault(degree, 4), OrDefault64(seed, 22));
  } else if (family == "directed-pa") {
    topology = DirectedPreferentialAttachment(
        Scaled(OrDefault(num_nodes, 10000), scale), OrDefault(degree, 6),
        OrDefaultD(aux, 0.1), OrDefault64(seed, 23));
  } else if (family == "watts-strogatz") {
    topology = WattsStrogatz(Scaled(OrDefault(num_nodes, 10000), scale),
                             OrDefault(degree, 6), OrDefaultD(aux, 0.1),
                             OrDefault64(seed, 24));
  } else if (family == "edge-list") {
    if (path.empty()) {
      return Status::InvalidArgument("edge-list network requires a path");
    }
    // With kAsIs the file's probabilities are the model, so a missing
    // probability column must fail loudly (LoadOptions sentinel). Every
    // other model overwrites probabilities, so 0.0 is an explicit,
    // harmless fill-in.
    LoadOptions load_options;
    if (prob != ProbModel::kAsIs) load_options.default_prob = 0.0;
    // A real SNAP dataset used as-is (no probability rewrite, no BFS
    // cut) is returned straight from the store: its header hash is the
    // finished graph's hash, so warm sweeps skip the O(edges) page-in.
    const bool untransformed =
        prob == ProbModel::kAsIs && bfs_fraction >= 1.0;
    StatusOr<Graph> loaded =
        ReadEdgeListCached(path, load_options, cache,
                           untransformed ? content_hash : nullptr);
    if (!loaded.ok()) return loaded.status();
    topology = std::move(loaded).value();
  } else if (family == "theorem2-gadget") {
    topology = BuildTheorem2Gadget(DefaultSetCoverInstance(),
                                   OrDefault(num_nodes, 8))
                   .graph;
  } else {
    return Status::InvalidArgument("unknown network family: " + family);
  }

  // Probabilities are assigned on the *full* graph before any BFS
  // subsampling (the §6.3.3 / Fig 6(d) methodology): subgraph edges keep
  // the probabilities they had in the full network, e.g. p = 1/din(v)
  // of the original degree, not of the truncated one.
  switch (prob) {
    case ProbModel::kWeightedCascade:
      topology = WithWeightedCascade(topology);
      break;
    case ProbModel::kConstant:
      topology = WithConstantProb(topology, prob_value);
      break;
    case ProbModel::kTrivalency:
      topology = WithTrivalency(topology, OrDefault64(seed, 31));
      break;
    case ProbModel::kAsIs:
      break;
  }

  if (bfs_fraction < 1.0) {
    topology =
        InducedBfsSubgraph(topology, bfs_fraction, OrDefault64(seed, 99));
  }

  // Churn replay: fold `churn_steps` deterministic delta logs into the
  // finished base. Each step's stream is keyed by (churn_seed, step), so
  // any prefix of the chain is reproducible independently — the smoke
  // gate replays the same steps through `cwm_data gen-delta`/`patch` and
  // asserts byte-equality against this composition.
  for (std::size_t step = 0; step < churn_steps; ++step) {
    const DeltaLog log = GenerateChurnDelta(
        topology, MixHash(churn_seed, step), churn_edits);
    StatusOr<AppliedDelta> applied = ApplyDeltaToGraph(topology, log);
    if (!applied.ok()) return applied.status();
    topology = std::move(applied.value().graph);
  }
  return topology;
}

std::string ConfigSpec::Label() const {
  if (name == "uniform") return "uniform-" + std::to_string(num_items);
  return name;
}

StatusOr<UtilityConfig> ConfigSpec::Build() const {
  if (name == "C1") return MakeConfigC1();
  if (name == "C2") return MakeConfigC2();
  if (name == "C3") return MakeConfigC3();
  if (name == "C5") return MakeConfigC5();
  if (name == "C6") return MakeConfigC6();
  if (name == "table4") return MakeThreeItemConfig();
  if (name == "lastfm") return MakeLastFmConfig();
  if (name == "theorem1") return MakeTheorem1Config();
  if (name == "theorem2") return MakeTheorem2Config();
  if (name == "mixed") return MakeMixedComplementConfig();
  if (name == "uniform") {
    if (num_items < 1 || num_items > kMaxItems) {
      return Status::InvalidArgument("uniform config: bad num_items");
    }
    return MakeUniformPureCompetition(num_items);
  }
  return Status::InvalidArgument("unknown utility config: " + name);
}

}  // namespace cwm
