// Ablation benches for the estimator and selection design choices:
//
//  1. Common random numbers (CRN) in marginal-welfare estimation vs two
//     independent estimates — variance at equal sample budget. CRN is what
//     makes SeqGRD's marginal checks affordable.
//  2. Lazy (CELF) greedy max-coverage vs naive re-evaluating greedy —
//     identical selections, very different running time.
//  3. PRIMA+ epsilon sweep — RR-set count and seed quality as the accuracy
//     knob moves (the paper fixes eps = 0.5).
//
// Seed-ranking quality (PRIMA+ order vs the classic heuristics) is the
// engine scenario `cwm_run ranking-quality`. These sections probe
// estimator/kernel internals below the scenario abstraction, so they
// drive the library directly; the graph comes from the engine's
// NetworkSpec.
#include <cmath>
#include <cstdio>
#include <vector>

#include "exp/configs.h"
#include "exp/networks.h"
#include "rrset/node_selection.h"
#include "rrset/prima_plus.h"
#include "rrset/rr_sampler.h"
#include "scenario/scenario.h"
#include "simulate/estimator.h"
#include "support/timer.h"

namespace {

using namespace cwm;

void CrnVariance(const Graph& graph) {
  std::printf("\n-- (1) CRN vs independent marginal estimation "
              "(C1, marginal of 5 extra seeds on 5 base seeds)\n");
  const UtilityConfig config = MakeConfigC1();
  Allocation base(2), extra(2);
  for (NodeId v = 0; v < 5; ++v) base.Add(v * 31, 0);
  for (NodeId v = 0; v < 5; ++v) extra.Add(v * 57 + 3, 1);

  const int kRepeats = 25;
  for (const int sims : {50, 200}) {
    double crn_mean = 0, crn_m2 = 0, ind_mean = 0, ind_m2 = 0;
    for (int r = 0; r < kRepeats; ++r) {
      WelfareEstimator crn(graph, config,
                           {.num_worlds = sims,
                            .seed = 0x100 + static_cast<uint64_t>(r)});
      const double m = crn.MarginalWelfare(base, extra);
      crn_mean += m;
      crn_m2 += m * m;
      // Independent: two estimators with unrelated world seeds.
      WelfareEstimator a(graph, config,
                         {.num_worlds = sims,
                          .seed = 0x9000 + static_cast<uint64_t>(r)});
      WelfareEstimator b(graph, config,
                         {.num_worlds = sims,
                          .seed = 0x5000'000 + static_cast<uint64_t>(r)});
      const double mi =
          a.Welfare(Allocation::Union(base, extra)) - b.Welfare(base);
      ind_mean += mi;
      ind_m2 += mi * mi;
    }
    crn_mean /= kRepeats;
    ind_mean /= kRepeats;
    const double crn_sd =
        std::sqrt(std::max(0.0, crn_m2 / kRepeats - crn_mean * crn_mean));
    const double ind_sd =
        std::sqrt(std::max(0.0, ind_m2 / kRepeats - ind_mean * ind_mean));
    std::printf("  sims=%-4d CRN: mean=%8.2f sd=%7.2f | independent: "
                "mean=%8.2f sd=%7.2f | sd ratio %.1fx\n",
                sims, crn_mean, crn_sd, ind_mean, ind_sd,
                ind_sd / std::max(1e-9, crn_sd));
  }
}

void LazyVsNaiveGreedy(const Graph& graph) {
  std::printf("\n-- (2) lazy (CELF) vs naive greedy max-coverage\n");
  RrSampler sampler(graph);
  Rng rng(17);
  RrCollection rr(graph.num_nodes());
  std::vector<NodeId> scratch;
  for (int i = 0; i < 50000; ++i) {
    sampler.SampleStandard(rng, &scratch);
    rr.Add(scratch, 1.0);
  }
  Timer lazy_timer;
  const GreedySelection lazy = SelectMaxCoverage(rr, 50);
  const double lazy_s = lazy_timer.Seconds();

  // Naive greedy: recompute every node's marginal gain each round, over
  // per-node RR lists built (untimed) up front.
  std::vector<std::vector<uint32_t>> sets_of(graph.num_nodes());
  for (uint32_t id = 0; id < rr.size(); ++id) {
    for (NodeId v : rr.Members(id)) sets_of[v].push_back(id);
  }
  Timer naive_timer;
  std::vector<char> covered(rr.size(), 0);
  std::vector<char> taken(graph.num_nodes(), 0);
  std::vector<NodeId> naive_seeds;
  double naive_covered = 0;
  for (int pick = 0; pick < 50; ++pick) {
    double best_gain = -1;
    NodeId best_node = 0;
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (taken[v]) continue;
      double gain = 0;
      for (uint32_t id : sets_of[v]) {
        if (!covered[id]) gain += rr.Weight(id);
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_node = v;
      }
    }
    taken[best_node] = 1;
    naive_seeds.push_back(best_node);
    naive_covered += best_gain;
    for (uint32_t id : sets_of[best_node]) covered[id] = 1;
  }
  const double naive_s = naive_timer.Seconds();
  std::printf("  lazy: %.3fs, covered %.0f | naive: %.3fs, covered %.0f | "
              "speedup %.0fx, selections %s\n",
              lazy_s, lazy.covered_prefix.back(), naive_s, naive_covered,
              naive_s / std::max(1e-9, lazy_s),
              lazy.seeds == naive_seeds ? "identical" : "differ (ties)");
}

void EpsilonSweep(const Graph& graph) {
  std::printf("\n-- (3) PRIMA+ epsilon sweep (budget 50)\n");
  const UtilityConfig unit = [] {
    UtilityConfigBuilder b(1);
    b.SetItemValue(0, 1.0);
    return std::move(b).Build().value();
  }();
  WelfareEstimator est(graph, unit, {.num_worlds = 1000, .seed = 5});
  for (const double eps : {0.9, 0.5, 0.3, 0.2}) {
    Timer t;
    const ImmResult r = PrimaPlus(graph, {}, {50}, 50,
                                  {.epsilon = eps, .ell = 1.0, .seed = 7});
    std::printf("  eps=%.1f: %8zu RR sets, %6.2fs, spread(seeds)=%8.1f\n",
                eps, r.rr_count, t.Seconds(), est.Spread(r.seeds));
    std::fflush(stdout);
  }
}

}  // namespace

int main() {
  std::printf("Ablations: CRN marginals, lazy greedy, epsilon "
              "(design choices, not a paper figure)\n");
  NetworkSpec nethept_spec;
  nethept_spec.family = "nethept-like";
  const Graph graph = nethept_spec.Build().value();
  std::printf("%s\n", NetworkStatsRow("nethept-like", graph).c_str());
  CrnVariance(graph);
  LazyVsNaiveGreedy(graph);
  EpsilonSweep(graph);
  return 0;
}
