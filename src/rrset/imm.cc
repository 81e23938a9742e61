#include "rrset/imm.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/cancel.h"
#include "rrset/node_selection.h"
#include "rrset/rr_sampler.h"
#include "store/format.h"
#include "support/check.h"
#include "support/mathx.h"

namespace cwm {

namespace {

constexpr double kOneMinusInvE = 1.0 - 0.36787944117144232159552377016146;

double CoverageOfPrefix(const RrCollection& rr, const GreedySelection& sel,
                        std::size_t k, std::size_t n) {
  if (rr.size() == 0) return 0.0;
  return static_cast<double>(n) * sel.CoveredAt(k) /
         static_cast<double>(rr.size());
}

}  // namespace

double LambdaStar(std::size_t n, int b, double epsilon, double ell) {
  const double logn = std::log(static_cast<double>(n));
  const double alpha = std::sqrt(ell * logn + std::log(2.0));
  const double beta = std::sqrt(
      kOneMinusInvE * (LogBinomial(n, static_cast<uint64_t>(b)) + ell * logn +
                       std::log(2.0)));
  const double s = kOneMinusInvE * alpha + beta;
  return 2.0 * static_cast<double>(n) * s * s / (epsilon * epsilon);
}

double LambdaPrime(std::size_t n, int b, double eps_prime, double ell_prime) {
  const double logn = std::log(static_cast<double>(n));
  const double loglog2n =
      std::log(std::max(2.0, std::log2(static_cast<double>(n))));
  return (2.0 + 2.0 / 3.0 * eps_prime) *
         (LogBinomial(n, static_cast<uint64_t>(b)) + ell_prime * logn +
          loglog2n) *
         static_cast<double>(n) / (eps_prime * eps_prime);
}

uint64_t MarginalRrSourceId(std::vector<NodeId> prior_seeds) {
  std::sort(prior_seeds.begin(), prior_seeds.end());
  prior_seeds.erase(std::unique(prior_seeds.begin(), prior_seeds.end()),
                    prior_seeds.end());
  // Tagged so an empty blocked set still differs from the standard source.
  uint64_t h = 0x4D72675252ull;  // "MrgRR"
  const uint64_t count = prior_seeds.size();
  h = Fnv1a64(&count, sizeof(count), h);
  return Fnv1a64(prior_seeds.data(), prior_seeds.size() * sizeof(NodeId), h);
}

ImmResult RunImmDriver(std::size_t num_nodes,
                       const std::vector<int>& budget_levels,
                       const ImmParams& params,
                       const RrSourceFactory& source,
                       uint64_t source_id) {
  CWM_CHECK(!budget_levels.empty());
  CWM_CHECK(std::is_sorted(budget_levels.begin(), budget_levels.end()));
  CWM_CHECK(num_nodes >= 2);
  const std::size_t n = num_nodes;
  const double logn = std::log(static_cast<double>(n));
  const double eps = params.epsilon;
  const double eps_prime = std::sqrt(2.0) * eps;
  // ell adjustments of Algorithm 4/6: success probability splits between
  // the search phase and the final phase, and union-bounds over the
  // budget levels.
  const double ell_adj = params.ell + std::log(2.0) / logn;
  const double ell_prime =
      ell_adj +
      std::log(static_cast<double>(budget_levels.size())) / logn;

  RrPipeline pipeline(source, params.seed, params.num_threads);
  if (params.cache != nullptr && params.graph_hash != 0 && source_id != 0) {
    pipeline.BindCache(params.cache, params.graph_hash, source_id);
  }
  pipeline.BindCancel(params.cancel);
  RrCollection rr(n);
  // Sticky cancellation: once observed (by the pipeline's per-chunk polls
  // or between phases here), every later sampling request is a no-op and
  // the driver falls through to a structurally valid filler result — full
  // seed-set size, zero estimates — that the caller discards after
  // re-checking the flag. Never taken by uncancelled runs, so it cannot
  // change their results.
  bool cancel_seen = false;
  auto check_cancel = [&]() {
    if (!cancel_seen &&
        (pipeline.cancelled() ||
         (params.cancel != nullptr && CancelRequested(params.cancel)))) {
      cancel_seen = true;
    }
    return cancel_seen;
  };
  auto sample_until = [&](double theta) {
    if (cancel_seen) return;
    std::size_t want = static_cast<std::size_t>(std::ceil(theta));
    if (params.max_rr_sets > 0) want = std::min(want, params.max_rr_sets);
    pipeline.ExtendTo(&rr, want);
    check_cancel();
  };

  const int i_max = std::max(1, static_cast<int>(std::log2(
                                    static_cast<double>(n))) - 1);
  double theta_final = 0.0;
  int i = 1;
  for (int b : budget_levels) {
    const double lam_prime = LambdaPrime(n, b, eps_prime, ell_prime);
    const double lam_star = LambdaStar(n, b, eps, ell_adj);
    double lb = 1.0;
    while (i <= i_max) {
      const double x = static_cast<double>(n) / std::exp2(i);
      sample_until(lam_prime / x);
      if (cancel_seen) break;
      const GreedySelection sel = SelectMaxCoverage(rr, b);
      const double est = CoverageOfPrefix(rr, sel, sel.seeds.size(), n);
      if (est >= (1.0 + eps_prime) * x) {
        lb = est / (1.0 + eps_prime);
        break;
      }
      ++i;
    }
    if (cancel_seen) break;
    const double theta_b = lam_star / lb;
    // Keep the working collection at this level's theta so the next
    // level's statistical test sees at least as many samples (the
    // "budgetSwitch" sampling of Algorithm 4).
    sample_until(theta_b);
    theta_final = std::max(theta_final, theta_b);
  }

  // Final pass with fresh RR sets (fix of [17]). A cancelled run skips it
  // and selects over the just-cleared collection: SelectMaxCoverage pads
  // to the full budget with smallest untaken ids, so the result has the
  // shape every caller relies on (size, distinctness, range) at
  // O(budget) cost. Each era is persisted once, when it is complete: the
  // search era before Clear() ends it, the final era after its pass.
  pipeline.PersistEra(rr);
  rr.Clear();
  sample_until(theta_final);
  pipeline.PersistEra(rr);
  const int total_b = budget_levels.back();
  const GreedySelection sel = SelectMaxCoverage(rr, total_b);

  ImmResult result;
  result.seeds = sel.seeds;
  result.rr_count = rr.size();
  result.coverage_estimate = CoverageOfPrefix(rr, sel, sel.seeds.size(), n);
  result.prefix_estimates.reserve(budget_levels.size());
  for (int b : budget_levels) {
    result.prefix_estimates.push_back(
        CoverageOfPrefix(rr, sel, static_cast<std::size_t>(b), n));
  }
  return result;
}

ImmResult Imm(const Graph& graph, int budget, const ImmParams& params) {
  CWM_CHECK(budget >= 1);
  const RrSourceFactory source = [&graph]() -> RrSampleFn {
    auto sampler = std::make_shared<RrSampler>(graph);
    return [sampler](Rng& rng, std::vector<NodeId>* out) {
      sampler->SampleStandard(rng, out);
      return 1.0;
    };
  };
  return RunImmDriver(graph.num_nodes(), {budget}, params, source,
                      kStandardRrSourceId);
}

}  // namespace cwm
