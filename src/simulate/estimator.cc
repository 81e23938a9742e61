#include "simulate/estimator.h"

#include <algorithm>
#include <iterator>

#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "simulate/packed_world.h"
#include "support/thread_pool.h"

namespace cwm {

namespace {

// World w derives its edge seed and noise stream deterministically from the
// estimator seed (simulate/world.h), so every estimate (and both sides of a
// marginal) sees the same sequence of possible worlds.
uint64_t EdgeSeedOf(uint64_t base, int world) {
  return WorldEdgeSeedOf(base, world);
}

Rng NoiseRngOf(uint64_t base, int world) {
  return WorldNoiseRngOf(base, world);
}

// Runs `fn(blocks, group)` over the blocks of one chunk, kPackedGroup
// consecutive blocks per pass (the wide arm) and the remainder one block
// at a time (the narrow arm). Grouping depends only on the block count —
// never on the CPU — so per-candidate accumulation order (blocks
// ascending, lanes ascending inside each block) is identical on every
// machine.
template <typename Fn>
void ForEachBlockGroup(std::span<const PackedWorldSet::Block> blocks,
                       const Fn& fn) {
  const PackedWorldSet::Block* ptrs[kPackedGroup];
  for (std::size_t b = 0; b < blocks.size();) {
    const int group = b + kPackedGroup <= blocks.size() ? kPackedGroup : 1;
    for (int g = 0; g < group; ++g) ptrs[g] = &blocks[b + g];
    fn(ptrs, group);
    b += static_cast<std::size_t>(group);
  }
}

}  // namespace

WelfareEstimator::WelfareEstimator(const Graph& graph,
                                   const UtilityConfig& config,
                                   EstimatorOptions options)
    : graph_(graph), config_(config), options_(options) {
  CWM_CHECK(options_.num_worlds > 0);
}

unsigned WelfareEstimator::NumThreads() const {
  return options_.num_threads == 0 ? DefaultThreads() : options_.num_threads;
}

std::size_t WelfareEstimator::NumChunks() const {
  return std::max<std::size_t>(
      1, std::min<std::size_t>(NumThreads(), options_.num_worlds));
}

std::size_t WelfareEstimator::BudgetBytes() const {
  return options_.pool_store != nullptr ? options_.pool_store->budget_bytes()
                                        : options_.snapshot_budget_bytes;
}

const WorldPool& WelfareEstimator::EnsurePool() const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_ == nullptr) {
    if (options_.pool_store != nullptr) {
      pool_ = options_.pool_store->GetOrBuild(graph_, config_, options_.seed,
                                              options_.num_worlds,
                                              NumThreads());
    } else {
      pool_ = std::make_shared<const WorldPool>(
          graph_, config_, options_.seed, options_.num_worlds,
          options_.snapshot_budget_bytes, NumThreads());
    }
    // Worlds past the snapshot budget stream lazily (bit-identical,
    // just slower); count them so a silently under-budgeted run shows
    // up in `--metrics` instead of only in wall time.
    const int snapshotted = pool_->stats().snapshotted;
    if (snapshotted < options_.num_worlds) {
      static Counter& fallback =
          MetricsRegistry::Global().GetCounter("simulate.stream_fallback_worlds");
      fallback.Add(static_cast<uint64_t>(options_.num_worlds - snapshotted));
    }
  }
  return *pool_;
}

const PackedWorldSet* WelfareEstimator::EnsurePacked() const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  if (packed_resolved_) return packed_.get();
  packed_resolved_ = true;
  if (!options_.packed_kernel) return nullptr;
  if (options_.num_worlds < options_.packed_min_worlds) return nullptr;
  const int m = config_.num_items();
  if (m < 1 || m > kMaxPackedItems) return nullptr;
  // Regime gate: on weak-tie graphs the 64 lanes of a word rarely agree,
  // so the union-frontier BFS does near-scalar work per world and the
  // per-world snapshot path is faster. Mean edge probability is a cheap,
  // deterministic proxy for that lane overlap.
  if (options_.packed_min_mean_prob > 0.0) {
    const auto edges = graph_.RawOutEdges();
    double sum = 0.0;
    for (const OutEdge& e : edges) sum += static_cast<double>(e.prob);
    if (edges.empty() ||
        sum < options_.packed_min_mean_prob * static_cast<double>(edges.size())) {
      return nullptr;
    }
  }

  static Counter& fallback =
      MetricsRegistry::Global().GetCounter("simulate.packed_fallback");
  const std::size_t chunks = NumChunks();
  // All-or-nothing budget gate: the packed layout (blocks + per-chunk
  // kernel scratch) cannot partially materialize, so over budget means
  // the scalar snapshot path, which can.
  if (PackedWorldSet::EstimateBytes(graph_, m, options_.num_worlds, chunks) >
      BudgetBytes()) {
    fallback.Add(1);
    return nullptr;
  }

  CWM_TRACE_SPAN("simulate.pack_worlds",
                 {{"worlds", options_.num_worlds}, {"chunks", chunks}});
  if (options_.pool_store != nullptr) {
    packed_ = options_.pool_store->GetOrBuildPacked(
        graph_, config_, options_.seed, options_.num_worlds, chunks,
        NumThreads());
    if (packed_ == nullptr) fallback.Add(1);
  } else {
    packed_ = std::make_shared<const PackedWorldSet>(
        graph_, config_, options_.seed, options_.num_worlds, chunks,
        NumThreads());
  }
  return packed_.get();
}

WorldPoolStats WelfareEstimator::snapshot_stats() const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_ == nullptr ? WorldPoolStats{} : pool_->stats();
}

double WelfareEstimator::Welfare(const Allocation& allocation) const {
  return Stats(allocation).welfare;
}

WelfareStats WelfareEstimator::Stats(const Allocation& allocation) const {
  ScopedPhaseTimer phase(Phase::kEstimate);
  CWM_TRACE_SPAN("simulate.stats", {{"worlds", options_.num_worlds}});
  const std::size_t chunks = NumChunks();
  std::vector<WelfareStats> partial(chunks);
  ParallelFor(
      chunks,
      [&](std::size_t c) {
        UicSimulator sim(graph_, config_);
        WelfareStats acc;
        acc.adopters_per_item.assign(config_.num_items(), 0.0);
        for (int w = static_cast<int>(c); w < options_.num_worlds;
             w += static_cast<int>(chunks)) {
          const EdgeWorld edges{EdgeSeedOf(options_.seed, w)};
          Rng noise_rng = NoiseRngOf(options_.seed, w);
          const WorldUtilityTable table(config_, noise_rng);
          const WorldOutcome out = sim.RunWorld(allocation, edges, table);
          acc.welfare += out.welfare;
          acc.adopting_nodes += static_cast<double>(out.adopting_nodes);
          for (ItemId i = 0; i < config_.num_items(); ++i) {
            acc.adopters_per_item[i] +=
                static_cast<double>(out.adopters_per_item[i]);
          }
        }
        partial[c] = std::move(acc);
      },
      static_cast<unsigned>(chunks));

  WelfareStats total;
  total.adopters_per_item.assign(config_.num_items(), 0.0);
  for (const WelfareStats& p : partial) {
    total.welfare += p.welfare;
    total.adopting_nodes += p.adopting_nodes;
    for (ItemId i = 0; i < config_.num_items(); ++i) {
      total.adopters_per_item[i] += p.adopters_per_item[i];
    }
  }
  const double inv = 1.0 / options_.num_worlds;
  total.welfare *= inv;
  total.adopting_nodes *= inv;
  for (double& x : total.adopters_per_item) x *= inv;
  return total;
}

std::vector<WelfareStats> WelfareEstimator::StatsBatch(
    std::span<const Allocation> allocations) const {
  ScopedPhaseTimer phase(Phase::kEstimate);
  const std::size_t count = allocations.size();
  CWM_TRACE_SPAN("simulate.stats_batch",
                 {{"batch", count}, {"worlds", options_.num_worlds}});
  std::vector<WelfareStats> totals(count);
  for (WelfareStats& t : totals) {
    t.adopters_per_item.assign(config_.num_items(), 0.0);
  }
  if (count == 0) return totals;

  const std::size_t chunks = NumChunks();
  if (const PackedWorldSet* packed = EnsurePacked()) {
    static Counter& packed_worlds =
        MetricsRegistry::Global().GetCounter("simulate.packed_worlds");
    packed_worlds.Add(static_cast<uint64_t>(options_.num_worlds));
    std::vector<std::vector<WelfareStats>> partial(chunks);
    ParallelFor(
        chunks,
        [&](std::size_t c) {
          PackedDiffusion engine(graph_, config_);
          std::vector<WelfareStats>& acc = partial[c];
          acc.resize(count);
          for (WelfareStats& a : acc) {
            a.adopters_per_item.assign(config_.num_items(), 0.0);
          }
          PackedOutcome outs[kPackedGroup];
          // Draining a block's lanes 0..lane_count-1, blocks ascending,
          // visits the chunk's worlds in exactly the order the scalar
          // chunk loop does — per-candidate FP accumulation matches the
          // streaming path bit for bit.
          ForEachBlockGroup(
              packed->ChunkBlocks(c),
              [&](const PackedWorldSet::Block* const* blocks, int group) {
                for (std::size_t j = 0; j < count; ++j) {
                  engine.Run(blocks, group, allocations[j], outs);
                  WelfareStats& a = acc[j];
                  for (int g = 0; g < group; ++g) {
                    for (int l = 0; l < blocks[g]->lane_count; ++l) {
                      a.welfare += outs[g].welfare[l];
                      a.adopting_nodes +=
                          static_cast<double>(outs[g].adopting_nodes[l]);
                      for (ItemId i = 0; i < config_.num_items(); ++i) {
                        a.adopters_per_item[i] += static_cast<double>(
                            outs[g].adopters[static_cast<std::size_t>(i) *
                                                 kPackedLanes +
                                             l]);
                      }
                    }
                  }
                }
              });
        },
        static_cast<unsigned>(chunks));
    const double inv = 1.0 / options_.num_worlds;
    for (std::size_t j = 0; j < count; ++j) {
      WelfareStats& total = totals[j];
      for (const std::vector<WelfareStats>& p : partial) {
        total.welfare += p[j].welfare;
        total.adopting_nodes += p[j].adopting_nodes;
        for (ItemId i = 0; i < config_.num_items(); ++i) {
          total.adopters_per_item[i] += p[j].adopters_per_item[i];
        }
      }
      total.welfare *= inv;
      total.adopting_nodes *= inv;
      for (double& x : total.adopters_per_item) x *= inv;
    }
    return totals;
  }

  const WorldPool& pool = EnsurePool();
  // partial[c][j]: chunk c's accumulator for candidate j. Worlds stride
  // over chunks exactly like Stats(), so per-candidate accumulation order
  // — and therefore the floating-point sum — matches the streaming path
  // bit for bit.
  std::vector<std::vector<WelfareStats>> partial(chunks);
  ParallelFor(
      chunks,
      [&](std::size_t c) {
        UicSimulator sim(graph_, config_);
        std::vector<WelfareStats>& acc = partial[c];
        acc.resize(count);
        for (WelfareStats& a : acc) {
          a.adopters_per_item.assign(config_.num_items(), 0.0);
        }
        auto accumulate = [&](WelfareStats& a, const WorldOutcome& out) {
          a.welfare += out.welfare;
          a.adopting_nodes += static_cast<double>(out.adopting_nodes);
          for (ItemId i = 0; i < config_.num_items(); ++i) {
            a.adopters_per_item[i] +=
                static_cast<double>(out.adopters_per_item[i]);
          }
        };
        for (int w = static_cast<int>(c); w < options_.num_worlds;
             w += static_cast<int>(chunks)) {
          if (const WorldSnapshot* snapshot = pool.Get(w)) {
            for (std::size_t j = 0; j < count; ++j) {
              accumulate(acc[j], sim.RunWorld(allocations[j], *snapshot));
            }
          } else {
            const EdgeWorld edges{EdgeSeedOf(options_.seed, w)};
            Rng noise_rng = NoiseRngOf(options_.seed, w);
            const WorldUtilityTable table(config_, noise_rng);
            for (std::size_t j = 0; j < count; ++j) {
              accumulate(acc[j],
                         sim.RunWorld(allocations[j], edges, table));
            }
          }
        }
      },
      static_cast<unsigned>(chunks));

  const double inv = 1.0 / options_.num_worlds;
  for (std::size_t j = 0; j < count; ++j) {
    WelfareStats& total = totals[j];
    for (const std::vector<WelfareStats>& p : partial) {
      total.welfare += p[j].welfare;
      total.adopting_nodes += p[j].adopting_nodes;
      for (ItemId i = 0; i < config_.num_items(); ++i) {
        total.adopters_per_item[i] += p[j].adopters_per_item[i];
      }
    }
    total.welfare *= inv;
    total.adopting_nodes *= inv;
    for (double& x : total.adopters_per_item) x *= inv;
  }
  return totals;
}

std::vector<double> WelfareEstimator::MarginalWelfareBatch(
    const Allocation& base, std::span<const Allocation> extras) const {
  ScopedPhaseTimer phase(Phase::kEstimate);
  const std::size_t count = extras.size();
  CWM_TRACE_SPAN("simulate.marginal_batch",
                 {{"batch", count}, {"worlds", options_.num_worlds}});
  if (count == 0) return {};
  if (const PackedWorldSet* packed = EnsurePacked()) {
    std::vector<Allocation> merged;
    merged.reserve(count);
    for (const Allocation& extra : extras) {
      merged.push_back(Allocation::Union(base, extra));
    }
    const std::size_t chunks = NumChunks();
    static Counter& packed_worlds =
        MetricsRegistry::Global().GetCounter("simulate.packed_worlds");
    packed_worlds.Add(static_cast<uint64_t>(options_.num_worlds));
    std::vector<std::vector<double>> partial(chunks);
    ParallelFor(
        chunks,
        [&](std::size_t c) {
          PackedDiffusion engine(graph_, config_);
          std::vector<double>& acc = partial[c];
          acc.assign(count, 0.0);
          PackedOutcome base_outs[kPackedGroup];
          PackedOutcome outs[kPackedGroup];
          // The base diffusion runs once per block group for the whole
          // batch; each lane's `without` is the exact double the scalar
          // path computes for that world.
          ForEachBlockGroup(
              packed->ChunkBlocks(c),
              [&](const PackedWorldSet::Block* const* blocks, int group) {
                engine.Run(blocks, group, base, base_outs);
                for (std::size_t j = 0; j < count; ++j) {
                  engine.Run(blocks, group, merged[j], outs);
                  for (int g = 0; g < group; ++g) {
                    for (int l = 0; l < blocks[g]->lane_count; ++l) {
                      acc[j] +=
                          outs[g].welfare[l] - base_outs[g].welfare[l];
                    }
                  }
                }
              });
        },
        static_cast<unsigned>(chunks));
    std::vector<double> totals(count, 0.0);
    for (std::size_t j = 0; j < count; ++j) {
      for (const std::vector<double>& p : partial) totals[j] += p[j];
      totals[j] /= options_.num_worlds;
    }
    return totals;
  }

  return MarginalSession(*this, base, /*retain=*/false)
      .Gains(extras, MarginalSession::Objective::kWelfare);
}

std::vector<double> WelfareEstimator::MarginalBalancedExposureBatch(
    const Allocation& base, std::span<const Allocation> extras) const {
  ScopedPhaseTimer phase(Phase::kEstimate);
  const std::size_t count = extras.size();
  CWM_TRACE_SPAN("simulate.exposure_batch",
                 {{"batch", count}, {"worlds", options_.num_worlds}});
  if (count == 0) return {};
  if (const PackedWorldSet* packed = EnsurePacked()) {
    std::vector<Allocation> merged;
    merged.reserve(count);
    for (const Allocation& extra : extras) {
      merged.push_back(Allocation::Union(base, extra));
    }
    const bool base_empty = base.Empty();
    const std::size_t chunks = NumChunks();
    static Counter& packed_worlds =
        MetricsRegistry::Global().GetCounter("simulate.packed_worlds");
    packed_worlds.Add(static_cast<uint64_t>(options_.num_worlds));
    std::vector<std::vector<double>> partial(chunks);
    ParallelFor(
        chunks,
        [&](std::size_t c) {
          PackedDiffusion engine(graph_, config_);
          std::vector<double>& acc = partial[c];
          acc.assign(count, 0.0);
          PackedOutcome base_outs[kPackedGroup];
          PackedOutcome outs[kPackedGroup];
          // balance = n - one_sided; the n terms cancel in the marginal,
          // and the empty allocation has one_sided == 0 (same arithmetic
          // as the scalar MarginalSession pass).
          ForEachBlockGroup(
              packed->ChunkBlocks(c),
              [&](const PackedWorldSet::Block* const* blocks, int group) {
                if (!base_empty) engine.Run(blocks, group, base, base_outs);
                for (std::size_t j = 0; j < count; ++j) {
                  engine.Run(blocks, group, merged[j], outs);
                  for (int g = 0; g < group; ++g) {
                    for (int l = 0; l < blocks[g]->lane_count; ++l) {
                      const double without =
                          base_empty ? 0.0
                                     : -static_cast<double>(
                                           base_outs[g].one_sided_01[l]);
                      const double with = -static_cast<double>(
                          outs[g].one_sided_01[l]);
                      acc[j] += with - without;
                    }
                  }
                }
              });
        },
        static_cast<unsigned>(chunks));
    std::vector<double> totals(count, 0.0);
    for (std::size_t j = 0; j < count; ++j) {
      for (const std::vector<double>& p : partial) totals[j] += p[j];
      totals[j] /= options_.num_worlds;
    }
    return totals;
  }

  return MarginalSession(*this, base, /*retain=*/false)
      .Gains(extras, MarginalSession::Objective::kExposure);
}

MarginalSession WelfareEstimator::Marginals(const Allocation& base) const {
  return MarginalSession(*this, base, /*retain=*/true);
}

MarginalSession::MarginalSession(const WelfareEstimator& estimator,
                                 const Allocation& base, bool retain)
    : estimator_(&estimator),
      base_(base),
      base_seeds_(base.SeededItemsets()),
      retain_(retain),
      chunks_(estimator.NumChunks()) {
  // Only a retaining session decides the path up front; the one-shot pass
  // runs from inside a batch method that already declined packing.
  packed_ = retain_ && estimator.EnsurePacked() != nullptr;
  if (packed_) return;
  pool_ = &estimator.EnsurePool();
  if (retain_) {
    sims_.resize(chunks_);
    worlds_.resize(static_cast<std::size_t>(estimator.options().num_worlds));
  }
}

double MarginalSession::Welfare(const Allocation& extra) {
  if (packed_) return estimator_->MarginalWelfareBatch(base_, {&extra, 1})[0];
  ScopedPhaseTimer phase(Phase::kEstimate);
  CWM_TRACE_SPAN("simulate.marginal_batch",
                 {{"batch", 1}, {"worlds", estimator_->options().num_worlds}});
  return Gains({&extra, 1}, Objective::kWelfare)[0];
}

double MarginalSession::BalancedExposure(const Allocation& extra) {
  if (packed_) {
    return estimator_->MarginalBalancedExposureBatch(base_, {&extra, 1})[0];
  }
  ScopedPhaseTimer phase(Phase::kEstimate);
  CWM_TRACE_SPAN("simulate.exposure_batch",
                 {{"batch", 1}, {"worlds", estimator_->options().num_worlds}});
  return Gains({&extra, 1}, Objective::kExposure)[0];
}

void MarginalSession::Advance(const Allocation& pick) {
  base_ = Allocation::Union(base_, pick);
  base_seeds_ = base_.SeededItemsets();
  if (!recorded_) return;
  const std::vector<NodeId> nodes = pick.SeedNodes();
  std::vector<NodeId> pending;
  std::set_union(pending_.begin(), pending_.end(), nodes.begin(), nodes.end(),
                 std::back_inserter(pending));
  pending_ = std::move(pending);
}

void MarginalSession::Prepare(UicSimulator& sim, int w, RecordedWorld* world,
                              RecordedWorld* spare, std::size_t* room) const {
  if (const WorldSnapshot* snapshot = pool_->Get(w)) {
    if (recorded_ && world->replayable) {
      sim.Advance(*world, base_seeds_, pending_, *snapshot, spare);
      std::swap(*world, *spare);
    } else {
      sim.Record(base_seeds_, *snapshot, world);
    }
    const std::size_t bytes = world->bytes();
    if (bytes <= *room) {
      if (retain_) *room -= bytes;
      return;
    }
    world->replayable = false;
    if (retain_) {
      // Free the over-budget record; only the base outcome stays.
      RecordedWorld kept;
      kept.outcome = std::move(world->outcome);
      *world = std::move(kept);
    }
    return;
  }
  const uint64_t seed = estimator_->options().seed;
  const EdgeWorld edges{EdgeSeedOf(seed, w)};
  Rng noise_rng = NoiseRngOf(seed, w);
  const WorldUtilityTable table(estimator_->config(), noise_rng);
  world->outcome = sim.RunWorld(base_seeds_, edges, table);
  world->replayable = false;
}

std::vector<double> MarginalSession::Gains(std::span<const Allocation> extras,
                                           Objective objective) {
  const EstimatorOptions& options = estimator_->options();
  const std::size_t count = extras.size();
  struct Candidate {
    std::vector<std::pair<NodeId, ItemSet>> merged;
    std::vector<NodeId> nodes;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(count);
  for (const Allocation& extra : extras) {
    candidates.push_back({Allocation::Union(base_, extra).SeededItemsets(),
                          extra.SeedNodes()});
  }
  // Same per-world arithmetic as the streaming references. For exposure,
  // balance = n - one_sided: the n terms cancel in the marginal, and the
  // empty allocation has one_sided == 0.
  const bool base_empty = base_.Empty();
  const auto gain = [&](const WorldOutcome& with,
                        const WorldOutcome& without) {
    if (objective == Objective::kWelfare) return with.welfare - without.welfare;
    const double with_balance =
        -static_cast<double>(with.one_sided_exposure_01);
    const double without_balance =
        base_empty ? 0.0
                   : -static_cast<double>(without.one_sided_exposure_01);
    return with_balance - without_balance;
  };

  // Records share the snapshot budget evenly across chunks, so which
  // worlds keep one never depends on scheduling. Every pass that records
  // or advances re-accounts them.
  const bool prepare = !recorded_ || !pending_.empty();
  const std::size_t room = estimator_->BudgetBytes() / chunks_;
  std::vector<std::vector<double>> partial(chunks_);
  ParallelFor(
      chunks_,
      [&](std::size_t c) {
        // A one-shot pass builds and frees its simulator and record inside
        // the chunk, in parallel; a session keeps them for later calls.
        std::unique_ptr<UicSimulator> local;
        std::unique_ptr<UicSimulator>& owned = retain_ ? sims_[c] : local;
        if (owned == nullptr) {
          owned = std::make_unique<UicSimulator>(estimator_->graph(),
                                                 estimator_->config());
        }
        UicSimulator& sim = *owned;
        RecordedWorld scratch, spare;
        std::size_t left = room;
        std::vector<double>& acc = partial[c];
        acc.assign(count, 0.0);
        for (int w = static_cast<int>(c); w < options.num_worlds;
             w += static_cast<int>(chunks_)) {
          RecordedWorld& world =
              retain_ ? worlds_[static_cast<std::size_t>(w)] : scratch;
          if (prepare) Prepare(sim, w, &world, &spare, &left);
          if (const WorldSnapshot* snapshot = pool_->Get(w)) {
            for (std::size_t j = 0; j < count; ++j) {
              acc[j] += gain(sim.RunOver(world, candidates[j].merged,
                                         candidates[j].nodes, *snapshot),
                             world.outcome);
            }
          } else {
            const EdgeWorld edges{EdgeSeedOf(options.seed, w)};
            Rng noise_rng = NoiseRngOf(options.seed, w);
            const WorldUtilityTable table(estimator_->config(), noise_rng);
            for (std::size_t j = 0; j < count; ++j) {
              acc[j] += gain(sim.RunWorld(candidates[j].merged, edges, table),
                             world.outcome);
            }
          }
        }
      },
      static_cast<unsigned>(chunks_));
  recorded_ = retain_;
  pending_.clear();

  std::vector<double> totals(count, 0.0);
  for (std::size_t j = 0; j < count; ++j) {
    for (const std::vector<double>& p : partial) totals[j] += p[j];
    totals[j] /= options.num_worlds;
  }
  return totals;
}

double WelfareEstimator::MarginalWelfare(const Allocation& base,
                                         const Allocation& extra) const {
  ScopedPhaseTimer phase(Phase::kEstimate);
  CWM_TRACE_SPAN("simulate.marginal", {{"worlds", options_.num_worlds}});
  const Allocation merged = Allocation::Union(base, extra);
  const std::size_t chunks = NumChunks();
  std::vector<double> partial(chunks, 0.0);
  ParallelFor(
      chunks,
      [&](std::size_t c) {
        UicSimulator sim(graph_, config_);
        double acc = 0.0;
        for (int w = static_cast<int>(c); w < options_.num_worlds;
             w += static_cast<int>(chunks)) {
          const EdgeWorld edges{EdgeSeedOf(options_.seed, w)};
          Rng noise_rng = NoiseRngOf(options_.seed, w);
          const WorldUtilityTable table(config_, noise_rng);
          const double with = sim.RunWorld(merged, edges, table).welfare;
          const double without = sim.RunWorld(base, edges, table).welfare;
          acc += with - without;
        }
        partial[c] = acc;
      },
      static_cast<unsigned>(chunks));
  double total = 0.0;
  for (double p : partial) total += p;
  return total / options_.num_worlds;
}

double WelfareEstimator::BalancedExposure(const Allocation& allocation) const {
  return MarginalBalancedExposure(Allocation(config_.num_items()),
                                  allocation) +
         static_cast<double>(graph_.num_nodes());
}

double WelfareEstimator::MarginalBalancedExposure(
    const Allocation& base, const Allocation& extra) const {
  ScopedPhaseTimer phase(Phase::kEstimate);
  CWM_TRACE_SPAN("simulate.exposure", {{"worlds", options_.num_worlds}});
  const Allocation merged = Allocation::Union(base, extra);
  const std::size_t chunks = NumChunks();
  std::vector<double> partial(chunks, 0.0);
  const bool base_empty = base.Empty();
  ParallelFor(
      chunks,
      [&](std::size_t c) {
        UicSimulator sim(graph_, config_);
        double acc = 0.0;
        for (int w = static_cast<int>(c); w < options_.num_worlds;
             w += static_cast<int>(chunks)) {
          const EdgeWorld edges{EdgeSeedOf(options_.seed, w)};
          Rng noise_rng = NoiseRngOf(options_.seed, w);
          const WorldUtilityTable table(config_, noise_rng);
          // balance = n - one_sided; the n terms cancel in the marginal,
          // and the empty allocation has one_sided == 0.
          const double with = -static_cast<double>(
              sim.RunWorld(merged, edges, table).one_sided_exposure_01);
          const double without =
              base_empty ? 0.0
                         : -static_cast<double>(
                               sim.RunWorld(base, edges, table)
                                   .one_sided_exposure_01);
          acc += with - without;
        }
        partial[c] = acc;
      },
      static_cast<unsigned>(chunks));
  double total = 0.0;
  for (double p : partial) total += p;
  return total / options_.num_worlds;
}

double WelfareEstimator::Spread(const std::vector<NodeId>& seeds) const {
  return MarginalSpread({}, seeds) /* base empty: sigma(S) */;
}

double WelfareEstimator::MarginalSpread(const std::vector<NodeId>& base,
                                        const std::vector<NodeId>& extra) const {
  ScopedPhaseTimer phase(Phase::kEstimate);
  CWM_TRACE_SPAN("simulate.spread", {{"worlds", options_.num_worlds}});
  std::vector<NodeId> merged = base;
  merged.insert(merged.end(), extra.begin(), extra.end());
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());

  const std::size_t chunks = NumChunks();
  std::vector<double> partial(chunks, 0.0);
  ParallelFor(
      chunks,
      [&](std::size_t c) {
        UicSimulator sim(graph_, config_);
        double acc = 0.0;
        for (int w = static_cast<int>(c); w < options_.num_worlds;
             w += static_cast<int>(chunks)) {
          const EdgeWorld edges{EdgeSeedOf(options_.seed, w)};
          const double with =
              static_cast<double>(sim.ReachableCount(merged, edges));
          const double without =
              base.empty()
                  ? 0.0
                  : static_cast<double>(sim.ReachableCount(base, edges));
          acc += with - without;
        }
        partial[c] = acc;
      },
      static_cast<unsigned>(chunks));
  double total = 0.0;
  for (double p : partial) total += p;
  return total / options_.num_worlds;
}

}  // namespace cwm
