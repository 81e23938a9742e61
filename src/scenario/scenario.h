// Declarative experiment scenarios.
//
// A ScenarioSpec is a value type that fully describes one experiment
// family: which networks to build (generator family + scale, or an
// edge-list path), which utility configurations to run, which algorithms
// to compare, and the budget/seed sweep axes. Specs expand into a flat,
// deterministically indexed task grid
//
//   networks x configs x budget points x seeds x algorithms
//
// which the sweep runtime (scenario/sweep.h) executes in parallel and the
// sinks (scenario/sink.h) serialize. The network and configuration
// choices are the specs of exp/specs.h. The named catalog of paper
// figures and beyond-paper workloads lives in scenario/registry.h.
//
// Determinism contract: everything a task does is derived from the spec
// and the task's grid coordinates (never from thread ids or wall clock),
// so a sweep produces bit-identical results at any thread count.
#ifndef CWM_SCENARIO_SCENARIO_H_
#define CWM_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/algo_kind.h"
#include "exp/specs.h"
#include "model/allocation.h"
#include "support/status.h"

namespace cwm {

// AlgoKind, AlgoName, ParseAlgo, IsSlowAlgo and AllAlgoKinds moved to the
// stable API layer (api/algo_kind.h, included above): the algorithm
// identity is part of the allocator interface, not the sweep engine. The
// capability metadata the enum comments used to carry lives on the
// registered allocators (api/registry.h; `cwm_run --describe algos`).

/// Which cells run the slow Monte-Carlo baselines (greedyWM, Balance-C)
/// by default. The paper gates them differently per figure — Fig 3 runs
/// them on the smallest network at every budget, Fig 4 at the smallest
/// budget for every configuration, Fig 6(a,b) for the smallest item
/// counts — so the gate window is part of the spec.
/// SweepOptions::run_slow_everywhere overrides any gating.
enum class SlowGate {
  kNone,          ///< never gate: slow algorithms run on every cell
  kFirstCell,     ///< first network + config + budget only (default)
  kFirstNetwork,  ///< every cell of the first network (Fig 3)
  kFirstBudget,   ///< every cell at the first budget point (Fig 4)
  kFirstConfig,   ///< every cell of the first configuration (Fig 6(a,b))
};

/// Human-readable description of a gate window, for skip reasons.
const char* SlowGateDescription(SlowGate gate);

/// How the fixed allocation S_P is formed before each task's algorithm
/// allocates the remaining items.
struct FixedSeedSpec {
  enum class Kind {
    kNone,      ///< S_P = empty; allocate every item
    kTopSpread, ///< fix `count` top-IMM nodes on `item` (§6.2.3, C5/C6)
    kTheorem2,  ///< the Theorem 2 gadget's fixed allocation (items 1..3)
  };
  Kind kind = Kind::kNone;
  ItemId item = 1;  ///< the fixed item (kTopSpread)
  int count = 0;    ///< seeds fixed on `item` (kTopSpread)
};

/// A declarative experiment: every field is data, so specs can be
/// registered, printed, serialized into result files, and expanded into a
/// deterministic task grid.
struct ScenarioSpec {
  std::string name;       ///< registry key, e.g. "fig4-welfare"
  std::string title;      ///< one-line description for --list
  std::string paper_ref;  ///< figure/table reference ("" = beyond paper)

  std::vector<NetworkSpec> networks;
  std::vector<ConfigSpec> configs;
  std::vector<AlgoKind> algorithms;
  /// Budget grid points. A point of size 1 broadcasts its value to every
  /// allocated item; otherwise the point is indexed by global ItemId and
  /// must have one entry per item of the configuration.
  std::vector<BudgetVector> budget_points;
  /// One full sweep repetition per seed (distinct RNG universes).
  std::vector<uint64_t> seeds = {1};

  FixedSeedSpec fixed;

  double epsilon = 0.5;  ///< RR-set accuracy (paper default)
  double ell = 1.0;
  int sims = 0;       ///< estimator worlds; 0 = SweepOptions default
  int eval_sims = 0;  ///< evaluation worlds; 0 = SweepOptions default
  /// Worker threads for RR-set sampling inside each task (the inner level
  /// of the two-level threading model; 0 = SweepOptions::rr_threads).
  /// Deterministic: results never depend on this value.
  unsigned rr_threads = 0;
  /// Artifact-cache directory pinned by this spec ("" = use
  /// SweepOptions::cache_dir / CWM_CACHE_DIR). Caching never changes
  /// results — hits are bit-identical to rebuilds.
  std::string cache_dir;

  /// Default gate window for the slow baselines (see SlowGate).
  SlowGate slow_gate = SlowGate::kFirstCell;

  /// Structural validation: known families/configs, consistent item
  /// counts, non-empty axes, budget points broadcastable.
  Status Validate() const;
};

/// One cell of the expanded grid. `index` is the row id: stable across
/// thread counts and equal to the position in ExpandGrid()'s result.
struct ScenarioTask {
  std::size_t index = 0;
  std::size_t network_index = 0;
  std::size_t config_index = 0;
  std::size_t budget_index = 0;
  std::size_t seed_index = 0;
  AlgoKind algo = AlgoKind::kSeqGrdNm;
  bool gated = false;  ///< slow algorithm suppressed by the gating rule
};

/// Expands the grid in network-major order:
///   for network / for config / for budget / for seed / for algorithm.
/// Gated slow-algorithm cells are included (marked `gated`) so row counts
/// and indices do not depend on gating.
std::vector<ScenarioTask> ExpandGrid(const ScenarioSpec& spec,
                                     bool run_slow_everywhere);

}  // namespace cwm

#endif  // CWM_SCENARIO_SCENARIO_H_
