#include "scenario/scenario.h"

#include <algorithm>

namespace cwm {

/// Item count per factory; -1 for unknown names.
static int ConfigNumItems(const ConfigSpec& spec) {
  if (spec.name == "C1" || spec.name == "C2" || spec.name == "C3" ||
      spec.name == "C5" || spec.name == "C6") {
    return 2;
  }
  if (spec.name == "table4" || spec.name == "theorem1" ||
      spec.name == "mixed") {
    return 3;
  }
  if (spec.name == "lastfm" || spec.name == "theorem2") return 4;
  if (spec.name == "uniform") return spec.num_items;
  return -1;
}

const char* SlowGateDescription(SlowGate gate) {
  switch (gate) {
    case SlowGate::kNone: return "every cell";
    case SlowGate::kFirstCell: return "the first network/config/budget cell";
    case SlowGate::kFirstNetwork: return "the first network";
    case SlowGate::kFirstBudget: return "the first budget point";
    case SlowGate::kFirstConfig: return "the first configuration";
  }
  return "?";
}

namespace {

/// True when cell (n, c, b) lies inside the spec's slow-baseline window.
bool InGateWindow(SlowGate gate, std::size_t n, std::size_t c,
                  std::size_t b) {
  switch (gate) {
    case SlowGate::kNone: return true;
    case SlowGate::kFirstCell: return n == 0 && c == 0 && b == 0;
    case SlowGate::kFirstNetwork: return n == 0;
    case SlowGate::kFirstBudget: return b == 0;
    case SlowGate::kFirstConfig: return c == 0;
  }
  return true;
}

}  // namespace

Status ScenarioSpec::Validate() const {
  if (name.empty()) return Status::InvalidArgument("scenario has no name");
  if (networks.empty()) {
    return Status::InvalidArgument(name + ": no networks");
  }
  if (configs.empty()) return Status::InvalidArgument(name + ": no configs");
  if (algorithms.empty()) {
    return Status::InvalidArgument(name + ": no algorithms");
  }
  if (budget_points.empty()) {
    return Status::InvalidArgument(name + ": no budget points");
  }
  if (seeds.empty()) return Status::InvalidArgument(name + ": no seeds");
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument(name + ": epsilon out of (0, 1)");
  }

  for (const NetworkSpec& net : networks) {
    if (!IsKnownNetworkFamily(net.family)) {
      return Status::InvalidArgument(name + ": unknown network family '" +
                                     net.family + "'");
    }
    if (net.family == "edge-list" && net.path.empty()) {
      return Status::InvalidArgument(name + ": edge-list without a path");
    }
    if (net.bfs_fraction <= 0.0 || net.bfs_fraction > 1.0) {
      return Status::InvalidArgument(name + ": bfs_fraction out of (0, 1]");
    }
    if (net.churn_steps > 0 && net.churn_edits == 0) {
      return Status::InvalidArgument(name + ": churn_steps without edits");
    }
  }

  for (const ConfigSpec& config : configs) {
    const int m = ConfigNumItems(config);
    if (m < 1 || m > kMaxItems) {
      return Status::InvalidArgument(name + ": unknown utility config '" +
                                     config.name + "'");
    }
    for (const BudgetVector& point : budget_points) {
      if (point.empty()) {
        return Status::InvalidArgument(name + ": empty budget point");
      }
      if (point.size() != 1 && point.size() != static_cast<std::size_t>(m)) {
        return Status::InvalidArgument(
            name + ": budget point size does not match config '" +
            config.Label() + "'");
      }
      for (int b : point) {
        if (b < 0) {
          return Status::InvalidArgument(name + ": negative budget");
        }
      }
    }
    if (fixed.kind == FixedSeedSpec::Kind::kTopSpread &&
        (fixed.item < 0 || fixed.item >= m)) {
      return Status::InvalidArgument(name + ": fixed item out of range");
    }
    for (AlgoKind algo : algorithms) {
      if (algo == AlgoKind::kBalanceC && m != 2) {
        return Status::InvalidArgument(
            name + ": Balance-C requires exactly two items");
      }
    }
  }

  if (fixed.kind == FixedSeedSpec::Kind::kTopSpread && fixed.count <= 0) {
    return Status::InvalidArgument(name + ": fixed seed count must be > 0");
  }
  for (AlgoKind algo : algorithms) {
    if (algo == AlgoKind::kSupGrd &&
        fixed.kind == FixedSeedSpec::Kind::kNone) {
      return Status::InvalidArgument(
          name + ": SupGRD requires a fixed allocation (FixedSeedSpec)");
    }
  }
  if (sims < 0 || eval_sims < 0) {
    return Status::InvalidArgument(name + ": negative simulation count");
  }
  return Status::OK();
}

std::vector<ScenarioTask> ExpandGrid(const ScenarioSpec& spec,
                                     bool run_slow_everywhere) {
  std::vector<ScenarioTask> grid;
  grid.reserve(spec.networks.size() * spec.configs.size() *
               spec.budget_points.size() * spec.seeds.size() *
               spec.algorithms.size());
  std::size_t index = 0;
  for (std::size_t n = 0; n < spec.networks.size(); ++n) {
    for (std::size_t c = 0; c < spec.configs.size(); ++c) {
      for (std::size_t b = 0; b < spec.budget_points.size(); ++b) {
        for (std::size_t s = 0; s < spec.seeds.size(); ++s) {
          for (AlgoKind algo : spec.algorithms) {
            ScenarioTask task;
            task.index = index++;
            task.network_index = n;
            task.config_index = c;
            task.budget_index = b;
            task.seed_index = s;
            task.algo = algo;
            task.gated = IsSlowAlgo(algo) && !run_slow_everywhere &&
                         !InGateWindow(spec.slow_gate, n, c, b);
            grid.push_back(task);
          }
        }
      }
    }
  }
  return grid;
}

}  // namespace cwm
