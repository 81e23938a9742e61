#include "scenario/sink.h"

#include <cstdio>
#include <ostream>

#include "support/json.h"

namespace cwm {

namespace {

const char* ProbModelName(ProbModel model) {
  switch (model) {
    case ProbModel::kWeightedCascade: return "weighted-cascade";
    case ProbModel::kConstant: return "constant";
    case ProbModel::kTrivalency: return "trivalency";
    case ProbModel::kAsIs: return "as-is";
  }
  return "?";
}

const char* SlowGateName(SlowGate gate) {
  switch (gate) {
    case SlowGate::kNone: return "none";
    case SlowGate::kFirstCell: return "first-cell";
    case SlowGate::kFirstNetwork: return "first-network";
    case SlowGate::kFirstBudget: return "first-budget";
    case SlowGate::kFirstConfig: return "first-config";
  }
  return "?";
}

const char* FixedKindName(FixedSeedSpec::Kind kind) {
  switch (kind) {
    case FixedSeedSpec::Kind::kNone: return "none";
    case FixedSeedSpec::Kind::kTopSpread: return "top-spread";
    case FixedSeedSpec::Kind::kTheorem2: return "theorem2";
  }
  return "?";
}

/// Appends `values` as a JSON array, each element rendered by `append`.
template <typename T, typename Fn>
void AppendArray(std::string* out, const std::vector<T>& values, Fn append) {
  *out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ',';
    append(out, values[i]);
  }
  *out += ']';
}

/// Appends `,"key":` (every member after an object's first) and returns
/// `out`, ready for the value.
std::string* Member(std::string* out, const char* key) {
  *out += ",\"";
  *out += key;
  *out += "\":";
  return out;
}

void AppendInt(std::string* out, int value) { *out += std::to_string(value); }

void AppendDouble(std::string* out, double value) {
  AppendJsonNumber(out, value);
}

void AppendNetwork(std::string* out, const NetworkSpec& net) {
  *out += "{\"family\":";
  AppendJsonString(out, net.family);
  *Member(out, "num_nodes") += std::to_string(net.num_nodes);
  *Member(out, "degree") += std::to_string(net.degree);
  AppendJsonNumber(Member(out, "aux"), net.aux);
  *Member(out, "seed") += std::to_string(net.seed);
  if (!net.path.empty()) AppendJsonString(Member(out, "path"), net.path);
  AppendJsonString(Member(out, "prob"), ProbModelName(net.prob));
  if (net.prob == ProbModel::kConstant) {
    AppendJsonNumber(Member(out, "prob_value"), net.prob_value);
  }
  if (net.bfs_fraction < 1.0) {
    AppendJsonNumber(Member(out, "bfs_fraction"), net.bfs_fraction);
  }
  if (net.churn_steps > 0) {
    *Member(out, "churn_steps") += std::to_string(net.churn_steps);
    *Member(out, "churn_edits") += std::to_string(net.churn_edits);
    *Member(out, "churn_seed") += std::to_string(net.churn_seed);
  }
  AppendJsonString(Member(out, "label"), net.Label());
  *out += '}';
}

void AppendConfig(std::string* out, const ConfigSpec& config) {
  *out += "{\"name\":";
  AppendJsonString(out, config.name);
  if (config.name == "uniform") {
    *Member(out, "num_items") += std::to_string(config.num_items);
  }
  *out += '}';
}

}  // namespace

std::string SpecToJson(const ScenarioSpec& spec) {
  std::string out = "{\"type\":\"spec\"";
  AppendJsonString(Member(&out, "name"), spec.name);
  AppendJsonString(Member(&out, "title"), spec.title);
  AppendJsonString(Member(&out, "paper_ref"), spec.paper_ref);
  AppendArray(Member(&out, "networks"), spec.networks, AppendNetwork);
  AppendArray(Member(&out, "configs"), spec.configs, AppendConfig);
  AppendArray(Member(&out, "algorithms"), spec.algorithms,
              [](std::string* o, AlgoKind kind) {
                AppendJsonString(o, AlgoName(kind));
              });
  AppendArray(Member(&out, "budget_points"), spec.budget_points,
              [](std::string* o, const BudgetVector& point) {
                AppendArray(o, point, AppendInt);
              });
  AppendArray(Member(&out, "seeds"), spec.seeds,
              [](std::string* o, uint64_t seed) {
                *o += std::to_string(seed);
              });
  *Member(&out, "fixed") += "{\"kind\":";
  AppendJsonString(&out, FixedKindName(spec.fixed.kind));
  if (spec.fixed.kind == FixedSeedSpec::Kind::kTopSpread) {
    *Member(&out, "item") += std::to_string(spec.fixed.item);
    *Member(&out, "count") += std::to_string(spec.fixed.count);
  }
  out += '}';
  AppendJsonNumber(Member(&out, "epsilon"), spec.epsilon);
  AppendJsonNumber(Member(&out, "ell"), spec.ell);
  *Member(&out, "sims") += std::to_string(spec.sims);
  *Member(&out, "eval_sims") += std::to_string(spec.eval_sims);
  *Member(&out, "rr_threads") += std::to_string(spec.rr_threads);
  if (!spec.cache_dir.empty()) {
    AppendJsonString(Member(&out, "cache_dir"), spec.cache_dir);
  }
  AppendJsonString(Member(&out, "slow_gate"), SlowGateName(spec.slow_gate));
  out += '}';
  return out;
}

std::string TaskResultToJson(const TaskResult& row,
                             const SinkOptions& options) {
  std::string out = "{\"type\":\"result\"";
  AppendJsonString(Member(&out, "scenario"), row.scenario);
  *Member(&out, "task") += std::to_string(row.task_index);
  AppendJsonString(Member(&out, "network"), row.network);
  AppendJsonString(Member(&out, "config"), row.config);
  AppendJsonString(Member(&out, "algorithm"), row.algorithm);
  AppendArray(Member(&out, "budgets"), row.budgets, AppendInt);
  *Member(&out, "seed") += std::to_string(row.seed);
  *Member(&out, "graph_nodes") += std::to_string(row.graph_nodes);
  *Member(&out, "graph_edges") += std::to_string(row.graph_edges);
  // Provenance: ties the row to its graph artifact (store/format.h).
  // Content-derived, so cold and warm cache runs emit identical bytes.
  if (!row.graph_hash.empty()) {
    AppendJsonString(Member(&out, "graph_hash"), row.graph_hash);
  }
  if (row.skipped) {
    out += ",\"skipped\":true";
    AppendJsonString(Member(&out, "skip_reason"), row.skip_reason);
  } else {
    AppendJsonNumber(Member(&out, "welfare"), row.welfare);
    AppendJsonNumber(Member(&out, "adopting_nodes"), row.adopting_nodes);
    AppendArray(Member(&out, "adopters_per_item"), row.adopters_per_item,
                AppendDouble);
    *Member(&out, "seeds_allocated") += std::to_string(row.seeds_allocated);
    if (options.include_timing) {
      AppendJsonNumber(Member(&out, "seconds"), row.seconds);
      AppendJsonNumber(Member(&out, "sample_s"), row.sample_s);
      AppendJsonNumber(Member(&out, "select_s"), row.select_s);
      AppendJsonNumber(Member(&out, "estimate_s"), row.estimate_s);
    }
    if (!row.note.empty()) AppendJsonString(Member(&out, "note"), row.note);
  }
  out += '}';
  return out;
}

void WriteJsonLines(const SweepResult& result, std::ostream& out,
                    const SinkOptions& options) {
  out << SpecToJson(result.spec) << "\n";
  for (const TaskResult& row : result.rows) {
    out << TaskResultToJson(row, options) << "\n";
  }
}

std::string CsvHeader() {
  return "scenario,task,network,config,algorithm,budgets,seed,graph_nodes,"
         "graph_edges,graph_hash,skipped,welfare,adopting_nodes,"
         "adopters_per_item,seeds_allocated,seconds,sample_s,select_s,"
         "estimate_s,note";
}

std::string TaskResultToCsv(const TaskResult& row,
                            const SinkOptions& options) {
  // RFC-4180 quoting for free-text fields (notes, skip reasons).
  auto quoted = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"') out += "\"\"";
      else out += c;
    }
    out += "\"";
    return out;
  };
  std::string out = row.scenario + "," + std::to_string(row.task_index) +
                    "," + row.network + "," + row.config + "," +
                    row.algorithm + ",";
  for (std::size_t i = 0; i < row.budgets.size(); ++i) {
    if (i > 0) out += ';';
    out += std::to_string(row.budgets[i]);
  }
  out += "," + std::to_string(row.seed) + "," +
         std::to_string(row.graph_nodes) + "," +
         std::to_string(row.graph_edges) + "," + row.graph_hash + "," +
         (row.skipped ? "1" : "0") + ",";
  if (row.skipped) return out + ",,,,,,,," + quoted(row.skip_reason);
  AppendJsonNumber(&out, row.welfare);
  out += ',';
  AppendJsonNumber(&out, row.adopting_nodes);
  out += ',';
  for (std::size_t i = 0; i < row.adopters_per_item.size(); ++i) {
    if (i > 0) out += ';';
    AppendJsonNumber(&out, row.adopters_per_item[i]);
  }
  out += "," + std::to_string(row.seeds_allocated) + ",";
  if (options.include_timing) {
    for (const double seconds :
         {row.seconds, row.sample_s, row.select_s, row.estimate_s}) {
      AppendJsonNumber(&out, seconds);
      out += ',';
    }
  } else {
    out += ",,,,";  // seconds,sample_s,select_s,estimate_s stay empty
  }
  return out + quoted(row.note);
}

void WriteCsv(const SweepResult& result, std::ostream& out,
              const SinkOptions& options) {
  out << CsvHeader() << "\n";
  for (const TaskResult& row : result.rows) {
    out << TaskResultToCsv(row, options) << "\n";
  }
}

TablePrinter::TablePrinter(std::FILE* out) : out_(out) {}

void TablePrinter::Print(const TaskResult& row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string budgets;
  for (std::size_t i = 0; i < row.budgets.size(); ++i) {
    if (i > 0) budgets += "/";
    budgets += std::to_string(row.budgets[i]);
  }
  if (row.skipped) {
    std::fprintf(out_, "%-20s %-10s budget=%-8s %-12s skipped (%s)\n",
                 row.network.c_str(), row.config.c_str(), budgets.c_str(),
                 row.algorithm.c_str(), row.skip_reason.c_str());
  } else {
    std::fprintf(out_,
                 "%-20s %-10s budget=%-8s %-12s time=%9.3fs "
                 "welfare=%12.2f",
                 row.network.c_str(), row.config.c_str(), budgets.c_str(),
                 row.algorithm.c_str(), row.seconds, row.welfare);
    if (row.adopters_per_item.size() > 1) {
      std::fprintf(out_, "  adopters=[");
      for (std::size_t i = 0; i < row.adopters_per_item.size(); ++i) {
        std::fprintf(out_, "%s%.1f", i > 0 ? " " : "",
                     row.adopters_per_item[i]);
      }
      std::fprintf(out_, "]");
    }
    if (!row.note.empty()) std::fprintf(out_, "  (%s)", row.note.c_str());
    std::fprintf(out_, "\n");
  }
  std::fflush(out_);
}

void TablePrinter::PrintAll(const SweepResult& result) {
  for (const TaskResult& row : result.rows) Print(row);
}

}  // namespace cwm
