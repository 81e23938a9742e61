#include "serve/protocol.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/rng.h"

namespace cwm {

namespace {

// Serve-side seed stream tags. Deliberately distinct values from the
// sweep's cell tags (scenario/sweep.cc): a served request and a sweep
// cell with the same user seed are different universes by design — the
// serve contract is "same request, same response", not "same as some
// sweep row".
constexpr uint64_t kServeImmTag = 0x53131;
constexpr uint64_t kServeEstTag = 0x53E57;
constexpr uint64_t kServeRankTag = 0x537A2;
constexpr uint64_t kServeEvalTag = 0x53E7A;

Status FieldError(std::string_view key, std::string_view what) {
  return Status::InvalidArgument("request field '" + std::string(key) +
                                 "': " + std::string(what));
}

StatusOr<int64_t> AsInteger(const JsonValue& value, std::string_view key) {
  if (!value.IsNumber() || value.number != std::floor(value.number) ||
      std::fabs(value.number) > 9.0e15) {
    return FieldError(key, "expected an integer");
  }
  return static_cast<int64_t>(value.number);
}

/// AsInteger for the fields stored as int (budgets, items, sims):
/// values outside int's range are rejected rather than wrapped.
StatusOr<int> AsInt(const JsonValue& value, std::string_view key) {
  StatusOr<int64_t> n = AsInteger(value, key);
  if (!n.ok()) return n.status();
  if (n.value() < std::numeric_limits<int>::min() ||
      n.value() > std::numeric_limits<int>::max()) {
    return FieldError(key, "integer out of range");
  }
  return static_cast<int>(n.value());
}

}  // namespace

const char* ServeErrorCodeName(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kInvalidArgument: return "invalid_argument";
    case ServeErrorCode::kNotFound: return "not_found";
    case ServeErrorCode::kOverloaded: return "overloaded";
    case ServeErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ServeErrorCode::kCancelled: return "cancelled";
    case ServeErrorCode::kInternal: return "internal";
  }
  return "internal";
}

ServeErrorCode ServeErrorCodeOf(const Status& status, bool deadline_fired) {
  switch (status.code()) {
    case Status::Code::kInvalidArgument:
      return ServeErrorCode::kInvalidArgument;
    case Status::Code::kNotFound:
      return ServeErrorCode::kNotFound;
    case Status::Code::kCancelled:
      return deadline_fired ? ServeErrorCode::kDeadlineExceeded
                            : ServeErrorCode::kCancelled;
    default:
      return ServeErrorCode::kInternal;
  }
}

StatusOr<ServeRequest> ParseServeRequest(std::string_view line) {
  StatusOr<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (!root.IsObject()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  ServeRequest request;
  bool have_graph = false, have_algo = false, have_budgets = false;
  for (const auto& [key, value] : root.object) {
    if (key == "id") {
      if (!value.IsString()) return FieldError(key, "expected a string");
      request.id = value.string;
    } else if (key == "graph") {
      if (!value.IsString()) return FieldError(key, "expected a string");
      request.graph = value.string;
      have_graph = true;
    } else if (key == "algo") {
      if (!value.IsString()) return FieldError(key, "expected a string");
      const std::optional<AlgoKind> algo = ParseAlgo(value.string);
      if (!algo.has_value()) {
        return Status::NotFound("unknown algorithm '" + value.string + "'");
      }
      request.algo = *algo;
      have_algo = true;
    } else if (key == "budgets") {
      if (!value.IsArray() || value.array.empty()) {
        return FieldError(key, "expected a non-empty array");
      }
      if (value.array.front().IsArray()) {
        // Batch form: [[...], [...], ...]
        for (const JsonValue& point : value.array) {
          if (!point.IsArray() || point.array.empty()) {
            return FieldError(key, "each budget point must be a non-empty "
                                   "array of integers");
          }
          std::vector<int> budgets;
          for (const JsonValue& b : point.array) {
            StatusOr<int> n = AsInt(b, key);
            if (!n.ok()) return n.status();
            budgets.push_back(n.value());
          }
          request.budget_points.push_back(std::move(budgets));
        }
      } else {
        std::vector<int> budgets;
        for (const JsonValue& b : value.array) {
          StatusOr<int> n = AsInt(b, key);
          if (!n.ok()) return n.status();
          budgets.push_back(n.value());
        }
        request.budget_points.push_back(std::move(budgets));
      }
      have_budgets = true;
    } else if (key == "items") {
      if (!value.IsArray()) return FieldError(key, "expected an array");
      for (const JsonValue& item : value.array) {
        StatusOr<int> n = AsInt(item, key);
        if (!n.ok()) return n.status();
        request.items.push_back(n.value());
      }
    } else if (key == "seed") {
      StatusOr<int64_t> n = AsInteger(value, key);
      if (!n.ok()) return n.status();
      if (n.value() < 0) return FieldError(key, "must be >= 0");
      request.seed = static_cast<uint64_t>(n.value());
    } else if (key == "deadline_ms") {
      StatusOr<int64_t> n = AsInteger(value, key);
      if (!n.ok()) return n.status();
      if (n.value() < 0) return FieldError(key, "must be >= 0");
      request.deadline_ms = n.value();
    } else if (key == "sims") {
      StatusOr<int> n = AsInt(value, key);
      if (!n.ok()) return n.status();
      if (n.value() < 0) return FieldError(key, "must be >= 0");
      request.sims = n.value();
    } else if (key == "eval_sims") {
      StatusOr<int> n = AsInt(value, key);
      if (!n.ok()) return n.status();
      if (n.value() < 0) return FieldError(key, "must be >= 0");
      request.eval_sims = n.value();
    } else if (key == "epsilon") {
      if (!value.IsNumber() || value.number <= 0.0 || value.number >= 1.0) {
        return FieldError(key, "expected a number in (0, 1)");
      }
      request.epsilon = value.number;
    } else if (key == "ell") {
      if (!value.IsNumber() || value.number <= 0.0) {
        return FieldError(key, "expected a positive number");
      }
      request.ell = value.number;
    } else if (key == "evaluate") {
      if (!value.IsBool()) return FieldError(key, "expected a boolean");
      request.evaluate = value.bool_value;
    } else {
      // Reject unknown keys: a typo'd "dedaline_ms" must fail loudly,
      // not silently run without a deadline.
      return Status::InvalidArgument("unknown request field '" + key + "'");
    }
  }

  if (!have_graph) return Status::InvalidArgument("missing field 'graph'");
  if (!have_algo) return Status::InvalidArgument("missing field 'algo'");
  if (!have_budgets) {
    return Status::InvalidArgument("missing field 'budgets'");
  }
  return request;
}

StatusOr<std::vector<BudgetVector>> ResolveServeBudgets(
    const ServeRequest& request, int num_items) {
  std::vector<BudgetVector> points;
  points.reserve(request.budget_points.size());
  for (const std::vector<int>& raw : request.budget_points) {
    BudgetVector budgets;
    if (raw.size() == 1) {
      budgets.assign(static_cast<std::size_t>(num_items), raw.front());
    } else if (raw.size() == static_cast<std::size_t>(num_items)) {
      budgets.assign(raw.begin(), raw.end());
    } else {
      return Status::InvalidArgument(
          "budget point must have one entry (broadcast) or one per "
          "config item (" +
          std::to_string(num_items) + ")");
    }
    for (int b : budgets) {
      if (b < 1) {
        return Status::InvalidArgument("budgets must be >= 1");
      }
    }
    points.push_back(std::move(budgets));
  }
  return points;
}

AllocateRequest BuildAllocateRequest(const ServeRequest& request,
                                     const BudgetVector& budgets,
                                     const std::vector<ItemId>& items,
                                     const std::atomic<bool>* cancel) {
  const uint64_t algo_seed =
      MixHash(request.seed, static_cast<uint64_t>(request.algo) + 0x100);
  const int sims = request.sims > 0 ? request.sims : kServeDefaultSims;
  const int eval_sims =
      request.eval_sims > 0 ? request.eval_sims : kServeDefaultEvalSims;

  AllocateRequest out;
  out.algo = request.algo;
  out.items = items;
  out.budgets = budgets;
  out.params.imm = {.epsilon = request.epsilon,
                    .ell = request.ell,
                    .seed = MixHash(algo_seed, kServeImmTag)};
  out.params.estimator = {.num_worlds = sims,
                          .seed = MixHash(algo_seed, kServeEstTag)};
  out.ranking = {.epsilon = request.epsilon,
                 .ell = request.ell,
                 .seed = MixHash(request.seed, kServeRankTag)};
  // Evaluation is keyed by the request seed alone (not the algorithm),
  // so two algorithms served with one seed are compared on the same
  // sampled universes — the sweep's convention.
  out.eval = {.num_worlds = eval_sims,
              .seed = MixHash(request.seed, kServeEvalTag)};
  out.evaluate = request.evaluate;
  out.cancel = cancel;
  return out;
}

std::string FormatServeResponse(
    const ServeRequest& request,
    const std::vector<ServePointResult>& results, bool degraded) {
  std::string out = "{";
  out += "\"id\":";
  AppendJsonString(&out, request.id);
  out += ",\"ok\":true,\"graph\":";
  AppendJsonString(&out, request.graph);
  out += ",\"algo\":";
  AppendJsonString(&out, AlgoName(request.algo));
  if (degraded) out += ",\"degraded\":true";
  out += ",\"results\":[";
  for (std::size_t p = 0; p < results.size(); ++p) {
    const ServePointResult& result = results[p];
    if (p > 0) out += ',';
    out += "{\"budgets\":[";
    for (std::size_t i = 0; i < result.budgets.size(); ++i) {
      if (i > 0) out += ',';
      AppendJsonNumber(&out, static_cast<int64_t>(result.budgets[i]));
    }
    out += ']';
    if (result.skipped) {
      out += ",\"skipped\":true,\"skip_reason\":";
      AppendJsonString(&out, result.skip_reason);
    } else {
      out += ",\"skipped\":false,\"welfare\":";
      AppendJsonNumber(&out, result.welfare);
      out += ",\"allocation\":[";
      for (std::size_t k = 0; k < result.allocation.size(); ++k) {
        if (k > 0) out += ',';
        out += '[';
        AppendJsonNumber(&out,
                         static_cast<uint64_t>(result.allocation[k].first));
        out += ',';
        AppendJsonNumber(&out,
                         static_cast<int64_t>(result.allocation[k].second));
        out += ']';
      }
      out += ']';
    }
    out += ",\"allocate_seconds\":";
    AppendJsonNumber(&out, result.allocate_seconds);
    out += ",\"evaluate_seconds\":";
    AppendJsonNumber(&out, result.evaluate_seconds);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string FormatServeError(std::string_view id, ServeErrorCode code,
                             std::string_view message) {
  std::string out = "{";
  out += "\"id\":";
  AppendJsonString(&out, id);
  out += ",\"ok\":false,\"error\":{\"code\":";
  AppendJsonString(&out, ServeErrorCodeName(code));
  out += ",\"message\":";
  AppendJsonString(&out, message);
  out += "}}";
  return out;
}

}  // namespace cwm
