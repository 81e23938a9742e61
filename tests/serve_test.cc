// Tests for the cwm_serve subsystem: the hand-rolled JSON layer, the
// ServeConfig / wire-protocol parsers, the bounded admission queue, and
// the live server end-to-end over a loopback socket — protocol round
// trips, concurrent clients bit-identical to direct engine execution,
// queue-full `overloaded` rejection, deadline → `deadline_exceeded`,
// malformed-request errors, graceful shutdown draining in-flight
// requests, and bounded descriptors: finished connections are reaped, the
// acceptor keeps serving after accept() hits the descriptor limit, and
// shutdown still finishes while the limit is hit.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/config.h"
#include "serve/json.h"
#include "support/check.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "support/failpoint.h"

namespace cwm {
namespace {

// ---------------------------------------------------------------------------
// JSON layer.
// ---------------------------------------------------------------------------

TEST(ServeJsonTest, ParsesScalarsAndNesting) {
  const StatusOr<JsonValue> parsed = ParseJson(
      R"({"s": "a\"b\nA", "n": -2.5, "i": 7, "b": true,
          "z": null, "a": [1, [2]], "o": {"k": "v"}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.IsObject());
  EXPECT_EQ(root.Find("s")->string, "a\"b\nA");
  EXPECT_EQ(root.Find("n")->number, -2.5);
  EXPECT_EQ(root.Find("i")->number, 7.0);
  EXPECT_TRUE(root.Find("b")->bool_value);
  EXPECT_TRUE(root.Find("z")->IsNull());
  ASSERT_EQ(root.Find("a")->array.size(), 2u);
  EXPECT_EQ(root.Find("a")->array[1].array[0].number, 2.0);
  EXPECT_EQ(root.Find("o")->Find("k")->string, "v");
  EXPECT_EQ(root.Find("missing"), nullptr);
}

TEST(ServeJsonTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("01").ok());
}

TEST(ServeJsonTest, RejectsPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(ServeJsonTest, WriterEscapesAndRoundTrips) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
  const StatusOr<JsonValue> back = ParseJson(out);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().string, "a\"b\\c\nd\x01");

  out.clear();
  AppendJsonNumber(&out, 2.0);
  EXPECT_EQ(out, "2");  // whole doubles print as integers
}

// ---------------------------------------------------------------------------
// Config + protocol parsers.
// ---------------------------------------------------------------------------

TEST(ServeConfigTest, ParsesFullDocument) {
  const StatusOr<ServeConfig> config = ParseServeConfig(
      R"({"port": 7077, "workers": 4, "queue_capacity": 16,
          "snapshot_budget_mb": 32, "cache_dir": "",
          "graphs": [{"name": "tiny", "scenario": "smoke-tiny",
                      "network": 0, "config": 0, "scale": 1.0}]})");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config.value().port, 7077);
  EXPECT_EQ(config.value().workers, 4u);
  EXPECT_EQ(config.value().queue_capacity, 16u);
  EXPECT_EQ(config.value().snapshot_budget_bytes, 32ull << 20);
  ASSERT_EQ(config.value().graphs.size(), 1u);
  EXPECT_EQ(config.value().graphs[0].name, "tiny");
  EXPECT_EQ(config.value().graphs[0].scenario, "smoke-tiny");
}

TEST(ServeConfigTest, RejectsUnknownAndInvalid) {
  // Typos fail loudly instead of silently taking defaults.
  EXPECT_FALSE(ParseServeConfig(R"({"prot": 1, "graphs": []})").ok());
  EXPECT_FALSE(ParseServeConfig(R"({"graphs": []})").ok());  // no graphs
  EXPECT_FALSE(ParseServeConfig(
                   R"({"graphs": [{"name": "a", "scenario": "s"},
                                  {"name": "a", "scenario": "s"}]})")
                   .ok());  // duplicate names
  EXPECT_FALSE(ParseServeConfig(
                   R"({"queue_capacity": 0,
                       "graphs": [{"name": "a", "scenario": "s"}]})")
                   .ok());
}

TEST(ServeProtocolTest, ParsesFullRequest) {
  const StatusOr<ServeRequest> request = ParseServeRequest(
      R"({"id": "r1", "graph": "tiny", "algo": "SeqGRD",
          "budgets": [3, 4], "items": [0, 1], "seed": 9,
          "deadline_ms": 250, "sims": 32, "eval_sims": 48,
          "epsilon": 0.4, "ell": 1.5, "evaluate": false})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.value().id, "r1");
  EXPECT_EQ(request.value().graph, "tiny");
  EXPECT_EQ(request.value().algo, AlgoKind::kSeqGrd);
  ASSERT_EQ(request.value().budget_points.size(), 1u);
  EXPECT_EQ(request.value().budget_points[0], (std::vector<int>{3, 4}));
  EXPECT_EQ(request.value().seed, 9u);
  EXPECT_EQ(request.value().deadline_ms, 250);
  EXPECT_FALSE(request.value().evaluate);
}

TEST(ServeProtocolTest, ParsesBatchBudgets) {
  const StatusOr<ServeRequest> request = ParseServeRequest(
      R"({"graph": "g", "algo": "MaxGRD", "budgets": [[3,3],[5,5]]})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  ASSERT_EQ(request.value().budget_points.size(), 2u);
  EXPECT_EQ(request.value().budget_points[1], (std::vector<int>{5, 5}));
}

TEST(ServeProtocolTest, RejectsBadRequests) {
  EXPECT_FALSE(ParseServeRequest("not json").ok());
  EXPECT_FALSE(ParseServeRequest(R"({"algo": "SeqGRD", "budgets": [1]})")
                   .ok());  // missing graph
  EXPECT_FALSE(ParseServeRequest(R"({"graph": "g", "budgets": [1]})")
                   .ok());  // missing algo
  EXPECT_FALSE(ParseServeRequest(R"({"graph": "g", "algo": "SeqGRD"})")
                   .ok());  // missing budgets
  // A typo'd field must not silently drop the deadline.
  const StatusOr<ServeRequest> typo = ParseServeRequest(
      R"({"graph": "g", "algo": "SeqGRD", "budgets": [1],
          "dedaline_ms": 5})");
  EXPECT_FALSE(typo.ok());
  const StatusOr<ServeRequest> unknown_algo = ParseServeRequest(
      R"({"graph": "g", "algo": "NoSuchAlgo", "budgets": [1]})");
  ASSERT_FALSE(unknown_algo.ok());
  EXPECT_EQ(unknown_algo.status().code(), Status::Code::kNotFound);
}

TEST(ServeProtocolTest, RejectsIntegersOutsideIntRange) {
  // Each would wrap if cast to int: 4294967301 -> 5, 4294967296 -> 0.
  const std::pair<const char*, const char*> cases[] = {
      {"budgets", R"({"graph":"g","algo":"TCIM","budgets":[4294967301]})"},
      {"budgets",
       R"({"graph":"g","algo":"TCIM","budgets":[[2,2],[3,4294967301]]})"},
      {"budgets", R"({"graph":"g","algo":"TCIM","budgets":[-4294967295]})"},
      {"items",
       R"({"graph":"g","algo":"TCIM","budgets":[3],"items":[4294967296]})"},
      {"sims",
       R"({"graph":"g","algo":"TCIM","budgets":[3],"sims":2147483648})"},
      {"eval_sims", R"({"graph":"g","algo":"TCIM","budgets":[3],)"
                    R"("eval_sims":4294967297})"},
  };
  for (const auto& [field, line] : cases) {
    const StatusOr<ServeRequest> request = ParseServeRequest(line);
    ASSERT_FALSE(request.ok()) << line;
    EXPECT_EQ(request.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(request.status().message().find(std::string("'") + field +
                                              "'"),
              std::string::npos)
        << request.status().ToString();
  }
  // INT_MAX itself is still an int.
  const StatusOr<ServeRequest> at_max = ParseServeRequest(
      R"({"graph":"g","algo":"TCIM","budgets":[3],"sims":2147483647})");
  ASSERT_TRUE(at_max.ok()) << at_max.status().ToString();
  EXPECT_EQ(at_max.value().sims, 2147483647);
}

TEST(ServeProtocolTest, ResolvesBudgetPoints) {
  ServeRequest request;
  request.budget_points = {{4}, {2, 3}};
  const StatusOr<std::vector<BudgetVector>> points =
      ResolveServeBudgets(request, 2);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  EXPECT_EQ(points.value()[0], (BudgetVector{4, 4}));  // broadcast
  EXPECT_EQ(points.value()[1], (BudgetVector{2, 3}));

  request.budget_points = {{1, 2, 3}};
  EXPECT_FALSE(ResolveServeBudgets(request, 2).ok());  // size mismatch
  request.budget_points = {{0}};
  EXPECT_FALSE(ResolveServeBudgets(request, 2).ok());  // budget < 1
}

TEST(ServeProtocolTest, ErrorCodeMapping) {
  EXPECT_EQ(ServeErrorCodeOf(Status::InvalidArgument("x"), false),
            ServeErrorCode::kInvalidArgument);
  EXPECT_EQ(ServeErrorCodeOf(Status::NotFound("x"), false),
            ServeErrorCode::kNotFound);
  EXPECT_EQ(ServeErrorCodeOf(Status::Cancelled("x"), false),
            ServeErrorCode::kCancelled);
  EXPECT_EQ(ServeErrorCodeOf(Status::Cancelled("x"), true),
            ServeErrorCode::kDeadlineExceeded);
  EXPECT_EQ(ServeErrorCodeOf(Status::IOError("x"), false),
            ServeErrorCode::kInternal);
  EXPECT_EQ(std::string(ServeErrorCodeName(ServeErrorCode::kOverloaded)),
            "overloaded");
}

// ---------------------------------------------------------------------------
// BoundedQueue.
// ---------------------------------------------------------------------------

TEST(BoundedQueueTest, CapacityAndCloseSemantics) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full, never blocks
  EXPECT_EQ(queue.depth(), 2u);
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.TryPush(4));
  // Items accepted before Close still drain.
  EXPECT_EQ(queue.PopBlocking(), std::optional<int>(1));
  EXPECT_EQ(queue.PopBlocking(), std::optional<int>(2));
  EXPECT_EQ(queue.PopBlocking(), std::nullopt);
}

// ---------------------------------------------------------------------------
// End-to-end server tests over a loopback socket.
// ---------------------------------------------------------------------------

ServeConfig TestServeConfig() {
  ServeConfig config;
  config.port = 0;  // ephemeral; tests read Server::port()
  config.workers = 2;
  config.queue_capacity = 8;
  ServeGraphSpec graph;
  graph.name = "tiny";
  graph.scenario = "smoke-tiny";
  config.graphs = {graph};
  return config;
}

/// Blocking line-oriented loopback client.
class Client {
 public:
  explicit Client(int port) : Client(port, ::socket(AF_INET, SOCK_STREAM, 0)) {}

  /// Connects the already created socket `fd`, which the client then
  /// owns; replies must arrive within `timeout_s`.
  Client(int port, int fd, int timeout_s = 120) : fd_(fd) {
    CWM_CHECK(fd_ >= 0);
    timeval timeout{.tv_sec = timeout_s, .tv_usec = 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    CWM_CHECK(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr) == 0);
  }
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd() const { return fd_; }

  void Send(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string ReadLine() {
    std::size_t pos;
    while ((pos = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return "";  // timeout / closed: caller's EXPECTs fail
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::string line = buffer_.substr(0, pos);
    buffer_.erase(0, pos + 1);
    return line;
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Canonical serialization of a response with the timing fields removed
/// — everything that must be bit-identical across serving paths.
std::string Canonical(const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return value.bool_value ? "true" : "false";
    case JsonValue::Kind::kNumber: {
      std::string out;
      AppendJsonNumber(&out, value.number);
      return out;
    }
    case JsonValue::Kind::kString: {
      std::string out;
      AppendJsonString(&out, value.string);
      return out;
    }
    case JsonValue::Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        if (i > 0) out += ',';
        out += Canonical(value.array[i]);
      }
      return out + "]";
    }
    case JsonValue::Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, member] : value.object) {
        if (key.size() > 8 &&
            key.compare(key.size() - 8, 8, "_seconds") == 0) {
          continue;  // wall-clock noise, not payload
        }
        // "degraded" flags a storage fallback that is bit-identical by
        // contract — a degraded response must still match a healthy one.
        if (key == "degraded") continue;
        if (!first) out += ',';
        first = false;
        AppendJsonString(&out, key);
        out += ':';
        out += Canonical(member);
      }
      return out + "}";
    }
  }
  return "";
}

std::string CanonicalResponse(const std::string& line) {
  const StatusOr<JsonValue> parsed = ParseJson(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? Canonical(parsed.value()) : "";
}

std::string FieldOf(const std::string& line, const std::string& key) {
  const StatusOr<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok() || !parsed.value().IsObject()) return "";
  const JsonValue* field = parsed.value().Find(key);
  return field == nullptr ? "" : Canonical(*field);
}

std::string ErrorCodeOf(const std::string& line) {
  const StatusOr<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) return "";
  const JsonValue* error = parsed.value().Find("error");
  if (error == nullptr) return "";
  const JsonValue* code = error->Find("code");
  return code == nullptr ? "" : code->string;
}

std::string SmallRequest(const std::string& id, const std::string& algo,
                         uint64_t seed) {
  return "{\"id\": \"" + id + "\", \"graph\": \"tiny\", \"algo\": \"" +
         algo + "\", \"budgets\": [3], \"seed\": " + std::to_string(seed) +
         ", \"sims\": 20, \"eval_sims\": 24}";
}

/// Ground truth: the same request executed in-process through the shared
/// ExecuteServeRequest path (what cwm_serve --oneshot prints).
std::string DirectResponse(const ServeEngineSet& engines,
                           const std::string& line) {
  const StatusOr<ServeRequest> request = ParseServeRequest(line);
  EXPECT_TRUE(request.ok()) << line;
  return ExecuteServeRequest(engines, request.value(), nullptr);
}

TEST(ServeServerTest, RoundTripMatchesDirectExecution) {
  const ServeConfig config = TestServeConfig();
  StatusOr<std::unique_ptr<Server>> server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  StatusOr<std::unique_ptr<ServeEngineSet>> engines =
      ServeEngineSet::Load(config);
  ASSERT_TRUE(engines.ok()) << engines.status().ToString();

  Client client(server.value()->port());
  const std::string request = SmallRequest("r1", "SeqGRD-NM", 7);
  client.Send(request);
  const std::string served = client.ReadLine();
  ASSERT_FALSE(served.empty());
  EXPECT_EQ(FieldOf(served, "ok"), "true") << served;
  EXPECT_EQ(FieldOf(served, "id"), "\"r1\"");
  // Bit-identical payload (allocation, welfare, budgets) to a direct
  // in-process engine call deriving seeds the same way.
  EXPECT_EQ(CanonicalResponse(served),
            CanonicalResponse(DirectResponse(*engines.value(), request)));
  server.value()->Shutdown();
}

TEST(ServeServerTest, BatchRequestReturnsOneResultPerPoint) {
  const ServeConfig config = TestServeConfig();
  StatusOr<std::unique_ptr<Server>> server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Client client(server.value()->port());
  // NB: requests are line-delimited — they must not contain newlines.
  client.Send("{\"id\": \"b\", \"graph\": \"tiny\", \"algo\": \"SeqGRD\", "
              "\"budgets\": [[2,2],[4,4]], \"sims\": 20, \"eval_sims\": 24}");
  const std::string served = client.ReadLine();
  ASSERT_FALSE(served.empty());
  EXPECT_EQ(FieldOf(served, "ok"), "true") << served;
  const StatusOr<JsonValue> parsed = ParseJson(served);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* results = parsed.value().Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), 2u);
  EXPECT_EQ(Canonical(*results->array[0].Find("budgets")), "[2,2]");
  EXPECT_EQ(Canonical(*results->array[1].Find("budgets")), "[4,4]");
  server.value()->Shutdown();
}

TEST(ServeServerTest, ConcurrentClientsAreBitIdenticalToDirectCalls) {
  const ServeConfig config = TestServeConfig();
  StatusOr<std::unique_ptr<Server>> server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  StatusOr<std::unique_ptr<ServeEngineSet>> engines =
      ServeEngineSet::Load(config);
  ASSERT_TRUE(engines.ok()) << engines.status().ToString();

  constexpr int kClients = 3;
  constexpr int kPerClient = 2;
  std::vector<std::vector<std::pair<std::string, std::string>>> outcomes(
      kClients);  // (request, served response)
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([t, port = server.value()->port(), &outcomes] {
      Client client(port);
      for (int r = 0; r < kPerClient; ++r) {
        const std::string algo = (t + r) % 2 == 0 ? "SeqGRD-NM" : "MaxGRD";
        const std::string request = SmallRequest(
            "c" + std::to_string(t) + "-" + std::to_string(r), algo,
            100 + static_cast<uint64_t>(t * 10 + r));
        client.Send(request);
        outcomes[t].emplace_back(request, client.ReadLine());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.value()->Shutdown();

  for (int t = 0; t < kClients; ++t) {
    for (const auto& [request, served] : outcomes[t]) {
      ASSERT_FALSE(served.empty());
      EXPECT_EQ(FieldOf(served, "ok"), "true") << served;
      EXPECT_EQ(CanonicalResponse(served),
                CanonicalResponse(DirectResponse(*engines.value(), request)))
          << request;
    }
  }
}

TEST(ServeServerTest, MalformedAndUnknownRequestsGetStructuredErrors) {
  StatusOr<std::unique_ptr<Server>> server =
      Server::Start(TestServeConfig());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client(server.value()->port());

  client.Send("this is not json");
  EXPECT_EQ(ErrorCodeOf(client.ReadLine()), "invalid_argument");

  client.Send("{\"graph\": \"tiny\", \"algo\": \"SeqGRD\", "
              "\"budgets\": [3], \"dedaline_ms\": 5}");
  EXPECT_EQ(ErrorCodeOf(client.ReadLine()), "invalid_argument");

  client.Send("{\"id\": \"x\", \"graph\": \"nope\", \"algo\": \"SeqGRD\", "
              "\"budgets\": [3]}");
  const std::string unknown_graph = client.ReadLine();
  EXPECT_EQ(ErrorCodeOf(unknown_graph), "not_found");
  EXPECT_EQ(FieldOf(unknown_graph, "id"), "\"x\"");

  client.Send(R"({"graph": "tiny", "algo": "NoSuchAlgo", "budgets": [3]})");
  EXPECT_EQ(ErrorCodeOf(client.ReadLine()), "not_found");

  // The connection survives all of the above: a good request still works.
  client.Send(SmallRequest("after", "SeqGRD-NM", 3));
  EXPECT_EQ(FieldOf(client.ReadLine(), "ok"), "true");
  server.value()->Shutdown();
}

// A budget above the graph's node count is hostile input: the server
// answers invalid_argument and keeps serving the connection.
TEST(ServeServerTest, OversizedBudgetIsInvalidAndTheServerKeepsServing) {
  StatusOr<std::unique_ptr<Server>> server =
      Server::Start(TestServeConfig());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client(server.value()->port());

  // smoke-tiny has 300 nodes.
  client.Send(R"({"id": "big", "graph": "tiny", "algo": "TCIM", )"
              R"("budgets": [301]})");
  const std::string oversized = client.ReadLine();
  EXPECT_EQ(ErrorCodeOf(oversized), "invalid_argument") << oversized;
  EXPECT_EQ(FieldOf(oversized, "id"), "\"big\"");

  // Each item fits but 160 + 160 does not: SeqGRD reports the point
  // skipped instead of taking the daemon down.
  client.Send(R"({"id": "sum", "graph": "tiny", "algo": "SeqGRD", )"
              R"("budgets": [160]})");
  const std::string summed = client.ReadLine();
  EXPECT_EQ(FieldOf(summed, "ok"), "true") << summed;
  const StatusOr<JsonValue> parsed = ParseJson(summed);
  ASSERT_TRUE(parsed.ok()) << summed;
  const JsonValue* results = parsed.value().Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), 1u);
  EXPECT_EQ(Canonical(*results->array[0].Find("skipped")), "true");

  client.Send(SmallRequest("after", "SeqGRD-NM", 3));
  EXPECT_EQ(FieldOf(client.ReadLine(), "ok"), "true");
  server.value()->Shutdown();
}

// A request heavy enough to outlive the test's control operations (large
// estimator world counts on the 300-node smoke graph): about 3 s
// uncancelled on a 4-core VM, so its deadline always fires first.
std::string HeavyRequest(const std::string& id, int64_t deadline_ms) {
  std::string request = "{\"id\": \"" + id +
                        "\", \"graph\": \"tiny\", \"algo\": \"SeqGRD\", "
                        "\"budgets\": [10], \"sims\": 200000, "
                        "\"eval_sims\": 200000";
  if (deadline_ms > 0) {
    request += ", \"deadline_ms\": " + std::to_string(deadline_ms);
  }
  return request + "}";
}

TEST(ServeServerTest, DeadlineCancelsMidRun) {
  StatusOr<std::unique_ptr<Server>> server =
      Server::Start(TestServeConfig());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client(server.value()->port());

  const auto start = std::chrono::steady_clock::now();
  client.Send(HeavyRequest("d1", 60));
  const std::string served = client.ReadLine();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();
  EXPECT_EQ(ErrorCodeOf(served), "deadline_exceeded") << served;
  // Cooperative cancellation latency is bounded by the engine's poll
  // points, far below the full run time (tens of seconds of sampling).
  EXPECT_LT(elapsed, 30.0);
  server.value()->Shutdown();
}

TEST(ServeServerTest, FullQueueRejectsWithOverloaded) {
  ServeConfig config = TestServeConfig();
  config.workers = 1;
  config.queue_capacity = 1;
  StatusOr<std::unique_ptr<Server>> server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Occupy the single worker with a deadlined heavy request...
  Client busy(server.value()->port());
  busy.Send(HeavyRequest("busy", 600));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // ...then burst past the single queue slot.
  Client burst(server.value()->port());
  constexpr int kBurst = 6;
  for (int i = 0; i < kBurst; ++i) {
    burst.Send(SmallRequest("q" + std::to_string(i), "SeqGRD-NM", 1));
  }
  int overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    const std::string response = burst.ReadLine();
    ASSERT_FALSE(response.empty());
    if (ErrorCodeOf(response) == "overloaded") ++overloaded;
  }
  // The worker held the heavy request throughout the burst, so at most
  // one burst request fit the queue; the rest were rejected fast.
  EXPECT_GE(overloaded, kBurst - 2);

  EXPECT_EQ(ErrorCodeOf(busy.ReadLine()), "deadline_exceeded");
  server.value()->Shutdown();
}

// Degraded-mode serving: a cache whose RR reads fail mid-request makes
// the worker resample — the response carries "degraded": true but an
// otherwise bit-identical payload; injected transport faults on the
// send path are retried until the response reaches the client.
TEST(ServeServerTest, DegradedResponsesAreFlaggedAndBitIdentical) {
  if (!kFailpointsCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  ServeConfig config = TestServeConfig();
  static const uint64_t token = std::random_device{}();
  const std::filesystem::path cache_dir =
      std::filesystem::path(::testing::TempDir()) /
      ("cwm_serve_degraded_" + std::to_string(token));
  config.cache_dir = cache_dir.string();
  StatusOr<std::unique_ptr<Server>> server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Client client(server.value()->port());

  // Healthy pass warms the cache; the response must not carry the flag.
  const std::string request = SmallRequest("warm", "SeqGRD-NM", 9);
  client.Send(request);
  const std::string healthy = client.ReadLine();
  ASSERT_FALSE(healthy.empty());
  EXPECT_EQ(FieldOf(healthy, "ok"), "true") << healthy;
  EXPECT_EQ(FieldOf(healthy, "degraded"), "") << healthy;

  // Same payload with every warm RR read failing and one injected send
  // fault: flagged degraded, payload identical, response still delivered.
  FailpointRegistry& failpoints = FailpointRegistry::Global();
  ASSERT_TRUE(failpoints.Set("cache.rr.load", "error(corruption)").ok());
  ASSERT_TRUE(failpoints.Set("serve.send", "1*error").ok());
  client.Send(request);
  const std::string degraded = client.ReadLine();
  failpoints.Clear("cache.rr.load");
  failpoints.Clear("serve.send");
  ASSERT_FALSE(degraded.empty());
  EXPECT_EQ(FieldOf(degraded, "degraded"), "true") << degraded;
  EXPECT_EQ(CanonicalResponse(degraded), CanonicalResponse(healthy));

  server.value()->Shutdown();
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);
}

std::size_t OpenFdCount() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// A finished connection gives back its descriptor and reader thread: a
// long-lived server's fd count stays flat over many short clients.
TEST(ServeServerTest, SequentialClientsDoNotAccumulateDescriptors) {
  StatusOr<std::unique_ptr<Server>> server = Server::Start(TestServeConfig());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const int port = server.value()->port();
  auto round_trip = [port](int i) {
    Client client(port);
    client.Send(SmallRequest("s" + std::to_string(i), "TCIM", 3));
    return FieldOf(client.ReadLine(), "ok");
  };
  ASSERT_EQ(round_trip(-1), "true");
  const std::size_t before = OpenFdCount();
  for (int i = 0; i < 300; ++i) ASSERT_EQ(round_trip(i), "true") << i;
  // The acceptor reaps on its next pass, so the last few readers may not
  // have been joined yet; nothing else may remain.
  EXPECT_LE(OpenFdCount(), before + 4);
  server.value()->Shutdown();
}

// Restores the process's descriptor limit when the test leaves.
class ScopedFdLimit {
 public:
  ScopedFdLimit() { CWM_CHECK(::getrlimit(RLIMIT_NOFILE, &original_) == 0); }
  ~ScopedFdLimit() { ::setrlimit(RLIMIT_NOFILE, &original_); }

  ScopedFdLimit(const ScopedFdLimit&) = delete;
  ScopedFdLimit& operator=(const ScopedFdLimit&) = delete;

  rlim_t soft() const { return original_.rlim_cur; }
  bool Lower(rlim_t limit) {
    rlimit lowered = original_;
    lowered.rlim_cur = limit;
    return ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }

 private:
  rlimit original_{};
};

// Leaves a running server without a free descriptor. Clients connect on
// sockets parked above a lowered RLIMIT_NOFILE, so closing one frees no
// descriptor the acceptor could take, and every free slot below the limit
// but one is filled. Other threads may hold a slot briefly, so Exhaust()
// connects the clients one at a time, each sending a request, until
// accept() fails and a client is left in the backlog. Leaving closes the
// fillers and the unused parked sockets and restores the limit.
//
// Under UBSan, the first dynamic-type check of each polymorphic type
// probes its vtable through a pipe, which needs two free descriptors. So
// Exhaust() first runs a throwaway server through a round trip and a
// shutdown while descriptors are plentiful, and a test must not start or
// end a thread of its own while they are exhausted.
struct DescriptorExhaustion {
  static constexpr int kClients = 8;

  ~DescriptorExhaustion() {
    ReleaseFillers();
    for (std::size_t i = clients.size(); i < parked.size(); ++i) {
      ::close(parked[i]);
    }
  }

  void ReleaseFillers() {
    for (int fd : fillers) ::close(fd);
    fillers.clear();
  }

  /// Sets `*waiting` to the index of the client left in the backlog, or
  /// to -1 if every client was answered.
  void Exhaust(int port, int* waiting) {
    *waiting = -1;
    {
      StatusOr<std::unique_ptr<Server>> warm =
          Server::Start(TestServeConfig());
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      Client client(warm.value()->port());
      client.Send(SmallRequest("warm", "TCIM", 3));
      ASSERT_EQ(FieldOf(client.ReadLine(), "ok"), "true");
      client.Close();
      warm.value()->Shutdown();
    }
    const int high_base =
        static_cast<int>(std::min<rlim_t>(limit.soft(), 1024)) - 2 * kClients;
    for (int i = 0; i < kClients; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      parked.push_back(::fcntl(fd, F_DUPFD_CLOEXEC, high_base + i));
      ::close(fd);
      ASSERT_EQ(parked.back(), high_base + i);
    }
    // The fillers dup /dev/null, parked above the limit too: were they
    // dups of a client socket, closing that client would not hang up.
    const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    const int source = ::fcntl(null_fd, F_DUPFD_CLOEXEC, high_base + kClients);
    ::close(null_fd);
    ASSERT_EQ(source, high_base + kClients);
    // Lower the limit a little above the descriptors in use and take
    // every free slot below it but one.
    int highest_low = 0;
    for (int fd = 0; fd < high_base; ++fd) {
      if (::fcntl(fd, F_GETFD) != -1) highest_low = fd;
    }
    const int lowered = highest_low + 16;
    ASSERT_LT(lowered, high_base);
    ASSERT_TRUE(limit.Lower(static_cast<rlim_t>(lowered)));
    for (int fd = ::dup(source); fd >= 0; fd = ::dup(source)) {
      fillers.push_back(fd);
    }
    ASSERT_EQ(errno, EMFILE);
    ::close(source);
    ASSERT_FALSE(fillers.empty());
    ::close(fillers.back());
    fillers.pop_back();

    Counter& io_errors =
        MetricsRegistry::Global().GetCounter("serve.io_errors");
    const uint64_t io_errors_before = io_errors.value();
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(std::make_unique<Client>(port, parked[i], 20));
      Client& client = *clients.back();
      client.Send(SmallRequest("c" + std::to_string(i), "TCIM", 3));
      // Either the reply arrives (accepted) or accept() fails for want of
      // a descriptor, which the acceptor counts.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      bool replied = false;
      while (!replied && io_errors.value() == io_errors_before &&
             std::chrono::steady_clock::now() < deadline) {
        pollfd ready{.fd = client.fd(), .events = POLLIN, .revents = 0};
        replied = ::poll(&ready, 1, 5) > 0;
      }
      if (!replied) {
        EXPECT_GT(io_errors.value(), io_errors_before);
        *waiting = i;
        return;
      }
      ASSERT_EQ(FieldOf(client.ReadLine(), "ok"), "true") << i;
    }
  }

  ScopedFdLimit limit;
  std::vector<int> parked;    ///< client sockets above the limit
  std::vector<int> fillers;   ///< dups holding the slots below it
  std::vector<std::unique_ptr<Client>> clients;  ///< own parked[0..size)
};

// At the descriptor limit, accept() fails with EMFILE. The acceptor must
// count it, reap finished connections and keep accepting: once the
// accepted clients hang up, the connection waiting in the backlog is
// served.
TEST(ServeServerTest, AcceptorKeepsServingAfterDescriptorExhaustion) {
  StatusOr<std::unique_ptr<Server>> server = Server::Start(TestServeConfig());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  DescriptorExhaustion exhausted;
  if (exhausted.limit.soft() < 64) GTEST_SKIP() << "descriptor limit too low";
  int waiting = -1;
  exhausted.Exhaust(server.value()->port(), &waiting);
  if (HasFatalFailure()) return;
  ASSERT_GT(waiting, 0) << "no client was accepted, or every one was";

  // The accepted clients hang up; their readers exit, the acceptor reaps
  // them, and a freed descriptor admits the waiting one.
  for (int j = 0; j < waiting; ++j) exhausted.clients[j]->Close();
  const std::string reply = exhausted.clients[waiting]->ReadLine();
  exhausted.ReleaseFillers();
  EXPECT_EQ(FieldOf(reply, "ok"), "true") << "the waiting client got: "
                                          << reply;
  server.value()->Shutdown();
}

// Out of descriptors, accept() keeps failing with EMFILE even on a
// shut-down listener. While open, idle connections hold every descriptor,
// reaping frees nothing, so Shutdown() must still stop the retrying
// acceptor rather than wait for a descriptor to come free.
TEST(ServeServerTest, ShutdownFinishesWhileDescriptorsAreExhausted) {
  StatusOr<std::unique_ptr<Server>> server = Server::Start(TestServeConfig());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  DescriptorExhaustion exhausted;
  if (exhausted.limit.soft() < 64) GTEST_SKIP() << "descriptor limit too low";
  // Calls Shutdown() once told to (or once the test leaves early), then
  // lingers until stopped, so that it neither starts nor ends while the
  // descriptors are exhausted.
  std::atomic<bool> go{false};
  std::atomic<bool> finished{false};
  std::jthread shutdown([&](std::stop_token stop) {
    const auto nap = [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    while (!go.load() && !stop.stop_requested()) nap();
    server.value()->Shutdown();
    finished.store(true);
    while (!stop.stop_requested()) nap();
  });
  int waiting = -1;
  exhausted.Exhaust(server.value()->port(), &waiting);
  if (HasFatalFailure()) return;
  ASSERT_GE(waiting, 0) << "every client was accepted";

  go.store(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!finished.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool in_time = finished.load();
  // Free the descriptors either way, so a stuck acceptor can return and
  // the test ends with a failure instead of hanging.
  exhausted.ReleaseFillers();
  shutdown.request_stop();
  shutdown.join();
  EXPECT_TRUE(in_time) << "Shutdown() waited for a free descriptor";
}

TEST(ServeServerTest, GracefulShutdownDrainsInFlightRequests) {
  ServeConfig config = TestServeConfig();
  config.workers = 1;
  StatusOr<std::unique_ptr<Server>> server = Server::Start(config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Client client(server.value()->port());
  client.Send(SmallRequest("inflight", "SeqGRD-NM", 5));
  // Let the worker pick the request up, then shut down mid-run: the
  // response must still arrive before Shutdown() returns.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.value()->Shutdown();
  const std::string served = client.ReadLine();
  ASSERT_FALSE(served.empty());
  EXPECT_EQ(FieldOf(served, "ok"), "true") << served;
  EXPECT_EQ(FieldOf(served, "id"), "\"inflight\"");
}

}  // namespace
}  // namespace cwm
