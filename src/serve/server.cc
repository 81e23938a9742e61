#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <numeric>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "serve/queue.h"
#include "support/check.h"
#include "support/failpoint.h"

namespace cwm {

namespace {

// Request-latency buckets, seconds (arrival to response write).
constexpr double kLatencyBounds[] = {0.001, 0.0025, 0.005, 0.01,  0.025,
                                     0.05,  0.1,    0.25,  0.5,   1.0,
                                     2.5,   5.0,    10.0,  30.0};

// A request line larger than this is a protocol violation, not a
// request: cap the reader's buffer so a client streaming garbage
// without newlines cannot grow server memory unboundedly.
constexpr std::size_t kMaxLineBytes = 1 << 20;

// Pause between accept() retries while the process is out of
// descriptors or buffer memory, so the acceptor does not spin while
// finished connections give theirs back.
constexpr std::chrono::milliseconds kAcceptBackoff{10};

Counter& RequestsCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("serve.requests");
  return counter;
}
Counter& ResponsesCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("serve.responses");
  return counter;
}
Counter& RejectedCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("serve.rejected");
  return counter;
}
Counter& DeadlineExceededCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("serve.deadline_exceeded");
  return counter;
}
Counter& ErrorsCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("serve.errors");
  return counter;
}
Counter& IoErrorsCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("serve.io_errors");
  return counter;
}
Gauge& QueueDepthGauge() {
  static Gauge& gauge =
      MetricsRegistry::Global().GetGauge("serve.queue_depth");
  return gauge;
}
Histogram& RequestSecondsHistogram() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "serve.request_seconds", kLatencyBounds);
  return histogram;
}

struct ExecOutcome {
  std::string line;  ///< the response (success or error), no newline
  bool ok = false;
  ServeErrorCode code = ServeErrorCode::kInternal;  ///< when !ok
};

ExecOutcome ErrorOutcome(const ServeRequest& request, ServeErrorCode code,
                         std::string_view message) {
  return {FormatServeError(request.id, code, message), false, code};
}

// The one execution path every consumer shares (workers, --oneshot,
// tests). Deliberately free of server state: engines + request + flag in,
// response line out.
ExecOutcome ExecuteInternal(const ServeEngineSet& engines,
                            const ServeRequest& request,
                            const std::atomic<bool>* cancel) {
  const Engine* engine = engines.Find(request.graph);
  if (engine == nullptr) {
    return ErrorOutcome(request, ServeErrorCode::kNotFound,
                        "unknown graph '" + request.graph + "'");
  }
  const int num_items = engine->config().num_items();

  StatusOr<std::vector<BudgetVector>> points =
      ResolveServeBudgets(request, num_items);
  if (!points.ok()) {
    return ErrorOutcome(request, ServeErrorCodeOf(points.status(), false),
                        points.status().message());
  }

  std::vector<ItemId> items = request.items;
  if (items.empty()) {
    items.resize(static_cast<std::size_t>(num_items));
    std::iota(items.begin(), items.end(), ItemId{0});
  }

  CWM_TRACE_SPAN("serve.execute",
                 {{"points", static_cast<int64_t>(points.value().size())},
                  {"deadline_ms", request.deadline_ms}});

  // Degraded detection: any storage fallback firing while this request
  // executes (quarantine+rebuild, heap load, cache flipped read-only)
  // bumps the shared counter; the delta marks the response `degraded`.
  // Concurrent requests can blame each other's degradation — acceptable:
  // the flag means "the substrate degraded under this answer", and the
  // answer's bytes are identical either way.
  const uint64_t degraded_before = DegradedEventsCounter().value();

  AllocateRequest allocate_request =
      BuildAllocateRequest(request, points.value().front(), items, cancel);
  std::vector<AllocateResult> results;
  Status status;
  if (points.value().size() == 1) {
    AllocateResult one;
    status = engine->Allocate(std::move(allocate_request), &one);
    if (status.ok()) results.push_back(std::move(one));
  } else {
    status = engine->AllocateBatch(std::move(allocate_request),
                                   std::span<const BudgetVector>(
                                       points.value()),
                                   &results);
  }
  if (!status.ok()) {
    const bool deadline_fired =
        cancel != nullptr && cancel->load(std::memory_order_acquire) &&
        request.deadline_ms > 0;
    return ErrorOutcome(request, ServeErrorCodeOf(status, deadline_fired),
                        status.message());
  }

  std::vector<ServePointResult> wire(results.size());
  for (std::size_t p = 0; p < results.size(); ++p) {
    const AllocateResult& result = results[p];
    ServePointResult& out = wire[p];
    out.budgets = points.value()[p];
    out.skipped = result.skipped;
    out.skip_reason = result.skip_reason;
    out.welfare = result.stats.welfare;
    out.allocate_seconds = result.allocate_seconds;
    out.evaluate_seconds = result.evaluate_seconds;
    const Allocation& allocation = result.allocation;
    for (ItemId i = 0; i < allocation.num_items(); ++i) {
      for (NodeId node : allocation.SeedsOf(i)) {
        out.allocation.emplace_back(node, i);
      }
    }
  }
  const bool degraded = DegradedEventsCounter().value() > degraded_before;
  return {FormatServeResponse(request, wire, degraded), true,
          ServeErrorCode::kInternal};
}

// Flips each armed request's cancel flag once its absolute deadline
// passes. One thread, min-heap by due time; granularity is the engine's
// cooperative poll interval, not this thread's (it wakes exactly at the
// earliest due time).
class DeadlineWatcher {
 public:
  DeadlineWatcher() : thread_([this] { Run(); }) {}

  ~DeadlineWatcher() { Stop(); }

  void Arm(std::chrono::steady_clock::time_point due,
           std::shared_ptr<std::atomic<bool>> flag) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      entries_.push(Entry{due, std::move(flag)});
    }
    wake_.notify_one();
  }

  void Stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stop_) return;
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }

 private:
  struct Entry {
    std::chrono::steady_clock::time_point due;
    std::shared_ptr<std::atomic<bool>> flag;
    bool operator>(const Entry& other) const { return due > other.due; }
  };

  void Run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (entries_.empty()) {
        wake_.wait(lock, [&] { return stop_ || !entries_.empty(); });
        continue;
      }
      wake_.wait_until(lock, entries_.top().due);
      const auto now = std::chrono::steady_clock::now();
      while (!entries_.empty() && entries_.top().due <= now) {
        entries_.top().flag->store(true, std::memory_order_release);
        entries_.pop();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> entries_;
  bool stop_ = false;
  std::thread thread_;
};

// One accepted socket. The write mutex serializes response lines from
// concurrent workers (responses are in completion order, matched by id).
// The fd closes with the last reference: the acceptor's entry, dropped
// once the reader has finished, or a queued job still owing a response.
struct Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() { ::close(fd); }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void WriteLine(std::string_view line) {
    const std::lock_guard<std::mutex> lock(write_mutex);
    std::string framed(line);
    framed += '\n';
    std::size_t sent = 0;
    while (sent < framed.size()) {
      // An injected send fault is a transient I/O error: count it and
      // retry — the response must still reach the client.
      if (!CWM_FAILPOINT_STATUS("serve.send").ok()) {
        IoErrorsCounter().Add(1);
        continue;
      }
      // MSG_NOSIGNAL: a client that hung up turns writes into EPIPE
      // errors, not process-killing SIGPIPEs.
      const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;  // stray signal; retry
      if (n <= 0) return;  // peer gone; nothing useful to do
      sent += static_cast<std::size_t>(n);
    }
  }

  const int fd;
  std::mutex write_mutex;
  /// Set by the reader thread as its last act; the acceptor then joins
  /// the thread and drops the entry.
  std::atomic<bool> reader_done{false};
};

struct Job {
  ServeRequest request;
  std::shared_ptr<Connection> conn;
  std::shared_ptr<std::atomic<bool>> cancel;  ///< null = no deadline
  std::chrono::steady_clock::time_point arrival;
};

}  // namespace

StatusOr<std::unique_ptr<ServeEngineSet>> ServeEngineSet::Load(
    const ServeConfig& config) {
  if (Status valid = config.Validate(); !valid.ok()) return valid;

  std::unique_ptr<ServeEngineSet> set(new ServeEngineSet());
  if (!config.cache_dir.empty()) {
    StatusOr<std::unique_ptr<ArtifactCache>> cache =
        ArtifactCache::Open(config.cache_dir);
    if (cache.ok()) {
      set->cache_ = std::move(cache).value();
    } else {
      // An unopenable cache dir must not keep the service down: engines
      // build their graphs from scratch and serve uncached — slower,
      // bit-identical answers.
      NoteDegradedEvent("store.degraded.cache_disabled");
      std::fprintf(stderr,
                   "cwm_serve: cache disabled: %s (serving uncached; "
                   "results are unaffected)\n",
                   cache.status().ToString().c_str());
    }
  }

  for (const ServeGraphSpec& spec : config.graphs) {
    StatusOr<ScenarioSpec> scenario =
        GlobalScenarioRegistry().Find(spec.scenario);
    if (!scenario.ok()) return scenario.status();
    if (spec.network_index >= scenario.value().networks.size()) {
      return Status::InvalidArgument(
          "graph '" + spec.name + "': network index out of range for "
          "scenario '" + spec.scenario + "'");
    }
    if (spec.config_index >= scenario.value().configs.size()) {
      return Status::InvalidArgument(
          "graph '" + spec.name + "': config index out of range for "
          "scenario '" + spec.scenario + "'");
    }
    EngineOptions options;
    options.cache = set->cache_.get();
    options.snapshot_budget_bytes = config.snapshot_budget_bytes;
    StatusOr<std::unique_ptr<Engine>> engine = Engine::Open(
        scenario.value().networks[spec.network_index],
        scenario.value().configs[spec.config_index], options, spec.scale);
    if (!engine.ok()) return engine.status();
    set->engines_.emplace(spec.name, std::move(engine).value());
  }
  return set;
}

const Engine* ServeEngineSet::Find(std::string_view name) const {
  const auto it = engines_.find(name);
  return it == engines_.end() ? nullptr : it->second.get();
}

std::string ExecuteServeRequest(const ServeEngineSet& engines,
                                const ServeRequest& request,
                                const std::atomic<bool>* cancel) {
  return ExecuteInternal(engines, request, cancel).line;
}

struct Server::Impl {
  ServeConfig config;
  std::unique_ptr<ServeEngineSet> engines;
  int listen_fd = -1;
  int port = 0;

  std::unique_ptr<BoundedQueue<Job>> queue;
  DeadlineWatcher deadlines;

  std::thread acceptor;
  std::vector<std::thread> workers;

  std::mutex connections_mutex;
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>>
      connections;

  bool shut_down = false;
  std::mutex shutdown_mutex;
  /// Set by Shutdown() before it shuts the listener down. Out of
  /// descriptors, accept() keeps failing with EMFILE even on a shut-down
  /// listener (it reserves the new fd first), so the retrying acceptor
  /// must learn of the shutdown from this flag.
  std::atomic<bool> stopping{false};

  void AcceptLoop() {
    while (!stopping.load(std::memory_order_acquire)) {
      // An injected accept fault models a transient kernel error
      // (EMFILE, ENOBUFS): count it and keep accepting.
      if (!CWM_FAILPOINT_STATUS("serve.accept").ok()) {
        IoErrorsCounter().Add(1);
        continue;
      }
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        // EINTR: a stray signal must not kill the acceptor (and with it
        // the whole service). ECONNABORTED: the peer gave up while
        // queued — their loss, not a listener failure.
        if (errno == EINTR || errno == ECONNABORTED) {
          IoErrorsCounter().Add(1);
          continue;
        }
        // Out of descriptors or memory: the pending connection stays in
        // the listen backlog. Give back what finished connections hold,
        // wait briefly and retry (until shutdown) instead of abandoning
        // the listener.
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          IoErrorsCounter().Add(1);
          ReapFinishedConnections();
          std::this_thread::sleep_for(kAcceptBackoff);
          continue;
        }
        return;  // listener shut down
      }
      ReapFinishedConnections();
      auto conn = std::make_shared<Connection>(fd);
      const std::lock_guard<std::mutex> lock(connections_mutex);
      connections.emplace_back(conn, std::thread([this, conn] {
                                 ReadLoop(conn);
                                 conn->reader_done.store(
                                     true, std::memory_order_release);
                               }));
    }
  }

  // Joins the readers that have exited and drops their entries, so a
  // long-lived server holds descriptors and threads only for open
  // connections. Called by the acceptor on each pass.
  void ReapFinishedConnections() {
    std::vector<std::thread> finished;
    {
      const std::lock_guard<std::mutex> lock(connections_mutex);
      const auto done = std::partition(
          connections.begin(), connections.end(), [](const auto& entry) {
            return !entry.first->reader_done.load(std::memory_order_acquire);
          });
      for (auto it = done; it != connections.end(); ++it) {
        finished.push_back(std::move(it->second));
      }
      connections.erase(done, connections.end());
    }
    for (std::thread& thread : finished) thread.join();
  }

  void ReadLoop(const std::shared_ptr<Connection>& conn) {
    std::string buffer;
    char chunk[4096];
    while (true) {
      if (!CWM_FAILPOINT_STATUS("serve.recv").ok()) {
        IoErrorsCounter().Add(1);
        continue;  // transient read fault: the connection survives
      }
      const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;  // stray signal; retry
      if (n <= 0) return;  // EOF or reset (or our shutdown)
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t pos;
      while ((pos = buffer.find('\n')) != std::string::npos) {
        std::string line = buffer.substr(0, pos);
        buffer.erase(0, pos + 1);
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        HandleLine(conn, line);
      }
      if (buffer.size() > kMaxLineBytes) {
        conn->WriteLine(FormatServeError(
            "", ServeErrorCode::kInvalidArgument, "request line too long"));
        return;
      }
    }
  }

  void HandleLine(const std::shared_ptr<Connection>& conn,
                  std::string_view line) {
    RequestsCounter().Add(1);
    const auto arrival = std::chrono::steady_clock::now();

    StatusOr<ServeRequest> parsed = ParseServeRequest(line);
    if (!parsed.ok()) {
      ErrorsCounter().Add(1);
      conn->WriteLine(FormatServeError(
          "", ServeErrorCodeOf(parsed.status(), false),
          parsed.status().message()));
      return;
    }

    Job job;
    job.request = std::move(parsed).value();
    job.conn = conn;
    job.arrival = arrival;
    if (job.request.deadline_ms > 0) {
      job.cancel = std::make_shared<std::atomic<bool>>(false);
      deadlines.Arm(
          arrival + std::chrono::milliseconds(job.request.deadline_ms),
          job.cancel);
    }

    // Admission control: the bounded queue is the only buffering. A full
    // queue rejects fast with a structured error rather than queueing
    // unboundedly.
    const std::string id = job.request.id;
    // The injected queue fault models admission pressure: the client
    // gets the same structured overloaded error a real full queue sends.
    const bool pushed = CWM_FAILPOINT_STATUS("serve.queue_push").ok() &&
                        queue->TryPush(std::move(job));
    if (!pushed) {
      RejectedCounter().Add(1);
      const ServeErrorCode code = queue->closed()
                                      ? ServeErrorCode::kCancelled
                                      : ServeErrorCode::kOverloaded;
      conn->WriteLine(FormatServeError(
          id, code,
          code == ServeErrorCode::kOverloaded
              ? "request queue full; retry with backoff"
              : "server shutting down"));
      return;
    }
    QueueDepthGauge().Set(static_cast<double>(queue->depth()));
  }

  void WorkerLoop() {
    while (std::optional<Job> job = queue->PopBlocking()) {
      QueueDepthGauge().Set(static_cast<double>(queue->depth()));
      ExecOutcome outcome;
      if (job->cancel != nullptr &&
          job->cancel->load(std::memory_order_acquire)) {
        // Deadline passed while queued: don't start work we must discard.
        outcome = ErrorOutcome(job->request,
                               ServeErrorCode::kDeadlineExceeded,
                               "deadline expired before execution");
      } else {
        outcome =
            ExecuteInternal(*engines, job->request, job->cancel.get());
      }
      if (outcome.ok) {
        ResponsesCounter().Add(1);
      } else if (outcome.code == ServeErrorCode::kDeadlineExceeded) {
        DeadlineExceededCounter().Add(1);
      } else {
        ErrorsCounter().Add(1);
      }
      job->conn->WriteLine(outcome.line);
      RequestSecondsHistogram().Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        job->arrival)
              .count());
    }
  }

  void Shutdown() {
    {
      const std::lock_guard<std::mutex> lock(shutdown_mutex);
      if (shut_down) return;
      shut_down = true;
    }
    // 1. Stop accepting: flag the acceptor, wake the blocked accept() and
    //    join the acceptor. The fd closes only after the join, so a
    //    retrying acceptor never calls accept() on a descriptor number
    //    reused elsewhere.
    stopping.store(true, std::memory_order_release);
    ::shutdown(listen_fd, SHUT_RDWR);
    if (acceptor.joinable()) acceptor.join();
    ::close(listen_fd);
    // 2. Unblock every reader (they enqueue what they already read, then
    //    exit on EOF) and join them.
    {
      const std::lock_guard<std::mutex> lock(connections_mutex);
      for (auto& [conn, thread] : connections) {
        ::shutdown(conn->fd, SHUT_RD);
      }
    }
    // Joining outside the lock would race new entries, but the acceptor
    // is already joined, so the vector is frozen.
    for (auto& [conn, thread] : connections) {
      if (thread.joinable()) thread.join();
    }
    // 3. Close the queue: accepted requests drain through the workers
    //    (responses still go out — the graceful part), then workers exit.
    queue->Close();
    for (std::thread& worker : workers) {
      if (worker.joinable()) worker.join();
    }
    // 4. Deadlines last: they must keep firing while the drain runs.
    deadlines.Stop();
  }
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Server::~Server() {
  if (impl_ != nullptr) impl_->Shutdown();
}

int Server::port() const { return impl_->port; }

void Server::Shutdown() { impl_->Shutdown(); }

StatusOr<std::unique_ptr<Server>> Server::Start(ServeConfig config) {
  if (Status valid = config.Validate(); !valid.ok()) return valid;

  auto impl = std::make_unique<Impl>();
  StatusOr<std::unique_ptr<ServeEngineSet>> engines =
      ServeEngineSet::Load(config);
  if (!engines.ok()) return engines.status();
  impl->engines = std::move(engines).value();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket() failed");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(config.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    ::close(fd);
    return Status::IOError("bind() failed on port " +
                           std::to_string(config.port));
  }
  if (::listen(fd, 128) < 0) {
    ::close(fd);
    return Status::IOError("listen() failed");
  }
  socklen_t addr_len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) <
      0) {
    ::close(fd);
    return Status::IOError("getsockname() failed");
  }

  impl->listen_fd = fd;
  impl->port = static_cast<int>(ntohs(addr.sin_port));
  impl->queue = std::make_unique<BoundedQueue<Job>>(config.queue_capacity);

  const unsigned worker_count =
      config.workers > 0
          ? config.workers
          : std::max(1u, std::thread::hardware_concurrency());
  impl->config = std::move(config);

  Impl* raw = impl.get();
  impl->acceptor = std::thread([raw] { raw->AcceptLoop(); });
  impl->workers.reserve(worker_count);
  for (unsigned i = 0; i < worker_count; ++i) {
    impl->workers.emplace_back([raw] { raw->WorkerLoop(); });
  }

  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

}  // namespace cwm
