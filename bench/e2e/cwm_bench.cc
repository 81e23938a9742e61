// cwm_bench — one workload of the end-to-end benchmark per process.
//
//   cwm_bench --workload NAME --seed S --seconds T --trace 0|1 --work DIR
//             [--rows FILE]
//
// Workloads (README.md next to this file says why each was chosen):
//   fig3-sweep     Fig 3 runtime sweep: all six algorithms, cold RR cache
//   fig6d-cold-rr  Fig 6(d) scaling sweep: SeqGRD-NM on Orkut-like BFS
//                  subgraphs, cold RR cache
//   serve-hot      in-process Server over loopback TCP: open-loop Poisson
//                  segments alternating with closed-loop bursts, hot
//                  (algo, seed) set
//   engine-churn   Engine::ApplyDelta churn steps, each followed by three
//                  allocations
//
// The harness drives the library through its public entry points only
// (NetworkSpec::Build, RunSweep, Engine, Server, ExecuteServeRequest) and
// prints one JSON object of raw measurements on stdout; run.py turns it
// into named metrics. Every generated input derives from --seed. Each
// workload sets up repeatedly (setup_s is the median), then repeats its
// unit of work until --seconds have passed, then checks its outputs
// against an oracle. With --trace 1 the set-ups and every other unit run
// under an obs::TraceRecorder, and each harness call sits in a
// `bench.<layer>.<verb>` span; span self times (child spans subtracted,
// per thread, summed over threads) are reported per set-up and per unit.
// --work is a scratch directory the harness owns (artifact caches).
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "scenario/sink.h"
#include "scenario/sweep.h"
#include "serve/config.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/rng.h"

namespace cwm {
namespace {

namespace fs = std::filesystem;

// Load is sized for a 4-core machine: sweeps run 4 task threads with one
// RR thread each, the server runs 4 workers, and the client keeps 4
// connections with one sender and one receiver thread.
constexpr unsigned kThreads = 4;
// Set-ups per run: at least kSetups, repeated for at least
// kMinSetupSeconds so a millisecond set-up still gets a steady median.
constexpr int kSetups = 3;
constexpr double kMinSetupSeconds = 1.0;
// Units of work every run measures, however short --seconds is.
constexpr int kMinUnits = 2;

// ---------------------------------------------------------------------
// Process measurements.
// ---------------------------------------------------------------------

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (every thread).
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set size (VmHWM) since the last ResetPeakRss, in MiB.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Returns memory that earlier units freed to the OS and restarts the
/// peak-RSS count, so a unit's peak is its own working set rather than
/// what the allocator kept from the units before it (which depends on
/// thread interleaving, not on the program). Where the kernel refuses the
/// reset, the peak stays the process's peak so far.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Heap bytes the process has allocated and not freed, in MiB.
double HeapInUseMiB() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "cwm_bench: %s\n", message.c_str());
  std::exit(2);
}

template <typename T>
T Must(StatusOr<T> value, const std::string& what) {
  if (!value.ok()) Die(what + ": " + value.status().ToString());
  return std::move(value).value();
}

void MustOk(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::string FreshDir(const fs::path& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) Die("cannot create " + dir.string() + ": " + ec.message());
  return dir.string();
}

// ---------------------------------------------------------------------
// Output: a few JSON helpers over serve/json.h's escaping writer.
// ---------------------------------------------------------------------

using Fields = std::vector<std::pair<std::string, std::string>>;

std::string Num(double value) {
  std::string out;
  AppendJsonNumber(&out, value);
  return out;
}

std::string Str(std::string_view text) {
  std::string out;
  AppendJsonString(&out, text);
  return out;
}

std::string Arr(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += Num(values[i]);
  }
  return out + "]";
}

std::string Obj(const Fields& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ',';
    AppendJsonString(&out, fields[i].first);
    out += ':';
    out += fields[i].second;
  }
  return out + "}";
}

// ---------------------------------------------------------------------
// Tracing: two recorders (set-up and timed phase) and a self-time
// aggregation over their events.
// ---------------------------------------------------------------------

/// Installs `recorder` (when non-null) for the scope.
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceRecorder* recorder) : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Install();
  }
  ~ScopedTrace() {
    if (recorder_ != nullptr) recorder_->Uninstall();
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceRecorder* const recorder_;
};

struct SpanTotals {
  double self_s = 0.0;   ///< duration minus direct child spans
  double total_s = 0.0;  ///< duration
  double count = 0.0;   ///< sum of the "count" argument (RR sets sampled)
  double worlds = 0.0;  ///< sum of the "worlds" argument
};

struct TraceTotals {
  std::map<std::string, SpanTotals> spans;
  /// api.allocate duration minus its nested api.evaluate, by algorithm.
  std::map<std::string, double> algo_allocate_s;
};

const TraceArg* FindArg(const TraceEvent& event, std::string_view key) {
  for (uint32_t i = 0; i < event.num_args; ++i) {
    if (key == event.args[i].key) return &event.args[i];
  }
  return nullptr;
}

double ArgNumber(const TraceEvent& event, std::string_view key) {
  const TraceArg* arg = FindArg(event, key);
  if (arg == nullptr) return 0.0;
  switch (arg->kind) {
    case TraceArg::Kind::kInt:
      return static_cast<double>(arg->int_value);
    case TraceArg::Kind::kUint:
      return static_cast<double>(arg->uint_value);
    case TraceArg::Kind::kDouble:
      return arg->double_value;
    default:
      return 0.0;
  }
}

/// Self time per span name: spans of one thread nest (RAII scopes), so a
/// stack over each thread's spans in start order finds every span's
/// direct children.
TraceTotals Aggregate(std::vector<TraceEvent> events) {
  std::erase_if(events, [](const TraceEvent& e) { return e.ph != 'X'; });
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;  // parent before its first child
            });
  struct Open {
    const TraceEvent* event;
    uint64_t end_ns;
    uint64_t child_ns = 0;
    uint64_t evaluate_ns = 0;
  };
  TraceTotals totals;
  auto close = [&totals](const Open& open) {
    const TraceEvent& e = *open.event;
    SpanTotals& t = totals.spans[e.name];
    t.self_s += static_cast<double>(e.dur_ns - open.child_ns) * 1e-9;
    t.total_s += static_cast<double>(e.dur_ns) * 1e-9;
    t.count += ArgNumber(e, "count");
    t.worlds += ArgNumber(e, "worlds");
    if (std::string_view(e.name) == "api.allocate") {
      const TraceArg* algo = FindArg(e, "algo");
      if (algo != nullptr && algo->kind == TraceArg::Kind::kString) {
        totals.algo_allocate_s[algo->string_value] +=
            static_cast<double>(e.dur_ns - open.evaluate_ns) * 1e-9;
      }
    }
  };
  std::vector<Open> stack;
  uint32_t tid = 0;
  for (const TraceEvent& e : events) {
    if (e.tid != tid) {
      for (; !stack.empty(); stack.pop_back()) close(stack.back());
      tid = e.tid;
    }
    while (!stack.empty() && stack.back().end_ns <= e.ts_ns) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) stack.back().child_ns += e.dur_ns;
    if (std::string_view(e.name) == "api.evaluate") {
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (std::string_view(it->event->name) == "api.allocate") {
          it->evaluate_ns += e.dur_ns;
          break;
        }
      }
    }
    stack.push_back(Open{&e, e.ts_ns + e.dur_ns});
  }
  for (; !stack.empty(); stack.pop_back()) close(stack.back());
  return totals;
}

std::string TotalsJson(const TraceTotals& totals) {
  Fields spans;
  for (const auto& [name, t] : totals.spans) {
    spans.emplace_back(name, Obj({{"self_s", Num(t.self_s)},
                                  {"total_s", Num(t.total_s)},
                                  {"count", Num(t.count)},
                                  {"worlds", Num(t.worlds)}}));
  }
  Fields algos;
  for (const auto& [name, s] : totals.algo_allocate_s) {
    algos.emplace_back(name, Num(s));
  }
  return Obj({{"spans", Obj(spans)}, {"algo_allocate_s", Obj(algos)}});
}

// ---------------------------------------------------------------------
// What one run measured.
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work;
  std::string rows_path;
};

struct Report {
  std::vector<double> setup_s;
  std::vector<double> open_graph_s;  ///< warm NetworkSpec::Build per set-up
  std::vector<double> unit_wall_s;   ///< untraced units only
  std::vector<double> unit_cpu_s;    ///< untraced units only
  std::vector<double> latency_ms;
  std::vector<double> unit_peak_rss_mb;  ///< every unit's own peak
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Fields checks;  ///< name -> true/false
  /// Harness-measured per-layer values (counts, ratios).
  Fields layer;
  /// Registry counters over the timed phase, and the units it ran.
  std::map<std::string, uint64_t> counters;
  double units = 0.0;

  // Trace mode.
  TraceRecorder setup_recorder;
  TraceRecorder timed_recorder;
  double traced_units = 0.0;
  std::vector<double> traced_wall_s;  ///< traced units' walls
  /// Spans whose duration is a worker's busy time, and workers x traced
  /// wall: idle_frac = 1 - busy / capacity.
  std::vector<std::string> busy_spans;
  double capacity_s = 0.0;

  void Check(const std::string& name, bool ok) {
    checks.emplace_back(name, ok ? "true" : "false");
    if (!ok) {
      std::fprintf(stderr, "cwm_bench: check failed: %s\n", name.c_str());
    }
  }
};

std::map<std::string, uint64_t> CounterValues() {
  std::map<std::string, uint64_t> values;
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const auto& [name, value] : snapshot.counters) values[name] = value;
  return values;
}

std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before) {
  std::map<std::string, uint64_t> delta = CounterValues();
  for (auto& [name, value] : delta) {
    const auto it = before.find(name);
    if (it != before.end()) value -= it->second;
  }
  return delta;
}

/// Records one unit of work, which began with ResetPeakRss: untraced
/// units feed wall_s/cpu_s, traced ones the tracing-overhead comparison.
void AddUnit(Report* report, bool traced, double wall, double cpu) {
  report->units += 1;
  report->unit_peak_rss_mb.push_back(PeakRssMiB());
  if (traced) {
    report->traced_units += 1;
    report->traced_wall_s.push_back(wall);
  } else {
    report->unit_wall_s.push_back(wall);
    report->unit_cpu_s.push_back(cpu);
  }
}

std::string ReportJson(const Args& args, Report& report) {
  Fields counters;
  for (const auto& [name, value] : report.counters) {
    counters.emplace_back(name, Num(static_cast<double>(value)));
  }
  Fields out = {
      {"workload", Str(args.workload)},
      {"seed", Num(static_cast<double>(args.seed))},
      {"setup_s", Arr(report.setup_s)},
      {"open_graph_s", Arr(report.open_graph_s)},
      {"unit_wall_s", Arr(report.unit_wall_s)},
      {"unit_cpu_s", Arr(report.unit_cpu_s)},
      {"latency_ms", Arr(report.latency_ms)},
      {"unit_peak_rss_mb", Arr(report.unit_peak_rss_mb)},
      {"attempted", Num(static_cast<double>(report.attempted))},
      {"failed", Num(static_cast<double>(report.failed))},
      {"checks", Obj(report.checks)},
      {"layer", Obj(report.layer)},
      {"counters", Obj(counters)},
      {"units", Num(report.units)},
  };
  if (args.trace) {
    const TraceTotals timed =
        Aggregate(report.timed_recorder.snapshot_events());
    double busy_s = 0.0;
    for (const std::string& name : report.busy_spans) {
      const auto it = timed.spans.find(name);
      if (it != timed.spans.end()) busy_s += it->second.total_s;
    }
    out.emplace_back(
        "trace",
        Obj({{"setups", Num(static_cast<double>(report.setup_s.size()))},
             {"units", Num(report.traced_units)},
             {"traced_wall_s", Arr(report.traced_wall_s)},
             {"idle_frac", Num(report.capacity_s > 0
                                   ? 1.0 - busy_s / report.capacity_s
                                   : 0.0)},
             {"setup", TotalsJson(Aggregate(
                           report.setup_recorder.snapshot_events()))},
             {"timed", TotalsJson(timed)}}));
  }
  return Obj(out);
}

TraceRecorder* SetupRecorder(const Args& args, Report* report) {
  return args.trace ? &report->setup_recorder : nullptr;
}

/// Every other unit is traced in trace mode (the rest measure overhead).
TraceRecorder* UnitRecorder(const Args& args, Report* report, int unit) {
  return args.trace && unit % 2 == 1 ? &report->timed_recorder : nullptr;
}

uint64_t DerivedSeed(uint64_t seed, uint64_t tag) {
  // Small positive values keep result rows and request lines readable.
  return 1 + MixHash(seed, tag) % 1000000;
}

// ---------------------------------------------------------------------
// Sweeps: fig3-sweep and fig6d-cold-rr.
// ---------------------------------------------------------------------

constexpr uint64_t kSweepSeedTag = 0x5EED;

// Two sweep seeds per unit average the seed-to-seed variation of task
// times, so a unit's cost barely depends on --seed.
constexpr int kSweepSeeds = 2;

ScenarioSpec RegistrySpec(const char* name) {
  return Must(GlobalScenarioRegistry().Find(name), "scenario");
}

/// Fig 3(a): fig3-runtime's six algorithms on its first network
/// (NetHEPT-like, the one where the slow gate lets greedyWM and Balance-C
/// run), with budgets and world counts cut so one sweep takes ~2 s.
ScenarioSpec Fig3Spec(uint64_t seed) {
  ScenarioSpec spec = RegistrySpec("fig3-runtime");
  spec.networks.resize(1);
  spec.budget_points = {{5}, {10}, {15}};
  spec.sims = 30;
  spec.eval_sims = 60;
  spec.seeds.clear();
  for (int i = 0; i < kSweepSeeds; ++i) {
    spec.seeds.push_back(DerivedSeed(seed, kSweepSeedTag + i));
  }
  return spec;
}

/// fig6d-scaling as registered (six Orkut-like BFS subgraphs, weighted
/// cascade and p = 0.01, SeqGRD-NM at budget 50) on a scaled-down Orkut.
ScenarioSpec Fig6dSpec(uint64_t seed) {
  ScenarioSpec spec = RegistrySpec("fig6d-scaling");
  spec.sims = 20;
  spec.eval_sims = 40;
  spec.seeds.clear();
  for (int i = 0; i < kSweepSeeds; ++i) {
    spec.seeds.push_back(DerivedSeed(seed, kSweepSeedTag + i));
  }
  return spec;
}

void RunSweepWorkload(const ScenarioSpec& spec, double scale,
                      const Args& args, Report* report) {
  // Set-up: build every network image into a fresh artifact cache.
  std::string cache_dir;
  const double setup_deadline = Now() + kMinSetupSeconds;
  for (int i = 0; i < kSetups || Now() < setup_deadline; ++i) {
    if (!cache_dir.empty()) fs::remove_all(cache_dir);
    cache_dir = FreshDir(args.work / ("cache-" + std::to_string(i)));
    ResetPeakRss();
    ScopedTrace trace(SetupRecorder(args, report));
    const double t0 = Now();
    std::unique_ptr<ArtifactCache> cache =
        Must(ArtifactCache::Open(cache_dir), "open cache");
    {
      CWM_TRACE_SPAN("bench.store.build_graphs");
      for (const NetworkSpec& net : spec.networks) {
        Must(net.Build(scale, cache.get()), "build " + net.Label());
      }
    }
    report->setup_s.push_back(Now() - t0);
    const double t1 = Now();
    {
      CWM_TRACE_SPAN("bench.store.open_graphs");
      for (const NetworkSpec& net : spec.networks) {
        Must(net.Build(scale, cache.get()), "open " + net.Label());
      }
    }
    report->open_graph_s.push_back(Now() - t1);
  }

  SweepOptions options;
  options.num_threads = kThreads;
  options.rr_threads = 1;
  options.scale = scale;
  options.cache_dir = cache_dir;
  // Gated rows (the slow baselines outside the spec's gate) are skipped
  // by design; every other skipped row is a failure.
  const std::vector<ScenarioTask> grid = ExpandGrid(spec, false);

  // Timed phase: cold-RR sweeps (graph images stay warm) until --seconds.
  // Each task's times over the sweeps, by task index. The grid's tasks
  // differ in cost by up to 20x, so a percentile over every sample lands
  // on the edge between two tasks and reads one task's slowest sweep or
  // the other's fastest; percentiles over each task's median do not.
  std::map<std::size_t, std::vector<double>> task_ms;
  std::vector<std::string> first_rows;
  bool rows_repeat = true;
  const auto counters_before = CounterValues();
  const double deadline = Now() + args.seconds;
  for (int unit = 0; unit < kMinUnits || Now() < deadline; ++unit) {
    fs::remove_all(fs::path(cache_dir) / "rr");
    ResetPeakRss();
    TraceRecorder* recorder = UnitRecorder(args, report, unit);
    ScopedTrace trace(recorder);
    const double c0 = CpuSeconds();
    const double t0 = Now();
    StatusOr<SweepResult> result = [&] {
      CWM_TRACE_SPAN("bench.scenario.sweep");
      return RunSweep(spec, options);
    }();
    const double wall = Now() - t0;
    AddUnit(report, recorder != nullptr, wall, CpuSeconds() - c0);
    if (recorder != nullptr) report->capacity_s += kThreads * wall;
    if (!result.ok()) Die("sweep: " + result.status().ToString());

    std::vector<std::string> rows;
    for (const TaskResult& row : result.value().rows) {
      rows.push_back(TaskResultToJson(row));
      if (grid[row.task_index].gated) continue;
      report->attempted += 1;
      if (row.skipped) {
        report->failed += 1;
      } else {
        task_ms[row.task_index].push_back(row.seconds * 1e3);
      }
    }
    if (first_rows.empty()) {
      first_rows = std::move(rows);
    } else if (rows != first_rows) {
      rows_repeat = false;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (r >= first_rows.size() || rows[r] != first_rows[r]) {
          report->failed += 1;
        }
      }
    }
  }
  report->counters = CounterDelta(counters_before);
  report->Check("rows_repeat", rows_repeat);
  for (const auto& [task, ms] : task_ms) {
    report->latency_ms.push_back(Median(ms));
  }

  report->busy_spans = {"scenario.task"};
  if (!args.rows_path.empty()) {
    std::ofstream out(args.rows_path);
    out << SpecToJson(spec) << '\n';
    for (const std::string& row : first_rows) out << row << '\n';
    if (!out) Die("cannot write " + args.rows_path);
  }
}

// ---------------------------------------------------------------------
// serve-hot: an in-process Server over loopback TCP.
// ---------------------------------------------------------------------

constexpr const char* kServeAlgos[] = {"SeqGRD-NM", "SeqGRD", "MaxGRD"};
constexpr int kHotSeeds = 4;
constexpr int kServeBudget = 10;
// Open-loop segments send Poisson arrivals at about a third of the
// closed-loop capacity (~50 req/s on 4 cores), so latency is service time
// plus light queueing.
constexpr double kOpenLoopRate = 16.0;
constexpr uint64_t kServeMixTag = 0x5E12;
constexpr uint64_t kHotSeedTag = 0x407;
// A reply slower than this is a hung server, not a slow one.
constexpr double kReplyTimeoutS = 60.0;

struct ServeCall {
  int key = 0;       ///< distinct (algo, seed) index
  std::string line;  ///< request line, no newline
  double due = 0.0;  ///< scheduled send time (open loop)
  double sent = 0.0;
  double done = 0.0;
  std::string response;
};

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    Die("connect() to the in-process server failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// The client's connections, closed on destruction.
struct Connections {
  explicit Connections(int port) {
    for (unsigned i = 0; i < kThreads; ++i) {
      fds.push_back(ConnectLoopback(port));
    }
  }
  ~Connections() {
    for (int fd : fds) ::close(fd);
  }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  std::vector<int> fds;
};

void SendLine(int fd, const std::string& line) {
  const std::string framed = line + '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) Die("send() to the in-process server failed");
    sent += static_cast<std::size_t>(n);
  }
}

/// Index of a call from its response's "id" ("q<index>"), or -1.
long CallIndex(const std::string& response) {
  StatusOr<JsonValue> parsed = ParseJson(response);
  if (!parsed.ok()) return -1;
  const JsonValue* id = parsed.value().Find("id");
  if (id == nullptr || !id->IsString() || id->string.size() < 2 ||
      id->string[0] != 'q') {
    return -1;
  }
  return std::strtol(id->string.c_str() + 1, nullptr, 10);
}

/// Reads reply lines from every connection until `calls` are all answered
/// (or a reply is overdue); `on_reply(call, fd)` runs for each. Returns
/// the number of calls answered.
template <typename OnReply>
std::size_t ReceiveReplies(const std::vector<int>& fds,
                           std::vector<ServeCall>* calls, OnReply on_reply) {
  std::vector<pollfd> polls;
  for (int fd : fds) polls.push_back({fd, POLLIN, 0});
  std::vector<std::string> buffers(fds.size());
  std::size_t answered = 0;
  double last_progress = Now();
  char chunk[65536];
  while (answered < calls->size()) {
    if (Now() - last_progress > kReplyTimeoutS) break;
    if (::poll(polls.data(), polls.size(), 100) <= 0) continue;
    for (std::size_t c = 0; c < polls.size(); ++c) {
      if ((polls[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::recv(fds[c], chunk, sizeof chunk, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return answered;  // the server hung up
      }
      buffers[c].append(chunk, static_cast<std::size_t>(n));
      std::size_t pos;
      while ((pos = buffers[c].find('\n')) != std::string::npos) {
        std::string line = buffers[c].substr(0, pos);
        buffers[c].erase(0, pos + 1);
        const long index = CallIndex(line);
        if (index < 0 || static_cast<std::size_t>(index) >= calls->size()) {
          continue;  // unmatched reply: its call stays unanswered
        }
        ServeCall& call = (*calls)[static_cast<std::size_t>(index)];
        call.done = Now();
        call.response = std::move(line);
        answered += 1;
        last_progress = call.done;
        on_reply(call, fds[c]);
      }
    }
  }
  return answered;
}

/// Open loop: this thread sends every call at its due time, regardless of
/// replies; one receiver thread collects them. Returns calls answered.
std::size_t RunOpenLoop(const Connections& conns,
                        std::vector<ServeCall>* calls) {
  std::size_t answered = 0;
  std::thread receiver([&] {
    answered = ReceiveReplies(conns.fds, calls, [](ServeCall&, int) {});
  });
  for (std::size_t k = 0; k < calls->size(); ++k) {
    ServeCall& call = (*calls)[k];
    const double wait = call.due - Now();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    call.sent = Now();
    SendLine(conns.fds[k % conns.fds.size()], call.line);
  }
  receiver.join();
  return answered;
}

/// Closed loop: each connection keeps one call outstanding and sends its
/// next call as soon as a reply arrives. Returns calls answered.
std::size_t RunClosedLoop(const Connections& conns,
                          std::vector<ServeCall>* calls) {
  std::size_t next = 0;
  for (int fd : conns.fds) {
    if (next == calls->size()) break;
    ServeCall& call = (*calls)[next++];
    call.due = call.sent = Now();
    SendLine(fd, call.line);
  }
  return ReceiveReplies(conns.fds, calls, [&](ServeCall&, int fd) {
    if (next == calls->size()) return;
    ServeCall& call = (*calls)[next++];
    call.due = call.sent = Now();
    SendLine(fd, call.line);
  });
}

/// Equality of two replies ignoring "id", "degraded" and every
/// "*_seconds" timing field.
bool SameReply(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case JsonValue::Kind::kNull:
      return true;
    case JsonValue::Kind::kBool:
      return a.bool_value == b.bool_value;
    case JsonValue::Kind::kNumber:
      return a.number == b.number;
    case JsonValue::Kind::kString:
      return a.string == b.string;
    case JsonValue::Kind::kArray:
      if (a.array.size() != b.array.size()) return false;
      for (std::size_t i = 0; i < a.array.size(); ++i) {
        if (!SameReply(a.array[i], b.array[i])) return false;
      }
      return true;
    case JsonValue::Kind::kObject: {
      auto kept = [](const JsonValue& v) {
        std::vector<const std::pair<std::string, JsonValue>*> out;
        for (const auto& member : v.object) {
          const std::string& key = member.first;
          const bool timing =
              key.size() > 8 &&
              key.compare(key.size() - 8, 8, "_seconds") == 0;
          if (key != "id" && key != "degraded" && !timing) {
            out.push_back(&member);
          }
        }
        return out;
      };
      const auto ka = kept(a);
      const auto kb = kept(b);
      if (ka.size() != kb.size()) return false;
      for (std::size_t i = 0; i < ka.size(); ++i) {
        if (ka[i]->first != kb[i]->first ||
            !SameReply(ka[i]->second, kb[i]->second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

/// Allocate + evaluate seconds a reply reports (its service time).
double ServiceSeconds(const std::string& response) {
  StatusOr<JsonValue> parsed = ParseJson(response);
  if (!parsed.ok()) return 0.0;
  const JsonValue* results = parsed.value().Find("results");
  if (results == nullptr || !results->IsArray()) return 0.0;
  double seconds = 0.0;
  for (const JsonValue& point : results->array) {
    for (const char* key : {"allocate_seconds", "evaluate_seconds"}) {
      const JsonValue* v = point.Find(key);
      if (v != nullptr && v->IsNumber()) seconds += v->number;
    }
  }
  return seconds;
}

void RunServe(const Args& args, Report* report) {
  const ScenarioSpec fig4 = RegistrySpec("fig4-welfare");
  ServeConfig config;
  config.workers = kThreads;
  config.queue_capacity = 256;
  // A world-pool budget the whole hot set fits in, so timed requests only
  // read pooled worlds. Under the 256 MiB default every pool this mix
  // builds is later evicted and rebuilt, and RSS and latency then follow
  // the eviction order rather than the program.
  config.snapshot_budget_bytes = std::size_t{1024} << 20;
  config.graphs = {{.name = "movie", .scenario = "fig4-welfare"}};

  // The hot set: every (algorithm, seed) pair is one distinct request.
  std::vector<std::string> key_lines;
  for (const char* algo : kServeAlgos) {
    for (int s = 0; s < kHotSeeds; ++s) {
      key_lines.push_back(
          std::string("\"graph\":\"movie\",\"algo\":\"") + algo +
          "\",\"budgets\":[" + std::to_string(kServeBudget) +
          "],\"seed\":" +
          std::to_string(DerivedSeed(args.seed, kHotSeedTag + s)) + "}");
    }
  }
  // Replies are matched to calls by id: "q<index in its batch>".
  auto make_call = [&](std::size_t index, int key) {
    ServeCall call;
    call.key = key;
    call.line = "{\"id\":\"q" + std::to_string(index) + "\"," +
                key_lines[static_cast<std::size_t>(key)];
    return call;
  };
  // Every batch of timed requests (an open-loop segment or a burst) is the
  // hot set twice, each copy in a seeded shuffle, so every batch carries
  // the same work however the draws fall.
  Rng mix(MixHash(args.seed, kServeMixTag));
  auto deal = [&] {
    std::vector<ServeCall> calls;
    for (int copy = 0; copy < 2; ++copy) {
      std::vector<int> keys(key_lines.size());
      std::iota(keys.begin(), keys.end(), 0);
      for (std::size_t k = keys.size() - 1; k > 0; --k) {
        std::swap(keys[k], keys[mix.NextBounded(k + 1)]);
      }
      for (int key : keys) calls.push_back(make_call(calls.size(), key));
    }
    return calls;
  };

  // Set-up: start a server on a fresh cache and warm every hot pair.
  std::unique_ptr<Server> server;
  std::string cache_dir;
  const double setup_deadline = Now() + kMinSetupSeconds;
  for (int i = 0; i < kSetups || Now() < setup_deadline; ++i) {
    if (server != nullptr) server->Shutdown();
    server.reset();
    if (!cache_dir.empty()) fs::remove_all(cache_dir);
    cache_dir = FreshDir(args.work / ("cache-" + std::to_string(i)));
    config.cache_dir = cache_dir;
    ResetPeakRss();
    ScopedTrace trace(SetupRecorder(args, report));
    const double t0 = Now();
    {
      CWM_TRACE_SPAN("bench.serve.start");
      server = Must(Server::Start(config), "start server");
    }
    std::vector<ServeCall> warm;
    for (std::size_t k = 0; k < key_lines.size(); ++k) {
      warm.push_back(make_call(k, static_cast<int>(k)));
    }
    {
      CWM_TRACE_SPAN("bench.serve.warm");
      Connections conns(server->port());
      if (RunClosedLoop(conns, &warm) != warm.size()) {
        Die("warm-up requests went unanswered");
      }
    }
    report->setup_s.push_back(Now() - t0);
    for (const ServeCall& call : warm) {
      if (call.response.find("\"ok\":true") == std::string::npos) {
        Die("warm-up request failed: " + call.response);
      }
    }
    std::unique_ptr<ArtifactCache> cache =
        Must(ArtifactCache::Open(cache_dir), "open cache");
    const double t1 = Now();
    {
      CWM_TRACE_SPAN("bench.store.open_graphs");
      Must(fig4.networks[0].Build(1.0, cache.get()), "open graph");
    }
    report->open_graph_s.push_back(Now() - t1);
  }

  Connections conns(server->port());
  std::vector<ServeCall> all;  // every timed call, for the oracle check
  std::vector<double> latencies;
  double wait_s = 0.0;
  double latency_s = 0.0;
  uint64_t late_sends = 0;
  // Each unit is an open-loop segment followed by a closed-loop burst, so
  // latency and capacity both sample the whole run: the machine's speed
  // drifts over tens of seconds, and a phase that ran in one stretch would
  // read whichever speed that stretch had.
  const auto counters_before = CounterValues();
  const double deadline = Now() + args.seconds;
  for (int unit = 0; unit < kMinUnits || Now() < deadline; ++unit) {
    ResetPeakRss();
    TraceRecorder* recorder = UnitRecorder(args, report, unit);
    ScopedTrace trace(recorder);

    // Open loop: Poisson arrivals, latency from the due time.
    std::vector<ServeCall> open = deal();
    double due = Now() + 0.05;
    for (ServeCall& call : open) {
      due += -std::log(1.0 - mix.NextDouble()) / kOpenLoopRate;
      call.due = due;
    }
    const double t_open = Now();
    {
      CWM_TRACE_SPAN("bench.serve.open_loop");
      RunOpenLoop(conns, &open);
    }
    const double open_wall = Now() - t_open;
    for (const ServeCall& call : open) {
      if (call.sent - call.due > 1e-3) late_sends += 1;
      if (call.done == 0.0) continue;  // unanswered: counted below
      const double latency = call.done - call.due;
      latencies.push_back(latency * 1e3);
      latency_s += latency;
      wait_s += std::max(0.0, latency - ServiceSeconds(call.response));
    }

    // Closed loop: a burst at saturation (capacity; wall_s and cpu_s).
    std::vector<ServeCall> burst = deal();
    const double c0 = CpuSeconds();
    const double t0 = Now();
    {
      CWM_TRACE_SPAN("bench.serve.burst");
      RunClosedLoop(conns, &burst);
    }
    const double wall = Now() - t0;
    AddUnit(report, recorder != nullptr, wall, CpuSeconds() - c0);
    // Per-layer numbers are per request.
    const double requests = static_cast<double>(open.size() + burst.size());
    report->units += requests - 1;
    if (recorder != nullptr) {
      report->traced_units += requests - 1;
      report->capacity_s += kThreads * (open_wall + wall);
    }
    for (ServeCall& call : open) all.push_back(std::move(call));
    for (ServeCall& call : burst) all.push_back(std::move(call));
  }
  report->latency_ms = latencies;
  // Backlog growth: the last quarter's median latency against the first.
  const std::size_t q = latencies.size() / 4;
  const double first = Median({latencies.begin(), latencies.begin() + q});
  const double last = Median({latencies.end() - q, latencies.end()});
  report->layer.emplace_back("serve.backlog_ratio",
                             Num(first > 0 ? last / first : 0.0));
  report->layer.emplace_back("serve.wait_share",
                             Num(latency_s > 0 ? wait_s / latency_s : 0.0));
  report->layer.emplace_back("serve.late_sends",
                             Num(static_cast<double>(late_sends)));
  report->counters = CounterDelta(counters_before);
  server->Shutdown();
  server.reset();

  report->busy_spans = {"serve.execute"};

  // Oracle: every reply equals ExecuteServeRequest's for the same request
  // on a freshly loaded engine set, timing fields stripped. It gets no
  // cache, so it samples from scratch rather than reading the server's
  // cached RR eras.
  config.cache_dir.clear();
  std::unique_ptr<ServeEngineSet> oracle =
      Must(ServeEngineSet::Load(config), "load oracle engines");
  std::vector<JsonValue> expected;
  for (const std::string& key_line : key_lines) {
    const ServeRequest request =
        Must(ParseServeRequest("{\"id\":\"oracle\"," + key_line), "parse");
    expected.push_back(Must(
        ParseJson(ExecuteServeRequest(*oracle, request, nullptr)), "oracle"));
  }
  uint64_t unanswered = 0;
  uint64_t mismatched = 0;
  for (const ServeCall& call : all) {
    report->attempted += 1;
    if (call.done == 0.0) {
      unanswered += 1;
      continue;
    }
    StatusOr<JsonValue> reply = ParseJson(call.response);
    if (!reply.ok() ||
        !SameReply(reply.value(),
                   expected[static_cast<std::size_t>(call.key)])) {
      mismatched += 1;
    }
  }
  report->failed += unanswered + mismatched;
  report->Check("replies_answered", unanswered == 0);
  report->Check("replies_match_oracle", mismatched == 0);
}

// ---------------------------------------------------------------------
// engine-churn: ApplyDelta steps, each followed by three allocations.
// ---------------------------------------------------------------------

constexpr const char* kChurnAlgos[] = {"SeqGRD-NM", "MaxGRD", "TCIM"};
constexpr int kChurnBudget = 10;
constexpr std::size_t kChurnEdits = 10;
// Each pass walks its own delta chain on a fresh engine, so peak RSS is
// that of one pass however many passes --seconds allows.
constexpr int kStepsPerPass = 8;
constexpr uint64_t kChurnSeedTag = 0xC4A2;
constexpr uint64_t kChurnDeltaTag = 0xDE17A;

AllocateRequest ChurnRequest(const Engine& engine, int algo, uint64_t seed) {
  ServeRequest request;
  request.algo = *ParseAlgo(kChurnAlgos[algo]);
  request.seed = seed;
  std::vector<ItemId> items;
  for (ItemId i = 0; i < engine.config().num_items(); ++i) items.push_back(i);
  return BuildAllocateRequest(
      request, BudgetVector(items.size(), kChurnBudget), items, nullptr);
}

/// Runs the three allocations; `latency_ms` gets each call's wall time.
std::vector<AllocateResult> ChurnAllocations(const Engine& engine,
                                             uint64_t seed,
                                             std::vector<double>* latency_ms) {
  std::vector<AllocateResult> results(std::size(kChurnAlgos));
  for (std::size_t a = 0; a < results.size(); ++a) {
    const double t0 = Now();
    CWM_TRACE_SPAN("bench.api.allocate");
    MustOk(engine.Allocate(ChurnRequest(engine, static_cast<int>(a), seed),
                           &results[a]),
           "allocate");
    if (latency_ms != nullptr) latency_ms->push_back((Now() - t0) * 1e3);
  }
  return results;
}

bool SameAllocation(const AllocateResult& a, const AllocateResult& b) {
  auto bits = [](double v) {
    uint64_t out;
    std::memcpy(&out, &v, sizeof out);
    return out;
  };
  if (a.allocation.num_items() != b.allocation.num_items()) return false;
  for (ItemId i = 0; i < a.allocation.num_items(); ++i) {
    if (a.allocation.SeedsOf(i) != b.allocation.SeedsOf(i)) return false;
  }
  if (bits(a.stats.welfare) != bits(b.stats.welfare) ||
      bits(a.stats.adopting_nodes) != bits(b.stats.adopting_nodes) ||
      a.stats.adopters_per_item.size() != b.stats.adopters_per_item.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.stats.adopters_per_item.size(); ++i) {
    if (bits(a.stats.adopters_per_item[i]) !=
        bits(b.stats.adopters_per_item[i])) {
      return false;
    }
  }
  return a.skipped == b.skipped;
}

void RunChurn(const Args& args, Report* report) {
  const ScenarioSpec fig4 = RegistrySpec("fig4-welfare");
  const NetworkSpec& network = fig4.networks[0];
  const ConfigSpec& config = fig4.configs[0];
  // Each pass allocates with its own request seed. How much of a seed's
  // RR eras a delta dirties varies widely (one seed's TCIM step reads
  // 35 ms, another's 100 ms), so a run averages over several.
  auto pass_seed = [&args](int pass) {
    return DerivedSeed(args.seed, kChurnSeedTag + pass);
  };
  uint64_t request_seed = pass_seed(0);

  // Set-up: open the engine on a fresh cache and run the allocations
  // once, so the timed steps patch warm RR eras and world pools.
  std::unique_ptr<ArtifactCache> cache;
  std::unique_ptr<Engine> engine;
  std::string cache_dir;
  const double setup_deadline = Now() + kMinSetupSeconds;
  for (int i = 0; i < kSetups || Now() < setup_deadline; ++i) {
    engine.reset();
    cache.reset();
    if (!cache_dir.empty()) fs::remove_all(cache_dir);
    cache_dir = FreshDir(args.work / ("cache-" + std::to_string(i)));
    ResetPeakRss();
    ScopedTrace trace(SetupRecorder(args, report));
    const double t0 = Now();
    cache = Must(ArtifactCache::Open(cache_dir), "open cache");
    {
      CWM_TRACE_SPAN("bench.api.open");
      engine = Must(Engine::Open(network, config, {.cache = cache.get()}),
                    "open engine");
    }
    ChurnAllocations(*engine, request_seed, nullptr);
    report->setup_s.push_back(Now() - t0);
    const double t1 = Now();
    {
      CWM_TRACE_SPAN("bench.store.open_graphs");
      Must(network.Build(1.0, cache.get()), "open graph");
    }
    report->open_graph_s.push_back(Now() - t1);
  }

  std::vector<AllocateResult> last;
  double delta_s = 0.0;
  double step_wall_s = 0.0;
  double sets_reused = 0.0;
  double sets_resampled = 0.0;
  double heap_per_delta = 0.0;
  int unit = 0;
  const double deadline = Now() + args.seconds;
  for (int pass = 0; pass == 0 || Now() < deadline; ++pass) {
    if (pass > 0) {
      // A fresh engine on the warm cache, warmed like the set-up's.
      engine.reset();
      engine = Must(Engine::Open(network, config, {.cache = cache.get()}),
                    "open engine");
      request_seed = pass_seed(pass);
      ChurnAllocations(*engine, request_seed, nullptr);
    }
    // Every pass runs at least one step, so `last` always comes from the
    // current engine's graph (the one the oracle re-runs). Counters cover
    // the steps only, not the warm-up before them.
    const auto counters_before = CounterValues();
    const double heap_before = HeapInUseMiB();
    int steps = 0;
    for (; steps < kStepsPerPass &&
           (steps == 0 || unit < kMinUnits || Now() < deadline);
         ++steps, ++unit) {
      const DeltaLog log = GenerateChurnDelta(
          engine->graph(),
          MixHash(MixHash(args.seed, kChurnDeltaTag + pass), steps),
          kChurnEdits);
      ResetPeakRss();
      TraceRecorder* recorder = UnitRecorder(args, report, unit);
      ScopedTrace trace(recorder);
      const double c0 = CpuSeconds();
      const double t0 = Now();
      ApplyDeltaResult applied;
      {
        CWM_TRACE_SPAN("bench.api.apply_delta");
        MustOk(engine->ApplyDelta(log, &applied), "apply delta");
      }
      delta_s += Now() - t0;
      last = ChurnAllocations(*engine, request_seed, &report->latency_ms);
      const double wall = Now() - t0;
      step_wall_s += wall;
      AddUnit(report, recorder != nullptr, wall, CpuSeconds() - c0);
      if (recorder != nullptr) report->capacity_s += wall;
      report->attempted += 1 + last.size();
      sets_reused += static_cast<double>(applied.rr.sets_reused);
      sets_resampled += static_cast<double>(applied.rr.sets_resampled);
    }
    if (pass == 0 && steps > 0) {
      heap_per_delta = (HeapInUseMiB() - heap_before) / steps;
    }
    for (const auto& [name, value] : CounterDelta(counters_before)) {
      report->counters[name] += value;
    }
  }

  report->layer.emplace_back(
      "delta.apply_frac", Num(step_wall_s > 0 ? delta_s / step_wall_s : 0.0));
  report->layer.emplace_back(
      "delta.set_reuse_ratio",
      Num(sets_reused + sets_resampled > 0
              ? sets_reused / (sets_reused + sets_resampled)
              : 0.0));
  report->layer.emplace_back("heap_mb_per_delta", Num(heap_per_delta));
  report->busy_spans = {"api.apply_delta", "api.allocate"};

  // Oracle: a cold engine (no cache, no pools) over the churned graph
  // must produce byte-identical allocations and welfare.
  const Engine cold(engine->graph(), engine->config());
  const std::vector<AllocateResult> expected =
      ChurnAllocations(cold, request_seed, nullptr);
  uint64_t mismatched = 0;
  for (std::size_t a = 0; a < expected.size(); ++a) {
    if (!SameAllocation(last[a], expected[a])) mismatched += 1;
  }
  report->failed += mismatched;
  report->Check("final_allocations_match_cold_engine", mismatched == 0);
}

// ---------------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--work") {
      args.work = value;
    } else if (flag == "--rows") {
      args.rows_path = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.work.empty()) {
    Die("usage: cwm_bench --workload NAME --seed S --seconds T --trace 0|1 "
        "--work DIR [--rows FILE]");
  }
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  FreshDir(args.work);
  Report report;
  if (args.workload == "fig3-sweep") {
    RunSweepWorkload(Fig3Spec(args.seed), 0.1, args, &report);
  } else if (args.workload == "fig6d-cold-rr") {
    RunSweepWorkload(Fig6dSpec(args.seed), 0.1, args, &report);
  } else if (args.workload == "serve-hot") {
    RunServe(args, &report);
  } else if (args.workload == "engine-churn") {
    RunChurn(args, &report);
  } else {
    Die("unknown workload '" + args.workload + "'");
  }
  std::printf("%s\n", ReportJson(args, report).c_str());
  return 0;
}

}  // namespace
}  // namespace cwm

int main(int argc, char** argv) { return cwm::Main(argc, argv); }
