// Unified metrics: named counters, gauges, and fixed-bucket histograms
// behind one process-wide registry, so there is one way to count things
// across layers (the `cache.*`, `pool.*`, `simulate.*`, `api.*`,
// `scenario.*` families — see the README's Observability section).
//
// The registry is the only count: no layer keeps a per-instance copy of
// these events. A per-run view (cwm_run's per-sweep `cache:` and `pools:`
// lines, a test's own cache) is the difference of counter reads taken
// before and after the run.
//
// Hot paths cache the instrument reference once and then touch a single
// relaxed atomic:
//
//   static Counter& hits =
//       MetricsRegistry::Global().GetCounter("cache.graph_hits");
//   hits.Add(1);
//
// Instruments are create-on-first-use and live for the process: Get*
// never invalidates a previously returned reference, and ResetForTest()
// zeroes values without destroying instruments, so cached references in
// function-local statics stay valid across tests.
//
// Snapshots (MetricsRegistry::Snapshot) are name-sorted value copies —
// the input to MetricsToJson (`cwm_run --metrics`) and to the stderr
// one-liners rendered through MetricsLineFormatter.
#ifndef CWM_OBS_METRICS_H_
#define CWM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cwm {

/// Monotonically increasing relaxed-atomic counter.
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. resident bytes).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations v <= bounds[i]
/// (first matching bound; inclusive upper edges), plus one overflow
/// bucket for v > bounds.back(). Bounds are fixed at registration.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 (the overflow bucket).
  std::size_t num_buckets() const { return bounds_.size() + 1; }
  uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  uint64_t total_count() const {
    return total_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  const std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::atomic<uint64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// Name-sorted value copy of every registered instrument.
struct MetricsSnapshot {
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<uint64_t> counts;  ///< bounds.size() + 1 entries
    uint64_t total_count = 0;
    double sum = 0.0;
  };

  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramValue> histograms;
};

/// The process-wide instrument registry. Thread-safe; instruments are
/// never destroyed, so returned references are stable for the process.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);
  /// The named counter's value, 0 when none is registered. Unlike
  /// GetCounter it never registers one, so a read leaves the set of
  /// instruments (and the `--metrics` dump) unchanged.
  uint64_t CounterValue(std::string_view name) const;
  Gauge& GetGauge(std::string_view name);
  /// First registration fixes the bucket bounds; later calls under the
  /// same name must pass identical bounds (aborts otherwise — two sites
  /// disagreeing on buckets is a naming bug).
  Histogram& GetHistogram(std::string_view name,
                          std::span<const double> bounds);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every instrument's value. References stay valid — tests
  /// reset between cases while hot paths keep cached instruments.
  void ResetForTest();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Records one degraded-mode event: bumps the named counter (e.g.
/// "store.degraded.heap_loads", "cache.quarantined") and the shared
/// "store.degraded.events" total the serve layer watches to mark
/// responses `degraded`. Degradations are rare by definition, so the
/// name lookup per call is fine.
void NoteDegradedEvent(const char* counter_name);

/// The shared "store.degraded.events" counter (every NoteDegradedEvent
/// bumps it); cwm_serve snapshots it around request execution.
Counter& DegradedEventsCounter();

/// Renders `snapshot` as one JSON object:
///   {"counters":{...},"gauges":{...},
///    "histograms":{"name":{"count":..,"sum":..,
///                          "buckets":[{"le":0.01,"count":..},...,
///                                     {"le":"inf","count":..}]}}}
std::string MetricsToJson(const MetricsSnapshot& snapshot);

/// Builder for the `key=value key=value; key=value` stderr telemetry
/// lines (cache stats, pool stats, phase totals): the one formatter every
/// hand-printed stats block renders through, so the lines CI greps keep
/// one canonical shape.
class MetricsLineFormatter {
 public:
  /// Appends "key=<integer>".
  MetricsLineFormatter& Count(const char* key, uint64_t value);
  /// Appends "key=<value formatted %.*f><suffix>", e.g. resident=12.3MB.
  MetricsLineFormatter& Fixed(const char* key, double value, int precision,
                              const char* suffix = "");
  /// Overrides the next separator (default " "), e.g. "; " between the
  /// graphs and rr groups of the cache line.
  MetricsLineFormatter& Sep(const char* separator);

  const std::string& str() const { return line_; }

 private:
  void BeforeField();

  std::string line_;
  const char* next_sep_ = nullptr;
};

}  // namespace cwm

#endif  // CWM_OBS_METRICS_H_
