// In-process tracing: RAII spans and instant events, recorded into
// per-thread buffers and flushed as Chrome trace-event JSON (loadable in
// chrome://tracing and https://ui.perfetto.dev).
//
// Usage at an instrumentation site:
//
//   CWM_TRACE_SPAN("rr.sample_era", {{"count", fresh}, {"seed", seed_}});
//   CWM_TRACE_INSTANT("api.stage", {{"stage", label}});
//
// Span and argument names follow the `<layer>.<verb>` convention
// (rr.sample_era, store.build_graph, simulate.stats_batch, api.allocate,
// scenario.task — see the README's Observability section).
//
// Cost model. Tracing is off unless a TraceRecorder is installed
// (TraceRecorder::Install, normally driven by `cwm_run --trace`). The
// disabled path is a single relaxed atomic load and a branch — no
// allocation, no clock read, no argument formatting — so instrumentation
// can live in hot loops. The enabled path appends a fixed-size event
// (two steady-clock reads per span) to a per-thread buffer without
// locking; buffers are merged into timestamp order only at flush.
//
// Constraints that make the cheap path possible:
//  * Event and argument names must be string literals or otherwise
//    outlive the recorder's flush (AlgoName(), Allocator::Name() and
//    other static-duration strings qualify). Events store the pointers.
//  * Arguments are a tagged union of cheap scalar types; at most
//    kMaxTraceArgs per event (extras are dropped).
//  * Per-thread buffers are bounded (TraceRecorderOptions); events past
//    the cap are counted in events_dropped(), never reallocated into
//    unbounded memory.
//
// Tracing is observation only: installing a recorder never changes any
// result bytes, at any thread count (enforced by tests/obs_test.cc and
// the golden-sweep gate).
#ifndef CWM_OBS_TRACE_H_
#define CWM_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "support/timer.h"

namespace cwm {

/// One key=value event attribute. Cheap scalar kinds only, so building an
/// argument list never allocates; string values must outlive the flush.
struct TraceArg {
  enum class Kind : uint8_t { kNone, kInt, kUint, kDouble, kBool, kString };

  const char* key;
  Kind kind;
  union {
    int64_t int_value;
    uint64_t uint_value;
    double double_value;
    bool bool_value;
    const char* string_value;
  };

  TraceArg() : key(nullptr), kind(Kind::kNone), int_value(0) {}
  TraceArg(const char* k, bool v)
      : key(k), kind(Kind::kBool), bool_value(v) {}
  TraceArg(const char* k, int v) : key(k), kind(Kind::kInt), int_value(v) {}
  TraceArg(const char* k, long v) : key(k), kind(Kind::kInt), int_value(v) {}
  TraceArg(const char* k, long long v)
      : key(k), kind(Kind::kInt), int_value(v) {}
  TraceArg(const char* k, unsigned v)
      : key(k), kind(Kind::kUint), uint_value(v) {}
  TraceArg(const char* k, unsigned long v)
      : key(k), kind(Kind::kUint), uint_value(v) {}
  TraceArg(const char* k, unsigned long long v)
      : key(k), kind(Kind::kUint), uint_value(v) {}
  TraceArg(const char* k, double v)
      : key(k), kind(Kind::kDouble), double_value(v) {}
  TraceArg(const char* k, const char* v)
      : key(k), kind(Kind::kString), string_value(v) {}
};

inline constexpr std::size_t kMaxTraceArgs = 4;

/// One recorded event. 'X' = complete span (ts + dur), 'i' = instant.
/// Plain data; the unused tail of `args` is never read.
struct TraceEvent {
  const char* name;
  char ph;
  uint32_t tid;
  uint64_t ts_ns;
  uint64_t dur_ns;
  uint32_t num_args;
  TraceArg args[kMaxTraceArgs];
};

/// Bounds on a recorder's memory.
struct TraceRecorderOptions {
  /// Cap per thread; events past it increment events_dropped(). The
  /// default bounds a pathological run at ~100 MB/thread.
  std::size_t max_events_per_thread = 1u << 20;
};

/// Collects events from all threads while installed. At most one
/// recorder is installed at a time; flush (snapshot_events /
/// WriteChromeJson) only after the traced work has completed — recording
/// and flushing are not synchronized against each other.
class TraceRecorder {
 public:
  explicit TraceRecorder(TraceRecorderOptions options = {});
  ~TraceRecorder();  ///< uninstalls itself if still installed

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Makes this the process-wide recorder. Aborts if another recorder is
  /// already installed (nested tracing is a bug, not a feature).
  void Install();

  /// Stops recording. Buffered events remain available for flushing.
  void Uninstall();

  /// The installed recorder, or nullptr. This is the whole disabled-path
  /// cost: one relaxed load.
  static TraceRecorder* Current() {
    return current_.load(std::memory_order_relaxed);
  }

  /// Appends an event to the calling thread's buffer (called by TraceSpan
  /// and TraceInstant, not by instrumentation sites directly).
  void Record(const TraceEvent& event);

  /// All recorded events merged across threads, in timestamp order.
  std::vector<TraceEvent> snapshot_events() const;

  /// Events discarded because a thread hit max_events_per_thread.
  uint64_t events_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Writes the Chrome trace-event JSON object ({"traceEvents":[...]}).
  void WriteChromeJson(std::ostream& out) const;

 private:
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  ThreadBuffer* RegisterThread();

  static std::atomic<TraceRecorder*> current_;

  const TraceRecorderOptions options_;
  /// Process-unique id keying the thread-local buffer cache, so a thread
  /// that outlives one recorder re-registers with the next instead of
  /// writing into freed memory.
  const uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::atomic<uint64_t> dropped_{0};
};

/// RAII complete-span ('X') scope. The constructor snapshots the start
/// time and arguments; the destructor records the event. When no
/// recorder is installed both are a pointer test.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name,
                     std::initializer_list<TraceArg> args = {})
      : recorder_(TraceRecorder::Current()) {
    if (recorder_ == nullptr) return;
    event_.name = name;
    event_.ph = 'X';
    event_.dur_ns = 0;
    event_.num_args = 0;
    for (const TraceArg& arg : args) {
      if (event_.num_args == kMaxTraceArgs) break;
      event_.args[event_.num_args++] = arg;
    }
    event_.ts_ns = Timer::NowNanos();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Adds an argument known only once the span's work has run; dropped
  /// when kMaxTraceArgs are already set.
  void AddArg(const TraceArg& arg) {
    if (recorder_ == nullptr || event_.num_args == kMaxTraceArgs) return;
    event_.args[event_.num_args++] = arg;
  }

  ~TraceSpan() {
    if (recorder_ == nullptr) return;
    // A recorder uninstalled mid-span may already be flushing: drop the
    // event rather than race the merge.
    if (TraceRecorder::Current() != recorder_) return;
    event_.dur_ns = Timer::NowNanos() - event_.ts_ns;
    recorder_->Record(event_);
  }

 private:
  TraceRecorder* const recorder_;
  TraceEvent event_;  // only initialized when recorder_ != nullptr
};

/// Records an instant ('i') event; no-op without an installed recorder.
void TraceInstant(const char* name, std::initializer_list<TraceArg> args = {});

// The macros are the instrumentation surface: a span scoped to the
// enclosing block, and a point event. Both forward verbatim, so argument
// lists with embedded commas ({{"k", v}, ...}) pass through unchanged.
#define CWM_TRACE_CONCAT_(a, b) a##b
#define CWM_TRACE_CONCAT(a, b) CWM_TRACE_CONCAT_(a, b)
#define CWM_TRACE_SPAN(...) \
  ::cwm::TraceSpan CWM_TRACE_CONCAT(cwm_trace_span_, __LINE__)(__VA_ARGS__)
#define CWM_TRACE_INSTANT(...) ::cwm::TraceInstant(__VA_ARGS__)

}  // namespace cwm

#endif  // CWM_OBS_TRACE_H_
