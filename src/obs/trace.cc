#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>

#include "support/check.h"
#include "support/json.h"

namespace cwm {

namespace {

/// Appends one arg's value. Names and string values are expected to be
/// plain identifiers, but a stray quote must not corrupt the file, so
/// both go through the escaping writer.
void AppendArgValue(std::string* out, const TraceArg& arg) {
  switch (arg.kind) {
    case TraceArg::Kind::kNone:
      *out += "null";
      return;
    case TraceArg::Kind::kInt:
      AppendJsonNumber(out, arg.int_value);
      return;
    case TraceArg::Kind::kUint:
      AppendJsonNumber(out, arg.uint_value);
      return;
    case TraceArg::Kind::kDouble:
      AppendJsonNumber(out, arg.double_value);
      return;
    case TraceArg::Kind::kBool:
      *out += arg.bool_value ? "true" : "false";
      return;
    case TraceArg::Kind::kString:
      AppendJsonString(out, arg.string_value != nullptr ? arg.string_value
                                                        : "");
      return;
  }
}

}  // namespace

std::atomic<TraceRecorder*> TraceRecorder::current_{nullptr};

namespace {

uint64_t NextGeneration() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

TraceRecorder::TraceRecorder(TraceRecorderOptions options)
    : options_(options), generation_(NextGeneration()) {}

TraceRecorder::~TraceRecorder() {
  TraceRecorder* expected = this;
  current_.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
}

void TraceRecorder::Install() {
  TraceRecorder* expected = nullptr;
  const bool installed = current_.compare_exchange_strong(
      expected, this, std::memory_order_acq_rel);
  CWM_CHECK_MSG(installed || expected == this,
                "another TraceRecorder is already installed");
}

void TraceRecorder::Uninstall() {
  TraceRecorder* expected = this;
  current_.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
}

TraceRecorder::ThreadBuffer* TraceRecorder::RegisterThread() {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->tid = static_cast<uint32_t>(buffers_.size() + 1);
  buffers_.push_back(std::move(buffer));
  return buffers_.back().get();
}

void TraceRecorder::Record(const TraceEvent& event) {
  // The (generation, buffer) pair caches this thread's registration: a
  // mismatch means this recorder has never seen this thread (or the
  // thread last recorded into a different recorder) and re-registers.
  thread_local uint64_t cached_generation = 0;
  thread_local ThreadBuffer* cached_buffer = nullptr;
  if (cached_generation != generation_) {
    cached_buffer = RegisterThread();
    cached_generation = generation_;
  }
  if (cached_buffer->events.size() >= options_.max_events_per_thread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  cached_buffer->events.push_back(event);
  cached_buffer->events.back().tid = cached_buffer->tid;
}

std::vector<TraceEvent> TraceRecorder::snapshot_events() const {
  std::vector<TraceEvent> merged;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const auto& buffer : buffers_) total += buffer->events.size();
    merged.reserve(total);
    for (const auto& buffer : buffers_) {
      merged.insert(merged.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return merged;
}

void TraceRecorder::WriteChromeJson(std::ostream& out) const {
  const std::vector<TraceEvent> events = snapshot_events();
  // Timestamps are steady-clock epoch-relative; rebase to the earliest
  // event so the viewer's time axis starts near zero.
  const uint64_t base_ns = events.empty() ? 0 : events.front().ts_ns;

  std::string line;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    line.clear();
    if (!first) line += ",";
    first = false;
    line += "\n{\"name\":";
    AppendJsonString(&line, event.name != nullptr ? event.name : "");
    line += ",\"cat\":\"cwm\",\"ph\":\"";
    line += event.ph;
    line += "\",\"pid\":1,\"tid\":";
    line += std::to_string(event.tid);
    // Chrome trace timestamps are microseconds (fractional allowed).
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f",
                  static_cast<double>(event.ts_ns - base_ns) / 1e3);
    line += buf;
    if (event.ph == 'X') {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                    static_cast<double>(event.dur_ns) / 1e3);
      line += buf;
    } else if (event.ph == 'i') {
      line += ",\"s\":\"t\"";  // thread-scoped instant
    }
    if (event.num_args > 0) {
      line += ",\"args\":{";
      for (uint32_t a = 0; a < event.num_args; ++a) {
        if (a > 0) line += ",";
        AppendJsonString(&line, event.args[a].key != nullptr
                                    ? event.args[a].key
                                    : "");
        line += ":";
        AppendArgValue(&line, event.args[a]);
      }
      line += "}";
    }
    line += "}";
    out << line;
  }
  out << "\n]";
  const uint64_t dropped = events_dropped();
  if (dropped > 0) {
    // Surfaced in the file itself, so a truncated trace is self-reporting.
    out << ",\"metadata\":{\"events_dropped\":" << dropped << "}";
  }
  out << "}\n";
}

void TraceInstant(const char* name, std::initializer_list<TraceArg> args) {
  TraceRecorder* recorder = TraceRecorder::Current();
  if (recorder == nullptr) return;
  TraceEvent event;
  event.name = name;
  event.ph = 'i';
  event.dur_ns = 0;
  event.num_args = 0;
  for (const TraceArg& arg : args) {
    if (event.num_args == kMaxTraceArgs) break;
    event.args[event.num_args++] = arg;
  }
  event.ts_ns = Timer::NowNanos();
  recorder->Record(event);
}

}  // namespace cwm
