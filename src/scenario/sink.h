// Result sinks: serialize sweep results as JSON-Lines, CSV, or aligned
// stdout tables (the bench drivers' look).
//
// Reproducibility: the JSONL/CSV writers format every float through the
// shared JSON writer (support/json.h, round-trip '%.17g') and emit rows
// in grid order. Wall-clock timing is machine noise, so file sinks omit
// it unless SinkOptions::include_timing is set; without it, two sweeps
// of the same spec + seed produce byte-identical files regardless of
// thread count.
// A JSONL file starts with one header record ({"type":"spec", ...} — the
// full scenario spec) followed by one {"type":"result", ...} record per
// grid row; skipped rows are recorded too, so row counts match the grid.
#ifndef CWM_SCENARIO_SINK_H_
#define CWM_SCENARIO_SINK_H_

#include <cstdio>
#include <iosfwd>
#include <mutex>
#include <string>

#include "scenario/sweep.h"

namespace cwm {

/// Serialization knobs shared by the file sinks.
struct SinkOptions {
  /// Include per-task wall-clock timing (seconds plus the sample_s /
  /// select_s / estimate_s phase breakdown). Off by default so result
  /// files are bit-identical across runs and thread counts.
  bool include_timing = false;
};

/// The {"type":"spec",...} header record (one line, no trailing newline).
std::string SpecToJson(const ScenarioSpec& spec);

/// One {"type":"result",...} record (one line, no trailing newline).
std::string TaskResultToJson(const TaskResult& row,
                             const SinkOptions& options = {});

/// Writes header + all rows to `out`, one JSON object per line.
void WriteJsonLines(const SweepResult& result, std::ostream& out,
                    const SinkOptions& options = {});

/// The CSV header line matching TaskResultToCsv's columns.
std::string CsvHeader();

/// One CSV row (budgets and adopters joined with ';'; the timing columns
/// — seconds, sample_s, select_s, estimate_s — are left empty unless
/// options.include_timing).
std::string TaskResultToCsv(const TaskResult& row,
                            const SinkOptions& options = {});

/// Writes CsvHeader + all rows to `out`.
void WriteCsv(const SweepResult& result, std::ostream& out,
              const SinkOptions& options = {});

/// Aligned human-readable table (the historical bench row format), with a
/// thread-safe Print for use from SweepOptions::on_result. Always shows
/// wall time — it is a progress display, not an artifact.
class TablePrinter {
 public:
  explicit TablePrinter(std::FILE* out = stdout);

  /// Prints one row; safe to call concurrently.
  void Print(const TaskResult& row);

  /// Prints every row of a finished sweep, in grid order.
  void PrintAll(const SweepResult& result);

 private:
  std::FILE* out_;
  std::mutex mutex_;
};

}  // namespace cwm

#endif  // CWM_SCENARIO_SINK_H_
