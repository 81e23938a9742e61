// Tests for the observability subsystem (src/obs/): trace recorder +
// spans, metrics registry, phase attribution — and the subsystem's hard
// invariant: tracing is observation only, so a traced sweep's artifacts
// are byte-identical to an untraced one at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "scenario/sink.h"
#include "scenario/sweep.h"
#include "support/thread_pool.h"

namespace cwm {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// TraceRecorder + spans.
// ---------------------------------------------------------------------------

TEST(TraceTest, NoRecorderMeansNoRecording) {
  ASSERT_EQ(TraceRecorder::Current(), nullptr);
  // The disabled path must be safe to execute (spans and instants are
  // no-ops), not merely cheap.
  {
    CWM_TRACE_SPAN("test.disabled", {{"k", 1}});
    CWM_TRACE_INSTANT("test.disabled_instant");
  }
  TraceRecorder recorder;
  EXPECT_TRUE(recorder.snapshot_events().empty());
  EXPECT_EQ(recorder.events_dropped(), 0u);
}

TEST(TraceTest, SpansRecordNestingArgsAndOrder) {
  TraceRecorder recorder;
  recorder.Install();
  {
    CWM_TRACE_SPAN("test.outer", {{"count", 2}, {"label", "abc"}});
    {
      CWM_TRACE_SPAN("test.inner", {{"flag", true}, {"x", 1.5}});
    }
    CWM_TRACE_INSTANT("test.mark", {{"stage", "mid"}});
  }
  recorder.Uninstall();

  const std::vector<TraceEvent> events = recorder.snapshot_events();
  ASSERT_EQ(events.size(), 3u);
  // Completion order within timestamp sort: the outer span starts first.
  EXPECT_STREQ(events[0].name, "test.outer");
  EXPECT_EQ(events[0].ph, 'X');
  ASSERT_EQ(events[0].num_args, 2u);
  EXPECT_STREQ(events[0].args[0].key, "count");
  EXPECT_EQ(events[0].args[0].kind, TraceArg::Kind::kInt);
  EXPECT_EQ(events[0].args[0].int_value, 2);
  EXPECT_EQ(events[0].args[1].kind, TraceArg::Kind::kString);
  EXPECT_STREQ(events[0].args[1].string_value, "abc");

  EXPECT_STREQ(events[1].name, "test.inner");
  EXPECT_EQ(events[1].args[0].kind, TraceArg::Kind::kBool);
  EXPECT_EQ(events[1].args[1].kind, TraceArg::Kind::kDouble);
  // The inner span nests within the outer one.
  EXPECT_GE(events[1].ts_ns, events[0].ts_ns);
  EXPECT_LE(events[1].ts_ns + events[1].dur_ns,
            events[0].ts_ns + events[0].dur_ns);

  EXPECT_STREQ(events[2].name, "test.mark");
  EXPECT_EQ(events[2].ph, 'i');

  // Timestamps are sorted ascending after the merge.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST(TraceTest, ThreadsGetDistinctTidsAndMergeSorted) {
  TraceRecorder recorder;
  recorder.Install();
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 5; ++i) {
        CWM_TRACE_SPAN("test.worker", {{"thread", t}, {"i", i}});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  recorder.Uninstall();

  const std::vector<TraceEvent> events = recorder.snapshot_events();
  ASSERT_EQ(events.size(), 15u);
  std::set<uint32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 3u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
}

TEST(TraceTest, PerThreadCapDropsAndCounts) {
  TraceRecorder recorder(TraceRecorderOptions{.max_events_per_thread = 4});
  recorder.Install();
  for (int i = 0; i < 10; ++i) CWM_TRACE_INSTANT("test.capped");
  recorder.Uninstall();
  EXPECT_EQ(recorder.snapshot_events().size(), 4u);
  EXPECT_EQ(recorder.events_dropped(), 6u);
}

TEST(TraceTest, ReinstallAfterUninstallKeepsBuffersSeparate) {
  // A thread's cached buffer belongs to one recorder generation: after
  // switching recorders, the same thread must write into the new one.
  TraceRecorder first;
  first.Install();
  CWM_TRACE_INSTANT("test.first");
  first.Uninstall();

  TraceRecorder second;
  second.Install();
  CWM_TRACE_INSTANT("test.second");
  second.Uninstall();

  ASSERT_EQ(first.snapshot_events().size(), 1u);
  EXPECT_STREQ(first.snapshot_events()[0].name, "test.first");
  ASSERT_EQ(second.snapshot_events().size(), 1u);
  EXPECT_STREQ(second.snapshot_events()[0].name, "test.second");
}

TEST(TraceTest, WriteChromeJsonShape) {
  TraceRecorder recorder;
  recorder.Install();
  {
    CWM_TRACE_SPAN("test.span", {{"k", 7}, {"name", "a\"b"}});
  }
  CWM_TRACE_INSTANT("test.instant");
  recorder.Uninstall();

  std::ostringstream out;
  recorder.WriteChromeJson(out);
  const std::string json = out.str();

  EXPECT_NE(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"k\":7,\"name\":\"a\\\"b\"}"),
            std::string::npos);
  // Timestamps are rebased to the earliest event.
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  // No drops, so no truncation metadata.
  EXPECT_EQ(json.find("events_dropped"), std::string::npos);
}

TEST(TraceTest, WriteChromeJsonReportsDrops) {
  TraceRecorder recorder(TraceRecorderOptions{.max_events_per_thread = 1});
  recorder.Install();
  CWM_TRACE_INSTANT("test.kept");
  CWM_TRACE_INSTANT("test.dropped");
  recorder.Uninstall();
  std::ostringstream out;
  recorder.WriteChromeJson(out);
  EXPECT_NE(out.str().find("\"metadata\":{\"events_dropped\":1}"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

TEST(MetricsTest, CountersAndGaugesAccumulate) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("test.counter");
  c.Add(2);
  c.Add(3);
  EXPECT_EQ(c.value(), 5u);
  // Same name -> same instrument.
  EXPECT_EQ(&registry.GetCounter("test.counter"), &c);

  Gauge& g = registry.GetGauge("test.gauge");
  g.Set(1.5);
  g.Set(2.5);
  EXPECT_EQ(g.value(), 2.5);

  registry.ResetForTest();
  EXPECT_EQ(c.value(), 0u);  // reference survived the reset
  EXPECT_EQ(g.value(), 0.0);
}

TEST(MetricsTest, HistogramBucketEdgesAreInclusive) {
  static constexpr double kBounds[] = {1.0, 2.0, 4.0};
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("test.hist", kBounds);
  ASSERT_EQ(h.num_buckets(), 4u);

  h.Observe(0.5);  // bucket 0
  h.Observe(1.0);  // bucket 0 (inclusive upper edge)
  h.Observe(1.5);  // bucket 1
  h.Observe(2.0);  // bucket 1
  h.Observe(4.0);  // bucket 2
  h.Observe(5.0);  // overflow

  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.total_count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);

  // Re-registration with the same bounds returns the same instrument.
  EXPECT_EQ(&registry.GetHistogram("test.hist", kBounds), &h);
}

TEST(MetricsTest, SnapshotIsNameSorted) {
  MetricsRegistry registry;
  registry.GetCounter("z.last").Add(1);
  registry.GetCounter("a.first").Add(2);
  registry.GetGauge("m.gauge").Set(3.0);

  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a.first");
  EXPECT_EQ(snapshot.counters[0].second, 2u);
  EXPECT_EQ(snapshot.counters[1].first, "z.last");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].first, "m.gauge");
}

TEST(MetricsTest, MetricsToJsonShape) {
  MetricsSnapshot snapshot;
  snapshot.counters = {{"cache.hits", 3}};
  snapshot.gauges = {{"pool.resident_mb", 1.5}};
  MetricsSnapshot::HistogramValue h;
  h.name = "scenario.task_seconds";
  h.bounds = {0.01, 0.1};
  h.counts = {1, 0, 2};
  h.total_count = 3;
  h.sum = 5.25;
  snapshot.histograms.push_back(h);

  const std::string json = MetricsToJson(snapshot);
  EXPECT_NE(json.find("\"counters\":{\"cache.hits\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"pool.resident_mb\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"scenario.task_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":0.01,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":\"inf\",\"count\":2}"), std::string::npos);
}

TEST(MetricsTest, MetricsToJsonEscapesNames) {
  MetricsSnapshot snapshot;
  snapshot.counters = {{"odd\"name\n\x01", 1}};
  snapshot.gauges = {{"g", -0.0}, {"nan", std::nan("")}};
  EXPECT_EQ(MetricsToJson(snapshot),
            "{\"counters\":{\"odd\\\"name\\n\\u0001\":1},"
            "\"gauges\":{\"g\":0,\"nan\":null},\"histograms\":{}}");
}

TEST(MetricsTest, CounterValueReadsWithoutRegistering) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.CounterValue("test.absent"), 0u);
  EXPECT_TRUE(registry.Snapshot().counters.empty());
  registry.GetCounter("test.present").Add(7);
  EXPECT_EQ(registry.CounterValue("test.present"), 7u);
  EXPECT_EQ(registry.Snapshot().counters.size(), 1u);
}

TEST(MetricsTest, GlobalRegistryHasProcessLifetime) {
  Counter& c = MetricsRegistry::Global().GetCounter("obs_test.probe");
  const uint64_t before = c.value();
  c.Add(1);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("obs_test.probe").value(),
            before + 1);
}

TEST(MetricsTest, LineFormatterMatchesCwmRunStderrContract) {
  // The exact grammar of cwm_run's per-sweep stderr lines; CI greps the
  // cache line's "graphs hits=" and "rr hits=" (see tools/cwm_run.cc).
  MetricsLineFormatter line;
  line.Count("graphs hits", 1)
      .Count("misses", 2)
      .Sep("; ")
      .Count("rr hits", 3)
      .Count("misses", 4);
  EXPECT_EQ(line.str(), "graphs hits=1 misses=2; rr hits=3 misses=4");

  MetricsLineFormatter pools;
  pools.Count("built", 2).Count("reused", 10).Count("evicted", 0);
  EXPECT_EQ(pools.str(), "built=2 reused=10 evicted=0");

  MetricsLineFormatter phases;
  phases.Fixed("sample", 1.234, 2, "s").Fixed("estimate", 12.34, 1);
  EXPECT_EQ(phases.str(), "sample=1.23s estimate=12.3");
}

// ---------------------------------------------------------------------------
// Phase attribution.
// ---------------------------------------------------------------------------

TEST(PhaseTest, TimerIsNoOpWithoutCollector) {
  EXPECT_FALSE(PhaseCollector::Active());
  ScopedPhaseTimer timer(Phase::kSample);  // must not crash or leak state
  EXPECT_FALSE(PhaseCollector::Active());
}

TEST(PhaseTest, CollectorAttributesTimeAndIgnoresNestedScopes) {
  PhaseCollector collector;
  EXPECT_TRUE(PhaseCollector::Active());
  {
    ScopedPhaseTimer estimate(Phase::kEstimate);
    // A nested scope of any phase is a no-op: only the outermost open
    // scope on the thread times (the Spread -> MarginalSpread case).
    ScopedPhaseTimer nested(Phase::kSample);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(collector.times().estimate_s(), 0.0);
  EXPECT_EQ(collector.times().sample_s(), 0.0);
  EXPECT_EQ(collector.times().select_s(), 0.0);
}

TEST(PhaseTest, InnermostCollectorWins) {
  PhaseCollector outer;
  {
    PhaseCollector inner;
    ScopedPhaseTimer timer(Phase::kSelect);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Destruction order: timer first, then inner — inner receives.
  }
  EXPECT_EQ(outer.times().select_s(), 0.0);

  // After the inner collector is gone, the outer one receives again.
  {
    ScopedPhaseTimer timer(Phase::kSelect);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(outer.times().select_s(), 0.0);
}

TEST(PhaseTest, PhaseTimesAccumulate) {
  PhaseTimes times;
  times.Add(Phase::kSample, 1.0);
  times.Add(Phase::kSample, 0.5);
  times.Add(Phase::kSelect, 2.0);
  EXPECT_DOUBLE_EQ(times.sample_s(), 1.5);
  EXPECT_DOUBLE_EQ(times.select_s(), 2.0);
  EXPECT_DOUBLE_EQ(times.estimate_s(), 0.0);
}

// ---------------------------------------------------------------------------
// The invariant: tracing never changes results.
// ---------------------------------------------------------------------------

std::string UniqueTempDir() {
  static const uint64_t process_token = std::random_device{}();
  static std::atomic<uint64_t> counter{0};
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      ("cwm_obs_" + std::to_string(process_token) + "_" +
       std::to_string(counter.fetch_add(1)));
  fs::create_directories(dir);
  return dir.string();
}

std::string RunTinySweep(unsigned num_threads, const std::string& cache_dir) {
  const StatusOr<ScenarioSpec> spec =
      GlobalScenarioRegistry().Find("smoke-tiny");
  EXPECT_TRUE(spec.ok());
  SweepOptions options;
  options.num_threads = num_threads;
  options.cache_dir = cache_dir;
  const StatusOr<SweepResult> result = RunSweep(spec.value(), options);
  EXPECT_TRUE(result.ok());
  std::ostringstream jsonl, csv;
  WriteJsonLines(result.value(), jsonl);
  WriteCsv(result.value(), csv);
  return jsonl.str() + "\n---\n" + csv.str();
}

TEST(TraceSweepTest, TracedSweepIsByteIdenticalAndCoversAllLayers) {
  const std::string cache_dir = UniqueTempDir();

  // Baseline: no recorder installed (cold cache).
  const std::string untraced = RunTinySweep(1, cache_dir);
  ASSERT_GT(untraced.size(), 0u);

  // Traced at 1 thread.
  TraceRecorder single;
  single.Install();
  const std::string traced_1 = RunTinySweep(1, cache_dir);
  single.Uninstall();

  // Traced at 8 threads.
  TraceRecorder multi;
  multi.Install();
  const std::string traced_8 = RunTinySweep(8, cache_dir);
  multi.Uninstall();

  // Observation only: artifact bytes do not depend on tracing or on the
  // thread count (the warm cache is also bit-identical to the cold run).
  EXPECT_EQ(untraced, traced_1);
  EXPECT_EQ(untraced, traced_8);

  // The trace covers every instrumented layer (`<layer>.<verb>` names).
  for (const TraceRecorder* recorder : {&single, &multi}) {
    std::set<std::string> layers;
    for (const TraceEvent& event : recorder->snapshot_events()) {
      const std::string name = event.name;
      layers.insert(name.substr(0, name.find('.')));
    }
    EXPECT_TRUE(layers.count("rr")) << "missing rr.* spans";
    EXPECT_TRUE(layers.count("store")) << "missing store.* spans";
    EXPECT_TRUE(layers.count("simulate")) << "missing simulate.* spans";
    EXPECT_TRUE(layers.count("api")) << "missing api.* spans";
    EXPECT_TRUE(layers.count("scenario")) << "missing scenario.* spans";
    EXPECT_EQ(recorder->events_dropped(), 0u);
  }

  std::error_code ec;
  fs::remove_all(cache_dir, ec);
}

TEST(TraceSweepTest, SweepRowsCarryPhaseTimes) {
  const StatusOr<ScenarioSpec> spec =
      GlobalScenarioRegistry().Find("smoke-tiny");
  ASSERT_TRUE(spec.ok());
  SweepOptions options;
  options.num_threads = 1;
  const StatusOr<SweepResult> result = RunSweep(spec.value(), options);
  ASSERT_TRUE(result.ok());

  double sample = 0.0, estimate = 0.0;
  for (const TaskResult& row : result.value().rows) {
    if (row.skipped) continue;
    EXPECT_GE(row.sample_s, 0.0);
    EXPECT_GE(row.select_s, 0.0);
    EXPECT_GE(row.estimate_s, 0.0);
    // Phases are a breakdown of the run, not more than its wall time
    // plus evaluation; generous sanity bound only.
    sample += row.sample_s;
    estimate += row.estimate_s;
  }
  // smoke-tiny runs IMM-family algorithms and a common evaluator, so the
  // sweep as a whole must have spent time in both phases.
  EXPECT_GT(sample, 0.0);
  EXPECT_GT(estimate, 0.0);

  // The timing sink emits the phase columns only when asked.
  const SinkOptions timing{.include_timing = true};
  bool saw_phase_columns = false;
  for (const TaskResult& row : result.value().rows) {
    if (row.skipped) continue;
    const std::string json = TaskResultToJson(row, timing);
    EXPECT_NE(json.find("\"sample_s\":"), std::string::npos);
    EXPECT_NE(json.find("\"select_s\":"), std::string::npos);
    EXPECT_NE(json.find("\"estimate_s\":"), std::string::npos);
    EXPECT_EQ(TaskResultToJson(row).find("\"sample_s\":"),
              std::string::npos);
    saw_phase_columns = true;
  }
  EXPECT_TRUE(saw_phase_columns);
}

}  // namespace
}  // namespace cwm
