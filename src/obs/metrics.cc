#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "support/check.h"
#include "support/json.h"

namespace cwm {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  CWM_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bounds must be ascending");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

void Histogram::Observe(double value) {
  // First bound >= value; inclusive upper edges, overflow past the back.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::span<const double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::vector<double>(
                          bounds.begin(), bounds.end())))
             .first;
  } else {
    CWM_CHECK_MSG(it->second->bounds().size() == bounds.size() &&
                      std::equal(bounds.begin(), bounds.end(),
                                 it->second->bounds().begin()),
                  "histogram re-registered with different bounds");
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramValue value;
    value.name = name;
    value.bounds = histogram->bounds();
    value.counts.resize(histogram->num_buckets());
    for (std::size_t i = 0; i < value.counts.size(); ++i) {
      value.counts[i] = histogram->bucket_count(i);
    }
    value.total_count = histogram->total_count();
    value.sum = histogram->sum();
    snapshot.histograms.push_back(std::move(value));
  }
  return snapshot;
}

Counter& DegradedEventsCounter() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("store.degraded.events");
  return counter;
}

void NoteDegradedEvent(const char* counter_name) {
  MetricsRegistry::Global().GetCounter(counter_name).Add(1);
  DegradedEventsCounter().Add(1);
}

void MetricsRegistry::ResetForTest() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, histogram] : histograms_) histogram->Reset();
}

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":";
    AppendJsonNumber(&out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const MetricsSnapshot::HistogramValue& histogram :
       snapshot.histograms) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, histogram.name);
    out += ":{\"count\":" + std::to_string(histogram.total_count) +
           ",\"sum\":";
    AppendJsonNumber(&out, histogram.sum);
    out += ",\"buckets\":[";
    for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
      if (i > 0) out += ",";
      out += "{\"le\":";
      if (i < histogram.bounds.size()) {
        AppendJsonNumber(&out, histogram.bounds[i]);
      } else {
        out += "\"inf\"";
      }
      out += ",\"count\":" + std::to_string(histogram.counts[i]) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

void MetricsLineFormatter::BeforeField() {
  if (!line_.empty()) line_ += next_sep_ != nullptr ? next_sep_ : " ";
  next_sep_ = nullptr;
}

MetricsLineFormatter& MetricsLineFormatter::Count(const char* key,
                                                 uint64_t value) {
  BeforeField();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  line_ += key;
  line_ += '=';
  line_ += buf;
  return *this;
}

MetricsLineFormatter& MetricsLineFormatter::Fixed(const char* key,
                                                 double value, int precision,
                                                 const char* suffix) {
  BeforeField();
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  line_ += key;
  line_ += '=';
  line_ += buf;
  line_ += suffix;
  return *this;
}

MetricsLineFormatter& MetricsLineFormatter::Sep(const char* separator) {
  next_sep_ = separator;
  return *this;
}

}  // namespace cwm
