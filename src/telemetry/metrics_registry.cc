#include "telemetry/metrics_registry.h"

#include "common/macros.h"

namespace smb::telemetry {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(std::string_view name,
                                                      const Labels& labels,
                                                      MetricType type) {
  std::string key(name);
  key.push_back('{');
  key += RenderLabels(labels);
  key.push_back('}');
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    SMB_CHECK_MSG(it->second->type == type,
                  "metric re-registered with a different type");
    return it->second;
  }
  Entry& entry = entries_.emplace_back();
  entry.name = std::string(name);
  entry.labels = labels;
  entry.type = type;
  index_.emplace(std::move(key), &entry);
  return &entry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const Labels& labels) {
  return &FindOrCreate(name, labels, MetricType::kCounter)->counter;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, const Labels& labels) {
  return &FindOrCreate(name, labels, MetricType::kGauge)->gauge;
}

LatencyHistogram* MetricsRegistry::GetHistogram(std::string_view name,
                                                const Labels& labels) {
  return &FindOrCreate(name, labels, MetricType::kHistogram)->histogram;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.samples.reserve(entries_.size());
    for (const Entry& entry : entries_) {
      MetricSample sample;
      sample.name = entry.name;
      sample.labels = entry.labels;
      sample.type = entry.type;
      switch (entry.type) {
        case MetricType::kCounter:
          sample.counter_value = entry.counter.Value();
          break;
        case MetricType::kGauge:
          sample.gauge_value = entry.gauge.Value();
          break;
        case MetricType::kHistogram: {
          size_t last_nonzero = 0;
          bool any = false;
          for (size_t i = 0; i < kNumHistogramBuckets; ++i) {
            if (entry.histogram.BucketCount(i) != 0) {
              last_nonzero = i;
              any = true;
            }
          }
          if (any) {
            sample.histogram.buckets.resize(last_nonzero + 1);
            for (size_t i = 0; i <= last_nonzero; ++i) {
              sample.histogram.buckets[i] = entry.histogram.BucketCount(i);
            }
          }
          sample.histogram.count = entry.histogram.Count();
          sample.histogram.sum = entry.histogram.Sum();
          break;
        }
      }
      snapshot.samples.push_back(std::move(sample));
    }
  }
  CanonicalizeSnapshot(&snapshot);
  return snapshot;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Entry& entry : entries_) {
    entry.counter.Reset();
    entry.gauge.Reset();
    entry.histogram.Reset();
  }
}

}  // namespace smb::telemetry
