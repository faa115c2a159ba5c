// MetricsRegistry — the process-wide catalog of telemetry instruments.
//
// Registration (Get*) is the cold path: a mutex-guarded lookup that
// returns a stable pointer, so hot paths register once (typically into a
// function-local static or a per-run array) and then touch only their own
// padded atomic. Snapshot() materializes every instrument's current value
// into the sorted MetricsSnapshot the exporter consumes.

#ifndef SMBCARD_TELEMETRY_METRICS_REGISTRY_H_
#define SMBCARD_TELEMETRY_METRICS_REGISTRY_H_

#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"

namespace smb::telemetry {

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. The returned pointer stays valid (and keeps counting)
  // for the registry's lifetime; repeat calls with the same name + labels
  // return the same instrument. Requesting an existing name with a
  // different type is a programming error and aborts.
  Counter* GetCounter(std::string_view name, const Labels& labels = {});
  Gauge* GetGauge(std::string_view name, const Labels& labels = {});
  LatencyHistogram* GetHistogram(std::string_view name,
                                 const Labels& labels = {});

  // Point-in-time copy of every registered instrument, sorted by
  // (name, labels). Safe to call while other threads keep recording.
  MetricsSnapshot Snapshot() const;

  // Zeroes every instrument's value but keeps all registrations (and thus
  // every pointer handed out) alive. Tests use this to measure deltas.
  void ResetValues();

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricType type;
    // One slot per type; only the `type` one is ever touched. A few
    // hundred spare bytes per instrument buys a single Entry shape.
    Counter counter;
    Gauge gauge;
    LatencyHistogram histogram;
  };

  Entry* FindOrCreate(std::string_view name, const Labels& labels,
                      MetricType type);

  mutable std::mutex mutex_;
  // deque: stable addresses across registration.
  std::deque<Entry> entries_;
  std::map<std::string, Entry*> index_;
};

}  // namespace smb::telemetry

#endif  // SMBCARD_TELEMETRY_METRICS_REGISTRY_H_
