// Point-in-time value types shared by the registry, the exporter, the
// snapshot parser, and the smbtop tool.

#ifndef SMBCARD_TELEMETRY_SNAPSHOT_H_
#define SMBCARD_TELEMETRY_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"

namespace smb::telemetry {

// Ordered label set, e.g. {{"shard", "3"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

// Stable lowercase name used by both export formats.
const char* MetricTypeName(MetricType type);

struct HistogramData {
  // Per-bucket counts indexed by HistogramBucketIndex, trimmed after the
  // last non-zero bucket (so equality is insensitive to trailing zeros).
  std::vector<uint64_t> buckets;
  uint64_t count = 0;
  uint64_t sum = 0;

  bool operator==(const HistogramData&) const = default;
};

struct MetricSample {
  std::string name;
  Labels labels;
  MetricType type = MetricType::kCounter;
  uint64_t counter_value = 0;   // valid when type == kCounter
  int64_t gauge_value = 0;      // valid when type == kGauge
  HistogramData histogram;      // valid when type == kHistogram

  bool operator==(const MetricSample&) const = default;
};

struct MetricsSnapshot {
  // Sorted by (name, rendered labels); the exporter preserves this order,
  // which is what makes its output stable-keyed.
  std::vector<MetricSample> samples;

  bool operator==(const MetricsSnapshot&) const = default;
};

// Renders labels in Prometheus order/syntax without braces: `shard="3"` or
// `a="x",b="y"`. Empty string for no labels.
std::string RenderLabels(const Labels& labels);

// Sorts samples into the canonical (name, rendered labels) order.
void CanonicalizeSnapshot(MetricsSnapshot* snapshot);

// Smallest bucket upper bound covering quantile `q` (in [0, 1]) of the
// recorded values; +infinity when the overflow bucket is reached, 0 when
// the histogram is empty. An upper bound, not an interpolation — exact for
// the "which power of two" question the log-scale buckets answer.
double HistogramQuantileUpperBound(const HistogramData& histogram, double q);

}  // namespace smb::telemetry

#endif  // SMBCARD_TELEMETRY_SNAPSHOT_H_
