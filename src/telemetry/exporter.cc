#include "telemetry/exporter.h"

#include <cinttypes>
#include <cstdio>

namespace smb::telemetry {
namespace {

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  *out += buf;
}

void AppendI64(std::string* out, int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  *out += buf;
}

// `name{labels,extra} ` or `name ` when both are empty.
void AppendSeriesName(std::string* out, const std::string& name,
                      const std::string& rendered_labels,
                      const std::string& extra_label) {
  *out += name;
  if (!rendered_labels.empty() || !extra_label.empty()) {
    out->push_back('{');
    *out += rendered_labels;
    if (!rendered_labels.empty() && !extra_label.empty()) {
      out->push_back(',');
    }
    *out += extra_label;
    out->push_back('}');
  }
  out->push_back(' ');
}

}  // namespace

std::string ToPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string previous_family;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.name != previous_family) {
      out += "# TYPE ";
      out += sample.name;
      out.push_back(' ');
      out += MetricTypeName(sample.type);
      out.push_back('\n');
      previous_family = sample.name;
    }
    const std::string labels = RenderLabels(sample.labels);
    switch (sample.type) {
      case MetricType::kCounter:
        AppendSeriesName(&out, sample.name, labels, "");
        AppendU64(&out, sample.counter_value);
        out.push_back('\n');
        break;
      case MetricType::kGauge:
        AppendSeriesName(&out, sample.name, labels, "");
        AppendI64(&out, sample.gauge_value);
        out.push_back('\n');
        break;
      case MetricType::kHistogram: {
        uint64_t cumulative = 0;
        for (size_t i = 0; i < sample.histogram.buckets.size(); ++i) {
          cumulative += sample.histogram.buckets[i];
          std::string le = "le=\"";
          AppendU64(&le, HistogramBucketUpperBound(i));
          le.push_back('"');
          AppendSeriesName(&out, sample.name + "_bucket", labels, le);
          AppendU64(&out, cumulative);
          out.push_back('\n');
        }
        AppendSeriesName(&out, sample.name + "_bucket", labels,
                         "le=\"+Inf\"");
        AppendU64(&out, cumulative);
        out.push_back('\n');
        AppendSeriesName(&out, sample.name + "_sum", labels, "");
        AppendU64(&out, sample.histogram.sum);
        out.push_back('\n');
        AppendSeriesName(&out, sample.name + "_count", labels, "");
        AppendU64(&out, sample.histogram.count);
        out.push_back('\n');
        break;
      }
    }
  }
  return out;
}

}  // namespace smb::telemetry
