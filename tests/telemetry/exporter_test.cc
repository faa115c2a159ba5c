// Prometheus-text exporter/parser round trips over hand-built snapshots,
// plus a registry-derived round trip at the bottom.

#include "telemetry/exporter.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/json_value.h"
#include "common/json_writer.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/snapshot.h"
#include "telemetry/snapshot_parser.h"

namespace smb::telemetry {
namespace {

MetricsSnapshot SampleSnapshot() {
  MetricsSnapshot snapshot;

  MetricSample counter;
  counter.name = "requests_total";
  counter.type = MetricType::kCounter;
  counter.counter_value = 42;
  snapshot.samples.push_back(counter);

  MetricSample labeled = counter;
  labeled.labels = {{"shard", "3"}, {"path", "a\\b\"c\nd"}};
  labeled.counter_value = 7;
  snapshot.samples.push_back(labeled);

  MetricSample gauge;
  gauge.name = "skew_permille";
  gauge.type = MetricType::kGauge;
  gauge.gauge_value = -125;
  snapshot.samples.push_back(gauge);

  MetricSample histogram;
  histogram.name = "latency_ns";
  histogram.type = MetricType::kHistogram;
  histogram.histogram.buckets = {1, 0, 2, 5};  // values 0, [2,3], [4,7]
  histogram.histogram.count = 8;
  histogram.histogram.sum = 31;
  snapshot.samples.push_back(histogram);

  CanonicalizeSnapshot(&snapshot);
  return snapshot;
}

TEST(SnapshotTest, RenderLabelsEscapes) {
  EXPECT_EQ(RenderLabels({}), "");
  EXPECT_EQ(RenderLabels({{"shard", "3"}}), "shard=\"3\"");
  EXPECT_EQ(RenderLabels({{"a", "x\"y"}, {"b", "p\\q"}}),
            "a=\"x\\\"y\",b=\"p\\\\q\"");
}

TEST(SnapshotTest, QuantileUpperBound) {
  HistogramData histogram;
  histogram.buckets = {0, 10, 0, 90};
  histogram.count = 100;
  EXPECT_EQ(HistogramQuantileUpperBound(histogram, 0.0), 0.0);
  EXPECT_EQ(HistogramQuantileUpperBound(histogram, 0.10), 1.0);
  EXPECT_EQ(HistogramQuantileUpperBound(histogram, 0.5), 7.0);
  EXPECT_EQ(HistogramQuantileUpperBound(histogram, 1.0), 7.0);
  EXPECT_EQ(HistogramQuantileUpperBound(HistogramData{}, 0.5), 0.0);
}

TEST(ExporterTest, PrometheusRoundTrips) {
  const MetricsSnapshot snapshot = SampleSnapshot();
  const std::string text = ToPrometheusText(snapshot);
  const std::optional<MetricsSnapshot> parsed = ParsePrometheusText(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, snapshot);
}

// A bench result carries its telemetry as the Prometheus text in a JSON
// string: the snapshot survives the JSON round trip, escaped newlines,
// quotes and backslashes in label values included.
TEST(ExporterTest, JsonRoundTrips) {
  JsonWriter json(JsonWriter::kCompact);
  json.BeginObject();
  json.Key("bench");
  json.String("x");
  json.Key("telemetry");
  json.String(ToPrometheusText(SampleSnapshot()));
  json.EndObject();
  JsonValue root;
  ASSERT_TRUE(ParseJsonDocument(json.str(), &root));
  const JsonValue* telemetry = root.Find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  ASSERT_EQ(telemetry->kind, JsonValue::kString);
  EXPECT_EQ(ParsePrometheusText(telemetry->string), SampleSnapshot());
}

TEST(ExporterTest, OutputIsStableKeyed) {
  const MetricsSnapshot snapshot = SampleSnapshot();
  // Same state twice => byte-identical exports.
  EXPECT_EQ(ToPrometheusText(snapshot), ToPrometheusText(snapshot));
  // A permuted sample order canonicalizes back to the same bytes.
  MetricsSnapshot shuffled = snapshot;
  std::swap(shuffled.samples.front(), shuffled.samples.back());
  CanonicalizeSnapshot(&shuffled);
  EXPECT_EQ(ToPrometheusText(shuffled), ToPrometheusText(snapshot));
}

TEST(ExporterTest, EmptySnapshotRoundTrips) {
  const MetricsSnapshot empty;
  EXPECT_EQ(ToPrometheusText(empty), "");
  EXPECT_EQ(ParsePrometheusText(ToPrometheusText(empty)), empty);
}

TEST(SnapshotParserTest, MalformedInputsYieldNullopt) {
  // A JSON document is not an exposition.
  EXPECT_FALSE(ParsePrometheusText("{\"metrics\": []}\n").has_value());
  EXPECT_FALSE(ParsePrometheusText("metric_without_value\n").has_value());
  // A sample needs its family's `# TYPE` line first, and a known type.
  EXPECT_FALSE(ParsePrometheusText("orphan_total 3\n").has_value());
  EXPECT_FALSE(ParsePrometheusText("# TYPE s summary\ns 1\n").has_value());
  // Counters are unsigned; values are integers; label sets close.
  EXPECT_FALSE(
      ParsePrometheusText("# TYPE c counter\nc -1\n").has_value());
  EXPECT_FALSE(
      ParsePrometheusText("# TYPE g gauge\ng 1.5\n").has_value());
  EXPECT_FALSE(
      ParsePrometheusText("# TYPE g gauge\ng{a=\"1\" 5\n").has_value());
  EXPECT_FALSE(
      ParsePrometheusText("# TYPE h histogram\nh_bucket{le=\"5\"} 1\n")
          .has_value());  // 5 is not a 2^i - 1 bucket bound
  // Cumulative bucket counts must be non-decreasing.
  EXPECT_FALSE(ParsePrometheusText("# TYPE h histogram\n"
                                   "h_bucket{le=\"0\"} 5\n"
                                   "h_bucket{le=\"1\"} 3\n"
                                   "h_bucket{le=\"+Inf\"} 5\n"
                                   "h_sum 9\n"
                                   "h_count 5\n")
                   .has_value());
}

TEST(SnapshotParserTest, WhitespaceOnlyInputIsEmptySnapshot) {
  const std::optional<MetricsSnapshot> parsed =
      ParsePrometheusText("  \n\t\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->samples.empty());
}

TEST(ExporterTest, RegistrySnapshotRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("events_total", {{"shard", "0"}})->Add(11);
  registry.GetCounter("events_total", {{"shard", "1"}})->Add(13);
  registry.GetGauge("skew")->Set(-4);
  LatencyHistogram* histogram = registry.GetHistogram("lat_ns");
  histogram->Record(0);
  histogram->Record(5);
  histogram->Record(1 << 20);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(ParsePrometheusText(ToPrometheusText(snapshot)), snapshot);
}

}  // namespace
}  // namespace smb::telemetry
