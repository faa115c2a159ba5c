// Exporter/parser round trips over hand-built snapshots, plus a
// registry-derived round trip at the bottom.

#include "telemetry/exporter.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

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

TEST(ExporterTest, JsonRoundTrips) {
  const MetricsSnapshot snapshot = SampleSnapshot();
  const std::string text = ToJson(snapshot);
  const std::optional<MetricsSnapshot> parsed = ParseJsonSnapshot(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, snapshot);
}

TEST(ExporterTest, ParseSnapshotDispatchesOnFormat) {
  const MetricsSnapshot snapshot = SampleSnapshot();
  EXPECT_EQ(ParseSnapshot(ToPrometheusText(snapshot)), snapshot);
  EXPECT_EQ(ParseSnapshot(ToJson(snapshot)), snapshot);
}

TEST(ExporterTest, OutputIsStableKeyed) {
  const MetricsSnapshot snapshot = SampleSnapshot();
  // Same state twice => byte-identical exports.
  EXPECT_EQ(ToPrometheusText(snapshot), ToPrometheusText(snapshot));
  EXPECT_EQ(ToJson(snapshot), ToJson(snapshot));
  // A permuted sample order canonicalizes back to the same bytes.
  MetricsSnapshot shuffled = snapshot;
  std::swap(shuffled.samples.front(), shuffled.samples.back());
  CanonicalizeSnapshot(&shuffled);
  EXPECT_EQ(ToPrometheusText(shuffled), ToPrometheusText(snapshot));
}

TEST(ExporterTest, EmptySnapshotRoundTrips) {
  const MetricsSnapshot empty;
  EXPECT_EQ(ParsePrometheusText(ToPrometheusText(empty)), empty);
  EXPECT_EQ(ParseJsonSnapshot(ToJson(empty)), empty);
}

TEST(ExporterTest, WriteJsonEmbedsInLargerDocument) {
  JsonWriter json(JsonWriter::kCompact);
  json.BeginObject();
  json.Key("bench");
  json.String("x");
  json.Key("telemetry");
  WriteJson(SampleSnapshot(), &json);
  json.EndObject();
  const std::string text = json.str();
  EXPECT_EQ(text.substr(0, 14), "{\"bench\":\"x\",\"");
  // The embedded object alone parses back to the snapshot.
  const size_t start = text.find("{\"metrics\"");
  ASSERT_NE(start, std::string::npos);
  EXPECT_EQ(ParseJsonSnapshot(
                std::string_view(text).substr(start, text.size() - 1 - start)),
            SampleSnapshot());
}

TEST(SnapshotParserTest, MalformedInputsYieldNullopt) {
  EXPECT_FALSE(ParseJsonSnapshot("{\"metrics\": [").has_value());
  EXPECT_FALSE(ParseJsonSnapshot("[1, 2, 3]").has_value());
  EXPECT_FALSE(ParseJsonSnapshot("{\"metrics\": [{\"type\": \"counter\"}]}")
                   .has_value());  // missing name
  EXPECT_FALSE(ParsePrometheusText("metric_without_value\n").has_value());
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
  const std::optional<MetricsSnapshot> parsed = ParseSnapshot("  \n\t\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->samples.empty());
}

TEST(ExporterTest, RegistrySnapshotRoundTripsBothFormats) {
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
  EXPECT_EQ(ParseJsonSnapshot(ToJson(snapshot)), snapshot);
}

}  // namespace
}  // namespace smb::telemetry
