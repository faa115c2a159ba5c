// metrics_inspect — pretty-prints a telemetry snapshot captured with
// `smbcard --metrics-out` (or bench/parallel_throughput's embedded
// "telemetry" object saved to its own file).
//
// Usage:
//   metrics_inspect [FILE]
//   metrics_inspect --delta OLD NEW [--seconds S]
//
// Single-file mode reads FILE (stdin when omitted), auto-detects
// Prometheus text vs JSON, and renders one table row per metric.
// Histogram rows show the recorded count, the value sum, and log-bucket
// upper bounds for the p50/p99 quantiles.
//
// Delta mode diffs two snapshots of the same process: counters show the
// increment (and a per-second rate with --seconds), gauges the signed
// change, and histograms are differenced bucket-wise so the p50/p99
// columns describe only the values recorded BETWEEN the two captures —
// the live-latency question a cumulative histogram cannot answer.
// Metrics absent from OLD are treated as starting from zero; a counter
// that went backwards is flagged "reset".

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <string>

#include "common/table_printer.h"
#include "numeric_flags.h"
#include "telemetry/snapshot.h"
#include "telemetry/snapshot_parser.h"

namespace {

std::string FmtQuantileBound(const smb::telemetry::HistogramData& histogram,
                             double q) {
  const double bound =
      smb::telemetry::HistogramQuantileUpperBound(histogram, q);
  if (std::isinf(bound)) return "+Inf";
  return smb::TablePrinter::FmtInt(static_cast<long long>(bound));
}

int Inspect(const std::string& source_name, const std::string& text) {
  const std::optional<smb::telemetry::MetricsSnapshot> snapshot =
      smb::telemetry::ParseSnapshot(text);
  if (!snapshot.has_value()) {
    std::fprintf(stderr,
                 "%s is not a valid metrics snapshot (Prometheus text or "
                 "JSON)\n",
                 source_name.c_str());
    return 1;
  }
  smb::TablePrinter table(std::to_string(snapshot->samples.size()) +
                          " metrics from " + source_name);
  table.SetHeader({"metric", "labels", "type", "value", "sum", "p50<=",
                   "p99<="});
  for (const smb::telemetry::MetricSample& sample : snapshot->samples) {
    std::string value;
    std::string sum;
    std::string p50;
    std::string p99;
    switch (sample.type) {
      case smb::telemetry::MetricType::kCounter:
        value = smb::TablePrinter::FmtInt(
            static_cast<long long>(sample.counter_value));
        break;
      case smb::telemetry::MetricType::kGauge:
        value = smb::TablePrinter::FmtInt(sample.gauge_value);
        break;
      case smb::telemetry::MetricType::kHistogram:
        value = smb::TablePrinter::FmtInt(
            static_cast<long long>(sample.histogram.count));
        sum = smb::TablePrinter::FmtInt(
            static_cast<long long>(sample.histogram.sum));
        p50 = FmtQuantileBound(sample.histogram, 0.5);
        p99 = FmtQuantileBound(sample.histogram, 0.99);
        break;
    }
    table.AddRow({sample.name, smb::telemetry::RenderLabels(sample.labels),
                  smb::telemetry::MetricTypeName(sample.type), value, sum,
                  p50, p99});
  }
  table.Print();
  return 0;
}

bool ReadFileOrFail(const char* path, std::string* out) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return false;
  }
  out->assign((std::istreambuf_iterator<char>(file)),
              std::istreambuf_iterator<char>());
  return true;
}

// Bucket-wise difference new - old, clamped at zero (a cumulative
// histogram never shrinks; a negative bucket means a process restart and
// the clamp keeps the quantile math sane).
smb::telemetry::HistogramData DiffHistogram(
    const smb::telemetry::HistogramData& older,
    const smb::telemetry::HistogramData& newer) {
  smb::telemetry::HistogramData diff;
  diff.buckets.resize(newer.buckets.size(), 0);
  for (size_t i = 0; i < newer.buckets.size(); ++i) {
    const uint64_t before = i < older.buckets.size() ? older.buckets[i] : 0;
    diff.buckets[i] = newer.buckets[i] > before ? newer.buckets[i] - before : 0;
  }
  diff.count = newer.count > older.count ? newer.count - older.count : 0;
  diff.sum = newer.sum > older.sum ? newer.sum - older.sum : 0;
  return diff;
}

int InspectDelta(const char* old_path, const char* new_path,
                 double seconds) {
  std::string old_text;
  std::string new_text;
  if (!ReadFileOrFail(old_path, &old_text)) return 1;
  if (!ReadFileOrFail(new_path, &new_text)) return 1;
  const auto older = smb::telemetry::ParseSnapshot(old_text);
  const auto newer = smb::telemetry::ParseSnapshot(new_text);
  if (!older.has_value() || !newer.has_value()) {
    std::fprintf(stderr, "%s is not a valid metrics snapshot\n",
                 older.has_value() ? new_path : old_path);
    return 1;
  }

  // Index OLD by identity; NEW drives the output so newly appeared
  // metrics are shown (baselined at zero).
  std::map<std::string, const smb::telemetry::MetricSample*> by_key;
  for (const auto& sample : older->samples) {
    by_key[sample.name + "{" +
           smb::telemetry::RenderLabels(sample.labels) + "}"] = &sample;
  }

  smb::TablePrinter table("delta " + std::string(old_path) + " -> " +
                          std::string(new_path) +
                          (seconds > 0.0
                               ? " over " + smb::TablePrinter::Fmt(seconds, 1) +
                                     " s"
                               : ""));
  table.SetHeader({"metric", "labels", "type", "old", "new", "delta", "/s",
                   "p50<=", "p99<="});
  for (const auto& sample : newer->samples) {
    const std::string key =
        sample.name + "{" + smb::telemetry::RenderLabels(sample.labels) + "}";
    const auto it = by_key.find(key);
    const smb::telemetry::MetricSample* before =
        it != by_key.end() && it->second->type == sample.type ? it->second
                                                              : nullptr;
    std::string old_cell;
    std::string new_cell;
    std::string delta_cell;
    std::string rate_cell;
    std::string p50;
    std::string p99;
    switch (sample.type) {
      case smb::telemetry::MetricType::kCounter: {
        const uint64_t was = before ? before->counter_value : 0;
        old_cell = smb::TablePrinter::FmtInt(static_cast<long long>(was));
        new_cell = smb::TablePrinter::FmtInt(
            static_cast<long long>(sample.counter_value));
        if (sample.counter_value < was) {
          delta_cell = "reset";
        } else {
          const uint64_t delta = sample.counter_value - was;
          delta_cell = smb::TablePrinter::FmtInt(static_cast<long long>(delta));
          if (seconds > 0.0) {
            rate_cell = smb::TablePrinter::Fmt(
                static_cast<double>(delta) / seconds, 1);
          }
        }
        break;
      }
      case smb::telemetry::MetricType::kGauge: {
        const int64_t was = before ? before->gauge_value : 0;
        old_cell = smb::TablePrinter::FmtInt(was);
        new_cell = smb::TablePrinter::FmtInt(sample.gauge_value);
        delta_cell = smb::TablePrinter::FmtInt(sample.gauge_value - was);
        break;
      }
      case smb::telemetry::MetricType::kHistogram: {
        static const smb::telemetry::HistogramData kEmpty;
        const auto& was = before ? before->histogram : kEmpty;
        const auto diff = DiffHistogram(was, sample.histogram);
        old_cell =
            smb::TablePrinter::FmtInt(static_cast<long long>(was.count));
        new_cell = smb::TablePrinter::FmtInt(
            static_cast<long long>(sample.histogram.count));
        delta_cell =
            smb::TablePrinter::FmtInt(static_cast<long long>(diff.count));
        if (seconds > 0.0) {
          rate_cell = smb::TablePrinter::Fmt(
              static_cast<double>(diff.count) / seconds, 1);
        }
        if (diff.count > 0) {
          p50 = FmtQuantileBound(diff, 0.5);
          p99 = FmtQuantileBound(diff, 0.99);
        }
        break;
      }
    }
    table.AddRow({sample.name, smb::telemetry::RenderLabels(sample.labels),
                  smb::telemetry::MetricTypeName(sample.type), old_cell,
                  new_cell, delta_cell, rate_cell, p50, p99});
  }
  table.Print();
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [FILE]   (stdin when FILE omitted)\n"
               "       %s --delta OLD NEW [--seconds S]\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--delta") {
    double seconds = 0.0;
    if (argc == 6 && std::string(argv[4]) == "--seconds") {
      if (!smb::tools::ParseSecondsFlag(argv[5], &seconds)) {
        std::fprintf(stderr,
                     "--seconds wants a positive number of seconds, at most "
                     "%llu; got %s\n",
                     static_cast<unsigned long long>(
                         smb::tools::kMaxFlagSeconds),
                     argv[5]);
        return 2;
      }
    } else if (argc != 4) {
      return Usage(argv[0]);
    }
    return InspectDelta(argv[2], argv[3], seconds);
  }
  if (argc > 2 || (argc == 2 && (std::string(argv[1]) == "--help" ||
                                 std::string(argv[1]) == "-h"))) {
    return Usage(argv[0]);
  }
  if (argc == 2) {
    std::string text;
    if (!ReadFileOrFail(argv[1], &text)) return 1;
    return Inspect(argv[1], text);
  }
  const std::string text((std::istreambuf_iterator<char>(std::cin)),
                         std::istreambuf_iterator<char>());
  return Inspect("<stdin>", text);
}
