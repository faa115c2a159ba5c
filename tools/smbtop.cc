// smbtop — live terminal dashboard over the metric snapshots a running
// smbcard process writes with `--metrics-out FILE --metrics-interval S`
// (any Prometheus-text or JSON snapshot file works; the writer and this
// reader share telemetry/snapshot_parser).
//
// Usage:
//   smbtop [--interval SEC] [--once] FILE
//
// Polls FILE every SEC seconds (default 2), clears the screen, and
// renders five panes:
//   health      every `*_health_*` gauge, with the integer scalings the
//               probe publishes (permille, ppm, milli) unfolded back
//               into human units
//   repl        one row per replication child (the `repl_child_*`
//               gauges a `smbcard --listen` parent publishes):
//               connected/alive liveness, acked sequence, replica flows
//   gauges      every other gauge — the flow residency set
//               (flow_live_flows, flow_nursery_flows, flow_live_bytes,
//               flow_hugepage_bytes, flow_slab_bytes, flow_cold_*, ...)
//               with `_bytes` gauges humanized to KiB/MiB/GiB and the
//               SMBZ1 `_ratio_milli` compression gauges rendered as
//               "N.NNx"
//   counters    each counter with its per-second rate since the previous
//               poll (blank on the first frame)
//   histograms  per-interval count and p50/p99 log-bucket bounds — the
//               cumulative histograms are differenced between polls so
//               the quantiles describe the last interval only
//
// --once renders a single frame without clearing and exits (CI smoke).
// smbcard replaces its --metrics-out file atomically, so a poll reads
// either a whole snapshot or none. A missing or unreadable file is not
// fatal in live mode: the last good frame is re-rendered with a [stale]
// badge until a poll succeeds again.

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/table_printer.h"
#include "numeric_flags.h"
#include "telemetry/snapshot.h"
#include "telemetry/snapshot_parser.h"

namespace {

using smb::TablePrinter;
using smb::telemetry::HistogramData;
using smb::telemetry::MetricSample;
using smb::telemetry::MetricsSnapshot;
using smb::telemetry::MetricType;

std::optional<MetricsSnapshot> ReadSnapshot(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  return smb::telemetry::ParseSnapshot(text);
}

bool EndsWith(const std::string& name, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
}

// Plain gauges: humanize `_bytes` values, render `_ratio_milli` gauges
// (the codec compression ratios) as "N.NNx", leave counts as integers.
std::string GaugeValue(const std::string& name, int64_t value) {
  if (EndsWith(name, "_ratio_milli")) {
    return TablePrinter::Fmt(static_cast<double>(value) / 1e3, 2) + "x";
  }
  if (EndsWith(name, "_bytes") && value >= 1024) {
    const char* units[] = {"KiB", "MiB", "GiB", "TiB"};
    double scaled = static_cast<double>(value);
    int unit = -1;
    while (scaled >= 1024.0 && unit + 1 < 4) {
      scaled /= 1024.0;
      ++unit;
    }
    return TablePrinter::Fmt(scaled, 1) + " " + units[unit];
  }
  return TablePrinter::FmtInt(value);
}

// Unfolds the health probe's integer scalings back into display units.
std::string HealthValue(const std::string& name, int64_t value) {
  if (EndsWith(name, "_permille")) {
    return TablePrinter::Fmt(static_cast<double>(value) / 10.0, 1) + " %";
  }
  if (EndsWith(name, "_ppm")) {
    return TablePrinter::Fmt(static_cast<double>(value) / 1e4, 2) + " %";
  }
  if (EndsWith(name, "_milli")) {
    return TablePrinter::Fmt(static_cast<double>(value) / 1e3, 2);
  }
  return GaugeValue(name, value);
}

const MetricSample* FindBefore(const MetricsSnapshot& prev,
                               const MetricSample& sample) {
  for (const MetricSample& candidate : prev.samples) {
    if (candidate.name == sample.name && candidate.labels == sample.labels &&
        candidate.type == sample.type) {
      return &candidate;
    }
  }
  return nullptr;
}

HistogramData DiffHistogram(const HistogramData& older,
                            const HistogramData& newer) {
  HistogramData diff;
  diff.buckets.resize(newer.buckets.size(), 0);
  for (size_t i = 0; i < newer.buckets.size(); ++i) {
    const uint64_t before = i < older.buckets.size() ? older.buckets[i] : 0;
    diff.buckets[i] = newer.buckets[i] > before ? newer.buckets[i] - before : 0;
  }
  diff.count = newer.count > older.count ? newer.count - older.count : 0;
  diff.sum = newer.sum > older.sum ? newer.sum - older.sum : 0;
  return diff;
}

std::string FmtQuantileBound(const HistogramData& histogram, double q) {
  const double bound =
      smb::telemetry::HistogramQuantileUpperBound(histogram, q);
  if (std::isinf(bound)) return "+Inf";
  return TablePrinter::FmtInt(static_cast<long long>(bound));
}

// Pivots the per-child replication gauges a `smbcard --listen` parent
// publishes into one row per child. Renders nothing when no
// `repl_child_*` gauges are present (the common, non-replicating case).
void RenderReplPane(const MetricsSnapshot& snapshot) {
  struct Row {
    int64_t connected = 0;
    int64_t alive = 0;
    int64_t acked_seq = 0;
    int64_t replica_flows = 0;
  };
  std::map<std::string, Row> rows;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.type != MetricType::kGauge) continue;
    if (sample.name.rfind("repl_child_", 0) != 0) continue;
    std::string child = "?";
    for (const auto& [key, value] : sample.labels) {
      if (key == "child") child = value;
    }
    Row& row = rows[child];
    if (sample.name == "repl_child_connected") {
      row.connected = sample.gauge_value;
    } else if (sample.name == "repl_child_alive") {
      row.alive = sample.gauge_value;
    } else if (sample.name == "repl_child_acked_seq") {
      row.acked_seq = sample.gauge_value;
    } else if (sample.name == "repl_child_replica_flows") {
      row.replica_flows = sample.gauge_value;
    }
  }
  if (rows.empty()) return;
  TablePrinter repl("repl children");
  repl.SetHeader({"child", "connected", "alive", "acked seq",
                  "replica flows"});
  for (const auto& [child, row] : rows) {
    repl.AddRow({child, row.connected != 0 ? "yes" : "no",
                 row.alive != 0 ? "yes" : "no",
                 TablePrinter::FmtInt(row.acked_seq),
                 TablePrinter::FmtInt(row.replica_flows)});
  }
  repl.Print();
}

void RenderFrame(const std::string& path, const MetricsSnapshot& snapshot,
                 const MetricsSnapshot* prev, double elapsed_seconds,
                 uint64_t frame, bool stale) {
  std::printf("smbtop — %s   frame %llu   %zu metric(s)%s\n", path.c_str(),
              static_cast<unsigned long long>(frame),
              snapshot.samples.size(),
              stale ? "   [stale]" : "");

  TablePrinter health("health");
  health.SetHeader({"gauge", "labels", "value"});
  size_t health_rows = 0;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.type != MetricType::kGauge) continue;
    if (sample.name.find("_health_") == std::string::npos) continue;
    health.AddRow({sample.name,
                   smb::telemetry::RenderLabels(sample.labels),
                   HealthValue(sample.name, sample.gauge_value)});
    ++health_rows;
  }
  if (health_rows > 0) {
    health.Print();
  } else {
    std::printf(
        "\n(no *_health_* gauges — run the producer with health probing, "
        "e.g. smbcard --per-flow)\n");
  }

  RenderReplPane(snapshot);

  TablePrinter gauges("gauges");
  gauges.SetHeader({"gauge", "labels", "value"});
  size_t gauge_rows = 0;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.type != MetricType::kGauge) continue;
    if (sample.name.find("_health_") != std::string::npos) continue;
    // The per-child replication gauges live in their own pane.
    if (sample.name.rfind("repl_child_", 0) == 0) continue;
    gauges.AddRow({sample.name,
                   smb::telemetry::RenderLabels(sample.labels),
                   GaugeValue(sample.name, sample.gauge_value)});
    ++gauge_rows;
  }
  if (gauge_rows > 0) gauges.Print();

  TablePrinter counters("counters");
  counters.SetHeader({"counter", "labels", "value", "/s"});
  size_t counter_rows = 0;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.type != MetricType::kCounter) continue;
    std::string rate;
    if (prev != nullptr && elapsed_seconds > 0.0) {
      const MetricSample* before = FindBefore(*prev, sample);
      const uint64_t was = before ? before->counter_value : 0;
      if (sample.counter_value >= was) {
        rate = TablePrinter::Fmt(
            static_cast<double>(sample.counter_value - was) / elapsed_seconds,
            1);
      }
    }
    counters.AddRow({sample.name,
                     smb::telemetry::RenderLabels(sample.labels),
                     TablePrinter::FmtInt(
                         static_cast<long long>(sample.counter_value)),
                     rate});
    ++counter_rows;
  }
  if (counter_rows > 0) counters.Print();

  TablePrinter histograms("histograms (interval)");
  histograms.SetHeader({"histogram", "labels", "count", "interval", "p50<=",
                        "p99<="});
  size_t histogram_rows = 0;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.type != MetricType::kHistogram) continue;
    std::string interval;
    std::string p50;
    std::string p99;
    const MetricSample* before =
        prev != nullptr ? FindBefore(*prev, sample) : nullptr;
    const HistogramData diff = DiffHistogram(
        before ? before->histogram : HistogramData{}, sample.histogram);
    interval = TablePrinter::FmtInt(static_cast<long long>(diff.count));
    if (diff.count > 0) {
      p50 = FmtQuantileBound(diff, 0.5);
      p99 = FmtQuantileBound(diff, 0.99);
    }
    histograms.AddRow({sample.name,
                       smb::telemetry::RenderLabels(sample.labels),
                       TablePrinter::FmtInt(
                           static_cast<long long>(sample.histogram.count)),
                       interval, p50, p99});
    ++histogram_rows;
  }
  if (histogram_rows > 0) histograms.Print();
}

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--interval SEC] [--once] FILE\n", argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double interval_seconds = 2.0;
  bool once = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--interval" && i + 1 < argc) {
      if (!smb::tools::ParseSecondsFlag(argv[++i], &interval_seconds)) {
        std::fprintf(stderr,
                     "--interval wants a positive number of seconds, at "
                     "most %llu\n",
                     static_cast<unsigned long long>(
                         smb::tools::kMaxFlagSeconds));
        return 2;
      }
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--help" || arg == "-h" || arg.rfind("--", 0) == 0) {
      return Usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (path.empty()) return Usage(argv[0]);

  if (once) {
    const std::optional<MetricsSnapshot> snapshot = ReadSnapshot(path);
    if (!snapshot.has_value()) {
      std::fprintf(stderr, "%s: not a readable metrics snapshot\n",
                   path.c_str());
      return 1;
    }
    RenderFrame(path, *snapshot, nullptr, 0.0, 1, /*stale=*/false);
    std::fflush(stdout);
    return 0;
  }

  std::optional<MetricsSnapshot> prev;
  auto prev_time = std::chrono::steady_clock::now();
  uint64_t frame = 0;
  while (true) {
    std::optional<MetricsSnapshot> snapshot = ReadSnapshot(path);
    const auto now = std::chrono::steady_clock::now();
    if (snapshot.has_value()) {
      ++frame;
      const double elapsed =
          std::chrono::duration<double>(now - prev_time).count();
      std::printf("\x1b[H\x1b[2J");
      RenderFrame(path, *snapshot, prev.has_value() ? &*prev : nullptr,
                  elapsed, frame, /*stale=*/false);
      std::fflush(stdout);
      prev = std::move(snapshot);
      prev_time = now;
    } else if (prev.has_value()) {
      // The file went missing or unreadable. Re-render the last good
      // frame with a [stale] badge and keep retrying. Rates
      // are suppressed (prev == nullptr) — the baseline is this same
      // stale frame, so any rate shown would be a fabricated zero.
      std::printf("\x1b[H\x1b[2J");
      RenderFrame(path, *prev, nullptr, 0.0, frame, /*stale=*/true);
      std::fflush(stdout);
    } else {
      // Nothing good has ever been read: an error the user should see.
      std::fprintf(stderr, "%s: not a readable metrics snapshot\n",
                   path.c_str());
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(interval_seconds));
  }
}
