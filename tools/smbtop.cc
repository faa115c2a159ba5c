// smbtop — terminal dashboard over the Prometheus-text metric snapshots
// `smbcard --metrics-out FILE` writes, live or from saved captures.
//
// Usage:
//   smbtop [--interval SEC] FILE             live, one frame per poll
//   smbtop --once [--interval SEC] [OLD] NEW one frame, then exit
//
// Live mode polls FILE every SEC seconds (default 2), clears the screen
// and renders NEW with the previous poll as the baseline. --once NEW
// renders one frame with no baseline, so the interval columns cover
// everything the capture holds. --once OLD NEW renders NEW with OLD as
// the baseline (a metric absent from OLD starts from zero); there SEC is
// the time between the two captures and turns on the /s columns, which
// stay blank without --interval.
//
// Panes:
//   health      every `*_health_*` gauge, with the integer scalings the
//               probe publishes (permille, ppm, milli) unfolded back
//               into human units, exactly
//   repl        one row per replication child (the `repl_child_*`
//               gauges a `smbcard --listen` parent publishes):
//               connected/alive liveness, acked sequence, replica flows
//   gauges      every other gauge — the flow residency set
//               (flow_live_flows, flow_nursery_flows, flow_live_bytes,
//               ...), the per-child replication gauges again, `_bytes`
//               gauges with KiB/MiB/GiB beside the exact value and the
//               SMBZ1 `_ratio_milli` compression gauges as "N.NNNx"
//   counters    each counter with its increment since the baseline
//               ("reset" when it went backwards) and per-second rate
//   histograms  cumulative count and sum, then the interval count, rate
//               and p50/p99 log-bucket bounds — the cumulative
//               histograms are differenced against the baseline so the
//               quantiles describe that interval only
// Health and gauge rows carry the signed change since the baseline, in
// the snapshot's integer units.
//
// smbcard replaces its --metrics-out file atomically, so a poll reads
// either a whole snapshot or none. A missing or unreadable file is not
// fatal in live mode: the last good frame is re-rendered with a [stale]
// badge until a poll succeeds again.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
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
  return smb::telemetry::ParsePrometheusText(text);
}

bool EndsWith(const std::string& name, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
}

// Plain gauges: `_bytes` values get KiB/MiB/GiB beside the exact count,
// `_ratio_milli` gauges (the codec compression ratios) read "N.NNNx",
// counts stay integers.
std::string GaugeValue(const std::string& name, int64_t value) {
  if (EndsWith(name, "_ratio_milli")) {
    return TablePrinter::Fmt(static_cast<double>(value) / 1e3, 3) + "x";
  }
  if (EndsWith(name, "_bytes") && value >= 1024) {
    const char* units[] = {"KiB", "MiB", "GiB", "TiB"};
    double scaled = static_cast<double>(value);
    int unit = -1;
    while (scaled >= 1024.0 && unit + 1 < 4) {
      scaled /= 1024.0;
      ++unit;
    }
    return TablePrinter::FmtInt(value) + " (" + TablePrinter::Fmt(scaled, 1) +
           " " + units[unit] + ")";
  }
  return TablePrinter::FmtInt(value);
}

// Unfolds the health probe's integer scalings back into display units,
// with enough decimals that no digit of the gauge is lost.
std::string HealthValue(const std::string& name, int64_t value) {
  if (EndsWith(name, "_permille")) {
    return TablePrinter::Fmt(static_cast<double>(value) / 10.0, 1) + " %";
  }
  if (EndsWith(name, "_ppm")) {
    return TablePrinter::Fmt(static_cast<double>(value) / 1e4, 4) + " %";
  }
  if (EndsWith(name, "_milli")) {
    return TablePrinter::Fmt(static_cast<double>(value) / 1e3, 3);
  }
  return GaugeValue(name, value);
}

const MetricSample* FindBefore(const MetricsSnapshot* prev,
                               const MetricSample& sample) {
  if (prev == nullptr) return nullptr;
  for (const MetricSample& candidate : prev->samples) {
    if (candidate.name == sample.name && candidate.labels == sample.labels &&
        candidate.type == sample.type) {
      return &candidate;
    }
  }
  return nullptr;
}

// Bucket-wise difference newer - older, clamped at zero (a cumulative
// histogram never shrinks; a negative bucket means a process restart and
// the clamp keeps the quantile math sane).
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

std::string FmtCount(uint64_t value) {
  return TablePrinter::FmtInt(static_cast<long long>(value));
}

// `count` over the interval as a per-second rate; blank without one.
std::string FmtRate(uint64_t count, double elapsed_seconds) {
  if (elapsed_seconds <= 0.0) return "";
  return TablePrinter::Fmt(static_cast<double>(count) / elapsed_seconds, 1);
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

// Prints one row per gauge `keep` accepts, shown through `format`, with
// its signed change since `prev`. Returns the row count.
template <typename Keep, typename Format>
size_t RenderGaugePane(const char* title, const MetricsSnapshot& snapshot,
                       const MetricsSnapshot* prev, Keep keep,
                       Format format) {
  TablePrinter pane(title);
  pane.SetHeader({"gauge", "labels", "value", "change"});
  size_t rows = 0;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.type != MetricType::kGauge || !keep(sample.name)) continue;
    std::string change;
    if (prev != nullptr) {
      const MetricSample* before = FindBefore(prev, sample);
      change = TablePrinter::FmtInt(sample.gauge_value -
                                    (before ? before->gauge_value : 0));
    }
    pane.AddRow({sample.name, smb::telemetry::RenderLabels(sample.labels),
                 format(sample.name, sample.gauge_value), change});
    ++rows;
  }
  if (rows > 0) pane.Print();
  return rows;
}

bool IsHealthGauge(const std::string& name) {
  return name.find("_health_") != std::string::npos;
}

// Renders `snapshot` against the baseline `prev` (nullptr: none). Rates
// need elapsed_seconds > 0.
void RenderFrame(const std::string& title, const MetricsSnapshot& snapshot,
                 const MetricsSnapshot* prev, double elapsed_seconds,
                 uint64_t frame, bool stale) {
  if (prev == nullptr) elapsed_seconds = 0.0;
  std::printf("smbtop — %s   frame %llu   %zu metric(s)", title.c_str(),
              static_cast<unsigned long long>(frame),
              snapshot.samples.size());
  if (elapsed_seconds > 0.0) {
    std::printf("   over %s s", TablePrinter::Fmt(elapsed_seconds, 1).c_str());
  }
  std::printf("%s\n", stale ? "   [stale]" : "");

  if (RenderGaugePane("health", snapshot, prev, IsHealthGauge,
                      HealthValue) == 0) {
    std::printf(
        "\n(no *_health_* gauges — run the producer with health probing, "
        "e.g. smbcard --per-flow)\n");
  }
  RenderReplPane(snapshot);
  RenderGaugePane(
      "gauges", snapshot, prev,
      [](const std::string& name) { return !IsHealthGauge(name); },
      GaugeValue);

  TablePrinter counters("counters");
  counters.SetHeader({"counter", "labels", "value", "increment", "/s"});
  size_t counter_rows = 0;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.type != MetricType::kCounter) continue;
    std::string increment;
    std::string rate;
    if (prev != nullptr) {
      const MetricSample* before = FindBefore(prev, sample);
      const uint64_t was = before ? before->counter_value : 0;
      if (sample.counter_value < was) {
        increment = "reset";
      } else {
        increment = FmtCount(sample.counter_value - was);
        rate = FmtRate(sample.counter_value - was, elapsed_seconds);
      }
    }
    counters.AddRow({sample.name,
                     smb::telemetry::RenderLabels(sample.labels),
                     FmtCount(sample.counter_value), increment, rate});
    ++counter_rows;
  }
  if (counter_rows > 0) counters.Print();

  TablePrinter histograms("histograms (interval)");
  histograms.SetHeader({"histogram", "labels", "count", "sum", "interval",
                        "/s", "p50<=", "p99<="});
  size_t histogram_rows = 0;
  for (const MetricSample& sample : snapshot.samples) {
    if (sample.type != MetricType::kHistogram) continue;
    const MetricSample* before = FindBefore(prev, sample);
    const HistogramData diff = DiffHistogram(
        before ? before->histogram : HistogramData{}, sample.histogram);
    std::string p50;
    std::string p99;
    if (diff.count > 0) {
      p50 = FmtQuantileBound(diff, 0.5);
      p99 = FmtQuantileBound(diff, 0.99);
    }
    histograms.AddRow({sample.name,
                       smb::telemetry::RenderLabels(sample.labels),
                       FmtCount(sample.histogram.count),
                       FmtCount(sample.histogram.sum), FmtCount(diff.count),
                       FmtRate(diff.count, elapsed_seconds), p50, p99});
    ++histogram_rows;
  }
  if (histogram_rows > 0) histograms.Print();
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--interval SEC] FILE\n"
               "       %s --once [--interval SEC] [OLD] NEW\n",
               argv0, argv0);
  return 2;
}

int Unreadable(const std::string& path) {
  std::fprintf(stderr, "%s: not a readable metrics snapshot\n",
               path.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<double> interval_seconds;
  bool once = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--interval" && i + 1 < argc) {
      double seconds = 0.0;
      if (!smb::tools::ParseSecondsFlag(argv[++i], &seconds)) {
        std::fprintf(stderr,
                     "--interval wants a positive number of seconds, at "
                     "most %llu\n",
                     static_cast<unsigned long long>(
                         smb::tools::kMaxFlagSeconds));
        return 2;
      }
      interval_seconds = seconds;
    } else if (arg == "--once") {
      once = true;
    } else if (arg.rfind("-", 0) == 0) {
      return Usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty() || paths.size() > (once ? 2u : 1u)) {
    return Usage(argv[0]);
  }

  if (once) {
    std::optional<MetricsSnapshot> older;
    if (paths.size() == 2) {
      older = ReadSnapshot(paths[0]);
      if (!older.has_value()) return Unreadable(paths[0]);
    }
    const std::optional<MetricsSnapshot> newer = ReadSnapshot(paths.back());
    if (!newer.has_value()) return Unreadable(paths.back());
    const std::string title =
        older.has_value() ? paths[0] + " -> " + paths[1] : paths[0];
    RenderFrame(title, *newer, older.has_value() ? &*older : nullptr,
                interval_seconds.value_or(0.0), 1, /*stale=*/false);
    std::fflush(stdout);
    return 0;
  }

  const std::string& path = paths[0];
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
      // frame with a [stale] badge and keep retrying. Rates and changes
      // are suppressed (prev == nullptr) — the baseline is this same
      // stale frame, so any value shown would be a fabricated zero.
      std::printf("\x1b[H\x1b[2J");
      RenderFrame(path, *prev, nullptr, 0.0, frame, /*stale=*/true);
      std::fflush(stdout);
    } else {
      // Nothing good has ever been read: an error the user should see.
      Unreadable(path);
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(interval_seconds.value_or(2.0)));
  }
}
