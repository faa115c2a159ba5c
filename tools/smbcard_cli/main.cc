// smbcard — command-line cardinality estimation over newline-delimited
// items (a sketch-backed `sort -u | wc -l`), per flow, sharded, or
// replicated between processes. `smbcard --help` lists the run modes and
// every flag.
//
// Examples:
//   cat access.log | awk '{print $1}' | smbcard
//   smbcard --algo HLL++ --memory 5000 urls.txt
//   smbcard --save day1.smb < day1.txt
//   smbcard --load day1.smb < day2.txt   # cardinality of day1 ∪ day2

#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include "fault/failpoints.h"
#include "io/file_util.h"
#include "smbcard_cli/runners.h"
#include "telemetry/exporter.h"
#include "telemetry/metrics_registry.h"
#include "trace/flight_recorder.h"

namespace smb::cli {
namespace {

// Serializes the global registry into `path` as Prometheus text, whatever
// the extension. The snapshot is staged and renamed into place
// (io::ReplaceFile, failpoint metrics.rename.error), so a reader (smbtop)
// sees either the previous snapshot or the new one, never a prefix.
// Returns false when the file cannot be (fully) written.
bool WriteMetricsSnapshot(const std::string& path) {
  const std::string text = telemetry::ToPrometheusText(
      telemetry::MetricsRegistry::Global().Snapshot());
  std::string error;
  return io::ReplaceFile(
      path,
      std::span(reinterpret_cast<const uint8_t*>(text.data()), text.size()),
      /*sync=*/false, "metrics", &error);
}

// Rewrites --metrics-out every interval while a runner runs. Final
// snapshots are main()'s job; this only covers the in-flight window.
class PeriodicMetricsWriter {
 public:
  PeriodicMetricsWriter(std::string path, uint64_t interval_s)
      : path_(std::move(path)) {
    if (interval_s == 0) return;
    thread_ = std::thread([this, interval_s] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_requested_) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(interval_s);
        if (cv_.wait_until(lock, deadline,
                           [this] { return stop_requested_; })) {
          break;
        }
        WriteMetricsSnapshot(path_);  // best effort; final write reports
      }
    });
  }

  ~PeriodicMetricsWriter() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_requested_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::string path_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

// Fails before any input is read when an output location is unusable.
// The metrics probe creates the staging file, and the flight-recorder
// probe appends, so an existing capture is not clobbered by a run that
// then dies on bad input. A --metrics-out that exists but is not a
// regular file (/dev/null, a FIFO) is refused: the snapshot rename would
// replace it.
bool ProbeOutputs(const CliOptions& options) {
  namespace fs = std::filesystem;
  if (!options.checkpoint_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options.checkpoint_dir, ec);
    const fs::path probe_path =
        fs::path(options.checkpoint_dir) / ".smbcard-probe";
    const bool writable = static_cast<bool>(std::ofstream(probe_path));
    if (!writable) {
      std::fprintf(stderr, "cannot write checkpoints to %s\n",
                   options.checkpoint_dir.c_str());
      return false;
    }
    fs::remove(probe_path, ec);
  }
  if (!options.metrics_out.empty()) {
    std::error_code ec;
    const fs::file_status target = fs::status(options.metrics_out, ec);
    const std::string staging = io::StagingPath(options.metrics_out);
    const bool writable =
        (!fs::exists(target) || fs::is_regular_file(target)) &&
        static_cast<bool>(std::ofstream(staging));
    std::remove(staging.c_str());
    if (!writable) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   options.metrics_out.c_str());
      return false;
    }
  }
  if (!options.flight_recorder_out.empty() &&
      !std::ofstream(options.flight_recorder_out, std::ios::app)) {
    std::fprintf(stderr, "cannot write flight recorder to %s\n",
                 options.flight_recorder_out.c_str());
    return false;
  }
  return true;
}

int Run(const CliOptions& options) {
  switch (options.mode) {
    case Mode::kParent:
      return RunParent(options);
    case Mode::kChild:
    case Mode::kPerFlow:
      return RunPerFlow(options);
    case Mode::kSharded:
      return RunSharded(options);
    case Mode::kAll:
      return RunAll(options);
    case Mode::kSnapshot:
      return RunSnapshot(options);
    case Mode::kSingle:
      return RunSingle(options);
  }
  return 2;
}

}  // namespace
}  // namespace smb::cli

int main(int argc, char** argv) {
  using namespace smb::cli;
  const CliOptions options = ParseArgs(argc, argv);
  // Parse SMBCARD_FAILPOINTS now: a malformed string aborts here, before
  // any input is read, rather than at the first failpoint site (which a
  // run without checkpoints or replication never reaches).
  smb::fault::FailpointRegistry::Global();
  if (!ProbeOutputs(options)) return 2;
  if (!options.flight_recorder_out.empty()) {
    // Arm the crash path first so a mid-run fatal signal still leaves a
    // black box; the on-success dump below overwrites it with the full
    // end-of-run history.
    smb::trace::InstallCrashHandler(options.flight_recorder_out.c_str());
  }

  int rc;
  {
    PeriodicMetricsWriter periodic(options.metrics_out,
                                   options.metrics_interval_s);
    rc = Run(options);
  }
  if (!options.metrics_out.empty() &&
      !WriteMetricsSnapshot(options.metrics_out)) {
    std::fprintf(stderr, "cannot write metrics to %s\n",
                 options.metrics_out.c_str());
    return rc == 0 ? 1 : rc;
  }
  if (!options.flight_recorder_out.empty()) {
    std::string error;
    if (!smb::trace::FlightRecorder::Global().DumpTo(
            options.flight_recorder_out, &error)) {
      std::fprintf(stderr, "cannot write flight recorder: %s\n",
                   error.c_str());
      return rc == 0 ? 1 : rc;
    }
  }
  return rc;
}
