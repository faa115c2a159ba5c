// One runner per smbcard mode, and the helpers they share.

#ifndef SMBCARD_TOOLS_SMBCARD_CLI_RUNNERS_H_
#define SMBCARD_TOOLS_SMBCARD_CLI_RUNNERS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "estimators/estimator_factory.h"
#include "io/checkpoint_store.h"
#include "smbcard_cli/options.h"

namespace smb::cli {

// Each returns the process exit code.
int RunSingle(const CliOptions& options);    // single.cc
int RunSnapshot(const CliOptions& options);  // single.cc
int RunAll(const CliOptions& options);       // single.cc
int RunSharded(const CliOptions& options);   // sharded.cc
int RunPerFlow(const CliOptions& options);   // per_flow.cc, child too
int RunParent(const CliOptions& options);    // parent.cc

// Feeds every line of the input FILEs (stdin when none) to `feed` and
// returns the line count. A FILE that cannot be opened exits 1.
template <typename Feed>
uint64_t FeedAllInputs(const CliOptions& options, Feed feed) {
  auto feed_stream = [&](std::istream& in) {
    uint64_t lines = 0;
    std::string line;
    while (std::getline(in, line)) {
      feed(line);
      ++lines;
    }
    return lines;
  };
  if (options.inputs.empty()) return feed_stream(std::cin);
  uint64_t total = 0;
  for (const std::string& path : options.inputs) {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      std::exit(1);
    }
    total += feed_stream(file);
  }
  return total;
}

// Monotonic milliseconds for the replication state machines; only
// differences matter.
uint64_t NowMs();

// Prints the `top_k` largest spreads as `flow<TAB>estimate` lines, by
// estimate descending, then flow ascending.
void PrintTopSpreads(std::vector<std::pair<uint64_t, double>> spreads,
                     size_t top_k);

// True at most once per `seconds` (never for 0), first one interval
// after construction — or at the first poll with `due_now`; the caller
// polls it from its own loop.
class Interval {
 public:
  explicit Interval(uint64_t seconds, bool due_now = false)
      : period_(seconds),
        last_(std::chrono::steady_clock::now() -
              (due_now ? period_ : std::chrono::seconds(0))) {}
  bool on() const { return period_.count() > 0; }
  bool Due();

 private:
  std::chrono::seconds period_;
  std::chrono::steady_clock::time_point last_;
};

// --checkpoint-dir and --checkpoint-interval for the single and sharded
// runners. Does nothing when --checkpoint-dir is not given.
class Checkpointer {
 public:
  // Opens the store and hands the newest valid generation to `resume`,
  // which returns false when the payload does not fit this run (the run
  // then starts fresh). Returns false, after saying why, when `kind` has
  // no snapshot format.
  bool Open(const CliOptions& options, EstimatorKind kind,
            const std::function<bool(const std::vector<uint8_t>&)>& resume);

  bool enabled() const { return store_ != nullptr; }
  // True when periodic checkpoints are on.
  bool periodic() const { return enabled() && interval_.on(); }
  // True once the interval has passed since the last Due() that returned
  // true (or since Open).
  bool Due() { return periodic() && interval_.Due(); }
  // Writes one generation; false (said on stderr when the store fails)
  // when nothing was written.
  bool Write(const std::optional<std::vector<uint8_t>>& payload);

 private:
  std::unique_ptr<io::CheckpointStore> store_;
  Interval interval_{0};
};

}  // namespace smb::cli

#endif  // SMBCARD_TOOLS_SMBCARD_CLI_RUNNERS_H_
