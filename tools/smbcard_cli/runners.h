// One runner per smbcard mode, and the helpers they share.

#ifndef SMBCARD_TOOLS_SMBCARD_CLI_RUNNERS_H_
#define SMBCARD_TOOLS_SMBCARD_CLI_RUNNERS_H_

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
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

// Reads up to `size` bytes of `fd` into `buffer`, waiting at most
// `wait_ms` for input (without limit when negative). Returns the byte
// count; 0 at end of input or on a read error; -1 when nothing was read
// yet (the wait ran out or a signal came), so the caller checks its
// deadline and calls again.
int64_t ReadWithin(int fd, char* buffer, size_t size, int wait_ms);

// Feeds the lines of `fd` to `feed`, split as std::getline splits them,
// and returns the line count. With `period_ms` nonzero, reads wait for
// input against a deadline, and `due` runs between lines each time
// `period_ms` passes, whether or not input went quiet.
template <typename Feed, typename Due>
uint64_t FeedLines(int fd, uint64_t period_ms, Feed& feed, Due& due) {
  using Clock = std::chrono::steady_clock;
  const auto period = std::chrono::milliseconds(period_ms);
  auto deadline = Clock::now() + period;
  std::vector<char> buffer(size_t{1} << 16);
  std::string line;  // the unfinished line so far
  uint64_t lines = 0;
  while (true) {
    int wait_ms = -1;
    if (period_ms > 0) {
      const auto now = Clock::now();
      if (now >= deadline) {
        due();
        deadline = Clock::now() + period;
        continue;
      }
      // poll() takes an int of milliseconds; an interval near the flag's
      // one-year cap would overflow it.
      wait_ms = static_cast<int>(std::min<int64_t>(
          std::chrono::ceil<std::chrono::milliseconds>(deadline - now)
              .count(),
          std::numeric_limits<int>::max()));
    }
    const int64_t got = ReadWithin(fd, buffer.data(), buffer.size(), wait_ms);
    if (got < 0) continue;
    if (got == 0) break;
    const char* at = buffer.data();
    const char* end = at + got;
    while (const char* newline = static_cast<const char*>(
               std::memchr(at, '\n', static_cast<size_t>(end - at)))) {
      line.append(at, newline);
      feed(line);
      ++lines;
      line.clear();
      at = newline + 1;
    }
    line.append(at, end);
  }
  if (!line.empty()) {
    feed(line);
    ++lines;
  }
  return lines;
}

// Feeds every line of the input FILEs (stdin when none) to `feed` and
// returns the line count. A FILE that cannot be opened exits 1. With
// --metrics-interval on, input is read against a deadline of half the
// interval, and `due` runs each time it passes: the caller records its
// partial slice or batch there, so a stream slower than one slice per
// interval shows in the next snapshot instead of a slice late.
template <typename Feed, typename Due>
uint64_t FeedAllInputs(const CliOptions& options, Feed feed, Due due) {
  const uint64_t period_ms = options.metrics_interval_s * 500;
  if (options.inputs.empty()) {
    return FeedLines(STDIN_FILENO, period_ms, feed, due);
  }
  uint64_t total = 0;
  for (const std::string& path : options.inputs) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      std::exit(1);
    }
    total += FeedLines(fd, period_ms, feed, due);
    ::close(fd);
  }
  return total;
}
template <typename Feed>
uint64_t FeedAllInputs(const CliOptions& options, Feed feed) {
  return FeedAllInputs(options, feed, [] {});
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
