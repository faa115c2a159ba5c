#include <poll.h>
#include <unistd.h>

#include <cerrno>

#include "smbcard_cli/runners.h"

namespace smb::cli {

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void PrintTopSpreads(std::vector<std::pair<uint64_t, double>> spreads,
                     size_t top_k) {
  const size_t k = std::min(top_k, spreads.size());
  std::partial_sort(spreads.begin(),
                    spreads.begin() + static_cast<std::ptrdiff_t>(k),
                    spreads.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  for (size_t i = 0; i < k; ++i) {
    std::printf("%llu\t%.0f\n",
                static_cast<unsigned long long>(spreads[i].first),
                spreads[i].second);
  }
}

int64_t ReadWithin(int fd, char* buffer, size_t size, int wait_ms) {
  if (wait_ms >= 0) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready == 0 || (ready < 0 && errno == EINTR)) return -1;
    if (ready < 0) return 0;
  }
  const ssize_t got = ::read(fd, buffer, size);
  if (got >= 0) return got;
  if (errno == EINTR) return -1;
  if (errno == EAGAIN) {
    // A non-blocking descriptor with nothing to read yet: wait as told.
    pollfd pfd{fd, POLLIN, 0};
    ::poll(&pfd, 1, wait_ms);
    return -1;
  }
  return 0;  // an error std::getline stops at too
}

bool Checkpointer::Open(
    const CliOptions& options, EstimatorKind kind,
    const std::function<bool(const std::vector<uint8_t>&)>& resume) {
  if (options.checkpoint_dir.empty()) return true;
  if (!KindSupportsSerialization(kind)) {
    std::fprintf(stderr,
                 "--checkpoint-dir needs a serializable estimator "
                 "(SMB, HLL++); %s has no snapshot format\n",
                 options.algo.c_str());
    return false;
  }
  io::CheckpointStore::Options store_options;
  store_options.directory = options.checkpoint_dir;
  store_ = std::make_unique<io::CheckpointStore>(store_options);
  interval_ = Interval(options.checkpoint_interval_s);

  const auto recovered = store_->RecoverLatest();
  for (const std::string& skipped : recovered.skipped) {
    std::fprintf(stderr, "checkpoint skipped: %s\n", skipped.c_str());
  }
  if (recovered.ok) {
    const auto generation =
        static_cast<unsigned long long>(recovered.generation);
    if (resume(recovered.payload)) {
      std::fprintf(stderr, "resumed from checkpoint generation %llu\n",
                   generation);
    } else {
      std::fprintf(stderr,
                   "checkpoint generation %llu does not match this run; "
                   "starting fresh\n",
                   generation);
    }
  }
  return true;
}

bool Interval::Due() {
  if (!on()) return false;
  const auto now = std::chrono::steady_clock::now();
  if (now - last_ < period_) return false;
  last_ = now;
  return true;
}

bool Checkpointer::Write(const std::optional<std::vector<uint8_t>>& payload) {
  if (!payload.has_value()) return false;
  const auto result = store_->Write(*payload);
  if (!result.ok) {
    std::fprintf(stderr, "checkpoint write failed: %s\n",
                 result.error.c_str());
  }
  return result.ok;
}

}  // namespace smb::cli
