#include "repl/delta_spool.h"

#include <algorithm>
#include <filesystem>
#include <string_view>

#include "common/macros.h"
#include "fault/failpoints.h"
#include "io/file_util.h"
#include "io/frame_codec.h"

namespace smb::repl {
namespace {

namespace fs = std::filesystem;

constexpr char kSpoolMagic[8] = {'S', 'M', 'B', 'S', 'P', 'O', 'O', 'L'};
constexpr size_t kSpoolChunkBytes = 64 * 1024;
constexpr std::string_view kMarkerName = "acked.smbspoolmark";
constexpr std::string_view kFilePrefix = "delta-";
constexpr std::string_view kFileSuffix = ".smbspool";

}  // namespace

DeltaSpool::DeltaSpool(const Options& options) : options_(options) {
  SMB_CHECK_MSG(!options.directory.empty(), "DeltaSpool needs a directory");
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  Recover();
}

std::string DeltaSpool::DeltaPath(uint64_t seq) const {
  return options_.directory + "/" +
         io::NumberedFileName(kFilePrefix, seq, kFileSuffix);
}

std::string DeltaSpool::MarkerPath() const {
  return options_.directory + "/" + std::string(kMarkerName);
}

void DeltaSpool::Recover() {
  index_.clear();
  pending_bytes_ = 0;
  trimmed_high_water_ = 0;
  std::error_code ec;
  // Staged files a crash left behind never reached their final names.
  io::SweepTempFiles(options_.directory);

  // Trim marker first: files at or below it are leftovers of a trim that
  // died between marker persist and unlink (trim is idempotent).
  std::string error;
  io::FrameDefect defect = io::FrameDefect::kNone;
  if (!io::ReadFramedFile(MarkerPath(), kSpoolMagic, std::nullopt, nullptr,
                          &error, &defect, &trimmed_high_water_) &&
      defect != io::FrameDefect::kUnreadable) {
    fs::remove(MarkerPath(), ec);
  }

  for (const uint64_t seq :
       io::ListNumberedFiles(options_.directory, kFilePrefix, kFileSuffix)) {
    const std::string path = DeltaPath(seq);
    const uintmax_t size = fs::file_size(path, ec);
    if (seq <= trimmed_high_water_) {
      // A fully-acked segment left behind by a trim that died between
      // marker persist and unlink: reclaiming it now is the same
      // reclamation, just a restart late.
      if (!ec) reclaimed_bytes_ += static_cast<uint64_t>(size);
      fs::remove(path, ec);
      continue;
    }
    // A spool file must round-trip the codec with the right tag; a torn
    // or rotted file is dropped here (it would be rejected by the parent
    // anyway) and its data is simply lost from the retransmit window.
    if (ec || !io::ReadFramedFile(path, kSpoolMagic, seq, nullptr, &error)) {
      fs::remove(path, ec);
      ++corrupt_dropped_;
      continue;
    }
    index_[seq] = static_cast<size_t>(size);
    pending_bytes_ += static_cast<size_t>(size);
  }
}

DeltaSpool::AppendStatus DeltaSpool::Append(uint64_t seq,
                                            std::span<const uint8_t> payload,
                                            std::string* error) {
  const std::vector<uint8_t> image =
      io::BuildFramedImage(kSpoolMagic, seq, payload, kSpoolChunkBytes);
  if (options_.budget_bytes != 0 &&
      pending_bytes_ + image.size() > options_.budget_bytes) {
    return AppendStatus::kBudget;
  }
  return Store(seq, image, error) ? AppendStatus::kOk : AppendStatus::kError;
}

bool DeltaSpool::Store(uint64_t seq, std::span<const uint8_t> image,
                       std::string* error) {
  if (!io::ReplaceFile(DeltaPath(seq), image, options_.sync, "spool",
                       error)) {
    return false;
  }
  const bool inserted = index_.emplace(seq, image.size()).second;
  SMB_CHECK_MSG(inserted, "DeltaSpool seq reuse");
  pending_bytes_ += image.size();
  return true;
}

bool DeltaSpool::Read(uint64_t seq, std::vector<uint8_t>* payload,
                      std::string* error) const {
  const auto it = index_.find(seq);
  if (it == index_.end()) {
    *error = "seq not spooled";
    return false;
  }
  if (SMB_FAILPOINT("spool.read.error").fired) {
    *error = "injected read error";
    return false;
  }
  return io::ReadFramedFile(DeltaPath(seq), kSpoolMagic, seq, payload,
                            error);
}

bool DeltaSpool::Renumber(uint64_t first, uint64_t target,
                          std::string* error) {
  std::vector<uint64_t> seqs;
  for (auto it = index_.lower_bound(first); it != index_.end(); ++it) {
    seqs.push_back(it->first);
  }
  // Newest first: every delta moves up or stays, so none lands on a
  // number still in use.
  for (size_t i = seqs.size(); i-- > 0;) {
    const uint64_t from = seqs[i];
    const uint64_t to = target + i;
    if (from == to) continue;
    SMB_CHECK_MSG(from < to, "DeltaSpool::Renumber moves deltas up only");
    std::vector<uint8_t> payload;
    if (!Read(from, &payload, error) ||
        !Store(to,
               io::BuildFramedImage(kSpoolMagic, to, payload,
                                    kSpoolChunkBytes),
               error)) {
      return false;
    }
    std::error_code ec;
    fs::remove(DeltaPath(from), ec);
    pending_bytes_ -= index_[from];
    index_.erase(from);
  }
  return true;
}

void DeltaSpool::TrimThrough(uint64_t high_water) {
  if (high_water <= trimmed_high_water_) return;
  // The marker must be durable before any acked file goes: without it a
  // restart would resume below `high_water` and reuse sequence numbers
  // the parent already applied. When it cannot be written nothing is
  // trimmed; the next cumulative ack (or heartbeat re-ack) retries.
  const std::vector<uint8_t> marker =
      io::BuildFramedImage(kSpoolMagic, high_water, {}, kSpoolChunkBytes);
  std::string error;
  if (!io::ReplaceFile(MarkerPath(), marker, options_.sync, "spool",
                       &error)) {
    return;
  }
  trimmed_high_water_ = high_water;
  std::error_code ec;
  auto it = index_.begin();
  while (it != index_.end() && it->first <= high_water) {
    fs::remove(DeltaPath(it->first), ec);
    pending_bytes_ -= it->second;
    reclaimed_bytes_ += it->second;
    it = index_.erase(it);
  }
}

std::vector<uint64_t> DeltaSpool::PendingSeqs() const {
  std::vector<uint64_t> seqs;
  seqs.reserve(index_.size());
  for (const auto& entry : index_) seqs.push_back(entry.first);
  return seqs;
}

uint64_t DeltaSpool::NextSeqFloor() const {
  const uint64_t newest_spooled =
      index_.empty() ? 0 : index_.rbegin()->first;
  return std::max(trimmed_high_water_, newest_spooled) + 1;
}

}  // namespace smb::repl
