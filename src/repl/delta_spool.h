// DeltaSpool — the child's bounded on-disk retransmit buffer
// (DESIGN.md §16).
//
// Every delta a child cuts is spooled BEFORE it is offered to the
// socket: one file per delta, named by sequence number, each framed with
// the exact chunked CRC-32C image codec the checkpoint files use
// (io/frame_codec.h, magic "SMBSPOOL", tag = seq). A parent outage
// therefore degrades to local buffering — the child keeps recording and
// spooling — and on reconnect (or child restart) everything past the
// parent's acked high-water replays from disk.
//
// The spool is bounded by a byte budget. When an Append would cross it
// the spool refuses (kBudget) and the caller applies its shed policy;
// refusal happens before a sequence number is consumed, so shedding can
// never leave a gap in the sequence space.
//
// A small marker file (same framing, empty payload, tag = high-water)
// persists the newest trimmed (acked) sequence. After a child restart
// the next sequence resumes past both the marker and any spooled file,
// so a reused sequence number can never collide with one the parent
// already applied. A marker that fails its CRC is dropped; the child
// then renumbers its new deltas past the parent's mark (Renumber) at
// its first hello-ack.
//
// Files are written through io::ReplaceFile (failpoint prefix "spool"):
// a failed delta write consumes no sequence number, a failed marker
// write trims nothing, and Recover() sweeps a crash's staged .tmp files.

#ifndef SMBCARD_REPL_DELTA_SPOOL_H_
#define SMBCARD_REPL_DELTA_SPOOL_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace smb::repl {

class DeltaSpool {
 public:
  struct Options {
    // Directory holding the spool files; created (with parents) when
    // missing.
    std::string directory;
    // Byte ceiling over all spooled delta files; 0 = unlimited.
    size_t budget_bytes = 0;
    // fsync spool files and the directory (tests disable to spare IO;
    // the spool is a retransmit buffer, not the system of record, so
    // losing it to a crash only widens the re-send window). A failed
    // file fsync fails the write.
    bool sync = false;
  };

  enum class AppendStatus : uint8_t {
    kOk = 0,
    kBudget,  // budget would be crossed; nothing written, no seq consumed
    kError,   // IO failure (error string filled)
  };

  explicit DeltaSpool(const Options& options);

  DeltaSpool(const DeltaSpool&) = delete;
  DeltaSpool& operator=(const DeltaSpool&) = delete;

  // Scans the directory: sweeps stale .tmp files, rebuilds the pending
  // index from valid spool files (corrupt ones are deleted and counted)
  // and loads the trim marker. Called by the constructor; exposed for
  // tests.
  void Recover();

  // Spools `payload` under `seq`. Refuses (kBudget) when the framed file
  // would push PendingBytes() past the budget.
  AppendStatus Append(uint64_t seq, std::span<const uint8_t> payload,
                      std::string* error);

  // Reads one spooled delta back; false when missing or corrupt.
  // Failpoint: spool.read.error.
  bool Read(uint64_t seq, std::vector<uint8_t>* payload,
            std::string* error) const;

  // Moves every pending delta with seq >= first, in order, to the
  // consecutive sequence numbers target, target + 1, ...; no delta may
  // move down (checked). Each file is written under its new number
  // before the old one goes, so a failure (false, error filled) loses
  // nothing, and calling again finishes the move.
  bool Renumber(uint64_t first, uint64_t target, std::string* error);

  // Persists the marker, then deletes every spooled delta with
  // seq <= high_water. When the marker cannot be written nothing is
  // trimmed (a later call retries). Lower marker values are ignored
  // (trim is monotonic).
  void TrimThrough(uint64_t high_water);

  // Pending (unacked) sequence numbers, ascending.
  std::vector<uint64_t> PendingSeqs() const;

  size_t PendingBytes() const { return pending_bytes_; }
  size_t PendingCount() const { return index_.size(); }
  // Newest trimmed (acked) sequence; 0 when nothing was ever trimmed.
  uint64_t TrimmedHighWater() const { return trimmed_high_water_; }
  // The smallest safe next sequence for a (re)starting child: past every
  // spooled file and past the trim marker.
  uint64_t NextSeqFloor() const;
  // Spool files dropped during Recover() because they failed validation.
  size_t corrupt_dropped() const { return corrupt_dropped_; }
  // Lifetime bytes of fully-acked spool segments unlinked from disk —
  // by TrimThrough() as acks arrive and by Recover() sweeping files at
  // or below the trim marker. Corrupt drops are losses, not
  // reclamation, and are excluded. Monotonic; callers publish deltas.
  uint64_t ReclaimedBytes() const { return reclaimed_bytes_; }

  const Options& options() const { return options_; }

 private:
  std::string DeltaPath(uint64_t seq) const;
  std::string MarkerPath() const;
  // Writes a framed delta image under `seq` and indexes it.
  bool Store(uint64_t seq, std::span<const uint8_t> image,
             std::string* error);

  Options options_;
  // seq -> framed file size (budget accounting).
  std::map<uint64_t, size_t> index_;
  size_t pending_bytes_ = 0;
  uint64_t trimmed_high_water_ = 0;
  size_t corrupt_dropped_ = 0;
  uint64_t reclaimed_bytes_ = 0;
};

}  // namespace smb::repl

#endif  // SMBCARD_REPL_DELTA_SPOOL_H_
