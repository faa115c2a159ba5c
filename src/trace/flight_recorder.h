// Always-on black-box flight recorder (DESIGN.md §14). A small bounded
// ring of high-level lifecycle events — morph transitions, overload
// actions, checkpoint generations, failpoint fires, merge operations —
// that is cheap enough to record unconditionally (unlike the span tracer,
// which records only while a capture is running): events fire at
// state-change cadence, not packet cadence. The ring can be dumped on
// demand or from an installed crash handler, giving the chaos suite and
// any production crash a post-mortem artifact.
//
// Dump file format ("SMBFR1"), little-endian throughout:
//   [0..8)   magic "SMBFR1\0\0"
//   [8..12)  u32 version (1)
//   [12..16) u32 event count N (oldest first, at most kCapacity)
//   then N * 40-byte records:
//       u64 timestamp_ns   TraceNowNanos() at Record()
//       u32 type           FlightEventType
//       u32 reserved       0
//       u64 a, b, c        event-specific payload (see FlightEventType)
//   trailer: u32 CRC-32C over every preceding byte
// A crash-handler dump uses the same layout; it is written best-effort
// without taking the ring lock (a handler cannot), so a dump taken while
// another thread was mid-Record may carry one torn record — the CRC is
// computed over the bytes actually written, so the file still loads.

#ifndef SMBCARD_TRACE_FLIGHT_RECORDER_H_
#define SMBCARD_TRACE_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace smb::trace {

// Payload conventions (a, b, c):
//   kMorph:             a=instance id, b=new round, c=items seen
//   kOverloadAction:    a=policy, b=items dropped, c=degrade events
//   kCheckpointWrite:   a=generation, b=payload bytes, c=0
//   kCheckpointRecover: a=generation, b=payload bytes, c=files skipped
//   kFailpointFire:     a=hash of failpoint name, b=action, c=action arg
//   kMergeOp:           a=self estimate before, b=other estimate, c=kind
enum class FlightEventType : uint32_t {
  kMorph = 1,
  kOverloadAction = 2,
  kCheckpointWrite = 3,
  kCheckpointRecover = 4,
  kFailpointFire = 5,
  kMergeOp = 6,
};

struct FlightEvent {
  uint64_t timestamp_ns = 0;
  FlightEventType type = FlightEventType::kMorph;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;

  bool operator==(const FlightEvent&) const = default;
};

class FlightRecorder {
 public:
  // Events retained; on overflow the oldest is overwritten (and counted
  // by Dropped()) — the black box always holds the newest history.
  static constexpr size_t kCapacity = 1024;

  // The process-wide recorder every subsystem records into. Never
  // destroyed (events may fire during static destruction).
  static FlightRecorder& Global();

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Thread-safe; timestamps with TraceNowNanos().
  void Record(FlightEventType type, uint64_t a = 0, uint64_t b = 0,
              uint64_t c = 0);

  // Retained events, oldest first.
  std::vector<FlightEvent> Events() const;
  uint64_t TotalRecorded() const;
  // Events overwritten by ring wrap.
  uint64_t Dropped() const;
  void Clear();

  // Serializes the ring to `path` (whole-file write, no rotation — a
  // black-box dump is a point-in-time artifact, not a database). Returns
  // false and sets *error (may be null) on IO failure.
  bool DumpTo(const std::string& path, std::string* error) const;

  // Parses a dump produced by DumpTo or the crash handler. Verifies
  // magic, version, size, and CRC; returns false with *error on any
  // mismatch.
  static bool Load(const std::string& path, std::vector<FlightEvent>* out,
                   std::string* error);

  // Serializes the current ring into `buffer` without taking the lock —
  // async-signal-safe, for crash handlers only (see the torn-record
  // caveat in the format comment). Returns bytes written, 0 if the
  // buffer is too small. kMaxDumpBytes always suffices.
  size_t SerializeUnlocked(uint8_t* buffer, size_t buffer_size) const;

  static constexpr size_t kEventBytes = 40;
  static constexpr size_t kHeaderBytes = 16;
  static constexpr size_t kMaxDumpBytes =
      kHeaderBytes + kCapacity * kEventBytes + 4;

 private:
  size_t SerializeEvents(const FlightEvent* events, size_t count,
                         uint8_t* buffer) const;

  mutable std::mutex mu_;
  std::array<FlightEvent, kCapacity> ring_{};
  // Atomic so the lock-free crash-handler serialization reads a sane
  // count even if it fires mid-Record on another thread.
  std::atomic<uint64_t> head_{0};
};

// Installs a crash handler (SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL)
// that writes FlightRecorder::Global() to `path` and re-raises with the
// default disposition. `path` is copied into static storage; the handler
// itself does no allocation. Returns false if sigaction fails. Calling
// again replaces the path.
bool InstallCrashHandler(const char* path);

}  // namespace smb::trace

#endif  // SMBCARD_TRACE_FLIGHT_RECORDER_H_
