// Failpoint fault-injection framework.
//
// A failpoint is a named site in library code where tests can inject a
// failure. Call sites evaluate one with
//
//   const auto hit = SMB_FAILPOINT("checkpoint.write.partial");
//   if (hit.fired) { /* take the injected failure branch */ }
//
// and branch on the returned FailpointHit. Actions:
//
//   kReturnError — the site takes its error-return path
//   kPartialIo   — the site truncates its IO after hit.arg bytes
//   kCorrupt     — the site flips bit (hit.arg mod payload_bits)
//   kDelay       — Evaluate() itself sleeps hit.arg microseconds
//   kPanic       — Evaluate() aborts the process (crash simulation)
//
// Configuration is programmatic (FailpointRegistry::Set) or via the
// SMBCARD_FAILPOINTS environment string, parsed on first registry use:
//
//   SMBCARD_FAILPOINTS="checkpoint.rename.error=error;checkpoint.write.partial=partial(17):p=0.5:skip=1:limit=3"
//   SMBCARD_FAILPOINTS_SEED=42
//
//   entry  := <point>=<action>{:<modifier>}
//   action := off | error | panic | partial(<bytes>) | corrupt(<bit>)
//           | delay(<usec>)
//   modifier := p=<probability in [0,1]> | skip=<N> | limit=<N>
//
// Probabilistic firing draws from a per-point xoshiro256** PRNG seeded
// with global_seed ^ Murmur3_64(point name), so a fire pattern depends
// only on the seed and that point's own evaluation order — never on
// thread interleaving across points — and CI repros are exact.
//
// Sites (DESIGN.md §11 says what each does when fired): checkpoint.write.
// {error,partial,corrupt} and checkpoint.read.error in io/checkpoint_store;
// <prefix>.fsync.error and <prefix>.rename.error in io::ReplaceFile, for
// the prefixes checkpoint, spool and metrics (metrics is never fsynced);
// spool.read.error in repl/delta_spool;
// repl.send.{short,corrupt,dup,reorder}, repl.frame.delay and
// repl.conn.reset in repl/child_replicator; repl.ack.drop in
// repl/replication_sink.
//
// Overhead policy: an unarmed evaluation is one mutex-guarded map miss.
// Sites sit at checkpoint, spool and frame granularity, never on the
// per-packet path, and nothing fires unless a test or the environment
// arms it.

#ifndef SMBCARD_FAULT_FAILPOINTS_H_
#define SMBCARD_FAULT_FAILPOINTS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/random.h"

namespace smb::fault {

enum class FailpointAction : uint8_t {
  kOff = 0,
  kReturnError,
  kPartialIo,
  kCorrupt,
  kDelay,
  kPanic,
};

// Armed behaviour of one named point.
struct FailpointSpec {
  FailpointAction action = FailpointAction::kOff;
  // kPartialIo: bytes written before the cut. kCorrupt: bit index to flip
  // (sites reduce it mod their payload size). kDelay: microseconds.
  uint64_t arg = 0;
  // Chance each armed evaluation fires (deterministic per-point PRNG).
  double probability = 1.0;
  // Skip the first `skip` otherwise-firing evaluations.
  uint64_t skip = 0;
  // Stop firing after `limit` fires. UINT64_MAX = unlimited.
  uint64_t limit = UINT64_MAX;
};

// What one evaluation tells the call site. kDelay and kPanic are handled
// inside Evaluate(), so sites only ever branch on error/partial/corrupt.
struct FailpointHit {
  bool fired = false;
  FailpointAction action = FailpointAction::kOff;
  uint64_t arg = 0;
};

class FailpointRegistry {
 public:
  // Process-wide registry. First access parses SMBCARD_FAILPOINTS /
  // SMBCARD_FAILPOINTS_SEED; a malformed string aborts with a diagnostic
  // (a silently-ignored typo would void a chaos run).
  static FailpointRegistry& Global();

  FailpointRegistry() = default;
  FailpointRegistry(const FailpointRegistry&) = delete;
  FailpointRegistry& operator=(const FailpointRegistry&) = delete;

  // Arms `name` with `spec` (replacing any previous arming and resetting
  // its counters/PRNG).
  void Set(std::string_view name, const FailpointSpec& spec);

  // Parses a SMBCARD_FAILPOINTS-grammar string and arms every entry.
  // Returns false (arming nothing) and fills *error on bad syntax.
  bool Configure(std::string_view config, std::string* error = nullptr);

  // Disarms one point / every point (counters reset too).
  void Clear(std::string_view name);
  void ClearAll();

  // Sets the global PRNG seed and re-derives every armed point's PRNG, so
  // a test can replay an exact probabilistic fire pattern.
  void Reseed(uint64_t seed);

  // The per-site hook behind SMB_FAILPOINT. Sleeps on kDelay, aborts on
  // kPanic, otherwise reports whether (and how) the site must fail.
  FailpointHit Evaluate(std::string_view name);

  // Diagnostics for tests: evaluations of / fires at an armed point since
  // it was last Set (0 for unknown names).
  uint64_t EvalCount(std::string_view name) const;
  uint64_t FireCount(std::string_view name) const;

 private:
  struct Point {
    FailpointSpec spec;
    Xoshiro256 rng{0};
    uint64_t evals = 0;
    uint64_t fires = 0;
    uint64_t skipped = 0;
  };

  void SeedPointLocked(std::string_view name, Point* point);

  mutable std::mutex mutex_;
  uint64_t seed_ = 0;
  std::map<std::string, Point, std::less<>> points_;
};

// Evaluates the named failpoint (see file comment for the contract).
#define SMB_FAILPOINT(name) \
  (::smb::fault::FailpointRegistry::Global().Evaluate(name))

}  // namespace smb::fault

#endif  // SMBCARD_FAULT_FAILPOINTS_H_
