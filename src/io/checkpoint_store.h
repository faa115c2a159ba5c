// CheckpointStore — crash-safe on-disk checkpointing for serialized
// estimator state (DESIGN.md §11).
//
// The store is payload-agnostic: it persists the byte snapshots the
// existing Serialize()/Deserialize() formats produce (SMB2, HPP2, SHD1)
// without interpreting them. What it adds is the durability layer those
// in-memory formats cannot provide on their own:
//
//   * ckpt-%016llx.smbckpt files in the io/frame_codec layout (magic
//     "SMBCKPT1", tag = generation) — a torn write, a truncated file, or
//     a flipped bit is detected chunk-precisely at recovery;
//   * temp-file + fsync + atomic-rename writes (io::ReplaceFile) — a
//     crash mid-write can only ever leave a stale .tmp (swept on the next
//     write), never a half-new final file;
//   * monotonic generation numbers with keep-last-K rotation;
//   * a recovery path that walks generations newest-first and returns
//     the newest one that validates, reporting (not silently skipping)
//     every corrupt candidate it stepped over.
//
// Every failure branch is driven by the src/fault/ failpoint framework in
// tests: checkpoint.write.error, checkpoint.write.partial (torn final
// file), checkpoint.write.corrupt (silent bit rot), checkpoint.fsync.error,
// checkpoint.rename.error, checkpoint.read.error.
//
// Concurrency: a CheckpointStore instance is single-threaded; one
// directory belongs to one store at a time.

#ifndef SMBCARD_IO_CHECKPOINT_STORE_H_
#define SMBCARD_IO_CHECKPOINT_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace smb::io {

class CheckpointStore {
 public:
  // Optional content transcoding applied between the caller's payload
  // and the framed bytes on disk. The store stays payload-agnostic: the
  // codec is an opaque triple of hooks, so smb_io never links a
  // concrete compressor. Semantics:
  //
  //   * Write: when `encode` is set it runs over the payload; a value
  //     is stored in its place (the chunk CRCs then cover the encoded
  //     bytes), nullopt falls back to storing the raw payload.
  //   * Recover: when `recognize` matches the recovered bytes, `decode`
  //     runs and its value is returned to the caller. A recognized
  //     payload that fails to decode skips that generation (reason
  //     class "codec") and recovery walks on to the next one.
  //   * Payloads `recognize` does not claim pass through untouched, so
  //     checkpoints written before the codec existed keep recovering.
  struct ContentCodec {
    // Codec name for telemetry and skip diagnostics (e.g. "SMBZ1").
    std::string name;
    std::function<std::optional<std::vector<uint8_t>>(
        std::span<const uint8_t>)>
        encode;
    std::function<bool(std::span<const uint8_t>)> recognize;
    std::function<std::optional<std::vector<uint8_t>>(
        std::span<const uint8_t>)>
        decode;
  };

  struct Options {
    // Directory holding the checkpoint files; created (with parents) by
    // the constructor when missing.
    std::string directory;
    // Newest generations retained on disk; older ones are deleted after
    // each successful write. Must be >= 1.
    size_t keep_generations = 3;
    // Payload bytes per CRC frame. Must be >= 1.
    size_t chunk_bytes = 64 * 1024;
    // fsync file and directory on write (tests may disable to spare IO).
    bool sync = true;
    // Content codec hooks; all-empty means raw payloads (the default).
    ContentCodec codec;
  };

  struct WriteResult {
    bool ok = false;
    // Generation number the payload was written as (valid when ok).
    uint64_t generation = 0;
    std::string error;
  };

  struct RecoverResult {
    bool ok = false;
    // Generation the payload was restored from (valid when ok).
    uint64_t generation = 0;
    std::vector<uint8_t> payload;
    // ok == false: "no checkpoint found" (clean empty state) or "no valid
    // checkpoint ..." (candidates existed, all corrupt).
    std::string error;
    // Generations that failed validation and were stepped over, newest
    // first, with the reason ("ckpt-...: truncated chunk 3").
    std::vector<std::string> skipped;
  };

  explicit CheckpointStore(const Options& options);

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  // Writes `payload` as the next generation: stale .tmp sweep, temp file,
  // fsync, atomic rename, directory fsync, then keep-last-K rotation.
  // On failure nothing with the new generation's final name is left
  // behind (except under the injected torn-write fault, which exists
  // precisely to leave one).
  WriteResult Write(std::span<const uint8_t> payload);

  // Walks generations newest-first and returns the first that validates.
  RecoverResult RecoverLatest();

  // Generations currently on disk (valid or not), ascending.
  std::vector<uint64_t> ListGenerations() const;

  // Validates one checkpoint file; fills *error with the reason when
  // invalid. Exposed for tests and external inspection tooling.
  static bool ValidateFile(const std::string& path, std::string* error);

  const Options& options() const { return options_; }

 private:
  Options options_;
  uint64_t next_generation_ = 1;
};

}  // namespace smb::io

#endif  // SMBCARD_IO_CHECKPOINT_STORE_H_
