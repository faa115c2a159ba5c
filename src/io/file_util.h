// The one durable-file path, shared by CheckpointStore, DeltaSpool and the
// CLI's metrics snapshots: how a file is written, named, replaced and read
// back (DESIGN.md §11). Failures come back as a human-readable `error`
// with errno text.
//
//   * ReplaceFile stages `<path>.tmp`, fsyncs it when asked (a failure
//     fails the write), renames it over `path` and fsyncs the directory
//     (best effort), so a reader or a crash sees the old file or the new
//     one, never a prefix. Any failure removes the staged file.
//   * Numbered files are `<prefix><16 lowercase hex digits><suffix>`
//     (ckpt-%016llx.smbckpt, delta-%016llx.smbspool).
//   * ReadFramedFile reads one io/frame_codec image and checks that its
//     tag is the number its name carries.

#ifndef SMBCARD_IO_FILE_UTIL_H_
#define SMBCARD_IO_FILE_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/frame_codec.h"

namespace smb::io {

bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* out,
                   std::string* error);

// Writes `size` bytes to a fresh file at `path` (O_TRUNC). Returns false
// with errno text on any short or failed write.
bool WriteFileBytes(const std::string& path, const uint8_t* data,
                    size_t size, std::string* error);

// Where ReplaceFile stages `path`: same directory, so the rename is atomic.
inline std::string StagingPath(const std::string& path) {
  return path + ".tmp";
}

// Evaluates the failpoints `<fault_prefix>.fsync.error` (only with `sync`)
// and `<fault_prefix>.rename.error`.
bool ReplaceFile(const std::string& path, std::span<const uint8_t> bytes,
                 bool sync, std::string_view fault_prefix,
                 std::string* error);

std::string NumberedFileName(std::string_view prefix, uint64_t number,
                             std::string_view suffix);
// The numbers of the NumberedFileName(prefix, *, suffix) files in `dir`,
// ascending.
std::vector<uint64_t> ListNumberedFiles(const std::string& dir,
                                        std::string_view prefix,
                                        std::string_view suffix);
// Removes every staged "*.tmp" in `dir`; returns how many it found.
size_t SweepTempFiles(const std::string& dir);

// Reads `path` as a framed image of `magic`. With `expected_tag` set, any
// other stored tag fails as FrameDefect::kWrongTag; an unreadable file
// fails as FrameDefect::kUnreadable. On success the stored tag lands in
// *tag. `payload`, `defect` and `tag` may be null.
bool ReadFramedFile(const std::string& path, const char magic[8],
                    std::optional<uint64_t> expected_tag,
                    std::vector<uint8_t>* payload, std::string* error,
                    FrameDefect* defect = nullptr, uint64_t* tag = nullptr);

}  // namespace smb::io

#endif  // SMBCARD_IO_FILE_UTIL_H_
