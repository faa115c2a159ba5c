#include "io/file_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "fault/failpoints.h"

namespace smb::io {
namespace {

namespace fs = std::filesystem;

bool FsyncPath(const std::string& path, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  const bool ok = fd >= 0 && ::fsync(fd) == 0;
  if (!ok) *error = std::string("fsync failed: ") + std::strerror(errno);
  if (fd >= 0) ::close(fd);
  return ok;
}

// Inverse of NumberedFileName; false for any other name.
bool ParseNumberedFileName(std::string_view name, std::string_view prefix,
                           std::string_view suffix, uint64_t* number) {
  if (name.size() != prefix.size() + 16 + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return false;
  }
  const std::string_view digits = name.substr(prefix.size(), 16);
  return digits.find_first_not_of("0123456789abcdef") ==
             std::string_view::npos &&
         std::from_chars(digits.data(), digits.data() + digits.size(),
                         *number, 16)
                 .ec == std::errc();
}

}  // namespace

bool ReadWholeFile(const std::string& path, std::vector<uint8_t>* out,
                   std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    *error = std::string("open failed: ") + std::strerror(errno);
    return false;
  }
  out->clear();
  uint8_t buffer[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      *error = std::string("read failed: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->insert(out->end(), buffer, buffer + n);
  }
  ::close(fd);
  return true;
}

bool WriteFileBytes(const std::string& path, const uint8_t* data,
                    size_t size, std::string* error) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    *error = std::string("open failed: ") + std::strerror(errno);
    return false;
  }
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n <= 0) {
      *error = std::string("write failed: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    written += static_cast<size_t>(n);
  }
  ::close(fd);
  return true;
}

bool ReplaceFile(const std::string& path, std::span<const uint8_t> bytes,
                 bool sync, std::string_view fault_prefix,
                 std::string* error) {
  const std::string staging = StagingPath(path);
  const std::string prefix(fault_prefix);
  const auto fail = [&](std::string reason) {
    *error = std::move(reason);
    std::remove(staging.c_str());
    return false;
  };
  if (!WriteFileBytes(staging, bytes.data(), bytes.size(), error)) {
    return fail(*error);
  }
  if (sync) {
    const auto fsync_fail = SMB_FAILPOINT(prefix + ".fsync.error");
    if (fsync_fail.fired) return fail("injected fsync error");
    if (!FsyncPath(staging, error)) return fail(*error);
  }
  const auto rename_fail = SMB_FAILPOINT(prefix + ".rename.error");
  if (rename_fail.fired) return fail("injected rename error");
  if (::rename(staging.c_str(), path.c_str()) != 0) {
    return fail(std::string("rename failed: ") + std::strerror(errno));
  }
  if (sync) {
    const fs::path dir = fs::path(path).parent_path();
    std::string dir_error;
    FsyncPath(dir.empty() ? "." : dir.string(), &dir_error);  // best effort
  }
  return true;
}

std::string NumberedFileName(std::string_view prefix, uint64_t number,
                             std::string_view suffix) {
  char digits[17];
  std::snprintf(digits, sizeof(digits), "%016llx",
                static_cast<unsigned long long>(number));
  return std::string(prefix).append(digits).append(suffix);
}

std::vector<uint64_t> ListNumberedFiles(const std::string& dir,
                                        std::string_view prefix,
                                        std::string_view suffix) {
  std::vector<uint64_t> numbers;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    uint64_t number = 0;
    if (ParseNumberedFileName(it->path().filename().string(), prefix,
                              suffix, &number)) {
      numbers.push_back(number);
    }
  }
  std::sort(numbers.begin(), numbers.end());
  return numbers;
}

size_t SweepTempFiles(const std::string& dir) {
  // Collect first: removing entries while iterating is unspecified.
  std::vector<fs::path> stale;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().extension() == ".tmp") stale.push_back(it->path());
  }
  for (const fs::path& path : stale) fs::remove(path, ec);
  return stale.size();
}

bool ReadFramedFile(const std::string& path, const char magic[8],
                    std::optional<uint64_t> expected_tag,
                    std::vector<uint8_t>* payload, std::string* error,
                    FrameDefect* defect, uint64_t* tag) {
  FrameDefect ignored;
  FrameDefect* d = defect ? defect : &ignored;
  std::vector<uint8_t> image;
  if (!ReadWholeFile(path, &image, error)) {
    *d = FrameDefect::kUnreadable;
    return false;
  }
  uint64_t stored_tag = 0;
  if (!ParseFramedImage(magic, image, &stored_tag, payload, error, d)) {
    return false;
  }
  if (expected_tag.has_value() && stored_tag != *expected_tag) {
    *error = "generation header (tag) does not match file name";
    *d = FrameDefect::kWrongTag;
    return false;
  }
  if (tag) *tag = stored_tag;
  return true;
}

}  // namespace smb::io
