// Strict numeric flag parsing shared by the smbcard, smbtop and trace_gen
// tools. Each parser consumes the whole text or fails: it rejects empty
// input, a leading sign or space, trailing junk and overflow, so a typo
// becomes a usage error instead of a silent zero (strtoul's behaviour on
// "abc") or a wrapped huge value (strtoul's behaviour on "-1").

#ifndef SMBCARD_TOOLS_NUMERIC_FLAGS_H_
#define SMBCARD_TOOLS_NUMERIC_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace smb::tools {

// Ceiling for every flag given in seconds: one year. A larger value is a
// typo, and the cap keeps seconds * 1000 and steady_clock::now() plus the
// interval far from overflow.
inline constexpr uint64_t kMaxFlagSeconds = 365ull * 24 * 3600;

// Decimal digits only, within T's range.
template <typename T>
  requires std::is_unsigned_v<T>
bool ParseNumberFlag(const char* text, T* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > std::numeric_limits<T>::max()) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

// A finite decimal number written as digits with an optional fraction
// and exponent ("1.5", ".5", "2e3"); no sign, hex, inf or nan.
inline bool ParseNumberFlag(const char* text, double* out) {
  const unsigned char first = static_cast<unsigned char>(text[0]);
  if (!std::isdigit(first) && first != '.') return false;
  if (text[0] == '.' && !std::isdigit(static_cast<unsigned char>(text[1]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

// A positive number of seconds, fraction allowed, at most
// kMaxFlagSeconds.
inline bool ParseSecondsFlag(const char* text, double* out) {
  double value = 0.0;
  if (!ParseNumberFlag(text, &value) || !(value > 0.0) ||
      value > static_cast<double>(kMaxFlagSeconds)) {
    return false;
  }
  *out = value;
  return true;
}

// A byte count with an optional binary multiple: "1048576", "512K",
// "64M", "2G" (either case). Rejects a product that overflows size_t.
inline bool ParseByteSize(const char* text, size_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || value > std::numeric_limits<size_t>::max()) return false;
  unsigned shift = 0;
  if (*end == 'K' || *end == 'k') {
    shift = 10;
  } else if (*end == 'M' || *end == 'm') {
    shift = 20;
  } else if (*end == 'G' || *end == 'g') {
    shift = 30;
  }
  if (shift > 0) ++end;
  if (*end != '\0' ||
      value > (std::numeric_limits<size_t>::max() >> shift)) {
    return false;
  }
  *out = static_cast<size_t>(value) << shift;
  return true;
}

}  // namespace smb::tools

#endif  // SMBCARD_TOOLS_NUMERIC_FLAGS_H_
