// Core assertion and branch-prediction macros used across the library.
//
// Library code does not use C++ exceptions (per the project style guide).
// Precondition violations are programming errors and abort the process with
// a diagnostic; recoverable conditions are reported through return values.

#ifndef SMBCARD_COMMON_MACROS_H_
#define SMBCARD_COMMON_MACROS_H_

#include <cstdio>
#include <cstdlib>

// Branch prediction hints for hot paths (record/query loops).
#define SMB_LIKELY(x) (__builtin_expect(!!(x), 1))
#define SMB_UNLIKELY(x) (__builtin_expect(!!(x), 0))

// Starts a function's code on a 64-byte boundary, on a definition:
// `SMB_CACHELINE_ALIGNED double Engine::Query(...) const { ... }`. For
// short, latency-measured functions whose placement would otherwise move
// with every edit to their file (a 32-byte shift read as a 10-25% swing
// in a sub-microsecond query).
#define SMB_CACHELINE_ALIGNED __attribute__((aligned(64)))

// Always-on invariant check. Use for API preconditions whose violation is a
// caller bug (e.g., zero-sized bitmap). Aborts with file:line context.
#define SMB_CHECK(cond)                                                    \
  do {                                                                     \
    if (SMB_UNLIKELY(!(cond))) {                                           \
      std::fprintf(stderr, "SMB_CHECK failed at %s:%d: %s\n", __FILE__,    \
                   __LINE__, #cond);                                       \
      std::abort();                                                        \
    }                                                                      \
  } while (0)

#define SMB_CHECK_MSG(cond, msg)                                           \
  do {                                                                     \
    if (SMB_UNLIKELY(!(cond))) {                                           \
      std::fprintf(stderr, "SMB_CHECK failed at %s:%d: %s (%s)\n",         \
                   __FILE__, __LINE__, #cond, msg);                        \
      std::abort();                                                        \
    }                                                                      \
  } while (0)

// Debug-only check, compiled out in release builds. Use on hot paths.
#ifdef NDEBUG
#define SMB_DCHECK(cond) \
  do {                   \
  } while (0)
#else
#define SMB_DCHECK(cond) SMB_CHECK(cond)
#endif

#endif  // SMBCARD_COMMON_MACROS_H_
