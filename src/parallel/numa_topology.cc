#include "parallel/numa_topology.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#ifdef __linux__
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace smb {
namespace {

#ifdef __linux__
// Numbers from <numaif.h>; spelled out so the build does not require the
// libnuma development headers.
constexpr int kMpolPreferred = 1;

long Mbind(void* addr, unsigned long len, int mode,
           const unsigned long* nodemask, unsigned long maxnode,
           unsigned int flags) {
#ifdef SYS_mbind
  return syscall(SYS_mbind, addr, len, mode, nodemask, maxnode, flags);
#else
  (void)addr;
  (void)len;
  (void)mode;
  (void)nodemask;
  (void)maxnode;
  (void)flags;
  return -1;
#endif
}

// Reads a small sysfs file into `out` (without the trailing newline).
bool ReadSysfsLine(const char* path, char* out, size_t out_size) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  const bool ok = std::fgets(out, static_cast<int>(out_size), f) != nullptr;
  std::fclose(f);
  if (!ok) return false;
  out[strcspn(out, "\n")] = '\0';
  return true;
}
#endif  // __linux__

NumaTopology DetectOnce() {
  NumaTopology topology;
#ifdef __linux__
  char line[4096];
  if (ReadSysfsLine("/sys/devices/system/node/online", line,
                    sizeof(line))) {
    for (int node : ParseCpuList(line)) topology.nodes.push_back(node);
  }
#endif
  return topology;
}

}  // namespace

std::vector<int> ParseCpuList(const char* text) {
  std::vector<int> out;
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    const long first = std::strtol(p, &end, 10);
    if (end == p || first < 0) return {};
    long last = first;
    p = end;
    if (*p == '-') {
      ++p;
      last = std::strtol(p, &end, 10);
      if (end == p || last < first) return {};
      p = end;
    }
    for (long v = first; v <= last; ++v) out.push_back(static_cast<int>(v));
    if (*p == ',') {
      ++p;
      if (*p == '\0') return {};  // trailing comma
    } else if (*p != '\0') {
      return {};
    }
  }
  return out;
}

const NumaTopology& DetectNumaTopology() {
  static const NumaTopology topology = DetectOnce();
  return topology;
}

bool BindMemoryToNode(void* addr, size_t len, int node) {
#ifdef __linux__
  if (node < 0 || len == 0) return false;
  // One-word nodemask covers nodes 0..63 — far beyond any machine this
  // targets; reject higher ids rather than building a multi-word mask.
  if (node >= 64) return false;
  const unsigned long nodemask = 1UL << node;
  return Mbind(addr, len, kMpolPreferred, &nodemask, 64, 0) == 0;
#else
  (void)addr;
  (void)len;
  (void)node;
  return false;
#endif
}

bool PinCurrentThreadToNode(int node) {
#ifdef __linux__
  if (node < 0) return false;
  char path[128];
  std::snprintf(path, sizeof(path),
                "/sys/devices/system/node/node%d/cpulist", node);
  char line[4096];
  if (!ReadSysfsLine(path, line, sizeof(line))) return false;
  const std::vector<int> cpus = ParseCpuList(line);
  if (cpus.empty()) return false;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int cpu : cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) {
      CPU_SET(static_cast<unsigned>(cpu), &mask);
    }
  }
  return sched_setaffinity(0, sizeof(mask), &mask) == 0;
#else
  (void)node;
  return false;
#endif
}

}  // namespace smb
