// Runtime NUMA capability detection and placement primitives for the
// per-flow slab engine and the shard pipeline's consumer threads
// (DESIGN.md §15).
//
// Everything here degrades gracefully: on kernels without NUMA support,
// in containers that mask /sys, or when the mbind/sched_setaffinity
// syscalls are denied, every entry point reports failure (or a
// single-node topology) and callers fall back to default placement.
// Nothing links against libnuma — the two syscalls the slab layer needs
// (mbind for page placement, sched_setaffinity for consumer pinning) are
// issued directly, and the topology is read from
// /sys/devices/system/node/.

#ifndef SMBCARD_PARALLEL_NUMA_TOPOLOGY_H_
#define SMBCARD_PARALLEL_NUMA_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace smb {

struct NumaTopology {
  // Online node ids, ascending (empty when the topology is unreadable).
  std::vector<int> nodes;

  size_t num_nodes() const { return nodes.size(); }

  // More than one online node, so placement can matter.
  bool multi_node() const { return nodes.size() > 1; }

  // The node a shard index is assigned to under round-robin placement;
  // -1 when the topology has no usable nodes.
  int NodeForShard(size_t shard) const {
    if (nodes.empty()) return -1;
    return nodes[shard % nodes.size()];
  }
};

// Reads /sys/devices/system/node/online once per process and caches the
// result (the topology cannot change under us). Always safe to call.
const NumaTopology& DetectNumaTopology();

// Asks the kernel to prefer `node` for pages in [addr, addr+len) via
// mbind(MPOL_PREFERRED). Returns false (leaving the default policy in
// place) when the syscall is unavailable, denied, or `node` is invalid.
// `addr` must be page-aligned — mmap results always are.
bool BindMemoryToNode(void* addr, size_t len, int node);

// Pins the calling thread to the CPUs of `node` (from
// /sys/devices/system/node/nodeN/cpulist). Returns false and leaves the
// affinity mask untouched when the node's CPU list is unreadable or the
// mask cannot be applied.
bool PinCurrentThreadToNode(int node);

// Parses a kernel cpulist string ("0-3,8,10-11") into CPU ids. Exposed
// for tests; returns an empty vector on malformed input.
std::vector<int> ParseCpuList(const char* text);

}  // namespace smb

#endif  // SMBCARD_PARALLEL_NUMA_TOPOLOGY_H_
