// smbcard's command line. One table in options.cc declares every flag:
// its value kind, the run modes that accept it, and the flag it needs.
// Parsing, `smbcard --help` and the mode rules all read that table.

#ifndef SMBCARD_TOOLS_SMBCARD_CLI_OPTIONS_H_
#define SMBCARD_TOOLS_SMBCARD_CLI_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "flow/arena_smb_engine.h"
#include "parallel/overload_policy.h"
#include "repl/child_replicator.h"

namespace smb::cli {

// Run modes in resolution order: the first mode whose selector flags
// are given wins (`smbcard --help` lists the selectors).
enum class Mode : uint8_t {
  kParent,    // --listen
  kChild,     // --per-flow --replicate-to
  kPerFlow,   // --per-flow
  kSharded,   // --threads, --shards
  kAll,       // --all
  kSnapshot,  // --save, --load
  kSingle,    // none of the above
};

struct CliOptions {
  Mode mode = Mode::kSingle;
  std::string algo = "SMB";
  uint64_t memory_bits = 10000;
  uint64_t design_cardinality = 1000000;
  uint64_t seed = 0;
  std::string save_path;
  std::string load_path;
  uint64_t threads = 0;  // 0 = one producer
  uint64_t shards = 0;   // 0 = eight shards
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  std::string checkpoint_dir;
  uint64_t checkpoint_interval_s = 0;  // 0 = final checkpoint only
  bool codec_smbz1 = true;
  std::string metrics_out;
  uint64_t metrics_interval_s = 0;  // 0 = final snapshot only
  std::string flight_recorder_out;
  // Per-flow and child modes.
  uint64_t top_k = 10;
  uint64_t memory_budget_bytes = 0;  // 0 = unlimited
  ArenaEviction eviction = ArenaEviction::kClock;
  bool hugepages = false;
  bool numa = false;
  // Parent mode.
  std::string listen_path;
  uint64_t expect_children = 1;
  uint64_t listen_timeout_s = 0;  // 0 = wait forever
  // Child mode.
  std::string replicate_to;
  std::string spool_dir;
  uint64_t child_id = 0;
  uint64_t spool_budget_bytes = 0;  // 0 = unlimited
  repl::SpoolShedPolicy shed_policy = repl::SpoolShedPolicy::kRetry;
  uint64_t delta_every_lines = 4096;
  uint64_t drain_timeout_s = 30;
  std::vector<std::string> inputs;  // FILE...; stdin when empty
};

// Parses argv and resolves the run mode. A usage error, and --help,
// print to stderr and exit 2.
CliOptions ParseArgs(int argc, char** argv);

}  // namespace smb::cli

#endif  // SMBCARD_TOOLS_SMBCARD_CLI_OPTIONS_H_
