#include "smbcard_cli/options.h"

#include <bitset>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <span>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/macros.h"
#include "numeric_flags.h"

namespace smb::cli {
namespace {

using Modes = unsigned;
constexpr Modes Only(Mode mode) { return 1u << static_cast<unsigned>(mode); }
constexpr Modes kParent = Only(Mode::kParent);
constexpr Modes kChild = Only(Mode::kChild);
constexpr Modes kPerFlow = Only(Mode::kPerFlow);
constexpr Modes kSharded = Only(Mode::kSharded);
constexpr Modes kAll = Only(Mode::kAll);
constexpr Modes kSnapshot = Only(Mode::kSnapshot);
constexpr Modes kSingle = Only(Mode::kSingle);
constexpr Modes kAnyMode =
    kParent | kChild | kPerFlow | kSharded | kAll | kSnapshot | kSingle;

// Mode names and selectors, in Mode order; ResolveMode below applies the
// selectors in this order.
struct ModeInfo {
  const char* name;
  const char* selected_by;
};
constexpr ModeInfo kModes[] = {
    {"parent", "--listen"},
    {"child", "--per-flow and --replicate-to"},
    {"per-flow", "--per-flow"},
    {"sharded", "--threads or --shards"},
    {"all", "--all"},
    {"snapshot", "--save or --load"},
    {"single", "none of the above"},
};
static_assert(std::size(kModes) == static_cast<size_t>(Mode::kSingle) + 1);

enum class Kind : uint8_t {
  kSwitch,    // no value
  kString,    // non-empty text
  kCount,     // decimal whole number
  kPositive,  // decimal whole number >= 1
  kBytes,     // byte count with an optional K/M/G binary multiple
  kSeconds,   // whole seconds up to tools::kMaxFlagSeconds
  kEnum,      // one of the flag's choices, by name
};

struct Choice {
  const char* name;
  int value;
};
constexpr Choice kOverloadPolicies[] = {
    {"block", static_cast<int>(OverloadPolicy::kBlock)},
    {"drop", static_cast<int>(OverloadPolicy::kDropWithCount)},
    {"degrade", static_cast<int>(OverloadPolicy::kDegradeToSample)},
};
constexpr Choice kEvictions[] = {
    {"off", static_cast<int>(ArenaEviction::kOff)},
    {"clock", static_cast<int>(ArenaEviction::kClock)},
    {"2q", static_cast<int>(ArenaEviction::k2Q)},
};
constexpr Choice kShedPolicies[] = {
    {"retry", static_cast<int>(repl::SpoolShedPolicy::kRetry)},
    {"drop", static_cast<int>(repl::SpoolShedPolicy::kDropNew)},
};

// Where a flag's value lands; mode selectors without a value of their
// own land nowhere.
using Target =
    std::variant<std::monostate, bool CliOptions::*,
                 std::string CliOptions::*, uint64_t CliOptions::*,
                 OverloadPolicy CliOptions::*, ArenaEviction CliOptions::*,
                 repl::SpoolShedPolicy CliOptions::*>;

struct Flag {
  const char* name;
  Kind kind;
  Modes modes;  // run modes that accept the flag
  Target target = {};
  const char* arg = "";                  // value placeholder in --help
  std::span<const Choice> choices = {};  // kEnum only
  const char* needs = nullptr;           // a flag that must be given too
  const char* help = "";
};

// Every smbcard flag. A flag given outside its modes, or without the flag
// it requires, is a usage error.
const Flag kFlags[] = {
    {.name = "--algo", .kind = Kind::kString, .modes = kAnyMode,
     .target = &CliOptions::algo, .arg = "NAME",
     .help = "estimator: SMB (default), MRB, FM, LogLog, SuperLogLog, HLL,\n"
             "HLL++, HLL-TailC, HLL-TailC+, KMV, Bitmap, AdaptiveBitmap"},
    {.name = "--memory", .kind = Kind::kCount, .modes = kAnyMode,
     .target = &CliOptions::memory_bits, .arg = "BITS",
     .help = "bits per estimator (default 10000): per flow in per-flow\n"
             "modes, split across the shards in sharded mode"},
    {.name = "--design", .kind = Kind::kCount, .modes = kAnyMode,
     .target = &CliOptions::design_cardinality, .arg = "N",
     .help = "largest cardinality the estimator is sized for (default "
             "1000000)"},
    {.name = "--seed", .kind = Kind::kCount, .modes = kAnyMode,
     .target = &CliOptions::seed, .arg = "S",
     .help = "hash seed (default 0)"},
    {.name = "--all", .kind = Kind::kSwitch, .modes = kAll,
     .help = "run every algorithm and print a comparison table"},
    {.name = "--save", .kind = Kind::kString, .modes = kSnapshot,
     .target = &CliOptions::save_path, .arg = "FILE",
     .help = "SMB only: write the estimator state to FILE when done"},
    {.name = "--load", .kind = Kind::kString, .modes = kSnapshot,
     .target = &CliOptions::load_path, .arg = "FILE",
     .help = "SMB only: resume from a state written by --save"},
    {.name = "--threads", .kind = Kind::kCount, .modes = kSharded,
     .target = &CliOptions::threads, .arg = "N",
     .help = "record through N producer threads (default 1)"},
    {.name = "--shards", .kind = Kind::kCount, .modes = kSharded,
     .target = &CliOptions::shards, .arg = "K",
     .help = "split the estimator and its --memory into K shards "
             "(default 8)"},
    {.name = "--overload-policy", .kind = Kind::kEnum, .modes = kSharded,
     .target = &CliOptions::overload_policy, .choices = kOverloadPolicies,
     .help = "what producers do when a shard ring stays full: block\n"
             "(default, lossless), drop (count every lost item), degrade\n"
             "(geometric pre-thinning, DESIGN.md §11)"},
    {.name = "--checkpoint-dir", .kind = Kind::kString,
     .modes = kSingle | kSharded | kParent,
     .target = &CliOptions::checkpoint_dir, .arg = "DIR",
     .help = "crash-safe state: resume from the newest valid checkpoint in\n"
             "DIR and write a final one when done (SMB and HLL++ only); a\n"
             "parent makes every ack durable here"},
    {.name = "--checkpoint-interval", .kind = Kind::kSeconds,
     .modes = kSingle | kSharded,
     .target = &CliOptions::checkpoint_interval_s, .arg = "SECONDS",
     .needs = "--checkpoint-dir",
     .help = "also checkpoint every SECONDS while recording"},
    {.name = "--metrics-out", .kind = Kind::kString, .modes = kAnyMode,
     .target = &CliOptions::metrics_out, .arg = "FILE",
     .help = "write a Prometheus-text metrics snapshot to FILE when done"},
    {.name = "--metrics-interval", .kind = Kind::kSeconds,
     .modes = kAnyMode, .target = &CliOptions::metrics_interval_s,
     .arg = "SECONDS", .needs = "--metrics-out",
     .help = "also rewrite the snapshot every SECONDS while running"},
    {.name = "--flight-recorder", .kind = Kind::kString, .modes = kAnyMode,
     .target = &CliOptions::flight_recorder_out, .arg = "FILE",
     .help = "dump the flight recorder to FILE at exit, or on a fatal "
             "signal"},
    {.name = "--per-flow", .kind = Kind::kSwitch,
     .modes = kPerFlow | kChild,
     .help = "input lines are flow,element pairs (decimal or 0x-hex; #\n"
             "comments and blank lines skipped); print the top spreads\n"
             "as flow<TAB>estimate lines"},
    {.name = "--top", .kind = Kind::kCount,
     .modes = kPerFlow | kChild | kParent, .target = &CliOptions::top_k,
     .arg = "K", .help = "flows printed (default 10)"},
    {.name = "--memory-budget", .kind = Kind::kBytes, .modes = kPerFlow,
     .target = &CliOptions::memory_budget_bytes, .arg = "BYTES",
     .help = "SMB arena only: ceiling on live per-flow state; crossing it\n"
             "evicts cold flows (K/M/G suffixes; default 0, unlimited)"},
    {.name = "--eviction", .kind = Kind::kEnum, .modes = kPerFlow | kChild,
     .target = &CliOptions::eviction, .choices = kEvictions,
     .help = "reclamation over --memory-budget: clock (default) is\n"
             "second-chance over all flows, 2q drains list flows first,\n"
             "off never evicts and needs no budget"},
    {.name = "--hugepages", .kind = Kind::kSwitch,
     .modes = kPerFlow | kChild, .target = &CliOptions::hugepages,
     .help = "SMB arena only: back flow slabs with hugepages when offered"},
    {.name = "--listen", .kind = Kind::kString, .modes = kParent,
     .target = &CliOptions::listen_path, .arg = "SOCK",
     .help = "SMB only: accept children on Unix socket SOCK, merge their\n"
             "deltas and print the merged top spreads once every child\n"
             "drained (DESIGN.md §16); --memory/--design/--seed must\n"
             "match the children's"},
    {.name = "--expect-children", .kind = Kind::kPositive,
     .modes = kParent, .target = &CliOptions::expect_children, .arg = "N",
     .help = "children to wait for (default 1)"},
    {.name = "--listen-timeout", .kind = Kind::kSeconds, .modes = kParent,
     .target = &CliOptions::listen_timeout_s, .arg = "SECONDS",
     .help = "give up after SECONDS and exit 1 (default 0, wait forever)"},
    {.name = "--replicate-to", .kind = Kind::kString, .modes = kChild,
     .target = &CliOptions::replicate_to, .arg = "SOCK",
     .needs = "--spool-dir",
     .help = "SMB arena only: stream deltas of recorded flows to the\n"
             "parent at SOCK; exit 0 once all are acked, 3 when the drain\n"
             "timeout leaves some spooled"},
    {.name = "--spool-dir", .kind = Kind::kString, .modes = kChild,
     .target = &CliOptions::spool_dir, .arg = "DIR",
     .needs = "--child-id",
     .help = "this child's on-disk retransmit buffer; a rerun over it\n"
             "resends what is left"},
    {.name = "--child-id", .kind = Kind::kCount, .modes = kChild,
     .target = &CliOptions::child_id, .arg = "N",
     .help = "this child's stable identity"},
    {.name = "--spool-budget", .kind = Kind::kBytes, .modes = kChild,
     .target = &CliOptions::spool_budget_bytes, .arg = "BYTES",
     .help = "spool ceiling (K/M/G suffixes; default 0, unlimited)"},
    {.name = "--shed-policy", .kind = Kind::kEnum, .modes = kChild,
     .target = &CliOptions::shed_policy, .choices = kShedPolicies,
     .needs = "--spool-budget",
     .help = "on a full spool: retry (default) defers the cut, drop sheds\n"
             "the delta and counts it"},
    {.name = "--delta-every", .kind = Kind::kPositive, .modes = kChild,
     .target = &CliOptions::delta_every_lines, .arg = "LINES",
     .help = "cut a delta every LINES input lines (default 4096)"},
    {.name = "--drain-timeout", .kind = Kind::kSeconds, .modes = kChild,
     .target = &CliOptions::drain_timeout_s, .arg = "SECONDS",
     .help = "wait up to SECONDS at EOF for the parent's acks (default 30)"},
};
constexpr size_t kNumFlags = std::size(kFlags);

constexpr const char* kUsage = "usage: smbcard [FLAG...] [FILE...]";

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "%s\n%s (smbcard --help lists the flags)\n",
               message.c_str(), kUsage);
  std::exit(2);
}

size_t IndexOf(std::string_view name) {
  for (size_t i = 0; i < kNumFlags; ++i) {
    if (name == kFlags[i].name) return i;
  }
  return kNumFlags;
}

class GivenFlags {
 public:
  void Mark(size_t index) { bits_.set(index); }
  bool Has(size_t index) const { return bits_.test(index); }
  bool Has(std::string_view name) const {
    const size_t index = IndexOf(name);
    SMB_CHECK(index < kNumFlags);
    return bits_.test(index);
  }

 private:
  static_assert(kNumFlags <= 64);
  std::bitset<64> bits_;
};

std::string ModeList(Modes modes) {
  if (modes == kAnyMode) return "every mode";
  std::string out;
  for (size_t m = 0; m < std::size(kModes); ++m) {
    if ((modes & (1u << m)) == 0) continue;
    if (!out.empty()) out += ", ";
    out += kModes[m].name;
  }
  return out;
}

std::string ValueText(const Flag& flag) {
  if (flag.kind != Kind::kEnum) return flag.arg;
  std::string out;
  for (const Choice& choice : flag.choices) {
    if (!out.empty()) out += '|';
    out += choice.name;
  }
  return out;
}

std::string Expectation(const Flag& flag) {
  switch (flag.kind) {
    case Kind::kSwitch:
    case Kind::kString:
      return "want a non-empty value";
    case Kind::kCount:
      return "want a whole number";
    case Kind::kPositive:
      return "want a whole number >= 1";
    case Kind::kBytes:
      return "want a byte count, optionally with a K/M/G suffix";
    case Kind::kSeconds:
      return "want whole seconds, at most " +
             std::to_string(tools::kMaxFlagSeconds);
    case Kind::kEnum:
      return "want one of " + ValueText(flag);
  }
  return "";
}

bool ParseUnsigned(Kind kind, const char* text, uint64_t* out) {
  switch (kind) {
    case Kind::kBytes: {
      size_t bytes = 0;
      if (!tools::ParseByteSize(text, &bytes)) return false;
      *out = bytes;
      return true;
    }
    case Kind::kPositive:
      return tools::ParseNumberFlag(text, out) && *out > 0;
    case Kind::kSeconds:
      return tools::ParseNumberFlag(text, out) &&
             *out <= tools::kMaxFlagSeconds;
    default:
      return tools::ParseNumberFlag(text, out);
  }
}

// Parses `text` as `flag`'s kind into its target; false when it does not
// parse. Switches ignore `text`.
bool StoreValue(const Flag& flag, const char* text, CliOptions* options) {
  return std::visit(
      [&](auto member) -> bool {
        if constexpr (std::is_same_v<decltype(member), std::monostate>) {
          return true;
        } else {
          auto& field = options->*member;
          using T = std::remove_reference_t<decltype(field)>;
          if constexpr (std::is_same_v<T, std::string>) {
            if (*text == '\0') return false;
            field = text;
            return true;
          } else if constexpr (std::is_same_v<T, uint64_t>) {
            return ParseUnsigned(flag.kind, text, &field);
          } else if constexpr (std::is_same_v<T, bool>) {
            field = true;  // a switch
            return true;
          } else {
            for (const Choice& choice : flag.choices) {
              if (std::strcmp(text, choice.name) == 0) {
                field = static_cast<T>(choice.value);
                return true;
              }
            }
            return false;
          }
        }
      },
      flag.target);
}

Mode ResolveMode(const GivenFlags& given) {
  if (given.Has("--listen")) return Mode::kParent;
  if (given.Has("--per-flow")) {
    return given.Has("--replicate-to") ? Mode::kChild : Mode::kPerFlow;
  }
  if (given.Has("--threads") || given.Has("--shards")) return Mode::kSharded;
  if (given.Has("--all")) return Mode::kAll;
  if (given.Has("--save") || given.Has("--load")) return Mode::kSnapshot;
  return Mode::kSingle;
}

void CheckModeRules(const GivenFlags& given, const CliOptions& options) {
  const size_t mode = static_cast<size_t>(options.mode);
  for (size_t i = 0; i < kNumFlags; ++i) {
    if (!given.Has(i)) continue;
    const Flag& flag = kFlags[i];
    if ((flag.modes & Only(options.mode)) == 0) {
      UsageError(std::string(flag.name) + " does not apply in " +
                 kModes[mode].name + " mode (it is for: " +
                 ModeList(flag.modes) + ")");
    }
    if (flag.needs != nullptr && !given.Has(flag.needs)) {
      UsageError(std::string(flag.name) + " requires " + flag.needs);
    }
  }
  // The one rule that depends on a value: clock and 2q reclaim against a
  // budget, off needs none.
  if (given.Has("--eviction") && options.eviction != ArenaEviction::kOff &&
      options.memory_budget_bytes == 0) {
    UsageError("--eviction clock|2q requires a non-zero --memory-budget");
  }
}

[[noreturn]] void PrintHelpAndExit() {
  std::fprintf(stderr,
               "%s\n\nEstimates the number of distinct lines in the FILEs "
               "(stdin when none).\n\nRun modes, first match wins:\n",
               kUsage);
  for (const ModeInfo& mode : kModes) {
    std::fprintf(stderr, "  %-10s%s\n", mode.name, mode.selected_by);
  }
  std::fprintf(stderr, "\nFlags (modes that accept each in brackets):\n");
  for (const Flag& flag : kFlags) {
    std::fprintf(stderr, "  %s%s%s  [%s%s%s]\n      ", flag.name,
                 flag.kind == Kind::kSwitch ? "" : " ",
                 ValueText(flag).c_str(), ModeList(flag.modes).c_str(),
                 flag.needs != nullptr ? "; needs " : "",
                 flag.needs != nullptr ? flag.needs : "");
    for (const char* c = flag.help; *c != '\0'; ++c) {
      std::fputc(*c, stderr);
      if (*c == '\n') std::fputs("      ", stderr);
    }
    std::fputc('\n', stderr);
  }
  std::fprintf(stderr,
               "\nNumbers are decimal; SECONDS is at most %llu (a year).\n"
               "Exit status: 0 done, 1 runtime error, 2 usage error, 3 a "
               "child left\ndeltas spooled when its drain timeout "
               "expired.\n",
               static_cast<unsigned long long>(tools::kMaxFlagSeconds));
  std::exit(2);
}

}  // namespace

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions options;
  GivenFlags given;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") PrintHelpAndExit();
    if (arg.empty() || arg[0] != '-') {
      options.inputs.emplace_back(arg);
      continue;
    }
    const size_t index = IndexOf(arg);
    if (index == kNumFlags) {
      UsageError("unknown option: " + std::string(arg));
    }
    const Flag& flag = kFlags[index];
    const char* text = "";
    if (flag.kind != Kind::kSwitch) {
      if (i + 1 >= argc) UsageError(std::string(arg) + " wants a value");
      text = argv[++i];
    }
    if (!StoreValue(flag, text, &options)) {
      UsageError("bad " + std::string(arg) + " '" + text +
                 "': " + Expectation(flag));
    }
    given.Mark(index);
  }
  options.mode = ResolveMode(given);
  CheckModeRules(given, options);
  return options;
}

}  // namespace smb::cli
