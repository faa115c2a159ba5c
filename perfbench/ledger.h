// Span ledger for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around each call into
// a library layer; nothing inside src/ is instrumented. A span's name is
// layer-qualified ("flow.record", "io.checkpoint_write"); the text before
// the first '.' is its layer. Spans nest strictly (single thread): a span
// opened while another is open becomes its child, so a layer's self time
// is its spans' durations minus the parts their child spans cover, and
// the layers' self times plus the time no top-level span covers
// (unattributed) add up to the traced window exactly.
//
// Spans, and every timing of the benchmark except point-query latency,
// are read from CpuNs(). When disabled, Begin/End only read that clock,
// so the untraced run pays for timing it needs anyway and nothing else.

#ifndef SMBCARD_PERFBENCH_LEDGER_H_
#define SMBCARD_PERFBENCH_LEDGER_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Wall clock: run-length control, protocol timers and deadlines, and
// the single recorders' point-query latency (a query takes ~0.1-1 us,
// less than one CpuNs() read costs, and is too short to be interrupted
// by a time slice).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The benchmark's clock for every other timing: this thread's CPU time.
// The benchmark runs on one thread that never waits on another, so this
// is its wall time minus the time its CPU ran something else: run-queue
// waits and the hypervisor's steal time, which the kernel keeps out of a
// task's clock. A host that runs the CPU slower still shows
// (perfbench/README.md, "Clocks"). Time blocked in a syscall (the single
// recorders' checkpoint fsync) is not counted either.
inline uint64_t CpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

class Ledger {
 public:
  struct Span {
    const char* name = "";   // layer-qualified, static storage
    const char* stage = "";  // pipeline stage the call belongs to
    uint32_t lane = 0;       // 0 = parent/recorder, c = child c
    uint64_t delta_id = 0;   // shared by every span of one delta; 0 = none
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int32_t parent = -1;     // index of the enclosing span, -1 = top level
  };

  struct LayerTime {
    double busy_s = 0.0;  // union of the layer's outermost spans
    double self_s = 0.0;  // span time not covered by child spans
  };

  struct Summary {
    double window_s = 0.0;
    double unattributed_s = 0.0;
    std::map<std::string, LayerTime> layers;
  };

  explicit Ledger(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void SetStage(const char* stage) { stage_ = stage; }

  // Opens a span and returns its start time (and token for End).
  struct Open {
    uint64_t start_ns = 0;
    int32_t index = -1;
  };
  Open Begin(const char* name, uint32_t lane = 0, uint64_t delta_id = 0);
  // Closes the span Begin opened; returns its duration in ns.
  uint64_t End(const Open& open);
  // A zero-length marker (e.g. "a delta's ack was observed").
  void Mark(const char* name, uint32_t lane, uint64_t delta_id);

  // Forgets recorded spans and marks the start of the traced window.
  void Reset(uint64_t window_start_ns);
  void SetWindowEnd(uint64_t window_end_ns) {
    window_end_ns_ = window_end_ns;
  }

  Summary Summarize() const;

  // Chrome trace-event JSON through trace/chrome_trace. The stage and
  // delta id ride in the event's comma-separated category list
  // ("ingest,delta-2-17"), the lane in its tid.
  std::string ChromeTrace() const;

 private:
  bool enabled_;
  const char* stage_ = "";
  std::vector<Span> spans_;
  int32_t open_ = -1;  // innermost open span
  uint64_t window_start_ns_ = 0;
  uint64_t window_end_ns_ = 0;
};

// RAII helper: times one call and adds the duration to *total_ns.
class Timed {
 public:
  Timed(Ledger* ledger, const char* name, uint64_t* total_ns,
        uint32_t lane = 0, uint64_t delta_id = 0)
      : ledger_(ledger),
        total_ns_(total_ns),
        open_(ledger->Begin(name, lane, delta_id)) {}
  ~Timed() {
    const uint64_t ns = ledger_->End(open_);
    if (total_ns_ != nullptr) *total_ns_ += ns;
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Ledger* ledger_;
  uint64_t* total_ns_;
  Ledger::Open open_;
};

}  // namespace perfbench

#endif  // SMBCARD_PERFBENCH_LEDGER_H_
