// Overload policies for the shard pipeline (DESIGN.md §11).
//
// A producer that finds a (producer, shard) SPSC ring full has to decide
// what sustained ingest overload costs: latency, items, or accuracy.
// PushWithOverloadPolicy makes that decision explicit:
//
//   kBlock            Never loses an item. Waits with a bounded
//                     spin → yield → sleep escalation (exponential
//                     backoff capped at sleep_max_us), so a stalled
//                     consumer costs microseconds of latency instead of a
//                     burning core. The default, and the only policy that
//                     keeps recording bit-identical to a sequential pass.
//
//   kDropWithCount    After give_up_rounds failed rounds, drops the
//                     remainder of the current run and counts every
//                     dropped item. Ingest never stalls; the estimate
//                     silently undercounts by at most the dropped items.
//
//   kDegradeToSample  After give_up_rounds failed rounds, pre-thins the
//                     remaining run through the destination shard's own
//                     geometric sampling gate: only items whose gate rank
//                     is >= kDegradeLevel survive (a 2^-level fraction).
//                     For an SMB shard (or an arena flow) this drops
//                     exactly the items its gate discards in rounds >=
//                     level, so once the sketch has morphed past `level`
//                     the policy is lossless; before that it undercounts
//                     only the 2^-level tail it kept none of — graceful,
//                     quantified degradation instead of silent loss.
//
// The helper is a free function over one ring so tests can drive it
// deterministically (stalled or absent consumer) without threading the
// whole pipeline.

#ifndef SMBCARD_PARALLEL_OVERLOAD_POLICY_H_
#define SMBCARD_PARALLEL_OVERLOAD_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/spsc_ring.h"

namespace smb {

enum class OverloadPolicy : uint8_t {
  kBlock = 0,
  kDropWithCount,
  kDegradeToSample,
};

// kDegradeToSample keeps items with gate rank >= this level (1/16).
inline constexpr int kDegradeLevel = 4;

struct OverloadParams {
  OverloadPolicy policy = OverloadPolicy::kBlock;
  // Escalation geometry: failed TryPush attempts spent spinning tight,
  // then yielding, before the policy escalates (sleep for kBlock, act for
  // the others).
  size_t spin_limit = 64;
  size_t yield_limit = 64;
  // kBlock: exponential backoff bounds for the sleep phase.
  uint64_t sleep_initial_us = 1;
  uint64_t sleep_max_us = 1000;
  // kDropWithCount / kDegradeToSample: total no-progress rounds tolerated
  // before the policy acts. The default equals spin_limit + yield_limit,
  // so those policies act right after the cheap wait phases and never
  // reach the sleep escalation.
  size_t give_up_rounds = 128;
};

// Per-run overload accounting, merged into the pipeline's stats and
// telemetry counters.
struct OverloadCounters {
  // Wait rounds (yield or sleep) while the ring was full — the classic
  // `ring_full_stalls` number.
  uint64_t ring_full_stalls = 0;
  // Failed TryPush attempts (includes the tight spin phase).
  uint64_t ring_full_retries = 0;
  // Items abandoned by kDropWithCount or thinned away by kDegradeToSample.
  uint64_t items_dropped = 0;
  // Times kDegradeToSample engaged its gate on a run.
  uint64_t degrade_events = 0;
};

// One failed round of waiting for ring space. Phases by `round`:
// [0, spin) tight retry, [spin, spin + yield) sched yield, beyond that
// kBlock sleeps with exponential backoff (the others give up first).
void OverloadBackOff(const OverloadParams& params, size_t round,
                     OverloadCounters* counters);

// Hands `run` to `ring` under `params`, mutating `run` in place when the
// degrade gate engages (survivors keep their relative order). `gate_rank`
// maps an item to the rank the destination shard's sampling gate will
// compute for it. Returns the number of items actually pushed; accounting
// accumulates into *counters. kBlock returns run->size() always; the
// other policies may return less.
template <typename T, typename GateRankFn>
size_t PushWithOverloadPolicy(SpscRingOf<T>* ring, std::vector<T>* run,
                              const OverloadParams& params,
                              const GateRankFn& gate_rank,
                              OverloadCounters* counters) {
  size_t offset = 0;       // items already in the ring
  size_t round = 0;        // consecutive no-progress rounds
  bool degraded = false;   // the degrade gate engages at most once per run
  while (offset < run->size()) {
    const size_t pushed = ring->TryPush(
        std::span<const T>(run->data() + offset, run->size() - offset));
    if (pushed > 0) {
      offset += pushed;
      round = 0;
      continue;
    }
    if (params.policy != OverloadPolicy::kBlock &&
        round >= params.give_up_rounds) {
      if (params.policy == OverloadPolicy::kDropWithCount) {
        counters->items_dropped += run->size() - offset;
        run->resize(offset);
        break;
      }
      // kDegradeToSample: thin the undelivered tail once, then push the
      // survivors with blocking back-pressure.
      if (!degraded) {
        degraded = true;
        ++counters->degrade_events;
        size_t kept = offset;
        for (size_t i = offset; i < run->size(); ++i) {
          if (gate_rank((*run)[i]) >= kDegradeLevel) {
            (*run)[kept++] = (*run)[i];
          }
        }
        counters->items_dropped += run->size() - kept;
        run->resize(kept);
        round = 0;
        continue;
      }
    }
    OverloadBackOff(params, round, counters);
    ++round;
  }
  return offset;
}

}  // namespace smb

#endif  // SMBCARD_PARALLEL_OVERLOAD_POLICY_H_
